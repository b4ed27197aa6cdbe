//! Expression evaluation over the lowered form.
//!
//! Total semantics: division/modulo by zero yield zero (the simulator
//! must never trap on a workload expression), arithmetic wraps. Names
//! were settled when the program was checked ([`scalana_lang::lower`]),
//! so evaluation sees only literals, the executing rank, the run's
//! values of `nprocs` and of each parameter, and the current frame's
//! slots.

use crate::value::Value;
use scalana_lang::ast::{BinOp, BuiltinFn, UnOp};
use scalana_lang::lower::RExpr;

/// What an expression reads besides its frame's slots.
#[derive(Debug, Clone, Copy)]
pub struct Run<'a> {
    /// The executing rank.
    pub rank: i64,
    /// The run's rank count.
    pub nprocs: i64,
    /// The run's value of each declared program parameter, in
    /// declaration order: the default unless the run overrides it.
    pub params: &'a [i64],
}

/// Evaluate an expression against a frame's `slots` in `run`.
pub fn eval(expr: &RExpr, slots: &[Value], run: &Run<'_>) -> Value {
    match expr {
        RExpr::Int(v) => Value::Int(*v),
        RExpr::Rank => Value::Int(run.rank),
        RExpr::Nprocs => Value::Int(run.nprocs),
        RExpr::Param(i) => Value::Int(run.params[*i as usize]),
        RExpr::Slot(s) => slots[*s as usize],
        RExpr::Func(f) => Value::Func(*f),
        RExpr::Unary { op, expr } => {
            let v = eval_int(expr, slots, run);
            Value::Int(match op {
                UnOp::Neg => v.wrapping_neg(),
                UnOp::Not => i64::from(v == 0),
            })
        }
        RExpr::Binary { op, lhs, rhs } => Value::Int(eval_bin(*op, lhs, rhs, slots, run)),
        RExpr::Builtin { func, args } => {
            let a = eval_int(&args[0], slots, run);
            Value::Int(match func {
                BuiltinFn::Min => a.min(eval_int(&args[1], slots, run)),
                BuiltinFn::Max => a.max(eval_int(&args[1], slots, run)),
                BuiltinFn::Abs => a.wrapping_abs(),
                BuiltinFn::Log2 => {
                    if a <= 1 {
                        0
                    } else {
                        63 - a.leading_zeros() as i64
                    }
                }
            })
        }
    }
}

/// Evaluate to an integer; function references coerce to 0 (checked
/// programs never do arithmetic on them).
#[inline]
pub fn eval_int(expr: &RExpr, slots: &[Value], run: &Run<'_>) -> i64 {
    eval(expr, slots, run).as_int().unwrap_or(0)
}

fn eval_bin(op: BinOp, lhs: &RExpr, rhs: &RExpr, slots: &[Value], run: &Run<'_>) -> i64 {
    // Short-circuit logical operators.
    match op {
        BinOp::And => {
            return i64::from(eval(lhs, slots, run).truthy() && eval(rhs, slots, run).truthy());
        }
        BinOp::Or => {
            return i64::from(eval(lhs, slots, run).truthy() || eval(rhs, slots, run).truthy());
        }
        _ => {}
    }
    let a = eval_int(lhs, slots, run);
    let b = eval_int(rhs, slots, run);
    match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::Div => {
            if b == 0 {
                0
            } else {
                a.wrapping_div(b)
            }
        }
        BinOp::Mod => {
            if b == 0 {
                0
            } else {
                a.wrapping_rem(b)
            }
        }
        BinOp::Lt => i64::from(a < b),
        BinOp::Le => i64::from(a <= b),
        BinOp::Gt => i64::from(a > b),
        BinOp::Ge => i64::from(a >= b),
        BinOp::Eq => i64::from(a == b),
        BinOp::Ne => i64::from(a != b),
        BinOp::And | BinOp::Or => unreachable!("handled above"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalana_lang::ast::Expr;
    use scalana_lang::builder::*;
    use scalana_lang::lower::RStmtKind;

    /// Lower `expr` in `main` of a program with `param N = 100` and a
    /// function `leaf`, after `let`s binding `locals` to slots 0.., and
    /// evaluate it on rank 3 of 8.
    fn ev_with(expr: &Expr, locals: &[(&str, i64)]) -> Value {
        let mut b = ProgramBuilder::new("t.mmpi");
        b.param("N", 100);
        b.function("main", &[], |f| {
            for &(name, v) in locals {
                f.let_(name, int(v));
            }
            f.let_("result", expr.clone());
        });
        b.function("leaf", &[], |_| {});
        let program = b.finish().unwrap();
        let main = &program.lowered().functions[0];
        let RStmtKind::Set { value, .. } = &main.body.last().unwrap().kind else {
            panic!("expected a set")
        };
        let slots: Vec<Value> = locals.iter().map(|&(_, v)| Value::Int(v)).collect();
        let run = Run {
            rank: 3,
            nprocs: 8,
            params: &[100],
        };
        eval(value, &slots, &run)
    }

    fn ev(expr: &Expr) -> i64 {
        ev_with(expr, &[]).as_int().unwrap()
    }

    #[test]
    fn arithmetic_and_precedence() {
        assert_eq!(ev(&(int(1) + int(2) * int(3))), 7);
    }

    #[test]
    fn reserved_variables() {
        assert_eq!(ev(&rank()), 3);
        assert_eq!(ev(&nprocs()), 8);
        assert_eq!(ev(&any()), -1);
    }

    #[test]
    fn params_resolve_and_locals_shadow() {
        assert_eq!(ev(&var("N")), 100);
        assert_eq!(ev_with(&var("N"), &[("N", 5)]), Value::Int(5));
        assert_eq!(
            ev_with(&(var("a") - var("b")), &[("a", 10), ("b", 4)]),
            Value::Int(6)
        );
    }

    #[test]
    fn division_by_zero_is_zero() {
        assert_eq!(ev(&(int(10) / int(0))), 0);
        assert_eq!(ev(&(int(10) % int(0))), 0);
    }

    #[test]
    fn comparisons_and_logic() {
        assert_eq!(ev(&lt(int(1), int(2))), 1);
        assert_eq!(ev(&and(int(1), int(0))), 0);
        assert_eq!(ev(&or(int(0), int(7))), 1);
        let not_zero = Expr::Unary {
            op: UnOp::Not,
            expr: Box::new(int(0)),
        };
        assert_eq!(ev(&not_zero), 1);
    }

    #[test]
    fn builtins() {
        assert_eq!(ev(&max(int(3), int(9))), 9);
        assert_eq!(ev(&min(int(3), int(9))), 3);
        assert_eq!(ev(&abs(-int(5))), 5);
        assert_eq!(ev(&log2(int(1))), 0);
        assert_eq!(ev(&log2(int(2))), 1);
        assert_eq!(ev(&log2(int(1024))), 10);
        assert_eq!(ev(&log2(int(1025))), 10);
    }

    #[test]
    fn funcref_value() {
        assert_eq!(ev_with(&func_ref("leaf"), &[]), Value::Func(1));
    }

    #[test]
    fn wrapping_no_panic() {
        let _ = ev(&(int(i64::MAX) + int(1))); // must not panic
    }
}
