//! Expression evaluation over the lowered form.
//!
//! Total semantics: division/modulo by zero yield zero (the simulator
//! must never trap on a workload expression), arithmetic wraps. Names
//! were settled when the program was checked ([`scalana_lang::lower`]),
//! so evaluation sees only literals, the executing rank, the run's
//! values of `nprocs` and of each parameter, and the current frame's
//! slots.
//!
//! The evaluator's core is [`eval_int`], which works on `i64` alone:
//! every operator and builtin produces an integer, so no intermediate is
//! a [`Value`]. An operand that is a leaf (a literal, a slot, a
//! parameter, `rank` or `nprocs`) is read in place rather than through
//! a recursive call. Only a function reference is not an integer; it
//! reads as 0 in arithmetic and as true under `&&`, `||` and `!`
//! ([`eval_truthy`]), so `!&f` is 0 and exactly one of `if g { .. }` and
//! `if !g { .. }` runs. [`eval`] builds a [`Value`] only at the root of
//! an expression that can be one: a `&f` leaf, or a slot that may hold
//! one.

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
        RExpr::Slot(s) => slots[*s as usize],
        RExpr::Func(f) => Value::Func(*f),
        _ => Value::Int(eval_int(expr, slots, run)),
    }
}

/// Evaluate to an integer; function references read as 0 (checked
/// programs never do arithmetic on them).
pub fn eval_int(expr: &RExpr, slots: &[Value], run: &Run<'_>) -> i64 {
    match expr {
        RExpr::Unary { op, expr } => match op {
            UnOp::Neg => operand(expr, slots, run).wrapping_neg(),
            UnOp::Not => i64::from(!eval_truthy(expr, slots, run)),
        },
        RExpr::Binary { op, lhs, rhs } => binary(*op, lhs, rhs, slots, run),
        RExpr::Builtin { func, args } => {
            let a = operand(&args[0], slots, run);
            match func {
                BuiltinFn::Min => a.min(operand(&args[1], slots, run)),
                BuiltinFn::Max => a.max(operand(&args[1], slots, run)),
                BuiltinFn::Abs => a.wrapping_abs(),
                BuiltinFn::Log2 => {
                    if a <= 1 {
                        0
                    } else {
                        63 - a.leading_zeros() as i64
                    }
                }
            }
        }
        leaf => operand(leaf, slots, run),
    }
}

/// Whether an expression is true: a nonzero integer or a function
/// reference.
pub fn eval_truthy(expr: &RExpr, slots: &[Value], run: &Run<'_>) -> bool {
    match expr {
        RExpr::Slot(s) => slots[*s as usize].truthy(),
        RExpr::Func(_) => true,
        _ => operand(expr, slots, run) != 0,
    }
}

/// An operand's integer: a leaf read in place, anything else evaluated.
#[inline(always)]
pub(crate) fn operand(expr: &RExpr, slots: &[Value], run: &Run<'_>) -> i64 {
    match expr {
        RExpr::Int(v) => *v,
        RExpr::Slot(s) => slots[*s as usize].as_int().unwrap_or(0),
        RExpr::Param(i) => run.params[*i as usize],
        RExpr::Rank => run.rank,
        RExpr::Nprocs => run.nprocs,
        RExpr::Func(_) => 0,
        _ => eval_int(expr, slots, run),
    }
}

fn binary(op: BinOp, lhs: &RExpr, rhs: &RExpr, slots: &[Value], run: &Run<'_>) -> i64 {
    // Short-circuit logical operators.
    match op {
        BinOp::And => {
            return i64::from(eval_truthy(lhs, slots, run) && eval_truthy(rhs, slots, run));
        }
        BinOp::Or => {
            return i64::from(eval_truthy(lhs, slots, run) || eval_truthy(rhs, slots, run));
        }
        _ => {}
    }
    let a = operand(lhs, slots, run);
    let b = operand(rhs, slots, run);
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
    /// function `leaf` (index 1), after `let`s binding `locals` to slots
    /// 0.., and evaluate it on rank 3 of 8.
    fn ev_with(expr: &Expr, locals: &[(&str, Value)]) -> Value {
        let mut b = ProgramBuilder::new("t.mmpi");
        b.param("N", 100);
        b.function("main", &[], |f| {
            for &(name, v) in locals {
                let init = match v {
                    Value::Int(v) => int(v),
                    Value::Func(_) => func_ref("leaf"),
                };
                f.let_(name, init);
            }
            f.let_("result", expr.clone());
        });
        b.function("leaf", &[], |_| {});
        let program = b.finish().unwrap();
        let main = &program.lowered().functions[0];
        let RStmtKind::Set { value, .. } = &main.body.last().unwrap().kind else {
            panic!("expected a set")
        };
        let slots: Vec<Value> = locals.iter().map(|&(_, v)| v).collect();
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
        assert_eq!(ev_with(&var("N"), &[("N", Value::Int(5))]), Value::Int(5));
        assert_eq!(
            ev_with(
                &(var("a") - var("b")),
                &[("a", Value::Int(10)), ("b", Value::Int(4))]
            ),
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

    fn not(e: Expr) -> Expr {
        Expr::Unary {
            op: UnOp::Not,
            expr: Box::new(e),
        }
    }

    #[test]
    fn funcref_is_true_in_logic_and_zero_in_arithmetic() {
        let f = || func_ref("leaf");
        assert_eq!(ev(&and(f(), int(1))), 1);
        assert_eq!(ev(&and(int(1), f())), 1);
        assert_eq!(ev(&or(f(), int(0))), 1);
        assert_eq!(ev(&or(int(0), f())), 1);
        assert_eq!(ev(&not(f())), 0);
        assert_eq!(ev(&not(not(f()))), 1);
        // Outside `&&`, `||` and `!` a reference reads as the integer 0.
        assert_eq!(ev(&-f()), 0);
        assert_eq!(ev(&(f() + int(1))), 1);
        assert_eq!(ev(&eq(f(), int(0))), 1);
        assert_eq!(ev(&max(f(), int(-4))), 0);
    }

    #[test]
    fn slot_holding_a_funcref() {
        let g = [("g", Value::Func(1))];
        assert_eq!(ev_with(&var("g"), &g), Value::Func(1));
        assert_eq!(ev_with(&(var("g") + int(1)), &g), Value::Int(1));
        assert_eq!(ev_with(&(var("g") * int(7)), &g), Value::Int(0));
        assert_eq!(ev_with(&and(var("g"), int(5)), &g), Value::Int(1));
        assert_eq!(ev_with(&or(int(0), var("g")), &g), Value::Int(1));
        assert_eq!(ev_with(&not(var("g")), &g), Value::Int(0));
        assert_eq!(ev_with(&not(not(var("g"))), &g), Value::Int(1));
    }

    #[test]
    fn overflowing_division_and_abs_wrap() {
        assert_eq!(ev(&(int(i64::MIN) / int(-1))), i64::MIN);
        assert_eq!(ev(&(int(i64::MIN) % int(-1))), 0);
        assert_eq!(ev(&abs(int(i64::MIN))), i64::MIN);
        assert_eq!(ev(&-int(i64::MIN)), i64::MIN);
        assert_eq!(ev(&(int(i64::MAX) * int(2))), -2);
        assert_eq!(ev(&(int(i64::MIN) - int(1))), i64::MAX);
    }

    #[test]
    fn log2_of_values_at_most_one_is_zero() {
        for v in [1, 0, -1, -1024, i64::MIN] {
            assert_eq!(ev(&log2(int(v))), 0, "log2({v})");
        }
        assert_eq!(ev(&log2(int(i64::MAX))), 62);
    }

    #[test]
    fn division_and_modulo_by_zero_from_any_operand() {
        let x = [("x", Value::Int(0))];
        for num in [i64::MIN, -7, 0, 7, i64::MAX] {
            assert_eq!(ev(&(int(num) / int(0))), 0, "{num} / 0");
            assert_eq!(ev(&(int(num) % int(0))), 0, "{num} % 0");
            assert_eq!(ev_with(&(int(num) / var("x")), &x), Value::Int(0));
            assert_eq!(ev_with(&(int(num) % var("x")), &x), Value::Int(0));
        }
        assert_eq!(ev(&(int(7) / (rank() - int(3)))), 0);
        assert_eq!(ev(&(int(-7) / int(2))), -3);
        assert_eq!(ev(&(int(-7) % int(2))), -1);
    }
}
