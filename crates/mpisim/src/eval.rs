//! Expression evaluation.
//!
//! Total semantics: division/modulo by zero yield zero (the simulator
//! must never trap on a workload expression), arithmetic wraps. Reserved
//! variables `rank`, `nprocs`, and `any` resolve from the evaluation
//! context, program parameters from the run configuration.

use crate::value::{Env, Value};
use scalana_lang::ast::{BinOp, BuiltinFn, Expr, UnOp, ANY_VALUE, VAR_ANY, VAR_NPROCS, VAR_RANK};
use scalana_lang::Program;
use std::collections::HashMap;

/// Program parameters interned to dense slots at simulation setup.
///
/// The interpreter resolves parameters on every expression evaluation;
/// going through a `HashMap<String, i64>` put string hashing in the
/// innermost eval loop. Interning once up front leaves a sorted name
/// table (binary-searched without hashing or allocation) whose hits read
/// a plain `Vec<i64>` shared by every rank of the run.
#[derive(Debug, Clone, Default)]
pub struct ParamTable {
    /// Sorted parameter names, parallel to `values`.
    names: Vec<Box<str>>,
    /// Dense slot array the eval loop reads.
    values: Vec<i64>,
}

impl ParamTable {
    /// Intern a program's declared parameters merged with run overrides
    /// (overrides may introduce names the program does not declare,
    /// matching the historical `HashMap` merge).
    pub fn build(program: &Program, overrides: &HashMap<String, i64>) -> ParamTable {
        let mut table =
            ParamTable::from_pairs(program.params.iter().map(|p| (p.name.as_str(), p.default)));
        // Deterministic override order (HashMap iteration is not).
        let mut sorted: Vec<(&str, i64)> =
            overrides.iter().map(|(k, v)| (k.as_str(), *v)).collect();
        sorted.sort_unstable_by_key(|(k, _)| *k);
        for (name, value) in sorted {
            table.set(name, value);
        }
        table
    }

    /// Intern an explicit name/value list (later entries override).
    pub fn from_pairs<'a>(pairs: impl IntoIterator<Item = (&'a str, i64)>) -> ParamTable {
        let mut table = ParamTable::default();
        for (name, value) in pairs {
            table.set(name, value);
        }
        table
    }

    /// Insert or overwrite one parameter.
    pub fn set(&mut self, name: &str, value: i64) {
        match self.slot(name) {
            Ok(i) => self.values[i] = value,
            Err(i) => {
                self.names.insert(i, name.into());
                self.values.insert(i, value);
            }
        }
    }

    /// Resolve a parameter by name.
    #[inline]
    pub fn get(&self, name: &str) -> Option<i64> {
        self.slot(name).ok().map(|i| self.values[i])
    }

    /// The dense value slots (sorted-name order).
    pub fn values(&self) -> &[i64] {
        &self.values
    }

    #[inline]
    fn slot(&self, name: &str) -> Result<usize, usize> {
        self.names.binary_search_by(|n| n.as_ref().cmp(name))
    }
}

/// Evaluation context: the rank's identity plus run parameters.
pub struct EvalCtx<'a> {
    /// Executing rank.
    pub rank: i64,
    /// Total rank count.
    pub nprocs: i64,
    /// Interned program parameters (defaults merged with overrides).
    pub params: &'a ParamTable,
}

/// Evaluate an expression to a [`Value`].
pub fn eval(expr: &Expr, env: &Env<'_>, ctx: &EvalCtx<'_>) -> Value {
    match expr {
        Expr::Int(v) => Value::Int(*v),
        Expr::Var(name) => lookup(name, env, ctx),
        Expr::FuncRef(name) => Value::Func(name.clone()),
        Expr::Unary { op, expr } => {
            let v = eval_int(expr, env, ctx);
            Value::Int(match op {
                UnOp::Neg => v.wrapping_neg(),
                UnOp::Not => i64::from(v == 0),
            })
        }
        Expr::Binary { op, lhs, rhs } => Value::Int(eval_bin(*op, lhs, rhs, env, ctx)),
        Expr::Builtin { func, args } => {
            let a = eval_int(&args[0], env, ctx);
            Value::Int(match func {
                BuiltinFn::Min => a.min(eval_int(&args[1], env, ctx)),
                BuiltinFn::Max => a.max(eval_int(&args[1], env, ctx)),
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
pub fn eval_int(expr: &Expr, env: &Env<'_>, ctx: &EvalCtx<'_>) -> i64 {
    eval(expr, env, ctx).as_int().unwrap_or(0)
}

fn lookup(name: &str, env: &Env<'_>, ctx: &EvalCtx<'_>) -> Value {
    match name {
        VAR_RANK => Value::Int(ctx.rank),
        VAR_NPROCS => Value::Int(ctx.nprocs),
        VAR_ANY => Value::Int(ANY_VALUE),
        _ => {
            if let Some(v) = env.get(name) {
                v.clone()
            } else if let Some(p) = ctx.params.get(name) {
                Value::Int(p)
            } else {
                // Unreachable for checked programs.
                Value::Int(0)
            }
        }
    }
}

fn eval_bin(op: BinOp, lhs: &Expr, rhs: &Expr, env: &Env<'_>, ctx: &EvalCtx<'_>) -> i64 {
    // Short-circuit logical operators.
    match op {
        BinOp::And => {
            return if eval(lhs, env, ctx).truthy() && eval(rhs, env, ctx).truthy() {
                1
            } else {
                0
            };
        }
        BinOp::Or => {
            return if eval(lhs, env, ctx).truthy() || eval(rhs, env, ctx).truthy() {
                1
            } else {
                0
            };
        }
        _ => {}
    }
    let a = eval_int(lhs, env, ctx);
    let b = eval_int(rhs, env, ctx);
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
    use scalana_lang::builder::*;

    fn ctx(params: &ParamTable) -> EvalCtx<'_> {
        EvalCtx {
            rank: 3,
            nprocs: 8,
            params,
        }
    }

    #[test]
    fn arithmetic_and_precedence() {
        let params = ParamTable::default();
        let env = Env::new();
        let e = int(1) + int(2) * int(3);
        assert_eq!(eval_int(&e, &env, &ctx(&params)), 7);
    }

    #[test]
    fn reserved_variables() {
        let params = ParamTable::default();
        let env = Env::new();
        assert_eq!(eval_int(&rank(), &env, &ctx(&params)), 3);
        assert_eq!(eval_int(&nprocs(), &env, &ctx(&params)), 8);
        assert_eq!(eval_int(&any(), &env, &ctx(&params)), -1);
    }

    #[test]
    fn params_resolve_and_locals_shadow() {
        let mut params = ParamTable::default();
        params.set("N", 100);
        let mut env = Env::new();
        assert_eq!(eval_int(&var("N"), &env, &ctx(&params)), 100);
        env.define("N", Value::Int(5));
        assert_eq!(eval_int(&var("N"), &env, &ctx(&params)), 5);
    }

    #[test]
    fn division_by_zero_is_zero() {
        let params = ParamTable::default();
        let env = Env::new();
        assert_eq!(eval_int(&(int(10) / int(0)), &env, &ctx(&params)), 0);
        assert_eq!(eval_int(&(int(10) % int(0)), &env, &ctx(&params)), 0);
    }

    #[test]
    fn comparisons_and_logic() {
        let params = ParamTable::default();
        let env = Env::new();
        assert_eq!(eval_int(&lt(int(1), int(2)), &env, &ctx(&params)), 1);
        assert_eq!(eval_int(&and(int(1), int(0)), &env, &ctx(&params)), 0);
        assert_eq!(eval_int(&or(int(0), int(7)), &env, &ctx(&params)), 1);
        let not_zero = scalana_lang::ast::Expr::Unary {
            op: UnOp::Not,
            expr: Box::new(int(0)),
        };
        assert_eq!(eval_int(&not_zero, &env, &ctx(&params)), 1);
    }

    #[test]
    fn builtins() {
        let params = ParamTable::default();
        let env = Env::new();
        assert_eq!(eval_int(&max(int(3), int(9)), &env, &ctx(&params)), 9);
        assert_eq!(eval_int(&min(int(3), int(9)), &env, &ctx(&params)), 3);
        assert_eq!(eval_int(&abs(-int(5)), &env, &ctx(&params)), 5);
        assert_eq!(eval_int(&log2(int(1)), &env, &ctx(&params)), 0);
        assert_eq!(eval_int(&log2(int(2)), &env, &ctx(&params)), 1);
        assert_eq!(eval_int(&log2(int(1024)), &env, &ctx(&params)), 10);
        assert_eq!(eval_int(&log2(int(1025)), &env, &ctx(&params)), 10);
    }

    #[test]
    fn funcref_value() {
        let params = ParamTable::default();
        let env = Env::new();
        assert_eq!(
            eval(&func_ref("leaf"), &env, &ctx(&params)),
            Value::Func("leaf".to_string())
        );
    }

    #[test]
    fn wrapping_no_panic() {
        let params = ParamTable::default();
        let env = Env::new();
        let e = int(i64::MAX) + int(1);
        let _ = eval_int(&e, &env, &ctx(&params)); // must not panic
    }
}
