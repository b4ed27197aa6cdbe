//! Semantic checking for MiniMPI programs.
//!
//! Validates the properties the later pipeline stages rely on, then
//! lowers the program once and stores the result on it:
//! - `main` exists and takes no arguments,
//! - function names are unique and do not shadow intrinsics/builtins,
//! - program parameters are unique, do not collide with reserved names
//!   and have a printable default,
//! - names inside function bodies are left to the scope walk of
//!   [`crate::lower`]: direct calls and `&func` references target
//!   existing functions with matching arity, every variable is defined
//!   before use (block-scoped), and no function declares a parameter
//!   twice.
//!
//! Recursive and mutually recursive calls are allowed — the PSG handles
//! them as cycles, exactly as the paper's inter-procedural analysis does.

use crate::ast::*;
use crate::error::{LangError, LangResult};
use crate::lower::lower;
use std::collections::HashSet;
use std::sync::Arc;

/// Statement intrinsics. A function may not take one of their names,
/// nor a builtin's ([`BuiltinFn::from_name`]).
const INTRINSIC_NAMES: &[&str] = &[
    "comp",
    "send",
    "recv",
    "sendrecv",
    "isend",
    "irecv",
    "wait",
    "waitall",
    "barrier",
    "bcast",
    "reduce",
    "allreduce",
    "alltoall",
    "allgather",
];

/// Run all semantic checks and store the lowered program in
/// [`Program::lowered`]. The AST itself is not rewritten.
pub fn check_program(program: &mut Program) -> LangResult<()> {
    check_function_table(program)?;
    check_params(program)?;
    program.lowered = Some(Arc::new(lower(program)?));
    Ok(())
}

fn check_function_table(program: &Program) -> LangResult<()> {
    let mut seen = HashSet::new();
    for func in &program.functions {
        if INTRINSIC_NAMES.contains(&func.name.as_str())
            || BuiltinFn::from_name(&func.name).is_some()
        {
            return Err(LangError::semantic(
                format!("function `{}` shadows an intrinsic", func.name),
                Some(func.span.clone()),
            ));
        }
        if RESERVED_VARS.contains(&func.name.as_str()) {
            return Err(LangError::semantic(
                format!("function `{}` shadows a reserved name", func.name),
                Some(func.span.clone()),
            ));
        }
        if !seen.insert(func.name.clone()) {
            return Err(LangError::semantic(
                format!("duplicate function `{}`", func.name),
                Some(func.span.clone()),
            ));
        }
    }
    let main = program
        .function("main")
        .ok_or_else(|| LangError::semantic("program has no `main` function", None))?;
    if !main.params.is_empty() {
        return Err(LangError::semantic(
            "`main` must take no parameters",
            Some(main.span.clone()),
        ));
    }
    Ok(())
}

fn check_params(program: &Program) -> LangResult<()> {
    let mut seen = HashSet::new();
    for param in &program.params {
        if RESERVED_VARS.contains(&param.name.as_str()) {
            return Err(LangError::semantic(
                format!("param `{}` shadows a reserved name", param.name),
                Some(param.span.clone()),
            ));
        }
        if !seen.insert(param.name.clone()) {
            return Err(LangError::semantic(
                format!("duplicate param `{}`", param.name),
                Some(param.span.clone()),
            ));
        }
        // The param grammar is `[-] INT`, so this is the one default the
        // pretty-printer cannot render as re-parseable source (the lexer
        // rejects the bare magnitude). Reject it at build time instead of
        // emitting unparseable dumps.
        if param.default == i64::MIN {
            return Err(LangError::semantic(
                format!(
                    "param `{}` default {} is not representable in the grammar",
                    param.name, param.default
                ),
                Some(param.span.clone()),
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::parse_program;

    #[test]
    fn accepts_valid_program() {
        let src = r#"
            param N = 100;
            fn main() {
                let half = N / 2;
                for i in 0 .. half {
                    comp(cycles = i + rank);
                }
                helper(half);
                let f = &helper;
                call f(3);
            }
            fn helper(n) {
                if n > 0 { allreduce(bytes = n); }
            }
        "#;
        parse_program("ok.mmpi", src).unwrap();
    }

    #[test]
    fn rejects_missing_main() {
        let err = parse_program("t.mmpi", "fn foo() { }").unwrap_err();
        assert!(err.message.contains("no `main`"));
    }

    #[test]
    fn rejects_main_with_params() {
        let err = parse_program("t.mmpi", "fn main(x) { }").unwrap_err();
        assert!(err.message.contains("no parameters"));
    }

    #[test]
    fn rejects_duplicate_function() {
        let err = parse_program("t.mmpi", "fn main() { } fn main() { }").unwrap_err();
        assert!(err.message.contains("duplicate function"));
    }

    #[test]
    fn rejects_undefined_variable() {
        let err = parse_program("t.mmpi", "fn main() { let x = y + 1; }").unwrap_err();
        assert!(err.message.contains("undefined variable `y`"));
    }

    #[test]
    fn rejects_use_outside_block_scope() {
        let src = "fn main() { if rank == 0 { let x = 1; } let y = x; }";
        let err = parse_program("t.mmpi", src).unwrap_err();
        assert!(err.message.contains("undefined variable `x`"));
    }

    #[test]
    fn loop_variable_scoped_to_body() {
        let src = "fn main() { for i in 0 .. 4 { comp(cycles = i); } let y = i; }";
        assert!(parse_program("t.mmpi", src).is_err());
    }

    #[test]
    fn rejects_undefined_call() {
        let err = parse_program("t.mmpi", "fn main() { nothere(); }").unwrap_err();
        assert!(err.message.contains("undefined function `nothere`"));
    }

    #[test]
    fn rejects_wrong_arity() {
        let err = parse_program("t.mmpi", "fn main() { f(1, 2); } fn f(a) { }").unwrap_err();
        assert!(err.message.contains("takes 1 argument(s), got 2"));
    }

    #[test]
    fn rejects_bad_funcref() {
        let err = parse_program("t.mmpi", "fn main() { let f = &ghost; }").unwrap_err();
        assert!(err.message.contains("references undefined function"));
    }

    #[test]
    fn rejects_intrinsic_shadowing() {
        let err = parse_program("t.mmpi", "fn main() { } fn send() { }").unwrap_err();
        assert!(err.message.contains("shadows an intrinsic"));
    }

    #[test]
    fn rejects_reserved_param() {
        let err = parse_program("t.mmpi", "param rank = 1; fn main() { }").unwrap_err();
        assert!(err.message.contains("shadows a reserved name"));
    }

    #[test]
    fn request_variable_is_defined_by_binding() {
        let src = "fn main() { let r = irecv(src = any); wait(r); }";
        parse_program("t.mmpi", src).unwrap();
    }

    #[test]
    fn a_request_operand_cannot_read_its_own_request() {
        for (src, name) in [
            (
                "fn main() { let r = isend(dst = r, tag = 0, bytes = 8); wait(r); }",
                "r",
            ),
            (
                "fn main() { let q = irecv(src = q, tag = 0); wait(q); }",
                "q",
            ),
        ] {
            let err = parse_program("t.mmpi", src).unwrap_err();
            assert!(
                err.message
                    .contains(&format!("use of undefined variable `{name}`")),
                "{err}"
            );
        }
    }

    #[test]
    fn rejects_duplicate_parameter() {
        let err = parse_program("t.mmpi", "fn main() { f(1, 2); } fn f(a, a) { }").unwrap_err();
        assert!(err.message.contains("duplicate parameter `a`"), "{err}");
    }

    #[test]
    fn recursion_is_allowed() {
        let src = "fn main() { rec(4); } fn rec(n) { if n > 0 { rec(n - 1); } }";
        parse_program("t.mmpi", src).unwrap();
    }

    #[test]
    fn reserved_vars_usable_everywhere() {
        let src = "fn main() { if rank < nprocs { recv(src = any, tag = any); } }";
        parse_program("t.mmpi", src).unwrap();
    }
}
