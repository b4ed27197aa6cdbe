//! Pretty-printer for MiniMPI.
//!
//! The output is valid MiniMPI that re-parses to a structurally equal AST
//! (same statement order, hence the same [`crate::ast::NodeId`]s; spans
//! differ). Used for dumping generated workloads and by round-trip tests.

use crate::ast::*;
use crate::span::Span;
use std::fmt::Write;

/// Render a program as MiniMPI source text.
pub fn print_program(program: &Program) -> String {
    let mut out = String::new();
    for param in &program.params {
        let _ = writeln!(out, "param {} = {};", param.name, param.default);
    }
    if !program.params.is_empty() {
        out.push('\n');
    }
    for (i, func) in program.functions.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        print_function(&mut out, func);
    }
    out
}

fn print_function(out: &mut String, func: &Function) {
    let _ = write!(out, "fn {}(", func.name);
    for (i, p) in func.params.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(p);
    }
    out.push_str(") ");
    print_block(out, &func.body, 0);
    out.push('\n');
}

fn indent(out: &mut String, level: usize) {
    for _ in 0..level {
        out.push_str("    ");
    }
}

fn print_block(out: &mut String, block: &Block, level: usize) {
    out.push_str("{\n");
    for stmt in &block.stmts {
        indent(out, level + 1);
        print_stmt(out, stmt, level + 1);
        out.push('\n');
    }
    indent(out, level);
    out.push('}');
}

fn print_stmt(out: &mut String, stmt: &Stmt, level: usize) {
    match &stmt.kind {
        StmtKind::Let { name, value } => {
            let _ = write!(out, "let {name} = {};", expr(value));
        }
        StmtKind::Assign { name, value } => {
            let _ = write!(out, "{name} = {};", expr(value));
        }
        StmtKind::For {
            var,
            start,
            end,
            body,
        } => {
            let _ = write!(out, "for {var} in {} .. {} ", expr(start), expr(end));
            print_block(out, body, level);
        }
        StmtKind::While { cond, body } => {
            let _ = write!(out, "while {} ", expr(cond));
            print_block(out, body, level);
        }
        StmtKind::If {
            cond,
            then_block,
            else_block,
        } => {
            let _ = write!(out, "if {} ", expr(cond));
            print_block(out, then_block, level);
            if let Some(e) = else_block {
                out.push_str(" else ");
                print_block(out, e, level);
            }
        }
        StmtKind::Call { callee, args } => {
            let _ = write!(out, "{callee}(");
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(&expr(a));
            }
            out.push_str(");");
        }
        StmtKind::CallIndirect { target, args } => {
            let _ = write!(out, "call {}(", expr_atom(target));
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(&expr(a));
            }
            out.push_str(");");
        }
        StmtKind::Comp(attrs) => {
            let _ = write!(out, "comp(cycles = {}", expr(&attrs.cycles));
            if let Some(e) = &attrs.ins {
                let _ = write!(out, ", ins = {}", expr(e));
            }
            if let Some(e) = &attrs.lst {
                let _ = write!(out, ", lst = {}", expr(e));
            }
            if let Some(e) = &attrs.l2_miss {
                let _ = write!(out, ", miss = {}", expr(e));
            }
            if let Some(e) = &attrs.br_miss {
                let _ = write!(out, ", brmiss = {}", expr(e));
            }
            out.push_str(");");
        }
        StmtKind::Mpi(op) => print_mpi(out, op),
        StmtKind::Return => out.push_str("return;"),
    }
}

fn print_mpi(out: &mut String, op: &MpiOp) {
    if let MpiOp::Isend { req, .. } | MpiOp::Irecv { req, .. } = op {
        let _ = write!(out, "let {req} = ");
    }
    let args: Vec<String> = match op {
        MpiOp::Wait { req } => vec![expr(req)],
        _ => (op.operands().into_iter())
            .map(|(name, e)| format!("{name} = {}", expr(e)))
            .collect(),
    };
    let _ = write!(out, "{}({});", op.name(), args.join(", "));
}

/// Render an expression (fully parenthesized compounds, so precedence is
/// preserved on re-parse).
pub fn expr(e: &Expr) -> String {
    match e {
        Expr::Int(v) => {
            if *v == i64::MIN {
                // `i64::MIN` has no in-range magnitude to negate (the
                // lexer rejects the bare literal), so print a two-literal
                // expression with the same value; [`normalize_spans`]
                // folds the re-parsed shape back to the literal.
                format!("(-{} - 1)", i64::MAX)
            } else if *v < 0 {
                // Negative literals don't exist in the grammar; print as
                // a parenthesized unary negation so they re-parse.
                format!("(-{})", -v)
            } else {
                v.to_string()
            }
        }
        Expr::Var(name) => name.clone(),
        Expr::FuncRef(name) => format!("&{name}"),
        Expr::Unary { op, expr: inner } => {
            let sym = match op {
                UnOp::Neg => "-",
                UnOp::Not => "!",
            };
            format!("({sym}{})", expr(inner))
        }
        Expr::Binary { op, lhs, rhs } => {
            format!("({} {} {})", expr(lhs), op.symbol(), expr(rhs))
        }
        Expr::Builtin { func, args } => {
            let rendered: Vec<String> = args.iter().map(expr).collect();
            format!("{}({})", func.name(), rendered.join(", "))
        }
    }
}

/// Render an expression suitable for `call <target>(..)` position.
fn expr_atom(e: &Expr) -> String {
    match e {
        Expr::Var(name) => name.clone(),
        other => format!("({})", expr(other)),
    }
}

/// Return a copy of the program with every span replaced by a fixed
/// synthetic span and integer literal normalization applied.
///
/// Literal normalization canonicalizes the two spellings of a negative
/// constant: a unary negation of a literal (`-3`, the only shape the
/// parser can produce) folds to the negative literal itself (`Int(-3)`,
/// the shape builders produce and the printer renders as `(-3)`), and
/// the printer's two-literal spelling of `i64::MIN` folds back to that
/// literal. Both folds are value-preserving under the evaluator's
/// wrapping semantics, so structural equality of normalized programs is
/// the round-trip invariant.
///
/// Useful for structural comparisons in round-trip tests, where the
/// re-parsed AST has different source locations. The lowered form is
/// dropped: it is derived from the AST, and only a checked program has
/// one.
pub fn normalize_spans(program: &Program) -> Program {
    let mut p = program.clone();
    p.lowered = None;
    let fixed = Span::synthetic("<normalized>", 0);
    for param in &mut p.params {
        param.span = fixed.clone();
    }
    for func in &mut p.functions {
        func.span = fixed.clone();
        normalize_block(&mut func.body, &fixed);
    }
    p
}

fn normalize_block(block: &mut Block, fixed: &Span) {
    for stmt in &mut block.stmts {
        stmt.span = fixed.clone();
        match &mut stmt.kind {
            StmtKind::Let { value, .. } | StmtKind::Assign { value, .. } => {
                normalize_expr(value);
            }
            StmtKind::For {
                start, end, body, ..
            } => {
                normalize_expr(start);
                normalize_expr(end);
                normalize_block(body, fixed);
            }
            StmtKind::While { cond, body } => {
                normalize_expr(cond);
                normalize_block(body, fixed);
            }
            StmtKind::If {
                cond,
                then_block,
                else_block,
            } => {
                normalize_expr(cond);
                normalize_block(then_block, fixed);
                if let Some(e) = else_block {
                    normalize_block(e, fixed);
                }
            }
            StmtKind::Call { args, .. } => args.iter_mut().for_each(normalize_expr),
            StmtKind::CallIndirect { target, args } => {
                normalize_expr(target);
                args.iter_mut().for_each(normalize_expr);
            }
            StmtKind::Comp(attrs) => {
                normalize_expr(&mut attrs.cycles);
                for e in [
                    &mut attrs.ins,
                    &mut attrs.lst,
                    &mut attrs.l2_miss,
                    &mut attrs.br_miss,
                ]
                .into_iter()
                .flatten()
                {
                    normalize_expr(e);
                }
            }
            StmtKind::Mpi(op) => {
                for (_, e) in op.operands_mut() {
                    normalize_expr(e);
                }
            }
            StmtKind::Return => {}
        }
    }
}

fn normalize_expr(e: &mut Expr) {
    match e {
        Expr::Unary {
            op: UnOp::Neg,
            expr: inner,
        } => {
            normalize_expr(inner);
            if let Expr::Int(v) = **inner {
                *e = Expr::Int(v.wrapping_neg());
            }
        }
        Expr::Unary { expr: inner, .. } => normalize_expr(inner),
        Expr::Binary { op, lhs, rhs } => {
            normalize_expr(lhs);
            normalize_expr(rhs);
            // The printer spells `i64::MIN` as `(-MAX - 1)`; fold that
            // exact shape (post-negation-fold: `Int(-MAX) - Int(1)`)
            // back to the literal.
            if *op == BinOp::Sub
                && matches!(**lhs, Expr::Int(a) if a == -i64::MAX)
                && matches!(**rhs, Expr::Int(1))
            {
                *e = Expr::Int(i64::MIN);
            }
        }
        Expr::Builtin { args, .. } => args.iter_mut().for_each(normalize_expr),
        Expr::Int(_) | Expr::Var(_) | Expr::FuncRef(_) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_program;

    fn round_trip(src: &str) {
        let p1 = parse_program("t.mmpi", src).unwrap();
        let printed = print_program(&p1);
        let p2 = parse_program("t.mmpi", &printed).unwrap_or_else(|e| {
            panic!("pretty output failed to parse: {e}\n---\n{printed}");
        });
        assert_eq!(
            normalize_spans(&p1),
            normalize_spans(&p2),
            "round trip mismatch\n---\n{printed}"
        );
    }

    #[test]
    fn round_trips_comprehensive_program() {
        round_trip(
            r#"
            param N = 4096;
            param ITERS = 25;
            fn main() {
                let chunk = N / nprocs;
                for it in 0 .. ITERS {
                    comp(cycles = chunk * 10, ins = chunk * 8, lst = chunk * 2,
                         miss = chunk / 50, brmiss = chunk / 100);
                    if rank % 2 == 0 && rank + 1 < nprocs {
                        send(dst = rank + 1, tag = it, bytes = 4k);
                    } else if rank % 2 == 1 {
                        recv(src = rank - 1, tag = it);
                    } else {
                        barrier();
                    }
                    let r = irecv(src = any, tag = any);
                    let s = isend(dst = (rank + 1) % nprocs, tag = 9, bytes = 256);
                    wait(r);
                    waitall();
                }
                exchange(chunk);
                let f = &exchange;
                call f(chunk / 2);
                while chunk > 0 {
                    chunk = chunk / 2;
                }
                allreduce(bytes = 8);
                return;
            }
            fn exchange(n) {
                sendrecv(dst = (rank + 1) % nprocs, src = (rank + nprocs - 1) % nprocs,
                         sendtag = 5, recvtag = 5, bytes = n);
                bcast(root = 0, bytes = n);
                reduce(root = 0, bytes = n);
                alltoall(bytes = n);
                allgather(bytes = n);
            }
            "#,
        );
    }

    #[test]
    fn round_trips_negative_and_unary() {
        round_trip("fn main() { let x = -3 + (-(4)) * (!0); let y = abs(x - 7); }");
    }

    /// A builder-made negative literal and a parsed unary negation are
    /// different AST shapes that print identically; normalization makes
    /// the round trip structural for both.
    #[test]
    fn negative_literal_round_trips_from_builder() {
        use crate::builder::*;
        let mut b = ProgramBuilder::new("neg.mmpi");
        b.function("main", &[], |f| {
            f.let_("x", int(-3));
            f.let_("y", int(-3) * int(-7) + var("x"));
        });
        let p = b.finish().unwrap();
        let printed = print_program(&p);
        let reparsed = parse_program("neg.mmpi", &printed).unwrap();
        assert_eq!(normalize_spans(&p), normalize_spans(&reparsed));
    }

    /// `i64::MIN` has no literal spelling the lexer accepts; the printer
    /// must still emit parseable, value-identical source for it.
    #[test]
    fn i64_min_prints_parseable_and_round_trips() {
        use crate::builder::*;
        assert_eq!(expr(&int(i64::MIN)), "(-9223372036854775807 - 1)");
        let mut b = ProgramBuilder::new("min.mmpi");
        b.function("main", &[], |f| {
            f.let_("x", int(i64::MIN));
            f.comp_cycles(abs(var("x")));
        });
        let p = b.finish().unwrap();
        let printed = print_program(&p);
        let reparsed = parse_program("min.mmpi", &printed)
            .unwrap_or_else(|e| panic!("MIN output must parse: {e}\n---\n{printed}"));
        assert_eq!(normalize_spans(&p), normalize_spans(&reparsed));
    }

    #[test]
    fn round_trips_nested_control_flow() {
        round_trip(
            "fn main() { for i in 0 .. 4 { for j in i .. 8 { if i < j { comp(cycles = 1); } } } }",
        );
    }

    #[test]
    fn printed_source_is_indented() {
        let p = parse_program("t.mmpi", "fn main() { for i in 0 .. 2 { barrier(); } }").unwrap();
        let printed = print_program(&p);
        assert!(printed.contains("\n    for i in 0 .. 2 {\n        barrier();\n    }"));
    }

    #[test]
    fn expr_parenthesization_preserves_shape() {
        let p1 = parse_program("t.mmpi", "fn main() { let x = 1 + 2 * 3 - 4 / 5; }").unwrap();
        let p2 = parse_program("t.mmpi", &print_program(&p1)).unwrap();
        assert_eq!(normalize_spans(&p1), normalize_spans(&p2));
    }
}
