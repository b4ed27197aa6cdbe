//! Property-based tests for the MiniMPI front-end.
//!
//! - the lexer never panics on arbitrary input,
//! - the parser never panics on arbitrary token-shaped text,
//! - pretty-printing a generated program re-parses to a structurally
//!   identical AST (the front-end's core invariant).

use proptest::prelude::*;
use scalana_lang::ast::*;
use scalana_lang::pretty::{normalize_spans, print_program};
use scalana_lang::span::Span;
use scalana_lang::{lexer, parse_program};

// ----- strategies -----

/// Variable names guaranteed to be in scope in generated bodies
/// (`P0` is a program parameter, usable everywhere).
const SCOPE_VARS: &[&str] = &["rank", "nprocs", "n0", "n1", "P0"];

fn arb_expr(depth: u32) -> BoxedStrategy<Expr> {
    let leaf = prop_oneof![
        (0i64..10_000).prop_map(Expr::Int),
        // The full literal range, including i64::MIN — the printer emits
        // negatives parenthesized and MIN as `(-MAX - 1)`, and
        // normalization folds both back to plain literals.
        (i64::MIN..=i64::MAX).prop_map(Expr::Int),
        proptest::sample::select(SCOPE_VARS).prop_map(|v| Expr::Var(v.to_string())),
    ];
    leaf.prop_recursive(depth, 32, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone(), arb_binop()).prop_map(|(a, b, op)| Expr::bin(op, a, b)),
            inner.clone().prop_map(|e| Expr::Unary {
                op: UnOp::Neg,
                expr: Box::new(e)
            }),
            inner.clone().prop_map(|e| Expr::Unary {
                op: UnOp::Not,
                expr: Box::new(e)
            }),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Builtin {
                func: BuiltinFn::Max,
                args: vec![a, b],
            }),
            inner.prop_map(|e| Expr::Builtin {
                func: BuiltinFn::Abs,
                args: vec![e]
            }),
        ]
    })
    .boxed()
}

fn arb_binop() -> impl Strategy<Value = BinOp> {
    prop_oneof![
        Just(BinOp::Add),
        Just(BinOp::Sub),
        Just(BinOp::Mul),
        Just(BinOp::Div),
        Just(BinOp::Mod),
        Just(BinOp::Lt),
        Just(BinOp::Le),
        Just(BinOp::Gt),
        Just(BinOp::Ge),
        Just(BinOp::Eq),
        Just(BinOp::Ne),
        Just(BinOp::And),
        Just(BinOp::Or),
    ]
}

fn arb_mpi(expr_depth: u32) -> BoxedStrategy<MpiOp> {
    let e = move || arb_expr(expr_depth);
    prop_oneof![
        (e(), e(), e()).prop_map(|(dst, tag, bytes)| MpiOp::Send { dst, tag, bytes }),
        (e(), e()).prop_map(|(src, tag)| MpiOp::Recv { src, tag }),
        (e(), e(), e(), e(), e()).prop_map(|(dst, sendtag, src, recvtag, bytes)| {
            MpiOp::Sendrecv {
                dst,
                sendtag,
                src,
                recvtag,
                bytes,
            }
        }),
        Just(MpiOp::Waitall),
        Just(MpiOp::Barrier),
        (e(), e()).prop_map(|(root, bytes)| MpiOp::Bcast { root, bytes }),
        (e(), e()).prop_map(|(root, bytes)| MpiOp::Reduce { root, bytes }),
        e().prop_map(|bytes| MpiOp::Allreduce { bytes }),
        e().prop_map(|bytes| MpiOp::Alltoall { bytes }),
        e().prop_map(|bytes| MpiOp::Allgather { bytes }),
    ]
    .boxed()
}

fn arb_comp() -> impl Strategy<Value = StmtKind> {
    let opt = || prop_oneof![Just(None), arb_expr(1).prop_map(Some),];
    (arb_expr(2), opt(), opt(), opt(), opt()).prop_map(|(cycles, ins, lst, l2_miss, br_miss)| {
        StmtKind::Comp(CompAttrs {
            cycles,
            ins,
            lst,
            l2_miss,
            br_miss,
        })
    })
}

fn arb_stmt_kind(depth: u32) -> BoxedStrategy<StmtKind> {
    let e = move || arb_expr(2);
    let leaf = prop_oneof![
        arb_comp(),
        arb_mpi(2).prop_map(StmtKind::Mpi),
        Just(StmtKind::Return),
    ];
    leaf.prop_recursive(depth, 24, 3, move |inner| {
        let block = proptest::collection::vec(inner.clone(), 0..3);
        prop_oneof![
            (e(), e(), block.clone()).prop_map(|(start, end, kinds)| StmtKind::For {
                var: "i".to_string(),
                start,
                end,
                body: kinds_to_block(kinds),
            }),
            (e(), block.clone()).prop_map(|(cond, kinds)| StmtKind::While {
                cond,
                body: kinds_to_block(kinds),
            }),
            (e(), block.clone(), block).prop_map(|(cond, t, f)| StmtKind::If {
                cond,
                then_block: kinds_to_block(t),
                else_block: Some(kinds_to_block(f)),
            }),
        ]
    })
    .boxed()
}

fn kinds_to_block(kinds: Vec<StmtKind>) -> Block {
    Block {
        stmts: kinds
            .into_iter()
            .map(|kind| Stmt {
                id: 0,
                span: Span::synthetic("gen.mmpi", 1),
                kind,
            })
            .collect(),
    }
}

fn renumber(program: &mut Program) {
    // Give statements fresh pre-order ids, matching what a parse assigns.
    fn walk(block: &mut Block, next: &mut NodeId) {
        for stmt in &mut block.stmts {
            stmt.id = *next;
            *next += 1;
            match &mut stmt.kind {
                StmtKind::For { body, .. } | StmtKind::While { body, .. } => walk(body, next),
                StmtKind::If {
                    then_block,
                    else_block,
                    ..
                } => {
                    walk(then_block, next);
                    if let Some(e) = else_block {
                        walk(e, next);
                    }
                }
                _ => {}
            }
        }
    }
    let mut next = 0;
    for func in &mut program.functions {
        walk(&mut func.body, &mut next);
    }
    program.next_node_id = next;
}

fn stmt(kind: StmtKind) -> Stmt {
    Stmt {
        id: 0,
        span: Span::synthetic("gen.mmpi", 1),
        kind,
    }
}

/// The scope-variable prelude every generated function body starts with.
fn prelude() -> Vec<Stmt> {
    vec![
        stmt(StmtKind::Let {
            name: "n0".into(),
            value: Expr::Int(4),
        }),
        stmt(StmtKind::Let {
            name: "n1".into(),
            value: Expr::Int(7),
        }),
    ]
}

/// A scoping-safe non-blocking group: `irecv`/`isend` bind fresh request
/// variables which the two `wait`s then reference — covering the
/// `let r = i...(..)` statement forms and `wait(expr)`.
fn nonblocking_group(src: Expr, dst: Expr, bytes: Expr) -> Vec<Stmt> {
    vec![
        stmt(StmtKind::Mpi(MpiOp::Irecv {
            src,
            tag: Expr::Int(3),
            req: "ra".into(),
        })),
        stmt(StmtKind::Mpi(MpiOp::Isend {
            dst,
            tag: Expr::Int(3),
            bytes,
            req: "rb".into(),
        })),
        stmt(StmtKind::Mpi(MpiOp::Wait {
            req: Expr::Var("ra".into()),
        })),
        stmt(StmtKind::Mpi(MpiOp::Wait {
            req: Expr::Var("rb".into()),
        })),
    ]
}

/// A full program: a `P0` parameter with an arbitrary (representable)
/// default, a `helper(n)` function, and a `main` that may open with a
/// non-blocking group and always ends with a call to `helper` — direct,
/// or indirect through a function-reference local.
fn arb_program() -> impl Strategy<Value = Program> {
    (
        proptest::collection::vec(arb_stmt_kind(3), 1..6),
        proptest::collection::vec(arb_stmt_kind(2), 1..4),
        // i64::MIN is deliberately unrepresentable as a param default
        // (the grammar is `[-] INT`); the checker rejects it, so the
        // strategy stops one short of it.
        (i64::MIN + 1..=i64::MAX),
        proptest::bool::ANY,
        (arb_expr(1), arb_expr(1), arb_expr(1)),
        arb_expr(1),
        proptest::bool::ANY,
    )
        .prop_map(
            |(main_kinds, helper_kinds, p0, group, (src, dst, bytes), arg, indirect)| {
                let mut main_stmts = prelude();
                if group {
                    main_stmts.extend(nonblocking_group(src, dst, bytes));
                }
                main_stmts.extend(main_kinds.into_iter().map(stmt));
                if indirect {
                    main_stmts.push(stmt(StmtKind::Let {
                        name: "fp".into(),
                        value: Expr::FuncRef("helper".into()),
                    }));
                    main_stmts.push(stmt(StmtKind::CallIndirect {
                        target: Expr::Var("fp".into()),
                        args: vec![arg],
                    }));
                } else {
                    main_stmts.push(stmt(StmtKind::Call {
                        callee: "helper".into(),
                        args: vec![arg],
                    }));
                }

                let mut helper_stmts = prelude();
                helper_stmts.extend(helper_kinds.into_iter().map(stmt));

                let mut program = Program {
                    file_name: "gen.mmpi".into(),
                    params: vec![ParamDecl {
                        name: "P0".into(),
                        default: p0,
                        span: Span::synthetic("gen.mmpi", 1),
                    }],
                    functions: vec![
                        Function {
                            name: "main".into(),
                            params: vec![],
                            body: Block { stmts: main_stmts },
                            span: Span::synthetic("gen.mmpi", 1),
                        },
                        Function {
                            name: "helper".into(),
                            params: vec!["n".into()],
                            body: Block {
                                stmts: helper_stmts,
                            },
                            span: Span::synthetic("gen.mmpi", 1),
                        },
                    ],
                    next_node_id: 0,
                    lowered: None,
                };
                renumber(&mut program);
                program
            },
        )
}

// ----- properties -----

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn lexer_never_panics(input in ".{0,200}") {
        let _ = lexer::lex("fuzz.mmpi", &input);
    }

    #[test]
    fn parser_never_panics_on_token_soup(input in "[a-z0-9(){};=+*/%<>&|!., \n]{0,200}") {
        let _ = parse_program("fuzz.mmpi", &input);
    }

    #[test]
    fn pretty_print_round_trips(program in arb_program()) {
        let printed = print_program(&program);
        let reparsed = parse_program("gen.mmpi", &printed)
            .expect("pretty output must parse");
        prop_assert_eq!(normalize_spans(&program), normalize_spans(&reparsed));
    }

    #[test]
    fn lexer_accepts_all_integer_forms(v in 0i64..1_000_000, sep in proptest::bool::ANY) {
        let text = if sep {
            // Insert a `_` separator in the middle of the digits.
            let s = v.to_string();
            let mid = s.len() / 2;
            if mid == 0 { s } else { format!("{}_{}", &s[..mid], &s[mid..]) }
        } else {
            v.to_string()
        };
        let toks = lexer::lex("n.mmpi", &text).unwrap();
        prop_assert_eq!(&toks[0].kind, &scalana_lang::token::TokenKind::Int(v));
    }
}
