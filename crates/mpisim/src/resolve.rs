//! Name resolution: the checked AST lowered, once per run, into the
//! slot-resolved form the interpreter executes.
//!
//! Every name a statement mentions is settled here instead of on every
//! execution. A variable read becomes a frame slot, the executing rank,
//! or — for `nprocs`, `any` and program parameters, which are constant
//! for a run — a literal. `let` and assignment both become one "set
//! slot" statement; `for` and `isend`/`irecv` carry the slot they bind.
//! Calls and `&f` references carry a function index, and each MPI
//! statement carries its [`MpiKind`].
//!
//! Slots come from one static scope walk per function that follows the
//! interpreter's historical block-scoped environment exactly:
//! - a `let` reuses a binding of the same name in the same scope, and
//!   otherwise takes a new slot (shadowing any outer binding);
//! - an assignment updates the nearest visible binding, and when there
//!   is none — e.g. assigning a program parameter — binds the name in
//!   the innermost scope;
//! - a function's parameters and its body's top-level statements share
//!   one scope; every nested block, and a `for` loop's induction
//!   variable, opens a new one;
//! - `rank`, `nprocs` and `any` always read the runtime values, whatever
//!   a program binds under those names.
//!
//! Within one scope instance statements execute in order and at most
//! once (loops open a fresh body scope per iteration), so the static walk
//! sees the same bindings at every read as the runtime would. Slots are
//! allocated as a stack, the way the environment pushed and truncated
//! entries, so a frame needs only as many slots as it has live
//! bindings at its deepest point.
//!
//! The AST stays the source of node ids, locations and the PSG: a
//! resolved statement keeps its statement's [`NodeId`].

use crate::value::{FuncId, Value};
use scalana_graph::MpiKind;
use scalana_lang::ast::{
    BinOp, BuiltinFn, CompAttrs, Expr, Function, MpiOp, Stmt, StmtKind, UnOp, ANY_VALUE, VAR_ANY,
    VAR_NPROCS, VAR_RANK,
};
use scalana_lang::{NodeId, Program};
use std::collections::HashMap;

/// Index of a variable within its frame's slot window.
pub type Slot = u32;

/// A resolved expression.
#[derive(Debug, Clone, PartialEq)]
pub enum RExpr {
    /// A constant: a literal, `nprocs`, `any` or a program parameter.
    Int(i64),
    /// The executing rank.
    Rank,
    /// A local variable.
    Slot(Slot),
    /// `&f`.
    Func(FuncId),
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnOp,
        /// Operand.
        expr: Box<RExpr>,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<RExpr>,
        /// Right operand.
        rhs: Box<RExpr>,
    },
    /// Built-in pure function call.
    Builtin {
        /// Which builtin.
        func: BuiltinFn,
        /// Arguments.
        args: Vec<RExpr>,
    },
}

/// A resolved statement; `id` is the AST statement's node id.
#[derive(Debug, Clone, PartialEq)]
pub struct RStmt {
    /// The AST statement this was resolved from.
    pub id: NodeId,
    /// The statement payload.
    pub kind: RStmtKind,
}

/// Resolved statement forms.
#[derive(Debug, Clone, PartialEq)]
pub enum RStmtKind {
    /// `let x = ..;` or `x = ..;`.
    Set {
        /// The bound variable.
        slot: Slot,
        /// New value.
        value: RExpr,
    },
    /// Counted loop; the induction variable lives in `slot`.
    For {
        /// Induction variable.
        slot: Slot,
        /// Inclusive start.
        start: RExpr,
        /// Exclusive end.
        end: RExpr,
        /// Loop body.
        body: Vec<RStmt>,
    },
    /// Condition loop.
    While {
        /// Continuation condition.
        cond: RExpr,
        /// Loop body.
        body: Vec<RStmt>,
    },
    /// Branch.
    If {
        /// Condition.
        cond: RExpr,
        /// Taken when the condition is nonzero.
        then_block: Vec<RStmt>,
        /// Optional else block.
        else_block: Option<Vec<RStmt>>,
    },
    /// Direct call.
    Call {
        /// Callee.
        func: FuncId,
        /// Actual arguments.
        args: Vec<RExpr>,
    },
    /// Indirect call through a function reference.
    CallIndirect {
        /// Expression evaluating to a function reference.
        target: RExpr,
        /// Actual arguments.
        args: Vec<RExpr>,
    },
    /// Computation block.
    Comp(RComp),
    /// An MPI operation.
    Mpi {
        /// Operation kind.
        kind: MpiKind,
        /// Operands.
        op: RMpiOp,
    },
    /// Leave the current function.
    Return,
}

/// Resolved `comp` attributes (see [`CompAttrs`] for the defaults).
#[derive(Debug, Clone, PartialEq)]
pub struct RComp {
    /// Cycles.
    pub cycles: RExpr,
    /// Instructions retired.
    pub ins: Option<RExpr>,
    /// Load/store instructions.
    pub lst: Option<RExpr>,
    /// L2 misses.
    pub l2_miss: Option<RExpr>,
    /// Branch mispredictions.
    pub br_miss: Option<RExpr>,
}

/// MPI operands, one variant per shape the engine handles. The resolved
/// form holds expressions ([`RMpiOp`]), which the interpreter evaluates
/// into numbers ([`crate::interp::EvaluatedOp`]). Every collective is
/// `Collective`; `barrier` and the rootless ones get literal zero
/// operands.
#[derive(Debug, Clone, PartialEq)]
pub enum Operands<I, B> {
    /// Blocking send.
    Send {
        /// Destination rank.
        dst: I,
        /// Tag.
        tag: I,
        /// Payload bytes.
        bytes: B,
    },
    /// Blocking receive.
    Recv {
        /// Source rank or `any` (-1).
        src: I,
        /// Tag or `any` (-1).
        tag: I,
    },
    /// Combined exchange.
    Sendrecv {
        /// Send destination.
        dst: I,
        /// Send tag.
        sendtag: I,
        /// Receive source or `any` (-1).
        src: I,
        /// Receive tag or `any` (-1).
        recvtag: I,
        /// Payload bytes each way.
        bytes: B,
    },
    /// Non-blocking send; the engine binds `req_slot`.
    Isend {
        /// Destination rank.
        dst: I,
        /// Tag.
        tag: I,
        /// Payload bytes.
        bytes: B,
        /// Request variable to bind, in the current frame.
        req_slot: Slot,
    },
    /// Non-blocking receive; the engine binds `req_slot`.
    Irecv {
        /// Source rank or `any` (-1).
        src: I,
        /// Tag or `any` (-1).
        tag: I,
        /// Request variable to bind, in the current frame.
        req_slot: Slot,
    },
    /// Wait on one request.
    Wait {
        /// Request id.
        req: I,
    },
    /// Wait on all outstanding requests.
    Waitall,
    /// A collective operation.
    Collective {
        /// Root rank (bcast/reduce; 0 otherwise).
        root: I,
        /// Payload bytes.
        bytes: B,
    },
}

/// Resolved MPI operands.
pub type RMpiOp = Operands<RExpr, RExpr>;

impl<I, B> Operands<I, B> {
    /// The same operation with every rank, tag and request operand passed
    /// through `int` and every byte count through `bytes`.
    pub fn map<I2, B2>(
        &self,
        int: impl Fn(&I) -> I2,
        bytes: impl Fn(&B) -> B2,
    ) -> Operands<I2, B2> {
        match self {
            Operands::Send { dst, tag, bytes: b } => Operands::Send {
                dst: int(dst),
                tag: int(tag),
                bytes: bytes(b),
            },
            Operands::Recv { src, tag } => Operands::Recv {
                src: int(src),
                tag: int(tag),
            },
            Operands::Sendrecv {
                dst,
                sendtag,
                src,
                recvtag,
                bytes: b,
            } => Operands::Sendrecv {
                dst: int(dst),
                sendtag: int(sendtag),
                src: int(src),
                recvtag: int(recvtag),
                bytes: bytes(b),
            },
            Operands::Isend {
                dst,
                tag,
                bytes: b,
                req_slot,
            } => Operands::Isend {
                dst: int(dst),
                tag: int(tag),
                bytes: bytes(b),
                req_slot: *req_slot,
            },
            Operands::Irecv { src, tag, req_slot } => Operands::Irecv {
                src: int(src),
                tag: int(tag),
                req_slot: *req_slot,
            },
            Operands::Wait { req } => Operands::Wait { req: int(req) },
            Operands::Waitall => Operands::Waitall,
            Operands::Collective { root, bytes: b } => Operands::Collective {
                root: int(root),
                bytes: bytes(b),
            },
        }
    }
}

/// A resolved function.
#[derive(Debug, Clone, PartialEq)]
pub struct RFunction {
    /// Source name (reported for indirect calls).
    pub name: String,
    /// Per formal parameter: the slot its argument lands in, and what
    /// the parameter reads when an indirect call passes too few
    /// arguments to bind it (the program parameter of that name, or 0).
    pub params: Vec<(Slot, Value)>,
    /// Slots a frame of this function needs.
    pub slots: u32,
    /// Function body.
    pub body: Vec<RStmt>,
}

/// A program resolved for one run (one rank count, one parameter set).
#[derive(Debug, Clone, PartialEq)]
pub struct Resolved {
    /// Every function, indexed by [`FuncId`] (the AST's order).
    pub functions: Vec<RFunction>,
    /// The entry function.
    pub main: FuncId,
}

/// Resolve a checked program for a run at `nprocs` ranks with the given
/// parameter overrides (merged over the declared defaults; an override
/// may name a parameter the program does not declare).
pub fn resolve(program: &Program, overrides: &HashMap<String, i64>, nprocs: usize) -> Resolved {
    let mut resolver = Resolver::new(program, overrides, nprocs);
    let functions = program
        .functions
        .iter()
        .map(|f| resolver.function(f))
        .collect();
    Resolved {
        functions,
        main: func_id(program, "main"),
    }
}

fn func_id(program: &Program, name: &str) -> FuncId {
    program
        .function_index(name)
        .expect("checked program: function exists") as FuncId
}

/// The static scope walk. `bindings` mirrors the environment's entry
/// stack: a binding's index is its slot.
pub(crate) struct Resolver<'a> {
    program: &'a Program,
    overrides: &'a HashMap<String, i64>,
    nprocs: i64,
    bindings: Vec<&'a str>,
    /// Start index of each open scope in `bindings`.
    scope_starts: Vec<usize>,
    /// Most bindings live at once in the current function.
    high_water: usize,
}

impl<'a> Resolver<'a> {
    pub(crate) fn new(
        program: &'a Program,
        overrides: &'a HashMap<String, i64>,
        nprocs: usize,
    ) -> Resolver<'a> {
        Resolver {
            program,
            overrides,
            nprocs: nprocs as i64,
            bindings: Vec::new(),
            scope_starts: vec![0],
            high_water: 0,
        }
    }

    fn function(&mut self, func: &'a Function) -> RFunction {
        self.bindings.clear();
        self.scope_starts = vec![0];
        self.high_water = 0;
        let params = func
            .params
            .iter()
            .map(|p| (self.define(p), Value::Int(self.param(p).unwrap_or(0))))
            .collect();
        // The body's top level shares the parameters' scope.
        let body = self.stmts(&func.body.stmts);
        RFunction {
            name: func.name.clone(),
            params,
            slots: self.high_water as u32,
            body,
        }
    }

    fn block(&mut self, stmts: &'a [Stmt]) -> Vec<RStmt> {
        self.scope_starts.push(self.bindings.len());
        let out = self.stmts(stmts);
        self.pop_scope();
        out
    }

    fn pop_scope(&mut self) {
        let start = self.scope_starts.pop().expect("open scope");
        self.bindings.truncate(start);
    }

    fn stmts(&mut self, stmts: &'a [Stmt]) -> Vec<RStmt> {
        stmts.iter().map(|s| self.stmt(s)).collect()
    }

    fn stmt(&mut self, stmt: &'a Stmt) -> RStmt {
        let kind = match &stmt.kind {
            StmtKind::Let { name, value } => {
                let value = self.expr(value);
                RStmtKind::Set {
                    slot: self.define(name),
                    value,
                }
            }
            StmtKind::Assign { name, value } => {
                let value = self.expr(value);
                RStmtKind::Set {
                    slot: self.assign(name),
                    value,
                }
            }
            StmtKind::For {
                var,
                start,
                end,
                body,
            } => {
                let (start, end) = (self.expr(start), self.expr(end));
                self.scope_starts.push(self.bindings.len());
                let slot = self.define(var);
                let body = self.block(&body.stmts);
                self.pop_scope();
                RStmtKind::For {
                    slot,
                    start,
                    end,
                    body,
                }
            }
            StmtKind::While { cond, body } => RStmtKind::While {
                cond: self.expr(cond),
                body: self.block(&body.stmts),
            },
            StmtKind::If {
                cond,
                then_block,
                else_block,
            } => RStmtKind::If {
                cond: self.expr(cond),
                then_block: self.block(&then_block.stmts),
                else_block: else_block.as_ref().map(|b| self.block(&b.stmts)),
            },
            StmtKind::Call { callee, args } => RStmtKind::Call {
                func: func_id(self.program, callee),
                args: self.exprs(args),
            },
            StmtKind::CallIndirect { target, args } => RStmtKind::CallIndirect {
                target: self.expr(target),
                args: self.exprs(args),
            },
            StmtKind::Comp(attrs) => RStmtKind::Comp(self.comp(attrs)),
            StmtKind::Mpi(op) => RStmtKind::Mpi {
                kind: MpiKind::of(op),
                op: self.mpi(op),
            },
            StmtKind::Return => RStmtKind::Return,
        };
        RStmt { id: stmt.id, kind }
    }

    fn comp(&mut self, attrs: &CompAttrs) -> RComp {
        RComp {
            cycles: self.expr(&attrs.cycles),
            ins: attrs.ins.as_ref().map(|e| self.expr(e)),
            lst: attrs.lst.as_ref().map(|e| self.expr(e)),
            l2_miss: attrs.l2_miss.as_ref().map(|e| self.expr(e)),
            br_miss: attrs.br_miss.as_ref().map(|e| self.expr(e)),
        }
    }

    fn mpi(&mut self, op: &'a MpiOp) -> RMpiOp {
        match op {
            MpiOp::Send { dst, tag, bytes } => RMpiOp::Send {
                dst: self.expr(dst),
                tag: self.expr(tag),
                bytes: self.expr(bytes),
            },
            MpiOp::Recv { src, tag } => RMpiOp::Recv {
                src: self.expr(src),
                tag: self.expr(tag),
            },
            MpiOp::Sendrecv {
                dst,
                sendtag,
                src,
                recvtag,
                bytes,
            } => RMpiOp::Sendrecv {
                dst: self.expr(dst),
                sendtag: self.expr(sendtag),
                src: self.expr(src),
                recvtag: self.expr(recvtag),
                bytes: self.expr(bytes),
            },
            // The engine binds the request after evaluating the operands.
            MpiOp::Isend {
                dst,
                tag,
                bytes,
                req,
            } => {
                let (dst, tag, bytes) = (self.expr(dst), self.expr(tag), self.expr(bytes));
                RMpiOp::Isend {
                    dst,
                    tag,
                    bytes,
                    req_slot: self.define(req),
                }
            }
            MpiOp::Irecv { src, tag, req } => {
                let (src, tag) = (self.expr(src), self.expr(tag));
                RMpiOp::Irecv {
                    src,
                    tag,
                    req_slot: self.define(req),
                }
            }
            MpiOp::Wait { req } => RMpiOp::Wait {
                req: self.expr(req),
            },
            MpiOp::Waitall => RMpiOp::Waitall,
            MpiOp::Barrier => RMpiOp::Collective {
                root: RExpr::Int(0),
                bytes: RExpr::Int(0),
            },
            MpiOp::Bcast { root, bytes } | MpiOp::Reduce { root, bytes } => RMpiOp::Collective {
                root: self.expr(root),
                bytes: self.expr(bytes),
            },
            MpiOp::Allreduce { bytes } | MpiOp::Alltoall { bytes } | MpiOp::Allgather { bytes } => {
                RMpiOp::Collective {
                    root: RExpr::Int(0),
                    bytes: self.expr(bytes),
                }
            }
        }
    }

    fn exprs(&self, exprs: &[Expr]) -> Vec<RExpr> {
        exprs.iter().map(|e| self.expr(e)).collect()
    }

    /// Resolve an expression against the bindings visible now.
    pub(crate) fn expr(&self, expr: &Expr) -> RExpr {
        match expr {
            Expr::Int(v) => RExpr::Int(*v),
            Expr::Var(name) => self.read(name),
            Expr::FuncRef(name) => RExpr::Func(func_id(self.program, name)),
            Expr::Unary { op, expr } => RExpr::Unary {
                op: *op,
                expr: Box::new(self.expr(expr)),
            },
            Expr::Binary { op, lhs, rhs } => RExpr::Binary {
                op: *op,
                lhs: Box::new(self.expr(lhs)),
                rhs: Box::new(self.expr(rhs)),
            },
            Expr::Builtin { func, args } => RExpr::Builtin {
                func: *func,
                args: self.exprs(args),
            },
        }
    }

    fn read(&self, name: &str) -> RExpr {
        match name {
            VAR_RANK => RExpr::Rank,
            VAR_NPROCS => RExpr::Int(self.nprocs),
            VAR_ANY => RExpr::Int(ANY_VALUE),
            _ => {
                if let Some(slot) = self.bindings.iter().rposition(|b| *b == name) {
                    RExpr::Slot(slot as Slot)
                } else if let Some(v) = self.param(name) {
                    RExpr::Int(v)
                } else {
                    debug_assert!(false, "unbound read of `{name}` in a checked program");
                    RExpr::Int(0)
                }
            }
        }
    }

    /// A program parameter's value for this run.
    fn param(&self, name: &str) -> Option<i64> {
        self.overrides.get(name).copied().or_else(|| {
            self.program
                .params
                .iter()
                .find(|p| p.name == name)
                .map(|p| p.default)
        })
    }

    /// Bind `name` in the innermost scope, reusing a binding of the same
    /// name there.
    pub(crate) fn define(&mut self, name: &'a str) -> Slot {
        let start = *self.scope_starts.last().expect("open scope");
        match self.bindings[start..].iter().rposition(|b| *b == name) {
            Some(i) => (start + i) as Slot,
            None => self.push(name),
        }
    }

    /// The nearest visible binding of `name`, or a new one in the
    /// innermost scope when there is none (assigning a program parameter
    /// or a reserved name). Checked programs reach that second case.
    fn assign(&mut self, name: &'a str) -> Slot {
        match self.bindings.iter().rposition(|b| *b == name) {
            Some(i) => i as Slot,
            None => self.push(name),
        }
    }

    fn push(&mut self, name: &'a str) -> Slot {
        self.bindings.push(name);
        self.high_water = self.high_water.max(self.bindings.len());
        (self.bindings.len() - 1) as Slot
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalana_lang::parse_program;

    fn resolve_src(src: &str) -> Resolved {
        let program = parse_program("t.mmpi", src).unwrap();
        resolve(&program, &HashMap::new(), 8)
    }

    fn main_body(r: &Resolved) -> &[RStmt] {
        &r.functions[r.main as usize].body
    }

    fn set(stmt: &RStmt) -> (Slot, &RExpr) {
        match &stmt.kind {
            RStmtKind::Set { slot, value } => (*slot, value),
            other => panic!("expected a set, got {other:?}"),
        }
    }

    fn then_block(stmt: &RStmt) -> &[RStmt] {
        match &stmt.kind {
            RStmtKind::If { then_block, .. } => then_block,
            other => panic!("expected an if, got {other:?}"),
        }
    }

    #[test]
    fn lets_in_one_scope_reuse_a_slot() {
        let r = resolve_src("fn main() { let x = 1; let x = x + 1; }");
        let body = main_body(&r);
        assert_eq!(set(&body[0]).0, 0);
        let (slot, value) = set(&body[1]);
        assert_eq!(slot, 0);
        assert!(matches!(value, RExpr::Binary { lhs, .. } if **lhs == RExpr::Slot(0)));
        assert_eq!(r.functions[r.main as usize].slots, 1);
    }

    #[test]
    fn inner_let_shadows_and_its_slot_is_reused_after_the_scope() {
        let r = resolve_src(
            "fn main() { let x = 1; if rank == 0 { let x = x; } if rank == 1 { let y = 2; } \
             let z = x; }",
        );
        let body = main_body(&r);
        let (slot, value) = set(&then_block(&body[1])[0]);
        assert_eq!(
            (slot, value),
            (1, &RExpr::Slot(0)),
            "new slot, reads the outer x"
        );
        assert_eq!(
            set(&then_block(&body[2])[0]).0,
            1,
            "sibling scope reuses slot 1"
        );
        assert_eq!(set(&body[3]), (1, &RExpr::Slot(0)), "outer x again");
        assert_eq!(r.functions[r.main as usize].slots, 2);
    }

    #[test]
    fn assign_updates_the_nearest_binding() {
        let r = resolve_src("fn main() { let x = 1; if rank == 0 { let y = 0; x = 9; } }");
        let inner = then_block(&main_body(&r)[1]);
        assert_eq!(set(&inner[1]).0, 0);
    }

    #[test]
    fn assigning_an_unbound_name_binds_it_in_the_innermost_scope() {
        let r = resolve_src(
            "param N = 100; fn main() { let a = 0; if rank == 0 { N = N + 1; let b = N; } \
             let c = N; }",
        );
        let body = main_body(&r);
        let inner = then_block(&body[1]);
        // The value reads the parameter; the assignment binds slot 1.
        assert_eq!(
            set(&inner[0]),
            (
                1,
                &RExpr::Binary {
                    op: BinOp::Add,
                    lhs: Box::new(RExpr::Int(100)),
                    rhs: Box::new(RExpr::Int(1)),
                }
            )
        );
        assert_eq!(set(&inner[1]), (2, &RExpr::Slot(1)));
        // After the block `N` is the parameter again.
        assert_eq!(set(&body[2]), (1, &RExpr::Int(100)));
    }

    #[test]
    fn reserved_names_and_params_resolve_to_runtime_values() {
        let program = parse_program(
            "t.mmpi",
            "param N = 100; param M = 5; fn main() { let rank = 50; \
             let a = rank + nprocs + any + N + M; }",
        )
        .unwrap();
        let overrides = HashMap::from([("M".to_string(), 7), ("X".to_string(), 1)]);
        let r = resolve(&program, &overrides, 16);
        let mut reads = Vec::new();
        fn leaves(e: &RExpr, out: &mut Vec<RExpr>) {
            match e {
                RExpr::Binary { lhs, rhs, .. } => {
                    leaves(lhs, out);
                    leaves(rhs, out);
                }
                leaf => out.push(leaf.clone()),
            }
        }
        leaves(set(&main_body(&r)[1]).1, &mut reads);
        assert_eq!(
            reads,
            [
                RExpr::Rank,
                RExpr::Int(16),
                RExpr::Int(ANY_VALUE),
                RExpr::Int(100),
                RExpr::Int(7)
            ]
        );
    }

    #[test]
    fn function_params_take_the_first_slots_and_share_the_body_scope() {
        let r = resolve_src(
            "param n = 7; param m = 3; fn main() { f(1, 2); } \
             fn f(n, k) { let n = n + k; for i in 0 .. n { let j = i; } }",
        );
        let f = &r.functions[1];
        assert_eq!(f.name, "f");
        assert_eq!(f.params, [(0, Value::Int(7)), (1, Value::Int(0))]);
        assert_eq!(set(&f.body[0]).0, 0, "same scope as the parameter");
        let RStmtKind::For { slot, body, .. } = &f.body[1].kind else {
            panic!("expected a for")
        };
        assert_eq!(*slot, 2);
        assert_eq!(set(&body[0]), (3, &RExpr::Slot(2)));
        assert_eq!(f.slots, 4);
    }

    #[test]
    fn calls_mpi_and_requests_carry_indices() {
        let r = resolve_src(
            "fn main() { let f = &leaf; leaf(); if rank == 0 { \
             let q = irecv(src = any, tag = 1); wait(q); } barrier(); } fn leaf() { }",
        );
        let body = main_body(&r);
        assert_eq!(set(&body[0]), (0, &RExpr::Func(1)));
        assert!(matches!(body[1].kind, RStmtKind::Call { func: 1, .. }));
        let inner = then_block(&body[2]);
        let RStmtKind::Mpi { kind, op } = &inner[0].kind else {
            panic!("expected mpi")
        };
        assert_eq!(*kind, MpiKind::Irecv);
        assert!(matches!(op, RMpiOp::Irecv { req_slot: 1, .. }));
        assert!(matches!(
            &inner[1].kind,
            RStmtKind::Mpi {
                op: RMpiOp::Wait {
                    req: RExpr::Slot(1)
                },
                ..
            }
        ));
        assert!(matches!(
            &body[3].kind,
            RStmtKind::Mpi {
                kind: MpiKind::Barrier,
                op: RMpiOp::Collective { .. }
            }
        ));
    }
}
