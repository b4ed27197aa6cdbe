//! Lowering: the one scope walk over a program, run once by
//! [`crate::check::check_program`], which stores the result on the
//! [`Program`] (see [`Program::lowered`]).
//!
//! The walk decides every name a statement mentions and reports what it
//! cannot decide: a use of an undefined variable, an assignment to an
//! undefined variable, a call to an undefined function or with the wrong
//! number of arguments, a `&f` of an undefined function, and a function
//! that declares a parameter twice. What it produces is the form the
//! simulator executes. A variable read becomes a frame slot, the
//! executing rank, `nprocs`, a program parameter's index or the wildcard
//! literal. `let` and assignment both become one "set slot" statement;
//! `for` and `isend`/`irecv` carry the slot they bind. Calls and `&f`
//! references carry a function index, and each MPI statement carries its
//! [`MpiKind`]. Nothing in the lowered form depends on a run: a run
//! supplies `nprocs` and one value per declared parameter.
//!
//! Slots follow the interpreter's block-scoped environment exactly:
//! - a `let` reuses a binding of the same name in the same scope, and
//!   otherwise takes a new slot (shadowing any outer binding);
//! - an assignment updates the nearest visible binding, and when there
//!   is none — assigning a program parameter or a reserved name — binds
//!   the name in the innermost scope;
//! - a request operand is read before `isend`/`irecv` binds its request
//!   variable;
//! - a function's parameters and its body's top-level statements share
//!   one scope; every nested block, and a `for` loop's induction
//!   variable, opens a new one;
//! - `rank`, `nprocs` and `any` always read the runtime values, whatever
//!   a program binds under those names.
//!
//! Within one scope instance statements execute in order and at most
//! once (loops open a fresh body scope per iteration), so the static walk
//! sees the same bindings at every read as the runtime would. Slots are
//! allocated as a stack, so a frame needs only as many slots as it has
//! live bindings at its deepest point.
//!
//! The AST stays the source of node ids, locations and the PSG: a
//! lowered statement keeps its statement's [`NodeId`].

use crate::ast::*;
use crate::error::{LangError, LangResult};
use crate::span::Span;

/// Index of a variable within its frame's slot window.
pub type Slot = u32;

/// Index of a function in [`Program::functions`] and in
/// [`Lowered::functions`], which keeps that order.
pub type FuncId = u32;

/// A lowered expression.
#[derive(Debug, Clone, PartialEq)]
pub enum RExpr {
    /// A literal or `any`.
    Int(i64),
    /// The executing rank.
    Rank,
    /// The run's rank count.
    Nprocs,
    /// A program parameter, by its index in [`Program::params`].
    Param(u32),
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

/// A lowered statement; `id` is the AST statement's node id.
#[derive(Debug, Clone, PartialEq)]
pub struct RStmt {
    /// The AST statement this was lowered from.
    pub id: NodeId,
    /// The statement payload.
    pub kind: RStmtKind,
}

/// Lowered statement forms.
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

/// Lowered `comp` attributes.
pub type RComp = CompAttrs<RExpr>;

/// MPI operands, one variant per shape the simulator handles. The
/// lowered form holds expressions ([`RMpiOp`]), which the simulator
/// evaluates into numbers. Every collective is `Collective`; `barrier`
/// and the rootless ones get literal zero operands.
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
    /// Non-blocking send; the simulator binds `req_slot`.
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
    /// Non-blocking receive; the simulator binds `req_slot`.
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

/// Lowered MPI operands.
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

/// A lowered function.
#[derive(Debug, Clone, PartialEq)]
pub struct RFunction {
    /// Source name (reported for indirect calls).
    pub name: String,
    /// Per formal parameter: the slot its argument lands in, and the
    /// program parameter of the same name, which the parameter reads
    /// when an indirect call passes too few arguments to bind it (0 when
    /// there is none).
    pub params: Vec<(Slot, Option<u32>)>,
    /// Slots a frame of this function needs.
    pub slots: u32,
    /// Function body.
    pub body: Vec<RStmt>,
}

/// A lowered program: what the simulator runs, at any rank count and
/// with any parameter values.
#[derive(Debug, Clone, PartialEq)]
pub struct Lowered {
    /// Every function, indexed by [`FuncId`] (the AST's order).
    pub functions: Vec<RFunction>,
    /// The entry function.
    pub main: FuncId,
}

/// Lower a program whose function table and parameters are valid
/// (unique names, a `main`), or report the first naming error in it.
pub(crate) fn lower(program: &Program) -> LangResult<Lowered> {
    let functions = program
        .functions
        .iter()
        .map(|func| {
            Lowerer {
                program,
                func,
                span: &func.span,
                bindings: Vec::new(),
                scope_starts: vec![0],
                high_water: 0,
            }
            .function()
        })
        .collect::<LangResult<_>>()?;
    Ok(Lowered {
        functions,
        main: program.function_index("main").expect("checked `main`") as FuncId,
    })
}

/// The scope walk over one function. `bindings` mirrors the
/// interpreter's frame: a binding's index is its slot.
struct Lowerer<'a> {
    program: &'a Program,
    func: &'a Function,
    /// The statement being lowered, where its errors point.
    span: &'a Span,
    bindings: Vec<&'a str>,
    /// Start index of each open scope in `bindings`.
    scope_starts: Vec<usize>,
    /// Most bindings live at once.
    high_water: usize,
}

impl<'a> Lowerer<'a> {
    fn function(mut self) -> LangResult<RFunction> {
        let mut params = Vec::with_capacity(self.func.params.len());
        for p in &self.func.params {
            if self.bindings.contains(&p.as_str()) {
                return Err(
                    self.error(format!("duplicate parameter `{p}` in `{}`", self.func.name))
                );
            }
            params.push((self.push(p), self.param(p)));
        }
        // The body's top level shares the parameters' scope.
        let func = self.func;
        let body = self.stmts(&func.body.stmts)?;
        Ok(RFunction {
            name: func.name.clone(),
            params,
            slots: self.high_water as u32,
            body,
        })
    }

    fn error(&self, message: String) -> LangError {
        LangError::semantic(message, Some(self.span.clone()))
    }

    fn block(&mut self, stmts: &'a [Stmt]) -> LangResult<Vec<RStmt>> {
        self.scope_starts.push(self.bindings.len());
        let out = self.stmts(stmts)?;
        self.pop_scope();
        Ok(out)
    }

    fn pop_scope(&mut self) {
        let start = self.scope_starts.pop().expect("open scope");
        self.bindings.truncate(start);
    }

    fn stmts(&mut self, stmts: &'a [Stmt]) -> LangResult<Vec<RStmt>> {
        let mut out = Vec::with_capacity(stmts.len());
        for stmt in stmts {
            out.push(self.stmt(stmt)?);
        }
        Ok(out)
    }

    /// Lowers the statements that hold blocks and leaves the rest to
    /// [`Lowerer::simple_stmt`]: the walk recurses through this frame
    /// once per nested block, and an unoptimised build would reserve it
    /// room for every statement form's temporaries.
    fn stmt(&mut self, stmt: &'a Stmt) -> LangResult<RStmt> {
        // Every expression of a statement is lowered before its blocks,
        // so errors point at the right statement.
        self.span = &stmt.span;
        let kind = match &stmt.kind {
            StmtKind::For {
                var,
                start,
                end,
                body,
            } => {
                let (start, end) = (self.expr(start)?, self.expr(end)?);
                self.scope_starts.push(self.bindings.len());
                let slot = self.define(var);
                let body = self.block(&body.stmts)?;
                self.pop_scope();
                RStmtKind::For {
                    slot,
                    start,
                    end,
                    body,
                }
            }
            StmtKind::While { cond, body } => RStmtKind::While {
                cond: self.expr(cond)?,
                body: self.block(&body.stmts)?,
            },
            StmtKind::If {
                cond,
                then_block,
                else_block,
            } => RStmtKind::If {
                cond: self.expr(cond)?,
                then_block: self.block(&then_block.stmts)?,
                else_block: (else_block.as_ref())
                    .map(|b| self.block(&b.stmts))
                    .transpose()?,
            },
            kind => self.simple_stmt(kind)?,
        };
        Ok(RStmt { id: stmt.id, kind })
    }

    fn simple_stmt(&mut self, kind: &'a StmtKind) -> LangResult<RStmtKind> {
        Ok(match kind {
            StmtKind::Let { name, value } => {
                let value = self.expr(value)?;
                RStmtKind::Set {
                    slot: self.define(name),
                    value,
                }
            }
            StmtKind::Assign { name, value } => {
                let target = self.lookup(name);
                if target.is_none()
                    && !RESERVED_VARS.contains(&name.as_str())
                    && self.param(name).is_none()
                {
                    return Err(self.error(format!(
                        "assignment to undefined variable `{name}` in `{}`",
                        self.func.name
                    )));
                }
                let value = self.expr(value)?;
                RStmtKind::Set {
                    slot: target.unwrap_or_else(|| self.push(name)),
                    value,
                }
            }
            StmtKind::Call { callee, args } => {
                let Some(func) = self.program.function_index(callee) else {
                    return Err(self.error(format!("call to undefined function `{callee}`")));
                };
                let arity = self.program.functions[func].params.len();
                if arity != args.len() {
                    return Err(self.error(format!(
                        "`{callee}` takes {arity} argument(s), got {}",
                        args.len()
                    )));
                }
                RStmtKind::Call {
                    func: func as FuncId,
                    args: self.exprs(args)?,
                }
            }
            StmtKind::CallIndirect { target, args } => RStmtKind::CallIndirect {
                target: self.expr(target)?,
                args: self.exprs(args)?,
            },
            StmtKind::Comp(attrs) => RStmtKind::Comp(self.comp(attrs)?),
            StmtKind::Mpi(op) => RStmtKind::Mpi {
                kind: MpiKind::of(op),
                op: self.mpi(op)?,
            },
            StmtKind::Return => RStmtKind::Return,
            StmtKind::For { .. } | StmtKind::While { .. } | StmtKind::If { .. } => {
                unreachable!("`stmt` lowers statements with blocks")
            }
        })
    }

    fn comp(&self, attrs: &CompAttrs) -> LangResult<RComp> {
        let opt = |e: &Option<Expr>| e.as_ref().map(|e| self.expr(e)).transpose();
        Ok(RComp {
            cycles: self.expr(&attrs.cycles)?,
            ins: opt(&attrs.ins)?,
            lst: opt(&attrs.lst)?,
            l2_miss: opt(&attrs.l2_miss)?,
            br_miss: opt(&attrs.br_miss)?,
        })
    }

    fn mpi(&mut self, op: &'a MpiOp) -> LangResult<RMpiOp> {
        Ok(match op {
            MpiOp::Send { dst, tag, bytes } => RMpiOp::Send {
                dst: self.expr(dst)?,
                tag: self.expr(tag)?,
                bytes: self.expr(bytes)?,
            },
            MpiOp::Recv { src, tag } => RMpiOp::Recv {
                src: self.expr(src)?,
                tag: self.expr(tag)?,
            },
            MpiOp::Sendrecv {
                dst,
                sendtag,
                src,
                recvtag,
                bytes,
            } => RMpiOp::Sendrecv {
                dst: self.expr(dst)?,
                sendtag: self.expr(sendtag)?,
                src: self.expr(src)?,
                recvtag: self.expr(recvtag)?,
                bytes: self.expr(bytes)?,
            },
            // The operands are read before the request variable is bound.
            MpiOp::Isend {
                dst,
                tag,
                bytes,
                req,
            } => {
                let (dst, tag, bytes) = (self.expr(dst)?, self.expr(tag)?, self.expr(bytes)?);
                RMpiOp::Isend {
                    dst,
                    tag,
                    bytes,
                    req_slot: self.define(req),
                }
            }
            MpiOp::Irecv { src, tag, req } => {
                let (src, tag) = (self.expr(src)?, self.expr(tag)?);
                RMpiOp::Irecv {
                    src,
                    tag,
                    req_slot: self.define(req),
                }
            }
            MpiOp::Wait { req } => RMpiOp::Wait {
                req: self.expr(req)?,
            },
            MpiOp::Waitall => RMpiOp::Waitall,
            MpiOp::Barrier => RMpiOp::Collective {
                root: RExpr::Int(0),
                bytes: RExpr::Int(0),
            },
            MpiOp::Bcast { root, bytes } | MpiOp::Reduce { root, bytes } => RMpiOp::Collective {
                root: self.expr(root)?,
                bytes: self.expr(bytes)?,
            },
            MpiOp::Allreduce { bytes } | MpiOp::Alltoall { bytes } | MpiOp::Allgather { bytes } => {
                RMpiOp::Collective {
                    root: RExpr::Int(0),
                    bytes: self.expr(bytes)?,
                }
            }
        })
    }

    fn exprs(&self, exprs: &[Expr]) -> LangResult<Vec<RExpr>> {
        exprs.iter().map(|e| self.expr(e)).collect()
    }

    /// Lower an expression against the bindings visible now.
    fn expr(&self, expr: &Expr) -> LangResult<RExpr> {
        Ok(match expr {
            Expr::Int(v) => RExpr::Int(*v),
            Expr::Var(name) => self.read(name)?,
            Expr::FuncRef(name) => match self.program.function_index(name) {
                Some(func) => RExpr::Func(func as FuncId),
                None => return Err(self.error(format!("`&{name}` references undefined function"))),
            },
            Expr::Unary { op, expr } => RExpr::Unary {
                op: *op,
                expr: Box::new(self.expr(expr)?),
            },
            Expr::Binary { op, lhs, rhs } => RExpr::Binary {
                op: *op,
                lhs: Box::new(self.expr(lhs)?),
                rhs: Box::new(self.expr(rhs)?),
            },
            Expr::Builtin { func, args } => RExpr::Builtin {
                func: *func,
                args: self.exprs(args)?,
            },
        })
    }

    fn read(&self, name: &str) -> LangResult<RExpr> {
        Ok(match name {
            VAR_RANK => RExpr::Rank,
            VAR_NPROCS => RExpr::Nprocs,
            VAR_ANY => RExpr::Int(ANY_VALUE),
            _ => match self.lookup(name) {
                Some(slot) => RExpr::Slot(slot),
                None => RExpr::Param(
                    self.param(name)
                        .ok_or_else(|| self.error(format!("use of undefined variable `{name}`")))?,
                ),
            },
        })
    }

    /// The nearest visible binding of `name`.
    fn lookup(&self, name: &str) -> Option<Slot> {
        self.bindings
            .iter()
            .rposition(|b| *b == name)
            .map(|i| i as Slot)
    }

    /// The index of the program parameter `name`.
    fn param(&self, name: &str) -> Option<u32> {
        self.program
            .params
            .iter()
            .position(|p| p.name == name)
            .map(|i| i as u32)
    }

    /// Bind `name` in the innermost scope, reusing a binding of the same
    /// name there.
    fn define(&mut self, name: &'a str) -> Slot {
        let start = *self.scope_starts.last().expect("open scope");
        match self.bindings[start..].iter().rposition(|b| *b == name) {
            Some(i) => (start + i) as Slot,
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
    use crate::parse_program;

    fn lower_src(src: &str) -> Lowered {
        parse_program("t.mmpi", src).unwrap().lowered().clone()
    }

    fn main_body(r: &Lowered) -> &[RStmt] {
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
        let r = lower_src("fn main() { let x = 1; let x = x + 1; }");
        let body = main_body(&r);
        assert_eq!(set(&body[0]).0, 0);
        let (slot, value) = set(&body[1]);
        assert_eq!(slot, 0);
        assert!(matches!(value, RExpr::Binary { lhs, .. } if **lhs == RExpr::Slot(0)));
        assert_eq!(r.functions[r.main as usize].slots, 1);
    }

    #[test]
    fn inner_let_shadows_and_its_slot_is_reused_after_the_scope() {
        let r = lower_src(
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
        let r = lower_src("fn main() { let x = 1; if rank == 0 { let y = 0; x = 9; } }");
        let inner = then_block(&main_body(&r)[1]);
        assert_eq!(set(&inner[1]).0, 0);
    }

    #[test]
    fn assigning_an_unbound_name_binds_it_in_the_innermost_scope() {
        let r = lower_src(
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
                    lhs: Box::new(RExpr::Param(0)),
                    rhs: Box::new(RExpr::Int(1)),
                }
            )
        );
        assert_eq!(set(&inner[1]), (2, &RExpr::Slot(1)));
        // After the block `N` is the parameter again.
        assert_eq!(set(&body[2]), (1, &RExpr::Param(0)));
    }

    #[test]
    fn reserved_names_and_params_resolve_to_runtime_values() {
        let r = lower_src(
            "param N = 100; param M = 5; fn main() { let rank = 50; \
             let a = rank + nprocs + any + N + M; }",
        );
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
                RExpr::Nprocs,
                RExpr::Int(ANY_VALUE),
                RExpr::Param(0),
                RExpr::Param(1)
            ]
        );
    }

    #[test]
    fn function_params_take_the_first_slots_and_share_the_body_scope() {
        let r = lower_src(
            "param n = 7; param m = 3; fn main() { f(1, 2); } \
             fn f(n, k) { let n = n + k; for i in 0 .. n { let j = i; } }",
        );
        let f = &r.functions[1];
        assert_eq!(f.name, "f");
        assert_eq!(f.params, [(0, Some(0)), (1, None)]);
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
        let r = lower_src(
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

    #[test]
    fn a_request_operand_reads_the_outer_binding_of_its_name() {
        let r = lower_src("fn main() { let r = 3; if rank == 0 { let r = isend(dst = r); } }");
        let RStmtKind::Mpi { op, .. } = &then_block(&main_body(&r)[1])[0].kind else {
            panic!("expected mpi")
        };
        assert!(matches!(
            op,
            RMpiOp::Isend {
                dst: RExpr::Slot(0),
                req_slot: 1,
                ..
            }
        ));
    }
}
