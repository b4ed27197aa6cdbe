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
//! After the walk, each function's loops are hoisted, outermost first.
//! Every non-leaf expression anywhere in a `for` or `while` body — a
//! `comp` attribute, a set value, a condition, a call argument, a nested
//! loop's bounds, an MPI operand — that reads no slot the body writes is
//! moved, as large as it is, into a hidden slot, and the loop carries
//! the `(slot, expression)` pairs, which the simulator evaluates once on
//! each entry to the loop. A `while` condition is part of its own body
//! here; a `for` loop's bounds belong to the enclosing code. A body
//! writes a slot when it sets it, when the slot is a nested `for`
//! loop's induction variable or an `isend`/`irecv` request variable, and
//! a `for` loop writes its own induction variable. So an inner-loop
//! expression that reads an outer loop's induction variable is hoisted
//! to the inner loop only. Hidden slots are numbered from the function's
//! high-water mark up, as a stack: a loop's hidden slots stay reserved
//! while its body's loops take theirs above them, and a sibling loop
//! reuses them. [`RFunction::slots`] counts them.
//!
//! Hoisting is exact. An expression is pure and total (division by zero
//! is 0, arithmetic wraps), so evaluating it early — for a loop that
//! runs no iteration, or under a branch that is not taken — cannot trap
//! and cannot change its value: the slots it reads hold the same values
//! at loop entry as at every iteration. A non-leaf expression always
//! evaluates to an integer, and an integer slot reads back as that
//! integer, as a value, an operand or a truth value alike. Leaves (a
//! literal, a slot, a parameter, `rank`, `nprocs`, `&f`) stay where
//! they are: reading one costs no more than reading a hidden slot.
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
        /// The body's loop-invariant expressions and the hidden slots
        /// they are evaluated into on loop entry.
        hoisted: Vec<(Slot, RExpr)>,
        /// Loop body.
        body: Vec<RStmt>,
    },
    /// Condition loop.
    While {
        /// Continuation condition.
        cond: RExpr,
        /// The condition's and the body's loop-invariant expressions and
        /// the hidden slots they are evaluated into on loop entry.
        hoisted: Vec<(Slot, RExpr)>,
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

impl<T> Operands<T, T> {
    /// Pass every operand, in order, to `f`; request slots are not
    /// operands.
    fn for_each_mut(&mut self, mut f: impl FnMut(&mut T)) {
        match self {
            Operands::Send { dst, tag, bytes }
            | Operands::Isend {
                dst, tag, bytes, ..
            } => {
                f(dst);
                f(tag);
                f(bytes);
            }
            Operands::Recv { src, tag } | Operands::Irecv { src, tag, .. } => {
                f(src);
                f(tag);
            }
            Operands::Sendrecv {
                dst,
                sendtag,
                src,
                recvtag,
                bytes,
            } => {
                f(dst);
                f(sendtag);
                f(src);
                f(recvtag);
                f(bytes);
            }
            Operands::Wait { req } => f(req),
            Operands::Waitall => {}
            Operands::Collective { root, bytes } => {
                f(root);
                f(bytes);
            }
        }
    }
}

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
    /// Slots a frame of this function needs, hidden slots included.
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
        let mut body = self.stmts(&func.body.stmts)?;
        let high_water = self.high_water as Slot;
        let mut hoister = Hoister {
            top: high_water,
            slots: high_water,
            written: Vec::new(),
            hoisted: Vec::new(),
        };
        hoister.block(&mut body);
        Ok(RFunction {
            name: func.name.clone(),
            params,
            slots: hoister.slots,
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
                    hoisted: Vec::new(),
                    body,
                }
            }
            StmtKind::While { cond, body } => RStmtKind::While {
                cond: self.expr(cond)?,
                hoisted: Vec::new(),
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

/// Loop-invariant code motion over one lowered function (see the module
/// doc).
struct Hoister {
    /// The next free hidden slot.
    top: Slot,
    /// Slots the function needs so far, hidden slots included.
    slots: Slot,
    /// The slots the loop being hoisted writes.
    written: Vec<Slot>,
    /// The expressions hoisted out of that loop so far.
    hoisted: Vec<(Slot, RExpr)>,
}

impl Hoister {
    /// Hoist every loop in `stmts`, each before the loops in its body.
    fn block(&mut self, stmts: &mut [RStmt]) {
        for stmt in stmts {
            match &mut stmt.kind {
                RStmtKind::For {
                    slot,
                    hoisted,
                    body,
                    ..
                } => {
                    self.written.clear();
                    self.written.push(*slot);
                    writes(body, &mut self.written);
                    self.hoist_loop(None, hoisted, body);
                }
                RStmtKind::While {
                    cond,
                    hoisted,
                    body,
                } => {
                    self.written.clear();
                    writes(body, &mut self.written);
                    self.hoist_loop(Some(cond), hoisted, body);
                }
                RStmtKind::If {
                    then_block,
                    else_block,
                    ..
                } => {
                    self.block(then_block);
                    if let Some(block) = else_block {
                        self.block(block);
                    }
                }
                _ => {}
            }
        }
    }

    /// Hoist one loop's invariants against `self.written`, then the loops
    /// in its body above its hidden slots.
    fn hoist_loop(
        &mut self,
        cond: Option<&mut RExpr>,
        hoisted: &mut Vec<(Slot, RExpr)>,
        body: &mut [RStmt],
    ) {
        let base = self.top;
        if let Some(cond) = cond {
            self.root(cond);
        }
        self.exprs_in(body);
        *hoisted = std::mem::take(&mut self.hoisted);
        self.block(body);
        self.top = base;
    }

    /// Hoist out of every expression in `stmts`, nested blocks included.
    fn exprs_in(&mut self, stmts: &mut [RStmt]) {
        for stmt in stmts {
            match &mut stmt.kind {
                RStmtKind::Set { value, .. } => self.root(value),
                RStmtKind::For {
                    start, end, body, ..
                } => {
                    self.root(start);
                    self.root(end);
                    self.exprs_in(body);
                }
                RStmtKind::While { cond, body, .. } => {
                    self.root(cond);
                    self.exprs_in(body);
                }
                RStmtKind::If {
                    cond,
                    then_block,
                    else_block,
                } => {
                    self.root(cond);
                    self.exprs_in(then_block);
                    if let Some(block) = else_block {
                        self.exprs_in(block);
                    }
                }
                RStmtKind::Call { args, .. } => args.iter_mut().for_each(|a| self.root(a)),
                RStmtKind::CallIndirect { target, args } => {
                    self.root(target);
                    args.iter_mut().for_each(|a| self.root(a));
                }
                RStmtKind::Comp(comp) => {
                    self.root(&mut comp.cycles);
                    [
                        &mut comp.ins,
                        &mut comp.lst,
                        &mut comp.l2_miss,
                        &mut comp.br_miss,
                    ]
                    .into_iter()
                    .flatten()
                    .for_each(|e| self.root(e));
                }
                RStmtKind::Mpi { op, .. } => op.for_each_mut(|e| self.root(e)),
                RStmtKind::Return => {}
            }
        }
    }

    /// Hoist the largest invariant non-leaf parts of a whole expression.
    fn root(&mut self, expr: &mut RExpr) {
        if self.invariant(expr) {
            self.take(expr);
        }
    }

    /// Whether `expr` reads no written slot. When it does, its largest
    /// invariant non-leaf parts are hoisted; when it does not, it is left
    /// whole for the caller to hoist with whatever contains it.
    fn invariant(&mut self, expr: &mut RExpr) -> bool {
        match expr {
            RExpr::Slot(slot) => !self.written.contains(slot),
            RExpr::Unary { expr, .. } => self.invariant(expr),
            RExpr::Binary { lhs, rhs, .. } => {
                let (l, r) = (self.invariant(lhs), self.invariant(rhs));
                if l != r {
                    self.take(if l { lhs } else { rhs });
                }
                l && r
            }
            RExpr::Builtin { args, .. } => {
                let invariant: Vec<bool> = args.iter_mut().map(|a| self.invariant(a)).collect();
                let all = invariant.iter().all(|&i| i);
                if !all {
                    for (arg, _) in args.iter_mut().zip(invariant).filter(|&(_, i)| i) {
                        self.take(arg);
                    }
                }
                all
            }
            RExpr::Int(_) | RExpr::Rank | RExpr::Nprocs | RExpr::Param(_) | RExpr::Func(_) => true,
        }
    }

    /// Move an invariant non-leaf expression into the next hidden slot.
    fn take(&mut self, expr: &mut RExpr) {
        if matches!(
            expr,
            RExpr::Unary { .. } | RExpr::Binary { .. } | RExpr::Builtin { .. }
        ) {
            let slot = self.top;
            self.top += 1;
            self.slots = self.slots.max(self.top);
            self.hoisted
                .push((slot, std::mem::replace(expr, RExpr::Slot(slot))));
        }
    }
}

/// Add every slot `stmts` write to `out`: set slots, `for` induction
/// variables and request variables, nested blocks included.
fn writes(stmts: &[RStmt], out: &mut Vec<Slot>) {
    for stmt in stmts {
        match &stmt.kind {
            RStmtKind::Set { slot, .. } => out.push(*slot),
            RStmtKind::For { slot, body, .. } => {
                out.push(*slot);
                writes(body, out);
            }
            RStmtKind::While { body, .. } => writes(body, out),
            RStmtKind::If {
                then_block,
                else_block,
                ..
            } => {
                writes(then_block, out);
                if let Some(block) = else_block {
                    writes(block, out);
                }
            }
            RStmtKind::Mpi {
                op: RMpiOp::Isend { req_slot, .. } | RMpiOp::Irecv { req_slot, .. },
                ..
            } => out.push(*req_slot),
            _ => {}
        }
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

    /// An expression in a compact form: `s3` is slot 3, `p0` parameter 0,
    /// `&1` a reference to function 1.
    fn show(e: &RExpr) -> String {
        match e {
            RExpr::Int(v) => v.to_string(),
            RExpr::Rank => "rank".into(),
            RExpr::Nprocs => "nprocs".into(),
            RExpr::Param(i) => format!("p{i}"),
            RExpr::Slot(s) => format!("s{s}"),
            RExpr::Func(f) => format!("&{f}"),
            RExpr::Unary { op, expr } => {
                let op = if *op == UnOp::Neg { "-" } else { "!" };
                format!("{op}{}", show(expr))
            }
            RExpr::Binary { op, lhs, rhs } => {
                format!("({} {} {})", show(lhs), op.symbol(), show(rhs))
            }
            RExpr::Builtin { func, args } => {
                let args: Vec<String> = args.iter().map(show).collect();
                format!("{}({})", func.name(), args.join(", "))
            }
        }
    }

    /// A loop's hoisted list and body.
    fn hoisted(stmt: &RStmt) -> (Vec<(Slot, String)>, &[RStmt]) {
        let (hoisted, body) = match &stmt.kind {
            RStmtKind::For { hoisted, body, .. } | RStmtKind::While { hoisted, body, .. } => {
                (hoisted, body)
            }
            other => panic!("expected a loop, got {other:?}"),
        };
        let list = hoisted.iter().map(|(s, e)| (*s, show(e))).collect();
        (list, body)
    }

    fn comp_cycles(stmt: &RStmt) -> String {
        match &stmt.kind {
            RStmtKind::Comp(comp) => show(&comp.cycles),
            other => panic!("expected a comp, got {other:?}"),
        }
    }

    fn pairs(list: &[(Slot, &str)]) -> Vec<(Slot, String)> {
        list.iter().map(|&(s, e)| (s, e.to_string())).collect()
    }

    #[test]
    fn a_while_hoists_the_invariant_part_of_its_condition_but_not_carried_values() {
        let r = lower_src(
            "param N = 6; fn main() { let k = 5; let acc = 0; \
             while k > N / 3 - 1 { acc = acc + k * (N + rank); k = k - 1; } }",
        );
        let body = main_body(&r);
        let (list, inner) = hoisted(&body[2]);
        // Slots 0 and 1 are `k` and `acc`; hidden slots start at 2.
        assert_eq!(list, pairs(&[(2, "((p0 / 3) - 1)"), (3, "(p0 + rank)")]));
        let RStmtKind::While { cond, .. } = &body[2].kind else {
            panic!("expected a while")
        };
        assert_eq!(show(cond), "(s0 > s2)");
        assert_eq!(show(set(&inner[0]).1), "(s1 + (s0 * s3))");
        assert_eq!(show(set(&inner[1]).1), "(s0 - 1)");
        assert_eq!(r.functions[r.main as usize].slots, 4);
    }

    #[test]
    fn request_variables_bound_in_the_body_are_written() {
        let r = lower_src(
            "fn main() { for it in 0 .. 3 { let q = irecv(src = any, tag = it); \
             comp(cycles = q % 5 + nprocs * 2); wait(q); } }",
        );
        let (list, inner) = hoisted(&main_body(&r)[0]);
        assert_eq!(list, pairs(&[(2, "(nprocs * 2)")]));
        assert_eq!(comp_cycles(&inner[1]), "((s1 % 5) + s2)");
    }

    #[test]
    fn an_expression_reading_the_outer_induction_variable_is_hoisted_to_the_inner_loop() {
        let r = lower_src(
            "param N = 6; fn main() { for i in 0 .. 3 { for j in 0 .. i + 1 { \
             comp(cycles = i * N + j, ins = N * 3); } } }",
        );
        let (outer, body) = hoisted(&main_body(&r)[0]);
        assert_eq!(outer, pairs(&[(2, "(p0 * 3)")]));
        let RStmtKind::For { end, .. } = &body[0].kind else {
            panic!("expected a for")
        };
        assert_eq!(
            show(end),
            "(s0 + 1)",
            "reads `i`: not hoisted to the outer loop"
        );
        let (inner, body) = hoisted(&body[0]);
        assert_eq!(inner, pairs(&[(3, "(s0 * p0)")]));
        let RStmtKind::Comp(comp) = &body[0].kind else {
            panic!("expected a comp")
        };
        assert_eq!(show(&comp.cycles), "(s3 + s1)");
        assert_eq!(show(comp.ins.as_ref().unwrap()), "s2");
        assert_eq!(r.functions[r.main as usize].slots, 4);
    }

    #[test]
    fn sibling_loops_reuse_hidden_slots_above_the_high_water_mark() {
        let r = lower_src(
            "fn main() { let x = 1; for i in 0 .. 2 { comp(cycles = nprocs * 2 + i); } \
             for j in 0 .. 2 { comp(cycles = nprocs * 3, ins = nprocs * 4); } \
             f(); } fn f() { for i in 0 .. 2 { comp(cycles = nprocs * 5); } }",
        );
        let body = main_body(&r);
        assert_eq!(hoisted(&body[1]).0, pairs(&[(2, "(nprocs * 2)")]));
        assert_eq!(
            hoisted(&body[2]).0,
            pairs(&[(2, "(nprocs * 3)"), (3, "(nprocs * 4)")])
        );
        assert_eq!(r.functions[r.main as usize].slots, 4);
        // `f` numbers its own: its high-water mark is 1.
        assert_eq!(
            hoisted(&r.functions[1].body[0]).0,
            pairs(&[(1, "(nprocs * 5)")])
        );
        assert_eq!(r.functions[1].slots, 2);
    }

    #[test]
    fn branches_zero_trip_loops_return_and_division_by_zero_are_hoisted_from() {
        let r = lower_src(
            "param N = 6; param Z = 0; fn main() { for t in 0 .. 10 { \
             if rank < 0 { comp(cycles = N * 1000); } \
             for z in 0 .. Z { comp(cycles = N * 99 + z); } \
             if t == N / Z { return; } } }",
        );
        let (list, body) = hoisted(&main_body(&r)[0]);
        assert_eq!(
            list,
            pairs(&[
                (2, "(rank < 0)"),
                (3, "(p0 * 1000)"),
                (4, "(p0 * 99)"),
                (5, "(p0 / p1)"),
            ])
        );
        assert_eq!(comp_cycles(&then_block(&body[0])[0]), "s3");
        let (inner, zero_trip) = hoisted(&body[1]);
        assert_eq!(inner, [], "nothing left that the inner loop alone keeps");
        assert_eq!(comp_cycles(&zero_trip[0]), "(s4 + s1)");
        let RStmtKind::If { cond, .. } = &body[2].kind else {
            panic!("expected an if")
        };
        assert_eq!(show(cond), "(s0 == s5)");
        assert_eq!(r.functions[r.main as usize].slots, 6);
    }

    #[test]
    fn an_indirect_call_keeps_its_target_and_hoists_its_arguments() {
        let r = lower_src(
            "param N = 6; fn main() { for it in 0 .. 3 { let g = &leaf; \
             call g(N * 2 + it, -N); } } fn leaf(a, b) { }",
        );
        let (list, body) = hoisted(&main_body(&r)[0]);
        assert_eq!(list, pairs(&[(2, "(p0 * 2)"), (3, "-p0")]));
        assert_eq!(show(set(&body[0]).1), "&1");
        let RStmtKind::CallIndirect { target, args } = &body[1].kind else {
            panic!("expected an indirect call")
        };
        assert_eq!(show(target), "s1");
        let args: Vec<String> = args.iter().map(show).collect();
        assert_eq!(args, ["(s2 + s0)", "s3"]);
    }

    #[test]
    fn leaves_written_values_and_a_loops_own_bounds_stay() {
        let r = lower_src(
            "param N = 6; fn main() { let x = 2; for i in 0 .. N * 2 { \
             comp(cycles = N, ins = x); x = x + 1; comp(cycles = x * 2); \
             send(dst = (rank + 1) % nprocs, tag = i, bytes = x); } }",
        );
        let (list, body) = hoisted(&main_body(&r)[1]);
        assert_eq!(list, pairs(&[(2, "((rank + 1) % nprocs)")]));
        let RStmtKind::For { end, .. } = &main_body(&r)[1].kind else {
            panic!("expected a for")
        };
        assert_eq!(show(end), "(p0 * 2)");
        assert_eq!(comp_cycles(&body[0]), "p0");
        assert_eq!(comp_cycles(&body[2]), "(s0 * 2)");
        assert_eq!(r.functions[r.main as usize].slots, 3);
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
