//! Abstract syntax tree for MiniMPI.
//!
//! Every statement owns a stable [`NodeId`]. The PSG builder keys graph
//! vertices by these ids and the simulator attributes runtime performance
//! data back to them, which is the mechanism the paper implements with
//! LLVM instruction/debug metadata.

use crate::lower::Lowered;
use crate::span::Span;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Stable identifier of an AST statement, unique within one [`Program`].
pub type NodeId = u32;

/// Reserved variable name: the executing process rank.
pub const VAR_RANK: &str = "rank";
/// Reserved variable name: total number of processes.
pub const VAR_NPROCS: &str = "nprocs";
/// Reserved variable name: the MPI wildcard (`MPI_ANY_SOURCE`/`MPI_ANY_TAG`).
pub const VAR_ANY: &str = "any";
/// Runtime value of the wildcard.
pub const ANY_VALUE: i64 = -1;
/// The reserved variable names, provided by the runtime.
pub const RESERVED_VARS: [&str; 3] = [VAR_RANK, VAR_NPROCS, VAR_ANY];

/// A complete MiniMPI program: tunable parameters plus functions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Program {
    /// Name of the entry source file.
    pub file_name: String,
    /// Tunable integer parameters (`param N = 1024;`), overridable per run.
    pub params: Vec<ParamDecl>,
    /// All functions; `main` must exist and take no arguments.
    pub functions: Vec<Function>,
    /// One past the largest [`NodeId`] in use.
    pub next_node_id: NodeId,
    /// The program lowered by [`crate::check::check_program`]; `None`
    /// until it ran. Editing a checked program's AST leaves this stale.
    pub lowered: Option<Arc<Lowered>>,
}

impl Program {
    /// Look up a function by name.
    pub fn function(&self, name: &str) -> Option<&Function> {
        self.functions.iter().find(|f| f.name == name)
    }

    /// The entry function. Panics if semantic checking did not run.
    pub fn main(&self) -> &Function {
        self.function("main")
            .expect("checked program must have `main`")
    }

    /// The form the simulator runs (see [`crate::lower`]). Panics if
    /// semantic checking did not run.
    pub fn lowered(&self) -> &Lowered {
        self.lowered
            .as_deref()
            .expect("checked program must be lowered")
    }

    /// Index of a function by name (used as the runtime function id for
    /// indirect calls).
    pub fn function_index(&self, name: &str) -> Option<usize> {
        self.functions.iter().position(|f| f.name == name)
    }

    /// Visit every statement in the program (pre-order).
    pub fn for_each_stmt(&self, mut f: impl FnMut(&Stmt)) {
        fn walk(block: &Block, f: &mut impl FnMut(&Stmt)) {
            for stmt in &block.stmts {
                f(stmt);
                match &stmt.kind {
                    StmtKind::For { body, .. } | StmtKind::While { body, .. } => walk(body, f),
                    StmtKind::If {
                        then_block,
                        else_block,
                        ..
                    } => {
                        walk(then_block, f);
                        if let Some(e) = else_block {
                            walk(e, f);
                        }
                    }
                    _ => {}
                }
            }
        }
        for func in &self.functions {
            walk(&func.body, &mut f);
        }
    }

    /// Total number of statements.
    pub fn stmt_count(&self) -> usize {
        let mut n = 0;
        self.for_each_stmt(|_| n += 1);
        n
    }
}

/// A tunable integer parameter with a default value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParamDecl {
    /// Parameter name, usable as a variable everywhere.
    pub name: String,
    /// Default value when the run config does not override it.
    pub default: i64,
    /// Declaration site.
    pub span: Span,
}

/// A function definition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Function {
    /// Function name, unique within the program.
    pub name: String,
    /// Formal parameter names.
    pub params: Vec<String>,
    /// Function body.
    pub body: Block,
    /// Definition site.
    pub span: Span,
}

/// A brace-delimited statement sequence.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Block {
    /// The statements, in program order.
    pub stmts: Vec<Stmt>,
}

/// A statement with identity and location.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Stmt {
    /// Stable id; PSG vertices and profiles are keyed by this.
    pub id: NodeId,
    /// Source location for root-cause reporting.
    pub span: Span,
    /// The statement payload.
    pub kind: StmtKind,
}

/// Statement forms of MiniMPI.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum StmtKind {
    /// `let x = expr;` — introduce a local variable.
    Let {
        /// Variable name.
        name: String,
        /// Initializer.
        value: Expr,
    },
    /// `x = expr;` — reassign a local variable.
    Assign {
        /// Variable name.
        name: String,
        /// New value.
        value: Expr,
    },
    /// `for i in start .. end { body }` — counted loop, `end` exclusive.
    For {
        /// Induction variable.
        var: String,
        /// Inclusive start expression.
        start: Expr,
        /// Exclusive end expression.
        end: Expr,
        /// Loop body.
        body: Block,
    },
    /// `while cond { body }` — condition loop.
    While {
        /// Continuation condition (nonzero = true).
        cond: Expr,
        /// Loop body.
        body: Block,
    },
    /// `if cond { .. } else { .. }`.
    If {
        /// Condition (nonzero = true).
        cond: Expr,
        /// Taken when the condition is nonzero.
        then_block: Block,
        /// Optional else block.
        else_block: Option<Block>,
    },
    /// `foo(a, b);` — direct call to a user function.
    Call {
        /// Callee name.
        callee: String,
        /// Actual arguments.
        args: Vec<Expr>,
    },
    /// `call f(a, b);` — indirect call through a function reference.
    ///
    /// The static analysis cannot resolve the target; the paper records it
    /// at runtime and patches the PSG (§III-B3). The simulator reports the
    /// resolved callee through the hook layer for the same purpose.
    CallIndirect {
        /// Expression evaluating to a function reference.
        target: Expr,
        /// Actual arguments.
        args: Vec<Expr>,
    },
    /// `comp(cycles = .., ins = .., ..);` — a computation block with a
    /// cost model and simulated PMU counters.
    Comp(CompAttrs),
    /// An MPI operation.
    Mpi(MpiOp),
    /// `return;` — leave the current function.
    Return,
}

/// Cost and PMU attributes of a `comp` block.
///
/// All attributes are expressions over locals, `rank`, `nprocs`, and
/// program parameters, so the same source exhibits different workloads at
/// different scales — the property non-scalable vertex detection relies on.
/// The lowered form holds the same attributes as
/// [`crate::lower::RExpr`]s.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompAttrs<E = Expr> {
    /// Virtual CPU cycles consumed (drives the rank's clock).
    pub cycles: E,
    /// Instructions retired (`PAPI_TOT_INS`); defaults to `cycles`.
    pub ins: Option<E>,
    /// Load/store instructions (`PAPI_LST_INS`); defaults to `ins / 4`.
    pub lst: Option<E>,
    /// L2 cache misses; defaults to `lst / 100`.
    pub l2_miss: Option<E>,
    /// Branch mispredictions; defaults to `ins / 1000`.
    pub br_miss: Option<E>,
}

/// MPI operations supported by the simulator and intercepted by hooks.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MpiOp {
    /// Blocking standard send.
    Send {
        /// Destination rank.
        dst: Expr,
        /// Message tag.
        tag: Expr,
        /// Payload size in bytes.
        bytes: Expr,
    },
    /// Blocking receive; `src`/`tag` may be `any`.
    Recv {
        /// Source rank or `any`.
        src: Expr,
        /// Tag or `any`.
        tag: Expr,
    },
    /// Combined send+receive (deadlock-free exchange).
    Sendrecv {
        /// Destination rank of the send half.
        dst: Expr,
        /// Tag of the send half.
        sendtag: Expr,
        /// Source rank of the receive half (or `any`).
        src: Expr,
        /// Tag of the receive half (or `any`).
        recvtag: Expr,
        /// Payload size in bytes (both directions).
        bytes: Expr,
    },
    /// Non-blocking send; binds a request variable.
    Isend {
        /// Destination rank.
        dst: Expr,
        /// Message tag.
        tag: Expr,
        /// Payload size in bytes.
        bytes: Expr,
        /// Name of the request variable bound by `let r = isend(..);`.
        req: String,
    },
    /// Non-blocking receive; binds a request variable.
    Irecv {
        /// Source rank or `any`.
        src: Expr,
        /// Tag or `any`.
        tag: Expr,
        /// Name of the request variable bound by `let r = irecv(..);`.
        req: String,
    },
    /// Wait for a single request.
    Wait {
        /// Expression evaluating to a request id.
        req: Expr,
    },
    /// Wait for all outstanding requests of this rank.
    Waitall,
    /// Barrier across all ranks.
    Barrier,
    /// Broadcast from `root`.
    Bcast {
        /// Root rank.
        root: Expr,
        /// Payload size in bytes.
        bytes: Expr,
    },
    /// Reduce to `root`.
    Reduce {
        /// Root rank.
        root: Expr,
        /// Payload size in bytes.
        bytes: Expr,
    },
    /// Allreduce across all ranks.
    Allreduce {
        /// Payload size in bytes.
        bytes: Expr,
    },
    /// Personalized all-to-all exchange.
    Alltoall {
        /// Per-pair payload size in bytes.
        bytes: Expr,
    },
    /// Allgather across all ranks.
    Allgather {
        /// Per-rank payload size in bytes.
        bytes: Expr,
    },
}

/// MPI operation class: what a PSG vertex and a lowered MPI statement
/// record of an [`MpiOp`] (parameter expressions stay in the AST, as in
/// the paper's PSG).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MpiKind {
    /// Blocking send.
    Send,
    /// Blocking receive.
    Recv,
    /// Combined exchange.
    Sendrecv,
    /// Non-blocking send.
    Isend,
    /// Non-blocking receive.
    Irecv,
    /// Wait on one request.
    Wait,
    /// Wait on all outstanding requests.
    Waitall,
    /// Barrier collective.
    Barrier,
    /// Broadcast collective.
    Bcast,
    /// Reduce collective.
    Reduce,
    /// Allreduce collective.
    Allreduce,
    /// All-to-all collective.
    Alltoall,
    /// Allgather collective.
    Allgather,
}

impl MpiKind {
    /// Classify an AST MPI operation.
    pub fn of(op: &MpiOp) -> MpiKind {
        match op {
            MpiOp::Send { .. } => MpiKind::Send,
            MpiOp::Recv { .. } => MpiKind::Recv,
            MpiOp::Sendrecv { .. } => MpiKind::Sendrecv,
            MpiOp::Isend { .. } => MpiKind::Isend,
            MpiOp::Irecv { .. } => MpiKind::Irecv,
            MpiOp::Wait { .. } => MpiKind::Wait,
            MpiOp::Waitall => MpiKind::Waitall,
            MpiOp::Barrier => MpiKind::Barrier,
            MpiOp::Bcast { .. } => MpiKind::Bcast,
            MpiOp::Reduce { .. } => MpiKind::Reduce,
            MpiOp::Allreduce { .. } => MpiKind::Allreduce,
            MpiOp::Alltoall { .. } => MpiKind::Alltoall,
            MpiOp::Allgather { .. } => MpiKind::Allgather,
        }
    }

    /// Whether all ranks participate. Backtracking (Algorithm 1) stops at
    /// collective vertices.
    pub fn is_collective(self) -> bool {
        matches!(
            self,
            MpiKind::Barrier
                | MpiKind::Bcast
                | MpiKind::Reduce
                | MpiKind::Allreduce
                | MpiKind::Alltoall
                | MpiKind::Allgather
        )
    }

    /// Whether this vertex can accrue wait time blocked on a peer.
    pub fn can_wait(self) -> bool {
        !matches!(self, MpiKind::Isend | MpiKind::Irecv)
    }

    /// MPI-style display name (`MPI_Allreduce`).
    pub fn mpi_name(self) -> &'static str {
        match self {
            MpiKind::Send => "MPI_Send",
            MpiKind::Recv => "MPI_Recv",
            MpiKind::Sendrecv => "MPI_Sendrecv",
            MpiKind::Isend => "MPI_Isend",
            MpiKind::Irecv => "MPI_Irecv",
            MpiKind::Wait => "MPI_Wait",
            MpiKind::Waitall => "MPI_Waitall",
            MpiKind::Barrier => "MPI_Barrier",
            MpiKind::Bcast => "MPI_Bcast",
            MpiKind::Reduce => "MPI_Reduce",
            MpiKind::Allreduce => "MPI_Allreduce",
            MpiKind::Alltoall => "MPI_Alltoall",
            MpiKind::Allgather => "MPI_Allgather",
        }
    }
}

/// One match for both [`MpiOp::operands`] and [`MpiOp::operands_mut`]:
/// binding modes make its fields `&` or `&mut` references.
macro_rules! named_operands {
    ($op:expr) => {
        match $op {
            MpiOp::Send { dst, tag, bytes }
            | MpiOp::Isend {
                dst, tag, bytes, ..
            } => {
                vec![("dst", dst), ("tag", tag), ("bytes", bytes)]
            }
            MpiOp::Recv { src, tag } | MpiOp::Irecv { src, tag, .. } => {
                vec![("src", src), ("tag", tag)]
            }
            MpiOp::Sendrecv {
                dst,
                sendtag,
                src,
                recvtag,
                bytes,
            } => vec![
                ("dst", dst),
                ("sendtag", sendtag),
                ("src", src),
                ("recvtag", recvtag),
                ("bytes", bytes),
            ],
            MpiOp::Wait { req } => vec![("req", req)],
            MpiOp::Waitall | MpiOp::Barrier => vec![],
            MpiOp::Bcast { root, bytes } | MpiOp::Reduce { root, bytes } => {
                vec![("root", root), ("bytes", bytes)]
            }
            MpiOp::Allreduce { bytes } | MpiOp::Alltoall { bytes } | MpiOp::Allgather { bytes } => {
                vec![("bytes", bytes)]
            }
        }
    };
}

impl MpiOp {
    /// Short lowercase name, matching the source syntax.
    pub fn name(&self) -> &'static str {
        match self {
            MpiOp::Send { .. } => "send",
            MpiOp::Recv { .. } => "recv",
            MpiOp::Sendrecv { .. } => "sendrecv",
            MpiOp::Isend { .. } => "isend",
            MpiOp::Irecv { .. } => "irecv",
            MpiOp::Wait { .. } => "wait",
            MpiOp::Waitall => "waitall",
            MpiOp::Barrier => "barrier",
            MpiOp::Bcast { .. } => "bcast",
            MpiOp::Reduce { .. } => "reduce",
            MpiOp::Allreduce { .. } => "allreduce",
            MpiOp::Alltoall { .. } => "alltoall",
            MpiOp::Allgather { .. } => "allgather",
        }
    }

    /// Whether this operation involves every rank of the communicator.
    ///
    /// Backtracking (Algorithm 1) stops at collective vertices.
    pub fn is_collective(&self) -> bool {
        MpiKind::of(self).is_collective()
    }

    /// Whether this operation can block waiting on another process.
    pub fn can_wait(&self) -> bool {
        MpiKind::of(self).can_wait()
    }

    /// The operand expressions with their argument names, in source
    /// order (an `isend`/`irecv`'s request variable is not an operand).
    pub fn operands(&self) -> Vec<(&'static str, &Expr)> {
        named_operands!(self)
    }

    /// [`MpiOp::operands`], mutably.
    pub fn operands_mut(&mut self) -> Vec<(&'static str, &mut Expr)> {
        named_operands!(self)
    }
}

/// Expressions: 64-bit integer arithmetic plus function references.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Expr {
    /// Integer literal.
    Int(i64),
    /// Variable reference (locals, params, `rank`, `nprocs`, `any`).
    Var(String),
    /// `&foo` — reference to a function, used by indirect calls.
    FuncRef(String),
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnOp,
        /// Operand.
        expr: Box<Expr>,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// Built-in pure function call.
    Builtin {
        /// Which builtin.
        func: BuiltinFn,
        /// Arguments.
        args: Vec<Expr>,
    },
}

impl Expr {
    /// Convenience: binary op constructor.
    pub fn bin(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Binary {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        }
    }

    /// Convenience: variable reference.
    pub fn var(name: &str) -> Expr {
        Expr::Var(name.to_string())
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Logical not (`!x`, 0/1 result).
    Not,
}

/// Binary operators. Comparisons and logical ops yield 0 or 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/` (truncating; division by zero yields zero, keeping the
    /// simulator total)
    Div,
    /// `%` (modulo by zero yields zero)
    Mod,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `&&` (short-circuit)
    And,
    /// `||` (short-circuit)
    Or,
}

impl BinOp {
    /// Source-syntax spelling.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::And => "&&",
            BinOp::Or => "||",
        }
    }
}

/// Pure built-in functions available in expressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BuiltinFn {
    /// Two-argument minimum.
    Min,
    /// Two-argument maximum.
    Max,
    /// Floor of log2; `log2(x) = 0` for `x <= 1`.
    Log2,
    /// Absolute value.
    Abs,
}

impl BuiltinFn {
    /// Source-syntax name.
    pub fn name(self) -> &'static str {
        match self {
            BuiltinFn::Min => "min",
            BuiltinFn::Max => "max",
            BuiltinFn::Log2 => "log2",
            BuiltinFn::Abs => "abs",
        }
    }

    /// Look up a builtin by its source name.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "min" => Some(BuiltinFn::Min),
            "max" => Some(BuiltinFn::Max),
            "log2" => Some(BuiltinFn::Log2),
            "abs" => Some(BuiltinFn::Abs),
            _ => None,
        }
    }

    /// Required argument count.
    pub fn arity(self) -> usize {
        match self {
            BuiltinFn::Min | BuiltinFn::Max => 2,
            BuiltinFn::Log2 | BuiltinFn::Abs => 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::Span;

    fn stmt(id: NodeId, kind: StmtKind) -> Stmt {
        Stmt {
            id,
            span: Span::synthetic("t.mmpi", id),
            kind,
        }
    }

    #[test]
    fn for_each_stmt_visits_nested_bodies() {
        let inner = stmt(
            2,
            StmtKind::Comp(CompAttrs {
                cycles: Expr::Int(1),
                ins: None,
                lst: None,
                l2_miss: None,
                br_miss: None,
            }),
        );
        let body = Block { stmts: vec![inner] };
        let outer = stmt(
            1,
            StmtKind::For {
                var: "i".into(),
                start: Expr::Int(0),
                end: Expr::Int(4),
                body,
            },
        );
        let program = Program {
            file_name: "t.mmpi".into(),
            params: vec![],
            functions: vec![Function {
                name: "main".into(),
                params: vec![],
                body: Block { stmts: vec![outer] },
                span: Span::synthetic("t.mmpi", 1),
            }],
            next_node_id: 3,
            lowered: None,
        };
        let mut seen = vec![];
        program.for_each_stmt(|s| seen.push(s.id));
        assert_eq!(seen, vec![1, 2]);
        assert_eq!(program.stmt_count(), 2);
    }

    #[test]
    fn collective_classification_matches_paper() {
        assert!(MpiOp::Allreduce {
            bytes: Expr::Int(8)
        }
        .is_collective());
        assert!(MpiOp::Barrier.is_collective());
        assert!(!MpiOp::Send {
            dst: Expr::Int(0),
            tag: Expr::Int(0),
            bytes: Expr::Int(1)
        }
        .is_collective());
        assert!(!MpiOp::Wait {
            req: Expr::var("r")
        }
        .is_collective());
    }

    #[test]
    fn nonblocking_ops_do_not_wait() {
        assert!(!MpiOp::Isend {
            dst: Expr::Int(1),
            tag: Expr::Int(0),
            bytes: Expr::Int(8),
            req: "r".into()
        }
        .can_wait());
        assert!(MpiOp::Waitall.can_wait());
    }

    #[test]
    fn builtin_round_trip() {
        for b in [
            BuiltinFn::Min,
            BuiltinFn::Max,
            BuiltinFn::Log2,
            BuiltinFn::Abs,
        ] {
            assert_eq!(BuiltinFn::from_name(b.name()), Some(b));
        }
        assert_eq!(BuiltinFn::from_name("sin"), None);
    }
}
