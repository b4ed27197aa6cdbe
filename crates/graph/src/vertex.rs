//! Vertex model shared by the expanded and contracted PSG.

pub use scalana_lang::ast::MpiKind;
use scalana_lang::ast::NodeId;
use scalana_lang::span::Span;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Index of a vertex within one PSG.
pub type VertexId = u32;

/// Vertex classification, matching the paper's `Root` / `Loop` / `Branch`
/// / `Comp` / MPI taxonomy plus the two runtime-resolved call forms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum VertexKind {
    /// Program entry (one per PSG).
    Root,
    /// A `for`/`while` loop.
    Loop,
    /// An `if`/`else`.
    Branch,
    /// Merged computation (one or more non-MPI statements).
    Comp,
    /// One MPI invocation.
    Mpi(MpiKind),
    /// Unresolved indirect call site; expanded when the runtime reports
    /// the resolved target (paper §III-B3).
    CallSite,
    /// Re-entrant call forming a cycle; payload is the entry vertex of
    /// the active expansion it loops back to.
    RecursiveCall(VertexId),
}

impl VertexKind {
    /// Short label for DOT dumps and reports.
    pub fn label(&self) -> String {
        match self {
            VertexKind::Root => "Root".to_string(),
            VertexKind::Loop => "Loop".to_string(),
            VertexKind::Branch => "Branch".to_string(),
            VertexKind::Comp => "Comp".to_string(),
            VertexKind::Mpi(k) => k.mpi_name().to_string(),
            VertexKind::CallSite => "CallSite".to_string(),
            VertexKind::RecursiveCall(target) => format!("RecursiveCall->{target}"),
        }
    }
}

impl fmt::Display for VertexKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// Ordered children of a vertex. `Branch` keeps its arms separate so the
/// backtracking algorithm can pick an arm end; every other kind has one
/// ordered sequence.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Children {
    /// Execution-ordered child sequence.
    Seq(Vec<VertexId>),
    /// Branch arms.
    Arms {
        /// Vertices of the then-arm.
        then_arm: Vec<VertexId>,
        /// Vertices of the else-arm (empty when there is no `else`).
        else_arm: Vec<VertexId>,
    },
}

impl Children {
    /// Empty sequence.
    pub fn none() -> Children {
        Children::Seq(Vec::new())
    }

    /// All children in order (arms concatenated).
    pub fn all(&self) -> Vec<VertexId> {
        match self {
            Children::Seq(v) => v.clone(),
            Children::Arms { then_arm, else_arm } => {
                let mut v = then_arm.clone();
                v.extend_from_slice(else_arm);
                v
            }
        }
    }

    /// Number of children.
    pub fn len(&self) -> usize {
        match self {
            Children::Seq(v) => v.len(),
            Children::Arms { then_arm, else_arm } => then_arm.len() + else_arm.len(),
        }
    }

    /// True when there are no children.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A PSG vertex: a code snippet plus its structural position.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Vertex {
    /// This vertex's id (index into the PSG vertex table).
    pub id: VertexId,
    /// Classification.
    pub kind: VertexKind,
    /// Source location of the first statement merged into this vertex.
    pub span: Span,
    /// Function the code lives in (after inlining, the *defining*
    /// function, not the caller).
    pub func: String,
    /// AST statements merged into this vertex. A kept `Loop`/`Branch`/
    /// MPI vertex holds exactly its own statement; a contracted `Comp`
    /// holds every statement it absorbed.
    pub stmt_ids: Vec<NodeId>,
    /// Structural parent (`None` only for the root).
    pub parent: Option<VertexId>,
    /// Children in execution order.
    pub children: Children,
    /// Loop-nesting depth (number of enclosing `Loop` vertices).
    pub loop_depth: u32,
}

impl Vertex {
    /// Whether this is an MPI vertex.
    pub fn is_mpi(&self) -> bool {
        matches!(self.kind, VertexKind::Mpi(_))
    }

    /// Whether this is a collective MPI vertex.
    pub fn is_collective(&self) -> bool {
        matches!(self.kind, VertexKind::Mpi(k) if k.is_collective())
    }

    /// `file:line` of the vertex for reports.
    pub fn location(&self) -> String {
        self.span.file_line()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalana_lang::ast::{Expr, MpiOp};

    #[test]
    fn mpi_kind_classification() {
        let op = MpiOp::Allreduce {
            bytes: Expr::Int(8),
        };
        assert_eq!(MpiKind::of(&op), MpiKind::Allreduce);
        assert!(MpiKind::Allreduce.is_collective());
        assert!(!MpiKind::Sendrecv.is_collective());
        assert!(MpiKind::Wait.can_wait());
        assert!(!MpiKind::Irecv.can_wait());
    }

    #[test]
    fn children_all_concatenates_arms() {
        let c = Children::Arms {
            then_arm: vec![1, 2],
            else_arm: vec![3],
        };
        assert_eq!(c.all(), vec![1, 2, 3]);
        assert_eq!(c.len(), 3);
        assert!(!c.is_empty());
        assert!(Children::none().is_empty());
    }

    #[test]
    fn kind_labels() {
        assert_eq!(VertexKind::Mpi(MpiKind::Waitall).label(), "MPI_Waitall");
        assert_eq!(VertexKind::RecursiveCall(7).label(), "RecursiveCall->7");
        assert_eq!(VertexKind::Loop.to_string(), "Loop");
    }
}
