//! # scalana-lang — the MiniMPI language front-end
//!
//! ScalAna's static-analysis stage (paper §III-A) walks LLVM IR produced
//! from C/Fortran sources. This reproduction substitutes a self-contained
//! parallel-program mini-language, **MiniMPI**, that preserves exactly the
//! constructs the analysis consumes: functions, loops, branches, direct and
//! indirect calls, computation blocks with cost/PMU attributes, and the MPI
//! operations the paper intercepts via PMPI.
//!
//! The crate provides:
//! - a lexer ([`lexer`]) and recursive-descent parser ([`parser`]) with
//!   source locations on every statement (root-cause reports point at
//!   `file:line`, as the paper's GUI does),
//! - a typed AST ([`ast`]) in which every statement carries a stable
//!   [`ast::NodeId`] used to key Program Structure Graph vertices and
//!   runtime performance attribution,
//! - semantic checking ([`check`]) and lowering ([`lower`]): one scope
//!   walk per program checks every name and arity and produces the
//!   slot-resolved form the simulator runs, stored on the checked
//!   [`Program`] ([`Program::lowered`]),
//! - a pretty-printer ([`pretty`]) whose output re-parses to the same AST,
//! - a programmatic [`builder`] used by the workload generators in
//!   `scalana-apps`.
//!
//! ## Quick example
//!
//! ```
//! use scalana_lang::parse_program;
//!
//! let src = r#"
//! fn main() {
//!     for i in 0 .. 8 {
//!         comp(cycles = 1000, ins = 800);
//!     }
//!     if rank % 2 == 0 {
//!         send(dst = rank + 1, tag = 0, bytes = 1024);
//!     } else {
//!         recv(src = rank - 1, tag = 0);
//!     }
//!     allreduce(bytes = 8);
//! }
//! "#;
//! let program = parse_program("example.mmpi", src).unwrap();
//! assert_eq!(program.functions.len(), 1);
//! ```

pub mod ast;
pub mod builder;
pub mod check;
pub mod error;
pub mod lexer;
pub mod lower;
pub mod parser;
pub mod pretty;
pub mod span;
pub mod token;

pub use ast::{Expr, Function, MpiOp, NodeId, Program, Stmt};
pub use builder::ProgramBuilder;
pub use error::{LangError, LangResult};
pub use span::{SourceFile, Span};

/// Parse, semantically check and lower a MiniMPI program in one step.
///
/// `file_name` is recorded into every [`Span`] so that downstream
/// root-cause reports can print `file:line` locations.
pub fn parse_program(file_name: &str, source: &str) -> LangResult<Program> {
    let tokens = lexer::lex(file_name, source)?;
    let mut program = parser::parse(file_name, source, tokens)?;
    check::check_program(&mut program)?;
    Ok(program)
}
