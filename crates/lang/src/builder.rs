//! Programmatic construction of MiniMPI programs.
//!
//! The workload generators in `scalana-apps` synthesize programs whose
//! shape depends on parameters (process-grid factorization, iteration
//! counts, injected pathologies). Building ASTs directly is more robust
//! than string concatenation and lets the generator plant *named source
//! locations* — the case studies reproduce the paper's reports like
//! "LOOP at bval3d.F:155" by tagging the injected root-cause statement
//! with exactly that location via [`BlockBuilder::at`].
//!
//! ```
//! use scalana_lang::builder::*;
//!
//! let mut b = ProgramBuilder::new("ring.mmpi");
//! b.param("N", 1024);
//! b.function("main", &[], |f| {
//!     f.for_("i", int(0), var("N"), |f| {
//!         f.comp(comp_cycles(var("N") * int(10) / var("nprocs")));
//!         f.sendrecv(
//!             (var("rank") + int(1)) % var("nprocs"),
//!             (var("rank") + var("nprocs") - int(1)) % var("nprocs"),
//!             int(0),
//!             int(4096),
//!         );
//!     });
//!     f.allreduce(int(8));
//! });
//! let program = b.finish().unwrap();
//! assert_eq!(program.functions.len(), 1);
//! ```

use crate::ast::*;
use crate::check;
use crate::error::LangResult;
use crate::span::{SourceFile, Span};

// ----- expression helpers -----

/// Integer literal expression.
pub fn int(v: i64) -> Expr {
    Expr::Int(v)
}

/// Variable reference expression.
pub fn var(name: &str) -> Expr {
    Expr::Var(name.to_string())
}

/// The executing rank.
pub fn rank() -> Expr {
    var(VAR_RANK)
}

/// The process count.
pub fn nprocs() -> Expr {
    var(VAR_NPROCS)
}

/// The MPI wildcard.
pub fn any() -> Expr {
    var(VAR_ANY)
}

/// `&name` function reference.
pub fn func_ref(name: &str) -> Expr {
    Expr::FuncRef(name.to_string())
}

/// Two-argument maximum.
pub fn max(a: Expr, b: Expr) -> Expr {
    Expr::Builtin {
        func: BuiltinFn::Max,
        args: vec![a, b],
    }
}

/// Two-argument minimum.
pub fn min(a: Expr, b: Expr) -> Expr {
    Expr::Builtin {
        func: BuiltinFn::Min,
        args: vec![a, b],
    }
}

/// Floor log2 (0 for inputs <= 1).
pub fn log2(a: Expr) -> Expr {
    Expr::Builtin {
        func: BuiltinFn::Log2,
        args: vec![a],
    }
}

/// Absolute value.
pub fn abs(a: Expr) -> Expr {
    Expr::Builtin {
        func: BuiltinFn::Abs,
        args: vec![a],
    }
}

/// Comparison: `a == b`.
pub fn eq(a: Expr, b: Expr) -> Expr {
    Expr::bin(BinOp::Eq, a, b)
}

/// Comparison: `a != b`.
pub fn ne(a: Expr, b: Expr) -> Expr {
    Expr::bin(BinOp::Ne, a, b)
}

/// Comparison: `a < b`.
pub fn lt(a: Expr, b: Expr) -> Expr {
    Expr::bin(BinOp::Lt, a, b)
}

/// Comparison: `a <= b`.
pub fn le(a: Expr, b: Expr) -> Expr {
    Expr::bin(BinOp::Le, a, b)
}

/// Comparison: `a > b`.
pub fn gt(a: Expr, b: Expr) -> Expr {
    Expr::bin(BinOp::Gt, a, b)
}

/// Comparison: `a >= b`.
pub fn ge(a: Expr, b: Expr) -> Expr {
    Expr::bin(BinOp::Ge, a, b)
}

/// Logical and.
pub fn and(a: Expr, b: Expr) -> Expr {
    Expr::bin(BinOp::And, a, b)
}

/// Logical or.
pub fn or(a: Expr, b: Expr) -> Expr {
    Expr::bin(BinOp::Or, a, b)
}

impl std::ops::Add for Expr {
    type Output = Expr;
    fn add(self, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Add, self, rhs)
    }
}

impl std::ops::Sub for Expr {
    type Output = Expr;
    fn sub(self, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Sub, self, rhs)
    }
}

impl std::ops::Mul for Expr {
    type Output = Expr;
    fn mul(self, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Mul, self, rhs)
    }
}

impl std::ops::Div for Expr {
    type Output = Expr;
    fn div(self, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Div, self, rhs)
    }
}

impl std::ops::Rem for Expr {
    type Output = Expr;
    fn rem(self, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Mod, self, rhs)
    }
}

impl std::ops::Neg for Expr {
    type Output = Expr;
    fn neg(self) -> Expr {
        Expr::Unary {
            op: UnOp::Neg,
            expr: Box::new(self),
        }
    }
}

// ----- comp attribute spec -----

/// Fluent specification of a `comp` block's cost/PMU attributes.
#[derive(Debug, Clone)]
pub struct CompSpec {
    attrs: CompAttrs,
}

/// Start a comp spec from its (required) cycle cost.
pub fn comp_cycles(cycles: Expr) -> CompSpec {
    CompSpec {
        attrs: CompAttrs {
            cycles,
            ins: None,
            lst: None,
            l2_miss: None,
            br_miss: None,
        },
    }
}

impl CompSpec {
    /// Set instructions retired.
    pub fn ins(mut self, e: Expr) -> Self {
        self.attrs.ins = Some(e);
        self
    }

    /// Set load/store instruction count.
    pub fn lst(mut self, e: Expr) -> Self {
        self.attrs.lst = Some(e);
        self
    }

    /// Set L2 miss count.
    pub fn miss(mut self, e: Expr) -> Self {
        self.attrs.l2_miss = Some(e);
        self
    }

    /// Set branch mispredictions.
    pub fn brmiss(mut self, e: Expr) -> Self {
        self.attrs.br_miss = Some(e);
        self
    }
}

// ----- builders -----

/// Shared id/location generator for one program build.
struct Gen {
    next_id: NodeId,
    default_file: SourceFile,
    next_line: u32,
    /// One-shot override planted by [`BlockBuilder::at`].
    pending_loc: Option<(SourceFile, u32)>,
}

impl Gen {
    fn next_span(&mut self) -> Span {
        if let Some((file, line)) = self.pending_loc.take() {
            return Span::new(file, line, 0);
        }
        let line = self.next_line;
        self.next_line += 1;
        Span::new(self.default_file.clone(), line, 0)
    }

    fn next_stmt(&mut self, kind: StmtKind) -> Stmt {
        let id = self.next_id;
        self.next_id += 1;
        Stmt {
            id,
            span: self.next_span(),
            kind,
        }
    }
}

/// Top-level builder: declares params and functions, then [`finish`]es
/// into a checked [`Program`].
///
/// [`finish`]: ProgramBuilder::finish
pub struct ProgramBuilder {
    file_name: String,
    params: Vec<ParamDecl>,
    functions: Vec<Function>,
    generator: Gen,
}

impl ProgramBuilder {
    /// Start a program associated with `file_name` (used for spans).
    pub fn new(file_name: &str) -> Self {
        ProgramBuilder {
            file_name: file_name.to_string(),
            params: Vec::new(),
            functions: Vec::new(),
            generator: Gen {
                next_id: 0,
                default_file: SourceFile::new(file_name),
                next_line: 1,
                pending_loc: None,
            },
        }
    }

    /// Declare a tunable parameter with its default.
    pub fn param(&mut self, name: &str, default: i64) -> &mut Self {
        let span = Span::new(
            self.generator.default_file.clone(),
            self.generator.next_line,
            0,
        );
        self.generator.next_line += 1;
        self.params.push(ParamDecl {
            name: name.to_string(),
            default,
            span,
        });
        self
    }

    /// Define a function; the closure populates its body.
    pub fn function(
        &mut self,
        name: &str,
        params: &[&str],
        build: impl FnOnce(&mut BlockBuilder<'_>),
    ) -> &mut Self {
        let span = Span::new(
            self.generator.default_file.clone(),
            self.generator.next_line,
            0,
        );
        self.generator.next_line += 1;
        let mut block = BlockBuilder {
            generator: &mut self.generator,
            stmts: Vec::new(),
        };
        build(&mut block);
        let body = Block { stmts: block.stmts };
        self.functions.push(Function {
            name: name.to_string(),
            params: params.iter().map(|p| (*p).to_string()).collect(),
            body,
            span,
        });
        self
    }

    /// Finish the build and run semantic checks.
    pub fn finish(self) -> LangResult<Program> {
        let mut program = Program {
            file_name: self.file_name,
            params: self.params,
            functions: self.functions,
            next_node_id: self.generator.next_id,
            lowered: None,
        };
        check::check_program(&mut program)?;
        Ok(program)
    }
}

/// Builds one statement block; nested blocks recurse through closures.
pub struct BlockBuilder<'a> {
    generator: &'a mut Gen,
    stmts: Vec<Stmt>,
}

impl<'a> BlockBuilder<'a> {
    fn push(&mut self, kind: StmtKind) {
        let stmt = self.generator.next_stmt(kind);
        self.stmts.push(stmt);
    }

    fn child(&mut self, build: impl FnOnce(&mut BlockBuilder<'_>)) -> Block {
        let mut block = BlockBuilder {
            generator: self.generator,
            stmts: Vec::new(),
        };
        build(&mut block);
        Block { stmts: block.stmts }
    }

    /// Override the source location of the *next* statement. Lets
    /// generators plant paper-style locations like `bval3d.F:155`.
    pub fn at(&mut self, file: &str, line: u32) -> &mut Self {
        self.generator.pending_loc = Some((SourceFile::new(file), line));
        self
    }

    /// `let name = value;`
    pub fn let_(&mut self, name: &str, value: Expr) {
        self.push(StmtKind::Let {
            name: name.to_string(),
            value,
        });
    }

    /// `name = value;`
    pub fn assign(&mut self, name: &str, value: Expr) {
        self.push(StmtKind::Assign {
            name: name.to_string(),
            value,
        });
    }

    /// `for var in start .. end { .. }`
    pub fn for_(
        &mut self,
        var: &str,
        start: Expr,
        end: Expr,
        build: impl FnOnce(&mut BlockBuilder<'_>),
    ) {
        // Reserve the loop statement's span before building the body so
        // line numbers read top-down.
        let span = self.generator.next_span();
        let id = self.generator.next_id;
        self.generator.next_id += 1;
        let body = self.child(build);
        self.stmts.push(Stmt {
            id,
            span,
            kind: StmtKind::For {
                var: var.to_string(),
                start,
                end,
                body,
            },
        });
    }

    /// `while cond { .. }`
    pub fn while_(&mut self, cond: Expr, build: impl FnOnce(&mut BlockBuilder<'_>)) {
        let span = self.generator.next_span();
        let id = self.generator.next_id;
        self.generator.next_id += 1;
        let body = self.child(build);
        self.stmts.push(Stmt {
            id,
            span,
            kind: StmtKind::While { cond, body },
        });
    }

    /// `if cond { .. }`
    pub fn if_(&mut self, cond: Expr, build_then: impl FnOnce(&mut BlockBuilder<'_>)) {
        let span = self.generator.next_span();
        let id = self.generator.next_id;
        self.generator.next_id += 1;
        let then_block = self.child(build_then);
        self.stmts.push(Stmt {
            id,
            span,
            kind: StmtKind::If {
                cond,
                then_block,
                else_block: None,
            },
        });
    }

    /// `if cond { .. } else { .. }`
    pub fn if_else(
        &mut self,
        cond: Expr,
        build_then: impl FnOnce(&mut BlockBuilder<'_>),
        build_else: impl FnOnce(&mut BlockBuilder<'_>),
    ) {
        let span = self.generator.next_span();
        let id = self.generator.next_id;
        self.generator.next_id += 1;
        let then_block = self.child(build_then);
        let else_block = Some(self.child(build_else));
        self.stmts.push(Stmt {
            id,
            span,
            kind: StmtKind::If {
                cond,
                then_block,
                else_block,
            },
        });
    }

    /// `callee(args..);`
    pub fn call(&mut self, callee: &str, args: Vec<Expr>) {
        self.push(StmtKind::Call {
            callee: callee.to_string(),
            args,
        });
    }

    /// `call target(args..);`
    pub fn call_indirect(&mut self, target: Expr, args: Vec<Expr>) {
        self.push(StmtKind::CallIndirect { target, args });
    }

    /// `comp(..);` from a [`CompSpec`].
    pub fn comp(&mut self, spec: CompSpec) {
        self.push(StmtKind::Comp(spec.attrs));
    }

    /// Shorthand: `comp(cycles = e);`
    pub fn comp_cycles(&mut self, cycles: Expr) {
        self.comp(comp_cycles(cycles));
    }

    /// `send(dst, tag, bytes);`
    pub fn send(&mut self, dst: Expr, tag: Expr, bytes: Expr) {
        self.push(StmtKind::Mpi(MpiOp::Send { dst, tag, bytes }));
    }

    /// `recv(src, tag);`
    pub fn recv(&mut self, src: Expr, tag: Expr) {
        self.push(StmtKind::Mpi(MpiOp::Recv { src, tag }));
    }

    /// `sendrecv(dst, src, tag, bytes);` (same tag both ways)
    pub fn sendrecv(&mut self, dst: Expr, src: Expr, tag: Expr, bytes: Expr) {
        self.push(StmtKind::Mpi(MpiOp::Sendrecv {
            dst,
            sendtag: tag.clone(),
            src,
            recvtag: tag,
            bytes,
        }));
    }

    /// `let req = isend(dst, tag, bytes);`
    pub fn isend(&mut self, req: &str, dst: Expr, tag: Expr, bytes: Expr) {
        self.push(StmtKind::Mpi(MpiOp::Isend {
            dst,
            tag,
            bytes,
            req: req.to_string(),
        }));
    }

    /// `let req = irecv(src, tag);`
    pub fn irecv(&mut self, req: &str, src: Expr, tag: Expr) {
        self.push(StmtKind::Mpi(MpiOp::Irecv {
            src,
            tag,
            req: req.to_string(),
        }));
    }

    /// `wait(req);`
    pub fn wait(&mut self, req: Expr) {
        self.push(StmtKind::Mpi(MpiOp::Wait { req }));
    }

    /// `waitall();`
    pub fn waitall(&mut self) {
        self.push(StmtKind::Mpi(MpiOp::Waitall));
    }

    /// `barrier();`
    pub fn barrier(&mut self) {
        self.push(StmtKind::Mpi(MpiOp::Barrier));
    }

    /// `bcast(root, bytes);`
    pub fn bcast(&mut self, root: Expr, bytes: Expr) {
        self.push(StmtKind::Mpi(MpiOp::Bcast { root, bytes }));
    }

    /// `reduce(root, bytes);`
    pub fn reduce(&mut self, root: Expr, bytes: Expr) {
        self.push(StmtKind::Mpi(MpiOp::Reduce { root, bytes }));
    }

    /// `allreduce(bytes);`
    pub fn allreduce(&mut self, bytes: Expr) {
        self.push(StmtKind::Mpi(MpiOp::Allreduce { bytes }));
    }

    /// `alltoall(bytes);`
    pub fn alltoall(&mut self, bytes: Expr) {
        self.push(StmtKind::Mpi(MpiOp::Alltoall { bytes }));
    }

    /// `allgather(bytes);`
    pub fn allgather(&mut self, bytes: Expr) {
        self.push(StmtKind::Mpi(MpiOp::Allgather { bytes }));
    }

    /// `return;`
    pub fn ret(&mut self) {
        self.push(StmtKind::Return);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pretty;

    #[test]
    fn builds_checked_program() {
        let mut b = ProgramBuilder::new("built.mmpi");
        b.param("N", 256);
        b.function("main", &[], |f| {
            f.let_("half", var("N") / int(2));
            f.for_("i", int(0), var("half"), |f| {
                f.comp(comp_cycles(var("i") + rank()).ins(var("i") * int(2)));
            });
            f.if_else(
                eq(rank() % int(2), int(0)),
                |f| f.send(rank() + int(1), int(0), int(1024)),
                |f| f.recv(rank() - int(1), int(0)),
            );
            f.call("helper", vec![var("half")]);
            f.allreduce(int(8));
        });
        b.function("helper", &["n"], |f| {
            f.barrier();
            f.comp_cycles(var("n"));
        });
        let program = b.finish().unwrap();
        assert_eq!(program.functions.len(), 2);
        // Built program also survives the pretty-print round trip.
        let printed = pretty::print_program(&program);
        let reparsed = crate::parse_program("built.mmpi", &printed).unwrap();
        assert_eq!(
            pretty::normalize_spans(&program),
            pretty::normalize_spans(&reparsed)
        );
    }

    #[test]
    fn builder_rejects_semantic_errors() {
        let mut b = ProgramBuilder::new("bad.mmpi");
        b.function("main", &[], |f| {
            f.let_("x", var("undefined_thing"));
        });
        assert!(b.finish().is_err());
    }

    #[test]
    fn at_plants_custom_location() {
        let mut b = ProgramBuilder::new("zeus.mmpi");
        b.function("main", &[], |f| {
            f.at("bval3d.F", 155);
            f.for_("j", int(0), int(8), |f| {
                f.comp_cycles(int(100));
            });
            f.allreduce(int(8));
        });
        let program = b.finish().unwrap();
        let loop_stmt = &program.main().body.stmts[0];
        assert_eq!(loop_stmt.span.file_line(), "bval3d.F:155");
        // The next statement falls back to auto-generated locations.
        let next = &program.main().body.stmts[1];
        assert_eq!(next.span.file.name.as_ref(), "zeus.mmpi");
    }

    #[test]
    fn node_ids_are_dense_and_ordered() {
        let mut b = ProgramBuilder::new("ids.mmpi");
        b.function("main", &[], |f| {
            f.for_("i", int(0), int(3), |f| {
                f.comp_cycles(int(1));
                f.barrier();
            });
            f.ret();
        });
        let program = b.finish().unwrap();
        let mut ids = vec![];
        program.for_each_stmt(|s| ids.push(s.id));
        assert_eq!(ids, vec![0, 1, 2, 3]);
        assert_eq!(program.next_node_id, 4);
    }

    #[test]
    fn expression_operators_compose() {
        let e = (rank() + int(1)) % nprocs() * int(4) - int(1);
        // ((((rank + 1) % nprocs) * 4) - 1)
        assert_eq!(pretty::expr(&e), "((((rank + 1) % nprocs) * 4) - 1)");
    }

    #[test]
    fn while_and_indirect_call_build() {
        let mut b = ProgramBuilder::new("w.mmpi");
        b.function("main", &[], |f| {
            f.let_("x", int(8));
            f.while_(gt(var("x"), int(0)), |f| {
                f.assign("x", var("x") / int(2));
            });
            f.let_("fp", func_ref("leaf"));
            f.call_indirect(var("fp"), vec![int(1)]);
        });
        b.function("leaf", &["n"], |f| {
            f.comp_cycles(var("n"));
        });
        assert!(b.finish().is_ok());
    }
}
