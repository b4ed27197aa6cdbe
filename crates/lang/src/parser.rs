//! Recursive-descent parser for MiniMPI.
//!
//! Grammar sketch (see the crate docs for an example program):
//!
//! ```text
//! program   := (param | function)*
//! param     := "param" IDENT "=" ["-"] INT ";"
//! function  := "fn" IDENT "(" [IDENT ("," IDENT)*] ")" block
//! block     := "{" stmt* "}"
//! stmt      := "let" IDENT "=" (intrinsic | expr) ";"
//!            | "for" IDENT "in" expr ".." expr block
//!            | "while" expr block
//!            | "if" expr block ("else" (if-stmt | block))?
//!            | "return" ";"
//!            | "call" primary "(" args ")" ";"
//!            | IDENT "=" expr ";"
//!            | IDENT "(" args ")" ";"        // direct call or intrinsic
//! ```
//!
//! MPI operations and `comp` are *intrinsics*: call-statement syntax with
//! named arguments (`send(dst = rank + 1, tag = 0, bytes = 4k)`). The
//! non-blocking `isend`/`irecv` intrinsics appear as the right-hand side of
//! a `let`, binding the request variable consumed by `wait`.

use crate::ast::*;
use crate::error::{LangError, LangResult};
use crate::span::Span;
use crate::token::{Token, TokenKind};

/// Deepest combined block and expression nesting the parser accepts.
/// The parser and every later walk over the tree recurse once per
/// level, so without a bound a source of ~10k `(`s (a 20 KB request
/// body) overflows a worker thread's stack, and a stack overflow aborts
/// the whole process. Each binary operator in a chain counts as one
/// level, since `a + b + c` nests to the left. No program of the
/// paper's comes close to this depth. An unoptimised build spends up to
/// about 6.5 KB of stack per nested block while parsing, so 256 blocks
/// still fit a thread's default 2 MiB.
pub const MAX_DEPTH: u32 = 256;

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    next_id: NodeId,
    file_name: String,
    depth: u32,
}

/// Parse a token stream into a [`Program`]. Does not run semantic checks;
/// use [`crate::parse_program`] for the full pipeline.
pub fn parse(file_name: &str, _source: &str, tokens: Vec<Token>) -> LangResult<Program> {
    let mut parser = Parser {
        tokens,
        pos: 0,
        next_id: 0,
        file_name: file_name.to_string(),
        depth: 0,
    };
    parser.program()
}

/// One argument at a call site: optionally named.
struct Arg {
    name: Option<String>,
    value: Expr,
    span: Span,
}

impl Parser {
    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn peek2(&self) -> &TokenKind {
        let idx = (self.pos + 1).min(self.tokens.len() - 1);
        &self.tokens[idx].kind
    }

    fn span(&self) -> Span {
        self.tokens[self.pos].span.clone()
    }

    fn bump(&mut self) -> Token {
        let tok = self.tokens[self.pos].clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        tok
    }

    fn expect(&mut self, kind: &TokenKind) -> LangResult<Token> {
        if self.peek() == kind {
            Ok(self.bump())
        } else {
            Err(LangError::parse(
                format!("expected {kind}, found {}", self.peek()),
                self.span(),
            ))
        }
    }

    fn expect_ident(&mut self) -> LangResult<(String, Span)> {
        let span = self.span();
        match self.peek().clone() {
            TokenKind::Ident(name) => {
                self.bump();
                Ok((name, span))
            }
            other => Err(LangError::parse(
                format!("expected identifier, found {other}"),
                span,
            )),
        }
    }

    /// Parse one nesting level deeper, or fail at the current token once
    /// past [`MAX_DEPTH`].
    fn nested<T>(&mut self, parse: impl FnOnce(&mut Self) -> LangResult<T>) -> LangResult<T> {
        self.enter()?;
        let result = parse(self);
        self.depth -= 1;
        result
    }

    fn enter(&mut self) -> LangResult<()> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(LangError::parse(
                format!("nesting deeper than {MAX_DEPTH}"),
                self.span(),
            ));
        }
        Ok(())
    }

    fn fresh_id(&mut self) -> NodeId {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    fn program(&mut self) -> LangResult<Program> {
        let mut params = Vec::new();
        let mut functions = Vec::new();
        loop {
            match self.peek() {
                TokenKind::Eof => break,
                TokenKind::KwParam => params.push(self.param_decl()?),
                TokenKind::KwFn => functions.push(self.function()?),
                other => {
                    return Err(LangError::parse(
                        format!("expected `fn` or `param` at top level, found {other}"),
                        self.span(),
                    ));
                }
            }
        }
        Ok(Program {
            file_name: self.file_name.clone(),
            params,
            functions,
            next_node_id: self.next_id,
            lowered: None,
        })
    }

    fn param_decl(&mut self) -> LangResult<ParamDecl> {
        let span = self.span();
        self.expect(&TokenKind::KwParam)?;
        let (name, _) = self.expect_ident()?;
        self.expect(&TokenKind::Assign)?;
        let negative = if *self.peek() == TokenKind::Minus {
            self.bump();
            true
        } else {
            false
        };
        let value_span = self.span();
        let default = match self.peek().clone() {
            TokenKind::Int(v) => {
                self.bump();
                if negative {
                    -v
                } else {
                    v
                }
            }
            other => {
                return Err(LangError::parse(
                    format!("param default must be an integer literal, found {other}"),
                    value_span,
                ));
            }
        };
        self.expect(&TokenKind::Semi)?;
        Ok(ParamDecl {
            name,
            default,
            span,
        })
    }

    fn function(&mut self) -> LangResult<Function> {
        let span = self.span();
        self.expect(&TokenKind::KwFn)?;
        let (name, _) = self.expect_ident()?;
        self.expect(&TokenKind::LParen)?;
        let mut params = Vec::new();
        if *self.peek() != TokenKind::RParen {
            loop {
                let (p, _) = self.expect_ident()?;
                params.push(p);
                if *self.peek() == TokenKind::Comma {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        self.expect(&TokenKind::RParen)?;
        let body = self.block()?;
        Ok(Function {
            name,
            params,
            body,
            span,
        })
    }

    /// Enters a nesting level without [`Parser::nested`]: blocks recurse
    /// through the largest frames, and a closure call would add two.
    fn block(&mut self) -> LangResult<Block> {
        self.expect(&TokenKind::LBrace)?;
        self.enter()?;
        let mut stmts = Vec::new();
        while *self.peek() != TokenKind::RBrace {
            if *self.peek() == TokenKind::Eof {
                return Err(LangError::parse(
                    "unexpected end of input in block",
                    self.span(),
                ));
            }
            stmts.push(self.stmt()?);
        }
        self.depth -= 1;
        self.expect(&TokenKind::RBrace)?;
        Ok(Block { stmts })
    }

    fn stmt(&mut self) -> LangResult<Stmt> {
        let span = self.span();
        let id = self.fresh_id();
        let kind = match self.peek() {
            TokenKind::KwLet => self.let_stmt(),
            TokenKind::KwFor => self.for_stmt(),
            TokenKind::KwWhile => self.while_stmt(),
            TokenKind::KwIf => self.if_stmt(),
            TokenKind::KwReturn => self.return_stmt(),
            TokenKind::KwCall => self.call_indirect_stmt(),
            TokenKind::Ident(name) => self.ident_stmt(name.clone()),
            other => Err(LangError::parse(
                format!("expected statement, found {other}"),
                span.clone(),
            )),
        }?;
        Ok(Stmt { id, span, kind })
    }

    fn return_stmt(&mut self) -> LangResult<StmtKind> {
        self.bump();
        self.expect(&TokenKind::Semi)?;
        Ok(StmtKind::Return)
    }

    fn let_stmt(&mut self) -> LangResult<StmtKind> {
        self.expect(&TokenKind::KwLet)?;
        let (name, _) = self.expect_ident()?;
        self.expect(&TokenKind::Assign)?;
        // `let r = isend(..)` / `let r = irecv(..)` bind request variables.
        if let TokenKind::Ident(callee) = self.peek().clone() {
            if (callee == "isend" || callee == "irecv") && *self.peek2() == TokenKind::LParen {
                let call_span = self.span();
                self.bump();
                let args = self.arg_list()?;
                self.expect(&TokenKind::Semi)?;
                let op = build_nonblocking(&callee, name, args, &call_span)?;
                return Ok(StmtKind::Mpi(op));
            }
        }
        let value = self.expr()?;
        self.expect(&TokenKind::Semi)?;
        Ok(StmtKind::Let { name, value })
    }

    fn for_stmt(&mut self) -> LangResult<StmtKind> {
        self.expect(&TokenKind::KwFor)?;
        let (var, _) = self.expect_ident()?;
        self.expect(&TokenKind::KwIn)?;
        let start = self.expr()?;
        self.expect(&TokenKind::DotDot)?;
        let end = self.expr()?;
        let body = self.block()?;
        Ok(StmtKind::For {
            var,
            start,
            end,
            body,
        })
    }

    fn while_stmt(&mut self) -> LangResult<StmtKind> {
        self.expect(&TokenKind::KwWhile)?;
        let cond = self.expr()?;
        let body = self.block()?;
        Ok(StmtKind::While { cond, body })
    }

    fn if_stmt(&mut self) -> LangResult<StmtKind> {
        self.expect(&TokenKind::KwIf)?;
        let cond = self.expr()?;
        let then_block = self.block()?;
        let else_block = if *self.peek() == TokenKind::KwElse {
            self.bump();
            if *self.peek() == TokenKind::KwIf {
                // `else if` desugars to an else block with one if-stmt.
                let span = self.span();
                let id = self.fresh_id();
                let kind = self.nested(Self::if_stmt)?;
                Some(Block {
                    stmts: vec![Stmt { id, span, kind }],
                })
            } else {
                Some(self.block()?)
            }
        } else {
            None
        };
        Ok(StmtKind::If {
            cond,
            then_block,
            else_block,
        })
    }

    fn call_indirect_stmt(&mut self) -> LangResult<StmtKind> {
        self.expect(&TokenKind::KwCall)?;
        // The target must be parsed without consuming the argument list's
        // `(`, so a bare identifier is taken as a variable here (unlike in
        // `primary`, where `ident(` means a builtin call).
        let target = match self.peek().clone() {
            TokenKind::Ident(name) => {
                self.bump();
                Expr::Var(name)
            }
            TokenKind::Amp => {
                self.bump();
                let (name, _) = self.expect_ident()?;
                Expr::FuncRef(name)
            }
            TokenKind::LParen => {
                self.bump();
                let e = self.expr()?;
                self.expect(&TokenKind::RParen)?;
                e
            }
            other => {
                return Err(LangError::parse(
                    format!("expected indirect-call target, found {other}"),
                    self.span(),
                ));
            }
        };
        let args = self.list(Self::expr)?;
        self.expect(&TokenKind::Semi)?;
        Ok(StmtKind::CallIndirect { target, args })
    }

    /// Statement beginning with an identifier: assignment, intrinsic, or
    /// direct call.
    fn ident_stmt(&mut self, name: String) -> LangResult<StmtKind> {
        if *self.peek2() == TokenKind::Assign {
            self.bump(); // ident
            self.bump(); // `=`
            let value = self.expr()?;
            self.expect(&TokenKind::Semi)?;
            return Ok(StmtKind::Assign { name, value });
        }
        if *self.peek2() != TokenKind::LParen {
            return Err(LangError::parse(
                format!("expected `=` or `(` after `{name}`"),
                self.span(),
            ));
        }
        let call_span = self.span();
        self.bump(); // ident
        let args = self.arg_list()?;
        self.expect(&TokenKind::Semi)?;
        if let Some(kind) = build_intrinsic(&name, &args, &call_span)? {
            return Ok(kind);
        }
        // Direct call to a user function: arguments must be positional.
        let mut positional = Vec::with_capacity(args.len());
        for arg in args {
            if let Some(arg_name) = arg.name {
                return Err(LangError::parse(
                    format!("named argument `{arg_name}` not allowed in call to `{name}`"),
                    arg.span,
                ));
            }
            positional.push(arg.value);
        }
        Ok(StmtKind::Call {
            callee: name,
            args: positional,
        })
    }

    fn arg_list(&mut self) -> LangResult<Vec<Arg>> {
        self.list(|p| {
            let span = p.span();
            // Named argument: IDENT `=` expr (but not `==`).
            let name = match p.peek().clone() {
                TokenKind::Ident(n) if *p.peek2() == TokenKind::Assign => {
                    p.bump();
                    p.bump();
                    Some(n)
                }
                _ => None,
            };
            let value = p.expr()?;
            Ok(Arg { name, value, span })
        })
    }

    /// `( [item ("," item)*] )`.
    fn list<T>(&mut self, mut item: impl FnMut(&mut Self) -> LangResult<T>) -> LangResult<Vec<T>> {
        self.expect(&TokenKind::LParen)?;
        let mut items = Vec::new();
        if *self.peek() != TokenKind::RParen {
            items.push(item(self)?);
            while *self.peek() == TokenKind::Comma {
                self.bump();
                items.push(item(self)?);
            }
        }
        self.expect(&TokenKind::RParen)?;
        Ok(items)
    }

    // ----- expressions (precedence climbing) -----

    fn expr(&mut self) -> LangResult<Expr> {
        self.binary(0)
    }

    /// A left-associative chain of operators binding at least as tightly
    /// as `min` (see [`binary_op`]). A comparison takes neither a
    /// comparison nor a `&&`/`||` as its left operand. Each operator of a
    /// chain counts as one nesting level, since `a + b + c` nests to the
    /// left.
    fn binary(&mut self, min: u8) -> LangResult<Expr> {
        let depth = self.depth;
        let mut lhs = self.unary_expr()?;
        let mut loosest = u8::MAX;
        while let Some((op, prec)) = binary_op(self.peek()) {
            if prec < min || (prec == CMP && loosest <= CMP) {
                break;
            }
            self.bump();
            self.enter()?;
            let rhs = self.binary(prec + 1)?;
            lhs = Expr::bin(op, lhs, rhs);
            loosest = prec;
        }
        self.depth = depth;
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> LangResult<Expr> {
        let op = match self.peek() {
            TokenKind::Minus => UnOp::Neg,
            TokenKind::Bang => UnOp::Not,
            _ => return self.primary(),
        };
        self.bump();
        let expr = Box::new(self.nested(Self::unary_expr)?);
        Ok(Expr::Unary { op, expr })
    }

    fn primary(&mut self) -> LangResult<Expr> {
        let span = self.span();
        let expr = match self.bump().kind {
            TokenKind::Int(v) => Expr::Int(v),
            TokenKind::Amp => Expr::FuncRef(self.expect_ident()?.0),
            TokenKind::LParen => {
                let e = self.nested(Self::expr)?;
                self.expect(&TokenKind::RParen)?;
                e
            }
            TokenKind::Ident(name) if *self.peek() == TokenKind::LParen => {
                self.builtin(&name, span)?
            }
            TokenKind::Ident(name) => Expr::Var(name),
            other => {
                return Err(LangError::parse(
                    format!("expected expression, found {other}"),
                    span,
                ))
            }
        };
        Ok(expr)
    }

    /// A builtin call `name(args)`, at the `(`.
    fn builtin(&mut self, name: &str, span: Span) -> LangResult<Expr> {
        let func = BuiltinFn::from_name(name).ok_or_else(|| {
            LangError::parse(
                format!(
                    "unknown builtin `{name}` in expression (user functions \
                         cannot be called in expressions)"
                ),
                span.clone(),
            )
        })?;
        let args = self.list(|p| p.nested(Self::expr))?;
        if args.len() != func.arity() {
            return Err(LangError::parse(
                format!(
                    "builtin `{}` takes {} argument(s), got {}",
                    func.name(),
                    func.arity(),
                    args.len()
                ),
                span,
            ));
        }
        Ok(Expr::Builtin { func, args })
    }
}

/// Precedence of the comparison operators.
const CMP: u8 = 2;

/// A binary operator token's operator and precedence, loosest first:
/// `||`, `&&`, comparisons, `+ -`, `* / %`.
fn binary_op(kind: &TokenKind) -> Option<(BinOp, u8)> {
    Some(match kind {
        TokenKind::OrOr => (BinOp::Or, 0),
        TokenKind::AndAnd => (BinOp::And, 1),
        TokenKind::Lt => (BinOp::Lt, CMP),
        TokenKind::Le => (BinOp::Le, CMP),
        TokenKind::Gt => (BinOp::Gt, CMP),
        TokenKind::Ge => (BinOp::Ge, CMP),
        TokenKind::EqEq => (BinOp::Eq, CMP),
        TokenKind::NotEq => (BinOp::Ne, CMP),
        TokenKind::Plus => (BinOp::Add, 3),
        TokenKind::Minus => (BinOp::Sub, 3),
        TokenKind::Star => (BinOp::Mul, 4),
        TokenKind::Slash => (BinOp::Div, 4),
        TokenKind::Percent => (BinOp::Mod, 4),
        _ => return None,
    })
}

// ----- intrinsic construction -----

fn find_arg(args: &[Arg], name: &str) -> Option<Expr> {
    args.iter()
        .find(|a| a.name.as_deref() == Some(name))
        .map(|a| a.value.clone())
}

fn required(args: &[Arg], name: &str, intrinsic: &str, span: &Span) -> LangResult<Expr> {
    find_arg(args, name).ok_or_else(|| {
        LangError::parse(
            format!("intrinsic `{intrinsic}` requires argument `{name}`"),
            span.clone(),
        )
    })
}

fn optional(args: &[Arg], name: &str, default: i64) -> Expr {
    find_arg(args, name).unwrap_or(Expr::Int(default))
}

fn validate_names(
    args: &[Arg],
    allowed: &[&str],
    intrinsic: &str,
    span: &Span,
    allow_positional: bool,
) -> LangResult<()> {
    for arg in args {
        match &arg.name {
            Some(name) if !allowed.contains(&name.as_str()) => {
                return Err(LangError::parse(
                    format!("intrinsic `{intrinsic}` has no argument `{name}`"),
                    span.clone(),
                ));
            }
            None if !allow_positional => {
                return Err(LangError::parse(
                    format!("intrinsic `{intrinsic}` requires named arguments"),
                    span.clone(),
                ));
            }
            _ => {}
        }
    }
    Ok(())
}

fn build_nonblocking(callee: &str, req: String, args: Vec<Arg>, span: &Span) -> LangResult<MpiOp> {
    match callee {
        "isend" => {
            validate_names(&args, &["dst", "tag", "bytes"], "isend", span, false)?;
            Ok(MpiOp::Isend {
                dst: required(&args, "dst", "isend", span)?,
                tag: optional(&args, "tag", 0),
                bytes: optional(&args, "bytes", 8),
                req,
            })
        }
        "irecv" => {
            validate_names(&args, &["src", "tag"], "irecv", span, false)?;
            Ok(MpiOp::Irecv {
                src: required(&args, "src", "irecv", span)?,
                tag: optional(&args, "tag", 0),
                req,
            })
        }
        _ => unreachable!("caller checked callee"),
    }
}

/// Build an intrinsic statement if `name` names one; `Ok(None)` means a
/// plain user-function call.
fn build_intrinsic(name: &str, args: &[Arg], span: &Span) -> LangResult<Option<StmtKind>> {
    let kind = match name {
        "comp" => {
            validate_names(
                args,
                &["cycles", "ins", "lst", "miss", "brmiss"],
                name,
                span,
                false,
            )?;
            StmtKind::Comp(CompAttrs {
                cycles: required(args, "cycles", name, span)?,
                ins: find_arg(args, "ins"),
                lst: find_arg(args, "lst"),
                l2_miss: find_arg(args, "miss"),
                br_miss: find_arg(args, "brmiss"),
            })
        }
        "send" => {
            validate_names(args, &["dst", "tag", "bytes"], name, span, false)?;
            StmtKind::Mpi(MpiOp::Send {
                dst: required(args, "dst", name, span)?,
                tag: optional(args, "tag", 0),
                bytes: optional(args, "bytes", 8),
            })
        }
        "recv" => {
            validate_names(args, &["src", "tag"], name, span, false)?;
            StmtKind::Mpi(MpiOp::Recv {
                src: required(args, "src", name, span)?,
                tag: optional(args, "tag", 0),
            })
        }
        "sendrecv" => {
            validate_names(
                args,
                &["dst", "sendtag", "src", "recvtag", "bytes"],
                name,
                span,
                false,
            )?;
            StmtKind::Mpi(MpiOp::Sendrecv {
                dst: required(args, "dst", name, span)?,
                sendtag: optional(args, "sendtag", 0),
                src: required(args, "src", name, span)?,
                recvtag: optional(args, "recvtag", 0),
                bytes: optional(args, "bytes", 8),
            })
        }
        "isend" | "irecv" => {
            return Err(LangError::parse(
                format!("`{name}` must bind a request: `let r = {name}(..);`"),
                span.clone(),
            ));
        }
        "wait" => {
            validate_names(args, &["req"], name, span, true)?;
            let req = if let Some(e) = find_arg(args, "req") {
                e
            } else if args.len() == 1 {
                args[0].value.clone()
            } else {
                return Err(LangError::parse(
                    "intrinsic `wait` takes exactly one request argument",
                    span.clone(),
                ));
            };
            StmtKind::Mpi(MpiOp::Wait { req })
        }
        "waitall" => {
            if !args.is_empty() {
                return Err(LangError::parse(
                    "intrinsic `waitall` takes no arguments",
                    span.clone(),
                ));
            }
            StmtKind::Mpi(MpiOp::Waitall)
        }
        "barrier" => {
            if !args.is_empty() {
                return Err(LangError::parse(
                    "intrinsic `barrier` takes no arguments",
                    span.clone(),
                ));
            }
            StmtKind::Mpi(MpiOp::Barrier)
        }
        "bcast" => {
            validate_names(args, &["root", "bytes"], name, span, false)?;
            StmtKind::Mpi(MpiOp::Bcast {
                root: optional(args, "root", 0),
                bytes: optional(args, "bytes", 8),
            })
        }
        "reduce" => {
            validate_names(args, &["root", "bytes"], name, span, false)?;
            StmtKind::Mpi(MpiOp::Reduce {
                root: optional(args, "root", 0),
                bytes: optional(args, "bytes", 8),
            })
        }
        "allreduce" => {
            validate_names(args, &["bytes"], name, span, false)?;
            StmtKind::Mpi(MpiOp::Allreduce {
                bytes: optional(args, "bytes", 8),
            })
        }
        "alltoall" => {
            validate_names(args, &["bytes"], name, span, false)?;
            StmtKind::Mpi(MpiOp::Alltoall {
                bytes: optional(args, "bytes", 8),
            })
        }
        "allgather" => {
            validate_names(args, &["bytes"], name, span, false)?;
            StmtKind::Mpi(MpiOp::Allgather {
                bytes: optional(args, "bytes", 8),
            })
        }
        _ => return Ok(None),
    };
    Ok(Some(kind))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> LangResult<Program> {
        let tokens = lex("t.mmpi", src)?;
        parse("t.mmpi", src, tokens)
    }

    fn main_stmts(src: &str) -> Vec<Stmt> {
        let program = parse_src(src).unwrap();
        program.function("main").unwrap().body.stmts.clone()
    }

    #[test]
    fn parses_minimal_program() {
        let program = parse_src("fn main() { }").unwrap();
        assert_eq!(program.functions.len(), 1);
        assert!(program.functions[0].body.stmts.is_empty());
    }

    #[test]
    fn parses_params() {
        let program = parse_src("param N = 64k;\nparam D = -3;\nfn main() { }").unwrap();
        assert_eq!(program.params.len(), 2);
        assert_eq!(program.params[0].default, 64 << 10);
        assert_eq!(program.params[1].default, -3);
    }

    #[test]
    fn parses_for_loop_with_comp() {
        let stmts = main_stmts("fn main() { for i in 0 .. 10 { comp(cycles = i * 2); } }");
        match &stmts[0].kind {
            StmtKind::For { var, body, .. } => {
                assert_eq!(var, "i");
                assert!(matches!(body.stmts[0].kind, StmtKind::Comp(_)));
            }
            other => panic!("expected for, got {other:?}"),
        }
    }

    #[test]
    fn parses_if_else_chain() {
        let stmts = main_stmts(
            "fn main() { if rank == 0 { barrier(); } else if rank == 1 { barrier(); } \
             else { barrier(); } }",
        );
        let StmtKind::If {
            else_block: Some(eb),
            ..
        } = &stmts[0].kind
        else {
            panic!("expected if");
        };
        assert!(matches!(eb.stmts[0].kind, StmtKind::If { .. }));
    }

    #[test]
    fn parses_send_with_defaults() {
        let stmts = main_stmts("fn main() { send(dst = rank + 1); }");
        let StmtKind::Mpi(MpiOp::Send { tag, bytes, .. }) = &stmts[0].kind else {
            panic!("expected send");
        };
        assert_eq!(*tag, Expr::Int(0));
        assert_eq!(*bytes, Expr::Int(8));
    }

    #[test]
    fn parses_nonblocking_binding() {
        let stmts =
            main_stmts("fn main() { let r = irecv(src = any, tag = 3); wait(r); waitall(); }");
        let StmtKind::Mpi(MpiOp::Irecv { req, src, .. }) = &stmts[0].kind else {
            panic!("expected irecv");
        };
        assert_eq!(req, "r");
        assert_eq!(*src, Expr::var("any"));
        assert!(matches!(&stmts[1].kind, StmtKind::Mpi(MpiOp::Wait { .. })));
        assert!(matches!(&stmts[2].kind, StmtKind::Mpi(MpiOp::Waitall)));
    }

    #[test]
    fn bare_isend_is_rejected() {
        let err = parse_src("fn main() { isend(dst = 1); }").unwrap_err();
        assert!(err.message.contains("must bind a request"));
    }

    #[test]
    fn parses_direct_and_indirect_calls() {
        let stmts =
            main_stmts("fn main() { foo(1, rank); let f = &foo; call f(2); } fn foo(a, b) { }");
        assert!(
            matches!(&stmts[0].kind, StmtKind::Call { callee, args } if callee == "foo" && args.len() == 2)
        );
        assert!(matches!(&stmts[1].kind, StmtKind::Let { .. }));
        assert!(matches!(&stmts[2].kind, StmtKind::CallIndirect { .. }));
    }

    #[test]
    fn unknown_named_argument_is_rejected() {
        let err = parse_src("fn main() { send(dest = 1); }").unwrap_err();
        assert!(err.message.contains("no argument `dest`"));
    }

    #[test]
    fn expression_precedence() {
        let stmts = main_stmts("fn main() { let x = 1 + 2 * 3; }");
        let StmtKind::Let { value, .. } = &stmts[0].kind else {
            panic!()
        };
        // 1 + (2 * 3)
        assert_eq!(
            *value,
            Expr::bin(
                BinOp::Add,
                Expr::Int(1),
                Expr::bin(BinOp::Mul, Expr::Int(2), Expr::Int(3))
            )
        );
    }

    #[test]
    fn logical_and_comparison_precedence() {
        let stmts = main_stmts("fn main() { let x = rank < 2 && nprocs > 4 || 0; }");
        let StmtKind::Let { value, .. } = &stmts[0].kind else {
            panic!()
        };
        let Expr::Binary { op: BinOp::Or, .. } = value else {
            panic!("|| should be outermost: {value:?}");
        };
    }

    #[test]
    fn builtins_parse_with_arity_check() {
        let stmts = main_stmts("fn main() { let x = max(rank, 1) + log2(nprocs); }");
        assert!(matches!(&stmts[0].kind, StmtKind::Let { .. }));
        assert!(parse_src("fn main() { let x = max(1); }").is_err());
        assert!(parse_src("fn main() { let x = sin(1); }").is_err());
    }

    #[test]
    fn node_ids_are_unique_and_dense() {
        let program =
            parse_src("fn main() { let a = 1; for i in 0 .. 2 { comp(cycles = 1); } barrier(); }")
                .unwrap();
        let mut ids = vec![];
        program.for_each_stmt(|s| ids.push(s.id));
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), ids.len(), "ids must be unique");
        assert_eq!(program.next_node_id as usize, ids.len());
    }

    #[test]
    fn assignment_statement() {
        let stmts = main_stmts("fn main() { let x = 0; x = x + 1; }");
        assert!(matches!(&stmts[1].kind, StmtKind::Assign { name, .. } if name == "x"));
    }

    #[test]
    fn while_loop() {
        let stmts = main_stmts("fn main() { let x = 4; while x > 0 { x = x - 1; } }");
        assert!(matches!(&stmts[1].kind, StmtKind::While { .. }));
    }

    #[test]
    fn errors_carry_location() {
        let err = parse_src("fn main() {\n  let = 3;\n}").unwrap_err();
        let span = err.span.unwrap();
        assert_eq!(span.line, 2);
    }

    #[test]
    fn top_level_junk_is_rejected() {
        assert!(parse_src("let x = 1;").is_err());
    }

    #[test]
    fn sendrecv_full_form() {
        let stmts = main_stmts(
            "fn main() { sendrecv(dst = (rank + 1) % nprocs, src = (rank + nprocs - 1) % nprocs, \
             sendtag = 1, recvtag = 1, bytes = 64k); }",
        );
        assert!(matches!(
            &stmts[0].kind,
            StmtKind::Mpi(MpiOp::Sendrecv { .. })
        ));
    }

    #[test]
    fn nesting_is_bounded() {
        // 10^5 levels of each kind. Unbounded, each overflows the 2 MiB
        // stack of a spawned thread, which aborts the process.
        let n = 100_000;
        let sources = [
            format!(
                "fn main() {{ let x = {}1{}; }}",
                "(".repeat(n),
                ")".repeat(n)
            ),
            format!("fn main() {{ let x = {}1; }}", "- ".repeat(n)),
            format!("fn main() {{ let x = {}1; }}", "!".repeat(n)),
            format!("fn main() {{ let x = 1{}; }}", " + 1".repeat(n)),
            format!("fn main() {{ {}{} }}", "if 1 { ".repeat(n), "} ".repeat(n)),
            format!("fn main() {{ if 1 {{ }}{} }}", " else if 1 { }".repeat(n)),
        ];
        std::thread::spawn(move || {
            for src in &sources {
                eprintln!("case {}", &src[..30]);
                let err = parse_src(src).unwrap_err();
                assert_eq!(err.kind, crate::error::ErrorKind::Parse);
                assert!(
                    err.message.contains("nesting deeper than 256"),
                    "{}: {err}",
                    &src[..40]
                );
            }
        })
        .join()
        .unwrap();
        // Nesting within the bound still parses.
        let depth = MAX_DEPTH as usize - 8;
        let src = format!(
            "fn main() {{ let x = {}1{}; }}",
            "(".repeat(depth),
            ")".repeat(depth)
        );
        parse_src(&src).unwrap();
    }
}
