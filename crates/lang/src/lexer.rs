//! Hand-written lexer for MiniMPI.
//!
//! Tracks line/column for every token so statements carry precise
//! source locations. Supports `//` line comments and `/* */` block
//! comments, `_` digit separators, and `k`/`m`/`g` magnitude suffixes on
//! integer literals (`64k == 65536`), which keeps workload definitions in
//! `scalana-apps` readable.

use crate::error::{LangError, LangResult};
use crate::span::{SourceFile, Span};
use crate::token::{Token, TokenKind};

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
    file: SourceFile,
}

/// Tokenize MiniMPI source text.
pub fn lex(file_name: &str, source: &str) -> LangResult<Vec<Token>> {
    let mut lexer = Lexer {
        src: source.as_bytes(),
        pos: 0,
        line: 1,
        col: 1,
        file: SourceFile::new(file_name),
    };
    lexer.run()
}

impl<'a> Lexer<'a> {
    fn span(&self) -> Span {
        Span::new(self.file.clone(), self.line, self.col)
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.src.get(self.pos + 1).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn run(&mut self) -> LangResult<Vec<Token>> {
        let mut tokens = Vec::new();
        loop {
            self.skip_trivia()?;
            let span = self.span();
            let Some(c) = self.peek() else {
                tokens.push(Token {
                    kind: TokenKind::Eof,
                    span,
                });
                return Ok(tokens);
            };
            let kind = match c {
                b'0'..=b'9' => self.lex_int(&span)?,
                b'a'..=b'z' | b'A'..=b'Z' | b'_' => self.lex_word(&span)?,
                _ => self.lex_punct(&span)?,
            };
            tokens.push(Token { kind, span });
        }
    }

    fn skip_trivia(&mut self) -> LangResult<()> {
        loop {
            match self.peek() {
                Some(b' ' | b'\t' | b'\r' | b'\n') => {
                    self.bump();
                }
                Some(b'/') if self.peek2() == Some(b'/') => {
                    while let Some(c) = self.peek() {
                        if c == b'\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                Some(b'/') if self.peek2() == Some(b'*') => {
                    let open = self.span();
                    self.bump();
                    self.bump();
                    loop {
                        match (self.peek(), self.peek2()) {
                            (Some(b'*'), Some(b'/')) => {
                                self.bump();
                                self.bump();
                                break;
                            }
                            (None, _) => {
                                return Err(LangError::lex("unterminated block comment", open));
                            }
                            _ => {
                                self.bump();
                            }
                        }
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    fn lex_int(&mut self, span: &Span) -> LangResult<TokenKind> {
        let mut value: i64 = 0;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => {
                    let digit = i64::from(c - b'0');
                    value = value
                        .checked_mul(10)
                        .and_then(|v| v.checked_add(digit))
                        .ok_or_else(|| {
                            LangError::lex("integer literal overflows i64", span.clone())
                        })?;
                    self.bump();
                }
                b'_' => {
                    self.bump();
                }
                _ => break,
            }
        }
        // Magnitude suffix: 4k = 4096, 2m = 2 MiB, 1g = 1 GiB.
        if let Some(suffix) = self.peek() {
            let shift = match suffix.to_ascii_lowercase() {
                b'k' => Some(10),
                b'm' => Some(20),
                b'g' => Some(30),
                _ => None,
            };
            if let Some(shift) = shift {
                // Only treat as a suffix when not followed by more word chars
                // (so `4kb` is an error rather than silently `4k` + `b`).
                let next = self.src.get(self.pos + 1).copied();
                if matches!(next, Some(b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'_')) {
                    return Err(LangError::lex("bad integer suffix", span.clone()));
                }
                value = value
                    .checked_shl(shift)
                    .filter(|v| *v >= 0)
                    .ok_or_else(|| LangError::lex("integer literal overflows i64", span.clone()))?;
                self.bump();
            }
        }
        Ok(TokenKind::Int(value))
    }

    /// A keyword or identifier. Names are persisted with a `u16` length
    /// (indirect-call callees in profile images and discovery traces), so
    /// a longer identifier is an error rather than a name cut short.
    fn lex_word(&mut self, span: &Span) -> LangResult<TokenKind> {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || c == b'_' {
                self.bump();
            } else {
                break;
            }
        }
        let word = std::str::from_utf8(&self.src[start..self.pos]).expect("ascii word");
        if word.len() > usize::from(u16::MAX) {
            return Err(LangError::lex(
                format!(
                    "identifier of {} bytes exceeds {} bytes",
                    word.len(),
                    u16::MAX
                ),
                span.clone(),
            ));
        }
        Ok(TokenKind::keyword(word).unwrap_or_else(|| TokenKind::Ident(word.to_string())))
    }

    fn lex_punct(&mut self, span: &Span) -> LangResult<TokenKind> {
        let c = self.bump().expect("caller checked peek");
        let kind = match c {
            b'(' => TokenKind::LParen,
            b')' => TokenKind::RParen,
            b'{' => TokenKind::LBrace,
            b'}' => TokenKind::RBrace,
            b',' => TokenKind::Comma,
            b';' => TokenKind::Semi,
            b'+' => TokenKind::Plus,
            b'-' => TokenKind::Minus,
            b'*' => TokenKind::Star,
            b'/' => TokenKind::Slash,
            b'%' => TokenKind::Percent,
            b'.' => {
                if self.peek() == Some(b'.') {
                    self.bump();
                    TokenKind::DotDot
                } else {
                    return Err(LangError::lex("expected `..`", span.clone()));
                }
            }
            b'=' => {
                if self.peek() == Some(b'=') {
                    self.bump();
                    TokenKind::EqEq
                } else {
                    TokenKind::Assign
                }
            }
            b'!' => {
                if self.peek() == Some(b'=') {
                    self.bump();
                    TokenKind::NotEq
                } else {
                    TokenKind::Bang
                }
            }
            b'<' => {
                if self.peek() == Some(b'=') {
                    self.bump();
                    TokenKind::Le
                } else {
                    TokenKind::Lt
                }
            }
            b'>' => {
                if self.peek() == Some(b'=') {
                    self.bump();
                    TokenKind::Ge
                } else {
                    TokenKind::Gt
                }
            }
            b'&' => {
                if self.peek() == Some(b'&') {
                    self.bump();
                    TokenKind::AndAnd
                } else {
                    TokenKind::Amp
                }
            }
            b'|' => {
                if self.peek() == Some(b'|') {
                    self.bump();
                    TokenKind::OrOr
                } else {
                    return Err(LangError::lex("expected `||`", span.clone()));
                }
            }
            other => {
                return Err(LangError::lex(
                    format!("unexpected character `{}`", other as char),
                    span.clone(),
                ));
            }
        };
        Ok(kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex("t.mmpi", src)
            .unwrap()
            .into_iter()
            .map(|t| t.kind)
            .collect()
    }

    #[test]
    fn lexes_basic_statement() {
        let toks = kinds("let x = 1 + 2;");
        assert_eq!(
            toks,
            vec![
                TokenKind::KwLet,
                TokenKind::Ident("x".into()),
                TokenKind::Assign,
                TokenKind::Int(1),
                TokenKind::Plus,
                TokenKind::Int(2),
                TokenKind::Semi,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn magnitude_suffixes() {
        assert_eq!(kinds("64k")[0], TokenKind::Int(64 << 10));
        assert_eq!(kinds("2m")[0], TokenKind::Int(2 << 20));
        assert_eq!(kinds("1g")[0], TokenKind::Int(1 << 30));
        assert_eq!(kinds("1_000_000")[0], TokenKind::Int(1_000_000));
    }

    #[test]
    fn bad_suffix_is_error() {
        assert!(lex("t.mmpi", "4kb").is_err());
    }

    #[test]
    fn comments_are_skipped() {
        let toks = kinds("// hello\n1 /* mid */ 2");
        assert_eq!(
            toks,
            vec![TokenKind::Int(1), TokenKind::Int(2), TokenKind::Eof]
        );
    }

    #[test]
    fn unterminated_block_comment_errors() {
        assert!(lex("t.mmpi", "/* oops").is_err());
    }

    #[test]
    fn tracks_line_and_column() {
        let toks = lex("t.mmpi", "fn\n  main").unwrap();
        assert_eq!(toks[0].span.line, 1);
        assert_eq!(toks[0].span.col, 1);
        assert_eq!(toks[1].span.line, 2);
        assert_eq!(toks[1].span.col, 3);
    }

    #[test]
    fn two_char_operators() {
        let toks = kinds("<= >= == != && || ..");
        assert_eq!(
            toks,
            vec![
                TokenKind::Le,
                TokenKind::Ge,
                TokenKind::EqEq,
                TokenKind::NotEq,
                TokenKind::AndAnd,
                TokenKind::OrOr,
                TokenKind::DotDot,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn single_amp_is_funcref_token() {
        assert_eq!(kinds("&foo")[0], TokenKind::Amp);
    }

    #[test]
    fn overflow_literal_is_error() {
        assert!(lex("t.mmpi", "99999999999999999999").is_err());
    }

    #[test]
    fn identifier_longer_than_u16_max_is_error() {
        let longest = "x".repeat(usize::from(u16::MAX));
        assert_eq!(kinds(&longest)[0], TokenKind::Ident(longest.clone()));
        let err = lex("t.mmpi", &format!("let a = 1;\n  {longest}y")).unwrap_err();
        assert_eq!(err.kind, crate::error::ErrorKind::Lex);
        let span = err.span.expect("lex errors carry a span");
        assert_eq!((span.line, span.col), (2, 3));
    }

    #[test]
    fn unexpected_character_is_error() {
        let err = lex("t.mmpi", "let $x = 1;").unwrap_err();
        assert!(err.message.contains("unexpected character"));
    }
}
