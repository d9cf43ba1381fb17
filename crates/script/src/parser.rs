//! The EVscript parser: recursive descent for statements, Pratt
//! (precedence-climbing) for expressions.

use crate::ast::{BinOp, Expr, ExprKind, Stmt, StmtKind, UnOp};
use crate::lexer::{lex, Token, TokenKind};
use crate::ScriptError;

/// Deepest nesting of blocks and expressions a program may have. The
/// parser, the compiler and the tree-walker all recurse once per level,
/// so this bound is what keeps a hostile script from overflowing the
/// stack. Nested `if` blocks cost the most stack per level, about
/// 11 KiB in a debug build: the deepest accepted program then needs
/// about 1.4 MiB of a 2 MiB thread.
const MAX_NESTING: usize = 128;

/// Parses a complete EVscript program.
///
/// # Errors
///
/// Fails with the first syntax error, carrying its source line, or when
/// the program nests deeper than [`MAX_NESTING`] levels.
pub fn parse(source: &str) -> Result<Vec<Stmt>, ScriptError> {
    let tokens = lex(source)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        depth: 0,
    };
    let mut stmts = Vec::new();
    while !p.at(TokenKind::Eof) {
        stmts.push(p.statement()?);
    }
    Ok(stmts)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Current nesting level, bounded by [`MAX_NESTING`].
    depth: usize,
}

impl Parser {
    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn line(&self) -> usize {
        self.tokens[self.pos].line
    }

    fn at(&self, kind: TokenKind) -> bool {
        *self.peek() == kind
    }

    fn bump(&mut self) -> TokenKind {
        let kind = self.tokens[self.pos].kind.clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        kind
    }

    fn expect(&mut self, kind: TokenKind, what: &str) -> Result<(), ScriptError> {
        if self.at(kind) {
            self.bump();
            Ok(())
        } else {
            Err(ScriptError::new(
                format!("expected {what}, found {:?}", self.peek()),
                self.line(),
            ))
        }
    }

    /// Enters one more nesting level. The caller resets `depth` once the
    /// level's subtree is complete.
    fn nest(&mut self) -> Result<(), ScriptError> {
        if self.depth == MAX_NESTING {
            return Err(ScriptError::new(
                format!("nesting deeper than {MAX_NESTING} levels"),
                self.line(),
            ));
        }
        self.depth += 1;
        Ok(())
    }

    fn ident(&mut self, what: &str) -> Result<String, ScriptError> {
        match self.peek().clone() {
            TokenKind::Ident(name) => {
                self.bump();
                Ok(name)
            }
            other => Err(ScriptError::new(
                format!("expected {what}, found {other:?}"),
                self.line(),
            )),
        }
    }

    fn block(&mut self) -> Result<Vec<Stmt>, ScriptError> {
        self.expect(TokenKind::LBrace, "'{'")?;
        self.nest()?;
        let mut stmts = Vec::new();
        while !self.at(TokenKind::RBrace) {
            if self.at(TokenKind::Eof) {
                return Err(ScriptError::new("unterminated block", self.line()));
            }
            stmts.push(self.statement()?);
        }
        self.bump();
        self.depth -= 1;
        Ok(stmts)
    }

    fn statement(&mut self) -> Result<Stmt, ScriptError> {
        let line = self.line();
        match self.peek().clone() {
            TokenKind::Let => {
                self.bump();
                let name = self.ident("variable name")?;
                self.expect(TokenKind::Assign, "'='")?;
                let value = self.expression(0)?;
                self.expect(TokenKind::Semicolon, "';'")?;
                Ok(Stmt {
                    kind: StmtKind::Let(name, value),
                    line,
                })
            }
            TokenKind::Fn => {
                // Distinguish `fn name(...)` definition from a `fn(...)`
                // literal in expression position.
                if let TokenKind::Ident(_) = self.tokens[self.pos + 1].kind {
                    self.bump();
                    let name = self.ident("function name")?;
                    let params = self.params()?;
                    let body = self.block()?;
                    Ok(Stmt {
                        kind: StmtKind::FnDef(name, params, body),
                        line,
                    })
                } else {
                    let expr = self.expression(0)?;
                    self.expect(TokenKind::Semicolon, "';'")?;
                    Ok(Stmt {
                        kind: StmtKind::Expr(expr),
                        line,
                    })
                }
            }
            TokenKind::If => {
                self.bump();
                let cond = self.expression(0)?;
                let then = self.block()?;
                let otherwise = if self.at(TokenKind::Else) {
                    self.bump();
                    if self.at(TokenKind::If) {
                        self.nest()?;
                        let chained = self.statement()?;
                        self.depth -= 1;
                        vec![chained]
                    } else {
                        self.block()?
                    }
                } else {
                    Vec::new()
                };
                Ok(Stmt {
                    kind: StmtKind::If(cond, then, otherwise),
                    line,
                })
            }
            TokenKind::While => {
                self.bump();
                let cond = self.expression(0)?;
                let body = self.block()?;
                Ok(Stmt {
                    kind: StmtKind::While(cond, body),
                    line,
                })
            }
            TokenKind::For => {
                self.bump();
                let var = self.ident("loop variable")?;
                self.expect(TokenKind::In, "'in'")?;
                let iterable = self.expression(0)?;
                let body = self.block()?;
                Ok(Stmt {
                    kind: StmtKind::For(var, iterable, body),
                    line,
                })
            }
            TokenKind::Break => {
                self.bump();
                self.expect(TokenKind::Semicolon, "';'")?;
                Ok(Stmt {
                    kind: StmtKind::Break,
                    line,
                })
            }
            TokenKind::Continue => {
                self.bump();
                self.expect(TokenKind::Semicolon, "';'")?;
                Ok(Stmt {
                    kind: StmtKind::Continue,
                    line,
                })
            }
            TokenKind::Return => {
                self.bump();
                let value = if self.at(TokenKind::Semicolon) {
                    None
                } else {
                    Some(self.expression(0)?)
                };
                self.expect(TokenKind::Semicolon, "';'")?;
                Ok(Stmt {
                    kind: StmtKind::Return(value),
                    line,
                })
            }
            _ => {
                let expr = self.expression(0)?;
                if self.at(TokenKind::Assign) {
                    // Assignment target must be an identifier or index.
                    match expr.kind {
                        ExprKind::Ident(_) | ExprKind::Index(_, _) => {}
                        _ => {
                            return Err(ScriptError::new(
                                "invalid assignment target",
                                line,
                            ))
                        }
                    }
                    self.bump();
                    let value = self.expression(0)?;
                    self.expect(TokenKind::Semicolon, "';'")?;
                    Ok(Stmt {
                        kind: StmtKind::Assign(expr, value),
                        line,
                    })
                } else {
                    self.expect(TokenKind::Semicolon, "';'")?;
                    Ok(Stmt {
                        kind: StmtKind::Expr(expr),
                        line,
                    })
                }
            }
        }
    }

    fn params(&mut self) -> Result<Vec<String>, ScriptError> {
        self.expect(TokenKind::LParen, "'('")?;
        let mut params = Vec::new();
        if !self.at(TokenKind::RParen) {
            loop {
                params.push(self.ident("parameter name")?);
                if self.at(TokenKind::Comma) {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        self.expect(TokenKind::RParen, "')'")?;
        Ok(params)
    }

    /// Binding power of an infix operator, or `None`.
    fn infix_power(kind: &TokenKind) -> Option<(BinOp, u8)> {
        let entry = match kind {
            TokenKind::OrOr => (BinOp::Or, 1),
            TokenKind::AndAnd => (BinOp::And, 2),
            TokenKind::Eq => (BinOp::Eq, 3),
            TokenKind::NotEq => (BinOp::NotEq, 3),
            TokenKind::Lt => (BinOp::Lt, 4),
            TokenKind::LtEq => (BinOp::LtEq, 4),
            TokenKind::Gt => (BinOp::Gt, 4),
            TokenKind::GtEq => (BinOp::GtEq, 4),
            TokenKind::Plus => (BinOp::Add, 5),
            TokenKind::Minus => (BinOp::Sub, 5),
            TokenKind::Star => (BinOp::Mul, 6),
            TokenKind::Slash => (BinOp::Div, 6),
            TokenKind::Percent => (BinOp::Rem, 6),
            _ => return None,
        };
        Some(entry)
    }

    fn expression(&mut self, min_power: u8) -> Result<Expr, ScriptError> {
        let outer = self.depth;
        self.nest()?;
        let mut lhs = self.unary()?;
        while let Some((op, power)) = Self::infix_power(self.peek()) {
            if power < min_power {
                break;
            }
            // Each operator wraps `lhs` one level deeper without the
            // parser recursing; the compiler and the walker still do.
            self.nest()?;
            let line = self.line();
            self.bump();
            let rhs = self.expression(power + 1)?;
            lhs = Expr {
                kind: ExprKind::Binary(op, Box::new(lhs), Box::new(rhs)),
                line,
            };
        }
        self.depth = outer;
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr, ScriptError> {
        let line = self.line();
        let op = match self.peek() {
            TokenKind::Minus => UnOp::Neg,
            TokenKind::Bang => UnOp::Not,
            _ => return self.postfix(),
        };
        self.bump();
        self.nest()?;
        let operand = self.unary()?;
        self.depth -= 1;
        Ok(Expr {
            kind: ExprKind::Unary(op, Box::new(operand)),
            line,
        })
    }

    fn postfix(&mut self) -> Result<Expr, ScriptError> {
        let outer = self.depth;
        let mut expr = self.primary()?;
        loop {
            let line = self.line();
            match self.peek() {
                TokenKind::LParen => {
                    self.nest()?;
                    self.bump();
                    let mut args = Vec::new();
                    if !self.at(TokenKind::RParen) {
                        loop {
                            args.push(self.expression(0)?);
                            if self.at(TokenKind::Comma) {
                                self.bump();
                            } else {
                                break;
                            }
                        }
                    }
                    self.expect(TokenKind::RParen, "')'")?;
                    expr = Expr {
                        kind: ExprKind::Call(Box::new(expr), args),
                        line,
                    };
                }
                TokenKind::LBracket => {
                    self.nest()?;
                    self.bump();
                    let index = self.expression(0)?;
                    self.expect(TokenKind::RBracket, "']'")?;
                    expr = Expr {
                        kind: ExprKind::Index(Box::new(expr), Box::new(index)),
                        line,
                    };
                }
                _ => {
                    self.depth = outer;
                    return Ok(expr);
                }
            }
        }
    }

    fn primary(&mut self) -> Result<Expr, ScriptError> {
        let line = self.line();
        let kind = match self.bump() {
            TokenKind::Number(n) => ExprKind::Number(n),
            TokenKind::Str(s) => ExprKind::Str(s),
            TokenKind::True => ExprKind::Bool(true),
            TokenKind::False => ExprKind::Bool(false),
            TokenKind::Nil => ExprKind::Nil,
            TokenKind::Ident(name) => ExprKind::Ident(name),
            TokenKind::LParen => {
                let inner = self.expression(0)?;
                self.expect(TokenKind::RParen, "')'")?;
                return Ok(inner);
            }
            TokenKind::LBracket => {
                let mut items = Vec::new();
                if !self.at(TokenKind::RBracket) {
                    loop {
                        items.push(self.expression(0)?);
                        if self.at(TokenKind::Comma) {
                            self.bump();
                        } else {
                            break;
                        }
                    }
                }
                self.expect(TokenKind::RBracket, "']'")?;
                ExprKind::List(items)
            }
            TokenKind::Fn => {
                let params = self.params()?;
                let body = self.block()?;
                ExprKind::Function(params, body)
            }
            other => {
                return Err(ScriptError::new(
                    format!("unexpected token {other:?}"),
                    line,
                ))
            }
        };
        Ok(Expr { kind, line })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precedence() {
        // 1 + 2 * 3 parses as 1 + (2 * 3).
        let stmts = parse("let x = 1 + 2 * 3;").unwrap();
        let StmtKind::Let(_, expr) = &stmts[0].kind else { panic!() };
        let ExprKind::Binary(BinOp::Add, _, rhs) = &expr.kind else {
            panic!("expected Add at top: {expr:?}")
        };
        assert!(matches!(rhs.kind, ExprKind::Binary(BinOp::Mul, _, _)));
    }

    #[test]
    fn comparison_binds_looser_than_arithmetic() {
        let stmts = parse("let x = a + 1 < b * 2;").unwrap();
        let StmtKind::Let(_, expr) = &stmts[0].kind else { panic!() };
        assert!(matches!(expr.kind, ExprKind::Binary(BinOp::Lt, _, _)));
    }

    #[test]
    fn logical_operators_loosest() {
        let stmts = parse("let x = a == 1 && b == 2 || c;").unwrap();
        let StmtKind::Let(_, expr) = &stmts[0].kind else { panic!() };
        assert!(matches!(expr.kind, ExprKind::Binary(BinOp::Or, _, _)));
    }

    #[test]
    fn unary_and_parens() {
        let stmts = parse("let x = -(1 + 2) * !y;").unwrap();
        let StmtKind::Let(_, expr) = &stmts[0].kind else { panic!() };
        assert!(matches!(expr.kind, ExprKind::Binary(BinOp::Mul, _, _)));
    }

    #[test]
    fn statements_parse() {
        let src = r#"
            let total = 0;
            fn double(x) { return x * 2; }
            if total > 0 { total = 0; } else if total == 0 { total = 1; } else { total = 2; }
            while total < 10 { total = total + 1; }
            for v in [1, 2, 3] { total = total + v; }
            print(double(total));
        "#;
        let stmts = parse(src).unwrap();
        assert_eq!(stmts.len(), 6);
    }

    #[test]
    fn function_literals_and_calls() {
        let stmts = parse("visit(fn(n) { print(n); });").unwrap();
        let StmtKind::Expr(expr) = &stmts[0].kind else { panic!() };
        let ExprKind::Call(callee, args) = &expr.kind else { panic!() };
        assert!(matches!(callee.kind, ExprKind::Ident(_)));
        assert!(matches!(args[0].kind, ExprKind::Function(_, _)));
    }

    #[test]
    fn index_and_chained_calls() {
        let stmts = parse("let x = fns[0](1)[2];").unwrap();
        let StmtKind::Let(_, expr) = &stmts[0].kind else { panic!() };
        assert!(matches!(expr.kind, ExprKind::Index(_, _)));
    }

    #[test]
    fn index_assignment() {
        let stmts = parse("xs[0] = 5;").unwrap();
        assert!(matches!(stmts[0].kind, StmtKind::Assign(_, _)));
    }

    #[test]
    fn invalid_assignment_target() {
        assert!(parse("1 + 2 = 3;").is_err());
        assert!(parse("f() = 3;").is_err());
    }

    #[test]
    fn syntax_errors_carry_lines() {
        let err = parse("let x = 1;\nlet y = ;").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(parse("if x { ").is_err());
        assert!(parse("let 5 = 1;").is_err());
        assert!(parse("x + 1").is_err(), "missing semicolon");
    }

    #[test]
    fn empty_program() {
        assert_eq!(parse("").unwrap().len(), 0);
        assert_eq!(parse("# only a comment\n").unwrap().len(), 0);
    }
}
