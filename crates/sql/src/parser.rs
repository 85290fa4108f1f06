//! Recursive-descent parser for the SNAILS T-SQL subset.

use crate::ast::*;
use crate::lexer::{tokenize, Keyword as Kw, LexError, Symbol as Sym, Token, TokenKind};
use std::fmt;

/// The deepest nesting a parsed statement may have.
///
/// Every consumer of the AST (the executors, the plan compiler, rendering,
/// identifier extraction, even `Drop`) recurses once per level, so this one
/// bound caps the stack all of them need. A level is one enclosing operator
/// (unary, binary, comparison, `IS`/`IN`/`LIKE`/`BETWEEN`), function call,
/// `CASE`, parenthesized group, or nested query block (subquery, derived
/// table, `UNION` operand). A left-deep chain `a + b + … + z` costs one
/// level per operator. Deeper input fails with
/// [`ParseErrorKind::TooDeep`] before any deeper structure is built.
///
/// The deepest gold query spans 3 levels. At 64, every consumer handles a
/// statement of any shape at the limit on a 2 MiB thread stack (the
/// default for spawned threads, and what the serve workers get) even in
/// an unoptimized build, where nested subqueries are the costliest shape.
pub const MAX_DEPTH: usize = 64;

/// What went wrong, for callers that branch on the failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseErrorKind {
    /// The input is not a statement of the dialect.
    Syntax,
    /// The statement nests deeper than [`MAX_DEPTH`].
    TooDeep,
}

/// Parse error with position information.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Failure class.
    pub kind: ParseErrorKind,
    /// Human-readable message.
    pub message: String,
    /// Byte offset of the offending token (input length at EOF).
    pub position: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.position, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError { kind: ParseErrorKind::Syntax, message: e.message, position: e.position }
    }
}

/// Parse a single SQL statement (`SELECT ...` or `CREATE VIEW ...`).
pub fn parse(sql: &str) -> Result<Statement, ParseError> {
    let tokens = tokenize(sql)?;
    let mut p = Parser { tokens, pos: 0, input_len: sql.len(), depth: 0 };
    let stmt = p.parse_statement()?;
    p.consume_symbol_if(Sym::Semicolon);
    p.expect_eof()?;
    Ok(stmt)
}

/// Parse a `SELECT` statement, rejecting other statement kinds.
pub fn parse_select(sql: &str) -> Result<SelectStatement, ParseError> {
    match parse(sql)? {
        Statement::Select(s) => Ok(s),
        Statement::CreateView { .. } => Err(ParseError {
            kind: ParseErrorKind::Syntax,
            message: "expected SELECT, found CREATE VIEW".into(),
            position: 0,
        }),
    }
}

/// A parsed node and its height: the levels (see [`MAX_DEPTH`]) it spans
/// below its own position, 0 for a leaf.
type Measured<T> = (T, usize);

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    input_len: usize,
    /// Levels enclosing the node being parsed.
    depth: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn peek_kind(&self) -> Option<&TokenKind> {
        self.peek().map(|t| &t.kind)
    }

    fn current_position(&self) -> usize {
        self.peek().map_or(self.input_len, |t| t.position)
    }

    fn bump(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            kind: ParseErrorKind::Syntax,
            message: message.into(),
            position: self.current_position(),
        }
    }

    fn too_deep(&self) -> ParseError {
        ParseError {
            kind: ParseErrorKind::TooDeep,
            message: format!("statement nests deeper than {MAX_DEPTH} levels"),
            position: self.current_position(),
        }
    }

    /// Run `parse` one level deeper, refusing before recursing when that
    /// level would exceed [`MAX_DEPTH`].
    fn nested<T>(
        &mut self,
        parse: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.too_deep());
        }
        self.depth += 1;
        let result = parse(self);
        self.depth -= 1;
        result
    }

    /// Height of a node over children at most `child` high, refused when
    /// the node would reach past [`MAX_DEPTH`] from where it sits.
    fn wrap(&self, child: usize) -> Result<usize, ParseError> {
        if self.depth + child + 1 > MAX_DEPTH {
            return Err(self.too_deep());
        }
        Ok(child + 1)
    }

    fn at_keyword(&self, kw: Kw) -> bool {
        matches!(self.peek_kind(), Some(TokenKind::Keyword(k)) if *k == kw)
    }

    fn consume_keyword_if(&mut self, kw: Kw) -> bool {
        if self.at_keyword(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: Kw) -> Result<(), ParseError> {
        if self.consume_keyword_if(kw) {
            Ok(())
        } else {
            Err(self.error(format!("expected {}", kw.as_str())))
        }
    }

    fn at_symbol(&self, sym: Sym) -> bool {
        matches!(self.peek_kind(), Some(TokenKind::Symbol(s)) if *s == sym)
    }

    fn consume_symbol_if(&mut self, sym: Sym) -> bool {
        if self.at_symbol(sym) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_symbol(&mut self, sym: Sym) -> Result<(), ParseError> {
        if self.consume_symbol_if(sym) {
            Ok(())
        } else {
            Err(self.error(format!("expected '{}'", sym.as_str())))
        }
    }

    fn expect_identifier(&mut self) -> Result<String, ParseError> {
        match self.peek_kind() {
            Some(TokenKind::Identifier { .. }) => {
                Ok(self.bump().expect("peeked identifier").text)
            }
            _ => Err(self.error("expected identifier")),
        }
    }

    fn expect_eof(&self) -> Result<(), ParseError> {
        if self.pos == self.tokens.len() {
            Ok(())
        } else {
            Err(self.error("unexpected trailing tokens"))
        }
    }

    fn parse_statement(&mut self) -> Result<Statement, ParseError> {
        if self.consume_keyword_if(Kw::Create) {
            self.expect_keyword(Kw::View)?;
            let first = self.expect_identifier()?;
            let (schema, name) = if self.consume_symbol_if(Sym::Dot) {
                (Some(first), self.expect_identifier()?)
            } else {
                (None, first)
            };
            self.expect_keyword(Kw::As)?;
            let (query, _) = self.parse_select_statement()?;
            Ok(Statement::CreateView { schema, name, query })
        } else {
            Ok(Statement::Select(self.parse_select_statement()?.0))
        }
    }

    /// A query block; its height is the tallest of its parts (the block
    /// itself is a level only where it nests, see [`Self::subquery`]).
    fn parse_select_statement(&mut self) -> Result<Measured<SelectStatement>, ParseError> {
        self.expect_keyword(Kw::Select)?;
        let mut stmt = SelectStatement::default();
        let mut height = 0;

        if self.consume_keyword_if(Kw::Top) {
            match self.peek_kind() {
                Some(&TokenKind::Integer(n)) if n >= 0 => {
                    stmt.top = Some(n as u64);
                    self.pos += 1;
                }
                _ => return Err(self.error("expected non-negative integer after TOP")),
            }
        }
        if self.consume_keyword_if(Kw::Distinct) {
            stmt.distinct = true;
        } else {
            self.consume_keyword_if(Kw::All);
        }

        loop {
            let (item, h) = self.parse_select_item()?;
            stmt.items.push(item);
            height = height.max(h);
            if !self.consume_symbol_if(Sym::Comma) {
                break;
            }
        }

        if self.consume_keyword_if(Kw::From) {
            let (from, h) = self.parse_table_source()?;
            stmt.from = Some(from);
            height = height.max(h);
            loop {
                let kind = if self.consume_keyword_if(Kw::Join)
                    || (self.at_keyword(Kw::Inner) && {
                        self.pos += 1;
                        self.expect_keyword(Kw::Join)?;
                        true
                    }) {
                    JoinKind::Inner
                } else if self.consume_keyword_if(Kw::Left) {
                    self.consume_keyword_if(Kw::Outer);
                    self.expect_keyword(Kw::Join)?;
                    JoinKind::Left
                } else if self.consume_keyword_if(Kw::Right) {
                    self.consume_keyword_if(Kw::Outer);
                    self.expect_keyword(Kw::Join)?;
                    JoinKind::Right
                } else if self.consume_keyword_if(Kw::Full) {
                    self.consume_keyword_if(Kw::Outer);
                    self.expect_keyword(Kw::Join)?;
                    JoinKind::Full
                } else if self.consume_keyword_if(Kw::Cross) {
                    self.expect_keyword(Kw::Join)?;
                    JoinKind::Cross
                } else {
                    break;
                };
                let (source, h) = self.parse_table_source()?;
                height = height.max(h);
                let on = if kind == JoinKind::Cross {
                    None
                } else {
                    self.expect_keyword(Kw::On)?;
                    let (on, h) = self.parse_expr()?;
                    height = height.max(h);
                    Some(on)
                };
                stmt.joins.push(Join { kind, source, on });
            }
        }

        if self.consume_keyword_if(Kw::Where) {
            let (e, h) = self.parse_expr()?;
            stmt.where_clause = Some(e);
            height = height.max(h);
        }
        if self.at_keyword(Kw::Group) {
            self.pos += 1;
            self.expect_keyword(Kw::By)?;
            loop {
                let (e, h) = self.parse_expr()?;
                stmt.group_by.push(e);
                height = height.max(h);
                if !self.consume_symbol_if(Sym::Comma) {
                    break;
                }
            }
        }
        if self.consume_keyword_if(Kw::Having) {
            let (e, h) = self.parse_expr()?;
            stmt.having = Some(e);
            height = height.max(h);
        }
        if self.at_keyword(Kw::Order) {
            self.pos += 1;
            self.expect_keyword(Kw::By)?;
            loop {
                let (expr, h) = self.parse_expr()?;
                height = height.max(h);
                let descending = if self.consume_keyword_if(Kw::Desc) {
                    true
                } else {
                    self.consume_keyword_if(Kw::Asc);
                    false
                };
                stmt.order_by.push(OrderItem { expr, descending });
                if !self.consume_symbol_if(Sym::Comma) {
                    break;
                }
            }
        }
        if self.consume_keyword_if(Kw::Union) {
            let kind = if self.consume_keyword_if(Kw::All) {
                UnionKind::All
            } else {
                UnionKind::Distinct
            };
            let (rhs, h) = self.subquery()?;
            stmt.union = Some((kind, rhs));
            height = height.max(h);
        }
        Ok((stmt, height))
    }

    /// A nested query block: one level over its contents.
    fn subquery(&mut self) -> Result<Measured<Box<SelectStatement>>, ParseError> {
        let (query, h) = self.nested(Self::parse_select_statement)?;
        Ok((Box::new(query), self.wrap(h)?))
    }

    fn parse_select_item(&mut self) -> Result<Measured<SelectItem>, ParseError> {
        if self.consume_symbol_if(Sym::Star) {
            return Ok((SelectItem::Wildcard, 0));
        }
        // `alias.*`
        if let (Some(TokenKind::Identifier { .. }), Some(t1), Some(t2)) = (
            self.peek_kind(),
            self.tokens.get(self.pos + 1),
            self.tokens.get(self.pos + 2),
        ) {
            if t1.kind == TokenKind::Symbol(Sym::Dot)
                && t2.kind == TokenKind::Symbol(Sym::Star)
            {
                let q = self.bump().expect("identifier").text;
                self.pos += 2;
                return Ok((SelectItem::QualifiedWildcard(q), 0));
            }
        }
        let (expr, height) = self.parse_expr()?;
        let alias = if self.consume_keyword_if(Kw::As) {
            Some(self.expect_identifier()?)
        } else if matches!(self.peek_kind(), Some(TokenKind::Identifier { .. })) {
            Some(self.bump().expect("identifier").text)
        } else {
            None
        };
        Ok((SelectItem::Expr { expr, alias }, height))
    }

    fn parse_table_source(&mut self) -> Result<Measured<TableSource>, ParseError> {
        if self.consume_symbol_if(Sym::LParen) {
            let (query, height) = self.subquery()?;
            self.expect_symbol(Sym::RParen)?;
            self.consume_keyword_if(Kw::As);
            let alias = self.expect_identifier()?;
            return Ok((TableSource::Derived { query, alias }, height));
        }
        let first = self.expect_identifier()?;
        let (schema, name) = if self.consume_symbol_if(Sym::Dot) {
            (Some(first), self.expect_identifier()?)
        } else {
            (None, first)
        };
        let alias = if self.consume_keyword_if(Kw::As) {
            Some(self.expect_identifier()?)
        } else if matches!(self.peek_kind(), Some(TokenKind::Identifier { .. })) {
            Some(self.bump().expect("identifier").text)
        } else {
            None
        };
        Ok((TableSource::Named { schema, name, alias }, 0))
    }

    // Expression grammar (lowest to highest precedence):
    //   or_expr    := and_expr (OR and_expr)*
    //   and_expr   := not_expr (AND not_expr)*
    //   not_expr   := NOT not_expr | predicate
    //   predicate  := additive [comparison | IS | IN | LIKE | BETWEEN]
    //   additive   := multiplicative ((+|-) multiplicative)*
    //   multiplicative := unary ((*|/|%) unary)*
    //   unary      := - unary | primary
    //
    // Operands of a binary operator or predicate are parsed at the
    // operator's own depth (the operator node is built after them), so
    // each node re-checks its height against `MAX_DEPTH` in `wrap`.
    fn parse_expr(&mut self) -> Result<Measured<Expr>, ParseError> {
        self.parse_or()
    }

    fn parse_or(&mut self) -> Result<Measured<Expr>, ParseError> {
        let (mut left, mut height) = self.parse_and()?;
        while self.consume_keyword_if(Kw::Or) {
            let (right, h) = self.parse_and()?;
            height = self.wrap(height.max(h))?;
            left = Expr::binary(left, BinOp::Or, right);
        }
        Ok((left, height))
    }

    fn parse_and(&mut self) -> Result<Measured<Expr>, ParseError> {
        let (mut left, mut height) = self.parse_not()?;
        while self.consume_keyword_if(Kw::And) {
            let (right, h) = self.parse_not()?;
            height = self.wrap(height.max(h))?;
            left = Expr::binary(left, BinOp::And, right);
        }
        Ok((left, height))
    }

    fn parse_not(&mut self) -> Result<Measured<Expr>, ParseError> {
        if self.at_keyword(Kw::Not) && !self.next_is_exists() {
            self.pos += 1;
            let (inner, h) = self.nested(Self::parse_not)?;
            let expr = Expr::Unary { op: UnaryOp::Not, expr: Box::new(inner) };
            return Ok((expr, self.wrap(h)?));
        }
        self.parse_predicate()
    }

    fn next_is_exists(&self) -> bool {
        matches!(
            self.tokens.get(self.pos + 1).map(|t| &t.kind),
            Some(TokenKind::Keyword(Kw::Exists))
        )
    }

    fn parse_predicate(&mut self) -> Result<Measured<Expr>, ParseError> {
        // [NOT] EXISTS (subquery)
        let negated_exists = self.at_keyword(Kw::Not) && self.next_is_exists();
        if negated_exists {
            self.pos += 1;
        }
        if self.consume_keyword_if(Kw::Exists) {
            self.expect_symbol(Sym::LParen)?;
            let (query, height) = self.subquery()?;
            self.expect_symbol(Sym::RParen)?;
            return Ok((Expr::Exists { query, negated: negated_exists }, height));
        }

        let (left, lh) = self.parse_additive()?;

        // IS [NOT] NULL
        if self.consume_keyword_if(Kw::Is) {
            let negated = self.consume_keyword_if(Kw::Not);
            self.expect_keyword(Kw::Null)?;
            return Ok((Expr::IsNull { expr: Box::new(left), negated }, self.wrap(lh)?));
        }

        // [NOT] IN / LIKE / BETWEEN
        let negated = self.consume_keyword_if(Kw::Not);
        if self.consume_keyword_if(Kw::In) {
            self.expect_symbol(Sym::LParen)?;
            if self.at_keyword(Kw::Select) {
                // The subquery block is this predicate's own level.
                let (query, qh) = self.subquery()?;
                self.expect_symbol(Sym::RParen)?;
                let height = self.wrap(lh)?.max(qh);
                return Ok((Expr::InSubquery { expr: Box::new(left), query, negated }, height));
            }
            let mut list = Vec::new();
            let mut height = lh;
            loop {
                let (item, h) = self.parse_additive()?;
                list.push(item);
                height = height.max(h);
                if !self.consume_symbol_if(Sym::Comma) {
                    break;
                }
            }
            self.expect_symbol(Sym::RParen)?;
            let height = self.wrap(height)?;
            return Ok((Expr::InList { expr: Box::new(left), list, negated }, height));
        }
        if self.consume_keyword_if(Kw::Like) {
            let pattern = match self.peek_kind() {
                Some(TokenKind::StringLit) => self.bump().expect("string").text,
                _ => return Err(self.error("expected string pattern after LIKE")),
            };
            return Ok((Expr::Like { expr: Box::new(left), pattern, negated }, self.wrap(lh)?));
        }
        if self.consume_keyword_if(Kw::Between) {
            let (low, low_h) = self.parse_additive()?;
            self.expect_keyword(Kw::And)?;
            let (high, high_h) = self.parse_additive()?;
            let height = self.wrap(lh.max(low_h).max(high_h))?;
            let (low, high) = (Box::new(low), Box::new(high));
            return Ok((Expr::Between { expr: Box::new(left), low, high, negated }, height));
        }
        if negated {
            return Err(self.error("expected IN, LIKE, or BETWEEN after NOT"));
        }

        // Comparison operators.
        let op = match self.peek_kind() {
            Some(TokenKind::Symbol(Sym::Eq)) => Some(BinOp::Eq),
            Some(TokenKind::Symbol(Sym::NotEq)) => Some(BinOp::NotEq),
            Some(TokenKind::Symbol(Sym::Lt)) => Some(BinOp::Lt),
            Some(TokenKind::Symbol(Sym::LtEq)) => Some(BinOp::LtEq),
            Some(TokenKind::Symbol(Sym::Gt)) => Some(BinOp::Gt),
            Some(TokenKind::Symbol(Sym::GtEq)) => Some(BinOp::GtEq),
            _ => None,
        };
        if let Some(op) = op {
            self.pos += 1;
            let (right, rh) = self.parse_additive()?;
            return Ok((Expr::binary(left, op, right), self.wrap(lh.max(rh))?));
        }
        Ok((left, lh))
    }

    fn parse_additive(&mut self) -> Result<Measured<Expr>, ParseError> {
        let (mut left, mut height) = self.parse_multiplicative()?;
        loop {
            let op = match self.peek_kind() {
                Some(TokenKind::Symbol(Sym::Plus)) => BinOp::Add,
                Some(TokenKind::Symbol(Sym::Minus)) => BinOp::Sub,
                _ => break,
            };
            self.pos += 1;
            let (right, h) = self.parse_multiplicative()?;
            height = self.wrap(height.max(h))?;
            left = Expr::binary(left, op, right);
        }
        Ok((left, height))
    }

    fn parse_multiplicative(&mut self) -> Result<Measured<Expr>, ParseError> {
        let (mut left, mut height) = self.parse_unary()?;
        loop {
            let op = match self.peek_kind() {
                Some(TokenKind::Symbol(Sym::Star)) => BinOp::Mul,
                Some(TokenKind::Symbol(Sym::Slash)) => BinOp::Div,
                Some(TokenKind::Symbol(Sym::Percent)) => BinOp::Mod,
                _ => break,
            };
            self.pos += 1;
            let (right, h) = self.parse_unary()?;
            height = self.wrap(height.max(h))?;
            left = Expr::binary(left, op, right);
        }
        Ok((left, height))
    }

    fn parse_unary(&mut self) -> Result<Measured<Expr>, ParseError> {
        if self.consume_symbol_if(Sym::Minus) {
            let (inner, h) = self.nested(Self::parse_unary)?;
            // Fold negated numeric literals so `-1` parses to `Int(-1)`,
            // keeping render → parse a fixed point.
            return Ok(match inner {
                Expr::Literal(Literal::Int(n)) => (Expr::Literal(Literal::Int(-n)), 0),
                Expr::Literal(Literal::Float(x)) => (Expr::Literal(Literal::Float(-x)), 0),
                other => {
                    let expr = Expr::Unary { op: UnaryOp::Neg, expr: Box::new(other) };
                    (expr, self.wrap(h)?)
                }
            });
        }
        self.parse_primary()
    }

    fn parse_primary(&mut self) -> Result<Measured<Expr>, ParseError> {
        match self.peek_kind().cloned() {
            Some(TokenKind::Integer(n)) => {
                self.pos += 1;
                Ok((Expr::Literal(Literal::Int(n)), 0))
            }
            Some(TokenKind::Float(f)) => {
                self.pos += 1;
                Ok((Expr::Literal(Literal::Float(f)), 0))
            }
            Some(TokenKind::StringLit) => {
                let t = self.bump().expect("string");
                Ok((Expr::Literal(Literal::Str(t.text)), 0))
            }
            Some(TokenKind::Keyword(Kw::Null)) => {
                self.pos += 1;
                Ok((Expr::Literal(Literal::Null), 0))
            }
            Some(TokenKind::Symbol(Sym::LParen)) => {
                self.pos += 1;
                if self.at_keyword(Kw::Select) {
                    let (q, height) = self.subquery()?;
                    self.expect_symbol(Sym::RParen)?;
                    Ok((Expr::Subquery(q), height))
                } else {
                    // A parenthesized group leaves no node behind but is a
                    // level of parser recursion, so it counts as one.
                    let (e, h) = self.nested(Self::parse_expr)?;
                    self.expect_symbol(Sym::RParen)?;
                    Ok((e, self.wrap(h)?))
                }
            }
            Some(TokenKind::Keyword(Kw::Case)) => {
                self.pos += 1;
                self.parse_case()
            }
            Some(TokenKind::Identifier { .. }) => self.parse_identifier_expr(),
            _ => Err(self.error("expected expression")),
        }
    }

    /// `CASE [operand] WHEN e THEN e ... [ELSE e] END` (CASE consumed).
    fn parse_case(&mut self) -> Result<Measured<Expr>, ParseError> {
        let (expr, h) = self.nested(|p| {
            let mut height = 0;
            let mut part = |p: &mut Self| -> Result<Expr, ParseError> {
                let (e, h) = p.parse_expr()?;
                height = height.max(h);
                Ok(e)
            };
            let operand = if p.at_keyword(Kw::When) { None } else { Some(Box::new(part(p)?)) };
            let mut branches = Vec::new();
            while p.consume_keyword_if(Kw::When) {
                let when = part(p)?;
                p.expect_keyword(Kw::Then)?;
                branches.push((when, part(p)?));
            }
            if branches.is_empty() {
                return Err(p.error("CASE requires at least one WHEN branch"));
            }
            let else_expr =
                if p.consume_keyword_if(Kw::Else) { Some(Box::new(part(p)?)) } else { None };
            p.expect_keyword(Kw::End)?;
            Ok((Expr::Case { operand, branches, else_expr }, height))
        })?;
        Ok((expr, self.wrap(h)?))
    }

    /// Identifier-led expressions: `col`, `tbl.col`, `FUNC(...)`.
    fn parse_identifier_expr(&mut self) -> Result<Measured<Expr>, ParseError> {
        let first = self.bump().expect("identifier").text;
        if self.consume_symbol_if(Sym::LParen) {
            // Function call.
            let name = first.to_ascii_uppercase();
            let distinct = self.consume_keyword_if(Kw::Distinct);
            let (args, h) = self.nested(|p| {
                let (mut args, mut height) = (Vec::new(), 0);
                if !p.at_symbol(Sym::RParen) {
                    loop {
                        if p.consume_symbol_if(Sym::Star) {
                            args.push(FunctionArg::Wildcard);
                        } else {
                            let (e, h) = p.parse_expr()?;
                            args.push(FunctionArg::Expr(e));
                            height = height.max(h);
                        }
                        if !p.consume_symbol_if(Sym::Comma) {
                            break;
                        }
                    }
                }
                Ok((args, height))
            })?;
            self.expect_symbol(Sym::RParen)?;
            return Ok((Expr::Function { name, args, distinct }, self.wrap(h)?));
        }
        if self.consume_symbol_if(Sym::Dot) {
            let col = self.expect_identifier()?;
            return Ok((Expr::Column(ColumnRef::qualified(&first, &col)), 0));
        }
        Ok((Expr::Column(ColumnRef::bare(&first)), 0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_select() {
        let s = parse_select("SELECT a, b FROM t").unwrap();
        assert_eq!(s.items.len(), 2);
        assert!(matches!(s.from, Some(TableSource::Named { ref name, .. }) if name == "t"));
    }

    #[test]
    fn count_star_group_by() {
        let s = parse_select(
            "SELECT LcTp, COUNT(*) AS LocationCount FROM Locs \
             WHERE Cty = 'Shasta County' GROUP BY LcTp",
        )
        .unwrap();
        assert_eq!(s.group_by.len(), 1);
        assert!(s.where_clause.is_some());
        match &s.items[1] {
            SelectItem::Expr { expr: Expr::Function { name, args, .. }, alias } => {
                assert_eq!(name, "COUNT");
                assert_eq!(args, &[FunctionArg::Wildcard]);
                assert_eq!(alias.as_deref(), Some("LocationCount"));
            }
            other => panic!("unexpected item {other:?}"),
        }
    }

    #[test]
    fn joins_with_aliases() {
        let s = parse_select(
            "SELECT StatusOfP FROM OHEM employees \
             JOIN HTM1 teamMembers ON employees.empId = teamMembers.empID \
             JOIN OHTM emplTeams ON teamMembers.teamID = emplTeams.teamID \
             WHERE emplTeams.name = 'Purchasing'",
        )
        .unwrap();
        assert_eq!(s.joins.len(), 2);
        assert_eq!(s.joins[0].kind, JoinKind::Inner);
        assert_eq!(s.joins[0].source.binding_name(), "teamMembers");
    }

    #[test]
    fn left_join_and_is_null() {
        let s = parse_select(
            "SELECT DISTINCT p.species FROM tlu_PlantSpecies p \
             LEFT JOIN tbl_Saplings s ON s.SpCode = p.SpeciesCode \
             WHERE s.SpCode IS NULL",
        )
        .unwrap();
        assert!(s.distinct);
        assert_eq!(s.joins[0].kind, JoinKind::Left);
        assert!(matches!(
            s.where_clause,
            Some(Expr::IsNull { negated: false, .. })
        ));
    }

    #[test]
    fn exists_and_not_exists() {
        let s = parse_select(
            "SELECT species FROM tlu_PlantSpecies sp WHERE EXISTS( \
               SELECT overstory_id FROM tbl_Overstory WHERE SpCode = sp.SpeciesCode ) \
             AND NOT EXISTS ( \
               SELECT Seedlings_ID FROM tbl_Seedlings WHERE SpCode = sp.SpeciesCode )",
        )
        .unwrap();
        let w = s.where_clause.unwrap();
        match w {
            Expr::Binary { left, op: BinOp::And, right } => {
                assert!(matches!(*left, Expr::Exists { negated: false, .. }));
                assert!(matches!(*right, Expr::Exists { negated: true, .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn top_and_order_by() {
        let s = parse_select("SELECT TOP 5 a FROM t ORDER BY a DESC, b").unwrap();
        assert_eq!(s.top, Some(5));
        assert_eq!(s.order_by.len(), 2);
        assert!(s.order_by[0].descending);
        assert!(!s.order_by[1].descending);
    }

    #[test]
    fn in_list_and_in_subquery() {
        let s = parse_select("SELECT a FROM t WHERE a IN (1, 2, 3)").unwrap();
        assert!(matches!(
            s.where_clause,
            Some(Expr::InList { negated: false, ref list, .. }) if list.len() == 3
        ));
        let s = parse_select("SELECT a FROM t WHERE a NOT IN (SELECT b FROM u)").unwrap();
        assert!(matches!(
            s.where_clause,
            Some(Expr::InSubquery { negated: true, .. })
        ));
    }

    #[test]
    fn between_and_like() {
        let s = parse_select("SELECT a FROM t WHERE a BETWEEN 1 AND 10 AND b LIKE 'x%'")
            .unwrap();
        assert!(s.where_clause.is_some());
        let s2 =
            parse_select("SELECT a FROM t WHERE b NOT LIKE '%y' AND a NOT BETWEEN 2 AND 3")
                .unwrap();
        assert!(s2.where_clause.is_some());
    }

    #[test]
    fn having_clause() {
        let s = parse_select(
            "SELECT stage, SUM(count_) c FROM surveys GROUP BY stage HAVING SUM(count_) > 10",
        )
        .unwrap();
        assert!(s.having.is_some());
    }

    #[test]
    fn derived_table() {
        let s = parse_select(
            "SELECT x.n FROM (SELECT COUNT(*) AS n FROM t GROUP BY a) x WHERE x.n > 2",
        )
        .unwrap();
        assert!(matches!(s.from, Some(TableSource::Derived { ref alias, .. }) if alias == "x"));
    }

    #[test]
    fn bracketed_identifiers_parse() {
        let s = parse_select("SELECT [LOC_TYPE] FROM [TBL_LOCATIONS] WHERE [COUNTY] = 'X'")
            .unwrap();
        assert!(matches!(s.from, Some(TableSource::Named { ref name, .. }) if name == "TBL_LOCATIONS"));
    }

    #[test]
    fn schema_qualified_table() {
        let s = parse_select("SELECT a FROM db_nl.locations").unwrap();
        assert!(matches!(
            s.from,
            Some(TableSource::Named { schema: Some(ref sch), ref name, .. })
                if sch == "db_nl" && name == "locations"
        ));
    }

    #[test]
    fn create_view() {
        let stmt = parse(
            "CREATE VIEW db_nl.[table_deadwood] AS SELECT [MPD] AS [Midpoint_Diameter] \
             FROM dbo.[tbl_Deadwood]",
        )
        .unwrap();
        assert!(matches!(stmt, Statement::CreateView { .. }));
    }

    #[test]
    fn arithmetic_precedence() {
        let s = parse_select("SELECT a + b * c FROM t").unwrap();
        match &s.items[0] {
            SelectItem::Expr { expr: Expr::Binary { op: BinOp::Add, right, .. }, .. } => {
                assert!(matches!(**right, Expr::Binary { op: BinOp::Mul, .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn and_binds_tighter_than_or() {
        let s = parse_select("SELECT a FROM t WHERE x = 1 OR y = 2 AND z = 3").unwrap();
        assert!(matches!(
            s.where_clause,
            Some(Expr::Binary { op: BinOp::Or, .. })
        ));
    }

    #[test]
    fn trailing_semicolon_ok() {
        assert!(parse("SELECT a FROM t;").is_ok());
    }

    #[test]
    fn errors_are_positioned() {
        let err = parse_select("SELECT FROM t").unwrap_err();
        assert_eq!(err.position, 7);
        assert!(parse_select("SELECT a FROM").is_err());
        assert!(parse_select("").is_err());
        assert!(parse_select("SELECT a FROM t WHERE").is_err());
        assert!(parse_select("SELECT a FROM t extra garbage tokens +").is_err());
    }

    #[test]
    fn not_predicate() {
        let s = parse_select("SELECT a FROM t WHERE NOT a = 1").unwrap();
        assert!(matches!(
            s.where_clause,
            Some(Expr::Unary { op: UnaryOp::Not, .. })
        ));
    }

    #[test]
    fn scalar_subquery() {
        let s = parse_select("SELECT a FROM t WHERE a > (SELECT AVG(a) FROM t)").unwrap();
        match s.where_clause.unwrap() {
            Expr::Binary { right, .. } => assert!(matches!(*right, Expr::Subquery(_))),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn union_parses_and_chains() {
        let s = parse_select("SELECT a FROM t UNION SELECT a FROM u UNION ALL SELECT a FROM v")
            .unwrap();
        let (k1, rhs) = s.union.as_ref().expect("first union");
        assert_eq!(*k1, UnionKind::Distinct);
        let (k2, _) = rhs.union.as_ref().expect("second union");
        assert_eq!(*k2, UnionKind::All);
        // Render round trip.
        let stmt = Statement::Select(s);
        assert_eq!(parse(&stmt.to_string()).unwrap(), stmt);
    }

    #[test]
    fn case_expressions_parse() {
        let s = parse_select(
            "SELECT CASE WHEN a > 1 THEN 'hi' WHEN a > 0 THEN 'mid' ELSE 'lo' END FROM t",
        )
        .unwrap();
        match &s.items[0] {
            SelectItem::Expr { expr: Expr::Case { operand, branches, else_expr }, .. } => {
                assert!(operand.is_none());
                assert_eq!(branches.len(), 2);
                assert!(else_expr.is_some());
            }
            other => panic!("unexpected {other:?}"),
        }
        // Simple case with operand, no else.
        let s = parse_select("SELECT CASE status WHEN 'open' THEN 1 END FROM t").unwrap();
        match &s.items[0] {
            SelectItem::Expr { expr: Expr::Case { operand, else_expr, .. }, .. } => {
                assert!(operand.is_some());
                assert!(else_expr.is_none());
            }
            other => panic!("unexpected {other:?}"),
        }
        // Missing WHEN is an error.
        assert!(parse_select("SELECT CASE ELSE 1 END FROM t").is_err());
        assert!(parse_select("SELECT CASE WHEN a THEN 1 FROM t").is_err());
    }

    /// One statement per nesting shape, each `levels` deep.
    fn nested_shapes(levels: usize) -> Vec<String> {
        vec![
            format!("SELECT {}1{}", "(".repeat(levels), ")".repeat(levels)),
            format!("SELECT {}1{}", "(SELECT ".repeat(levels), ")".repeat(levels)),
            format!("SELECT a FROM t WHERE a IN {}1{}", "(SELECT ".repeat(levels), ")".repeat(levels)),
            format!("SELECT {}a FROM t", "- ".repeat(levels)),
            format!("SELECT a FROM t WHERE {}a = 1", "NOT ".repeat(levels - 1)),
            format!("SELECT a{} FROM t", " + 1".repeat(levels)),
            format!("SELECT a FROM t WHERE a = 1{}", " OR a = 1".repeat(levels - 1)),
            format!("SELECT {}a{}", "ABS(".repeat(levels), ")".repeat(levels)),
            format!("SELECT {}a{}", "CASE WHEN ".repeat(levels), " THEN 1 END".repeat(levels)),
            format!("SELECT 1{}", " UNION SELECT 1".repeat(levels)),
            // A parenthesized chain inside a chain: both chains' operators
            // and the group itself count.
            format!("SELECT (1{}){}", " + 1".repeat(levels / 2), " * 2".repeat(levels - levels / 2 - 1)),
        ]
    }

    #[test]
    fn nesting_up_to_max_depth_parses_and_one_more_is_too_deep() {
        for sql in nested_shapes(MAX_DEPTH) {
            if let Err(e) = parse(&sql) {
                panic!("{e} at the limit: {}", &sql[..60]);
            }
        }
        for sql in nested_shapes(MAX_DEPTH + 1) {
            let err = parse(&sql).expect_err(&sql[..60]);
            assert_eq!(err.kind, ParseErrorKind::TooDeep, "{}", &sql[..60]);
        }
        // Ordinary syntax errors stay syntax errors.
        assert_eq!(parse("SELECT FROM t").unwrap_err().kind, ParseErrorKind::Syntax);
    }

    #[test]
    fn huge_nesting_fails_typed_on_a_worker_sized_stack() {
        // 5,000 parentheses and a 20,000-term chain used to abort the
        // process; the parser now refuses them after MAX_DEPTH levels.
        let parens = format!("SELECT {}1{}", "(".repeat(5_000), ")".repeat(5_000));
        let chain = format!("SELECT 1{}", "+1".repeat(20_000));
        let kinds = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || [parse(&parens), parse(&chain)].map(|r| r.unwrap_err().kind))
            .unwrap()
            .join()
            .unwrap();
        assert_eq!(kinds, [ParseErrorKind::TooDeep; 2]);
    }

    #[test]
    fn function_with_distinct_arg() {
        let s = parse_select("SELECT COUNT(DISTINCT species) FROM obs").unwrap();
        match &s.items[0] {
            SelectItem::Expr { expr: Expr::Function { distinct, .. }, .. } => {
                assert!(distinct)
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The parser must never panic, whatever the input.
        #[test]
        fn parser_never_panics(input in ".{0,120}") {
            let _ = parse(&input);
        }

        /// Identifier-shaped garbage parses or errors cleanly.
        #[test]
        fn sqlish_fuzz(
            a in "[A-Za-z_][A-Za-z0-9_]{0,8}",
            b in "[A-Za-z_][A-Za-z0-9_]{0,8}",
            n in 0i64..1000
        ) {
            let q = format!("SELECT {a} FROM {b} WHERE {a} = {n}");
            let parsed = parse_select(&q);
            // Keywords can collide with generated identifiers; both outcomes
            // are acceptable, but success must produce a FROM clause.
            if let Ok(s) = parsed {
                prop_assert!(s.from.is_some());
            }
        }
    }
}
