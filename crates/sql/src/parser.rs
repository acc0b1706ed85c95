//! Recursive-descent SQL parser.
//!
//! Covers the "full SQL" surface SQLShare exposes (§3.5): SELECT with
//! DISTINCT/TOP, joins (INNER/LEFT/RIGHT/FULL/CROSS), derived tables,
//! WHERE/GROUP BY/HAVING/ORDER BY, set operations, scalar and windowed
//! function calls, CASE, CAST/TRY_CAST, IS NULL, IN (list|subquery),
//! BETWEEN, LIKE, EXISTS, and scalar subqueries.

use crate::ast::*;
use crate::lexer::tokenize;
use crate::token::{Spanned, Token};
use sqlshare_common::{Error, Result};

/// Parse a single query (`SELECT ...`).
pub fn parse_query(sql: &str) -> Result<Query> {
    let mut p = Parser::new(sql)?;
    let q = p.query()?;
    p.eat(&Token::Semicolon);
    p.expect_eof()?;
    Ok(q)
}

/// Parse a statement, classifying forbidden DDL/DML instead of erroring.
pub fn parse_statement(sql: &str) -> Result<Statement> {
    let mut p = Parser::new(sql)?;
    match p.peek() {
        Some(t) if t.is_keyword("SELECT") || *t == Token::LParen => {
            let q = p.query()?;
            p.eat(&Token::Semicolon);
            p.expect_eof()?;
            Ok(Statement::Select(q))
        }
        Some(Token::Word(w)) => {
            let upper = w.to_ascii_uppercase();
            match upper.as_str() {
                "CREATE" | "INSERT" | "UPDATE" | "DELETE" | "DROP" | "ALTER" | "TRUNCATE"
                | "GRANT" | "REVOKE" | "MERGE" | "EXEC" | "EXECUTE" => {
                    Ok(Statement::Unsupported(upper))
                }
                _ => Err(Error::Parse(format!("expected SELECT, found '{w}'"))),
            }
        }
        other => Err(Error::Parse(format!(
            "expected a statement, found {other:?}"
        ))),
    }
}

/// Maximum depth of a parsed tree; guards against stack overflow on
/// adversarial input (the service is exposed to arbitrary user SQL). Both
/// nesting (parentheses, subqueries, function arguments, unary operators)
/// and each link of a left-deep chain (`a AND b AND c`, `x + y + z`,
/// `... UNION ALL ...`, joins, comma-separated `FROM` inputs) count, so
/// no tree the parser returns is
/// deeper than this for the recursive passes that walk it later (binder,
/// optimizer, executors, `Display`, `Drop`).
pub const MAX_DEPTH: usize = 60;

struct Parser {
    tokens: Vec<Spanned>,
    pos: usize,
    depth: usize,
}

impl Parser {
    fn new(sql: &str) -> Result<Self> {
        Ok(Parser {
            tokens: tokenize(sql)?,
            pos: 0,
            depth: 0,
        })
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos).map(|s| &s.token)
    }

    fn peek_at(&self, n: usize) -> Option<&Token> {
        self.tokens.get(self.pos + n).map(|s| &s.token)
    }

    fn bump(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).map(|s| s.token.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn offset(&self) -> usize {
        self.tokens
            .get(self.pos)
            .map(|s| s.offset)
            .unwrap_or(usize::MAX)
    }

    fn err(&self, msg: impl Into<String>) -> Error {
        let at = match self.peek() {
            Some(t) => format!("near '{t}' (byte {})", self.offset()),
            None => "at end of input".to_string(),
        };
        Error::Parse(format!("{} {at}", msg.into()))
    }

    fn eat(&mut self, t: &Token) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek().map(|t| t.is_keyword(kw)).unwrap_or(false) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn peek_kw(&self, kw: &str) -> bool {
        self.peek().map(|t| t.is_keyword(kw)).unwrap_or(false)
    }

    fn expect_token(&mut self, t: &Token) -> Result<()> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(self.err(format!("expected '{t}'")))
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.err(format!("expected {kw}")))
        }
    }

    fn expect_eof(&self) -> Result<()> {
        if self.pos == self.tokens.len() {
            Ok(())
        } else {
            Err(self.err("unexpected trailing input"))
        }
    }

    /// Go one level deeper: into a nested construct, or one more link of
    /// a chain. The caller restores the depth it started from once its
    /// construct is parsed; a parse error ends the whole parse, so error
    /// paths need not.
    fn descend(&mut self) -> Result<()> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(Error::Parse(format!(
                "query nesting too deep (more than {MAX_DEPTH} levels)"
            )));
        }
        Ok(())
    }

    /// Parse one nested construct with `parse`, one level deeper.
    fn nested<T>(&mut self, parse: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        self.descend()?;
        let out = parse(self)?;
        self.depth -= 1;
        Ok(out)
    }

    fn ident(&mut self) -> Result<String> {
        match self.peek() {
            Some(t) => match t.as_ident() {
                Some(_) => {
                    match self.bump().unwrap() {
                        Token::Word(w) | Token::QuotedIdent(w) => Ok(w),
                        _ => unreachable!(),
                    }
                }
                None => Err(self.err("expected identifier")),
            },
            None => Err(self.err("expected identifier")),
        }
    }

    // ---- queries -------------------------------------------------------

    fn query(&mut self) -> Result<Query> {
        let base = self.depth;
        self.descend()?;
        let mut body = self.set_term()?;
        loop {
            let op = if self.eat_kw("UNION") {
                SetOp::Union
            } else if self.eat_kw("INTERSECT") {
                SetOp::Intersect
            } else if self.eat_kw("EXCEPT") {
                SetOp::Except
            } else {
                break;
            };
            self.descend()?;
            let all = self.eat_kw("ALL");
            let right = self.set_term()?;
            body = SetExpr::SetOp {
                op,
                all,
                left: Box::new(body),
                right: Box::new(right),
            };
        }
        let mut order_by = Vec::new();
        if self.eat_kw("ORDER") {
            self.expect_kw("BY")?;
            loop {
                order_by.push(self.order_by_item()?);
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
        }
        self.depth = base;
        Ok(Query { body, order_by })
    }

    /// One term of a set-op chain: a SELECT or a parenthesized query.
    fn set_term(&mut self) -> Result<SetExpr> {
        if self.eat(&Token::LParen) {
            let q = self.query()?;
            self.expect_token(&Token::RParen)?;
            // Flatten: a parenthesized query with no ORDER BY is just its
            // body; otherwise T-SQL forbids inner ORDER BY in set ops, so
            // we reject to stay faithful.
            if q.order_by.is_empty() {
                Ok(q.body)
            } else {
                Err(Error::Parse(
                    "ORDER BY is not allowed in a parenthesized set-operation operand".into(),
                ))
            }
        } else {
            Ok(SetExpr::Select(Box::new(self.select()?)))
        }
    }

    fn order_by_item(&mut self) -> Result<OrderByItem> {
        let expr = self.expr()?;
        let desc = if self.eat_kw("DESC") {
            true
        } else {
            self.eat_kw("ASC");
            false
        };
        Ok(OrderByItem { expr, desc })
    }

    fn select(&mut self) -> Result<Select> {
        self.expect_kw("SELECT")?;
        let distinct = if self.eat_kw("DISTINCT") {
            true
        } else {
            self.eat_kw("ALL");
            false
        };
        let top = if self.eat_kw("TOP") {
            let parened = self.eat(&Token::LParen);
            let quantity = match self.bump() {
                Some(Token::Number(n)) => n
                    .parse::<u64>()
                    .map_err(|_| Error::Parse(format!("TOP quantity '{n}' is not an integer")))?,
                _ => return Err(self.err("expected integer after TOP")),
            };
            if parened {
                self.expect_token(&Token::RParen)?;
            }
            let percent = self.eat_kw("PERCENT");
            Some(Top { quantity, percent })
        } else {
            None
        };

        let mut projection = vec![self.select_item()?];
        while self.eat(&Token::Comma) {
            projection.push(self.select_item()?);
        }

        // The binder joins comma-separated inputs left-deep, so each one
        // after the first is one more link of a join chain.
        let mut from = Vec::new();
        if self.eat_kw("FROM") {
            let base = self.depth;
            from.push(self.table_ref()?);
            while self.eat(&Token::Comma) {
                self.descend()?;
                from.push(self.table_ref()?);
            }
            self.depth = base;
        }

        let selection = if self.eat_kw("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };

        let mut group_by = Vec::new();
        if self.eat_kw("GROUP") {
            self.expect_kw("BY")?;
            loop {
                group_by.push(self.expr()?);
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
        }

        let having = if self.eat_kw("HAVING") {
            Some(self.expr()?)
        } else {
            None
        };

        Ok(Select {
            distinct,
            top,
            projection,
            from,
            selection,
            group_by,
            having,
        })
    }

    fn select_item(&mut self) -> Result<SelectItem> {
        if self.eat(&Token::Star) {
            return Ok(SelectItem::Wildcard);
        }
        // `ident.*`
        if let (Some(t0), Some(Token::Dot), Some(Token::Star)) =
            (self.peek(), self.peek_at(1), self.peek_at(2))
        {
            if t0.as_ident().is_some() {
                let q = self.ident()?;
                self.bump(); // .
                self.bump(); // *
                return Ok(SelectItem::QualifiedWildcard(q));
            }
        }
        let expr = self.expr()?;
        let alias = self.alias()?;
        Ok(SelectItem::Expr { expr, alias })
    }

    /// `[AS] identifier`, where a bare identifier alias must not be a
    /// clause keyword.
    fn alias(&mut self) -> Result<Option<String>> {
        if self.eat_kw("AS") {
            return Ok(Some(self.ident()?));
        }
        match self.peek() {
            Some(Token::QuotedIdent(_)) => Ok(Some(self.ident()?)),
            Some(Token::Word(w)) if !is_clause_boundary(w) => Ok(Some(self.ident()?)),
            _ => Ok(None),
        }
    }

    // ---- FROM clause ---------------------------------------------------

    fn table_ref(&mut self) -> Result<TableRef> {
        let base = self.depth;
        let mut left = self.table_primary()?;
        loop {
            let kind = if self.eat_kw("CROSS") {
                self.expect_kw("JOIN")?;
                JoinKind::Cross
            } else if self.eat_kw("INNER") {
                self.expect_kw("JOIN")?;
                JoinKind::Inner
            } else if self.eat_kw("LEFT") {
                self.eat_kw("OUTER");
                self.expect_kw("JOIN")?;
                JoinKind::Left
            } else if self.eat_kw("RIGHT") {
                self.eat_kw("OUTER");
                self.expect_kw("JOIN")?;
                JoinKind::Right
            } else if self.eat_kw("FULL") {
                self.eat_kw("OUTER");
                self.expect_kw("JOIN")?;
                JoinKind::Full
            } else if self.eat_kw("JOIN") {
                JoinKind::Inner
            } else {
                break;
            };
            self.descend()?;
            let right = self.table_primary()?;
            let constraint = if kind == JoinKind::Cross {
                None
            } else {
                self.expect_kw("ON")?;
                Some(self.expr()?)
            };
            left = TableRef::Join {
                left: Box::new(left),
                right: Box::new(right),
                kind,
                constraint,
            };
        }
        self.depth = base;
        Ok(left)
    }

    fn table_primary(&mut self) -> Result<TableRef> {
        if self.eat(&Token::LParen) {
            // Either a derived table (subquery) or a parenthesized join.
            if self.peek_kw("SELECT") || self.peek() == Some(&Token::LParen) {
                let q = self.nested(Self::query)?;
                self.expect_token(&Token::RParen)?;
                let alias = self
                    .alias()?
                    .ok_or_else(|| self.err("derived table requires an alias"))?;
                return Ok(TableRef::Derived {
                    subquery: Box::new(q),
                    alias,
                });
            }
            let inner = self.nested(Self::table_ref)?;
            self.expect_token(&Token::RParen)?;
            return Ok(inner);
        }
        let mut parts = vec![self.ident()?];
        while self.peek() == Some(&Token::Dot) && self.peek_at(1).and_then(Token::as_ident).is_some()
        {
            self.bump();
            parts.push(self.ident()?);
        }
        let alias = self.alias()?;
        Ok(TableRef::Named {
            name: ObjectName(parts),
            alias,
        })
    }

    // ---- expressions ---------------------------------------------------

    fn expr(&mut self) -> Result<Expr> {
        self.nested(Self::or_expr)
    }

    fn or_expr(&mut self) -> Result<Expr> {
        let base = self.depth;
        let mut left = self.and_expr()?;
        while self.eat_kw("OR") {
            self.descend()?;
            let right = self.and_expr()?;
            left = Expr::Binary {
                left: Box::new(left),
                op: BinaryOp::Or,
                right: Box::new(right),
            };
        }
        self.depth = base;
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<Expr> {
        let base = self.depth;
        let mut left = self.not_expr()?;
        while self.eat_kw("AND") {
            self.descend()?;
            let right = self.not_expr()?;
            left = Expr::Binary {
                left: Box::new(left),
                op: BinaryOp::And,
                right: Box::new(right),
            };
        }
        self.depth = base;
        Ok(left)
    }

    fn not_expr(&mut self) -> Result<Expr> {
        if self.eat_kw("NOT") {
            let inner = self.nested(Self::not_expr)?;
            return Ok(Expr::Unary {
                op: UnaryOp::Not,
                expr: Box::new(inner),
            });
        }
        self.comparison()
    }

    fn comparison(&mut self) -> Result<Expr> {
        let base = self.depth;
        let mut left = self.additive()?;
        loop {
            // Postfix predicates.
            if self.eat_kw("IS") {
                self.descend()?;
                let negated = self.eat_kw("NOT");
                self.expect_kw("NULL")?;
                left = Expr::IsNull {
                    expr: Box::new(left),
                    negated,
                };
                continue;
            }
            let negated = if self.peek_kw("NOT")
                && self
                    .peek_at(1)
                    .map(|t| t.is_keyword("IN") || t.is_keyword("LIKE") || t.is_keyword("BETWEEN"))
                    .unwrap_or(false)
            {
                self.bump();
                true
            } else {
                false
            };
            if self.eat_kw("IN") {
                self.descend()?;
                self.expect_token(&Token::LParen)?;
                if self.peek_kw("SELECT") {
                    let q = self.query()?;
                    self.expect_token(&Token::RParen)?;
                    left = Expr::InSubquery {
                        expr: Box::new(left),
                        subquery: Box::new(q),
                        negated,
                    };
                } else {
                    let mut list = vec![self.expr()?];
                    while self.eat(&Token::Comma) {
                        list.push(self.expr()?);
                    }
                    self.expect_token(&Token::RParen)?;
                    left = Expr::InList {
                        expr: Box::new(left),
                        list,
                        negated,
                    };
                }
                continue;
            }
            if self.eat_kw("LIKE") {
                self.descend()?;
                let pattern = self.additive()?;
                left = Expr::Like {
                    expr: Box::new(left),
                    pattern: Box::new(pattern),
                    negated,
                };
                continue;
            }
            if self.eat_kw("BETWEEN") {
                self.descend()?;
                let low = self.additive()?;
                self.expect_kw("AND")?;
                let high = self.additive()?;
                left = Expr::Between {
                    expr: Box::new(left),
                    low: Box::new(low),
                    high: Box::new(high),
                    negated,
                };
                continue;
            }
            if negated {
                return Err(self.err("expected IN, LIKE, or BETWEEN after NOT"));
            }
            let op = match self.peek() {
                Some(Token::Eq) => BinaryOp::Eq,
                Some(Token::Neq) => BinaryOp::NotEq,
                Some(Token::Lt) => BinaryOp::Lt,
                Some(Token::LtEq) => BinaryOp::LtEq,
                Some(Token::Gt) => BinaryOp::Gt,
                Some(Token::GtEq) => BinaryOp::GtEq,
                _ => break,
            };
            self.bump();
            self.descend()?;
            let right = self.additive()?;
            left = Expr::Binary {
                left: Box::new(left),
                op,
                right: Box::new(right),
            };
        }
        self.depth = base;
        Ok(left)
    }

    fn additive(&mut self) -> Result<Expr> {
        let base = self.depth;
        let mut left = self.multiplicative()?;
        loop {
            let op = match self.peek() {
                Some(Token::Plus) => BinaryOp::Add,
                Some(Token::Minus) => BinaryOp::Sub,
                Some(Token::Concat) => BinaryOp::Concat,
                _ => break,
            };
            self.bump();
            self.descend()?;
            let right = self.multiplicative()?;
            left = Expr::Binary {
                left: Box::new(left),
                op,
                right: Box::new(right),
            };
        }
        self.depth = base;
        Ok(left)
    }

    fn multiplicative(&mut self) -> Result<Expr> {
        let base = self.depth;
        let mut left = self.unary()?;
        loop {
            let op = match self.peek() {
                Some(Token::Star) => BinaryOp::Mul,
                Some(Token::Slash) => BinaryOp::Div,
                Some(Token::Percent) => BinaryOp::Mod,
                _ => break,
            };
            self.bump();
            self.descend()?;
            let right = self.unary()?;
            left = Expr::Binary {
                left: Box::new(left),
                op,
                right: Box::new(right),
            };
        }
        self.depth = base;
        Ok(left)
    }

    fn unary(&mut self) -> Result<Expr> {
        if self.eat(&Token::Minus) {
            // Fold -literal into a negative literal for canonical ASTs.
            let inner = self.nested(Self::unary)?;
            return Ok(match inner {
                Expr::Literal(Literal::Int(i)) => Expr::Literal(Literal::Int(-i)),
                Expr::Literal(Literal::Float(v)) => Expr::Literal(Literal::Float(-v)),
                other => Expr::Unary {
                    op: UnaryOp::Neg,
                    expr: Box::new(other),
                },
            });
        }
        if self.eat(&Token::Plus) {
            return self.nested(Self::unary);
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<Expr> {
        match self.peek().cloned() {
            Some(Token::Number(n)) => {
                self.bump();
                if n.contains('.') || n.contains('e') || n.contains('E') {
                    let v: f64 = n
                        .parse()
                        .map_err(|_| Error::Parse(format!("bad numeric literal '{n}'")))?;
                    Ok(Expr::Literal(Literal::Float(v)))
                } else {
                    match n.parse::<i64>() {
                        Ok(i) => Ok(Expr::Literal(Literal::Int(i))),
                        Err(_) => {
                            let v: f64 = n
                                .parse()
                                .map_err(|_| Error::Parse(format!("bad numeric literal '{n}'")))?;
                            Ok(Expr::Literal(Literal::Float(v)))
                        }
                    }
                }
            }
            Some(Token::StringLit(s)) => {
                self.bump();
                Ok(Expr::Literal(Literal::String(s)))
            }
            Some(Token::LParen) => {
                self.bump();
                if self.peek_kw("SELECT") {
                    let q = self.nested(Self::query)?;
                    self.expect_token(&Token::RParen)?;
                    Ok(Expr::ScalarSubquery(Box::new(q)))
                } else {
                    let e = self.expr()?;
                    self.expect_token(&Token::RParen)?;
                    Ok(e)
                }
            }
            Some(Token::Word(w)) => {
                let upper = w.to_ascii_uppercase();
                match upper.as_str() {
                    "NULL" => {
                        self.bump();
                        Ok(Expr::Literal(Literal::Null))
                    }
                    "TRUE" => {
                        self.bump();
                        Ok(Expr::Literal(Literal::Bool(true)))
                    }
                    "FALSE" => {
                        self.bump();
                        Ok(Expr::Literal(Literal::Bool(false)))
                    }
                    "CASE" => self.case_expr(),
                    "CAST" | "TRY_CAST" => self.cast_expr(upper == "TRY_CAST"),
                    "EXISTS" => {
                        self.bump();
                        self.expect_token(&Token::LParen)?;
                        let q = self.nested(Self::query)?;
                        self.expect_token(&Token::RParen)?;
                        Ok(Expr::Exists {
                            subquery: Box::new(q),
                            negated: false,
                        })
                    }
                    // A clause keyword cannot start an expression unless it
                    // is being called as a function (T-SQL `LEFT(s, n)`).
                    _ if is_clause_boundary(&w)
                        && self.peek_at(1) != Some(&Token::LParen) =>
                    {
                        Err(self.err(format!("unexpected keyword '{w}' in expression")))
                    }
                    _ => self.column_or_function(),
                }
            }
            Some(Token::QuotedIdent(_)) => self.column_or_function(),
            other => Err(self.err(format!("unexpected token {other:?} in expression"))),
        }
    }

    fn case_expr(&mut self) -> Result<Expr> {
        self.expect_kw("CASE")?;
        let operand = if self.peek_kw("WHEN") {
            None
        } else {
            Some(Box::new(self.expr()?))
        };
        let mut branches = Vec::new();
        while self.eat_kw("WHEN") {
            let cond = self.expr()?;
            self.expect_kw("THEN")?;
            let value = self.expr()?;
            branches.push((cond, value));
        }
        if branches.is_empty() {
            return Err(self.err("CASE requires at least one WHEN branch"));
        }
        let else_result = if self.eat_kw("ELSE") {
            Some(Box::new(self.expr()?))
        } else {
            None
        };
        self.expect_kw("END")?;
        Ok(Expr::Case {
            operand,
            branches,
            else_result,
        })
    }

    fn cast_expr(&mut self, try_cast: bool) -> Result<Expr> {
        self.bump(); // CAST / TRY_CAST
        self.expect_token(&Token::LParen)?;
        let expr = self.expr()?;
        self.expect_kw("AS")?;
        let ty = self.type_name()?;
        self.expect_token(&Token::RParen)?;
        Ok(Expr::Cast {
            expr: Box::new(expr),
            ty,
            try_cast,
        })
    }

    fn type_name(&mut self) -> Result<TypeName> {
        let name = self.ident()?.to_ascii_uppercase();
        let ty = match name.as_str() {
            "INT" | "INTEGER" | "SMALLINT" | "TINYINT" => TypeName::Int,
            "BIGINT" => TypeName::BigInt,
            "FLOAT" | "REAL" | "DOUBLE" => TypeName::Float,
            "DECIMAL" | "NUMERIC" => TypeName::Decimal,
            "VARCHAR" | "NVARCHAR" | "CHAR" | "NCHAR" | "TEXT" => TypeName::Varchar,
            "DATE" => TypeName::Date,
            "DATETIME" | "DATETIME2" | "TIMESTAMP" => TypeName::DateTime,
            "BIT" | "BOOLEAN" => TypeName::Bit,
            other => return Err(Error::Parse(format!("unknown type name '{other}'"))),
        };
        // Optional (precision[, scale]) or (n) or (MAX).
        if self.eat(&Token::LParen) {
            loop {
                match self.bump() {
                    Some(Token::Number(_)) => {}
                    Some(Token::Word(w)) if w.eq_ignore_ascii_case("MAX") => {}
                    _ => return Err(self.err("expected length/precision in type")),
                }
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
            self.expect_token(&Token::RParen)?;
        }
        Ok(ty)
    }

    fn column_or_function(&mut self) -> Result<Expr> {
        let first = self.ident()?;
        if self.peek() == Some(&Token::LParen) {
            return self.function_call(first);
        }
        if self.peek() == Some(&Token::Dot) && self.peek_at(1).and_then(Token::as_ident).is_some()
        {
            self.bump();
            let name = self.ident()?;
            return Ok(Expr::Column(ColumnRef {
                qualifier: Some(first),
                name,
            }));
        }
        Ok(Expr::Column(ColumnRef {
            qualifier: None,
            name: first,
        }))
    }

    fn function_call(&mut self, name: String) -> Result<Expr> {
        self.expect_token(&Token::LParen)?;
        let mut distinct = false;
        let mut args = Vec::new();
        if !self.eat(&Token::RParen) {
            distinct = self.eat_kw("DISTINCT");
            loop {
                if self.peek() == Some(&Token::Star)
                    && matches!(self.peek_at(1), Some(Token::RParen))
                {
                    self.bump();
                    args.push(Expr::Wildcard);
                } else {
                    args.push(self.expr()?);
                }
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
            self.expect_token(&Token::RParen)?;
        }
        let over = if self.eat_kw("OVER") {
            self.expect_token(&Token::LParen)?;
            let mut spec = WindowSpec::default();
            if self.eat_kw("PARTITION") {
                self.expect_kw("BY")?;
                loop {
                    spec.partition_by.push(self.expr()?);
                    if !self.eat(&Token::Comma) {
                        break;
                    }
                }
            }
            if self.eat_kw("ORDER") {
                self.expect_kw("BY")?;
                loop {
                    spec.order_by.push(self.order_by_item()?);
                    if !self.eat(&Token::Comma) {
                        break;
                    }
                }
            }
            self.expect_token(&Token::RParen)?;
            Some(spec)
        } else {
            None
        };
        Ok(Expr::Function(FunctionCall {
            name: name.to_ascii_uppercase(),
            args,
            distinct,
            over,
        }))
    }
}

/// Keywords that terminate an implicit (AS-less) alias position.
fn is_clause_boundary(word: &str) -> bool {
    const BOUNDARIES: &[&str] = &[
        "from", "where", "group", "having", "order", "union", "intersect", "except", "on",
        "inner", "left", "right", "full", "cross", "join", "as", "and", "or", "not", "when",
        "then", "else", "end", "asc", "desc", "select", "top", "distinct", "all", "by", "over",
        "partition", "percent", "is", "in", "between", "like", "exists", "null", "set",
    ];
    BOUNDARIES.iter().any(|b| word.eq_ignore_ascii_case(b))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(sql: &str) -> Query {
        let q = parse_query(sql).unwrap_or_else(|e| panic!("parse {sql:?}: {e}"));
        let rendered = q.to_string();
        let q2 = parse_query(&rendered)
            .unwrap_or_else(|e| panic!("reparse {rendered:?}: {e}"));
        assert_eq!(q, q2, "round trip changed AST for {sql:?} -> {rendered:?}");
        q
    }

    #[test]
    fn simple_select() {
        let q = round_trip("SELECT * FROM incomes WHERE income > 500000");
        assert_eq!(q.referenced_tables(), vec![ObjectName::simple("incomes")]);
    }

    #[test]
    fn select_without_from() {
        round_trip("SELECT 1 + 2 AS three");
    }

    #[test]
    fn projection_aliases() {
        let q = round_trip("SELECT a col1, b AS col2, [weird name] FROM t");
        let SetExpr::Select(s) = &q.body else { panic!() };
        assert_eq!(s.projection.len(), 3);
        assert!(matches!(
            &s.projection[0],
            SelectItem::Expr { alias: Some(a), .. } if a == "col1"
        ));
    }

    #[test]
    fn joins() {
        let q = round_trip(
            "SELECT t.*, u.name FROM t INNER JOIN u ON t.id = u.id \
             LEFT OUTER JOIN v ON u.id = v.id CROSS JOIN w",
        );
        assert_eq!(q.referenced_tables().len(), 4);
    }

    #[test]
    fn bare_join_means_inner() {
        let q = round_trip("SELECT * FROM a JOIN b ON a.x = b.x");
        let SetExpr::Select(s) = &q.body else { panic!() };
        assert!(matches!(
            &s.from[0],
            TableRef::Join { kind: JoinKind::Inner, .. }
        ));
    }

    #[test]
    fn derived_tables() {
        round_trip("SELECT d.x FROM (SELECT a AS x FROM t WHERE a > 1) AS d");
    }

    #[test]
    fn set_operations() {
        let q = round_trip("SELECT a FROM t UNION ALL SELECT a FROM u UNION SELECT a FROM v");
        let SetExpr::SetOp { op, all, .. } = &q.body else { panic!() };
        assert_eq!(*op, SetOp::Union);
        assert!(!all);
    }

    #[test]
    fn order_by_and_top() {
        let q = round_trip("SELECT TOP 10 a, b FROM t ORDER BY a DESC, b");
        assert_eq!(q.order_by.len(), 2);
        assert!(q.order_by[0].desc);
        let SetExpr::Select(s) = &q.body else { panic!() };
        assert_eq!(s.top, Some(Top { quantity: 10, percent: false }));
        round_trip("SELECT TOP (5) PERCENT a FROM t");
    }

    #[test]
    fn group_by_having() {
        round_trip("SELECT g, COUNT(*), AVG(v) FROM t GROUP BY g HAVING COUNT(*) > 3");
    }

    #[test]
    fn window_functions() {
        let q = round_trip(
            "SELECT ROW_NUMBER() OVER (PARTITION BY dept ORDER BY salary DESC) AS rn FROM emp",
        );
        let SetExpr::Select(s) = &q.body else { panic!() };
        let SelectItem::Expr { expr: Expr::Function(call), .. } = &s.projection[0] else {
            panic!()
        };
        assert!(call.over.is_some());
    }

    #[test]
    fn case_cast_nullif_style() {
        round_trip(
            "SELECT CASE WHEN v = '-999' THEN NULL ELSE CAST(v AS FLOAT) END AS cleaned FROM raw",
        );
        round_trip("SELECT CASE status WHEN 1 THEN 'ok' ELSE 'bad' END FROM t");
        round_trip("SELECT TRY_CAST(x AS INT) FROM t");
        round_trip("SELECT CAST(x AS VARCHAR(10)) FROM t");
        round_trip("SELECT CAST(x AS DECIMAL(10, 2)) FROM t");
    }

    #[test]
    fn predicates() {
        round_trip("SELECT * FROM t WHERE a IS NULL AND b IS NOT NULL");
        round_trip("SELECT * FROM t WHERE a IN (1, 2, 3) OR b NOT IN ('x')");
        round_trip("SELECT * FROM t WHERE a BETWEEN 1 AND 10 AND b NOT BETWEEN 2 AND 3");
        round_trip("SELECT * FROM t WHERE name LIKE 'A%' AND name NOT LIKE '%z'");
        round_trip("SELECT * FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.id = t.id)");
        round_trip("SELECT * FROM t WHERE NOT EXISTS (SELECT 1 FROM u)");
        round_trip("SELECT * FROM t WHERE a IN (SELECT x FROM u)");
    }

    #[test]
    fn scalar_subquery() {
        round_trip("SELECT (SELECT MAX(x) FROM u) AS mx, a FROM t");
    }

    #[test]
    fn arithmetic_precedence() {
        let q = round_trip("SELECT a + b * c - d / e FROM t");
        // ((a + (b*c)) - (d/e))
        let SetExpr::Select(s) = &q.body else { panic!() };
        let SelectItem::Expr { expr, .. } = &s.projection[0] else { panic!() };
        let Expr::Binary { op: BinaryOp::Sub, .. } = expr else {
            panic!("expected top-level Sub, got {expr:?}")
        };
    }

    #[test]
    fn negative_literals_fold() {
        let q = round_trip("SELECT -5, -2.5, -x FROM t");
        let SetExpr::Select(s) = &q.body else { panic!() };
        assert!(matches!(
            &s.projection[0],
            SelectItem::Expr { expr: Expr::Literal(Literal::Int(-5)), .. }
        ));
    }

    #[test]
    fn statement_classification() {
        assert!(matches!(
            parse_statement("SELECT 1").unwrap(),
            Statement::Select(_)
        ));
        assert_eq!(
            parse_statement("CREATE TABLE t (x INT)").unwrap(),
            Statement::Unsupported("CREATE".into())
        );
        assert_eq!(
            parse_statement("INSERT INTO t VALUES (1)").unwrap(),
            Statement::Unsupported("INSERT".into())
        );
        assert!(parse_statement("FROBNICATE").is_err());
    }

    #[test]
    fn errors_are_positioned() {
        let err = parse_query("SELECT FROM").unwrap_err();
        assert!(err.to_string().contains("near"));
        assert!(parse_query("SELECT a FROM t WHERE").is_err());
        assert!(parse_query("SELECT a FROM t GROUP a").is_err());
        assert!(parse_query("").is_err());
    }

    #[test]
    fn trailing_semicolon_ok() {
        round_trip("SELECT 1");
        parse_query("SELECT 1;").unwrap();
        assert!(parse_query("SELECT 1; SELECT 2").is_err());
    }

    #[test]
    fn deep_nesting_is_rejected_not_crashing() {
        // Nesting and left-deep chains alike: each is a typed parse error
        // long before the parser's recursion or the tree's depth could
        // exhaust a 2 MiB thread stack.
        for sql in [
            format!("SELECT {}1{}", "(".repeat(500), ")".repeat(500)),
            format!("SELECT 1 WHERE {}1 = 1", "- ".repeat(100_000)),
            format!("SELECT 1 WHERE {}1 = 1", "+ ".repeat(100_000)),
            format!("SELECT 1 WHERE {}1 = 1", "NOT ".repeat(20_000)),
            format!("SELECT 1 AS x WHERE 1=1{}", " AND 1=1".repeat(100_000)),
            format!("SELECT 1 AS x WHERE 1=1{}", " OR 1=1".repeat(2_000)),
            format!("SELECT 1 AS x WHERE 1=1{}", " + 1".repeat(2_000)),
            format!("SELECT 1{}", " UNION ALL SELECT 1".repeat(500)),
            format!("SELECT * FROM {}t{}", "(".repeat(500), ")".repeat(500)),
            format!("SELECT * FROM t{}", " JOIN t ON 1=1".repeat(500)),
            format!("SELECT * FROM t{}", ", t".repeat(100_000)),
        ] {
            let err = parse_query(&sql).unwrap_err();
            assert_eq!(err.kind(), "parse", "{err}");
        }
    }

    #[test]
    fn multipart_names() {
        let q = round_trip("SELECT * FROM owner1.billing_data AS b");
        assert_eq!(
            q.referenced_tables(),
            vec![ObjectName(vec!["owner1".into(), "billing_data".into()])]
        );
        round_trip("SELECT * FROM [rfernand].[coastal samples 2013]");
    }

    #[test]
    fn count_star_and_distinct_agg() {
        round_trip("SELECT COUNT(*), COUNT(DISTINCT x) FROM t");
    }

    #[test]
    fn union_right_assoc_parens_round_trip() {
        // Force a right-nested set op via parens and check it survives.
        let q = parse_query("SELECT a FROM t UNION (SELECT a FROM u UNION SELECT a FROM v)")
            .unwrap();
        let rendered = q.to_string();
        let q2 = parse_query(&rendered).unwrap();
        assert_eq!(q, q2);
    }
}
