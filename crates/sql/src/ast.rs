//! The SQL abstract syntax tree, with canonical rendering.
//!
//! The AST is the exchange format between the parser, the engine's binder,
//! the feature/idiom analyses, and the view catalog (which stores view
//! definitions as canonical SQL text). `Display` renders minimal-paren,
//! reparseable SQL: `parse(render(ast)) == ast` for every constructible
//! AST (see the property tests in `parser.rs`).

use std::fmt;

/// A top-level statement submitted to the service.
///
/// SQLShare deliberately exposes *only* queries: DDL/DML is rejected so
/// that every table can carry its wrapper view (§3.2). Unsupported
/// statements are still recognized so the service can reject them with a
/// targeted message.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    Select(Query),
    /// A recognized-but-forbidden statement kind (`CREATE`, `INSERT`, ...).
    Unsupported(String),
}

impl fmt::Display for Statement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Statement::Select(q) => write!(f, "{q}"),
            Statement::Unsupported(kind) => write!(f, "{kind} ..."),
        }
    }
}

/// A full query: a set-expression body plus an optional ORDER BY.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    pub body: SetExpr,
    pub order_by: Vec<OrderByItem>,
}

impl Query {
    /// Wrap a bare SELECT into a query with no ORDER BY.
    pub fn from_select(select: Select) -> Self {
        Query {
            body: SetExpr::Select(Box::new(select)),
            order_by: Vec::new(),
        }
    }

    /// The one enumeration of a query's own parts: the SELECT blocks of
    /// its body (set operations descended, left to right), then the
    /// ORDER BY expressions.
    pub fn parts<'a>(&'a self, f: &mut dyn FnMut(Part<'a>)) {
        self.body.selects(&mut |s| f(Part::Select(s)));
        for item in &self.order_by {
            f(Part::Expr(&item.expr));
        }
    }

    /// [`Query::parts`] for rewrites.
    pub fn parts_mut(&mut self, f: &mut dyn FnMut(PartMut<'_>)) {
        self.body.selects_mut(&mut |s| f(PartMut::Select(s)));
        for item in &mut self.order_by {
            f(PartMut::Expr(&mut item.expr));
        }
    }

    /// Visit every SELECT block in this query, including those nested in
    /// set operations and derived tables. SELECTs inside subquery
    /// *expressions* are not visited: a subquery is its own query, and
    /// callers that want it recurse (as [`Query::referenced_tables`] and
    /// the feature analysis do).
    pub fn walk_selects<'a>(&'a self, f: &mut dyn FnMut(&'a Select)) {
        Part::Query(self).walk(&mut |part| match part {
            Part::Select(s) => {
                f(s);
                true
            }
            Part::Query(_) | Part::Table(_) => true,
            Part::Expr(_) => false,
        });
    }

    /// Visit every expression anywhere in the query (derived tables
    /// included; subquery expressions are visited, not entered).
    pub fn walk_exprs<'a>(&'a self, f: &mut dyn FnMut(&'a Expr)) {
        Part::Query(self).walk(&mut |part| match part {
            Part::Expr(e) => {
                e.walk(f);
                false
            }
            Part::Query(_) | Part::Select(_) | Part::Table(_) => true,
        });
    }

    /// Names of all tables/views referenced in FROM clauses (syntactic,
    /// pre-binding; includes references inside subqueries, in whatever
    /// expression position they stand).
    pub fn referenced_tables(&self) -> Vec<ObjectName> {
        let mut names = Vec::new();
        Part::Query(self).walk(&mut |part| {
            if let Part::Table(TableRef::Named { name, .. }) = part {
                names.push(name.clone());
            }
            true
        });
        names
    }
}

/// A direct part of an AST node, as the `parts` enumerators hand it out.
///
/// [`Query`], [`Select`], [`TableRef`] and [`Expr`] each have exactly one
/// function that knows what the node is made of — `parts`, and
/// `parts_mut` for rewrites. Every walk and rewrite over queries is
/// written on those four, so a new variant or clause is given its
/// children in one place and no walker can forget a position.
#[derive(Debug, Clone, Copy)]
pub enum Part<'a> {
    Query(&'a Query),
    Select(&'a Select),
    Table(&'a TableRef),
    Expr(&'a Expr),
}

impl<'a> Part<'a> {
    /// The parts of whatever node this is.
    pub fn parts(self, f: &mut dyn FnMut(Part<'a>)) {
        match self {
            Part::Query(q) => q.parts(f),
            Part::Select(s) => s.parts(f),
            Part::Table(t) => t.parts(f),
            Part::Expr(e) => e.parts(f),
        }
    }

    /// Pre-order walk over everything below this node; `f` answers
    /// whether to descend into the part it was handed.
    pub fn walk(self, f: &mut dyn FnMut(Part<'a>) -> bool) {
        self.parts(&mut |part| {
            if f(part) {
                part.walk(f);
            }
        });
    }
}

/// [`Part`] for rewrites.
#[derive(Debug)]
pub enum PartMut<'a> {
    Query(&'a mut Query),
    Select(&'a mut Select),
    Table(&'a mut TableRef),
    Expr(&'a mut Expr),
}

impl PartMut<'_> {
    fn parts(self, f: &mut dyn FnMut(PartMut<'_>)) {
        match self {
            PartMut::Query(q) => q.parts_mut(f),
            PartMut::Select(s) => s.parts_mut(f),
            PartMut::Table(t) => t.parts_mut(f),
            PartMut::Expr(e) => e.parts_mut(f),
        }
    }

    /// Pre-order walk over everything below this node, subqueries
    /// included: `f` may rewrite each part before the walk descends
    /// into it.
    pub fn walk(self, f: &mut dyn FnMut(&mut PartMut<'_>)) {
        self.parts(&mut |mut part| {
            f(&mut part);
            part.walk(f);
        });
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.body)?;
        if !self.order_by.is_empty() {
            write!(f, " ORDER BY ")?;
            for (i, item) in self.order_by.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{item}")?;
            }
        }
        Ok(())
    }
}

/// Body of a query: a select, a set operation, or a parenthesized query.
#[derive(Debug, Clone, PartialEq)]
pub enum SetExpr {
    Select(Box<Select>),
    SetOp {
        op: SetOp,
        all: bool,
        left: Box<SetExpr>,
        right: Box<SetExpr>,
    },
}

impl SetExpr {
    fn selects<'a>(&'a self, f: &mut dyn FnMut(&'a Select)) {
        match self {
            SetExpr::Select(s) => f(s),
            SetExpr::SetOp { left, right, .. } => {
                left.selects(f);
                right.selects(f);
            }
        }
    }

    fn selects_mut(&mut self, f: &mut dyn FnMut(&mut Select)) {
        match self {
            SetExpr::Select(s) => f(s),
            SetExpr::SetOp { left, right, .. } => {
                left.selects_mut(f);
                right.selects_mut(f);
            }
        }
    }
}

impl fmt::Display for SetExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SetExpr::Select(s) => write!(f, "{s}"),
            SetExpr::SetOp {
                op,
                all,
                left,
                right,
            } => {
                write!(f, "{left} {op}")?;
                if *all {
                    write!(f, " ALL")?;
                }
                // Right operand of a set op is parenthesized when it is
                // itself a set op, preserving association.
                match right.as_ref() {
                    SetExpr::SetOp { .. } => write!(f, " ({right})"),
                    _ => write!(f, " {right}"),
                }
            }
        }
    }
}

/// Set operation kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetOp {
    Union,
    Intersect,
    Except,
}

impl fmt::Display for SetOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SetOp::Union => "UNION",
            SetOp::Intersect => "INTERSECT",
            SetOp::Except => "EXCEPT",
        })
    }
}

/// A single SELECT block.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Select {
    pub distinct: bool,
    pub top: Option<Top>,
    pub projection: Vec<SelectItem>,
    pub from: Vec<TableRef>,
    pub selection: Option<Expr>,
    pub group_by: Vec<Expr>,
    pub having: Option<Expr>,
}

impl Select {
    /// The one enumeration of a SELECT block's parts: the projected
    /// expressions, the FROM items, then WHERE, GROUP BY and HAVING.
    pub fn parts<'a>(&'a self, f: &mut dyn FnMut(Part<'a>)) {
        for item in &self.projection {
            if let SelectItem::Expr { expr, .. } = item {
                f(Part::Expr(expr));
            }
        }
        for t in &self.from {
            f(Part::Table(t));
        }
        for e in self.selection.iter().chain(&self.group_by).chain(&self.having) {
            f(Part::Expr(e));
        }
    }

    /// [`Select::parts`] for rewrites.
    pub fn parts_mut(&mut self, f: &mut dyn FnMut(PartMut<'_>)) {
        for item in &mut self.projection {
            if let SelectItem::Expr { expr, .. } = item {
                f(PartMut::Expr(expr));
            }
        }
        for t in &mut self.from {
            f(PartMut::Table(t));
        }
        for e in self.selection.iter_mut().chain(&mut self.group_by).chain(&mut self.having) {
            f(PartMut::Expr(e));
        }
    }
}

impl fmt::Display for Select {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SELECT")?;
        if self.distinct {
            write!(f, " DISTINCT")?;
        }
        if let Some(top) = &self.top {
            write!(f, " {top}")?;
        }
        for (i, item) in self.projection.iter().enumerate() {
            write!(f, "{} {item}", if i > 0 { "," } else { "" })?;
        }
        if !self.from.is_empty() {
            write!(f, " FROM ")?;
            for (i, t) in self.from.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{t}")?;
            }
        }
        if let Some(w) = &self.selection {
            write!(f, " WHERE {w}")?;
        }
        if !self.group_by.is_empty() {
            write!(f, " GROUP BY ")?;
            for (i, e) in self.group_by.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{e}")?;
            }
        }
        if let Some(h) = &self.having {
            write!(f, " HAVING {h}")?;
        }
        Ok(())
    }
}

/// `TOP n [PERCENT]` (T-SQL top-k; §5.3 reports 2% of queries use it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Top {
    pub quantity: u64,
    pub percent: bool,
}

impl fmt::Display for Top {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TOP {}", self.quantity)?;
        if self.percent {
            write!(f, " PERCENT")?;
        }
        Ok(())
    }
}

/// One item of the projection list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// `t.*`
    QualifiedWildcard(String),
    /// `expr [AS alias]`
    Expr { expr: Expr, alias: Option<String> },
}

impl fmt::Display for SelectItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SelectItem::Wildcard => write!(f, "*"),
            SelectItem::QualifiedWildcard(q) => write!(f, "{}.*", render_ident(q)),
            SelectItem::Expr { expr, alias } => {
                write!(f, "{expr}")?;
                if let Some(a) = alias {
                    write!(f, " AS {}", render_ident(a))?;
                }
                Ok(())
            }
        }
    }
}

/// A possibly-qualified object name (`owner.table`, `[table name]`).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectName(pub Vec<String>);

impl ObjectName {
    /// Single-part name.
    pub fn simple(name: impl Into<String>) -> Self {
        ObjectName(vec![name.into()])
    }

    /// The final (unqualified) component.
    pub fn base(&self) -> &str {
        self.0.last().map(String::as_str).unwrap_or("")
    }

    /// Dotted, unquoted form used as a catalog key (case-preserved).
    pub fn flat(&self) -> String {
        self.0.join(".")
    }
}

impl fmt::Display for ObjectName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, part) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ".")?;
            }
            write!(f, "{}", render_ident(part))?;
        }
        Ok(())
    }
}

/// A FROM-clause element.
#[derive(Debug, Clone, PartialEq)]
pub enum TableRef {
    /// A named table or view.
    Named {
        name: ObjectName,
        alias: Option<String>,
    },
    /// A derived table: `(SELECT ...) AS alias`.
    Derived { subquery: Box<Query>, alias: String },
    /// A join tree.
    Join {
        left: Box<TableRef>,
        right: Box<TableRef>,
        kind: JoinKind,
        /// `ON` condition; `None` only for CROSS joins.
        constraint: Option<Expr>,
    },
}

impl TableRef {
    /// The one enumeration of a FROM item's parts: a derived table's
    /// query; a join's two sides and its `ON` condition.
    #[deny(clippy::wildcard_enum_match_arm, clippy::match_wildcard_for_single_variants)]
    pub fn parts<'a>(&'a self, f: &mut dyn FnMut(Part<'a>)) {
        match self {
            TableRef::Named { .. } => {}
            TableRef::Derived { subquery, .. } => f(Part::Query(subquery)),
            TableRef::Join {
                left,
                right,
                constraint,
                ..
            } => {
                f(Part::Table(left));
                f(Part::Table(right));
                if let Some(c) = constraint {
                    f(Part::Expr(c));
                }
            }
        }
    }

    /// [`TableRef::parts`] for rewrites.
    #[deny(clippy::wildcard_enum_match_arm, clippy::match_wildcard_for_single_variants)]
    pub fn parts_mut(&mut self, f: &mut dyn FnMut(PartMut<'_>)) {
        match self {
            TableRef::Named { .. } => {}
            TableRef::Derived { subquery, .. } => f(PartMut::Query(subquery)),
            TableRef::Join {
                left,
                right,
                constraint,
                ..
            } => {
                f(PartMut::Table(left));
                f(PartMut::Table(right));
                if let Some(c) = constraint {
                    f(PartMut::Expr(c));
                }
            }
        }
    }
}

impl fmt::Display for TableRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TableRef::Named { name, alias } => {
                write!(f, "{name}")?;
                if let Some(a) = alias {
                    write!(f, " AS {}", render_ident(a))?;
                }
                Ok(())
            }
            TableRef::Derived { subquery, alias } => {
                write!(f, "({subquery}) AS {}", render_ident(alias))
            }
            TableRef::Join {
                left,
                right,
                kind,
                constraint,
            } => {
                write!(f, "{left} {kind} ")?;
                match right.as_ref() {
                    TableRef::Join { .. } => write!(f, "({right})")?,
                    _ => write!(f, "{right}")?,
                }
                if let Some(c) = constraint {
                    write!(f, " ON {c}")?;
                }
                Ok(())
            }
        }
    }
}

/// Join kinds; `Left`/`Right`/`Full` are the outer joins §5.3 counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    Inner,
    Left,
    Right,
    Full,
    Cross,
}

impl JoinKind {
    /// True for LEFT/RIGHT/FULL outer joins.
    pub fn is_outer(&self) -> bool {
        matches!(self, JoinKind::Left | JoinKind::Right | JoinKind::Full)
    }
}

impl fmt::Display for JoinKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            JoinKind::Inner => "INNER JOIN",
            JoinKind::Left => "LEFT OUTER JOIN",
            JoinKind::Right => "RIGHT OUTER JOIN",
            JoinKind::Full => "FULL OUTER JOIN",
            JoinKind::Cross => "CROSS JOIN",
        })
    }
}

/// `expr [ASC|DESC]`.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderByItem {
    pub expr: Expr,
    pub desc: bool,
}

impl fmt::Display for OrderByItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.expr, if self.desc { " DESC" } else { "" })
    }
}

/// A column reference, optionally qualified by a table alias.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ColumnRef {
    pub qualifier: Option<String>,
    pub name: String,
}

impl ColumnRef {
    /// Unqualified reference.
    pub fn bare(name: impl Into<String>) -> Self {
        ColumnRef {
            qualifier: None,
            name: name.into(),
        }
    }
}

impl fmt::Display for ColumnRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(q) = &self.qualifier {
            write!(f, "{}.", render_ident(q))?;
        }
        write!(f, "{}", render_ident(&self.name))
    }
}

/// Literal values.
#[derive(Debug, Clone, PartialEq)]
pub enum Literal {
    Null,
    Bool(bool),
    Int(i64),
    /// Finite float; `Display` uses Rust's shortest round-trip form.
    Float(f64),
    String(String),
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Literal::Null => write!(f, "NULL"),
            Literal::Bool(true) => write!(f, "TRUE"),
            Literal::Bool(false) => write!(f, "FALSE"),
            Literal::Int(i) => write!(f, "{i}"),
            Literal::Float(v) => {
                if v.fract() == 0.0 && v.abs() < 1e15 {
                    // Keep a decimal point so the literal reparses as Float.
                    write!(f, "{v:.1}")
                } else {
                    write!(f, "{v}")
                }
            }
            Literal::String(s) => write!(f, "'{}'", s.replace('\'', "''")),
        }
    }
}

/// SQL type names accepted by CAST (§5.1: post-hoc typing is a core idiom).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TypeName {
    Int,
    BigInt,
    Float,
    Decimal,
    Varchar,
    Date,
    DateTime,
    Bit,
}

impl fmt::Display for TypeName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            TypeName::Int => "INT",
            TypeName::BigInt => "BIGINT",
            TypeName::Float => "FLOAT",
            TypeName::Decimal => "DECIMAL",
            TypeName::Varchar => "VARCHAR",
            TypeName::Date => "DATE",
            TypeName::DateTime => "DATETIME",
            TypeName::Bit => "BIT",
        })
    }
}

/// Binary operators, ordered by precedence groups (see [`Expr::precedence`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinaryOp {
    Or,
    And,
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    Add,
    Sub,
    Concat,
    Mul,
    Div,
    Mod,
}

impl BinaryOp {
    /// Precedence level; higher binds tighter.
    pub fn precedence(&self) -> u8 {
        match self {
            BinaryOp::Or => 1,
            BinaryOp::And => 2,
            BinaryOp::Eq
            | BinaryOp::NotEq
            | BinaryOp::Lt
            | BinaryOp::LtEq
            | BinaryOp::Gt
            | BinaryOp::GtEq => 4,
            BinaryOp::Add | BinaryOp::Sub | BinaryOp::Concat => 5,
            BinaryOp::Mul | BinaryOp::Div | BinaryOp::Mod => 6,
        }
    }

    /// The expression-operator mnemonic used in plan extraction (§6.2,
    /// Table 4: `ADD`, `DIV`, `SUB`, `MULT`, ...).
    pub fn mnemonic(&self) -> &'static str {
        match self {
            BinaryOp::Or => "OR",
            BinaryOp::And => "AND",
            BinaryOp::Eq => "EQ",
            BinaryOp::NotEq => "NEQ",
            BinaryOp::Lt => "LT",
            BinaryOp::LtEq => "LE",
            BinaryOp::Gt => "GT",
            BinaryOp::GtEq => "GE",
            BinaryOp::Add => "ADD",
            BinaryOp::Sub => "SUB",
            BinaryOp::Concat => "CONCAT",
            BinaryOp::Mul => "MULT",
            BinaryOp::Div => "DIV",
            BinaryOp::Mod => "MOD",
        }
    }
}

impl fmt::Display for BinaryOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BinaryOp::Or => "OR",
            BinaryOp::And => "AND",
            BinaryOp::Eq => "=",
            BinaryOp::NotEq => "<>",
            BinaryOp::Lt => "<",
            BinaryOp::LtEq => "<=",
            BinaryOp::Gt => ">",
            BinaryOp::GtEq => ">=",
            BinaryOp::Add => "+",
            BinaryOp::Sub => "-",
            BinaryOp::Concat => "||",
            BinaryOp::Mul => "*",
            BinaryOp::Div => "/",
            BinaryOp::Mod => "%",
        })
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    Not,
    Neg,
}

/// Window specification: `OVER (PARTITION BY ... ORDER BY ...)` (§5.3:
/// window functions appear in ~4% of the SQLShare workload).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WindowSpec {
    pub partition_by: Vec<Expr>,
    pub order_by: Vec<OrderByItem>,
}

impl fmt::Display for WindowSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "OVER (")?;
        let mut wrote = false;
        if !self.partition_by.is_empty() {
            write!(f, "PARTITION BY ")?;
            for (i, e) in self.partition_by.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{e}")?;
            }
            wrote = true;
        }
        if !self.order_by.is_empty() {
            if wrote {
                write!(f, " ")?;
            }
            write!(f, "ORDER BY ")?;
            for (i, it) in self.order_by.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{it}")?;
            }
        }
        write!(f, ")")
    }
}

/// A function call: scalar, aggregate, or windowed.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionCall {
    pub name: String,
    pub args: Vec<Expr>,
    pub distinct: bool,
    pub over: Option<WindowSpec>,
}

impl fmt::Display for FunctionCall {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.name)?;
        if self.distinct {
            write!(f, "DISTINCT ")?;
        }
        for (i, a) in self.args.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, ")")?;
        if let Some(w) = &self.over {
            write!(f, " {w}")?;
        }
        Ok(())
    }
}

/// Scalar expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    Column(ColumnRef),
    Literal(Literal),
    /// `*` as a function argument (`COUNT(*)`).
    Wildcard,
    Unary {
        op: UnaryOp,
        expr: Box<Expr>,
    },
    Binary {
        left: Box<Expr>,
        op: BinaryOp,
        right: Box<Expr>,
    },
    Function(FunctionCall),
    Case {
        operand: Option<Box<Expr>>,
        branches: Vec<(Expr, Expr)>,
        else_result: Option<Box<Expr>>,
    },
    Cast {
        expr: Box<Expr>,
        ty: TypeName,
        /// `TRY_CAST` returns NULL instead of erroring on bad input.
        try_cast: bool,
    },
    IsNull {
        expr: Box<Expr>,
        negated: bool,
    },
    InList {
        expr: Box<Expr>,
        list: Vec<Expr>,
        negated: bool,
    },
    InSubquery {
        expr: Box<Expr>,
        subquery: Box<Query>,
        negated: bool,
    },
    Between {
        expr: Box<Expr>,
        low: Box<Expr>,
        high: Box<Expr>,
        negated: bool,
    },
    Like {
        expr: Box<Expr>,
        pattern: Box<Expr>,
        negated: bool,
    },
    Exists {
        subquery: Box<Query>,
        negated: bool,
    },
    ScalarSubquery(Box<Query>),
}

impl Expr {
    /// Precedence for minimal-parenthesis rendering; higher binds tighter.
    pub fn precedence(&self) -> u8 {
        match self {
            Expr::Binary { op, .. } => op.precedence(),
            Expr::Unary { op: UnaryOp::Not, .. } => 3,
            Expr::IsNull { .. }
            | Expr::InList { .. }
            | Expr::InSubquery { .. }
            | Expr::Between { .. }
            | Expr::Like { .. } => 4,
            Expr::Unary { op: UnaryOp::Neg, .. } => 7,
            _ => 8,
        }
    }

    /// The one enumeration of an expression's parts: its operand
    /// expressions in source order — a window call's `PARTITION BY` and
    /// `ORDER BY` keys among them — and the subquery it may hold.
    #[deny(clippy::wildcard_enum_match_arm, clippy::match_wildcard_for_single_variants)]
    pub fn parts<'a>(&'a self, f: &mut dyn FnMut(Part<'a>)) {
        match self {
            Expr::Column(_) | Expr::Literal(_) | Expr::Wildcard => {}
            Expr::Unary { expr, .. } | Expr::Cast { expr, .. } | Expr::IsNull { expr, .. } => {
                f(Part::Expr(expr));
            }
            Expr::Binary { left, right, .. } => {
                f(Part::Expr(left));
                f(Part::Expr(right));
            }
            Expr::Function(call) => {
                for a in &call.args {
                    f(Part::Expr(a));
                }
                if let Some(w) = &call.over {
                    for e in &w.partition_by {
                        f(Part::Expr(e));
                    }
                    for item in &w.order_by {
                        f(Part::Expr(&item.expr));
                    }
                }
            }
            Expr::Case {
                operand,
                branches,
                else_result,
            } => {
                if let Some(o) = operand {
                    f(Part::Expr(o));
                }
                for (c, v) in branches {
                    f(Part::Expr(c));
                    f(Part::Expr(v));
                }
                if let Some(e) = else_result {
                    f(Part::Expr(e));
                }
            }
            Expr::InList { expr, list, .. } => {
                f(Part::Expr(expr));
                for e in list {
                    f(Part::Expr(e));
                }
            }
            Expr::InSubquery { expr, subquery, .. } => {
                f(Part::Expr(expr));
                f(Part::Query(subquery));
            }
            Expr::Between {
                expr, low, high, ..
            } => {
                f(Part::Expr(expr));
                f(Part::Expr(low));
                f(Part::Expr(high));
            }
            Expr::Like { expr, pattern, .. } => {
                f(Part::Expr(expr));
                f(Part::Expr(pattern));
            }
            Expr::Exists { subquery, .. } | Expr::ScalarSubquery(subquery) => {
                f(Part::Query(subquery));
            }
        }
    }

    /// [`Expr::parts`] for rewrites.
    #[deny(clippy::wildcard_enum_match_arm, clippy::match_wildcard_for_single_variants)]
    pub fn parts_mut(&mut self, f: &mut dyn FnMut(PartMut<'_>)) {
        match self {
            Expr::Column(_) | Expr::Literal(_) | Expr::Wildcard => {}
            Expr::Unary { expr, .. } | Expr::Cast { expr, .. } | Expr::IsNull { expr, .. } => {
                f(PartMut::Expr(expr));
            }
            Expr::Binary { left, right, .. } => {
                f(PartMut::Expr(left));
                f(PartMut::Expr(right));
            }
            Expr::Function(call) => {
                for a in &mut call.args {
                    f(PartMut::Expr(a));
                }
                if let Some(w) = &mut call.over {
                    for e in &mut w.partition_by {
                        f(PartMut::Expr(e));
                    }
                    for item in &mut w.order_by {
                        f(PartMut::Expr(&mut item.expr));
                    }
                }
            }
            Expr::Case {
                operand,
                branches,
                else_result,
            } => {
                if let Some(o) = operand {
                    f(PartMut::Expr(o));
                }
                for (c, v) in branches {
                    f(PartMut::Expr(c));
                    f(PartMut::Expr(v));
                }
                if let Some(e) = else_result {
                    f(PartMut::Expr(e));
                }
            }
            Expr::InList { expr, list, .. } => {
                f(PartMut::Expr(expr));
                for e in list {
                    f(PartMut::Expr(e));
                }
            }
            Expr::InSubquery { expr, subquery, .. } => {
                f(PartMut::Expr(expr));
                f(PartMut::Query(subquery));
            }
            Expr::Between {
                expr, low, high, ..
            } => {
                f(PartMut::Expr(expr));
                f(PartMut::Expr(low));
                f(PartMut::Expr(high));
            }
            Expr::Like { expr, pattern, .. } => {
                f(PartMut::Expr(expr));
                f(PartMut::Expr(pattern));
            }
            Expr::Exists { subquery, .. } | Expr::ScalarSubquery(subquery) => {
                f(PartMut::Query(subquery));
            }
        }
    }

    /// Depth-first walk over this expression and all nested expressions.
    /// Subquery expressions are visited but not entered: a subquery is
    /// its own scope, and callers that want it go through
    /// [`Expr::parts`] or [`Part::walk`].
    pub fn walk<'a>(&'a self, f: &mut dyn FnMut(&'a Expr)) {
        f(self);
        self.parts(&mut |part| {
            if let Part::Expr(e) = part {
                e.walk(f);
            }
        });
    }
}

/// Render `expr`, parenthesizing if its precedence is below `min_prec`.
fn paren(f: &mut fmt::Formatter<'_>, expr: &Expr, min_prec: u8) -> fmt::Result {
    if expr.precedence() < min_prec {
        write!(f, "({expr})")
    } else {
        write!(f, "{expr}")
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Column(c) => write!(f, "{c}"),
            Expr::Literal(l) => write!(f, "{l}"),
            Expr::Wildcard => write!(f, "*"),
            Expr::Unary { op, expr } => match op {
                UnaryOp::Not => {
                    write!(f, "NOT ")?;
                    paren(f, expr, 3)
                }
                UnaryOp::Neg => {
                    write!(f, "-")?;
                    paren(f, expr, 8)
                }
            },
            Expr::Binary { left, op, right } => {
                let p = op.precedence();
                paren(f, left, p)?;
                write!(f, " {op} ")?;
                // Left-associative grammar: equal-precedence right children
                // need parentheses to re-parse into the same tree.
                if right.precedence() <= p {
                    write!(f, "({right})")
                } else {
                    write!(f, "{right}")
                }
            }
            Expr::Function(call) => write!(f, "{call}"),
            Expr::Case {
                operand,
                branches,
                else_result,
            } => {
                write!(f, "CASE")?;
                if let Some(o) = operand {
                    write!(f, " {o}")?;
                }
                for (cond, val) in branches {
                    write!(f, " WHEN {cond} THEN {val}")?;
                }
                if let Some(e) = else_result {
                    write!(f, " ELSE {e}")?;
                }
                write!(f, " END")
            }
            Expr::Cast {
                expr,
                ty,
                try_cast,
            } => write!(
                f,
                "{}({expr} AS {ty})",
                if *try_cast { "TRY_CAST" } else { "CAST" }
            ),
            Expr::IsNull { expr, negated } => {
                paren(f, expr, 5)?;
                write!(f, " IS {}NULL", if *negated { "NOT " } else { "" })
            }
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                paren(f, expr, 5)?;
                write!(f, " {}IN (", if *negated { "NOT " } else { "" })?;
                for (i, e) in list.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, ")")
            }
            Expr::InSubquery {
                expr,
                subquery,
                negated,
            } => {
                paren(f, expr, 5)?;
                write!(
                    f,
                    " {}IN ({subquery})",
                    if *negated { "NOT " } else { "" }
                )
            }
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => {
                paren(f, expr, 5)?;
                write!(f, " {}BETWEEN ", if *negated { "NOT " } else { "" })?;
                paren(f, low, 5)?;
                write!(f, " AND ")?;
                paren(f, high, 5)
            }
            Expr::Like {
                expr,
                pattern,
                negated,
            } => {
                paren(f, expr, 5)?;
                write!(f, " {}LIKE ", if *negated { "NOT " } else { "" })?;
                paren(f, pattern, 5)
            }
            Expr::Exists { subquery, negated } => {
                if *negated {
                    write!(f, "NOT ")?;
                }
                write!(f, "EXISTS ({subquery})")
            }
            Expr::ScalarSubquery(q) => write!(f, "({q})"),
        }
    }
}

/// Words that must be bracketed when used as identifiers in rendered SQL.
const RESERVED: &[&str] = &[
    "select", "from", "where", "group", "by", "having", "order", "union", "intersect", "except",
    "all", "distinct", "top", "percent", "as", "on", "join", "inner", "left", "right", "full",
    "outer", "cross", "and", "or", "not", "null", "true", "false", "case", "when", "then", "else",
    "end", "cast", "try_cast", "is", "in", "between", "like", "exists", "asc", "desc", "over",
    "partition",
];

/// Render an identifier, bracketing when required for reparseability.
pub fn render_ident(name: &str) -> String {
    let simple = !name.is_empty()
        && name
            .chars()
            .next()
            .map(|c| c.is_ascii_alphabetic() || c == '_')
            .unwrap_or(false)
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '@' || c == '#' || c == '$');
    let reserved = RESERVED.iter().any(|r| name.eq_ignore_ascii_case(r));
    if simple && !reserved {
        name.to_string()
    } else {
        format!("[{}]", name.replace(']', "]]"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(name: &str) -> Expr {
        Expr::Column(ColumnRef::bare(name))
    }

    #[test]
    fn binary_rendering_minimal_parens() {
        // a + b * c renders without parens
        let e = Expr::Binary {
            left: Box::new(col("a")),
            op: BinaryOp::Add,
            right: Box::new(Expr::Binary {
                left: Box::new(col("b")),
                op: BinaryOp::Mul,
                right: Box::new(col("c")),
            }),
        };
        assert_eq!(e.to_string(), "a + b * c");
        // (a + b) * c needs parens
        let e = Expr::Binary {
            left: Box::new(Expr::Binary {
                left: Box::new(col("a")),
                op: BinaryOp::Add,
                right: Box::new(col("b")),
            }),
            op: BinaryOp::Mul,
            right: Box::new(col("c")),
        };
        assert_eq!(e.to_string(), "(a + b) * c");
        // a - (b - c): right-equal precedence keeps parens
        let e = Expr::Binary {
            left: Box::new(col("a")),
            op: BinaryOp::Sub,
            right: Box::new(Expr::Binary {
                left: Box::new(col("b")),
                op: BinaryOp::Sub,
                right: Box::new(col("c")),
            }),
        };
        assert_eq!(e.to_string(), "a - (b - c)");
    }

    #[test]
    fn idents_bracket_when_needed() {
        assert_eq!(render_ident("col1"), "col1");
        assert_eq!(render_ident("my col"), "[my col]");
        assert_eq!(render_ident("select"), "[select]");
        assert_eq!(render_ident("0col"), "[0col]");
        assert_eq!(render_ident("a]b"), "[a]]b]");
    }

    #[test]
    fn float_literal_keeps_decimal_point() {
        assert_eq!(Literal::Float(3.0).to_string(), "3.0");
        assert_eq!(Literal::Float(3.25).to_string(), "3.25");
    }

    #[test]
    fn string_literal_escapes_quotes() {
        assert_eq!(Literal::String("it's".into()).to_string(), "'it''s'");
    }

    #[test]
    fn select_renders() {
        let s = Select {
            distinct: true,
            top: Some(Top {
                quantity: 10,
                percent: false,
            }),
            projection: vec![
                SelectItem::Wildcard,
                SelectItem::Expr {
                    expr: col("x"),
                    alias: Some("y".into()),
                },
            ],
            from: vec![TableRef::Named {
                name: ObjectName::simple("t"),
                alias: None,
            }],
            selection: Some(col("b")),
            group_by: vec![col("g")],
            having: None,
        };
        assert_eq!(
            s.to_string(),
            "SELECT DISTINCT TOP 10 *, x AS y FROM t WHERE b GROUP BY g"
        );
    }

    #[test]
    fn referenced_tables_sees_subqueries() {
        let inner = Query::from_select(Select {
            projection: vec![SelectItem::Wildcard],
            from: vec![TableRef::Named {
                name: ObjectName::simple("inner_t"),
                alias: None,
            }],
            ..Select::default()
        });
        let outer = Query::from_select(Select {
            projection: vec![SelectItem::Wildcard],
            from: vec![TableRef::Derived {
                subquery: Box::new(inner),
                alias: "d".into(),
            }],
            ..Select::default()
        });
        let names = outer.referenced_tables();
        assert_eq!(names, vec![ObjectName::simple("inner_t")]);
    }

    #[test]
    fn window_spec_renders() {
        let w = WindowSpec {
            partition_by: vec![col("dept")],
            order_by: vec![OrderByItem {
                expr: col("salary"),
                desc: true,
            }],
        };
        assert_eq!(w.to_string(), "OVER (PARTITION BY dept ORDER BY salary DESC)");
    }
}
