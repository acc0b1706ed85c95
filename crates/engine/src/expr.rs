//! Bound (resolved) scalar expressions and their evaluation.
//!
//! The binder turns AST expressions into [`BoundExpr`], where column
//! references are positional indexes into the input row, function names
//! are resolved to [`ScalarFunc`]s, and uncorrelated subqueries carry
//! their own logical plans (executed once at physical-planning time and
//! replaced with [`BoundExpr::Literal`] / [`BoundExpr::InSet`]).
//!
//! Evaluation implements SQL three-valued logic: predicates evaluate to
//! `Value::Bool` or `Value::Null`, and [`eval_predicate`] maps unknown to
//! "not selected".

use crate::functions::{like_match, EvalContext, ScalarFunc};
use crate::logical::{LogicalPlan, Part, PartMut};
use crate::value::{DataType, Row, Value};
use sqlshare_common::{Error, Result};
use sqlshare_sql::ast::BinaryOp;
use std::fmt;

/// A fully-resolved scalar expression.
#[derive(Debug, Clone, PartialEq)]
pub enum BoundExpr {
    /// Index into the input row.
    Column(usize),
    Literal(Value),
    Not(Box<BoundExpr>),
    Neg(Box<BoundExpr>),
    Binary {
        left: Box<BoundExpr>,
        op: BinaryOp,
        right: Box<BoundExpr>,
    },
    Func {
        func: ScalarFunc,
        args: Vec<BoundExpr>,
    },
    /// A registered user-defined function. UDFs in this reproduction are
    /// deterministic synthetic scalars (hash of name and arguments): the
    /// workload analysis only needs their *presence* in plans (Table 4b of
    /// the paper is dominated by SDSS UDF-like operators).
    Udf {
        name: String,
        args: Vec<BoundExpr>,
    },
    Case {
        operand: Option<Box<BoundExpr>>,
        branches: Vec<(BoundExpr, BoundExpr)>,
        else_result: Option<Box<BoundExpr>>,
    },
    Cast {
        expr: Box<BoundExpr>,
        ty: DataType,
        try_cast: bool,
    },
    IsNull {
        expr: Box<BoundExpr>,
        negated: bool,
    },
    InList {
        expr: Box<BoundExpr>,
        list: Vec<BoundExpr>,
        negated: bool,
    },
    /// Post-planning form of IN over a materialized subquery result.
    InSet {
        expr: Box<BoundExpr>,
        values: Vec<Value>,
        negated: bool,
    },
    Between {
        expr: Box<BoundExpr>,
        low: Box<BoundExpr>,
        high: Box<BoundExpr>,
        negated: bool,
    },
    Like {
        expr: Box<BoundExpr>,
        pattern: Box<BoundExpr>,
        negated: bool,
    },
    /// Uncorrelated scalar subquery, pending materialization.
    ScalarSubquery(Box<LogicalPlan>),
    /// Uncorrelated IN subquery, pending materialization.
    InSubquery {
        expr: Box<BoundExpr>,
        plan: Box<LogicalPlan>,
        negated: bool,
    },
    /// Uncorrelated EXISTS subquery, pending materialization.
    Exists {
        plan: Box<LogicalPlan>,
        negated: bool,
    },
}

impl BoundExpr {
    /// Evaluate against a row.
    pub fn eval(&self, row: &Row, ctx: &EvalContext) -> Result<Value> {
        match self {
            BoundExpr::Column(i) => row
                .get(*i)
                .cloned()
                .ok_or_else(|| Error::Execution(format!("column index {i} out of range"))),
            BoundExpr::Literal(v) => Ok(v.clone()),
            BoundExpr::Not(e) => match truth(&e.eval(row, ctx)?)? {
                None => Ok(Value::Null),
                Some(b) => Ok(Value::Bool(!b)),
            },
            BoundExpr::Neg(e) => {
                let v = e.eval(row, ctx)?;
                match v {
                    Value::Null => Ok(Value::Null),
                    Value::Int(i) => Ok(Value::Int(i.checked_neg().ok_or_else(overflow)?)),
                    Value::Float(f) => Ok(Value::Float(-f)),
                    other => Err(Error::Execution(format!(
                        "cannot negate '{}'",
                        other.to_text()
                    ))),
                }
            }
            BoundExpr::Binary { left, op, right } => {
                eval_binary(*op, left, right, row, ctx)
            }
            BoundExpr::Func { func, args } => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(a.eval(row, ctx)?);
                }
                func.eval(&vals, ctx)
            }
            BoundExpr::Udf { name, args } => {
                let mut h = sqlshare_common::hash::Fnv64::new();
                h.write_str(name);
                for a in args {
                    let v = a.eval(row, ctx)?;
                    h.write_str(&v.to_text());
                }
                // Deterministic pseudo-result in [0, 1).
                Ok(Value::Float((h.finish() % 1_000_000) as f64 / 1_000_000.0))
            }
            BoundExpr::Case {
                operand,
                branches,
                else_result,
            } => {
                let op_val = match operand {
                    Some(o) => Some(o.eval(row, ctx)?),
                    None => None,
                };
                for (cond, result) in branches {
                    let fire = match &op_val {
                        Some(v) => {
                            let c = cond.eval(row, ctx)?;
                            v.sql_eq(&c) == Some(true)
                        }
                        None => truth(&cond.eval(row, ctx)?)? == Some(true),
                    };
                    if fire {
                        return result.eval(row, ctx);
                    }
                }
                match else_result {
                    Some(e) => e.eval(row, ctx),
                    None => Ok(Value::Null),
                }
            }
            BoundExpr::Cast {
                expr,
                ty,
                try_cast,
            } => {
                let v = expr.eval(row, ctx)?;
                match v.cast(*ty) {
                    Ok(out) => Ok(out),
                    Err(_) if *try_cast => Ok(Value::Null),
                    Err(e) => Err(e),
                }
            }
            BoundExpr::IsNull { expr, negated } => {
                let v = expr.eval(row, ctx)?;
                Ok(Value::Bool(v.is_null() != *negated))
            }
            BoundExpr::InList {
                expr,
                list,
                negated,
            } => {
                let v = expr.eval(row, ctx)?;
                if v.is_null() {
                    return Ok(Value::Null);
                }
                let mut saw_null = false;
                for item in list {
                    let iv = item.eval(row, ctx)?;
                    match v.sql_eq(&iv) {
                        Some(true) => return Ok(Value::Bool(!*negated)),
                        Some(false) => {}
                        None => saw_null = true,
                    }
                }
                if saw_null {
                    Ok(Value::Null)
                } else {
                    Ok(Value::Bool(*negated))
                }
            }
            BoundExpr::InSet {
                expr,
                values,
                negated,
            } => {
                let v = expr.eval(row, ctx)?;
                if v.is_null() {
                    return Ok(Value::Null);
                }
                let hit = values.iter().any(|item| v.sql_eq(item) == Some(true));
                Ok(Value::Bool(hit != *negated))
            }
            BoundExpr::Between {
                expr,
                low,
                high,
                negated,
            } => {
                let v = expr.eval(row, ctx)?;
                let lo = low.eval(row, ctx)?;
                let hi = high.eval(row, ctx)?;
                let ge = match v.sql_cmp(&lo) {
                    None => return Ok(Value::Null),
                    Some(o) => o != std::cmp::Ordering::Less,
                };
                let le = match v.sql_cmp(&hi) {
                    None => return Ok(Value::Null),
                    Some(o) => o != std::cmp::Ordering::Greater,
                };
                Ok(Value::Bool((ge && le) != *negated))
            }
            BoundExpr::Like {
                expr,
                pattern,
                negated,
            } => {
                let v = expr.eval(row, ctx)?;
                let p = pattern.eval(row, ctx)?;
                if v.is_null() || p.is_null() {
                    return Ok(Value::Null);
                }
                let hit = like_match(&p.to_text(), &v.to_text());
                Ok(Value::Bool(hit != *negated))
            }
            BoundExpr::ScalarSubquery(_)
            | BoundExpr::InSubquery { .. }
            | BoundExpr::Exists { .. } => Err(Error::Execution(
                "internal: unmaterialized subquery reached the executor".into(),
            )),
        }
    }

    /// Collect column indexes referenced by this expression.
    pub fn column_indexes(&self, out: &mut Vec<usize>) {
        self.walk(&mut |e| {
            if let BoundExpr::Column(i) = e {
                out.push(*i);
            }
        });
    }

    /// The one enumeration of an expression's parts: its operand
    /// expressions, and the subquery plan it may hold.
    #[deny(clippy::wildcard_enum_match_arm, clippy::match_wildcard_for_single_variants)]
    pub fn parts<'a>(&'a self, f: &mut dyn FnMut(Part<'a>)) {
        match self {
            BoundExpr::Column(_) | BoundExpr::Literal(_) => {}
            BoundExpr::Not(expr)
            | BoundExpr::Neg(expr)
            | BoundExpr::Cast { expr, .. }
            | BoundExpr::IsNull { expr, .. }
            | BoundExpr::InSet { expr, .. } => f(Part::Expr(expr)),
            BoundExpr::Binary { left, right, .. } => {
                f(Part::Expr(left));
                f(Part::Expr(right));
            }
            BoundExpr::Func { args, .. } | BoundExpr::Udf { args, .. } => {
                for a in args {
                    f(Part::Expr(a));
                }
            }
            BoundExpr::Case {
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
            BoundExpr::InList { expr, list, .. } => {
                f(Part::Expr(expr));
                for e in list {
                    f(Part::Expr(e));
                }
            }
            BoundExpr::Between {
                expr, low, high, ..
            } => {
                f(Part::Expr(expr));
                f(Part::Expr(low));
                f(Part::Expr(high));
            }
            BoundExpr::Like { expr, pattern, .. } => {
                f(Part::Expr(expr));
                f(Part::Expr(pattern));
            }
            BoundExpr::InSubquery { expr, plan, .. } => {
                f(Part::Expr(expr));
                f(Part::Plan(plan));
            }
            BoundExpr::ScalarSubquery(plan) | BoundExpr::Exists { plan, .. } => f(Part::Plan(plan)),
        }
    }

    /// [`BoundExpr::parts`] for rewrites.
    #[deny(clippy::wildcard_enum_match_arm, clippy::match_wildcard_for_single_variants)]
    pub fn parts_mut(&mut self, f: &mut dyn FnMut(PartMut<'_>)) {
        match self {
            BoundExpr::Column(_) | BoundExpr::Literal(_) => {}
            BoundExpr::Not(expr)
            | BoundExpr::Neg(expr)
            | BoundExpr::Cast { expr, .. }
            | BoundExpr::IsNull { expr, .. }
            | BoundExpr::InSet { expr, .. } => f(PartMut::Expr(expr)),
            BoundExpr::Binary { left, right, .. } => {
                f(PartMut::Expr(left));
                f(PartMut::Expr(right));
            }
            BoundExpr::Func { args, .. } | BoundExpr::Udf { args, .. } => {
                for a in args {
                    f(PartMut::Expr(a));
                }
            }
            BoundExpr::Case {
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
            BoundExpr::InList { expr, list, .. } => {
                f(PartMut::Expr(expr));
                for e in list {
                    f(PartMut::Expr(e));
                }
            }
            BoundExpr::Between {
                expr, low, high, ..
            } => {
                f(PartMut::Expr(expr));
                f(PartMut::Expr(low));
                f(PartMut::Expr(high));
            }
            BoundExpr::Like { expr, pattern, .. } => {
                f(PartMut::Expr(expr));
                f(PartMut::Expr(pattern));
            }
            BoundExpr::InSubquery { expr, plan, .. } => {
                f(PartMut::Expr(expr));
                f(PartMut::Plan(plan));
            }
            BoundExpr::ScalarSubquery(plan) | BoundExpr::Exists { plan, .. } => f(PartMut::Plan(plan)),
        }
    }

    /// Depth-first walk (does not descend into subquery plans).
    pub fn walk<'a>(&'a self, f: &mut dyn FnMut(&'a BoundExpr)) {
        f(self);
        self.parts(&mut |part| {
            if let Part::Expr(e) = part {
                e.walk(f);
            }
        });
    }

    /// Bottom-up rewrite: `f` sees every node of the expression (subquery
    /// plans excluded) after its operands, and may replace it.
    pub fn rewrite(&mut self, f: &mut dyn FnMut(&mut BoundExpr)) {
        self.parts_mut(&mut |part| {
            if let PartMut::Expr(e) = part {
                e.rewrite(f);
            }
        });
        f(self);
    }

    /// Whether a subquery is still pending materialization anywhere in
    /// this expression.
    pub fn holds_subquery(&self) -> bool {
        let mut found = false;
        self.parts(&mut |part| {
            found |= match part {
                Part::Plan(_) => true,
                Part::Expr(e) => e.holds_subquery(),
            }
        });
        found
    }

    /// Substitute each column reference `Column(i)` with `mapping[i]`
    /// (used to push ORDER BY keys below a projection).
    pub fn substitute_columns(&self, mapping: &[BoundExpr]) -> BoundExpr {
        let mut out = self.clone();
        // Bottom-up, so a substituted subtree is not itself substituted.
        out.rewrite(&mut |e| {
            if let BoundExpr::Column(i) = e {
                if let Some(m) = mapping.get(*i) {
                    *e = m.clone();
                }
            }
        });
        out
    }

    /// Rewrite all column indexes through `map` (used when pushing
    /// expressions across projections or splitting join keys).
    pub fn remap_columns(&self, map: &dyn Fn(usize) -> usize) -> BoundExpr {
        let mut out = self.clone();
        out.rewrite(&mut |e| {
            if let BoundExpr::Column(i) = e {
                *i = map(*i);
            }
        });
        out
    }

    /// Expression-operator mnemonics in this subtree (Table 4 accounting):
    /// arithmetic/comparison mnemonics uppercase, function names lowercase,
    /// `like` for LIKE predicates.
    pub fn expression_ops(&self, out: &mut Vec<String>) {
        self.walk(&mut |e| match e {
            BoundExpr::Binary { op, .. } => match op {
                BinaryOp::And | BinaryOp::Or => {}
                other => out.push(other.mnemonic().to_string()),
            },
            BoundExpr::Func { func, .. } => out.push(func.mnemonic().to_string()),
            BoundExpr::Udf { name, .. } => out.push(name.clone()),
            BoundExpr::Like { .. } => out.push("like".to_string()),
            BoundExpr::Case { .. } => out.push("case".to_string()),
            BoundExpr::Cast { .. } => out.push("convert".to_string()),
            _ => {}
        });
    }

    /// True if the expression is a bare column reference.
    pub fn is_column(&self) -> bool {
        matches!(self, BoundExpr::Column(_))
    }

    /// The type of every non-NULL value [`BoundExpr::eval`] returns for
    /// input columns of `input_types`, each rule mirroring evaluation.
    /// Where values meet (`CASE`, `COALESCE`, `ISNULL`) the binder has
    /// converted them to their [`common_type`].
    pub fn result_type(&self, input_types: &[DataType]) -> DataType {
        use DataType::*;
        match self {
            BoundExpr::Column(i) => input_types.get(*i).copied().unwrap_or(Text),
            BoundExpr::Literal(v) => v.data_type().unwrap_or(Text),
            BoundExpr::Not(_)
            | BoundExpr::IsNull { .. }
            | BoundExpr::InList { .. }
            | BoundExpr::InSet { .. }
            | BoundExpr::Between { .. }
            | BoundExpr::Like { .. }
            | BoundExpr::Exists { .. }
            | BoundExpr::InSubquery { .. } => Bool,
            BoundExpr::Neg(e) => e.result_type(input_types),
            BoundExpr::Binary { left, op, right } => {
                use BinaryOp::*;
                let (lt, rt) = (left.result_type(input_types), right.result_type(input_types));
                match (lt, op, rt) {
                    (_, And | Or | Eq | NotEq | Lt | LtEq | Gt | GtEq, _) => Bool,
                    (_, Concat, _) | (Text, Add, _) | (_, Add, Text) => Text,
                    (Date, Add | Sub, Int) => Date,
                    (Date, Sub, Date) | (Int, _, Int) => Int,
                    _ => Float,
                }
            }
            BoundExpr::Func { func, args } => match func.result_type() {
                Some(ty) => ty,
                None if *func == ScalarFunc::NullIf => {
                    args.first().map_or(Text, |a| a.result_type(input_types))
                }
                None => common_type(args, input_types),
            },
            BoundExpr::Udf { .. } => Float,
            BoundExpr::Case {
                branches,
                else_result,
                ..
            } => common_type(
                branches.iter().map(|(_, v)| v).chain(else_result.as_deref()),
                input_types,
            ),
            BoundExpr::Cast { ty, .. } => *ty,
            BoundExpr::ScalarSubquery(p) => {
                p.schema().columns.first().map(|c| c.ty).unwrap_or(Text)
            }
        }
    }
}

/// Where the values of `exprs` meet (`CASE` results, `COALESCE` and
/// `ISNULL` arguments, the sides of a set operation), the type they all
/// take: [`DataType::unify`] over their result types. A NULL literal has
/// no type of its own and meets any; with nothing else, the type is Text.
pub fn common_type<'a>(
    exprs: impl IntoIterator<Item = &'a BoundExpr>,
    input_types: &[DataType],
) -> DataType {
    exprs
        .into_iter()
        .filter(|e| !matches!(e, BoundExpr::Literal(Value::Null)))
        .map(|e| e.result_type(input_types))
        .reduce(DataType::unify)
        .unwrap_or(DataType::Text)
}

impl fmt::Display for BoundExpr {
    /// Compact rendering used in plan `filters` lists (Listing 1 style:
    /// `income GT 500000`).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BoundExpr::Column(i) => write!(f, "#{i}"),
            BoundExpr::Literal(v) => write!(f, "{v}"),
            BoundExpr::Not(e) => write!(f, "NOT {e}"),
            BoundExpr::Neg(e) => write!(f, "-{e}"),
            BoundExpr::Binary { left, op, right } => {
                write!(f, "{left} {} {right}", op.mnemonic())
            }
            BoundExpr::Func { func, args } => {
                write!(f, "{}(", func.mnemonic())?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            BoundExpr::Udf { name, args } => {
                write!(f, "{name}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            BoundExpr::Case { .. } => write!(f, "CASE(...)"),
            BoundExpr::Cast { expr, ty, .. } => write!(f, "convert({expr}, {ty:?})"),
            BoundExpr::IsNull { expr, negated } => {
                write!(f, "{expr} IS{}NULL", if *negated { " NOT " } else { " " })
            }
            BoundExpr::InList { expr, list, .. } => write!(f, "{expr} IN [{}]", list.len()),
            BoundExpr::InSet { expr, values, .. } => write!(f, "{expr} IN set[{}]", values.len()),
            BoundExpr::Between {
                expr, low, high, ..
            } => write!(f, "{expr} BETWEEN {low} AND {high}"),
            BoundExpr::Like { expr, pattern, .. } => write!(f, "{expr} LIKE {pattern}"),
            BoundExpr::ScalarSubquery(_) => write!(f, "(subquery)"),
            BoundExpr::InSubquery { expr, .. } => write!(f, "{expr} IN (subquery)"),
            BoundExpr::Exists { .. } => write!(f, "EXISTS(subquery)"),
        }
    }
}

/// Interpret a value as a three-valued boolean.
pub fn truth(v: &Value) -> Result<Option<bool>> {
    match v {
        Value::Null => Ok(None),
        Value::Bool(b) => Ok(Some(*b)),
        Value::Int(i) => Ok(Some(*i != 0)),
        other => Err(Error::Execution(format!(
            "'{}' is not a boolean",
            other.to_text()
        ))),
    }
}

/// Evaluate a predicate: unknown (NULL) means the row is not selected.
pub fn eval_predicate(e: &BoundExpr, row: &Row, ctx: &EvalContext) -> Result<bool> {
    Ok(truth(&e.eval(row, ctx)?)?.unwrap_or(false))
}

fn eval_binary(
    op: BinaryOp,
    left: &BoundExpr,
    right: &BoundExpr,
    row: &Row,
    ctx: &EvalContext,
) -> Result<Value> {
    use BinaryOp::*;
    match op {
        And => {
            let l = truth(&left.eval(row, ctx)?)?;
            if l == Some(false) {
                return Ok(Value::Bool(false));
            }
            let r = truth(&right.eval(row, ctx)?)?;
            Ok(match (l, r) {
                (_, Some(false)) => Value::Bool(false),
                (Some(true), Some(true)) => Value::Bool(true),
                _ => Value::Null,
            })
        }
        Or => {
            let l = truth(&left.eval(row, ctx)?)?;
            if l == Some(true) {
                return Ok(Value::Bool(true));
            }
            let r = truth(&right.eval(row, ctx)?)?;
            Ok(match (l, r) {
                (_, Some(true)) => Value::Bool(true),
                (Some(false), Some(false)) => Value::Bool(false),
                _ => Value::Null,
            })
        }
        Eq | NotEq | Lt | LtEq | Gt | GtEq => {
            let l = left.eval(row, ctx)?;
            let r = right.eval(row, ctx)?;
            if l.is_null() || r.is_null() {
                return Ok(Value::Null);
            }
            let ord = l.sql_cmp(&r).ok_or_else(|| {
                Error::Execution(format!(
                    "cannot compare '{}' with '{}'",
                    l.to_text(),
                    r.to_text()
                ))
            })?;
            use std::cmp::Ordering::*;
            let b = match op {
                Eq => ord == Equal,
                NotEq => ord != Equal,
                Lt => ord == Less,
                LtEq => ord != Greater,
                Gt => ord == Greater,
                GtEq => ord != Less,
                _ => unreachable!(),
            };
            Ok(Value::Bool(b))
        }
        Concat => {
            let l = left.eval(row, ctx)?;
            let r = right.eval(row, ctx)?;
            if l.is_null() || r.is_null() {
                return Ok(Value::Null);
            }
            Ok(Value::Text(format!("{}{}", l.to_text(), r.to_text())))
        }
        Add | Sub | Mul | Div | Mod => {
            let l = left.eval(row, ctx)?;
            let r = right.eval(row, ctx)?;
            if l.is_null() || r.is_null() {
                return Ok(Value::Null);
            }
            // T-SQL: `+` on strings is concatenation.
            if op == Add {
                if let (Value::Text(a), b) = (&l, &r) {
                    return Ok(Value::Text(format!("{a}{}", b.to_text())));
                }
                if let (a, Value::Text(b)) = (&l, &r) {
                    return Ok(Value::Text(format!("{}{b}", a.to_text())));
                }
            }
            // Date arithmetic: date ± int shifts by days.
            if let (Value::Date(d), Value::Int(n)) = (&l, &r) {
                return match op {
                    Add => Ok(Value::Date(d + *n as i32)),
                    Sub => Ok(Value::Date(d - *n as i32)),
                    _ => Err(Error::Execution("invalid date arithmetic".into())),
                };
            }
            if let (Value::Date(a), Value::Date(b)) = (&l, &r) {
                if op == Sub {
                    return Ok(Value::Int(i64::from(*a) - i64::from(*b)));
                }
            }
            match (&l, &r) {
                (Value::Int(a), Value::Int(b)) => match op {
                    Add => Ok(Value::Int(a.checked_add(*b).ok_or_else(overflow)?)),
                    Sub => Ok(Value::Int(a.checked_sub(*b).ok_or_else(overflow)?)),
                    Mul => Ok(Value::Int(a.checked_mul(*b).ok_or_else(overflow)?)),
                    Div => {
                        if *b == 0 {
                            Err(Error::Execution("division by zero".into()))
                        } else {
                            // T-SQL integer division truncates.
                            Ok(Value::Int(a / b))
                        }
                    }
                    Mod => {
                        if *b == 0 {
                            Err(Error::Execution("division by zero".into()))
                        } else {
                            Ok(Value::Int(a % b))
                        }
                    }
                    _ => unreachable!(),
                },
                _ => {
                    let a = l
                        .cast(DataType::Float)?
                        .as_f64()
                        .ok_or_else(|| Error::Execution("expected number".into()))?;
                    let b = r
                        .cast(DataType::Float)?
                        .as_f64()
                        .ok_or_else(|| Error::Execution("expected number".into()))?;
                    match op {
                        Add => Ok(Value::Float(a + b)),
                        Sub => Ok(Value::Float(a - b)),
                        Mul => Ok(Value::Float(a * b)),
                        Div => {
                            if b == 0.0 {
                                Err(Error::Execution("division by zero".into()))
                            } else {
                                Ok(Value::Float(a / b))
                            }
                        }
                        Mod => {
                            if b == 0.0 {
                                Err(Error::Execution("division by zero".into()))
                            } else {
                                Ok(Value::Float(a % b))
                            }
                        }
                        _ => unreachable!(),
                    }
                }
            }
        }
    }
}

pub(crate) fn overflow() -> Error {
    Error::Execution("integer overflow".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> EvalContext {
        EvalContext::default()
    }

    fn lit(v: Value) -> BoundExpr {
        BoundExpr::Literal(v)
    }

    fn bin(l: BoundExpr, op: BinaryOp, r: BoundExpr) -> BoundExpr {
        BoundExpr::Binary {
            left: Box::new(l),
            op,
            right: Box::new(r),
        }
    }

    #[test]
    fn arithmetic() {
        let e = bin(lit(Value::Int(7)), BinaryOp::Div, lit(Value::Int(2)));
        assert_eq!(e.eval(&vec![], &ctx()).unwrap(), Value::Int(3));
        let e = bin(lit(Value::Int(7)), BinaryOp::Div, lit(Value::Float(2.0)));
        assert_eq!(e.eval(&vec![], &ctx()).unwrap(), Value::Float(3.5));
        let e = bin(lit(Value::Int(7)), BinaryOp::Mod, lit(Value::Int(0)));
        assert!(e.eval(&vec![], &ctx()).is_err());
    }

    #[test]
    fn tsql_plus_concatenates_strings() {
        let e = bin(
            lit(Value::Text("a".into())),
            BinaryOp::Add,
            lit(Value::Text("b".into())),
        );
        assert_eq!(e.eval(&vec![], &ctx()).unwrap(), Value::Text("ab".into()));
    }

    #[test]
    fn date_arithmetic() {
        let e = bin(lit(Value::Date(10)), BinaryOp::Add, lit(Value::Int(5)));
        assert_eq!(e.eval(&vec![], &ctx()).unwrap(), Value::Date(15));
        let e = bin(lit(Value::Date(10)), BinaryOp::Sub, lit(Value::Date(3)));
        assert_eq!(e.eval(&vec![], &ctx()).unwrap(), Value::Int(7));
    }

    #[test]
    fn three_valued_logic() {
        let null = lit(Value::Null);
        let t = lit(Value::Bool(true));
        let f = lit(Value::Bool(false));
        // NULL AND FALSE = FALSE, NULL AND TRUE = NULL
        assert_eq!(
            bin(null.clone(), BinaryOp::And, f.clone())
                .eval(&vec![], &ctx())
                .unwrap(),
            Value::Bool(false)
        );
        assert!(bin(null.clone(), BinaryOp::And, t.clone())
            .eval(&vec![], &ctx())
            .unwrap()
            .is_null());
        // NULL OR TRUE = TRUE
        assert_eq!(
            bin(null.clone(), BinaryOp::Or, t)
                .eval(&vec![], &ctx())
                .unwrap(),
            Value::Bool(true)
        );
        // NULL = NULL is NULL
        assert!(bin(null.clone(), BinaryOp::Eq, null)
            .eval(&vec![], &ctx())
            .unwrap()
            .is_null());
    }

    #[test]
    fn in_list_null_semantics() {
        // 1 IN (2, NULL) is NULL; 1 IN (1, NULL) is TRUE.
        let e = BoundExpr::InList {
            expr: Box::new(lit(Value::Int(1))),
            list: vec![lit(Value::Int(2)), lit(Value::Null)],
            negated: false,
        };
        assert!(e.eval(&vec![], &ctx()).unwrap().is_null());
        let e = BoundExpr::InList {
            expr: Box::new(lit(Value::Int(1))),
            list: vec![lit(Value::Int(1)), lit(Value::Null)],
            negated: false,
        };
        assert_eq!(e.eval(&vec![], &ctx()).unwrap(), Value::Bool(true));
    }

    #[test]
    fn between_and_like() {
        let e = BoundExpr::Between {
            expr: Box::new(lit(Value::Int(5))),
            low: Box::new(lit(Value::Int(1))),
            high: Box::new(lit(Value::Int(10))),
            negated: false,
        };
        assert_eq!(e.eval(&vec![], &ctx()).unwrap(), Value::Bool(true));
        let e = BoundExpr::Like {
            expr: Box::new(lit(Value::Text("hello".into()))),
            pattern: Box::new(lit(Value::Text("h%o".into()))),
            negated: false,
        };
        assert_eq!(e.eval(&vec![], &ctx()).unwrap(), Value::Bool(true));
    }

    #[test]
    fn try_cast_swallows_errors() {
        let bad = BoundExpr::Cast {
            expr: Box::new(lit(Value::Text("abc".into()))),
            ty: DataType::Int,
            try_cast: true,
        };
        assert!(bad.eval(&vec![], &ctx()).unwrap().is_null());
        let strict = BoundExpr::Cast {
            expr: Box::new(lit(Value::Text("abc".into()))),
            ty: DataType::Int,
            try_cast: false,
        };
        assert!(strict.eval(&vec![], &ctx()).is_err());
    }

    #[test]
    fn case_searched_and_simple() {
        // CASE WHEN col > 1 THEN 'big' ELSE 'small' END over row [2]
        let e = BoundExpr::Case {
            operand: None,
            branches: vec![(
                bin(BoundExpr::Column(0), BinaryOp::Gt, lit(Value::Int(1))),
                lit(Value::Text("big".into())),
            )],
            else_result: Some(Box::new(lit(Value::Text("small".into())))),
        };
        assert_eq!(
            e.eval(&vec![Value::Int(2)], &ctx()).unwrap(),
            Value::Text("big".into())
        );
        assert_eq!(
            e.eval(&vec![Value::Int(0)], &ctx()).unwrap(),
            Value::Text("small".into())
        );
        // Simple CASE
        let e = BoundExpr::Case {
            operand: Some(Box::new(BoundExpr::Column(0))),
            branches: vec![(lit(Value::Int(1)), lit(Value::Text("one".into())))],
            else_result: None,
        };
        assert!(e.eval(&vec![Value::Int(2)], &ctx()).unwrap().is_null());
    }

    #[test]
    fn remap_and_column_collection() {
        let e = bin(BoundExpr::Column(3), BinaryOp::Add, BoundExpr::Column(1));
        let remapped = e.remap_columns(&|i| i + 10);
        let mut cols = Vec::new();
        remapped.column_indexes(&mut cols);
        cols.sort_unstable();
        assert_eq!(cols, vec![11, 13]);
    }

    #[test]
    fn expression_ops_mnemonics() {
        let e = bin(
            BoundExpr::Func {
                func: ScalarFunc::Len,
                args: vec![BoundExpr::Column(0)],
            },
            BinaryOp::Add,
            lit(Value::Int(1)),
        );
        let mut ops = Vec::new();
        e.expression_ops(&mut ops);
        ops.sort();
        assert_eq!(ops, vec!["ADD", "len"]);
    }
}
