//! Per-query SQL feature detection (§5.3 of the paper).
//!
//! The paper counts queries that use features "sometimes omitted in
//! simpler SQL dialects": sorting (24%), top-k (2%), outer joins (11%),
//! and window functions (4%), plus the set operations, subqueries, CASE
//! and CAST usage that drive the §5.1 idiom analysis. [`QueryFeatures`]
//! computes all of them in a single AST walk.

use crate::ast::*;

/// Names treated as aggregate functions when counting features.
pub const AGGREGATE_FUNCTIONS: &[&str] = &[
    "COUNT", "SUM", "AVG", "MIN", "MAX", "STDEV", "VAR", "STRING_AGG",
];

/// Names treated as string functions (Table 4a is dominated by these).
pub const STRING_FUNCTIONS: &[&str] = &[
    "LIKE", "PATINDEX", "SUBSTRING", "CHARINDEX", "ISNUMERIC", "LEN", "UPPER", "LOWER",
    "REPLACE", "LTRIM", "RTRIM", "TRIM", "LEFT", "RIGHT", "CONCAT", "REVERSE",
];

/// The feature profile of one query.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueryFeatures {
    /// Query-level ORDER BY present ("sorting", 24% in the paper).
    pub order_by: bool,
    /// `TOP n` present ("top k", 2%).
    pub top: bool,
    /// LEFT/RIGHT/FULL OUTER JOIN present (11%).
    pub outer_join: bool,
    /// Any join at all.
    pub join: bool,
    /// `OVER (...)` window function present (4%).
    pub window_function: bool,
    /// UNION/INTERSECT/EXCEPT present.
    pub set_operation: bool,
    /// Specifically UNION (vertical recomposition marker, §5.1).
    pub union_op: bool,
    /// Derived table (subquery in FROM).
    pub subquery_in_from: bool,
    /// Scalar/IN/EXISTS subquery in an expression.
    pub subquery_in_expr: bool,
    /// GROUP BY present.
    pub group_by: bool,
    /// SELECT DISTINCT present.
    pub distinct: bool,
    /// CASE expression present.
    pub case_expr: bool,
    /// CAST/TRY_CAST present.
    pub cast: bool,
    /// Aggregate function call present.
    pub aggregate: bool,
    /// Count of string-function calls + LIKE predicates.
    pub string_ops: usize,
    /// Count of arithmetic operators (+ - * / %).
    pub arithmetic_ops: usize,
    /// Number of SELECT blocks (nesting breadth).
    pub select_blocks: usize,
    /// Number of distinct table names referenced (syntactic).
    pub tables_referenced: usize,
    /// Maximum expression CASE nesting seen.
    pub max_case_depth: usize,
}

impl QueryFeatures {
    /// Analyze a parsed query.
    pub fn detect(query: &Query) -> Self {
        let mut f = QueryFeatures {
            order_by: !query.order_by.is_empty(),
            ..Default::default()
        };

        // SELECT blocks and FROM items, derived tables included;
        // expressions are scanned below.
        Part::Query(query).walk(&mut |part| match part {
            Part::Select(s) => {
                f.select_blocks += 1;
                f.top |= s.top.is_some();
                f.distinct |= s.distinct;
                f.group_by |= !s.group_by.is_empty();
                true
            }
            Part::Table(t) => {
                f.subquery_in_from |= matches!(t, TableRef::Derived { .. });
                if let TableRef::Join { kind, .. } = t {
                    f.join = true;
                    f.outer_join |= kind.is_outer();
                }
                true
            }
            Part::Query(_) => true,
            Part::Expr(_) => false,
        });

        scan_set_expr(&query.body, &mut f);

        query.walk_exprs(&mut |e| scan_expr(e, &mut f, 0));

        let mut tables = query.referenced_tables();
        tables.sort();
        tables.dedup();
        f.tables_referenced = tables.len();
        f
    }
}

fn scan_set_expr(e: &SetExpr, f: &mut QueryFeatures) {
    if let SetExpr::SetOp {
        op, left, right, ..
    } = e
    {
        f.set_operation = true;
        if *op == SetOp::Union {
            f.union_op = true;
        }
        scan_set_expr(left, f);
        scan_set_expr(right, f);
    }
}

fn scan_expr(e: &Expr, f: &mut QueryFeatures, case_depth: usize) {
    match e {
        Expr::Function(call) => {
            if call.over.is_some() {
                f.window_function = true;
            }
            let upper = call.name.to_ascii_uppercase();
            if AGGREGATE_FUNCTIONS.contains(&upper.as_str()) && call.over.is_none() {
                f.aggregate = true;
            }
            if STRING_FUNCTIONS.contains(&upper.as_str()) {
                f.string_ops += 1;
            }
        }
        Expr::Like { .. } => f.string_ops += 1,
        Expr::Binary { op, .. } => {
            if matches!(
                op,
                BinaryOp::Add | BinaryOp::Sub | BinaryOp::Mul | BinaryOp::Div | BinaryOp::Mod
            ) {
                f.arithmetic_ops += 1;
            }
        }
        Expr::Case { branches, .. } => {
            f.case_expr = true;
            f.max_case_depth = f.max_case_depth.max(case_depth + 1);
            for (c, v) in branches {
                c.walk(&mut |e| scan_expr(e, f, case_depth + 1));
                v.walk(&mut |e| scan_expr(e, f, case_depth + 1));
            }
        }
        Expr::Cast { .. } => f.cast = true,
        Expr::ScalarSubquery(q)
        | Expr::Exists { subquery: q, .. }
        | Expr::InSubquery { subquery: q, .. } => {
            f.subquery_in_expr = true;
            // Walk the subquery too: features are whole-query properties.
            let sub = QueryFeatures::detect(q);
            merge(f, &sub);
        }
        _ => {}
    }
}

fn merge(f: &mut QueryFeatures, sub: &QueryFeatures) {
    f.order_by |= sub.order_by;
    f.top |= sub.top;
    f.outer_join |= sub.outer_join;
    f.join |= sub.join;
    f.window_function |= sub.window_function;
    f.set_operation |= sub.set_operation;
    f.union_op |= sub.union_op;
    f.subquery_in_from |= sub.subquery_in_from;
    f.group_by |= sub.group_by;
    f.distinct |= sub.distinct;
    f.case_expr |= sub.case_expr;
    f.cast |= sub.cast;
    f.aggregate |= sub.aggregate;
    f.string_ops += sub.string_ops;
    f.arithmetic_ops += sub.arithmetic_ops;
    f.max_case_depth = f.max_case_depth.max(sub.max_case_depth);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;

    fn detect(sql: &str) -> QueryFeatures {
        QueryFeatures::detect(&parse_query(sql).unwrap())
    }

    #[test]
    fn sorting_and_top() {
        let f = detect("SELECT TOP 5 a FROM t ORDER BY a DESC");
        assert!(f.order_by && f.top);
        assert!(!f.window_function);
    }

    #[test]
    fn outer_join_detected() {
        assert!(detect("SELECT * FROM a LEFT JOIN b ON a.x = b.x").outer_join);
        assert!(!detect("SELECT * FROM a JOIN b ON a.x = b.x").outer_join);
        assert!(detect("SELECT * FROM a JOIN b ON a.x = b.x").join);
    }

    #[test]
    fn window_functions_detected() {
        let f = detect("SELECT SUM(v) OVER (PARTITION BY g) FROM t");
        assert!(f.window_function);
        // An OVER'd aggregate is not a plain aggregate.
        assert!(!f.aggregate);
    }

    #[test]
    fn union_and_subqueries() {
        let f = detect("SELECT a FROM t UNION ALL SELECT a FROM u");
        assert!(f.set_operation && f.union_op);
        let f = detect("SELECT * FROM (SELECT a FROM t) AS d");
        assert!(f.subquery_in_from);
        let f = detect("SELECT * FROM t WHERE x IN (SELECT y FROM u ORDER BY y)");
        assert!(f.subquery_in_expr);
        assert!(f.order_by, "subquery features propagate");
    }

    #[test]
    fn string_and_arithmetic_ops_counted() {
        let f = detect(
            "SELECT SUBSTRING(name, 1, 3), LEN(name) FROM t WHERE name LIKE 'A%' AND x + y * 2 > 0",
        );
        assert_eq!(f.string_ops, 3);
        assert_eq!(f.arithmetic_ops, 2);
    }

    #[test]
    fn case_and_cast() {
        let f = detect("SELECT CASE WHEN v = '' THEN NULL ELSE CAST(v AS INT) END FROM t");
        assert!(f.case_expr && f.cast);
        assert_eq!(f.max_case_depth, 1);
    }

    #[test]
    fn tables_referenced_deduplicates() {
        let f = detect("SELECT * FROM t AS a JOIN t AS b ON a.x = b.x JOIN u ON a.y = u.y");
        assert_eq!(f.tables_referenced, 2);
    }

    #[test]
    fn select_blocks_counted() {
        let f = detect("SELECT * FROM (SELECT a FROM t) AS d UNION SELECT b FROM u");
        assert_eq!(f.select_blocks, 3);
    }
}
