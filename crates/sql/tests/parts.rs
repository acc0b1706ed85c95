//! The AST's `parts` enumerators: for a sample of every variant the
//! visited children are exactly its expression-typed fields (and the
//! query it holds), `parts_mut` visits the same parts, and a rebuild that
//! replaces every part by itself returns an equal tree. The walks derived
//! from them (`referenced_tables`, `rename_tables`, `walk_exprs`) are held
//! to the same positions.

use sqlshare_sql::ast::{Expr, ObjectName, Part, PartMut, Query};
use sqlshare_sql::parser::parse_query;
use sqlshare_sql::rewrite::rename_tables;

/// Exhaustive on purpose: a new variant must be named here, and then
/// `every_variant_has_a_sample` asks for its sample.
fn variant(e: &Expr) -> &'static str {
    match e {
        Expr::Column(_) => "Column",
        Expr::Literal(_) => "Literal",
        Expr::Wildcard => "Wildcard",
        Expr::Unary { .. } => "Unary",
        Expr::Binary { .. } => "Binary",
        Expr::Function(_) => "Function",
        Expr::Case { .. } => "Case",
        Expr::Cast { .. } => "Cast",
        Expr::IsNull { .. } => "IsNull",
        Expr::InList { .. } => "InList",
        Expr::InSubquery { .. } => "InSubquery",
        Expr::Between { .. } => "Between",
        Expr::Like { .. } => "Like",
        Expr::Exists { .. } => "Exists",
        Expr::ScalarSubquery(_) => "ScalarSubquery",
    }
}

const VARIANTS: [&str; 15] = [
    "Column", "Literal", "Wildcard", "Unary", "Binary", "Function", "Case", "Cast", "IsNull",
    "InList", "InSubquery", "Between", "Like", "Exists", "ScalarSubquery",
];

/// `(expression, its operand expressions in source order, queries held)`.
/// Operands are the marker columns `c0, c1, …`, one per expression-typed
/// field of the variant.
const SAMPLES: &[(&str, &[&str], usize)] = &[
    ("c0", &[], 0),
    ("42", &[], 0),
    ("-c0", &["c0"], 0),
    ("NOT c0", &["c0"], 0),
    ("c0 + c1", &["c0", "c1"], 0),
    ("F(c0, c1)", &["c0", "c1"], 0),
    ("COUNT(*)", &["*"], 0),
    (
        "SUM(c0) OVER (PARTITION BY c1, c2 ORDER BY c3 DESC, c4)",
        &["c0", "c1", "c2", "c3", "c4"],
        0,
    ),
    (
        "CASE c0 WHEN c1 THEN c2 WHEN c3 THEN c4 ELSE c5 END",
        &["c0", "c1", "c2", "c3", "c4", "c5"],
        0,
    ),
    ("CASE WHEN c0 THEN c1 END", &["c0", "c1"], 0),
    ("CAST(c0 AS INT)", &["c0"], 0),
    ("c0 IS NOT NULL", &["c0"], 0),
    ("c0 IN (c1, c2)", &["c0", "c1", "c2"], 0),
    ("c0 IN (SELECT q FROM t)", &["c0"], 1),
    ("c0 BETWEEN c1 AND c2", &["c0", "c1", "c2"], 0),
    ("c0 LIKE c1", &["c0", "c1"], 0),
    ("EXISTS (SELECT q FROM t)", &[], 1),
    ("(SELECT q FROM t)", &[], 1),
];

fn parse_expr(sql: &str) -> Expr {
    let query = parse_query(&format!("SELECT {sql} FROM s")).unwrap();
    let mut found = None;
    query.parts(&mut |part| {
        if let Part::Select(s) = part {
            s.parts(&mut |part| {
                if let Part::Expr(e) = part {
                    found = Some(e.clone());
                }
            });
        }
    });
    found.expect("a projected expression")
}

fn visited(e: &Expr) -> (Vec<String>, usize) {
    let (mut exprs, mut queries) = (Vec::new(), 0);
    e.parts(&mut |part| match part {
        Part::Expr(c) => exprs.push(c.to_string()),
        Part::Query(_) => queries += 1,
        Part::Select(_) | Part::Table(_) => panic!("an expression holds neither"),
    });
    (exprs, queries)
}

#[test]
fn every_variant_has_a_sample() {
    let mut seen: Vec<&str> = SAMPLES.iter().map(|(sql, ..)| variant(&parse_expr(sql))).collect();
    // `*` only parses as a function argument.
    seen.push(variant(&Expr::Wildcard));
    for v in VARIANTS {
        assert!(seen.contains(&v), "no sample for Expr::{v}");
    }
}

#[test]
fn parts_are_exactly_the_expression_typed_fields() {
    for (sql, operands, queries) in SAMPLES {
        let e = parse_expr(sql);
        let (exprs, held) = visited(&e);
        assert_eq!(exprs, *operands, "{sql}");
        assert_eq!(held, *queries, "{sql}");
    }
    assert_eq!(visited(&Expr::Wildcard), (vec![], 0));
}

#[test]
fn parts_mut_visits_the_same_parts_and_identity_rebuilds_an_equal_tree() {
    for (sql, operands, queries) in SAMPLES {
        let original = parse_expr(sql);
        let mut rebuilt = original.clone();
        let (mut exprs, mut held) = (Vec::new(), 0);
        rebuilt.parts_mut(&mut |part| match part {
            PartMut::Expr(c) => {
                exprs.push(c.to_string());
                *c = c.clone();
            }
            PartMut::Query(q) => {
                held += 1;
                *q = q.clone();
            }
            PartMut::Select(_) | PartMut::Table(_) => panic!("an expression holds neither"),
        });
        assert_eq!(exprs, *operands, "{sql}");
        assert_eq!(held, *queries, "{sql}");
        assert_eq!(rebuilt, original, "{sql}");
    }
}

/// One table per position a query can name one in.
const EVERYWHERE: &str = "\
    SELECT (SELECT MAX(x) FROM t_projection), \
           SUM(v) OVER (PARTITION BY (SELECT 1 FROM t_partition) ORDER BY (SELECT 1 FROM t_window_order)) \
    FROM t_from AS f \
    JOIN t_join AS j ON f.k = j.k AND j.v > (SELECT AVG(v) FROM t_on) \
    CROSS JOIN (SELECT k FROM t_derived WHERE k IN (SELECT k FROM t_derived_where)) AS d \
    WHERE f.v IN (SELECT v FROM t_where WHERE EXISTS (SELECT 1 FROM t_nested)) \
    GROUP BY CASE WHEN EXISTS (SELECT 1 FROM t_group) THEN 1 ELSE 0 END \
    HAVING COUNT(*) > (SELECT MIN(n) FROM t_having) \
    UNION ALL SELECT a, b FROM t_union \
    ORDER BY (SELECT 1 FROM t_order)";

const EVERY_TABLE: [&str; 14] = [
    "t_derived", "t_derived_where", "t_from", "t_group", "t_having", "t_join", "t_nested",
    "t_on", "t_order", "t_partition", "t_projection", "t_union", "t_where", "t_window_order",
];

fn table_names(q: &Query) -> Vec<String> {
    let mut names: Vec<String> = q.referenced_tables().iter().map(ObjectName::flat).collect();
    names.sort();
    names
}

#[test]
fn referenced_tables_and_rename_tables_see_the_same_positions() {
    let mut q = parse_query(EVERYWHERE).unwrap();
    assert_eq!(table_names(&q), EVERY_TABLE);

    rename_tables(&mut q, &|name| {
        (name.0.len() == 1).then(|| ObjectName(vec!["owner".into(), name.0[0].clone()]))
    });
    let renamed: Vec<String> = EVERY_TABLE.iter().map(|t| format!("owner.{t}")).collect();
    assert_eq!(table_names(&q), renamed);
    // The short name stays visible as an alias where none was given.
    let sql = q.to_string();
    assert!(sql.contains("owner.t_union AS t_union"), "{sql}");
    assert!(sql.contains("owner.t_from AS f"), "{sql}");
    // And the rewrite survives the canonical text a view is stored as.
    assert_eq!(parse_query(&sql).unwrap(), q);
}

#[test]
fn identity_rename_leaves_the_query_equal() {
    let original = parse_query(EVERYWHERE).unwrap();
    let mut q = original.clone();
    rename_tables(&mut q, &|_| None);
    assert_eq!(q, original);
}

#[test]
fn walks_stop_at_subquery_expressions() {
    let q = parse_query(EVERYWHERE).unwrap();
    // Both SELECTs of the UNION and the derived table; not the subquery
    // expressions' own blocks.
    let mut blocks = 0;
    q.walk_selects(&mut |_| blocks += 1);
    assert_eq!(blocks, 3);
    // Subquery expressions are visited (here: counted), never entered.
    let (mut subqueries, mut inner_columns) = (0, 0);
    q.walk_exprs(&mut |e| match e {
        Expr::ScalarSubquery(_) | Expr::InSubquery { .. } | Expr::Exists { .. } => subqueries += 1,
        Expr::Column(c) if c.name == "x" || c.name == "n" => inner_columns += 1,
        _ => {}
    });
    assert_eq!(subqueries, 9, "one per outer-level subquery position");
    assert_eq!(inner_columns, 0);
}
