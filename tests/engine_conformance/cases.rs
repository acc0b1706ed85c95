// The cases of `engine_conformance.rs`, compiled once per engine mode.

use proptest::prelude::*;
use sqlshare_core::SqlShare;
use sqlshare_engine::{DataType, Engine, Schema, Table, Value};
use sqlshare_ingest::{ingest_text, HeaderMode, IngestOptions};
use sqlshare_sql::ast::{
    BinaryOp, ColumnRef, Expr, FunctionCall, Literal, ObjectName, OrderByItem, Query, Select,
    SelectItem, SetExpr, TableRef,
};
use sqlshare_sql::parser::parse_query;

// ---- AST round-trip -------------------------------------------------------

fn literal_strategy() -> impl Strategy<Value = Literal> {
    prop_oneof![
        Just(Literal::Null),
        any::<bool>().prop_map(Literal::Bool),
        any::<i64>().prop_map(Literal::Int),
        // Finite, non-weird floats (NaN/inf have no SQL literal form).
        (-1.0e12f64..1.0e12).prop_map(Literal::Float),
        "[a-z ',%_-]{0,12}".prop_map(Literal::String),
    ]
}

fn column_strategy() -> impl Strategy<Value = Expr> {
    prop_oneof![
        "[a-z][a-z0-9_]{0,8}".prop_map(|n| Expr::Column(ColumnRef::bare(n))),
        ("[a-z][a-z0-9_]{0,5}", "[a-z][a-z0-9_]{0,8}").prop_map(|(q, n)| {
            Expr::Column(ColumnRef {
                qualifier: Some(q),
                name: n,
            })
        }),
        // Names that force bracketing.
        "[a-z][a-z ]{1,8}[a-z]".prop_map(|n| Expr::Column(ColumnRef::bare(n))),
    ]
}

fn expr_strategy() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        literal_strategy().prop_map(Expr::Literal),
        column_strategy(),
    ];
    leaf.prop_recursive(4, 24, 4, |inner| {
        prop_oneof![
            (
                inner.clone(),
                prop_oneof![
                    Just(BinaryOp::Add),
                    Just(BinaryOp::Sub),
                    Just(BinaryOp::Mul),
                    Just(BinaryOp::Div),
                    Just(BinaryOp::Eq),
                    Just(BinaryOp::Lt),
                    Just(BinaryOp::GtEq),
                    Just(BinaryOp::And),
                    Just(BinaryOp::Or),
                    Just(BinaryOp::Concat),
                ],
                inner.clone()
            )
                .prop_map(|(l, op, r)| Expr::Binary {
                    left: Box::new(l),
                    op,
                    right: Box::new(r),
                }),
            (inner.clone(), any::<bool>()).prop_map(|(e, negated)| Expr::IsNull {
                expr: Box::new(e),
                negated,
            }),
            (inner.clone(), inner.clone(), inner.clone(), any::<bool>()).prop_map(
                |(e, lo, hi, negated)| Expr::Between {
                    expr: Box::new(e),
                    low: Box::new(lo),
                    high: Box::new(hi),
                    negated,
                }
            ),
            (inner.clone(), prop::collection::vec(inner.clone(), 1..4), any::<bool>())
                .prop_map(|(e, list, negated)| Expr::InList {
                    expr: Box::new(e),
                    list,
                    negated,
                }),
            (inner.clone(), inner.clone(), proptest::option::of(inner.clone())).prop_map(
                |(c, v, else_result)| Expr::Case {
                    operand: None,
                    branches: vec![(c, v)],
                    else_result: else_result.map(Box::new),
                }
            ),
            prop::collection::vec(inner.clone(), 0..3).prop_map(|args| {
                Expr::Function(FunctionCall {
                    name: "COALESCE".into(),
                    args,
                    distinct: false,
                    over: None,
                })
            }),
            inner.clone().prop_map(|e| Expr::Unary {
                op: sqlshare_sql::ast::UnaryOp::Not,
                expr: Box::new(e),
            }),
        ]
    })
}

fn query_strategy() -> impl Strategy<Value = Query> {
    (
        prop::collection::vec(
            (expr_strategy(), proptest::option::of("[a-z][a-z0-9_]{0,6}")),
            1..4,
        ),
        proptest::option::of(expr_strategy()),
        prop::collection::vec((expr_strategy(), any::<bool>()), 0..3),
        any::<bool>(),
    )
        .prop_map(|(projection, selection, order_by, distinct)| Query {
            body: SetExpr::Select(Box::new(Select {
                distinct,
                top: None,
                projection: projection
                    .into_iter()
                    .map(|(expr, alias)| SelectItem::Expr { expr, alias })
                    .collect(),
                from: vec![TableRef::Named {
                    name: ObjectName::simple("t"),
                    alias: None,
                }],
                selection,
                group_by: vec![],
                having: None,
            })),
            order_by: order_by
                .into_iter()
                .map(|(expr, desc)| OrderByItem { expr, desc })
                .collect(),
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// `parse(render(ast)) == ast`: the renderer's minimal-parenthesis
    /// output reparses to the identical tree.
    #[test]
    fn parse_render_roundtrip(query in query_strategy()) {
        let rendered = query.to_string();
        let reparsed = parse_query(&rendered)
            .unwrap_or_else(|e| panic!("rendered SQL failed to parse: {e}\nsql: {rendered}"));
        prop_assert_eq!(query, reparsed, "sql: {}", rendered);
    }

    /// Rendered SQL re-renders identically (canonical form is a fixpoint).
    #[test]
    fn canonical_form_is_fixpoint(query in query_strategy()) {
        let once = query.to_string();
        let twice = parse_query(&once).unwrap().to_string();
        prop_assert_eq!(once, twice);
    }
}

// ---- executor invariants ----------------------------------------------------

fn engine_with(rows: &[(i64, i64)]) -> Engine {
    let mut e = mode().engine();
    e.create_table(Table::new(
        "t",
        Schema::from_pairs([("k", DataType::Int), ("v", DataType::Int)]),
        rows.iter()
            .map(|(k, v)| vec![Value::Int(*k), Value::Int(*v)])
            .collect(),
    ))
    .unwrap();
    e
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// WHERE yields exactly the rows the predicate admits.
    #[test]
    fn filter_matches_reference(
        rows in prop::collection::vec((-50i64..50, -50i64..50), 0..40),
        threshold in -60i64..60,
    ) {
        let e = engine_with(&rows);
        let out = e.run(&format!("SELECT * FROM t WHERE k > {threshold}")).unwrap();
        let expected = rows.iter().filter(|(k, _)| *k > threshold).count();
        prop_assert_eq!(out.rows.len(), expected);
        // And it used an index seek, not a scan-and-filter.
        prop_assert!(out
            .plan
            .operator_names()
            .iter()
            .all(|o| *o != "Filter"));
    }

    /// UNION ALL row counts add; UNION is the distinct row set.
    #[test]
    fn union_counts(rows in prop::collection::vec((-9i64..9, -9i64..9), 0..25)) {
        let e = engine_with(&rows);
        let all = e.run("SELECT * FROM t UNION ALL SELECT * FROM t").unwrap();
        prop_assert_eq!(all.rows.len(), rows.len() * 2);
        let distinct = e.run("SELECT * FROM t UNION SELECT * FROM t").unwrap();
        let mut unique: Vec<_> = rows.clone();
        unique.sort_unstable();
        unique.dedup();
        prop_assert_eq!(distinct.rows.len(), unique.len());
    }

    /// ORDER BY produces a sorted permutation of the input.
    #[test]
    fn order_by_sorts(rows in prop::collection::vec((-50i64..50, -50i64..50), 0..40)) {
        let e = engine_with(&rows);
        let out = e.run("SELECT k FROM t ORDER BY k DESC").unwrap();
        prop_assert_eq!(out.rows.len(), rows.len());
        let ks: Vec<i64> = out
            .rows
            .iter()
            .map(|r| match r[0] {
                Value::Int(i) => i,
                _ => unreachable!(),
            })
            .collect();
        let mut expected: Vec<i64> = rows.iter().map(|(k, _)| *k).collect();
        expected.sort_unstable_by(|a, b| b.cmp(a));
        prop_assert_eq!(ks, expected);
    }

    /// TOP n returns min(n, |input|) rows, and they are the first of the
    /// requested order.
    #[test]
    fn top_bounds(
        rows in prop::collection::vec((-50i64..50, -50i64..50), 0..40),
        n in 0u64..50,
    ) {
        let e = engine_with(&rows);
        let out = e.run(&format!("SELECT TOP {n} k FROM t ORDER BY k")).unwrap();
        prop_assert_eq!(out.rows.len(), (n as usize).min(rows.len()));
    }

    /// COUNT/SUM agree with a reference computation, through GROUP BY.
    #[test]
    fn aggregates_match_reference(rows in prop::collection::vec((0i64..6, -20i64..20), 1..50)) {
        let e = engine_with(&rows);
        let out = e
            .run("SELECT k, COUNT(*) AS n, SUM(v) AS s FROM t GROUP BY k ORDER BY k")
            .unwrap();
        use std::collections::BTreeMap;
        let mut expected: BTreeMap<i64, (i64, i64)> = BTreeMap::new();
        for (k, v) in &rows {
            let e = expected.entry(*k).or_insert((0, 0));
            e.0 += 1;
            e.1 += v;
        }
        prop_assert_eq!(out.rows.len(), expected.len());
        for (row, (k, (n, s))) in out.rows.iter().zip(expected) {
            prop_assert_eq!(&row[0], &Value::Int(k));
            prop_assert_eq!(&row[1], &Value::Int(n));
            prop_assert_eq!(&row[2], &Value::Int(s));
        }
    }

    /// DISTINCT removes exactly the duplicates.
    #[test]
    fn distinct_unique(rows in prop::collection::vec((0i64..5, 0i64..3), 0..30)) {
        let e = engine_with(&rows);
        let out = e.run("SELECT DISTINCT k, v FROM t").unwrap();
        let mut unique = rows.clone();
        unique.sort_unstable();
        unique.dedup();
        prop_assert_eq!(out.rows.len(), unique.len());
    }

    /// An inner self-join on the key squares the per-key multiplicities.
    #[test]
    fn self_join_multiplicities(rows in prop::collection::vec((0i64..5, 0i64..100), 0..25)) {
        let e = engine_with(&rows);
        let out = e
            .run("SELECT a.k FROM t AS a JOIN t AS b ON a.k = b.k")
            .unwrap();
        use std::collections::BTreeMap;
        let mut counts: BTreeMap<i64, usize> = BTreeMap::new();
        for (k, _) in &rows {
            *counts.entry(*k).or_default() += 1;
        }
        let expected: usize = counts.values().map(|c| c * c).sum();
        prop_assert_eq!(out.rows.len(), expected);
    }
}

// ---- parallel execution invariants ------------------------------------------
//
// The same engine, at any degree of parallelism, must be observationally
// identical: morsel-driven execution gathers results in morsel order, so
// even row order is preserved. These properties re-run executor shapes
// (joins, GROUP BY aggregates, set operations) at DOP 1 versus a sampled
// DOP ∈ {2, 4} with the cost threshold zeroed so every eligible plan is
// forced through the parallel path regardless of input size.

/// A serial twin and a forced-parallel twin over the same rows.
fn dop_pair(rows: &[(i64, i64)], dop: usize) -> (Engine, Engine) {
    let mut serial = engine_with(rows);
    serial.set_max_dop(1);
    let mut parallel = engine_with(rows);
    parallel.set_max_dop(dop);
    parallel.set_parallelism_cost_threshold(0.0);
    (serial, parallel)
}

fn dop_strategy() -> impl Strategy<Value = usize> {
    prop_oneof![Just(2usize), Just(4usize)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Inner and left self-joins are identical at any DOP, row for row.
    #[test]
    fn joins_identical_across_dop(
        rows in prop::collection::vec((0i64..7, -30i64..30), 0..60),
        dop in dop_strategy(),
    ) {
        let (serial, parallel) = dop_pair(&rows, dop);
        // The key-equijoin always plans a (parallel) merge join; the
        // non-key joins may legitimately cost out to a serial nested
        // loops on tiny inputs, but whatever plan wins must agree.
        let merge = "SELECT a.k, a.v, b.v FROM t AS a JOIN t AS b ON a.k = b.k";
        prop_assert!(parallel.plan_dop(merge) > 1, "join did not plan parallel: {}", merge);
        for sql in [
            merge,
            "SELECT a.k, b.v FROM t AS a LEFT JOIN t AS b ON a.v = b.v",
            "SELECT a.k, b.v FROM t AS a LEFT JOIN t AS b ON a.v = b.k",
            "SELECT a.k, b.v FROM t AS a RIGHT JOIN t AS b ON a.v = b.k",
            "SELECT a.v, b.v FROM t AS a FULL JOIN t AS b ON a.v = b.k",
        ] {
            let s = serial.run(sql).unwrap();
            let p = parallel.run(sql).unwrap();
            prop_assert_eq!(s.rows, p.rows, "sql: {}", sql);
        }
    }

    /// GROUP BY aggregates merge partial accumulators into exactly the
    /// serial result (all-int inputs, so no float merge slack).
    #[test]
    fn aggregates_identical_across_dop(
        rows in prop::collection::vec((-4i64..4, -50i64..50), 0..80),
        dop in dop_strategy(),
    ) {
        let (serial, parallel) = dop_pair(&rows, dop);
        for sql in [
            "SELECT k, COUNT(*) AS n, SUM(v) AS s, MIN(v) AS lo, MAX(v) AS hi \
             FROM t GROUP BY k ORDER BY k",
            "SELECT COUNT(*), COUNT(DISTINCT v), SUM(v), AVG(v) FROM t",
            "SELECT k, COUNT(DISTINCT v) FROM t WHERE v <> 0 GROUP BY k ORDER BY k",
        ] {
            prop_assert!(
                parallel.plan_dop(sql) > 1,
                "aggregate did not plan parallel: {}", sql
            );
            let s = serial.run(sql).unwrap();
            let p = parallel.run(sql).unwrap();
            prop_assert_eq!(s.rows, p.rows, "sql: {}", sql);
        }
        // Aggregates over outer joins: the unmatched-build tail must be
        // folded in exactly once (regression: a tail computed before the
        // probes ran double-counted matched build rows). The non-key
        // join may cost out to serial nested loops on tiny inputs, but
        // whatever plan wins must agree with the serial run.
        for sql in [
            "SELECT COUNT(*), COUNT(a.v) FROM t AS a RIGHT JOIN t AS b ON a.v = b.k",
            "SELECT b.k, COUNT(*) AS n, COUNT(a.v) AS m \
             FROM t AS a FULL JOIN t AS b ON a.v = b.k GROUP BY b.k ORDER BY b.k, n, m",
        ] {
            let s = serial.run(sql).unwrap();
            let p = parallel.run(sql).unwrap();
            prop_assert_eq!(s.rows, p.rows, "sql: {}", sql);
        }
    }

    /// Set operations over parallel-eligible arms are DOP-invariant,
    /// including their deduplication semantics.
    #[test]
    fn set_operations_identical_across_dop(
        rows in prop::collection::vec((-6i64..6, -6i64..6), 0..40),
        pivot in -6i64..6,
        dop in dop_strategy(),
    ) {
        let (serial, parallel) = dop_pair(&rows, dop);
        for op in ["UNION", "UNION ALL", "EXCEPT", "INTERSECT"] {
            let sql = format!(
                "SELECT k, v FROM t WHERE v < {pivot} {op} SELECT k, v FROM t WHERE v >= {pivot}"
            );
            prop_assert!(
                parallel.plan_dop(&sql) > 1,
                "set-op arm did not plan parallel: {}", sql
            );
            let s = serial.run(&sql).unwrap();
            let p = parallel.run(&sql).unwrap();
            prop_assert_eq!(s.rows, p.rows, "sql: {}", sql);
        }
    }
}

// ---- ingest invariants ------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every non-empty delimited file ingests: no data is rejected (§3.1),
    /// row counts survive, and width covers the widest row.
    #[test]
    fn ingest_never_rejects(
        cells in prop::collection::vec(
            prop::collection::vec("[a-zA-Z0-9.]{0,6}", 1..6),
            1..30,
        ),
    ) {
        let content: String = cells
            .iter()
            .map(|row| row.join(","))
            .collect::<Vec<_>>()
            .join("\n");
        // Skip degenerate all-empty inputs, which are rejected by design.
        prop_assume!(content.trim().len() > 1);
        // Force the comma delimiter so the reference model below is
        // exact (auto-inference may legitimately choose another framing
        // for ambiguous inputs).
        let options = IngestOptions {
            header: HeaderMode::Absent,
            delimiter: Some(','),
            ..Default::default()
        };
        let (table, report) = ingest_text("t", &content, &options)
            .unwrap_or_else(|e| panic!("ingest rejected data: {e}\n{content}"));
        // Blank-only lines are dropped by the reader; all others survive.
        let non_blank = cells
            .iter()
            .filter(|row| row.len() > 1 || !row[0].trim().is_empty())
            .count();
        prop_assert_eq!(table.row_count(), non_blank);
        prop_assert_eq!(report.columns, cells.iter().map(Vec::len).max().unwrap());
    }

    /// Inferred column types can represent every non-empty cell: loading
    /// never fails, and reverted columns end as Text.
    #[test]
    fn inference_is_sound(
        ints in prop::collection::vec(any::<i32>(), 1..20),
        poison in proptest::option::of(Just("xyz")),
    ) {
        let mut content = String::from("v\n");
        for i in &ints {
            content.push_str(&format!("{i}\n"));
        }
        if let Some(p) = poison {
            content.push_str(p);
            content.push('\n');
        }
        let options = IngestOptions {
            header: HeaderMode::Present,
            inference_prefix: 5,
            ..Default::default()
        };
        let (table, report) = ingest_text("t", &content, &options).unwrap();
        prop_assert_eq!(table.row_count(), ints.len() + usize::from(poison.is_some()));
        if poison.is_some() && ints.len() >= 5 {
            // The poison row arrived past the prefix: revert to string.
            prop_assert_eq!(table.schema.columns[0].ty, DataType::Text);
            prop_assert_eq!(report.type_reverts.len(), 1);
        }
    }
}

// ---- position sweep -----------------------------------------------------------
//
// Subqueries and grouped expressions may stand wherever the parser accepts an
// expression, and three layers walk those positions: the service qualifies
// the owner's short dataset names, the binder matches grouped expressions,
// the planner materializes subqueries. Each walk is written on one
// enumeration of a node's parts; this sweep plants a fragment at every
// position and holds the three to the same answer — through
// `SqlShare::run_query` as the owner, with short names and qualified, against
// the row interpreter at DOP 1, and never as an `internal` error.

const A_CSV: &str = "k,v\n1,10\n1,11\n2,20\n2,21\n3,30\n4,40\n";
const B_CSV: &str = "k,v\n1,15\n2,25\n2,35\n5,5\n";

fn ada_with_a_and_b(engine: Engine) -> SqlShare {
    let mut s = SqlShare::with_engine(engine);
    s.register_user("ada", "ada@uw.edu").unwrap();
    s.upload("ada", "a", A_CSV, &IngestOptions::default()).unwrap();
    s.upload("ada", "b", B_CSV, &IngestOptions::default()).unwrap();
    s
}

/// `(position, SQL)`: `$V` stands where a value goes, `$P` where a predicate
/// goes, `$k` / `$v` are the outer columns a planted fragment may use, and
/// `$a` / `$b` the two datasets.
const POSITIONS: &[(&str, &str)] = &[
    ("projection", "SELECT k, v, $V FROM $a"),
    ("WHERE", "SELECT k, v FROM $a WHERE $P"),
    ("JOIN ON", "SELECT x.k, x.v, y.v FROM $a AS x JOIN $b AS y ON x.k = y.k AND $P"),
    ("LEFT JOIN ON", "SELECT x.k, x.v, y.v FROM $a AS x LEFT JOIN $b AS y ON x.k = y.k AND $P"),
    ("GROUP BY", "SELECT $V, COUNT(*) FROM $a GROUP BY $V"),
    ("HAVING", "SELECT k, COUNT(*) FROM $a GROUP BY k HAVING $P"),
    ("ORDER BY", "SELECT k, v FROM $a ORDER BY $V, k, v"),
    ("CASE operand", "SELECT k, v, CASE $V WHEN 1 THEN 'one' WHEN 35 THEN 'max' ELSE 'other' END FROM $a"),
    ("CASE condition", "SELECT k, v, CASE WHEN $P THEN 'yes' ELSE 'no' END FROM $a"),
    ("CASE result", "SELECT k, v, CASE WHEN k > 1 THEN $V ELSE 0 END FROM $a"),
    ("CASE else", "SELECT k, v, CASE WHEN k > 1 THEN 0 ELSE $V END FROM $a"),
    ("function argument", "SELECT k, v, ABS($V - 20) FROM $a"),
    ("unary minus", "SELECT k, v, -$V FROM $a"),
    ("NOT", "SELECT k, v FROM $a WHERE NOT ($P) OR k = 1"),
    ("CAST", "SELECT k, v, CAST($V AS FLOAT) FROM $a"),
    ("IS NULL", "SELECT k, v FROM $a WHERE $V IS NOT NULL"),
    ("BETWEEN operand", "SELECT k, v FROM $a WHERE $V BETWEEN 1 AND 40"),
    ("BETWEEN bounds", "SELECT k, v FROM $a WHERE v BETWEEN $V AND $V + 30"),
    ("LIKE operand", "SELECT k, v FROM $a WHERE CAST($V AS VARCHAR) LIKE '%5' OR k = 1"),
    ("LIKE pattern", "SELECT k, v FROM $a WHERE '35' LIKE CAST($V AS VARCHAR) OR k = 1"),
    ("IN list operand", "SELECT k, v FROM $a WHERE $V IN (1, 35)"),
    ("IN list", "SELECT k, v FROM $a WHERE v IN (10, 20, $V)"),
    ("aggregate argument", "SELECT k, SUM($V) FROM $a GROUP BY k"),
    ("window argument", "SELECT k, v, SUM($V) OVER (PARTITION BY k) FROM $a"),
    ("PARTITION BY", "SELECT k, v, SUM(v) OVER (PARTITION BY $V) FROM $a"),
    ("window ORDER BY", "SELECT k, v, ROW_NUMBER() OVER (ORDER BY $V, k, v) FROM $a"),
    ("derived table", "SELECT d.kk FROM (SELECT k AS kk, $V AS w FROM $a WHERE $P) AS d WHERE d.w >= 0"),
    ("set operation", "SELECT k FROM $a WHERE $P UNION ALL SELECT $V FROM $a"),
    ("subquery in a subquery", "SELECT k, v FROM $a WHERE v < (SELECT MAX(v) FROM $b WHERE $P)"),
];

/// `(plant, value form, predicate form)`.
const PLANTS: &[(&str, &str, &str)] = &[
    (
        "scalar subquery",
        "(SELECT MAX(v) FROM $b)",
        "$v < (SELECT MAX(v) FROM $b)",
    ),
    (
        "IN subquery",
        "CASE WHEN $k IN (SELECT k FROM $b) THEN 1 ELSE 0 END",
        "$k IN (SELECT k FROM $b)",
    ),
    (
        "EXISTS",
        "CASE WHEN EXISTS (SELECT k FROM $b WHERE v > 30) THEN 1 ELSE 0 END",
        "EXISTS (SELECT k FROM $b WHERE v > 30)",
    ),
];

/// A grouped expression (`k + 1` under `GROUP BY k + 1`) at every position
/// that sees the aggregate's output.
const GROUPED: &[(&str, &str)] = &[
    ("projection", "SELECT k + 1, COUNT(*) FROM $a GROUP BY k + 1"),
    ("HAVING", "SELECT COUNT(*) FROM $a GROUP BY k + 1 HAVING k + 1 > 2"),
    ("HAVING, IN subquery operand", "SELECT k + 1 FROM $a GROUP BY k + 1 HAVING (k + 1) IN (SELECT k FROM $b)"),
    ("ORDER BY", "SELECT COUNT(*) FROM $a GROUP BY k + 1 ORDER BY k + 1 DESC"),
    ("CASE operand", "SELECT CASE k + 1 WHEN 2 THEN 'two' ELSE 'other' END FROM $a GROUP BY k + 1"),
    ("CASE condition", "SELECT CASE WHEN (k + 1) IN (SELECT k FROM $b) THEN 'yes' ELSE 'no' END FROM $a GROUP BY k + 1"),
    ("CASE result", "SELECT CASE WHEN COUNT(*) > 1 THEN k + 1 ELSE 0 END FROM $a GROUP BY k + 1"),
    ("CASE else", "SELECT CASE WHEN COUNT(*) > 1 THEN 0 ELSE k + 1 END FROM $a GROUP BY k + 1"),
    ("function argument", "SELECT ABS(k + 1), COUNT(*) FROM $a GROUP BY k + 1"),
    ("unary minus", "SELECT -(k + 1) FROM $a GROUP BY k + 1"),
    ("CAST", "SELECT CAST(k + 1 AS FLOAT) FROM $a GROUP BY k + 1"),
    ("BETWEEN bounds", "SELECT COUNT(*) FROM $a GROUP BY k + 1 HAVING 3 BETWEEN k + 1 AND k + 1 + 1"),
    ("LIKE pattern", "SELECT COUNT(*) FROM $a GROUP BY k + 1 HAVING '3' LIKE CAST(k + 1 AS VARCHAR)"),
    ("IN list", "SELECT COUNT(*) FROM $a GROUP BY k + 1 HAVING 3 IN (0, k + 1)"),
    ("aggregate beside it", "SELECT (k + 1) * SUM(v) FROM $a GROUP BY k + 1"),
    ("PARTITION BY", "SELECT k + 1, SUM(COUNT(*)) OVER (PARTITION BY k + 1) FROM $a GROUP BY k + 1"),
    ("window ORDER BY", "SELECT k + 1, ROW_NUMBER() OVER (ORDER BY k + 1) FROM $a GROUP BY k + 1"),
];

/// Positions the binder rejects by design, with the typed error they get
/// (never `internal`): `(what, SQL, error kind, message fragment)`.
const REJECTED: &[(&str, &str, &str, &str)] = &[
    (
        "correlated subquery",
        "SELECT k FROM $a AS x WHERE v > (SELECT MAX(v) FROM $b AS y WHERE y.k = x.k)",
        "binding",
        "correlated subqueries are not supported",
    ),
    (
        "subquery returning two columns",
        "SELECT k FROM $a WHERE v > (SELECT k, v FROM $b)",
        "binding",
        "exactly one column",
    ),
    (
        "window function outside the SELECT list",
        "SELECT k FROM $a WHERE SUM(v) OVER (PARTITION BY (SELECT MIN(k) FROM $b)) > 1",
        "binding",
        "only allowed in the SELECT list",
    ),
];

fn instantiate(template: &str, a: &str, b: &str) -> String {
    template.replace("$a", a).replace("$b", b)
}

fn sorted_rows(rows: &[Vec<Value>]) -> Vec<Vec<String>> {
    let mut out: Vec<Vec<String>> = rows
        .iter()
        .map(|r| r.iter().map(Value::to_text).collect())
        .collect();
    out.sort();
    out
}

/// The sweep's SQL, as `(label, template over $a / $b)`.
fn sweep_cases() -> Vec<(String, String)> {
    let mut cases = Vec::new();
    for (position, template) in POSITIONS {
        // In a join both sides have `k` and `v`; under GROUP BY `v` is
        // only reachable through an aggregate.
        let (k, v) = match *position {
            "JOIN ON" | "LEFT JOIN ON" => ("x.k", "x.v"),
            "HAVING" => ("k", "SUM(v)"),
            _ => ("k", "v"),
        };
        for (plant, value, predicate) in PLANTS {
            let sql = template
                .replace("$V", value)
                .replace("$P", predicate)
                .replace("$k", k)
                .replace("$v", v);
            cases.push((format!("{plant} in {position}"), sql));
        }
    }
    for (position, template) in GROUPED {
        cases.push((format!("grouped expression in {position}"), template.to_string()));
    }
    cases
}

#[test]
fn subqueries_and_grouped_expressions_in_every_position() {
    let service = ada_with_a_and_b(mode().engine());
    let mut row_engine = Engine::new();
    row_engine.set_vectorized(false);
    row_engine.set_max_dop(1);
    let reference = ada_with_a_and_b(row_engine);

    for (label, template) in sweep_cases() {
        let short = instantiate(&template, "a", "b");
        let qualified = instantiate(&template, "ada.a", "ada.b");
        let run = |s: &SqlShare, sql: &str| {
            s.run_query("ada", sql)
                .unwrap_or_else(|e| panic!("{label}: [{}] {e}\nsql: {sql}", e.kind()))
        };
        let expected = sorted_rows(&run(&reference, &qualified).rows);
        assert!(!expected.is_empty(), "{label}: vacuous case\nsql: {qualified}");
        assert_eq!(sorted_rows(&run(&service, &qualified).rows), expected, "{label}\nsql: {qualified}");
        assert_eq!(sorted_rows(&run(&service, &short).rows), expected, "{label}\nsql: {short}");
    }

    for (what, template, kind, fragment) in REJECTED {
        for (a, b) in [("a", "b"), ("ada.a", "ada.b")] {
            let sql = instantiate(template, a, b);
            let err = service.run_query("ada", &sql).expect_err(what);
            assert_eq!(err.kind(), *kind, "{what}: {err}\nsql: {sql}");
            assert!(err.to_string().contains(fragment), "{what}: {err}\nsql: {sql}");
        }
    }
}

/// ORDER BY and window ORDER BY are the two positions where row *order* is
/// the answer: compare them unsorted.
#[test]
fn subquery_sort_keys_order_rows() {
    let s = ada_with_a_and_b(mode().engine());
    let ks = |sql: &str| -> Vec<String> {
        let out = s.run_query("ada", sql).unwrap_or_else(|e| panic!("{e}\nsql: {sql}"));
        out.rows.iter().map(|r| r[0].to_text()).collect()
    };
    // v - MAX(b.v) = v - 50, descending by its absolute value.
    assert_eq!(
        ks("SELECT v FROM a ORDER BY ABS(v - (SELECT MAX(v) FROM b)) DESC, v"),
        ["10", "11", "20", "21", "30", "40"]
    );
    assert_eq!(
        ks("SELECT v, ROW_NUMBER() OVER (ORDER BY CASE WHEN k IN (SELECT k FROM b) THEN 0 ELSE 1 END, v DESC) \
            FROM a ORDER BY 2"),
        ["21", "20", "11", "10", "40", "30"]
    );
}

/// Bug (fails at 7756d60 with `unknown table or view 'b'`): the service's
/// short-name qualification skipped join constraints, ORDER BY and window
/// specifications, while the permission check visited them.
#[test]
fn short_names_resolve_in_join_on_order_by_and_over() {
    let mut s = ada_with_a_and_b(mode().engine());
    for (sql, qualified) in [
        (
            "SELECT a.k FROM a JOIN b ON a.k = b.k AND b.v > (SELECT AVG(v) FROM b)",
            "SELECT a.k FROM ada.a JOIN ada.b ON a.k = b.k AND b.v > (SELECT AVG(v) FROM ada.b)",
        ),
        (
            "SELECT k FROM a ORDER BY (SELECT MAX(v) FROM b), k",
            "SELECT k FROM ada.a ORDER BY (SELECT MAX(v) FROM ada.b), k",
        ),
        (
            "SELECT k, SUM(v) OVER (PARTITION BY (SELECT MIN(k) FROM b)) FROM a",
            "SELECT k, SUM(v) OVER (PARTITION BY (SELECT MIN(k) FROM ada.b)) FROM ada.a",
        ),
    ] {
        let short = s.run_query("ada", sql).unwrap_or_else(|e| panic!("{e}\nsql: {sql}"));
        let qualified = s.run_query("ada", qualified).unwrap();
        assert_eq!(sorted_rows(&short.rows), sorted_rows(&qualified.rows), "sql: {sql}");
        // A view saved with such SQL stores the qualified name, so it
        // still resolves for a reader who is not the owner.
        let stored = s.canonicalize("ada", sql).unwrap();
        assert!(!stored.contains("FROM b") && stored.contains("ada.b"), "stored: {stored}");
    }
    let view = s
        .save_dataset(
            "ada",
            "above_avg",
            "SELECT a.k FROM a JOIN b ON a.k = b.k AND b.v > (SELECT AVG(v) FROM b)",
            Default::default(),
        )
        .unwrap();
    s.register_user("bob", "bob@example.com").unwrap();
    s.set_visibility("ada", &view, sqlshare_core::Visibility::Public).unwrap();
    let out = s.run_query("bob", "SELECT COUNT(*) FROM ada.above_avg").unwrap();
    assert_eq!(out.rows[0][0].to_text(), "4");
}

/// Bug (fails at 7756d60 with `internal: unmaterialized subquery reached
/// the executor`): `plan_window` was the one operator that never
/// materialized; aggregates and sort keys dropped the subquery's plan.
#[test]
fn subquery_under_over_is_materialized_and_its_plan_kept() {
    let s = ada_with_a_and_b(mode().engine());
    let out = s
        .run_query("ada", "SELECT k, SUM(v) OVER (PARTITION BY (SELECT MIN(k) FROM ada.b)) FROM a")
        .unwrap();
    assert!(out.rows.iter().all(|r| r[1].to_text() == "132"), "{:?}", out.rows);
    // The subquery's operators are part of the plan the log analyses.
    for sql in [
        "SELECT k, SUM(v) OVER (PARTITION BY (SELECT MIN(k) FROM ada.b)) FROM ada.a",
        "SELECT k FROM ada.a ORDER BY (SELECT MAX(v) FROM ada.b), k",
        "SELECT SUM(v + (SELECT MAX(v) FROM ada.b)) FROM ada.a",
    ] {
        let plan = s.engine().explain(sql).unwrap();
        assert!(
            plan.base_tables().iter().any(|t| t.contains("b$base")),
            "subquery plan missing from {:?}\nsql: {sql}",
            plan.base_tables()
        );
    }
}

/// Bug (fails at 7756d60 with `unknown column 'k'`): grouped-expression
/// matching did not descend into `OVER (…)` or the left side of
/// `IN (subquery)`.
#[test]
fn grouped_expression_matches_under_in_subquery_case_and_over() {
    let s = ada_with_a_and_b(mode().engine());
    let rows = |sql: &str| {
        let out = s.run_query("ada", sql).unwrap_or_else(|e| panic!("{e}\nsql: {sql}"));
        sorted_rows(&out.rows)
    };
    assert_eq!(
        rows("SELECT k + 1 FROM a GROUP BY k + 1 HAVING (k + 1) IN (SELECT k FROM ada.b)"),
        [["2"], ["5"]]
    );
    assert_eq!(
        rows("SELECT CASE WHEN (k + 1) IN (SELECT k FROM ada.b) THEN k + 1 ELSE 0 END FROM a GROUP BY k + 1"),
        [["0"], ["0"], ["2"], ["5"]]
    );
    assert_eq!(
        rows("SELECT k + 1, SUM(COUNT(*)) OVER (PARTITION BY k + 1) FROM a GROUP BY k + 1"),
        [["2", "2"], ["3", "2"], ["4", "1"], ["5", "1"]]
    );
}

/// A filter on a view column pushed through the view's projection keeps
/// pointing at that column when it is the left side of `IN (subquery)`
/// (`substitute_columns` used to leave that operand unsubstituted).
#[test]
fn in_subquery_filter_pushes_through_a_reordering_view() {
    let mut s = ada_with_a_and_b(mode().engine());
    s.save_dataset("ada", "swapped", "SELECT v AS amount, k AS id FROM a", Default::default())
        .unwrap();
    let out = s
        .run_query("ada", "SELECT id, amount FROM swapped WHERE id IN (SELECT k FROM b)")
        .unwrap();
    assert_eq!(
        sorted_rows(&out.rows),
        [["1", "10"], ["1", "11"], ["2", "20"], ["2", "21"]]
    );
}
