// The cases of `engine_conformance.rs`, compiled once per engine mode.

use proptest::prelude::*;
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
