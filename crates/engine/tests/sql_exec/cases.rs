// The cases of `sql_exec.rs`, compiled once per engine mode.

use sqlshare_engine::expr::BoundExpr;
use sqlshare_engine::physical::PhysOp;
use sqlshare_engine::value::date_from_ymd;
use sqlshare_engine::{DataType, Engine, Row, Schema, Table, Value};

fn i(v: i64) -> Value {
    Value::Int(v)
}
fn f(v: f64) -> Value {
    Value::Float(v)
}
fn t(v: &str) -> Value {
    Value::Text(v.into())
}

/// An engine loaded with a small science-flavoured schema.
fn engine() -> Engine {
    let mut e = mode().engine();
    e.create_table(Table::new(
        "samples",
        Schema::from_pairs([
            ("station", DataType::Int),
            ("depth", DataType::Float),
            ("nitrate", DataType::Text),
            ("taken", DataType::Date),
        ]),
        vec![
            vec![i(1), f(5.0), t("0.31"), Value::Date(date_from_ymd(2013, 6, 1).unwrap())],
            vec![i(1), f(10.0), t("-999"), Value::Date(date_from_ymd(2013, 6, 1).unwrap())],
            vec![i(2), f(5.0), t("0.58"), Value::Date(date_from_ymd(2013, 6, 2).unwrap())],
            vec![i(2), f(10.0), t("0.77"), Value::Date(date_from_ymd(2013, 6, 2).unwrap())],
            vec![i(3), f(5.0), t("NA"), Value::Date(date_from_ymd(2013, 6, 3).unwrap())],
        ],
    ))
    .unwrap();
    e.create_table(Table::new(
        "stations",
        Schema::from_pairs([("id", DataType::Int), ("name", DataType::Text)]),
        vec![
            vec![i(1), t("alpha")],
            vec![i(2), t("bravo")],
            vec![i(4), t("delta")],
        ],
    ))
    .unwrap();
    e
}

fn ints(rows: &[Row], col: usize) -> Vec<i64> {
    rows.iter()
        .map(|r| match &r[col] {
            Value::Int(v) => *v,
            other => panic!("expected int, got {other:?}"),
        })
        .collect()
}

#[test]
fn projection_and_filter() {
    let e = engine();
    let out = e.run("SELECT station, depth FROM samples WHERE depth > 5.0").unwrap();
    assert_eq!(out.rows.len(), 2);
    assert_eq!(out.schema.names(), vec!["station", "depth"]);
}

#[test]
fn leading_column_predicate_uses_seek() {
    let e = engine();
    let out = e.run("SELECT * FROM samples WHERE station = 2").unwrap();
    assert_eq!(out.rows.len(), 2);
    assert!(out.plan.operator_names().contains(&"Clustered Index Seek"));
    // Non-leading predicate: a scan with a residual.
    let out = e.run("SELECT * FROM samples WHERE depth = 5.0").unwrap();
    assert_eq!(out.rows.len(), 3);
    let names = out.plan.operator_names();
    assert!(names.contains(&"Clustered Index Scan"), "ops: {names:?}");
}

#[test]
fn seek_range_bounds() {
    let e = engine();
    let out = e.run("SELECT * FROM samples WHERE station > 1 AND station <= 3").unwrap();
    assert_eq!(out.rows.len(), 3);
    assert!(out.plan.operator_names().contains(&"Clustered Index Seek"));
    let out = e.run("SELECT * FROM samples WHERE station BETWEEN 2 AND 3").unwrap();
    assert_eq!(out.rows.len(), 3);
}

#[test]
fn seek_with_residual_predicate() {
    let e = engine();
    let out = e
        .run("SELECT * FROM samples WHERE station = 1 AND depth > 5.0")
        .unwrap();
    assert_eq!(out.rows.len(), 1);
    let names = out.plan.operator_names();
    assert!(names.contains(&"Clustered Index Seek"));
    assert!(!names.contains(&"Filter"), "residual folded into seek: {names:?}");
}

#[test]
fn order_by_and_top() {
    let e = engine();
    let out = e
        .run("SELECT TOP 2 station, depth FROM samples ORDER BY depth DESC, station")
        .unwrap();
    assert_eq!(out.rows.len(), 2);
    assert_eq!(out.rows[0][1], f(10.0));
    assert_eq!(ints(&out.rows, 0), vec![1, 2]);
    let names = out.plan.operator_names();
    assert!(names.contains(&"Sort") && names.contains(&"Top"));
}

/// Row bounds (`head`) on the plan's scans, in plan order.
fn scan_heads(plan: &sqlshare_engine::physical::PhysicalPlan) -> Vec<Option<u64>> {
    let mut heads = Vec::new();
    plan.visit(&mut |n| {
        if let sqlshare_engine::physical::PhysOp::Scan { head, .. } = &n.op {
            heads.push(*head);
        }
    });
    heads
}

#[test]
fn top_without_a_sort_bounds_the_scan() {
    for vectorized in [true, false] {
        let mut e = engine();
        e.set_vectorized(vectorized);
        // Through a projection, and into both arms of a UNION ALL.
        let out = e.run("SELECT TOP 2 station + 100 FROM samples").unwrap();
        assert_eq!(scan_heads(&out.plan), vec![Some(2)]);
        assert_eq!(ints(&out.rows, 0), vec![101, 101]);
        let out = e
            .run("SELECT TOP 4 id FROM (SELECT id FROM stations UNION ALL SELECT station FROM samples) u")
            .unwrap();
        assert_eq!(scan_heads(&out.plan), vec![Some(4), Some(4)]);
        assert_eq!(ints(&out.rows, 0), vec![1, 2, 4, 1]);
        // The tighter of two nested bounds wins.
        let out = e.run("SELECT TOP 3 * FROM (SELECT TOP 1 id FROM stations) s").unwrap();
        assert_eq!(scan_heads(&out.plan), vec![Some(1)]);
        assert_eq!(out.rows.len(), 1);
        let out = e.run("SELECT TOP 0 * FROM samples").unwrap();
        assert_eq!(scan_heads(&out.plan), vec![Some(0)]);
        assert!(out.rows.is_empty());
    }
}

#[test]
fn top_stops_at_anything_that_drops_or_reorders_rows() {
    let e = engine();
    for sql in [
        "SELECT TOP 2 station FROM samples ORDER BY depth DESC",
        "SELECT TOP 2 station FROM samples WHERE nitrate <> 'NA'",
        "SELECT TOP 2 station FROM samples WHERE depth + 1 > 6",
        "SELECT DISTINCT TOP 2 station FROM samples",
        "SELECT TOP 2 id FROM (SELECT id FROM stations UNION SELECT station FROM samples) u",
        "SELECT TOP 2 station, COUNT(*) FROM samples GROUP BY station",
        "SELECT TOP 2 s.station FROM samples s JOIN stations t ON s.station = t.id",
        "SELECT TOP 50 PERCENT station FROM samples",
    ] {
        let out = e.run(sql).unwrap();
        assert!(scan_heads(&out.plan).iter().all(Option::is_none), "{sql}");
    }
}

#[test]
fn run_head_reads_only_the_head_and_leaves_the_caches_alone() {
    let mut e = engine();
    // Whatever the mode says: this test is about the cache.
    e.set_cache_config(64, 1000);
    e.create_view("wrap", "SELECT * FROM samples").unwrap();
    e.create_view(
        "grown",
        "(SELECT station FROM samples) UNION ALL (SELECT id FROM stations)",
    )
    .unwrap();
    let before = e.cache_stats();
    let head = e.run_head("SELECT * FROM wrap", 3).unwrap();
    assert_eq!(scan_heads(&head.plan), vec![Some(3)]);
    assert_eq!(head.rows.len(), 3);
    let full = e.run_with_dop("SELECT * FROM wrap", 1).unwrap();
    assert_eq!(head.rows[..], full.rows[..3]);
    assert_eq!(head.schema, full.schema);
    assert_eq!(head.deps, full.deps);
    let head = e.run_head("SELECT * FROM grown", 6).unwrap();
    assert_eq!(scan_heads(&head.plan), vec![Some(6), Some(6)]);
    assert_eq!(ints(&head.rows, 0), vec![1, 1, 2, 2, 3, 1]);
    // `run_with_dop` is a full run that heats the view and stores its
    // result, so compare against the stats taken after it.
    let after_full = e.cache_stats();
    e.run_head("SELECT * FROM wrap", 3).unwrap();
    e.run_head("SELECT * FROM grown", 6).unwrap();
    assert_eq!(e.cache_stats(), after_full);
    assert_eq!(
        (before.result_entries, before.view_hits, before.plan_entries),
        (0, 0, 0)
    );
    assert!(after_full.view_hits > 0, "the full run does heat the view");
}

#[test]
fn top_percent() {
    let e = engine();
    let out = e.run("SELECT TOP 40 PERCENT station FROM samples ORDER BY station").unwrap();
    assert_eq!(out.rows.len(), 2);
}

#[test]
fn group_by_aggregates() {
    let e = engine();
    let out = e
        .run(
            "SELECT station, COUNT(*) AS n, AVG(depth) AS avg_depth \
             FROM samples GROUP BY station ORDER BY station",
        )
        .unwrap();
    assert_eq!(out.rows.len(), 3);
    assert_eq!(ints(&out.rows, 1), vec![2, 2, 1]);
    assert_eq!(out.rows[0][2], f(7.5));
    assert!(out.plan.operator_names().contains(&"Stream Aggregate"));
}

#[test]
fn scalar_aggregate_on_empty_filter() {
    let e = engine();
    let out = e.run("SELECT COUNT(*), MAX(depth) FROM samples WHERE station = 99").unwrap();
    assert_eq!(out.rows.len(), 1);
    assert_eq!(out.rows[0][0], i(0));
    assert!(out.rows[0][1].is_null());
}

#[test]
fn having_filters_groups() {
    let e = engine();
    let out = e
        .run("SELECT station FROM samples GROUP BY station HAVING COUNT(*) > 1 ORDER BY station")
        .unwrap();
    assert_eq!(ints(&out.rows, 0), vec![1, 2]);
}

#[test]
fn aggregate_expression_reuse() {
    let e = engine();
    // The same aggregate appears in projection and HAVING; it must be
    // computed once and referenced twice.
    let out = e
        .run(
            "SELECT station, COUNT(*) * 10 AS scaled FROM samples \
             GROUP BY station HAVING COUNT(*) > 1 ORDER BY station",
        )
        .unwrap();
    assert_eq!(ints(&out.rows, 1), vec![20, 20]);
}

#[test]
fn count_distinct() {
    let e = engine();
    let out = e.run("SELECT COUNT(DISTINCT depth) FROM samples").unwrap();
    assert_eq!(out.rows[0][0], i(2));
}

#[test]
fn inner_join_and_plan() {
    let e = engine();
    let out = e
        .run(
            "SELECT s.station, st.name FROM samples AS s \
             INNER JOIN stations AS st ON s.station = st.id ORDER BY s.station, st.name",
        )
        .unwrap();
    assert_eq!(out.rows.len(), 4); // station 3 has no match, station 4 no samples
    let names = out.plan.operator_names();
    assert!(
        names.contains(&"Merge Join")
            || names.contains(&"Hash Match")
            || names.contains(&"Nested Loops"),
        "{names:?}"
    );
}

#[test]
fn left_outer_join_pads_nulls() {
    let e = engine();
    let out = e
        .run(
            "SELECT DISTINCT s.station, st.name FROM samples AS s \
             LEFT OUTER JOIN stations AS st ON s.station = st.id ORDER BY s.station",
        )
        .unwrap();
    assert_eq!(out.rows.len(), 3);
    assert!(out.rows[2][1].is_null()); // station 3 unmatched
}

#[test]
fn right_and_full_outer_join() {
    let e = engine();
    let out = e
        .run(
            "SELECT DISTINCT st.name FROM samples AS s \
             RIGHT JOIN stations AS st ON s.station = st.id",
        )
        .unwrap();
    assert_eq!(out.rows.len(), 3); // alpha, bravo, delta (delta unmatched)
    let out = e
        .run(
            "SELECT DISTINCT s.station, st.id FROM samples AS s \
             FULL OUTER JOIN stations AS st ON s.station = st.id",
        )
        .unwrap();
    // pairs: (1,1), (2,2), (3,NULL), (NULL,4)
    assert_eq!(out.rows.len(), 4);
}

#[test]
fn cross_join_counts() {
    let e = engine();
    let out = e.run("SELECT * FROM samples CROSS JOIN stations").unwrap();
    assert_eq!(out.rows.len(), 15);
    // Comma syntax is a cross join too.
    let out = e.run("SELECT * FROM samples, stations").unwrap();
    assert_eq!(out.rows.len(), 15);
}

#[test]
fn non_equi_join_uses_nested_loops() {
    let e = engine();
    let out = e
        .run("SELECT s.station, st.id FROM samples AS s JOIN stations AS st ON s.station < st.id")
        .unwrap();
    assert!(out.plan.operator_names().contains(&"Nested Loops"));
    // station 1 (x2 rows) matches ids {2,4}; station 2 (x2) matches {4};
    // station 3 matches {4}: 4 + 2 + 1 = 7.
    assert_eq!(out.rows.len(), 7);
}

#[test]
fn union_and_union_all() {
    let e = engine();
    let all = e
        .run("SELECT station FROM samples UNION ALL SELECT id FROM stations")
        .unwrap();
    assert_eq!(all.rows.len(), 8);
    assert!(all.plan.operator_names().contains(&"Concatenation"));
    let distinct = e
        .run("SELECT station FROM samples UNION SELECT id FROM stations")
        .unwrap();
    assert_eq!(distinct.rows.len(), 4); // 1,2,3,4
}

#[test]
fn intersect_and_except() {
    let e = engine();
    let out = e
        .run("SELECT station FROM samples INTERSECT SELECT id FROM stations")
        .unwrap();
    assert_eq!(out.rows.len(), 2); // 1, 2
    let out = e
        .run("SELECT station FROM samples EXCEPT SELECT id FROM stations")
        .unwrap();
    assert_eq!(out.rows.len(), 1); // 3
    assert!(out.plan.operator_names().contains(&"Hash Match"));
}

#[test]
fn case_cleaning_idiom() {
    let e = engine();
    // The §5.1 NULL-injection + cast idiom executes correctly.
    let out = e
        .run(
            "SELECT station, CASE WHEN nitrate = '-999' THEN NULL \
             WHEN nitrate = 'NA' THEN NULL \
             ELSE CAST(nitrate AS FLOAT) END AS nitrate_clean \
             FROM samples ORDER BY station, depth",
        )
        .unwrap();
    assert_eq!(out.rows[0][1], f(0.31));
    assert!(out.rows[1][1].is_null());
    assert!(out.rows[4][1].is_null());
    assert!(out.plan.operator_names().contains(&"Compute Scalar"));
}

#[test]
fn window_functions_row_number() {
    let e = engine();
    let out = e
        .run(
            "SELECT station, depth, \
             ROW_NUMBER() OVER (PARTITION BY station ORDER BY depth DESC) AS rn \
             FROM samples ORDER BY station, rn",
        )
        .unwrap();
    assert_eq!(out.rows.len(), 5);
    assert_eq!(out.rows[0][1], f(10.0));
    assert_eq!(out.rows[0][2], i(1));
    let names = out.plan.operator_names();
    assert!(names.contains(&"Segment") && names.contains(&"Sequence Project"));
    // The window operator reads its input in (partition, order) order:
    // the Sort under its Segment is the only sort on those keys.
    let mut windows = 0;
    out.plan.visit(&mut |n| {
        let PhysOp::SequenceProject { calls } = &n.op else { return };
        windows += 1;
        let segment = &n.children[0];
        assert!(matches!(segment.op, PhysOp::Segment), "{:?}", segment.op);
        let PhysOp::Sort { keys } = &segment.children[0].op else {
            panic!("no Sort under the Segment: {:?}", segment.children[0].op);
        };
        let spec = &calls[0];
        let want: Vec<(BoundExpr, bool)> = spec
            .partition_by
            .iter()
            .map(|e| (e.clone(), false))
            .chain(spec.order_by.iter().cloned())
            .collect();
        let got: Vec<(BoundExpr, bool)> = keys.iter().map(|k| (k.expr.clone(), k.desc)).collect();
        assert_eq!(got, want);
    });
    assert_eq!(windows, 1);
}

#[test]
fn window_aggregate_share_of_total() {
    let e = engine();
    let out = e
        .run(
            "SELECT station, depth, SUM(depth) OVER (PARTITION BY station) AS total \
             FROM samples ORDER BY station, depth",
        )
        .unwrap();
    assert_eq!(out.rows[0][2], f(15.0));
    assert_eq!(out.rows[4][2], f(5.0));
}

#[test]
fn derived_table_subquery() {
    let e = engine();
    let out = e
        .run(
            "SELECT d.station, d.n FROM \
             (SELECT station, COUNT(*) AS n FROM samples GROUP BY station) AS d \
             WHERE d.n > 1 ORDER BY d.station",
        )
        .unwrap();
    assert_eq!(ints(&out.rows, 0), vec![1, 2]);
}

#[test]
fn scalar_and_in_subqueries() {
    let e = engine();
    let out = e
        .run("SELECT station FROM samples WHERE depth = (SELECT MAX(depth) FROM samples) ORDER BY station")
        .unwrap();
    assert_eq!(ints(&out.rows, 0), vec![1, 2]);
    let out = e
        .run("SELECT DISTINCT station FROM samples WHERE station IN (SELECT id FROM stations) ORDER BY station")
        .unwrap();
    assert_eq!(ints(&out.rows, 0), vec![1, 2]);
    let out = e
        .run("SELECT DISTINCT station FROM samples WHERE station NOT IN (SELECT id FROM stations)")
        .unwrap();
    assert_eq!(ints(&out.rows, 0), vec![3]);
}

#[test]
fn exists_subquery() {
    let e = engine();
    let out = e
        .run("SELECT COUNT(*) FROM samples WHERE EXISTS (SELECT 1 FROM stations WHERE id = 1)")
        .unwrap();
    assert_eq!(out.rows[0][0], i(5));
    let out = e
        .run("SELECT COUNT(*) FROM samples WHERE EXISTS (SELECT 1 FROM stations WHERE id = 99)")
        .unwrap();
    assert_eq!(out.rows[0][0], i(0));
}

#[test]
fn correlated_subquery_rejected_with_hint() {
    let e = engine();
    let err = e
        .run("SELECT station FROM samples AS s WHERE depth = (SELECT MAX(id) FROM stations WHERE id = s.station)")
        .unwrap_err();
    assert!(err.to_string().contains("correlated"), "{err}");
}

#[test]
fn views_inline_and_chain() {
    let mut e = engine();
    e.create_view(
        "clean_samples",
        "SELECT station, depth, \
         TRY_CAST(NULLIF(NULLIF(nitrate, '-999'), 'NA') AS FLOAT) AS nitrate FROM samples",
    )
    .unwrap();
    e.create_view(
        "station_means",
        "SELECT station, AVG(nitrate) AS mean_nitrate FROM clean_samples GROUP BY station",
    )
    .unwrap();
    let out = e.run("SELECT * FROM station_means ORDER BY station").unwrap();
    assert_eq!(out.rows.len(), 3);
    assert_eq!(out.rows[0][1], f(0.31));
    assert!(out.rows[2][1].is_null()); // station 3: only 'NA'
}

#[test]
fn view_cycle_detected() {
    let mut e = engine();
    // Create v1 -> samples first, then redefine to close a cycle.
    e.create_view("v1", "SELECT * FROM samples").unwrap();
    e.create_view("v2", "SELECT * FROM v1").unwrap();
    // Redefining v1 over v2 validates against the *old* v1 definition, so
    // it succeeds -- but the resulting cycle is caught at query time by
    // the view-depth guard rather than overflowing the stack.
    e.create_view("v1", "SELECT * FROM v2").unwrap();
    let err = e.run("SELECT * FROM v1").unwrap_err();
    assert!(err.to_string().contains("nesting"), "{err}");
}

#[test]
fn string_functions_in_queries() {
    let e = engine();
    let out = e
        .run(
            "SELECT UPPER(name) AS u, LEN(name) AS l FROM stations \
             WHERE name LIKE '%a%' ORDER BY name",
        )
        .unwrap();
    assert_eq!(out.rows.len(), 3);
    assert_eq!(out.rows[0][0], t("ALPHA"));
    assert_eq!(out.rows[0][1], i(5));
}

#[test]
fn date_functions_in_queries() {
    let e = engine();
    let out = e
        .run(
            "SELECT station, YEAR(taken) AS y, DATEDIFF(day, taken, '2013-06-10') AS d \
             FROM samples WHERE station = 1",
        )
        .unwrap();
    assert_eq!(out.rows[0][1], i(2013));
    assert_eq!(out.rows[0][2], i(9));
}

#[test]
fn isnumeric_filtering() {
    let e = engine();
    let out = e
        .run("SELECT COUNT(*) FROM samples WHERE ISNUMERIC(nitrate) = 1")
        .unwrap();
    assert_eq!(out.rows[0][0], i(4)); // '-999' counts as numeric
}

#[test]
fn from_less_select() {
    let e = engine();
    let out = e.run("SELECT 1 + 2 AS three, 'x' AS tag").unwrap();
    assert_eq!(out.rows, vec![vec![i(3), t("x")]]);
    assert!(out.plan.operator_names().contains(&"Constant Scan"));
}

#[test]
fn ddl_rejected_with_read_only_message() {
    let e = engine();
    let err = e.run("CREATE TABLE t (x INT)").unwrap_err();
    assert!(err.to_string().contains("read-only"), "{err}");
    let err = e.run("INSERT INTO samples SELECT * FROM samples").unwrap_err();
    assert!(err.to_string().contains("read-only"), "{err}");
}

#[test]
fn binding_errors_are_descriptive() {
    let e = engine();
    assert!(e.run("SELECT nope FROM samples").unwrap_err().to_string().contains("unknown column"));
    assert!(e.run("SELECT * FROM missing").unwrap_err().to_string().contains("unknown table"));
    assert!(e
        .run("SELECT FROBNICATE(station) FROM samples")
        .unwrap_err()
        .to_string()
        .contains("unknown function"));
    assert!(e
        .run("SELECT station FROM samples GROUP BY depth")
        .unwrap_err()
        .to_string()
        .contains("unknown column"));
}

#[test]
fn ambiguous_column_is_an_error() {
    let mut e = engine();
    e.create_table(Table::new(
        "other",
        Schema::from_pairs([("station", DataType::Int)]),
        vec![vec![i(1)]],
    ))
    .unwrap();
    let err = e
        .run("SELECT station FROM samples, other")
        .unwrap_err();
    assert!(err.to_string().contains("ambiguous"));
}

#[test]
fn qualified_wildcard() {
    let e = engine();
    let out = e
        .run("SELECT st.* FROM samples AS s JOIN stations AS st ON s.station = st.id")
        .unwrap();
    assert_eq!(out.schema.len(), 2);
}

#[test]
fn order_by_position_and_alias() {
    let e = engine();
    let out = e.run("SELECT station AS st, depth FROM samples ORDER BY 1 DESC, depth").unwrap();
    assert_eq!(ints(&out.rows, 0), vec![3, 2, 2, 1, 1]);
    let out = e.run("SELECT station AS st FROM samples ORDER BY st").unwrap();
    assert_eq!(ints(&out.rows, 0), vec![1, 1, 2, 2, 3]);
}

#[test]
fn plan_json_matches_listing_1_shape() {
    let e = engine();
    let out = e.run("SELECT * FROM samples WHERE station > 2").unwrap();
    let json = out.plan_json("SELECT * FROM samples WHERE station > 2");
    assert!(json.get("query").is_some());
    assert_eq!(
        json.get("physicalOp").unwrap().as_str().unwrap(),
        "Clustered Index Seek"
    );
    assert!(json.get("io").unwrap().as_f64().unwrap() > 0.0);
    assert!(json.get("total").unwrap().as_f64().unwrap() > 0.0);
    let filters = json.get("filters").unwrap().as_array().unwrap();
    assert!(filters[0].as_str().unwrap().contains("GT"));
    let cols = json.get("columns").unwrap().get("samples").unwrap();
    assert_eq!(cols.as_array().unwrap().len(), 4);
}

#[test]
fn udfs_are_callable_when_registered() {
    let mut e = engine();
    e.catalog_mut().register_udf("fPhotoTypeN");
    let out = e.run("SELECT fPhotoTypeN(station) FROM samples").unwrap();
    assert_eq!(out.rows.len(), 5);
    // Deterministic: same input, same output.
    let again = e.run("SELECT fPhotoTypeN(station) FROM samples").unwrap();
    assert_eq!(out.rows, again.rows);
}

#[test]
fn elapsed_time_recorded() {
    let e = engine();
    let out = e.run("SELECT * FROM samples").unwrap();
    // Materialized executor on 5 rows should still take measurable time.
    assert!(out.elapsed_micros > 0);
}

mod cancellation {
    use super::*;
    use sqlshare_common::{CancelReason, CancellationToken};

    /// A table big enough that a self-cross-join produces millions of
    /// row visits — plenty of cancellation check points.
    fn big_engine() -> Engine {
        let mut e = mode().engine();
        let rows: Vec<Row> = (0..200).map(|n| vec![i(n)]).collect();
        e.create_table(Table::new(
            "nums",
            Schema::from_pairs([("n", DataType::Int)]),
            rows,
        ))
        .unwrap();
        e
    }

    const CROSS: &str =
        "SELECT COUNT(*) FROM nums a JOIN nums b ON 1=1 JOIN nums c ON 1=1";

    #[test]
    fn untripped_token_does_not_affect_results() {
        let e = big_engine();
        let out = e
            .run_with_cancel("SELECT COUNT(*) FROM nums", CancellationToken::new())
            .unwrap();
        assert_eq!(out.rows, vec![vec![i(200)]]);
    }

    #[test]
    fn pre_tripped_token_stops_before_any_real_work() {
        let e = big_engine();
        let token = CancellationToken::new();
        token.cancel(CancelReason::Cancelled);
        let err = e.run_with_cancel(CROSS, token).unwrap_err();
        assert_eq!(err.kind(), "cancelled");
    }

    #[test]
    fn token_tripped_mid_execution_unwinds_with_timeout() {
        let e = big_engine();
        let token = CancellationToken::new();
        let reaper = token.clone();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(20));
            reaper.cancel(CancelReason::Timeout);
        });
        // 200^3 = 8M row visits: long enough that the trip happens
        // mid-scan, short enough to finish promptly once cancelled.
        let err = e.run_with_cancel(CROSS, token).unwrap_err();
        assert_eq!(err.kind(), "timeout");
        assert_eq!(err.message(), "query deadline expired");
        handle.join().unwrap();
    }

    #[test]
    fn cancellation_reaches_plan_time_subqueries() {
        let e = big_engine();
        let token = CancellationToken::new();
        token.cancel(CancelReason::Timeout);
        // The uncorrelated scalar subquery executes during planning;
        // a tripped token must stop it there too.
        let err = e
            .run_with_cancel(
                "SELECT n FROM nums WHERE n > (SELECT COUNT(*) FROM nums a JOIN nums b ON 1=1)",
                token,
            )
            .unwrap_err();
        assert_eq!(err.kind(), "timeout");
    }
}

/// `t(x INT, s TEXT)` and `d(k TEXT, name TEXT)`: a union of `x` and `s`
/// is a text column, whichever operator reads it.
fn union_engine() -> Engine {
    let mut e = mode().engine();
    e.create_table(Table::new(
        "t",
        Schema::from_pairs([("x", DataType::Int), ("s", DataType::Text)]),
        vec![vec![i(3), t("a")], vec![i(4), t("b")]],
    ))
    .unwrap();
    e.create_table(Table::new(
        "d",
        Schema::from_pairs([("k", DataType::Text), ("name", DataType::Text)]),
        vec![vec![t("3"), t("three")], vec![t("a"), t("A")]],
    ))
    .unwrap();
    e
}

fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort_by(sqlshare_engine::table::cmp_rows);
    rows
}

#[test]
fn a_union_column_has_one_type_whatever_the_plan() {
    // A hash join used to meet the text '3' with the integer 3 nowhere,
    // while nested loops compared them as text: the answer followed the
    // join's spelling.
    let e = union_engine();
    let u = "(SELECT x AS k FROM t UNION ALL SELECT s FROM t) AS u";
    let want = vec![vec![t("3"), t("three")], vec![t("a"), t("A")]];
    for sql in [
        format!("SELECT u.k, d.name FROM {u} JOIN d ON u.k = d.k"),
        format!("SELECT u.k, d.name FROM {u}, d WHERE u.k = d.k"),
    ] {
        let out = e.run(&sql).unwrap();
        assert_eq!(out.schema.types(), [DataType::Text, DataType::Text], "{sql}");
        assert_eq!(sorted(out.rows), want, "{sql}");
    }
    // 3 and '3' are one group.
    let out = e
        .run("SELECT k, COUNT(*) FROM (SELECT x AS k FROM t UNION ALL SELECT '3' FROM t) AS g GROUP BY k")
        .unwrap();
    assert_eq!(out.rows, vec![vec![t("3"), i(3)], vec![t("4"), i(1)]]);
}

#[test]
fn where_types_meet_the_values_take_the_common_type() {
    let e = engine();
    // CASE and COALESCE over Int and Float branches are Float; a NULL
    // branch has no type of its own.
    let out = e
        .run(
            "SELECT CASE WHEN station > 1 THEN station ELSE depth END, \
             COALESCE(station, depth), CASE WHEN station = 1 THEN NULL ELSE station END \
             FROM samples WHERE depth = 5.0",
        )
        .unwrap();
    assert_eq!(out.schema.types(), [DataType::Float, DataType::Float, DataType::Int]);
    assert_eq!(
        out.rows,
        vec![vec![f(5.0), f(1.0), Value::Null], vec![f(2.0), f(2.0), i(2)], vec![f(3.0), f(3.0), i(3)]]
    );
    // NULLIF has its first argument's type, so integer division stays
    // integral.
    let out = e.run("SELECT station / NULLIF(station, 2) FROM samples WHERE depth = 5.0").unwrap();
    assert_eq!(out.schema.types(), [DataType::Int]);
    assert_eq!(out.rows, vec![vec![i(1)], vec![Value::Null], vec![i(1)]]);
}

/// `big(x)`: the extreme integers.
fn extremes_engine() -> Engine {
    let mut e = mode().engine();
    e.create_table(Table::new(
        "big",
        Schema::from_pairs([("x", DataType::Int)]),
        vec![vec![i(i64::MIN)], vec![i(i64::MAX)]],
    ))
    .unwrap();
    e
}

#[test]
fn negating_the_smallest_integer_overflows() {
    let e = extremes_engine();
    let err = e.run("SELECT -x FROM big").unwrap_err();
    assert_eq!(err.message(), "integer overflow", "{err}");
    let out = e.run("SELECT -x FROM big WHERE x > 0").unwrap();
    assert_eq!(out.rows, vec![vec![i(-i64::MAX)]]);
}

#[test]
fn an_integer_sum_that_leaves_bigint_overflows() {
    // i64::MAX plus 4,999 ones, over a few morsels, and a -4,999 that
    // brings the total back.
    let mut e = mode().engine();
    let rows = std::iter::once(vec![i(0), i(i64::MAX)])
        .chain((1..5000).map(|n| vec![i(n % 3), i(1)]))
        .chain([vec![i(1), i(-4999)]])
        .collect();
    e.create_table(Table::new(
        "ones",
        Schema::from_pairs([("g", DataType::Int), ("x", DataType::Int)]),
        rows,
    ))
    .unwrap();
    for sql in [
        "SELECT SUM(x) FROM ones WHERE x > 0",
        "SELECT g, SUM(x) FROM ones WHERE x > 0 GROUP BY g",
        "SELECT g, SUM(x) OVER (PARTITION BY g) FROM ones WHERE x > 0",
    ] {
        let err = e.run(sql).unwrap_err();
        assert_eq!(err.message(), "integer overflow", "{sql}: {err}");
    }
    // A total back inside BIGINT is no overflow, however the rows meet.
    let out = e.run("SELECT SUM(x) FROM ones").unwrap();
    assert_eq!(out.rows, vec![vec![i(i64::MAX)]]);
}

/// `obs(site TEXT, reading INT, tag TEXT)` with NULL sites and tags and
/// tied keys; `more(site TEXT, reading INT)`, whose text columns are
/// dictionaries of their own.
fn sorting_engine() -> Engine {
    let mut e = mode().engine();
    let null = || Value::Null;
    e.create_table(Table::new(
        "obs",
        Schema::from_pairs([("site", DataType::Text), ("reading", DataType::Int), ("tag", DataType::Text)]),
        vec![
            vec![t("beta"), i(3), t("x")],
            vec![null(), i(1), t("y")],
            vec![t("alpha"), i(2), null()],
            vec![t("beta"), i(1), t("x")],
            vec![t("alpha"), i(2), t("z")],
            vec![null(), i(5), t("x")],
            vec![t("gamma"), i(4), t("y")],
        ],
    ))
    .unwrap();
    e.create_table(Table::new(
        "more",
        Schema::from_pairs([("site", DataType::Text), ("reading", DataType::Int)]),
        vec![vec![t("delta"), i(7)], vec![t("alpha"), i(2)], vec![null(), i(9)]],
    ))
    .unwrap();
    e
}

fn texts(rows: &[Row], col: usize) -> Vec<Option<&str>> {
    rows.iter()
        .map(|r| match &r[col] {
            Value::Text(s) => Some(s.as_str()),
            Value::Null => None,
            other => panic!("expected text, got {other:?}"),
        })
        .collect()
}

#[test]
fn order_by_text_keys_with_nulls_ties_and_desc() {
    let e = sorting_engine();
    let out = e.run("SELECT site, reading FROM obs ORDER BY site DESC, reading").unwrap();
    assert_eq!(texts(&out.rows, 0), [Some("gamma"), Some("beta"), Some("beta"), Some("alpha"), Some("alpha"), None, None]);
    assert_eq!(ints(&out.rows, 1), [4, 1, 3, 2, 2, 1, 5]);
    // Ties keep the input's (clustered) order: the sort is stable.
    let out = e.run("SELECT site, tag FROM obs ORDER BY site").unwrap();
    assert_eq!(texts(&out.rows, 0), [None, None, Some("alpha"), Some("alpha"), Some("beta"), Some("beta"), Some("gamma")]);
    assert_eq!(texts(&out.rows, 1), [Some("y"), Some("x"), None, Some("z"), Some("x"), Some("x"), Some("y")]);
    let out = e.run("SELECT tag, reading FROM obs ORDER BY tag DESC, reading DESC").unwrap();
    assert_eq!(texts(&out.rows, 0), [Some("z"), Some("y"), Some("y"), Some("x"), Some("x"), Some("x"), None]);
    assert_eq!(ints(&out.rows, 1), [2, 4, 1, 5, 3, 1, 2]);
    assert!(out.plan.operator_names().contains(&"Sort"));
}

#[test]
fn top_percent_rounds_up_and_stops_at_empty_input() {
    let e = sorting_engine();
    // 50% of 7 rows is 4 of them; the two readings of 2 tie.
    let out = e.run("SELECT TOP 50 PERCENT site, reading FROM obs ORDER BY reading DESC").unwrap();
    assert_eq!(texts(&out.rows, 0), [None, Some("gamma"), Some("beta"), Some("alpha")]);
    assert_eq!(ints(&out.rows, 1), [5, 4, 3, 2]);
    let out = e.run("SELECT TOP 50 PERCENT site FROM obs WHERE reading > 100 ORDER BY site").unwrap();
    assert!(out.rows.is_empty());
    let out = e.run("SELECT TOP 0 PERCENT site FROM obs ORDER BY site").unwrap();
    assert!(out.rows.is_empty());
}

#[test]
fn distinct_keeps_one_row_per_value_in_order() {
    let e = sorting_engine();
    let out = e.run("SELECT DISTINCT site FROM obs").unwrap();
    assert_eq!(texts(&out.rows, 0), [None, Some("alpha"), Some("beta"), Some("gamma")]);
    let out = e.run("SELECT DISTINCT tag, reading FROM obs").unwrap();
    assert_eq!(texts(&out.rows, 0), [None, Some("x"), Some("x"), Some("x"), Some("y"), Some("y"), Some("z")]);
    assert_eq!(ints(&out.rows, 1), [2, 1, 3, 5, 1, 4, 2]);
}

#[test]
fn union_of_two_tables_with_their_own_dictionaries() {
    let e = sorting_engine();
    let out = e.run("SELECT site, reading FROM obs UNION ALL SELECT site, reading FROM more").unwrap();
    assert_eq!(
        texts(&out.rows, 0),
        [None, None, Some("alpha"), Some("alpha"), Some("beta"), Some("beta"), Some("gamma"), None, Some("alpha"), Some("delta")]
    );
    assert_eq!(ints(&out.rows, 1), [1, 5, 2, 2, 1, 3, 4, 9, 2, 7]);
    let out = e.run("SELECT site FROM obs UNION SELECT site FROM more").unwrap();
    assert_eq!(texts(&out.rows, 0), [None, Some("alpha"), Some("beta"), Some("delta"), Some("gamma")]);
    let names = out.plan.operator_names();
    assert!(names.contains(&"Concatenation") && names.contains(&"Sort"), "{names:?}");
}

#[test]
fn stream_aggregate_over_a_sort_on_a_text_key_with_a_null_group() {
    let e = sorting_engine();
    let out = e.run("SELECT tag, COUNT(*), SUM(reading), MAX(site) FROM obs GROUP BY tag").unwrap();
    assert_eq!(texts(&out.rows, 0), [None, Some("x"), Some("y"), Some("z")]);
    assert_eq!(ints(&out.rows, 1), [1, 3, 2, 1]);
    assert_eq!(ints(&out.rows, 2), [2, 9, 5, 2]);
    assert_eq!(texts(&out.rows, 3), [Some("alpha"), Some("beta"), Some("gamma"), Some("alpha")]);
    let names = out.plan.operator_names();
    assert!(names.contains(&"Sort") && names.contains(&"Stream Aggregate"), "{names:?}");
}

#[test]
fn group_by_over_a_union_all() {
    let e = sorting_engine();
    let out = e
        .run(
            "SELECT site, COUNT(*), SUM(reading) FROM \
             (SELECT site, reading FROM obs UNION ALL SELECT site, reading FROM more) AS u GROUP BY site",
        )
        .unwrap();
    assert_eq!(texts(&out.rows, 0), [None, Some("alpha"), Some("beta"), Some("delta"), Some("gamma")]);
    assert_eq!(ints(&out.rows, 1), [3, 3, 2, 1, 1]);
    assert_eq!(ints(&out.rows, 2), [15, 6, 4, 7, 4]);
}

#[test]
fn a_scalar_aggregate_over_empty_input_is_one_row() {
    let e = sorting_engine();
    let out = e.run("SELECT COUNT(*), SUM(reading), MIN(site) FROM obs WHERE reading > 100").unwrap();
    assert_eq!(out.rows, vec![vec![i(0), Value::Null, Value::Null]]);
    let out = e
        .run(
            "SELECT COUNT(*), MAX(site) FROM (SELECT site FROM obs WHERE reading > 100 \
             UNION ALL SELECT site FROM more WHERE reading > 100) AS u",
        )
        .unwrap();
    assert_eq!(out.rows, vec![vec![i(0), Value::Null]]);
}
