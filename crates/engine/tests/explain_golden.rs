//! Golden EXPLAIN snapshots for parallel plans.
//!
//! Each fixture pins the full Listing-1 JSON plan for one planning
//! shape, including the `Parallelism (Gather Streams)` /
//! `Parallelism (Repartition Streams)` exchange operators and their
//! `degreeOfParallelism` property (SQL Server SHOWPLAN names), plus the
//! `batchMode` marks the vectorized engine annotates. The snapshot is
//! compared byte for byte; set `UPDATE_GOLDEN=1` to regenerate after an
//! intentional planner change.
//!
//! The `*_row.json` twins pin the same plans with the vectorized engine
//! off; they are byte-for-byte copies of the pre-vectorization goldens,
//! so `row_mode_plans_unchanged_from_seed` proves `batchMode` (and
//! nothing else) is the only planner-output difference the vectorized
//! engine introduces.

use sqlshare_engine::explain::plan_to_json;
use sqlshare_engine::{DataType, Engine, Schema, Table, Value};
use std::path::PathBuf;

/// A deterministic two-table catalog: a fact table wide enough to clear
/// any size heuristics and a small dimension table.
fn fixture_engine() -> Engine {
    // `Engine::new()`: memory-resident tables, vectorized executor. The
    // main snapshots fix that planner shape and its batchMode marks;
    // the row engine has its own goldens below.
    let mut e = Engine::new();
    e.create_table(Table::new(
        "orders",
        Schema::from_pairs([
            ("id", DataType::Int),
            ("cust", DataType::Int),
            ("amount", DataType::Float),
        ]),
        (0..4000)
            .map(|i| {
                vec![
                    Value::Int(i),
                    Value::Int(i % 100),
                    Value::Float((i % 37) as f64 * 1.5),
                ]
            })
            .collect(),
    ))
    .unwrap();
    e.create_table(Table::new(
        "customers",
        Schema::from_pairs([("cid", DataType::Int), ("name", DataType::Text)]),
        (0..100)
            .map(|i| vec![Value::Int(i), Value::Text(format!("cust{i}"))])
            .collect(),
    ))
    .unwrap();
    e
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.json"))
}

/// Compare the plan's JSON against the named golden file (or rewrite the
/// file when `UPDATE_GOLDEN` is set).
fn assert_golden(name: &str, sql: &str, engine: &Engine) -> sqlshare_common::json::Json {
    let plan = engine.explain(sql).unwrap();
    let json = plan_to_json(sql, &plan);
    let rendered = json.to_pretty_string();
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &rendered).unwrap();
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {} ({e}); run with UPDATE_GOLDEN=1", path.display()));
    assert_eq!(
        rendered.trim(),
        expected.trim(),
        "EXPLAIN snapshot {name} diverged; run with UPDATE_GOLDEN=1 if intentional"
    );
    json
}

/// Every node of the plan JSON, depth first.
fn walk(json: &sqlshare_common::json::Json, out: &mut Vec<sqlshare_common::json::Json>) {
    out.push(json.clone());
    if let Some(children) = json.get("children").and_then(|c| c.as_array()) {
        for c in children {
            walk(c, out);
        }
    }
}

fn batch_mode_of(node: &sqlshare_common::json::Json) -> Option<bool> {
    match node.get("batchMode") {
        Some(sqlshare_common::json::Json::Bool(b)) => Some(*b),
        _ => None,
    }
}

/// `batchMode` marks under the vectorized engine: present on at least
/// one data operator, never on an exchange.
fn assert_batch_mode_marks(json: &sqlshare_common::json::Json) {
    let mut nodes = Vec::new();
    walk(json, &mut nodes);
    assert!(
        nodes.iter().any(|n| batch_mode_of(n) == Some(true)),
        "vectorized plan carries no batchMode mark"
    );
    for n in &nodes {
        let op = n.get("physicalOp").and_then(|o| o.as_str()).unwrap_or("");
        if op.starts_with("Parallelism") {
            assert!(
                n.get("batchMode").is_none(),
                "exchange operator {op} must not carry batchMode"
            );
        }
    }
}

fn assert_no_batch_mode(json: &sqlshare_common::json::Json) {
    let mut nodes = Vec::new();
    walk(json, &mut nodes);
    for n in &nodes {
        assert!(
            n.get("batchMode").is_none(),
            "row-engine plan leaks batchMode on {:?}",
            n.get("physicalOp")
        );
    }
}

#[test]
fn parallel_join_plan_snapshot() {
    let mut e = fixture_engine();
    e.set_max_dop(4);
    e.set_parallelism_cost_threshold(0.0);
    let json = assert_golden(
        "parallel_join",
        "SELECT o.id, c.name FROM orders AS o JOIN customers AS c ON o.cust = c.cid WHERE o.amount > 10.0",
        &e,
    );

    // Structural guarantees on top of the byte-exact snapshot: a Gather
    // exchange at the root region and a Repartition exchange feeding the
    // join's build side, both carrying the degree of parallelism.
    assert_batch_mode_marks(&json);
    let mut nodes = Vec::new();
    walk(&json, &mut nodes);
    let ops: Vec<&str> = nodes
        .iter()
        .filter_map(|n| n.get("physicalOp").and_then(|o| o.as_str()))
        .collect();
    assert!(ops.contains(&"Parallelism (Gather Streams)"), "ops: {ops:?}");
    assert!(ops.contains(&"Parallelism (Repartition Streams)"), "ops: {ops:?}");
    for n in &nodes {
        let op = n.get("physicalOp").and_then(|o| o.as_str()).unwrap_or("");
        if op.starts_with("Parallelism") {
            assert_eq!(
                n.get("degreeOfParallelism").and_then(|d| d.as_f64()),
                Some(4.0),
                "{op} must carry degreeOfParallelism"
            );
            assert_eq!(
                n.get("children").and_then(|c| c.as_array()).map(<[_]>::len),
                Some(1),
                "{op} is a unary exchange"
            );
        }
    }
}

#[test]
fn parallel_aggregate_plan_snapshot() {
    let mut e = fixture_engine();
    e.set_max_dop(4);
    e.set_parallelism_cost_threshold(0.0);
    let json = assert_golden(
        "parallel_aggregate",
        "SELECT cust, COUNT(*) AS n, SUM(amount) AS total FROM orders WHERE amount > 5.0 GROUP BY cust",
        &e,
    );
    assert_batch_mode_marks(&json);
    let mut nodes = Vec::new();
    walk(&json, &mut nodes);
    let gather = nodes
        .iter()
        .find(|n| n.get("physicalOp").and_then(|o| o.as_str()) == Some("Parallelism (Gather Streams)"))
        .expect("aggregate plan must gather parallel streams");
    assert_eq!(
        gather.get("degreeOfParallelism").and_then(|d| d.as_f64()),
        Some(4.0)
    );
    assert_eq!(
        gather.get("logicalOp").and_then(|o| o.as_str()),
        Some("Gather Streams")
    );
}

#[test]
fn index_seek_plan_snapshot() {
    // A sargable predicate on a non-leading column, the query a
    // secondary index once answered with an Index Seek, seeks nothing:
    // the clustered index orders the leading column only, so it plans
    // as a scan with the predicate as its residual.
    let mut e = fixture_engine();
    e.set_max_dop(1);
    let json = assert_golden(
        "non_leading_predicate",
        "SELECT id FROM orders WHERE amount > 10.0",
        &e,
    );
    assert_batch_mode_marks(&json);
    let mut nodes = Vec::new();
    walk(&json, &mut nodes);
    let scan = nodes
        .iter()
        .find(|n| n.get("physicalOp").and_then(|o| o.as_str()) == Some("Clustered Index Scan"))
        .unwrap_or_else(|| panic!("plan has no Clustered Index Scan"));
    assert_eq!(batch_mode_of(scan), Some(true), "serial scan runs on batches");
}

#[test]
fn serial_fallback_plan_snapshot() {
    let mut e = fixture_engine();
    // DOP capped at 1: the identical query must plan with no exchange
    // operators and no degreeOfParallelism property anywhere.
    e.set_max_dop(1);
    e.set_parallelism_cost_threshold(0.0);
    let json = assert_golden(
        "serial_fallback",
        "SELECT cust, COUNT(*) AS n, SUM(amount) AS total FROM orders WHERE amount > 5.0 GROUP BY cust",
        &e,
    );
    let mut nodes = Vec::new();
    walk(&json, &mut nodes);
    for n in &nodes {
        let op = n.get("physicalOp").and_then(|o| o.as_str()).unwrap_or("");
        assert!(!op.starts_with("Parallelism"), "serial plan contains {op}");
        assert!(
            n.get("degreeOfParallelism").is_none(),
            "serial plan node {op} carries degreeOfParallelism"
        );
        // A fully serial subtree vectorizes every operator here.
        assert_eq!(
            batch_mode_of(n),
            Some(true),
            "serial vectorized plan node {op} must run in batch mode"
        );
    }
}

/// Regression: with the vectorized engine off, planner output is
/// byte-identical to the pre-vectorization seed snapshots (the
/// `*_row.json` files are verbatim copies of those goldens) — no
/// `batchMode` key, no other drift.
///
/// For the two DOP-4 plans the missing mark is nominal: a parallel
/// region has one implementation, the morsel pipeline over batches and
/// the shared hash kernel, whatever the switch says, so their Hash Match
/// and Aggregate do run on batches. `batchMode` records which engine
/// the plan was annotated for — the one that runs the region's build
/// subtree, serial plans and unrecognized regions — and answers are
/// pinned against the row engine at DOP 1 in
/// `tests/vectorized_differential.rs`, not by this mark.
#[test]
fn row_mode_plans_unchanged_from_seed() {
    let join_sql = "SELECT o.id, c.name FROM orders AS o JOIN customers AS c ON o.cust = c.cid WHERE o.amount > 10.0";
    let agg_sql = "SELECT cust, COUNT(*) AS n, SUM(amount) AS total FROM orders WHERE amount > 5.0 GROUP BY cust";

    let mut e = fixture_engine();
    e.set_vectorized(false);
    e.set_max_dop(4);
    e.set_parallelism_cost_threshold(0.0);
    assert_no_batch_mode(&assert_golden("parallel_join_row", join_sql, &e));
    assert_no_batch_mode(&assert_golden("parallel_aggregate_row", agg_sql, &e));

    let mut e = fixture_engine();
    e.set_vectorized(false);
    e.set_max_dop(1);
    assert_no_batch_mode(&assert_golden(
        "non_leading_predicate_row",
        "SELECT id FROM orders WHERE amount > 10.0",
        &e,
    ));

    let mut e = fixture_engine();
    e.set_vectorized(false);
    e.set_max_dop(1);
    e.set_parallelism_cost_threshold(0.0);
    assert_no_batch_mode(&assert_golden("serial_fallback_row", agg_sql, &e));
}
