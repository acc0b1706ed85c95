//! Cache differential harness and invalidation regressions.
//!
//! The multi-level query cache must be *invisible* except for speed:
//! a warm engine has to return exactly the rows a cold engine computes,
//! for every query the workload generators produce, and a mutation to a
//! dataset must evict exactly the cached entries that depend on it —
//! nothing less (stale reads) and nothing more (cross-tenant eviction).
//!
//! Both wlgen corpora are replayed twice against a cache-enabled engine
//! (cold pass, then warm pass) and each pass is compared row-for-row with
//! a reference engine whose caches are disabled. At DOP 1 the comparison
//! is byte-identical equality; the parallel replay tolerates float
//! last-ulp drift exactly like the serial-vs-parallel harness does.

use sqlshare_core::{DatasetName, SqlShare};
use sqlshare_engine::{Engine, Value};
use sqlshare_ingest::IngestOptions;
use sqlshare_sql::parser::parse_query;
use sqlshare_sql::rewrite::AppendMode;
use sqlshare_wlgen::{sdss, sqlshare as wl, GeneratorConfig};

/// Relative tolerance for float cells in the parallel replay (the morsel
/// executor merges partial aggregates in morsel order).
const FLOAT_RTOL: f64 = 1e-9;

fn floats_close(a: f64, b: f64) -> bool {
    if a == b || (a.is_nan() && b.is_nan()) {
        return true;
    }
    let scale = a.abs().max(b.abs());
    (a - b).abs() <= FLOAT_RTOL * scale.max(1.0)
}

fn values_match(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => floats_close(*x, *y),
        _ => a == b,
    }
}

fn rows_match(a: &[Value], b: &[Value]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| values_match(x, y))
}

fn cmp_value(a: &Value, b: &Value) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    use Value::*;
    fn rank(v: &Value) -> u8 {
        match v {
            Null => 0,
            Bool(_) => 1,
            Int(_) | Float(_) => 2,
            Date(_) => 3,
            Text(_) => 4,
        }
    }
    match (a, b) {
        (Null, Null) => Ordering::Equal,
        (Bool(x), Bool(y)) => x.cmp(y),
        (Int(x), Int(y)) => x.cmp(y),
        (Float(x), Float(y)) => x.total_cmp(y),
        (Int(x), Float(y)) => (*x as f64).total_cmp(y),
        (Float(x), Int(y)) => x.total_cmp(&(*y as f64)),
        (Date(x), Date(y)) => x.cmp(y),
        (Text(x), Text(y)) => x.cmp(y),
        _ => rank(a).cmp(&rank(b)),
    }
}

fn cmp_row(a: &[Value], b: &[Value]) -> std::cmp::Ordering {
    for (x, y) in a.iter().zip(b) {
        let ord = cmp_value(x, y);
        if ord != std::cmp::Ordering::Equal {
            return ord;
        }
    }
    a.len().cmp(&b.len())
}

fn has_order_by(sql: &str) -> bool {
    parse_query(sql).map(|q| !q.order_by.is_empty()).unwrap_or(false)
}

/// Replay every logged corpus query twice on `warm` (which caches) and
/// compare each pass against `cold` (which never caches). `exact` demands
/// byte-identical rows; otherwise float cells get `FLOAT_RTOL` and bags
/// are compared sorted.
fn replay_against_reference(
    corpus_name: &str,
    corpus: &sqlshare_wlgen::sqlshare::GeneratedCorpus,
    cold: &Engine,
    warm: &Engine,
    exact: bool,
) -> usize {
    let entries: Vec<(String, String)> = corpus
        .service
        .log()
        .entries()
        .iter()
        .map(|e| (e.user.clone(), e.sql.clone()))
        .collect();
    assert!(!entries.is_empty(), "{corpus_name}: empty query log");

    let mut compared = 0;
    for pass in 0..2 {
        for (user, sql) in &entries {
            let canonical = match corpus.service.canonicalize(user, sql) {
                Ok(c) => c,
                Err(_) => continue,
            };
            let reference = cold.run(&canonical);
            let cached = warm.run(&canonical);
            match (reference, cached) {
                (Ok(r), Ok(c)) => {
                    assert_eq!(
                        r.rows.len(),
                        c.rows.len(),
                        "{corpus_name} pass {pass}: row count diverged for {canonical}"
                    );
                    let (mut rrows, mut crows) = (r.rows, c.rows);
                    if !has_order_by(&canonical) {
                        rrows.sort_by(|a, b| cmp_row(a, b));
                        crows.sort_by(|a, b| cmp_row(a, b));
                    }
                    if exact {
                        assert_eq!(
                            rrows, crows,
                            "{corpus_name} pass {pass}: rows diverged for {canonical}"
                        );
                    } else {
                        for (i, (rr, cr)) in rrows.iter().zip(&crows).enumerate() {
                            assert!(
                                rows_match(rr, cr),
                                "{corpus_name} pass {pass}: row {i} diverged for \
                                 {canonical}\n  cold: {rr:?}\n  warm: {cr:?}"
                            );
                        }
                    }
                    compared += 1;
                }
                (Err(re), Err(ce)) => {
                    assert_eq!(
                        re.kind(),
                        ce.kind(),
                        "{corpus_name} pass {pass}: error kind diverged for {canonical}"
                    );
                }
                (Ok(_), Err(ce)) => {
                    panic!("{corpus_name} pass {pass}: warm-only failure for {canonical}: {ce}")
                }
                (Err(re), Ok(_)) => {
                    panic!("{corpus_name} pass {pass}: cold-only failure for {canonical}: {re}")
                }
            }
        }
    }
    assert!(compared > 0, "{corpus_name}: nothing compared");
    compared
}

fn run_corpus_serial(corpus_name: &str, corpus: sqlshare_wlgen::sqlshare::GeneratedCorpus) {
    let mut cold: Engine = corpus.service.engine().clone();
    cold.set_max_dop(1);
    cold.disable_cache();
    let mut warm: Engine = corpus.service.engine().clone();
    warm.set_max_dop(1);
    // A fresh cache at every level, hot-view threshold 2 so the repeated
    // pass actually pins views.
    warm.set_cache_config(64, 2);

    replay_against_reference(corpus_name, &corpus, &cold, &warm, true);

    let stats = warm.cache_stats();
    assert!(
        stats.result_hits > 0,
        "{corpus_name}: warm pass produced no result-cache hits: {stats:?}"
    );
    assert!(
        stats.plan_hits > 0,
        "{corpus_name}: warm pass produced no plan-cache hits: {stats:?}"
    );
}

#[test]
fn sqlshare_corpus_cold_vs_warm_identical() {
    run_corpus_serial("sqlshare", wl::generate(&GeneratorConfig::dev()));
}

#[test]
fn sdss_corpus_cold_vs_warm_identical() {
    run_corpus_serial("sdss", sdss::generate(&GeneratorConfig::dev()));
}

/// Warm parallel replay: cache hits must agree with cold parallel
/// execution (float cells within rtol; everything else identical).
#[test]
fn sqlshare_corpus_cold_vs_warm_parallel() {
    let corpus = wl::generate(&GeneratorConfig::dev());
    let mut cold: Engine = corpus.service.engine().clone();
    cold.set_max_dop(4);
    cold.set_parallelism_cost_threshold(0.0);
    cold.disable_cache();
    let mut warm: Engine = corpus.service.engine().clone();
    warm.set_max_dop(4);
    warm.set_parallelism_cost_threshold(0.0);
    warm.set_cache_config(64, 2);

    replay_against_reference("sqlshare-parallel", &corpus, &cold, &warm, false);
    assert!(warm.cache_stats().result_hits > 0);
}

// ---- service-level invalidation regressions ----------------------------

fn service_with_cache() -> SqlShare {
    let mut s = SqlShare::new();
    s.register_user("alice", "alice@uw.edu").unwrap();
    s.register_user("bob", "bob@uw.edu").unwrap();
    s
}

const ALICE_CSV: &str = "station,depth\n1,10\n2,20\n3,30\n";
const BOB_CSV: &str = "id,val\n1,100\n2,200\n";

#[test]
fn repeated_query_hits_and_rows_are_identical() {
    let mut s = service_with_cache();
    s.upload("alice", "casts", ALICE_CSV, &IngestOptions::default())
        .unwrap();
    let sql = "SELECT station, depth FROM [alice].[casts] ORDER BY station";
    let first = s.run_query("alice", sql).unwrap();
    assert!(!first.cache_hit, "first execution must be a miss");
    let second = s.run_query("alice", sql).unwrap();
    assert!(second.cache_hit, "second execution must hit the cache");
    assert_eq!(first.rows, second.rows, "hit must be byte-identical");
    // Per-tenant accounting reaches the service layer.
    let tenants = s.tenant_cache_stats();
    let alice = tenants.iter().find(|(u, _)| u == "alice").unwrap();
    assert_eq!(alice.1.hits, 1);
    assert!(alice.1.misses >= 1);
}

#[test]
fn append_evicts_exactly_the_dependents() {
    let mut s = service_with_cache();
    let (casts, _) = s
        .upload("alice", "casts", ALICE_CSV, &IngestOptions::default())
        .unwrap();
    let (batch2, _) = s
        .upload("alice", "casts2", "station,depth\n4,40\n", &IngestOptions::default())
        .unwrap();
    s.upload("bob", "readings", BOB_CSV, &IngestOptions::default())
        .unwrap();

    let count_sql = "SELECT COUNT(*) FROM [alice].[casts]";
    let bob_sql = "SELECT COUNT(*) FROM [bob].[readings]";
    assert_eq!(s.run_query("alice", count_sql).unwrap().rows, vec![vec![Value::Int(3)]]);
    assert!(s.run_query("alice", count_sql).unwrap().cache_hit);
    s.run_query("bob", bob_sql).unwrap();
    assert!(s.run_query("bob", bob_sql).unwrap().cache_hit);

    // Append rewrites alice's wrapper view; her cached count is now stale.
    s.append("alice", &casts, &batch2, AppendMode::UnionAll).unwrap();

    let after = s.run_query("alice", count_sql).unwrap();
    assert!(!after.cache_hit, "append must evict dependent results");
    assert_eq!(after.rows, vec![vec![Value::Int(4)]]);
    // Bob's cached entry survived an unrelated tenant's mutation.
    let bob_after = s.run_query("bob", bob_sql).unwrap();
    assert!(bob_after.cache_hit, "unrelated tenant's entry must survive");
}

#[test]
fn unrelated_tenant_entry_survives_upload() {
    let mut s = service_with_cache();
    s.upload("alice", "casts", ALICE_CSV, &IngestOptions::default())
        .unwrap();
    let sql = "SELECT depth FROM [alice].[casts] WHERE station = 2";
    s.run_query("alice", sql).unwrap();
    assert!(s.run_query("alice", sql).unwrap().cache_hit);

    // A different tenant uploading a brand-new dataset must not evict
    // alice's entry (fine-grained invalidation, not a global flush).
    s.upload("bob", "readings", BOB_CSV, &IngestOptions::default())
        .unwrap();
    let warm = s.run_query("alice", sql).unwrap();
    assert!(
        warm.cache_hit,
        "another tenant's upload flushed an unrelated cached result"
    );
    assert_eq!(warm.rows, vec![vec![Value::Int(20)]]);
}

#[test]
fn view_chain_invalidates_transitively() {
    let mut s = service_with_cache();
    let (casts, _) = s
        .upload("alice", "casts", ALICE_CSV, &IngestOptions::default())
        .unwrap();
    let (batch2, _) = s
        .upload("alice", "more", "station,depth\n9,90\n", &IngestOptions::default())
        .unwrap();
    // Derived view over the uploaded dataset.
    s.save_dataset(
        "alice",
        "deep",
        "SELECT station FROM [alice].[casts] WHERE depth >= 20",
        Default::default(),
    )
    .unwrap();

    let sql = "SELECT COUNT(*) FROM [alice].[deep]";
    assert_eq!(s.run_query("alice", sql).unwrap().rows, vec![vec![Value::Int(2)]]);
    assert!(s.run_query("alice", sql).unwrap().cache_hit);

    // Mutating the *base* dataset must invalidate results cached through
    // the derived view (the dependency set is transitive through views).
    s.append("alice", &casts, &batch2, AppendMode::UnionAll).unwrap();
    let after = s.run_query("alice", sql).unwrap();
    assert!(!after.cache_hit, "base mutation must reach view-level entries");
    assert_eq!(after.rows, vec![vec![Value::Int(3)]]);
}

#[test]
fn delete_evicts_and_recreate_does_not_resurrect() {
    let mut s = service_with_cache();
    s.upload("alice", "casts", ALICE_CSV, &IngestOptions::default())
        .unwrap();
    let sql = "SELECT COUNT(*) FROM [alice].[casts]";
    assert_eq!(s.run_query("alice", sql).unwrap().rows, vec![vec![Value::Int(3)]]);
    assert!(s.run_query("alice", sql).unwrap().cache_hit);

    let name = DatasetName::new("alice", "casts");
    s.delete_dataset("alice", &name).unwrap();
    assert!(s.run_query("alice", sql).is_err(), "deleted dataset must not bind");

    // Re-uploading under the same name is a *new* generation: the old
    // cached count (3 rows) must not be served for the new contents.
    s.upload("alice", "casts", "station,depth\n1,10\n", &IngestOptions::default())
        .unwrap();
    let fresh = s.run_query("alice", sql).unwrap();
    assert!(!fresh.cache_hit, "drop-and-recreate must not alias old results");
    assert_eq!(fresh.rows, vec![vec![Value::Int(1)]]);
}

#[test]
fn cache_hits_are_recorded_in_the_query_log() {
    let mut s = service_with_cache();
    s.upload("alice", "casts", ALICE_CSV, &IngestOptions::default())
        .unwrap();
    let sql = "SELECT station FROM [alice].[casts]";
    s.run_query("alice", sql).unwrap();
    s.run_query("alice", sql).unwrap();
    let log = s.log();
    let entries = log.entries();
    let mut hits = entries.iter().filter(|e| e.cache_hit);
    assert!(hits.next().is_some(), "warm execution must log cache_hit = true");
    let cold = log
        .entries()
        .iter()
        .filter(|e| e.sql == sql && !e.cache_hit)
        .count();
    assert_eq!(cold, 1, "exactly one cold execution of the repeated query");
}

// ---- hot-view materialization ------------------------------------------

#[test]
fn hot_view_is_pinned_and_spliced_into_plans() {
    let mut s = service_with_cache();
    s.set_cache_config(64, 2); // materialize on the second reference
    s.upload("alice", "casts", ALICE_CSV, &IngestOptions::default())
        .unwrap();
    // Non-trivial derived view (computed column → not a bare scan).
    s.save_dataset(
        "alice",
        "fathoms",
        "SELECT station, depth / 2 AS fathoms FROM [alice].[casts]",
        Default::default(),
    )
    .unwrap();

    let sql = "SELECT SUM(fathoms) FROM [alice].[fathoms]";
    let cold = s.run_query("alice", sql).unwrap();
    s.run_query("alice", sql).unwrap(); // second reference crosses threshold
    assert!(
        s.cache_stats().materializations > 0,
        "hot view should have been materialized: {:?}",
        s.cache_stats()
    );

    // The spliced plan reads the pinned rows as a Clustered Index Seek
    // with cached: true — and still computes identical results.
    let warm_plan = s
        .run_query("alice", "SELECT station FROM [alice].[fathoms] WHERE fathoms > 5")
        .unwrap();
    fn has_cached_seek(j: &sqlshare_common::json::Json) -> bool {
        use sqlshare_common::json::Json;
        let cached_seek = matches!(j.get("cached"), Some(Json::Bool(true)))
            && j.get("physicalOp").and_then(Json::as_str) == Some("Clustered Index Seek");
        cached_seek
            || j.get("children")
                .and_then(Json::as_array)
                .is_some_and(|cs| cs.iter().any(has_cached_seek))
    }
    assert!(
        has_cached_seek(&warm_plan.plan_json),
        "expected a cached Clustered Index Seek splice in: {}",
        warm_plan.plan_json
    );
    let again = s.run_query("alice", sql).unwrap();
    assert_eq!(cold.rows, again.rows);

    // Mutating the base table drops the pin: results stay correct.
    let casts = DatasetName::new("alice", "casts");
    let (extra, _) = s
        .upload("alice", "extra", "station,depth\n5,50\n", &IngestOptions::default())
        .unwrap();
    s.append("alice", &casts, &extra, AppendMode::UnionAll).unwrap();
    let after = s.run_query("alice", sql).unwrap();
    assert!(!after.cache_hit);
    assert_eq!(after.rows, vec![vec![Value::Int(55)]]); // 5+10+15+25
}
