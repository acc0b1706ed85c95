//! In-memory vs paged-storage differential harness.
//!
//! The paged backing (slotted heap pages + B-tree secondary indexes
//! behind a bounded buffer pool) must be invisible to query results:
//! every query the workload generators produce is replayed against an
//! in-memory oracle and a paged subject and the outputs compared.
//!
//! - At DOP 1 the subject must match the oracle **byte for byte** —
//!   same rows, same order, same float bits — both with a roomy pool
//!   and with one squeezed to its 8-page floor (every scan evicts);
//! - at DOP 4 both sides re-merge partial aggregates in morsel order,
//!   so float cells get the same last-ulps tolerance the serial-vs-
//!   parallel harness uses, everything else exact;
//! - errors must agree in kind.
//!
//! Separate tests pin the buffer pool's behaviour under thrashing and
//! the memory-governor spill path (over-budget joins and sorts complete
//! by spilling to temp pages instead of failing, and the spill volume
//! is visible in the query output, the query log, and `/api/storage`).

use sqlshare_common::Error;
use sqlshare_core::rest::{body, dispatch, Request};
use sqlshare_core::SqlShare;
use sqlshare_engine::{DataType, Engine, Schema, StorageLayer, Table, Value};
use sqlshare_sql::parser::parse_query;
use sqlshare_wlgen::{sdss, sqlshare as wl, GeneratorConfig};

// ---- comparison helpers ---------------------------------------------------

/// Relative tolerance for float cells at DOP 4 (aggregate merge order).
const FLOAT_RTOL: f64 = 1e-9;

fn floats_close(a: f64, b: f64) -> bool {
    if a == b || (a.is_nan() && b.is_nan()) {
        return true;
    }
    let scale = a.abs().max(b.abs());
    (a - b).abs() <= FLOAT_RTOL * scale.max(1.0)
}

/// Bit-exact cell equality: the DOP-1 paged run must not perturb floats
/// at all (NaN and signed zero included).
fn values_exact(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

fn values_tolerant(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => floats_close(*x, *y),
        _ => a == b,
    }
}

/// Total order over values for bag comparison (same as the serial-vs-
/// parallel harness: exact key cells pin each row's position).
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

// ---- subjects -------------------------------------------------------------

/// Clone `src` onto a fresh paged backing: every base table is dropped
/// and re-created through a temp [`StorageLayer`] with `pool_bytes` of
/// buffer pool, so scans, seeks, and index probes all go through pages.
fn paged_replica(src: &Engine, pool_bytes: usize) -> Engine {
    let mut e = src.clone();
    e.disable_cache();
    e.set_storage(Some(StorageLayer::temp(pool_bytes).unwrap()));
    let names: Vec<String> = e.catalog().tables().map(|t| t.name.clone()).collect();
    for name in names {
        let t = e.catalog().table(&name).unwrap().clone();
        e.drop_relation(&name);
        e.create_table(t).unwrap();
    }
    e
}

struct Tally {
    compared: usize,
    errored: usize,
}

/// Replay every logged query against the in-memory oracle and the paged
/// subject; `exact` demands byte-identical ordered output, otherwise
/// unordered queries are compared as bags with float tolerance.
fn run_corpus(
    corpus_name: &str,
    corpus: &wl::GeneratedCorpus,
    mut oracle: Engine,
    mut subject: Engine,
    exact: bool,
) -> Tally {
    oracle.disable_cache();
    subject.disable_cache();
    let mut tally = Tally {
        compared: 0,
        errored: 0,
    };

    let entries: Vec<(String, String)> = corpus
        .service
        .log()
        .entries()
        .iter()
        .map(|e| (e.user.clone(), e.sql.clone()))
        .collect();
    assert!(
        !entries.is_empty(),
        "{corpus_name}: generator produced an empty query log"
    );

    for (user, sql) in &entries {
        let canonical = match corpus.service.canonicalize(user, sql) {
            Ok(c) => c,
            Err(_) => continue,
        };
        let o = oracle.run(&canonical);
        let s = subject.run(&canonical);
        match (o, s) {
            (Ok(o), Ok(s)) => {
                assert_eq!(
                    o.rows.len(),
                    s.rows.len(),
                    "{corpus_name}: row count diverged for {canonical}"
                );
                let (mut orows, mut srows) = (o.rows, s.rows);
                if !exact && !has_order_by(&canonical) {
                    orows.sort_by(|a, b| cmp_row(a, b));
                    srows.sort_by(|a, b| cmp_row(a, b));
                }
                let matches = if exact { values_exact } else { values_tolerant };
                for (i, (or, sr)) in orows.iter().zip(&srows).enumerate() {
                    assert!(
                        or.len() == sr.len() && or.iter().zip(sr).all(|(x, y)| matches(x, y)),
                        "{corpus_name}: row {i} diverged for {canonical}\n  \
                         memory: {or:?}\n  paged:  {sr:?}"
                    );
                }
                tally.compared += 1;
            }
            (Err(oe), Err(se)) => {
                assert_eq!(
                    oe.kind(),
                    se.kind(),
                    "{corpus_name}: error kind diverged for {canonical}\n  \
                     memory: {oe}\n  paged:  {se}"
                );
                tally.errored += 1;
            }
            (Ok(_), Err(se)) => {
                panic!("{corpus_name}: paged-only failure for {canonical}: {se}")
            }
            (Err(oe), Ok(_)) => {
                panic!("{corpus_name}: memory-only failure for {canonical}: {oe}")
            }
        }
    }

    assert!(
        tally.compared > 0,
        "{corpus_name}: no successful queries were compared"
    );
    tally
}

#[test]
fn sqlshare_corpus_memory_vs_paged_serial() {
    let corpus = wl::generate(&GeneratorConfig::dev());
    let mut oracle = corpus.service.engine().clone();
    oracle.set_max_dop(1);

    // Roomy pool: everything stays resident after first touch.
    let mut subject = paged_replica(corpus.service.engine(), 64 << 20);
    subject.set_max_dop(1);
    run_corpus("sqlshare/64MB", &corpus, oracle.clone(), subject, true);

    // Pool squeezed to its 8-page floor: every query runs under
    // eviction pressure and the answers still cannot change.
    let squeezed = paged_replica(corpus.service.engine(), 0);
    let mut subject = squeezed.clone();
    subject.set_max_dop(1);
    run_corpus("sqlshare/8pages", &corpus, oracle, subject, true);
    let stats = squeezed.storage().unwrap().pool_stats();
    assert!(
        stats.evictions > 0,
        "an 8-page pool replaying the corpus must evict ({stats:?})"
    );
}

#[test]
fn sqlshare_corpus_memory_vs_paged_parallel() {
    let corpus = wl::generate(&GeneratorConfig::dev());
    let mut oracle = corpus.service.engine().clone();
    oracle.set_max_dop(4);
    oracle.set_parallelism_cost_threshold(0.0);
    let mut subject = paged_replica(corpus.service.engine(), 16 << 20);
    subject.set_max_dop(4);
    subject.set_parallelism_cost_threshold(0.0);
    run_corpus("sqlshare/dop4", &corpus, oracle, subject, false);
}

#[test]
fn sdss_corpus_memory_vs_paged_serial() {
    let corpus = sdss::generate(&GeneratorConfig::dev());
    let mut oracle = corpus.service.engine().clone();
    oracle.set_max_dop(1);
    let mut subject = paged_replica(corpus.service.engine(), 4 << 20);
    subject.set_max_dop(1);
    run_corpus("sdss/4MB", &corpus, oracle, subject, true);
}

// ---- buffer-pool thrashing ------------------------------------------------

/// ~1.5 MiB of rows behind an 8-page (64 KiB) pool: every scan cycles
/// the pool several times over. Results must stay correct and the pool
/// must stay inside its residency budget while evicting.
#[test]
fn thrashing_pool_keeps_answers_and_budget() {
    let table = || {
        Table::new(
            "big",
            Schema::from_pairs([
                ("id", DataType::Int),
                ("grp", DataType::Int),
                ("pad", DataType::Text),
            ]),
            (0..12_000)
                .map(|i| {
                    vec![
                        Value::Int(i),
                        Value::Int(i % 97),
                        Value::Text(format!("pad-{i:0>96}")),
                    ]
                })
                .collect(),
        )
    };

    let mut memory = Engine::new();
    memory.create_table(table()).unwrap();

    let layer = StorageLayer::temp(0).unwrap(); // clamps to the 8-page floor
    let mut paged = Engine::new();
    paged.set_storage(Some(layer.clone()));
    paged.create_table(table()).unwrap();
    assert_eq!(layer.pool_stats().capacity_pages, 8);

    let queries = [
        "SELECT COUNT(*) AS n, SUM(id) AS s FROM big",
        "SELECT grp, COUNT(*) AS n FROM big GROUP BY grp ORDER BY grp",
        "SELECT id FROM big WHERE id >= 11990 ORDER BY id",
        "SELECT id, pad FROM big WHERE grp = 13 ORDER BY id",
    ];
    for _ in 0..2 {
        for q in &queries {
            let m = memory.run(q).unwrap();
            let p = paged.run(q).unwrap();
            assert_eq!(m.rows, p.rows, "thrashed answer diverged for {q}");
        }
    }

    let stats = layer.pool_stats();
    assert!(
        stats.resident_pages <= stats.capacity_pages,
        "pool over budget: {stats:?}"
    );
    assert!(stats.evictions > 0, "pool never evicted: {stats:?}");
    assert!(stats.misses > 0 && stats.hits > 0, "pool stats flat: {stats:?}");
    assert!(layer.io().get() > 0, "no page I/O recorded");
}

// ---- memory-governor spill ------------------------------------------------

/// Two tables big enough that a hash-join build side (either one — the
/// planner picks) and an ORDER BY decoration each blow a 256 KiB query
/// budget, while the query *outputs* below stay small: the final result
/// assembly is charged with no spill fallback, so a spilling query must
/// shed its intermediates, not its answer.
fn spill_fixture(e: &mut Engine) {
    e.create_table(Table::new(
        "fact",
        Schema::from_pairs([
            ("k", DataType::Int),
            ("v", DataType::Float),
            ("pad", DataType::Text),
        ]),
        (0..8000)
            .map(|i| {
                vec![
                    Value::Int(i % 500),
                    Value::Float(i as f64 * 0.25),
                    Value::Text(format!("row-{i:0>40}")),
                ]
            })
            .collect(),
    ))
    .unwrap();
    e.create_table(Table::new(
        "dim",
        Schema::from_pairs([("k", DataType::Int), ("name", DataType::Text)]),
        (0..4000)
            .map(|i| vec![Value::Int(i), Value::Text(format!("name-{i:0>40}"))])
            .collect(),
    ))
    .unwrap();
}

/// Scalar aggregate over an equi-join: both inputs exceed the budget, the
/// output is one row.
const SPILL_JOIN: &str = "SELECT COUNT(*) AS n, SUM(f.v) AS total \
     FROM fact AS f JOIN dim AS d ON f.k = d.k";
/// Top-k over a full sort: the decorated sort input exceeds the budget,
/// the output is ten rows.
const SPILL_SORT: &str = "SELECT TOP 10 k, v, pad FROM fact ORDER BY v DESC, k";

/// Over-budget joins and sorts complete by spilling to temp pages —
/// byte-identical to an unconstrained run — when a storage layer is
/// attached, and still fail with `ResourceExhausted` when none is.
#[test]
fn over_budget_operators_spill_instead_of_failing() {
    // Oracle: no budget, no storage.
    let mut oracle = Engine::new();
    spill_fixture(&mut oracle);
    oracle.set_max_dop(1);

    // Subject: tight budget, paged storage to spill into.
    let layer = StorageLayer::temp(4 << 20).unwrap();
    let mut subject = Engine::new();
    subject.set_storage(Some(layer.clone()));
    spill_fixture(&mut subject);
    subject.set_max_dop(1);
    subject.set_query_mem_limit(256 << 10);

    // Control: the same budget without storage must still unwind.
    let mut starved = Engine::new();
    spill_fixture(&mut starved);
    starved.set_max_dop(1);
    starved.set_query_mem_limit(256 << 10);

    for q in [SPILL_JOIN, SPILL_SORT] {
        let want = oracle.run(q).unwrap();
        let got = subject.run(q).unwrap();
        assert_eq!(want.rows, got.rows, "spilled answer diverged for {q}");
        assert!(
            got.spill_bytes > 0,
            "query completed without spilling under a 256 KiB budget: {q}"
        );
        let err = starved.run(q).unwrap_err();
        assert!(
            matches!(err, Error::ResourceExhausted(_)),
            "storage-less engine should exhaust on {q}, got: {err}"
        );
    }
    assert!(layer.spill_bytes() > 0, "layer-wide spill counter flat");
}

/// The spill volume surfaces end to end: `QueryResult`, the query log,
/// and `GET /api/storage`.
#[test]
fn spill_bytes_visible_in_service_log_and_rest() {
    let mut s = SqlShare::new();
    let layer = StorageLayer::temp(4 << 20).unwrap();
    s.set_storage(Some(layer));
    s.set_query_mem_limit(48 << 10);

    let r = dispatch(
        &mut s,
        &Request::post("/api/users", body(&[("username", "ada"), ("email", "a@uw.edu")])),
    );
    assert_eq!(r.status, 201);

    // ~1500 rows x ~70 bytes: comfortably over the 48 KiB budget once a
    // self-join materializes its build side.
    let mut csv = String::from("k,pad\n");
    for i in 0..1500 {
        csv.push_str(&format!("{},pad-{i:0>56}\n", i % 60));
    }
    let r = dispatch(
        &mut s,
        &Request::post(
            "/api/datasets",
            body(&[("user", "ada"), ("name", "wide"), ("content", &csv)]),
        ),
    );
    assert_eq!(r.status, 201, "{:?}", r.body.to_string());

    // Scalar aggregate: the self-join's build side (~100 KiB) must
    // spill, the one-row answer fits any budget. 1500 rows in 60 key
    // groups of 25 → 60 * 25 * 25 matches.
    let result = s
        .run_query(
            "ada",
            "SELECT COUNT(*) AS n FROM [ada].[wide] AS a \
             JOIN [ada].[wide] AS b ON a.k = b.k",
        )
        .unwrap();
    assert_eq!(result.rows, vec![vec![Value::Int(60 * 25 * 25)]]);
    assert!(
        result.spill_bytes > 0,
        "join under a 48 KiB budget must spill"
    );

    // The query log keeps the spill volume per entry.
    let logged = {
        let log = s.log();
        let e = log.entries().last().cloned().expect("query was logged");
        assert_eq!(e.spill_bytes, result.spill_bytes, "log entry: {e:?}");
        e.spill_bytes
    };

    // And /api/storage exposes the layer-wide counters.
    let r = dispatch(&mut s, &Request::get("/api/storage"));
    assert_eq!(r.status, 200);
    assert_eq!(r.body.get("enabled"), Some(&sqlshare_common::json::Json::Bool(true)));
    let spilled = r.body.get("spillBytes").and_then(|v| v.as_f64()).unwrap();
    assert!(spilled >= logged as f64, "{:?}", r.body.to_string());
    assert!(r.body.get("ioOps").and_then(|v| v.as_f64()).unwrap() > 0.0);
    assert!(r.body.get("capacityPages").and_then(|v| v.as_f64()).unwrap() > 0.0);
}

/// Without a storage layer, `/api/storage` reports the feature off.
#[test]
fn storage_endpoint_reports_disabled_without_layer() {
    let mut s = SqlShare::new();
    let r = dispatch(&mut s, &Request::get("/api/storage"));
    assert_eq!(r.status, 200);
    assert_eq!(
        r.body.get("enabled"),
        Some(&sqlshare_common::json::Json::Bool(false))
    );
}
