//! In-memory vs paged-out execution differential.
//!
//! A hash join whose build side, or a sort whose decorated input, is
//! over the query's memory budget pages its rows out to spill files
//! (Grace hash join, external merge sort) instead of failing. That must
//! be invisible in the answer:
//!
//! - every query the workload generators produce is replayed on an
//!   unbudgeted in-memory oracle and on a subject whose budget makes
//!   its joins and sorts page out: at DOP 1 the answers are identical
//!   byte for byte, at forced DOP 4 up to the serial-vs-parallel float
//!   tolerance; an operator that cannot spill (an aggregate, a window,
//!   the result itself) may still exhaust the budget, and then only
//!   with a typed `ResourceExhausted`;
//! - an engine-wide memory pool far smaller than a table keeps its
//!   answers and returns every charge after each query;
//! - without a spill directory the same budget still unwinds with a
//!   typed `ResourceExhausted`;
//! - the spill volume shows in the query's result, its query-log entry
//!   and its REST results, also in the service a deployment builds with
//!   nothing but a memory budget configured;
//! - no spill file outlives its query — finished, failed part-way
//!   through a spill, or cancelled: a spill file is unlinked as soon as
//!   it is created.
//!
//! The tests that look at the process's temp directory spill into it
//! and hold one lock: a spill file exists, between its creation and its
//! unlink, for as long as one system call. The others spill into a
//! directory of their own, which they find empty when they finish.

use sqlshare_common::json::Json;
use sqlshare_common::Error;
use sqlshare_core::rest::{body, dispatch, Request};
use sqlshare_core::{JobStatus, SqlShare};
use sqlshare_engine::{DataType, Engine, Schema, Table, Value};
use sqlshare_ingest::IngestOptions;
use sqlshare_server::config::Config;
use sqlshare_sql::parser::parse_query;
use sqlshare_wlgen::{sdss, sqlshare as wl, GeneratorConfig};
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Duration;

static SPILL_DIR: Mutex<()> = Mutex::new(());

fn hold_spill_dir() -> std::sync::MutexGuard<'static, ()> {
    SPILL_DIR.lock().unwrap_or_else(|e| e.into_inner())
}

/// The spill files of this process in `dir`: what a leak would leave.
fn spill_entries(dir: &std::path::Path) -> Vec<String> {
    let prefix = format!("sqlshare-spill-{}-", std::process::id());
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|n| n.starts_with(&prefix))
        .collect();
    names.sort();
    names
}

/// A spill directory of one test's own, empty, removed on drop.
struct OwnSpillDir(PathBuf);

impl OwnSpillDir {
    fn new(test: &str) -> OwnSpillDir {
        let dir = std::env::temp_dir().join(format!(
            "sqlshare-paged-differential-{}-{test}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        OwnSpillDir(dir)
    }

    /// Panics unless every spill file made in it is gone.
    fn assert_empty(&self) {
        let left: Vec<_> = std::fs::read_dir(&self.0)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert!(left.is_empty(), "spill files left behind: {left:?}");
    }
}

impl Drop for OwnSpillDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

// ---- comparison helpers ----------------------------------------------------

/// Relative tolerance for float cells at DOP 4 (aggregate merge order).
const FLOAT_RTOL: f64 = 1e-9;

fn floats_close(a: f64, b: f64) -> bool {
    if a == b || (a.is_nan() && b.is_nan()) {
        return true;
    }
    let scale = a.abs().max(b.abs());
    (a - b).abs() <= FLOAT_RTOL * scale.max(1.0)
}

/// Bit-exact cell equality: a DOP-1 run that pages out must not perturb
/// floats at all (NaN and signed zero included).
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

// ---- the corpora ----------------------------------------------------------

/// The corpus engine at `dop` (forced parallel above 1), cold: engine
/// clones share the service's result cache, and one side's stored
/// result must not be served as the other's answer.
fn replica(corpus: &wl::GeneratedCorpus, dop: usize) -> Engine {
    let mut e = corpus.service.engine().clone();
    e.disable_cache();
    e.set_max_dop(dop);
    if dop > 1 {
        e.set_parallelism_cost_threshold(0.0);
    }
    e
}

/// The same engine under a `budget` its joins and sorts page out of,
/// into `dir`.
fn paged_out(mut e: Engine, budget: usize, dir: &OwnSpillDir) -> Engine {
    e.set_query_mem_limit(budget);
    e.set_spill_dir(Some(dir.0.clone()));
    e
}

#[derive(Debug)]
struct Tally {
    compared: usize,
    /// Compared queries whose subject run paged rows out.
    spilled: usize,
    /// Queries an operator that cannot spill stopped at the budget.
    exhausted: usize,
}

/// Replay every logged query against the in-memory oracle and the
/// paged-out subject; `exact` demands byte-identical ordered output,
/// otherwise unordered queries are compared as bags with float
/// tolerance.
fn run_corpus(
    corpus_name: &str,
    corpus: &wl::GeneratedCorpus,
    oracle: &Engine,
    subject: &Engine,
    exact: bool,
) {
    let mut tally = Tally {
        compared: 0,
        spilled: 0,
        exhausted: 0,
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
        match (oracle.run(&canonical), subject.run(&canonical)) {
            (Ok(o), Ok(s)) => {
                assert_eq!(
                    o.rows.len(),
                    s.rows.len(),
                    "{corpus_name}: row count diverged for {canonical}"
                );
                assert_eq!(o.spill_bytes, 0, "{corpus_name}: the oracle spilled {canonical}");
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
                tally.spilled += usize::from(s.spill_bytes > 0);
            }
            // An operator that cannot spill may stop at the budget
            // before the oracle's own error is reached.
            (_, Err(Error::ResourceExhausted(_))) => tally.exhausted += 1,
            (Err(oe), Err(se)) => {
                assert_eq!(
                    oe.kind(),
                    se.kind(),
                    "{corpus_name}: error kind diverged for {canonical}\n  \
                     memory: {oe}\n  paged:  {se}"
                );
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
        tally.spilled > 0 && tally.exhausted < tally.compared,
        "{corpus_name}: the budget pages out no query, or stops most of them ({tally:?})"
    );
}

#[test]
fn sqlshare_corpus_memory_vs_paged_serial() {
    let corpus = wl::generate(&GeneratorConfig::dev());
    let oracle = replica(&corpus, 1);
    // A budget most queries fit in, and one an eighth of it.
    for budget in [CORPUS_BUDGET, CORPUS_BUDGET / 8] {
        let dir = OwnSpillDir::new(&format!("sqlshare-serial-{budget}"));
        let subject = paged_out(replica(&corpus, 1), budget, &dir);
        run_corpus(&format!("sqlshare/{budget}B"), &corpus, &oracle, &subject, true);
        dir.assert_empty();
    }
}

#[test]
fn sqlshare_corpus_memory_vs_paged_parallel() {
    let corpus = wl::generate(&GeneratorConfig::dev());
    let dir = OwnSpillDir::new("sqlshare-parallel");
    let oracle = replica(&corpus, 4);
    let subject = paged_out(replica(&corpus, 4), CORPUS_BUDGET, &dir);
    run_corpus("sqlshare/dop4", &corpus, &oracle, &subject, false);
    dir.assert_empty();
}

#[test]
fn sdss_corpus_memory_vs_paged_serial() {
    let corpus = sdss::generate(&GeneratorConfig::dev());
    let dir = OwnSpillDir::new("sdss-serial");
    let oracle = replica(&corpus, 1);
    // SDSS's tables are narrow: its joins and sorts page out only
    // under a budget of a few KiB.
    let subject = paged_out(replica(&corpus, 1), 4 << 10, &dir);
    run_corpus("sdss/4KiB", &corpus, &oracle, &subject, true);
    dir.assert_empty();
}

/// The subject's query budget in the SQLShare corpus runs: at DOP 1
/// about one query in thirty pages out under it, and one in twelve
/// exhausts it in an operator that cannot.
const CORPUS_BUDGET: usize = 64 << 10;

// ---- the engine ------------------------------------------------------------

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

/// Over-budget joins and sorts complete by spilling — byte-identical to
/// an unconstrained run — when the engine has a spill directory, and
/// still fail with `ResourceExhausted` when it has none.
#[test]
fn over_budget_operators_spill_instead_of_failing() {
    let _dir = hold_spill_dir();
    // Oracle: no budget.
    let mut oracle = Engine::new();
    spill_fixture(&mut oracle);
    oracle.set_max_dop(1);

    // Subject: tight budget, a directory to spill into.
    let mut subject = Engine::new();
    subject.set_spill_dir(Some(std::env::temp_dir()));
    spill_fixture(&mut subject);
    subject.set_max_dop(1);
    subject.set_query_mem_limit(256 << 10);

    // Control: the same budget with nowhere to spill must still unwind.
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
            "an engine with no spill directory should exhaust on {q}, got: {err}"
        );
    }
    assert_eq!(spill_entries(&std::env::temp_dir()), Vec::<String>::new());
}

/// ~1.5 MiB of rows behind a 1 MiB engine-wide memory pool: a join
/// or sort over the table cycles its partitions or runs through the
/// pool several times over. The answers stay the in-memory engine's,
/// and every query hands the pool back empty.
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
                        Value::Text(format!("pad-{:0>96}", i * 7919 % 12_000)),
                    ]
                })
                .collect(),
        )
    };

    let mut memory = Engine::new();
    memory.set_max_dop(1);
    memory.create_table(table()).unwrap();

    let dir = OwnSpillDir::new("thrashing-pool");
    let mut paged = Engine::new();
    paged.set_max_dop(1);
    // Every pass executes: a cached result would not touch the pool.
    paged.disable_cache();
    paged.set_total_mem_limit(1 << 20);
    paged.set_spill_dir(Some(dir.0.clone()));
    paged.create_table(table()).unwrap();

    // (query, whether it pages out under the pool)
    let queries = [
        ("SELECT COUNT(*) AS n, SUM(id) AS s FROM big", false),
        ("SELECT grp, COUNT(*) AS n FROM big GROUP BY grp ORDER BY grp", false),
        ("SELECT id FROM big WHERE id >= 11990 ORDER BY id", false),
        ("SELECT id, pad FROM big WHERE grp = 13 ORDER BY id", false),
        (
            "SELECT COUNT(*) AS n, MAX(b.pad) AS m FROM big AS a JOIN big AS b ON a.id = b.id",
            true,
        ),
        ("SELECT TOP 5 id, pad FROM big ORDER BY pad DESC, id", true),
    ];
    for _ in 0..2 {
        for (q, spills) in queries {
            let m = memory.run(q).unwrap();
            let p = paged.run(q).unwrap_or_else(|e| panic!("{q}: {e}"));
            assert_eq!(m.rows, p.rows, "thrashed answer diverged for {q}");
            assert_eq!(p.spill_bytes > 0, spills, "{q}: spilled {} bytes", p.spill_bytes);
            assert_eq!(paged.memory_pool().used(), 0, "{q} kept a charge on the pool");
        }
    }
    dir.assert_empty();
}

/// The spill volume surfaces end to end: the query's result, its
/// query-log entry, and its REST results.
#[test]
fn spill_bytes_visible_in_service_log_and_rest() {
    let dir = OwnSpillDir::new("service-log-and-rest");
    let mut engine = Engine::new();
    engine.set_spill_dir(Some(dir.0.clone()));
    engine.set_query_mem_limit(48 << 10);
    let mut s = SqlShare::with_engine(engine);

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
    let sql = "SELECT COUNT(*) AS n FROM [ada].[wide] AS a JOIN [ada].[wide] AS b ON a.k = b.k";
    let r = dispatch(
        &mut s,
        &Request::post("/api/queries", body(&[("user", "ada"), ("sql", sql)])),
    );
    let id = r.body.get("id").and_then(Json::as_f64).unwrap() as u64;
    s.wait_for_job(id, Duration::from_secs(60)).unwrap();
    let result = s.query_results(id).unwrap();
    assert_eq!(result.rows, vec![vec![Value::Int(60 * 25 * 25)]]);
    assert!(result.spill_bytes > 0, "join under a 48 KiB budget must spill");

    // The query log keeps the spill volume per entry.
    let logged = s.log().entries().last().cloned().expect("query was logged");
    assert_eq!(logged.spill_bytes, result.spill_bytes, "log entry: {logged:?}");

    // And the REST results carry it.
    let r = dispatch(&mut s, &Request::get(format!("/api/queries/{id}/results")));
    assert_eq!(r.status, 200);
    assert_eq!(
        r.body.get("spillBytes").and_then(Json::as_f64),
        Some(result.spill_bytes as f64),
        "{:?}",
        r.body.to_string()
    );
    dir.assert_empty();
}

// ---- the served default ----------------------------------------------------

/// `big(v, g, pad)`: 20,000 rows of ~110 bytes, `v` unique and leading
/// (clustered order is `v` order), `g` 2,000 groups of ten.
fn big_csv() -> String {
    let mut csv = String::from("v,g,pad\n");
    for v in 0..20_000 {
        csv.push_str(&format!(
            "{v},{},pad-{:0>100}\n",
            v % 2000,
            v * 7919 % 20_000
        ));
    }
    csv
}

/// A service as a deployment builds it from its environment, with
/// `vars` set and nothing else, holding `ada.big`.
fn served(vars: &[(&str, &str)]) -> SqlShare {
    let vars: Vec<(String, String)> = vars
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    let config =
        Config::from_lookup(|name| vars.iter().find(|(k, _)| k == name).map(|(_, v)| v.clone()))
            .unwrap();
    let mut s = config.open_service().unwrap();
    s.register_user("ada", "ada@uw.edu").unwrap();
    s.upload("ada", "big", &big_csv(), &IngestOptions::default())
        .unwrap();
    s
}

const BUDGET: &[(&str, &str)] = &[("SQLSHARE_QUERY_MEM_MB", "1")];

/// A self-join whose ~2.5 MB build side is over a 1 MiB budget; one row
/// out.
const SERVED_JOIN: &str =
    "SELECT COUNT(*), SUM(a.g), MAX(b.pad) FROM big AS a JOIN big AS b ON a.v = b.v";
/// A top-k whose decorated sort input is over a 1 MiB budget.
const SERVED_SORT: &str = "SELECT TOP 10 v, pad FROM big ORDER BY pad DESC, v";

#[test]
fn the_served_default_spills_over_budget_joins_and_sorts() {
    let _dir = hold_spill_dir();
    let spill_dir = std::env::temp_dir();
    let unbudgeted = served(&[]);
    let budgeted = served(BUDGET);
    assert_eq!(budgeted.engine().spill_dir(), Some(spill_dir.as_path()));
    for sql in [SERVED_JOIN, SERVED_SORT] {
        let want = unbudgeted.run_query("ada", sql).unwrap();
        assert_eq!(want.spill_bytes, 0, "{sql}");
        let got = budgeted.run_query("ada", sql).unwrap();
        assert_eq!(
            format!("{:?}", got.rows),
            format!("{:?}", want.rows),
            "{sql}"
        );
        assert!(
            got.spill_bytes > 0,
            "completed without spilling under a 1 MiB budget: {sql}"
        );
        let logged = budgeted
            .log()
            .entries()
            .last()
            .cloned()
            .expect("the query was logged");
        assert_eq!(logged.spill_bytes, got.spill_bytes, "{sql}");
        assert_eq!(spill_entries(&spill_dir), Vec::<String>::new(), "{sql}");
    }
}

#[test]
fn no_spill_file_outlives_its_query() {
    let _dir = hold_spill_dir();
    let spill_dir = std::env::temp_dir();
    let s = served(BUDGET);

    // Spilled, and finished.
    let done = s.run_query("ada", SERVED_SORT).unwrap();
    assert!(done.spill_bytes > 0);
    assert_eq!(
        spill_entries(&spill_dir),
        Vec::<String>::new(),
        "after a spilled query"
    );

    // Failed part-way through a spill: the sort spills its first runs
    // around v = 8,000 and meets the division by zero at v = 15,000.
    // With nowhere to spill, the budget is what stops it.
    let sql = "SELECT TOP 3 v FROM big ORDER BY pad, 10 / (v - 15000)";
    let err = s.run_query("ada", sql).unwrap_err();
    assert_eq!(err.message(), "division by zero", "{err}");
    assert_eq!(
        spill_entries(&spill_dir),
        Vec::<String>::new(),
        "after a query failed mid-spill"
    );
    let mut engine = Engine::new();
    engine.set_query_mem_limit(1 << 20);
    let mut starved = SqlShare::with_engine(engine);
    starved.register_user("ada", "ada@uw.edu").unwrap();
    starved
        .upload("ada", "big", &big_csv(), &IngestOptions::default())
        .unwrap();
    let err = starved.run_query("ada", sql).unwrap_err();
    assert_eq!(err.kind(), "resource", "{err}");

    // Cancelled while it spills: a join of 200,000 matches over a build
    // side over budget, then a sort of them over budget too.
    let sql =
        "SELECT TOP 5 a.v, b.v FROM big AS a JOIN big AS b ON a.g = b.g ORDER BY a.pad, b.pad";
    let id = s.submit_query("ada", sql).unwrap();
    while s.query_status(id).unwrap() == JobStatus::Queued {
        std::thread::sleep(Duration::from_millis(1));
    }
    s.cancel_query("ada", id).unwrap();
    let status = s.wait_for_job(id, Duration::from_secs(60)).unwrap();
    assert!(matches!(status, JobStatus::Cancelled(_)), "{status:?}");
    assert_eq!(
        spill_entries(&spill_dir),
        Vec::<String>::new(),
        "after a cancelled query"
    );
}
