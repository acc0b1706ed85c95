//! Chaos differential harness: replay the generated workloads under
//! deterministic fault injection and assert the containment invariants
//! the fault model promises (DESIGN.md):
//!
//! - no injected fault — error, panic, or delay — ever aborts the
//!   process or escapes `Engine::run` as anything but a typed
//!   `Error`;
//! - a query a fault does *not* hit returns exactly what it would have
//!   returned on a never-faulted engine (no silent corruption, no
//!   partial cache entries served later);
//! - clearing the fault plan restores the engine completely: a clean
//!   replay on the formerly-chaotic engine is byte-identical (DOP 1) or
//!   float-tolerant-identical (DOP 4) to the never-faulted baseline;
//! - the memory pool drains back to zero — failed queries don't leak
//!   reservations;
//! - at the service layer, every submission under chaos reaches a
//!   terminal state and the scheduler ends with no job running or queued.
//!
//! Every engine-level invariant is checked on both executors: the
//! vectorized engine and the row interpreter sit behind the same fault
//! sites and must degrade identically.
//!
//! The fault plan is this file's own parameter: `SQLSHARE_FAULTS`
//! (`seed:rate`; the CI chaos leg pins a seed), or a fixed in-code seed
//! so the test is deterministic when run bare. No library reads it —
//! the corpus generators and the never-faulted baselines run clean, and
//! plans are installed where the harness wants them.

use sqlshare_engine::{Engine, FaultPlan, Value};
use sqlshare_sql::parser::parse_query;
use sqlshare_wlgen::{sdss, sqlshare as wl, GeneratorConfig};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

/// Relative tolerance for float cells at DOP 4 (parallel aggregate
/// merge order), same as the serial-vs-parallel differential.
const FLOAT_RTOL: f64 = 1e-9;

fn floats_close(a: f64, b: f64) -> bool {
    if a == b || (a.is_nan() && b.is_nan()) {
        return true;
    }
    let scale = a.abs().max(b.abs());
    (a - b).abs() <= FLOAT_RTOL * scale.max(1.0)
}

fn values_match(a: &Value, b: &Value, exact: bool) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) if !exact => floats_close(*x, *y),
        _ => a == b,
    }
}

fn rows_match(a: &[Value], b: &[Value], exact: bool) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| values_match(x, y, exact))
}

/// Total order over values for bag comparison (see
/// parallel_differential.rs for why this is safe under float fuzz).
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

fn chaos_spec() -> Option<String> {
    std::env::var("SQLSHARE_FAULTS").ok()
}

/// The active chaos schedule: the CI leg's `SQLSHARE_FAULTS` seed when
/// set (a spec that does not parse fails the suite), a fixed in-code
/// seed otherwise.
fn chaos_plan() -> FaultPlan {
    match chaos_spec() {
        Some(spec) => FaultPlan::parse(&spec)
            .unwrap_or_else(|| panic!("SQLSHARE_FAULTS={spec:?}: not `seed:rate`")),
        None => FaultPlan::new(0xC4A05, 0.05),
    }
}

fn env_plan_set() -> bool {
    chaos_spec().is_some()
}

/// One replayed query's outcome, normalized for comparison: successful
/// rows (bag-sorted unless the query pins order) or an error kind.
enum Outcome {
    Rows(Vec<Vec<Value>>),
    Fail(&'static str, String),
}

/// Run one query under a containment assertion: a panic escaping
/// `Engine::run` is itself the bug this harness exists to catch.
fn replay_once(engine: &Engine, canonical: &str) -> Outcome {
    let result = catch_unwind(AssertUnwindSafe(|| engine.run(canonical)))
        .unwrap_or_else(|payload| {
            panic!(
                "panic escaped Engine::run for {canonical}: {}",
                sqlshare_common::Error::from_panic(payload)
            )
        });
    match result {
        Ok(out) => {
            let mut rows = out.rows;
            if !has_order_by(canonical) {
                rows.sort_by(|a, b| cmp_row(a, b));
            }
            Outcome::Rows(rows)
        }
        Err(e) => {
            assert!(!e.kind().is_empty(), "untyped error for {canonical}: {e}");
            Outcome::Fail(e.kind(), e.message().to_string())
        }
    }
}

fn injected(msg: &str) -> bool {
    msg.contains("injected")
}

/// Replay the corpus on `engine` and compare each outcome against the
/// never-faulted `baseline`. Under chaos (`chaotic = true`) a query may
/// additionally fail with an injected error; everything else must agree
/// with the baseline. Returns how many injected failures were observed.
fn compare_replay(
    corpus_name: &str,
    pass: &str,
    queries: &[String],
    engine: &Engine,
    baseline: &[Outcome],
    chaotic: bool,
    exact: bool,
) -> usize {
    let mut injected_failures = 0usize;
    for (canonical, base) in queries.iter().zip(baseline) {
        let got = replay_once(engine, canonical);
        match (base, &got) {
            (Outcome::Rows(b), Outcome::Rows(g)) => {
                assert_eq!(
                    b.len(),
                    g.len(),
                    "{corpus_name} {pass}: row count diverged for {canonical}"
                );
                for (i, (br, gr)) in b.iter().zip(g).enumerate() {
                    assert!(
                        rows_match(br, gr, exact),
                        "{corpus_name} {pass}: row {i} diverged for {canonical}\n  \
                         baseline: {br:?}\n  got:      {gr:?}"
                    );
                }
            }
            (Outcome::Rows(_), Outcome::Fail(kind, msg)) => {
                assert!(
                    chaotic && injected(msg),
                    "{corpus_name} {pass}: unexpected failure for {canonical}: {kind}: {msg}"
                );
                injected_failures += 1;
            }
            (Outcome::Fail(bk, _), Outcome::Fail(gk, gm)) => {
                if chaotic && injected(gm) {
                    injected_failures += 1;
                } else {
                    assert_eq!(
                        bk, gk,
                        "{corpus_name} {pass}: error kind diverged for {canonical}: {gm}"
                    );
                }
            }
            (Outcome::Fail(bk, bm), Outcome::Rows(_)) => panic!(
                "{corpus_name} {pass}: baseline-only failure for {canonical}: {bk}: {bm}"
            ),
        }
    }
    injected_failures
}

/// The full engine-level chaos differential for one corpus on one
/// executor: baseline, chaotic replay, then a clean replay on the same
/// engine after clearing the plan, at DOP 1 (exact) and DOP 4
/// (float-tolerant).
fn run_corpus(
    corpus_name: &str,
    corpus: &sqlshare_wlgen::sqlshare::GeneratedCorpus,
    vectorized: bool,
) {
    let corpus_name = &format!("{corpus_name} {}", if vectorized { "vectorized" } else { "row" });
    let entries: Vec<(String, String)> = corpus
        .service
        .log()
        .entries()
        .iter()
        .map(|e| (e.user.clone(), e.sql.clone()))
        .collect();
    assert!(!entries.is_empty(), "{corpus_name}: empty query log");
    let queries: Vec<String> = entries
        .iter()
        .filter_map(|(user, sql)| corpus.service.canonicalize(user, sql).ok())
        .collect();
    assert!(!queries.is_empty(), "{corpus_name}: nothing canonicalized");

    // Never-faulted serial baseline, cache off: the pure reference.
    let mut baseline_engine: Engine = corpus.service.engine().clone();
    baseline_engine.set_vectorized(vectorized);
    baseline_engine.set_max_dop(1);
    baseline_engine.disable_cache();
    let baseline: Vec<Outcome> = queries
        .iter()
        .map(|q| replay_once(&baseline_engine, q))
        .collect();
    assert!(
        baseline.iter().any(|o| matches!(o, Outcome::Rows(_))),
        "{corpus_name}: baseline has no successful queries"
    );

    let mut total_injected = 0usize;
    for dop in [1usize, 4] {
        let mut engine: Engine = corpus.service.engine().clone();
        engine.set_vectorized(vectorized);
        engine.set_max_dop(dop);
        if dop > 1 {
            engine.set_parallelism_cost_threshold(0.0);
        }
        // Cache stays on for the serial pair so CacheInsert faults fire
        // and any corrupt entry they might leave would be served — and
        // caught — by the clean replay. The parallel pair runs cache-off
        // so warm hits can't shortcut the parallel executor under test.
        if dop > 1 {
            engine.disable_cache();
        }
        let exact = dop == 1;

        engine.set_fault_plan(Some(chaos_plan()));
        total_injected += compare_replay(
            corpus_name,
            &format!("chaos dop{dop}"),
            &queries,
            &engine,
            &baseline,
            true,
            exact,
        );

        // Clearing the plan must restore the engine completely.
        engine.set_fault_plan(None);
        let clean_injected = compare_replay(
            corpus_name,
            &format!("clean dop{dop}"),
            &queries,
            &engine,
            &baseline,
            false,
            exact,
        );
        assert_eq!(clean_injected, 0);
        assert_eq!(
            engine.memory_pool().used(),
            0,
            "{corpus_name} dop{dop}: memory pool did not drain"
        );
    }

    // With the default in-code plan (seeded, 5% per check over hundreds
    // of checks) injections are statistically certain; an env-provided
    // plan may legitimately run at rate 0.
    if !env_plan_set() {
        assert!(
            total_injected > 0,
            "{corpus_name}: chaos replay never injected a failure"
        );
    }
}

#[test]
fn sqlshare_corpus_survives_chaos() {
    let corpus = wl::generate(&GeneratorConfig::dev());
    for vectorized in [true, false] {
        run_corpus("sqlshare", &corpus, vectorized);
    }
}

#[test]
fn sdss_corpus_survives_chaos() {
    let corpus = sdss::generate(&GeneratorConfig::dev());
    for vectorized in [true, false] {
        run_corpus("sdss", &corpus, vectorized);
    }
}

/// Service-level chaos: submissions under an active fault plan all
/// reach terminal states, the scheduler keeps its accounting straight,
/// and every worker is free once the dust settles.
#[test]
fn service_survives_chaos_and_releases_all_slots() {
    let mut corpus = wl::generate(&GeneratorConfig::dev());
    let entries: Vec<(String, String)> = corpus
        .service
        .log()
        .entries()
        .iter()
        .filter(|e| matches!(e.outcome, sqlshare_core::Outcome::Success { .. }))
        .map(|e| (e.user.clone(), e.sql.clone()))
        .take(40)
        .collect();
    assert!(!entries.is_empty(), "no successful log entries to replay");

    let s = &mut corpus.service;
    s.set_fault_plan(Some(chaos_plan()));
    let mut ids = Vec::new();
    for (user, sql) in &entries {
        // Admission control may reject under queue pressure; that is a
        // typed, logged outcome, not a chaos escape.
        if let Ok(id) = s.submit_query(user, sql) {
            ids.push(id);
        }
    }
    assert!(!ids.is_empty(), "every chaos submission was rejected");
    let mut terminal = 0usize;
    for id in &ids {
        let status = s.wait_for_job(*id, Duration::from_secs(120)).unwrap();
        assert!(status.is_terminal(), "job {id} stuck: {status:?}");
        terminal += 1;
    }
    assert_eq!(terminal, ids.len());

    assert!(s.scheduler().wait_idle(Duration::from_secs(60)));
    let stats = s.scheduler_stats();
    assert_eq!(stats.totals.running, 0, "chaos leaked a running job");
    assert_eq!(stats.totals.queue_depth, 0, "chaos left a queued job");
    // The process kept serving: clear the plan and the next submission
    // still reaches a terminal state through a working scheduler.
    s.set_fault_plan(None);
    let (user, sql) = &entries[0];
    let id = s.submit_query(user, sql).unwrap();
    let status = s.wait_for_job(id, Duration::from_secs(120)).unwrap();
    assert!(status.is_terminal(), "post-chaos job stuck: {status:?}");
    assert!(s.scheduler().wait_idle(Duration::from_secs(60)));
    assert_eq!(s.scheduler_stats().totals.running, 0);
}
