//! Row-vs-vectorized differential harness.
//!
//! The vectorized columnar engine (`Engine::set_vectorized`, on by
//! default) is proven against the row-at-a-time interpreter, which
//! stays alive as the correctness oracle. Every query the workload
//! generators produce — the SQLShare corpus of hand-written queries and
//! the SDSS template corpus — is replayed against both engines:
//!
//! - at `DOP = 1` the two engines must agree **byte for byte**: exact
//!   rows in exact order (the vectorized kernels reproduce the oracle's
//!   arithmetic exactly, replaying row-at-a-time whenever they cannot),
//!   and failing queries must fail with the *identical* error;
//! - at `DOP = 4` (every eligible plan forced parallel) the vectorized
//!   engine runs the plan as a morsel pipeline, while the row engine
//!   stays wholly serial: it runs `Gather` and `Repartition` as
//!   pass-throughs and nothing of the pipeline. Each is compared
//!   against the **row engine at DOP 1**, the serial plan's answers,
//!   with the float tolerance the serial-vs-parallel harness uses
//!   (morsel merge order may differ); errors must agree by kind;
//! - dedicated legs compose the vectorized engine with operators that
//!   page out to spill files under a query budget (the served default
//!   always sets a spill directory) and with the result cache disabled
//!   (`SQLSHARE_RESULT_CACHE_MB=0` equivalent), byte-identical at DOP 1
//!   in both.

use sqlshare_common::Error;
use sqlshare_engine::{DataType, Engine, QueryOutput, Schema, Table, Value};
use sqlshare_sql::parser::parse_query;
use sqlshare_wlgen::{sdss, sqlshare as wl, GeneratorConfig};

/// Relative tolerance for float cells at DOP > 1 (morsel merge order).
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

/// Total order over values for bag comparison (same as the parallel
/// harness: exact key cells pin row positions before float cells can
/// differ).
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

/// A forced-parallel outcome against the serial row oracle's: same bag
/// of rows (same sequence when the query pins its order) up to the
/// float tolerance, or an error of the same kind.
fn assert_matches_oracle(
    what: &str,
    sql: &str,
    oracle: &Result<QueryOutput, Error>,
    got: Result<QueryOutput, Error>,
) {
    match (oracle, got) {
        (Ok(o), Ok(g)) => {
            assert_eq!(o.rows.len(), g.rows.len(), "{what}: row count diverged for {sql}");
            let (mut orows, mut grows) = (o.rows.clone(), g.rows);
            if !has_order_by(sql) {
                orows.sort_by(|a, b| cmp_row(a, b));
                grows.sort_by(|a, b| cmp_row(a, b));
            }
            for (i, (or, gr)) in orows.iter().zip(&grows).enumerate() {
                assert!(
                    rows_match(or, gr),
                    "{what}: row {i} diverged for {sql}\n  row engine, DOP 1: {or:?}\n  \
                     {what}: {gr:?}"
                );
            }
        }
        (Err(oe), Err(ge)) => assert_eq!(
            oe.kind(),
            ge.kind(),
            "{what}: error kind diverged for {sql}\n  row engine, DOP 1: {oe}\n  {what}: {ge}"
        ),
        (Ok(_), Err(ge)) => panic!("{what}: failed where the row engine at DOP 1 did not, {sql}: {ge}"),
        (Err(oe), Ok(_)) => panic!("{what}: succeeded where the row engine at DOP 1 failed, {sql}: {oe}"),
    }
}

struct Tally {
    compared_serial: usize,
    compared_parallel: usize,
    errored: usize,
}

/// Replay every logged query from `corpus_name` on the row oracle and
/// the vectorized engine at DOP 1 (byte-identical), and on both engine
/// settings at forced DOP 4 against the DOP-1 row oracle
/// (float-tolerant).
fn run_corpus(corpus_name: &str, corpus: sqlshare_wlgen::sqlshare::GeneratedCorpus) -> Tally {
    let configure = |dop: usize, vectorized: bool| -> Engine {
        let mut e = corpus.service.engine().clone();
        e.set_max_dop(dop);
        e.set_vectorized(vectorized);
        if dop > 1 {
            e.set_parallelism_cost_threshold(0.0);
        }
        // Cold execution on every replica: engine clones share the
        // service's cache, and a result stored by one engine must not
        // be served as the other's output. This also makes the whole
        // harness a `SQLSHARE_RESULT_CACHE_MB=0` composition leg.
        e.disable_cache();
        e
    };
    let row1 = configure(1, false);
    let vec1 = configure(1, true);
    let row4 = configure(4, false);
    let vec4 = configure(4, true);

    let mut tally = Tally {
        compared_serial: 0,
        compared_parallel: 0,
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

        // DOP 1: the strict leg. Same rows, same order, same bytes —
        // and on failure the *same* error, not merely the same kind.
        let oracle = row1.run(&canonical);
        match (&oracle, vec1.run(&canonical)) {
            (Ok(r), Ok(v)) => {
                assert_eq!(
                    r.rows, v.rows,
                    "{corpus_name}: DOP-1 rows diverged for {canonical}"
                );
                tally.compared_serial += 1;
            }
            (Err(re), Err(ve)) => {
                assert_eq!(
                    *re, ve,
                    "{corpus_name}: DOP-1 error diverged for {canonical}"
                );
                tally.errored += 1;
            }
            (Ok(_), Err(ve)) => {
                panic!("{corpus_name}: vectorized-only failure for {canonical}: {ve}")
            }
            (Err(re), Ok(_)) => {
                panic!("{corpus_name}: row-only failure for {canonical}: {re}")
            }
        }

        // Forced DOP 4, each engine setting against the serial row
        // oracle: float-tolerant (morsel merge order), bag compare
        // unless the query pins its order.
        for (what, engine) in [("row engine, DOP 4", &row4), ("vectorized, DOP 4", &vec4)] {
            let what = format!("{corpus_name}: {what}");
            assert_matches_oracle(&what, &canonical, &oracle, engine.run(&canonical));
        }
        tally.compared_parallel += usize::from(oracle.is_ok());
    }

    assert!(
        tally.compared_serial > 0 && tally.compared_parallel > 0,
        "{corpus_name}: no successful queries were compared"
    );
    tally
}

#[test]
fn sqlshare_corpus_row_vs_vectorized() {
    run_corpus("sqlshare", wl::generate(&GeneratorConfig::dev()));
}

#[test]
fn sdss_corpus_row_vs_vectorized() {
    run_corpus("sdss", sdss::generate(&GeneratorConfig::dev()));
}

// ---------------------------------------------------------------------------
// Composition legs: spilling operators and a zero-budget result cache
// ---------------------------------------------------------------------------

/// Queries covering every vectorized source and operator shape: full
/// scans, leading-key seeks, filters over every column type, computes,
/// scalar and grouped aggregates, joins, TOP, set ops, and window
/// functions.
const FIXTURE_QUERIES: &[&str] = &[
    "SELECT * FROM events",
    "SELECT id, score * 2 FROM events WHERE id >= 120 AND id < 700",
    "SELECT id FROM events WHERE score > 40.0",
    "SELECT tag, COUNT(*), SUM(score), MIN(score), MAX(score) FROM events GROUP BY tag",
    "SELECT COUNT(*), AVG(score) FROM events WHERE flag = 1",
    "SELECT e.id, d.label FROM events AS e JOIN dims AS d ON e.tag = d.tag WHERE e.score < 30.0",
    "SELECT e.id, d.label FROM events AS e LEFT JOIN dims AS d ON e.tag = d.tag AND d.tag <> 'tag3'",
    "SELECT TOP 7 id, score FROM events ORDER BY score DESC, id",
    "SELECT tag FROM events WHERE flag = 1 UNION SELECT tag FROM dims",
    "SELECT id, SUM(score) OVER (PARTITION BY tag ORDER BY id) FROM events WHERE id < 200",
    "SELECT id, score / (id % 5) FROM events WHERE id < 50",
    "SELECT CASE WHEN score > 50.0 THEN 'hi' ELSE 'lo' END, COUNT(*) FROM events GROUP BY 1",
];

fn fixture_tables(e: &mut Engine) {
    e.create_table(Table::new(
        "events",
        Schema::from_pairs([
            ("id", DataType::Int),
            ("tag", DataType::Text),
            ("score", DataType::Float),
            ("flag", DataType::Int),
        ]),
        (0..900)
            .map(|i| {
                vec![
                    Value::Int(i),
                    if i % 13 == 0 {
                        Value::Null
                    } else {
                        Value::Text(format!("tag{}", i % 7))
                    },
                    if i % 11 == 0 {
                        Value::Null
                    } else {
                        Value::Float((i % 89) as f64 * 0.75)
                    },
                    Value::Int(i % 2),
                ]
            })
            .collect(),
    ))
    .unwrap();
    e.create_table(Table::new(
        "dims",
        Schema::from_pairs([("tag", DataType::Text), ("label", DataType::Text)]),
        (0..7)
            .map(|i| vec![Value::Text(format!("tag{i}")), Value::Text(format!("label-{i}"))])
            .collect(),
    ))
    .unwrap();
}

/// Run the fixture queries on a row and a vectorized engine built by
/// `mk` and demand byte-identical DOP-1 output.
fn assert_fixture_identical(mk: impl Fn(bool) -> Engine) {
    let row = mk(false);
    let vec = mk(true);
    for sql in FIXTURE_QUERIES {
        match (row.run(sql), vec.run(sql)) {
            (Ok(r), Ok(v)) => assert_eq!(r.rows, v.rows, "rows diverged for {sql}"),
            (Err(re), Err(ve)) => assert_eq!(re, ve, "error diverged for {sql}"),
            (Ok(_), Err(ve)) => panic!("vectorized-only failure for {sql}: {ve}"),
            (Err(re), Ok(_)) => panic!("row-only failure for {sql}: {re}"),
        }
    }
}

#[test]
fn paged_backing_is_byte_identical_at_dop1() {
    // The served composition: a spill directory is always set, so under
    // a 32 KiB query budget the fixture's top-k sort pages its runs out
    // to spill files in both engines. Where both complete, the answers
    // are the unbudgeted row engine's, byte for byte. An operator that
    // cannot spill may exhaust the budget in one engine only: the row
    // engine charges rows, the batch engine columns.
    let dir = std::env::temp_dir().join(format!(
        "sqlshare-vectorized-differential-{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let engine = |vectorized: bool, budget: Option<usize>| {
        let mut e = Engine::new();
        e.set_spill_dir(Some(dir.clone()));
        if let Some(bytes) = budget {
            e.set_query_mem_limit(bytes);
        }
        e.set_max_dop(1);
        e.set_vectorized(vectorized);
        e.disable_cache();
        fixture_tables(&mut e);
        e
    };
    let oracle = engine(false, None);
    let (row, vec) = (engine(false, Some(32 << 10)), engine(true, Some(32 << 10)));
    let mut paged_out = 0;
    for sql in FIXTURE_QUERIES {
        match (row.run(sql), vec.run(sql)) {
            (Ok(r), Ok(v)) => {
                assert_eq!(r.rows, v.rows, "rows diverged for {sql}");
                assert_eq!(r.rows, oracle.run(sql).unwrap().rows, "budget changed {sql}");
                assert_eq!(r.spill_bytes, v.spill_bytes, "spill volume diverged for {sql}");
                paged_out += usize::from(r.spill_bytes > 0);
            }
            (Err(Error::ResourceExhausted(_)), _) | (_, Err(Error::ResourceExhausted(_))) => {}
            (Err(re), Err(ve)) => assert_eq!(re, ve, "error diverged for {sql}"),
            (Ok(_), Err(ve)) => panic!("vectorized-only failure for {sql}: {ve}"),
            (Err(re), Ok(_)) => panic!("row-only failure for {sql}: {re}"),
        }
    }
    assert!(paged_out > 0, "no fixture query paged out under 32 KiB");
    let left: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
    assert!(left.is_empty(), "spill files left behind: {left:?}");
    let _ = std::fs::remove_dir(&dir);
}

#[test]
fn zero_result_cache_is_byte_identical_at_dop1() {
    // `SQLSHARE_RESULT_CACHE_MB=0` composition: plans cache but results
    // never do, so every run re-executes.
    assert_fixture_identical(|vectorized| {
        let mut e = Engine::new();
        e.set_max_dop(1);
        e.set_vectorized(vectorized);
        e.set_cache_config(0, 3);
        fixture_tables(&mut e);
        e
    });
}

fn memory_fixture_engine(dop: usize, vectorized: bool) -> Engine {
    let mut e = Engine::new();
    e.set_max_dop(dop);
    e.set_parallelism_cost_threshold(0.0);
    e.set_vectorized(vectorized);
    e.disable_cache();
    fixture_tables(&mut e);
    e
}

#[test]
fn memory_backed_fixture_is_byte_identical_across_dop() {
    // The same fixture over in-memory tables, serial and forced
    // parallel: the morsel pipeline must not change survivors.
    for dop in [1, 4] {
        assert_fixture_identical(|vectorized| memory_fixture_engine(dop, vectorized));
    }
    // At DOP 4 the check above compares the morsel pipeline with the
    // row engine running the same parallel plan serially; the row
    // engine at DOP 1 pins both to the serial plan's answers.
    let oracle = memory_fixture_engine(1, false);
    for vectorized in [false, true] {
        let parallel = memory_fixture_engine(4, vectorized);
        let what = format!("DOP 4, vectorized={vectorized}");
        for sql in FIXTURE_QUERIES {
            assert_matches_oracle(&what, sql, &oracle.run(sql), parallel.run(sql));
        }
    }
}

#[test]
fn empty_string_keys_behind_nulls_match_the_row_oracle() {
    // `a.s` opens with a NULL (and so does every 1,024-row morsel of
    // it), which seeds the column's dictionary with "" as the NULL
    // placeholder; the real "" cells behind it must still join "" from
    // `b`'s dictionary and fall into one group when a computed text key
    // builds a fresh dictionary per morsel.
    let queries = [
        "SELECT COUNT(*) FROM b JOIN a ON b.s = a.s",
        "SELECT COUNT(*) FROM a JOIN b ON a.s = b.s",
        "SELECT b.s, COUNT(*) FROM b LEFT JOIN a ON b.s = a.s GROUP BY b.s",
        "SELECT s, COUNT(*) FROM a GROUP BY s",
        "SELECT s || '', COUNT(*) FROM a GROUP BY s || ''",
    ];
    let engine = |dop: usize, vectorized: bool| {
        let mut e = Engine::new();
        e.set_max_dop(dop);
        e.set_parallelism_cost_threshold(0.0);
        e.set_vectorized(vectorized);
        e.disable_cache();
        let text = |s: &str| Value::Text(s.into());
        e.create_table(Table::new(
            "a",
            Schema::from_pairs([("s", DataType::Text)]),
            (0..3000)
                .map(|i| match (i % 1024, i % 3) {
                    (0, _) => vec![Value::Null],
                    (_, 1) => vec![text("")],
                    _ => vec![text("a")],
                })
                .collect(),
        ))
        .unwrap();
        e.create_table(Table::new(
            "b",
            Schema::from_pairs([("s", DataType::Text)]),
            vec![vec![text("")], vec![text("a")]],
        ))
        .unwrap();
        e
    };
    let oracle = engine(1, false);
    let join = oracle.run(queries[0]).unwrap();
    assert_eq!(join.rows, vec![vec![Value::Int(2997)]], "every non-NULL row of a joins once");
    for (dop, vectorized) in [(1, true), (4, false), (4, true)] {
        let other = engine(dop, vectorized);
        let what = format!("DOP {dop}, vectorized={vectorized}");
        for sql in queries {
            assert_matches_oracle(&what, sql, &oracle.run(sql), other.run(sql));
        }
    }
}
