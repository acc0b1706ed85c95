//! The parser's depth bound is safe end to end: for every recursive
//! construct, the deepest query the parser accepts runs through
//! `Engine::run` — binder, optimizer, executor, rendering and drop — on a
//! thread with Rust's default 2 MiB stack, with the vectorized executor
//! and with the row interpreter; one level more is a typed parse error.

use sqlshare_engine::{DataType, Engine, Schema, Table, Value};
use sqlshare_sql::parse_query;
use sqlshare_sql::parser::MAX_DEPTH;

/// The stack every server and scheduler thread runs on.
const THREAD_STACK: usize = 2 << 20;

/// `t(n)`: three integer rows; `one(n)`: a single row, so that a long
/// chain of cross products stays one row.
fn engine(vectorized: bool) -> Engine {
    let mut e = Engine::new();
    e.set_vectorized(vectorized);
    for (name, rows) in [("t", 3), ("one", 1)] {
        let rows = (1..=rows).map(|i| vec![Value::Int(i)]).collect();
        e.create_table(Table::new(
            name,
            Schema::from_pairs([("n", DataType::Int)]),
            rows,
        ))
        .unwrap();
    }
    e
}

/// A query `n` levels (or links) deep.
type Shape = fn(usize) -> String;

/// Each recursive construct, by name.
fn shapes() -> Vec<(&'static str, Shape)> {
    vec![
        ("parentheses", |n| {
            format!("SELECT {}n{} AS x FROM t", "(".repeat(n), ")".repeat(n))
        }),
        ("ABS(", |n| {
            format!("SELECT {}n{} AS x FROM t", "ABS(".repeat(n), ")".repeat(n))
        }),
        ("unary minus", |n| {
            format!("SELECT {}n AS x FROM t", "- ".repeat(n))
        }),
        ("NOT", |n| {
            format!("SELECT n FROM t WHERE {}n > 1", "NOT ".repeat(n))
        }),
        ("AND chain", |n| {
            format!("SELECT n FROM t WHERE n > 0{}", " AND n > 0".repeat(n))
        }),
        ("OR chain", |n| {
            format!("SELECT n FROM t WHERE n > 5{}", " OR n > 1".repeat(n))
        }),
        ("+ chain", |n| {
            format!("SELECT n{} AS x FROM t", " + 1".repeat(n))
        }),
        ("UNION ALL chain", |n| {
            format!("SELECT n FROM t{}", " UNION ALL SELECT n FROM t".repeat(n))
        }),
        ("JOIN chain", |n| {
            let joins: String = (1..=n)
                .map(|i| format!(" JOIN t t{i} ON t{i}.n = t0.n"))
                .collect();
            format!("SELECT COUNT(*) FROM t t0{joins}")
        }),
        ("comma-separated FROM", |n| {
            let inputs: String = (1..=n).map(|i| format!(", one o{i}")).collect();
            format!("SELECT COUNT(*) FROM one o0{inputs}")
        }),
        ("CASE WHEN", |n| {
            format!(
                "SELECT {}n{} AS x FROM t",
                "CASE WHEN n > 0 THEN ".repeat(n),
                " ELSE 0 END".repeat(n)
            )
        }),
        ("FROM subquery", |n| {
            let mut from = String::from("t");
            for i in 0..n {
                from = format!("(SELECT n FROM {from}) AS d{i}");
            }
            format!("SELECT n FROM {from}")
        }),
        ("IN subquery", |n| {
            let mut sql = String::from("SELECT n FROM t");
            for _ in 0..n {
                sql = format!("SELECT n FROM t WHERE n IN ({sql})");
            }
            sql
        }),
    ]
}

/// The largest `n` the parser accepts for `shape`; `n + 1` must be the
/// parser's typed depth error.
fn deepest_accepted(name: &str, shape: Shape) -> usize {
    let mut n = 0;
    while parse_query(&shape(n + 1)).is_ok() {
        n += 1;
        assert!(
            n <= 2 * MAX_DEPTH,
            "{name}: {n} levels accepted past the bound"
        );
    }
    let err = parse_query(&shape(n + 1)).unwrap_err();
    assert_eq!(err.kind(), "parse", "{name}: {err}");
    assert!(err.message().contains("too deep"), "{name}: {err}");
    n
}

#[test]
fn a_query_at_the_depth_bound_runs_end_to_end_on_a_2_mib_stack() {
    for (name, shape) in shapes() {
        let n = deepest_accepted(name, shape);
        assert!(n >= MAX_DEPTH / 4, "{name}: only {n} levels accepted");
        let sql = shape(n);
        for vectorized in [true, false] {
            let e = engine(vectorized);
            let sql = sql.clone();
            let outcome = std::thread::Builder::new()
                .stack_size(THREAD_STACK)
                .spawn(move || e.run(&sql).map(|out| out.rows.len()))
                .unwrap()
                .join()
                .expect("the run must not panic");
            let rows = outcome.unwrap_or_else(|e| panic!("{name} at depth {n}: {e}"));
            assert!(
                rows > 0,
                "{name} at depth {n} (vectorized: {vectorized}): no rows"
            );
        }
    }
}

#[test]
fn one_level_past_the_bound_is_a_typed_parse_error() {
    let e = engine(true);
    for (name, shape) in shapes() {
        let n = deepest_accepted(name, shape);
        let err = e.run(&shape(n + 1)).unwrap_err();
        assert_eq!(err.kind(), "parse", "{name}: {err}");
    }
}
