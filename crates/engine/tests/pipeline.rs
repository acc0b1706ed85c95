//! The batch pipeline at every DOP against the row interpreter.
//!
//! The row interpreter (`Engine::set_vectorized(false)`) is the oracle:
//! serial at any DOP, sharing no execution code with the batch engine.
//! At DOP 1 the batch pipeline runs as one morsel in the order a serial
//! evaluation meets its operators, so it must match the oracle byte for
//! byte — rows and first errors. Above DOP 1 it spills an over-budget
//! join like the serial engine does.

use sqlshare_engine::{DataType, Engine, Schema, Table, Value};

/// `facts(k, v, w)`: 5,000 rows over 97 keys, `w` a float with a NULL
/// every 11th row; `dims(id, name)`: ids 0..120, so 23 dims match no fact.
fn tables(e: &mut Engine) {
    let facts = (0..5000)
        .map(|i| {
            vec![
                Value::Int(i % 97),
                Value::Int(i),
                if i % 11 == 0 {
                    Value::Null
                } else {
                    Value::Float((i % 13) as f64 * 0.1)
                },
            ]
        })
        .collect();
    e.create_table(Table::new(
        "facts",
        Schema::from_pairs([("k", DataType::Int), ("v", DataType::Int), ("w", DataType::Float)]),
        facts,
    ))
    .unwrap();
    let dims = (0..120)
        .map(|i| vec![Value::Int(i), Value::Text(format!("dim{}", i % 40))])
        .collect();
    e.create_table(Table::new(
        "dims",
        Schema::from_pairs([("id", DataType::Int), ("name", DataType::Text)]),
        dims,
    ))
    .unwrap();
}

fn engine(dop: usize, vectorized: bool) -> Engine {
    let mut e = Engine::new();
    e.set_max_dop(dop);
    e.set_parallelism_cost_threshold(0.0);
    e.set_vectorized(vectorized);
    e.disable_cache();
    tables(&mut e);
    e
}

#[test]
fn row_engine_reports_the_oracles_first_error_in_a_forced_parallel_plan() {
    // The filter divides by zero at v = 4500 (the fifth morsel); the
    // projection overflows from v = 2 on, a row the filter keeps. Serially
    // the filter runs over every row before the projection sees one.
    let sql = "SELECT v * 4611686018427387904 FROM facts WHERE 10 / (v - 4500) IS NOT NULL";
    let oracle = engine(1, false).run(sql).unwrap_err();
    assert_eq!(oracle.message(), "division by zero", "{oracle}");
    let row = engine(4, false);
    assert!(row.explain(sql).unwrap().max_parallelism() > 1, "expected a parallel plan");
    assert_eq!(row.run(sql).unwrap_err(), oracle);
}

#[test]
fn over_budget_join_spills_in_a_forced_parallel_plan() {
    let sql = "SELECT COUNT(*), SUM(f.v), MIN(d.pad) FROM facts AS f JOIN wide AS d ON f.k = d.id";
    let with_wide = |budget: Option<usize>| {
        let mut e = Engine::new();
        e.set_spill_dir(Some(std::env::temp_dir()));
        e.set_max_dop(4);
        e.set_parallelism_cost_threshold(0.0);
        e.disable_cache();
        if let Some(bytes) = budget {
            e.set_query_mem_limit(bytes);
        }
        tables(&mut e);
        e.create_table(Table::new(
            "wide",
            Schema::from_pairs([("id", DataType::Int), ("pad", DataType::Text)]),
            (0..4000)
                .map(|i| vec![Value::Int(i % 97), Value::Text(format!("pad-{i:0>120}"))])
                .collect(),
        ))
        .unwrap();
        e
    };
    let want = with_wide(None).run(sql).unwrap();
    let subject = with_wide(Some(256 << 10));
    let got = subject.run(sql).unwrap();
    assert!(got.plan.max_parallelism() > 1, "expected a parallel plan");
    assert_eq!(got.rows, want.rows);
    assert!(got.spill_bytes > 0, "completed without spilling under a 256 KiB budget");
    assert_eq!(subject.memory_pool().used(), 0);
}

/// An engine at DOP 1 over `tables` and `wide(id, pad)` (4,000 rows of
/// 124-byte text), spilling to the temp directory if `spill`, under
/// `budget`.
fn budgeted(vectorized: bool, spill: bool, budget: Option<usize>) -> Engine {
    let mut e = engine(1, vectorized);
    if spill {
        e.set_spill_dir(Some(std::env::temp_dir()));
    }
    if let Some(bytes) = budget {
        e.set_query_mem_limit(bytes);
    }
    e.create_table(Table::new(
        "wide",
        Schema::from_pairs([("id", DataType::Int), ("pad", DataType::Text)]),
        (0..4000)
            .map(|i| vec![Value::Int(i % 97), Value::Text(format!("pad-{:0>120}", i * 7919 % 4000))])
            .collect(),
    ))
    .unwrap();
    e
}

#[test]
fn over_budget_order_by_spills_in_the_batch_engine_at_dop1() {
    let sql = "SELECT TOP 5 id, pad FROM wide ORDER BY pad DESC, id";
    let oracle = budgeted(false, false, None).run(sql).unwrap();
    let subject = budgeted(true, true, Some(256 << 10));
    let got = subject.run(sql).unwrap();
    assert_eq!(got.plan.max_parallelism(), 1);
    assert_eq!(got.rows, oracle.rows);
    assert!(got.spill_bytes > 0, "completed without spilling under a 256 KiB budget");
    assert_eq!(subject.memory_pool().used(), 0);
}

#[test]
fn a_sort_key_that_errors_after_the_first_charge_reports_the_oracles_first_error() {
    // The key divides by zero at v = 1500, more than two charge chunks
    // into the clustered (k, v) order. Unbudgeted, that is the error; a
    // budget that refuses the second chunk's key charge fails first
    // without a spill directory, and with one the sort spills and meets
    // the division later.
    let sql = "SELECT TOP 3 v FROM facts ORDER BY 10 / (v - 1500)";
    for (spill, budget, want) in [
        (false, None, "division by zero"),
        (true, None, "division by zero"),
        (false, Some(80 << 10), "resource"),
        (true, Some(80 << 10), "division by zero"),
    ] {
        let oracle = budgeted(false, spill, budget).run(sql).unwrap_err();
        let subject = budgeted(true, spill, budget);
        let got = subject.run(sql).unwrap_err();
        assert_eq!(got, oracle, "spill {spill}, budget {budget:?}");
        let seen = if want == "resource" { got.kind() } else { got.message() };
        assert_eq!(seen, want, "spill {spill}, budget {budget:?}: {got}");
        assert_eq!(subject.memory_pool().used(), 0);
    }
}

/// The batch engine at DOP 1 against the row oracle: identical rows in
/// identical order, or the identical error.
fn assert_dop1_identical(sql: &str) -> Result<Vec<Vec<Value>>, sqlshare_common::Error> {
    let oracle = engine(1, false).run(sql).map(|o| o.rows);
    let batch = engine(1, true);
    assert_eq!(batch.explain(sql).unwrap().max_parallelism(), 1);
    assert_eq!(batch.run(sql).map(|o| o.rows), oracle, "{sql}");
    oracle
}

#[test]
fn right_and_full_joins_under_a_float_sum_match_the_oracle_at_dop1() {
    // 0.1-step floats make the sum depend on the order rows reach it;
    // the 23 unmatched dims join as NULL-padded rows the sum skips and
    // the count sees.
    for kind in ["RIGHT", "FULL"] {
        for sql in [
            format!("SELECT SUM(f.w), COUNT(*) FROM facts AS f {kind} JOIN dims AS d ON f.k = d.id"),
            format!(
                "SELECT d.name, SUM(f.w), COUNT(f.v) FROM facts AS f {kind} JOIN dims AS d \
                 ON f.k = d.id GROUP BY d.name"
            ),
        ] {
            let rows = assert_dop1_identical(&sql).unwrap();
            assert!(!rows.is_empty(), "{sql}");
        }
    }
}

#[test]
fn a_join_whose_inputs_both_fail_reports_the_probe_sides_error_at_dop1() {
    // The probe (left) input divides by zero, the build input overflows:
    // a serial join evaluates its probe side first.
    let sql = "SELECT p.x, q.y FROM (SELECT k, 10 / (v - 4500) AS x FROM facts) AS p \
               JOIN (SELECT id, id * 4611686018427387904 AS y FROM dims) AS q ON p.k = q.id";
    let err = assert_dop1_identical(sql).unwrap_err();
    assert_eq!(err.message(), "division by zero", "{err}");
}

#[test]
fn the_row_interpreter_names_nothing_of_the_batch_engine() {
    let source = include_str!("../src/exec.rs");
    for name in ["vexec", "parallel::", "hashtable"] {
        assert!(!source.contains(name), "exec.rs names `{name}`");
    }
}

#[test]
fn the_batch_engine_hands_batches_between_its_operators() {
    // Every batch operator takes and returns a batch: no intermediate
    // form, no row exit into the oracle's aggregate. The oracle's sort is
    // entered once, as the way into the external sort. (The tests below
    // `#[cfg(test)]` compare against the oracle's sort and aggregate.)
    for (file, source) in [
        ("vexec.rs", include_str!("../src/vexec.rs")),
        ("parallel.rs", include_str!("../src/parallel.rs")),
    ] {
        let words: Vec<&str> = source.split(|c: char| !c.is_alphanumeric() && c != '_').collect();
        for name in ["Out", "into_rows", "into_batch", "execute_batch"] {
            assert!(!words.contains(&name), "{file} names `{name}`");
        }
        let code = source.split("#[cfg(test)]").next().unwrap();
        assert!(!code.contains("exec::aggregate"), "{file} calls `exec::aggregate`");
    }
    let vexec = include_str!("../src/vexec.rs").split("#[cfg(test)]").next().unwrap();
    assert_eq!(vexec.matches("exec::sort_rows").count(), 1, "vexec.rs enters the row sort once, to spill");
}

#[test]
fn an_in_memory_table_is_stored_once_as_its_columns() {
    let table = include_str!("../src/table.rs");
    for name in ["Vec<Row>>", "OnceLock"] {
        assert!(!table.contains(name), "table.rs holds `{name}`");
    }
    // Outside their tests, the batch executors columnarize rows only at
    // the output of a row operator: nested loops, set operations and
    // windows (`exec_node`), the external sort (`sort`), the Grace join
    // (`execute`) and the empty probe side of a join's unmatched build
    // rows (`tail`). Tables and pinned views already are batches.
    for (file, source, sites) in [
        ("vexec.rs", include_str!("../src/vexec.rs"), &["exec_node", "sort"][..]),
        ("parallel.rs", include_str!("../src/parallel.rs"), &["execute", "tail"][..]),
    ] {
        let code = source.split("#[cfg(test)]").next().unwrap();
        for (at, _) in code.match_indices("Batch::from_rows") {
            let head = &code[..at];
            let decl = &head[head.rfind("fn ").unwrap() + 3..];
            let site = decl.split(|c: char| !c.is_alphanumeric() && c != '_').next().unwrap();
            assert!(sites.contains(&site), "{file}: `Batch::from_rows` in `{site}`");
        }
    }
}

#[test]
fn a_column_has_one_layout_its_type() {
    // The binder types every value, builders are made from that type:
    // there is no heterogeneous layout to fall back to or demote into.
    for (file, source) in [
        ("vector.rs", include_str!("../src/vector.rs")),
        ("hashtable.rs", include_str!("../src/hashtable.rs")),
    ] {
        for name in ["Mixed", "demote"] {
            assert!(!source.contains(name), "{file} names `{name}`");
        }
    }
}
