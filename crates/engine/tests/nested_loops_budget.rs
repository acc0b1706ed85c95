//! Nested Loops charges the rows it builds to the query's memory budget.
//!
//! A join with no equi-key is planned as Nested Loops, whose output can
//! be the product of its inputs. Both interpreters build that output
//! (the batch engine through the row operator), so under a budget the
//! query must end in a typed `ResourceExhausted` rather than grow past
//! it, at DOP 1 and in a forced parallel plan alike.

use sqlshare_common::Error;
use sqlshare_engine::{DataType, Engine, Schema, Table, Value};

/// 160,000 row pairs, every one of them passing the join predicate.
const SQL: &str = "SELECT COUNT(*) FROM t AS a, t AS b WHERE a.v + b.v > 0";

fn engine(vectorized: bool, dop: usize, budget: Option<usize>) -> Engine {
    let mut e = Engine::new();
    e.set_vectorized(vectorized);
    e.set_max_dop(dop);
    if dop > 1 {
        e.set_parallelism_cost_threshold(0.0);
    }
    e.disable_cache();
    if let Some(bytes) = budget {
        e.set_query_mem_limit(bytes);
    }
    e.create_table(Table::new(
        "t",
        Schema::from_pairs([("v", DataType::Int)]),
        (1..=400).map(|i| vec![Value::Int(i)]).collect(),
    ))
    .unwrap();
    e
}

#[test]
fn a_cross_join_over_budget_fails_typed_in_both_interpreters() {
    let oracle = engine(false, 1, None).run(SQL).unwrap();
    assert_eq!(oracle.rows, vec![vec![Value::Int(160_000)]]);
    assert!(
        oracle.plan.operator_names().contains(&"Nested Loops"),
        "{:?}",
        oracle.plan.operator_names()
    );
    for vectorized in [false, true] {
        for dop in [1, 4] {
            let what = format!("vectorized {vectorized}, DOP {dop}");
            let unbudgeted = engine(vectorized, dop, None).run(SQL).unwrap();
            assert_eq!(unbudgeted.rows, oracle.rows, "{what}");

            let budgeted = engine(vectorized, dop, Some(1 << 20));
            let err = budgeted.run(SQL).unwrap_err();
            assert!(matches!(err, Error::ResourceExhausted(_)), "{what}: {err}");
            assert_eq!(
                budgeted.memory_pool().used(),
                0,
                "{what}: the budget was not returned"
            );
        }
    }
}
