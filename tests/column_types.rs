//! The binder's contract, as a census: every non-NULL value a query
//! returns has its schema column's declared type.
//!
//! The engine checks this where rows leave either interpreter (a value
//! of another type is an `internal` error on its query), and a batch
//! column builder refuses a value of another type. This suite holds the
//! whole corpus to it, so a new expression shape whose `result_type`
//! disagrees with its evaluation shows up here by name:
//!
//! - every query of both workload corpora, replayed the way
//!   `vectorized_differential.rs` replays them, on the row engine at
//!   DOP 1 and the batch engine at DOP 1 and forced DOP 4, each output
//!   cell checked against the output schema;
//! - the hand-written `sql_exec` and `engine_conformance` cases, in the
//!   same three modes (`row`, `dop1`, `dop4_forced`), where the engine's
//!   own check turns a mistyped value into a failed `unwrap`.

#[macro_use]
#[allow(unused_macros)]
#[path = "support/modes.rs"]
mod modes;

use sqlshare_engine::{Engine, QueryOutput};
use sqlshare_wlgen::{sdss, sqlshare as wl, GeneratorConfig};
use std::collections::BTreeSet;

/// Why `out` breaks the contract, if it does: the first non-NULL cell
/// whose type is not its column's.
fn mistyped(out: &QueryOutput) -> Option<String> {
    out.rows.iter().enumerate().find_map(|(r, row)| {
        row.iter().zip(&out.schema.columns).find_map(|(v, c)| {
            let ty = v.data_type()?;
            (ty != c.ty)
                .then(|| format!("row {r}: column '{}' is {} but holds {v:?}", c.name, c.ty))
        })
    })
}

/// Replay every logged query of `corpus` on the three engines; the
/// distinct query texts some engine answered with a mistyped value (or
/// refused with the engine's own internal error), each with its first
/// violation.
fn census(corpus: wl::GeneratedCorpus) -> Vec<(String, String)> {
    let configure = |dop: usize, vectorized: bool| -> Engine {
        let mut e = corpus.service.engine().clone();
        e.set_max_dop(dop);
        e.set_vectorized(vectorized);
        if dop > 1 {
            e.set_parallelism_cost_threshold(0.0);
        }
        e.disable_cache();
        e
    };
    let engines = [
        ("row engine, DOP 1", configure(1, false)),
        ("batch engine, DOP 1", configure(1, true)),
        ("batch engine, DOP 4", configure(4, true)),
    ];
    let mut seen = BTreeSet::new();
    let mut violations = Vec::new();
    let entries: Vec<(String, String)> = corpus
        .service
        .log()
        .entries()
        .iter()
        .map(|e| (e.user.clone(), e.sql.clone()))
        .collect();
    for (user, sql) in &entries {
        let Ok(sql) = corpus.service.canonicalize(user, sql) else {
            continue;
        };
        if !seen.insert(sql.clone()) {
            continue;
        }
        let why = engines.iter().find_map(|(what, engine)| {
            let why = match engine.run(&sql) {
                Ok(out) => mistyped(&out)?,
                Err(e) if e.kind() == "internal" => e.to_string(),
                Err(_) => return None,
            };
            Some(format!("{what}: {why}"))
        });
        violations.extend(why.map(|why| (sql, why)));
    }
    assert!(
        !seen.is_empty(),
        "the generator produced an empty query log"
    );
    violations
}

fn assert_typed(corpus_name: &str, violations: &[(String, String)]) {
    let listed: Vec<String> = violations
        .iter()
        .take(10)
        .map(|(sql, why)| format!("  {sql}\n    {why}"))
        .collect();
    assert!(
        violations.is_empty(),
        "{corpus_name}: {} distinct query texts return values of another type than their \
         column's, e.g.\n{}",
        violations.len(),
        listed.join("\n")
    );
}

#[test]
fn sqlshare_corpus_values_have_their_columns_types() {
    assert_typed("sqlshare", &census(wl::generate(&GeneratorConfig::dev())));
}

#[test]
fn sdss_corpus_values_have_their_columns_types() {
    assert_typed("sdss", &census(sdss::generate(&GeneratorConfig::dev())));
}

mod sql_exec {
    in_modes!("../crates/engine/tests/sql_exec/cases.rs": row dop1 dop4_forced);
}

mod engine_conformance {
    in_modes!("engine_conformance/cases.rs": row dop1 dop4_forced);
}
