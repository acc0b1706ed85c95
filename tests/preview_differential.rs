//! Head-only previews against the run-everything oracle.
//!
//! A dataset's preview is computed by `Engine::run_head`, which plans
//! the dataset's query under a `TOP PREVIEW_ROWS + 1` and lets the
//! planner push that bound into the scans. The oracle is what previews
//! used to be: run the whole query, keep the first `PREVIEW_ROWS` rows.
//! Over every dataset of both generated corpora the two must agree —
//! same rows in the same order, same `truncated`, same schema, same
//! dependency versions — on the vectorized engine at DOP 1, with every
//! eligible plan forced parallel at DOP 4, and on the row engine
//! (`set_vectorized(false)`). The development corpora hold many tables
//! shorter than a preview, on which a bound of 101 rows cuts nothing, so
//! the same comparison is also made at bounds of 1 and 4 rows.

use sqlshare_core::dataset::PREVIEW_ROWS;
use sqlshare_engine::physical::PhysOp;
use sqlshare_engine::Engine;
use sqlshare_wlgen::sqlshare::GeneratedCorpus;
use sqlshare_wlgen::{sdss, sqlshare as wl, GeneratorConfig};

fn configure(base: &Engine, dop: usize, vectorized: bool) -> Engine {
    let mut e = base.clone();
    e.set_max_dop(dop);
    e.set_vectorized(vectorized);
    if dop > 1 {
        e.set_parallelism_cost_threshold(0.0);
    }
    // Cold on every call: the oracle's full run must not be answered
    // from a result another configuration stored.
    e.disable_cache();
    e
}

fn run_corpus(corpus_name: &str, corpus: GeneratedCorpus) {
    let service = &corpus.service;
    let mut compared = 0;
    let mut bounded = 0;
    for (what, dop, vectorized) in [
        ("vectorized, DOP 1", 1, true),
        ("vectorized, DOP 4", 4, true),
        ("row engine, DOP 1", 1, false),
    ] {
        let engine = configure(service.engine(), dop, vectorized);
        for ds in service.datasets() {
            let full = engine.run(&ds.sql);
            for limit in [1, 4, PREVIEW_ROWS + 1] {
                let what = format!("{corpus_name}: {what}: first {limit} of {}", ds.name);
                match (engine.run_head(&ds.sql, limit as u64), &full) {
                    (Ok(head), Ok(full)) => {
                        // What the service keeps: all but the last row
                        // of the head, which only says "there is more".
                        let kept = limit - 1;
                        assert!(head.rows.len() <= limit, "{what}: head overran its bound");
                        assert_eq!(
                            head.rows[..head.rows.len().min(kept)],
                            full.rows[..full.rows.len().min(kept)],
                            "{what}: rows diverged for {}",
                            ds.sql
                        );
                        assert_eq!(
                            head.rows.len() > kept,
                            full.rows.len() > kept,
                            "{what}: truncated diverged for {}",
                            ds.sql
                        );
                        assert_eq!(head.schema, full.schema, "{what}: schema diverged");
                        assert_eq!(head.deps, full.deps, "{what}: deps diverged");
                        compared += 1;
                        head.plan.visit(&mut |n| {
                            if let PhysOp::Scan { head: Some(_), .. } = &n.op {
                                bounded += 1;
                            }
                        });
                    }
                    (Err(head), Err(full)) => assert_eq!(
                        head.kind(),
                        full.kind(),
                        "{what}: error kind diverged for {}",
                        ds.sql
                    ),
                    (Ok(_), Err(full)) => {
                        panic!("{what}: the full run failed where the head did not, {}: {full}", ds.sql)
                    }
                    (Err(head), Ok(_)) => {
                        panic!("{what}: the head failed where the full run did not, {}: {head}", ds.sql)
                    }
                }
            }
        }
    }
    assert!(compared > 0, "{corpus_name}: no dataset was compared");
    assert!(bounded > 0, "{corpus_name}: no preview plan had a bounded scan");

    // And the previews the service itself cached while the corpus was
    // generated are the ones its own engine gives now.
    let engine = {
        let mut e = service.engine().clone();
        e.disable_cache();
        e
    };
    for ds in service.datasets() {
        let Some(preview) = &ds.preview else { continue };
        if preview.deps.iter().any(|(k, g)| engine.catalog().generation_of(k) != *g) {
            continue;
        }
        let full = engine.run(&ds.sql).expect("a dataset with a preview runs");
        assert_eq!(preview.rows[..], full.rows[..full.rows.len().min(PREVIEW_ROWS)], "{}", ds.name);
        assert_eq!(preview.truncated, full.rows.len() > PREVIEW_ROWS, "{}", ds.name);
        assert_eq!(preview.deps, full.deps, "{}", ds.name);
    }
}

#[test]
fn sqlshare_corpus_head_only_previews_match_the_full_run() {
    run_corpus("sqlshare", wl::generate(&GeneratorConfig::dev()));
}

#[test]
fn sdss_corpus_head_only_previews_match_the_full_run() {
    run_corpus("sdss", sdss::generate(&GeneratorConfig::dev()));
}
