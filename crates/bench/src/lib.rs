//! Report generation: every table and figure of the paper's evaluation,
//! regenerated from synthetic corpora and printed as paper-vs-measured,
//! plus the timing sections no `benchmark/` workload covers.
//!
//! Used by the `sqlshare-report` binary and by the integration tests that
//! assert the reproduced *shapes* (who wins, by roughly what factor).

pub mod experiments;
pub mod reports;

use sqlshare_common::json::Json;
use sqlshare_wlgen::sqlshare::GeneratedCorpus;
use sqlshare_wlgen::GeneratorConfig;
use sqlshare_workload::extract::{extract_corpus, ExtractedQuery};

/// Both corpora plus their extracted query catalogs.
pub struct Workbench {
    pub sqlshare: GeneratedCorpus,
    pub sqlshare_queries: Vec<ExtractedQuery>,
    pub sdss: GeneratedCorpus,
    pub sdss_queries: Vec<ExtractedQuery>,
    pub config: GeneratorConfig,
}

impl Workbench {
    /// Generate both corpora and run Phase-1/2 extraction.
    pub fn build(config: GeneratorConfig) -> Workbench {
        let sqlshare = sqlshare_wlgen::sqlshare::generate(&config);
        let sqlshare_queries = extract_corpus(sqlshare.service.log().entries());
        let sdss = sqlshare_wlgen::sdss::generate(&config);
        let sdss_queries = extract_corpus(sdss.service.log().entries());
        Workbench {
            sqlshare,
            sqlshare_queries,
            sdss,
            sdss_queries,
            config,
        }
    }
}

/// The stamp every checked-in number carries: the cores it ran on, the
/// commit it was built from (`"unknown"` outside a git checkout) and the
/// knobs that sized it — seed and scale for the report, fixed sizes for
/// a timing section's JSON file.
pub fn stamp(knobs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|c| !c.is_empty())
        .unwrap_or_else(|| "unknown".to_string());
    Json::object([
        ("cores", Json::num(cores as f64)),
        ("commit", Json::str(commit)),
        ("knobs", Json::object(knobs)),
    ])
}
