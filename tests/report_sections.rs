//! The report registry is what runs: every registered section renders on
//! a small corpus, `list` prints exactly the registry, and every
//! `BENCH_*.json` checked in at the root is one a registered section
//! writes, stamped.

use sqlshare_bench::{reports, Workbench};
use sqlshare_common::json::{self, Json};
use sqlshare_wlgen::GeneratorConfig;
use std::path::{Path, PathBuf};
use std::time::Instant;

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The file parses, names a registered section as its `experiment`, and
/// carries the stamp: core count, commit, and the knobs that sized it.
fn assert_stamped(path: &Path) {
    let text = std::fs::read_to_string(path).unwrap();
    let doc: Json = json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let experiment = doc.get("experiment").and_then(Json::as_str);
    assert!(
        reports::REPORTS
            .iter()
            .any(|(id, _)| Some(*id) == experiment),
        "{}: experiment {experiment:?} is not a registered report id",
        path.display()
    );
    let stamp = doc
        .get("stamp")
        .unwrap_or_else(|| panic!("{}: no stamp", path.display()));
    assert!(stamp
        .get("cores")
        .and_then(Json::as_f64)
        .is_some_and(|n| n >= 1.0));
    assert!(stamp
        .get("commit")
        .and_then(Json::as_str)
        .is_some_and(|c| !c.is_empty()));
    assert!(stamp.get("knobs").and_then(Json::as_object).is_some());
}

#[test]
fn every_registered_section_renders() {
    let wb = Workbench::build(GeneratorConfig {
        seed: GeneratorConfig::paper().seed,
        scale: 0.01,
    });
    for (id, _) in reports::REPORTS {
        let started = Instant::now();
        let section = reports::run(id, &wb).unwrap();
        eprintln!("{id}: {:.2}s", started.elapsed().as_secs_f64());
        assert!(!section.trim().is_empty(), "section {id} is empty");
    }
}

#[test]
fn list_prints_exactly_the_registry() {
    let listed: Vec<String> = reports::list()
        .lines()
        .skip(1)
        .map(|l| l.trim().to_string())
        .collect();
    let registered: Vec<&str> = reports::REPORTS.iter().map(|(id, _)| *id).collect();
    assert_eq!(listed, registered);
}

/// No section writes a `BENCH_*.json` today; one checked in without a
/// section to regenerate it fails here.
#[test]
fn every_checked_in_bench_file_is_regenerable_and_stamped() {
    for entry in std::fs::read_dir(root()).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if name.starts_with("BENCH_") && name.ends_with(".json") {
            assert_stamped(&path);
        }
    }
}
