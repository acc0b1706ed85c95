//! Source scans that keep the configuration rule true (DESIGN.md §4.10):
//! binaries parse the environment, libraries take values, tests
//! construct. A new `std::env` read in a library, a test that edits the
//! process environment, or a README table that has drifted from
//! `config::VARS` fails here, not in review.

use sqlshare_server::config::VARS;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// Variables a test file or an example reads for itself, never a
/// library: seeds, gates, sizes. (`SQLSHARE_FSYNC` is both: the
/// crash-loop suites read it to pick their fsync policy.)
const TEST_PARAMETERS: [&str; 6] = [
    "SQLSHARE_FAULTS",
    "SQLSHARE_RECOVERY_SEED",
    "SQLSHARE_REPL_SEED",
    "SQLSHARE_ROT_SEED",
    "SQLSHARE_THROUGHPUT_SMOKE",
    "SQLSHARE_FAILOVER_OPS",
];

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Every `.rs` file under `dir`, as `(path from the root, text)`, sorted.
fn sources(dir: &str) -> Vec<(String, String)> {
    fn walk(dir: &Path, out: &mut Vec<(String, String)>) {
        for entry in std::fs::read_dir(dir).unwrap().flatten() {
            let path = entry.path();
            if path.is_dir() && !path.ends_with("target") {
                walk(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let name = path.strip_prefix(root()).unwrap().to_string_lossy().into_owned();
                out.push((name, std::fs::read_to_string(&path).unwrap()));
            }
        }
    }
    let mut out = Vec::new();
    walk(&root().join(dir), &mut out);
    out.sort();
    out
}

/// The `SQLSHARE_*` names `text` passes to `env::var` as literals.
fn names_read(text: &str) -> BTreeSet<&str> {
    text.split("env::var(\"")
        .skip(1)
        .filter_map(|rest| rest.split('"').next())
        .filter(|name| name.starts_with("SQLSHARE_"))
        .collect()
}

#[test]
fn one_library_file_reads_the_environment_and_nothing_edits_it() {
    let mut readers = Vec::new();
    for dir in ["crates", "examples", "tests"] {
        for (path, text) in sources(dir) {
            for edit in [concat!("set", "_var"), concat!("remove", "_var")] {
                assert!(!text.contains(edit), "{path} calls {edit}: pass the value instead");
            }
            // `env::var` also matches `var_os`, `vars` and `vars_os`.
            let library = path.contains("/src/") || dir == "examples";
            if library && text.contains("env::var") {
                let literal: Vec<&str> = names_read(&text).into_iter().collect();
                readers.push((path, text.matches("env::var").count(), literal.join(",")));
            }
        }
    }
    // The config module reads names out of its table; the failover
    // example reads its own op count, once.
    let want = [
        ("crates/server/src/config.rs".to_string(), 2, String::new()),
        ("examples/failover_bench.rs".to_string(), 1, "SQLSHARE_FAILOVER_OPS".to_string()),
    ];
    assert_eq!(readers, want, "configuration enters through `server::config` alone");
}

#[test]
fn the_readme_table_is_the_config_table_plus_the_test_parameters() {
    // What tests and examples read for themselves is exactly the list
    // above, plus the fsync policy of the crash-loop suites.
    let files: Vec<_> = sources("tests").into_iter().chain(sources("examples")).collect();
    let read: BTreeSet<&str> = files.iter().flat_map(|(_, text)| names_read(text)).collect();
    let want: BTreeSet<&str> = TEST_PARAMETERS.into_iter().chain(["SQLSHARE_FSYNC"]).collect();
    assert_eq!(read, want);

    let readme = std::fs::read_to_string(root().join("README.md")).unwrap();
    let rows: Vec<&str> = readme.lines().filter(|l| l.starts_with("| `SQLSHARE_")).collect();
    let mut want: Vec<String> = VARS
        .iter()
        .map(|v| format!("| `{}` | {} | {} | {} |", v.name, v.kind, v.default, v.doc))
        .collect();
    let got: Vec<String> = rows
        .iter()
        .enumerate()
        .map(|(i, row)| match i < VARS.len() {
            true => row.to_string(),
            false => row.split('`').nth(1).unwrap().to_string(),
        })
        .collect();
    want.extend(TEST_PARAMETERS.map(String::from));
    assert_eq!(got, want, "README rows: config::VARS verbatim, then the test parameters");
}
