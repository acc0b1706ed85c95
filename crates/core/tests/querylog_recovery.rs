//! Recovering the persisted query log: a torn tail is repaired, damage
//! with logged queries behind it is refused and left on disk.

use sqlshare_core::{DurableOptions, FsyncPolicy, SqlShare};
use sqlshare_ingest::IngestOptions;
use std::path::PathBuf;

/// A durable service that ran three queries, closed; its data directory
/// and the path of its query log.
fn logged_three(tag: &str) -> (PathBuf, DurableOptions, PathBuf) {
    let dir = std::env::temp_dir().join(format!("sqlshare-querylog-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let options = DurableOptions::new(&dir).fsync(FsyncPolicy::Off);
    let mut s = SqlShare::open(options.clone()).unwrap();
    s.register_user("ada", "a@uw.edu").unwrap();
    s.upload("ada", "nums", "n\n1\n2\n3\n", &IngestOptions::default()).unwrap();
    for sql in ["SELECT COUNT(*) FROM nums", "SELECT SUM(n) FROM nums", "SELECT MAX(n) FROM nums"] {
        s.run_query("ada", sql).unwrap();
    }
    let log = s.querylog_path().expect("a durable service logs queries");
    drop(s);
    (dir, options, log)
}

#[test]
fn a_damaged_first_line_is_refused_and_left_on_disk() {
    let (dir, options, log) = logged_three("first-line");
    let mut bytes = std::fs::read(&log).unwrap();
    assert_eq!(bytes.iter().filter(|&&b| b == b'\n').count(), 3);
    assert_eq!(bytes[0], b'{');
    bytes[0] = b'[';
    std::fs::write(&log, &bytes).unwrap();

    let err = SqlShare::open(options).expect_err("a damaged log must not open");
    assert_eq!(err.kind(), "corrupt", "{err}");
    assert!(err.message().contains("line 1"), "{err}");
    assert!(err.message().contains("querylog"), "{err}");
    assert_eq!(std::fs::read(&log).unwrap(), bytes, "the log was modified");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_entry_that_does_not_decode_is_refused() {
    let (dir, options, log) = logged_three("undecodable");
    let text = std::fs::read_to_string(&log).unwrap();
    let damaged = format!("{{\"not\":\"an entry\"}}\n{text}");
    std::fs::write(&log, &damaged).unwrap();

    let err = SqlShare::open(options).expect_err("an undecodable entry must not open");
    assert_eq!(err.kind(), "corrupt", "{err}");
    assert!(err.message().contains("line 1"), "{err}");
    assert_eq!(std::fs::read_to_string(&log).unwrap(), damaged);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_torn_final_line_is_still_repaired() {
    let (dir, options, log) = logged_three("torn");
    let clean = std::fs::read(&log).unwrap();
    let mut torn = clean.clone();
    torn.extend_from_slice(b"{\"id\":4,\"us");
    std::fs::write(&log, &torn).unwrap();

    let s = SqlShare::open(options).unwrap();
    let report = s.recovery_report().unwrap();
    assert_eq!(report.querylog_entries, 3);
    assert_eq!(report.querylog_truncated_bytes, 11);
    assert_eq!(std::fs::read(&log).unwrap(), clean);
    drop(s);
    let _ = std::fs::remove_dir_all(&dir);
}
