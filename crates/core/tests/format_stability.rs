//! On-disk format stability: a snapshot and a WAL written by the commit
//! before the streaming encoder (PR 15, `5b8eaa3`) must restore to that
//! commit's durable digest, and encoding the restored state again must
//! give that commit's bytes.
//!
//! `fixtures/parent_format/` holds what the parent wrote for a small
//! service (`gen_fixture.rs.txt` is the program; it ran there as an
//! example of `sqlshare-core`): 3 users; uploads whose text carries
//! quotes, backslashes, control characters and non-BMP characters;
//! floats with both NaN signs, ±inf, −0.0 and a subnormal; `i64::MIN`;
//! a `Shared` visibility; a materialized snapshot; then a WAL tail with
//! one record of every kind. `digest.txt` is the parent's
//! `durable_digest()` of the final state and `resnapshot-27.json` the
//! snapshot the parent wrote after restarting on the other two files.

use sqlshare_core::{DurableOptions, FsyncPolicy, IoCounter, ScrubConfig, Scrubber, SqlShare};
use std::path::{Path, PathBuf};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/parent_format")
        .join(name)
}

/// A fresh data directory holding copies of the named fixture files.
fn data_dir(tag: &str, files: &[&str]) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sqlshare-format-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for f in files {
        std::fs::copy(fixture(f), dir.join(f)).unwrap();
    }
    dir
}

fn options(dir: &Path) -> DurableOptions {
    DurableOptions::new(dir).fsync(FsyncPolicy::Off).snapshot_every(10_000)
}

fn open(dir: &Path) -> SqlShare {
    SqlShare::open(options(dir)).expect("the parent's files open")
}

#[test]
fn parent_snapshot_and_wal_restore_to_the_parent_digest_and_bytes() {
    let dir = data_dir("full", &["snapshot-13.json", "wal.log", "wal.gen"]);
    let mut service = open(&dir);
    let report = service.recovery_report().unwrap();
    assert_eq!((report.snapshot_lsn, report.replayed_records, report.failed_records), (13, 14, 0));
    let want: u64 = std::fs::read_to_string(fixture("digest.txt")).unwrap().trim().parse().unwrap();
    assert_eq!(service.durable_digest(), want);

    // Uploads in the WAL tail were re-ingested by the new parser and
    // their previews taken from the table head; the parent's snapshot of
    // the same state holds both, so equal bytes covers them too.
    service.force_snapshot().unwrap();
    assert_eq!(
        std::fs::read(dir.join("snapshot-27.json")).unwrap(),
        std::fs::read(fixture("resnapshot-27.json")).unwrap(),
        "re-snapshot differs from the parent's"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_restored_snapshot_encodes_back_to_its_own_bytes() {
    let dir = data_dir("snap", &["snapshot-13.json"]);
    let before = std::fs::read(dir.join("snapshot-13.json")).unwrap();
    let mut service = open(&dir);
    assert_eq!(service.recovery_report().unwrap().snapshot_lsn, 13);
    std::fs::remove_file(dir.join("snapshot-13.json")).unwrap();
    service.force_snapshot().unwrap();
    assert_eq!(std::fs::read(dir.join("snapshot-13.json")).unwrap(), before);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The fixture snapshot with its `#fnv64=` trailer cut off is still
/// valid JSON. It is not a snapshot any more: recovery skips it, and as
/// the WAL beside it starts at lsn 14, refuses to start rather than
/// replay onto nothing; the scrubber reports the file.
#[test]
fn a_snapshot_with_its_trailer_cut_off_is_refused_and_reported() {
    let dir = data_dir("cut", &["snapshot-13.json", "wal.log", "wal.gen"]);
    let path = dir.join("snapshot-13.json");
    let sealed = std::fs::read(&path).unwrap();
    let trailer = sealed.iter().rposition(|&b| b == b'#').unwrap() - 1;
    std::fs::write(&path, &sealed[..trailer]).unwrap();
    assert!(sqlshare_common::json::parse(std::str::from_utf8(&sealed[..trailer]).unwrap()).is_ok());

    let err = SqlShare::open(options(&dir)).unwrap_err();
    assert_eq!(err.kind(), "corrupt", "{err}");

    let scrubber = Scrubber::new(ScrubConfig::default(), IoCounter::new());
    scrubber.add_root(&dir);
    let findings = scrubber.full_pass();
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].path, path);

    // Alone, with no WAL that needs it, the skipped candidate still
    // stops the start: its name says the lineage reached lsn 13.
    std::fs::remove_file(dir.join("wal.log")).unwrap();
    let err = SqlShare::open(options(&dir)).unwrap_err();
    assert!(err.to_string().contains("snapshot-13.json is corrupt"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}
