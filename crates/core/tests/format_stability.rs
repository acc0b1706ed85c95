//! On-disk format stability: a full-state snapshot and a WAL written by
//! the commit before the streaming encoder (`5b8eaa3`) must
//! restore to that commit's durable state, and the snapshot this version
//! writes of it — a manifest and a segment — must hold each table as
//! that commit encoded it, byte for byte.
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
//!
//! One difference is deliberate: the parent's catalog kept the
//! generation of every relation ever dropped, and this version forgets
//! it. The WAL tail deletes `cy-3.nohdr`, so the state restored here is
//! the parent's final state without those two generation entries.

use sqlshare_common::hash::fnv64_str;
use sqlshare_common::json::{self, Json};
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

/// The payload of a sealed snapshot file: everything before its trailer.
fn payload(path: &Path) -> String {
    let text = std::fs::read_to_string(path).unwrap();
    let end = text.rfind("\n#fnv64=").expect("a sealed file");
    text[..end].to_string()
}

/// The `state` object of a sealed snapshot file.
fn state_of(path: &Path) -> Json {
    json::parse(&payload(path))
        .unwrap()
        .get("state")
        .unwrap()
        .clone()
}

/// `state` with some entries of its object at `key` filtered out.
fn without(state: &Json, key: &str, keep: impl Fn(&str, &Json) -> bool) -> Json {
    let Json::Object(obj) = state else {
        panic!("not an object")
    };
    Json::Object(
        obj.iter()
            .filter(|(k, v)| *k != key || keep(k, v))
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect(),
    )
}

/// A parent state as `durable_digest` hashes it: no previews.
fn digest_input(state: &Json) -> Json {
    let datasets: Vec<Json> = state
        .get("datasets")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|d| without(d, "preview", |_, _| false))
        .collect();
    let Json::Object(obj) = state else {
        panic!("not an object")
    };
    let mut obj = obj.clone();
    obj.insert("datasets", Json::Array(datasets));
    Json::Object(obj)
}

/// `state` keeping only the generations of relations it holds.
fn live_generations(state: &Json) -> Json {
    let names = |key: &str| -> Vec<String> {
        state
            .get(key)
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|t| t.get("name").and_then(Json::as_str).unwrap().to_lowercase())
            .collect()
    };
    let live: Vec<String> = names("tables").into_iter().chain(names("views")).collect();
    let gens = state.get("generations").unwrap();
    let objects: Vec<Json> = gens
        .get("objects")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .filter(|pair| {
            live.iter()
                .any(|k| Some(k.as_str()) == pair.as_array().unwrap()[0].as_str())
        })
        .cloned()
        .collect();
    let Json::Object(obj) = state else {
        panic!("not an object")
    };
    let mut obj = obj.clone();
    let mut g = match gens {
        Json::Object(g) => g.clone(),
        _ => panic!(),
    };
    g.insert("objects", Json::Array(objects));
    obj.insert("generations", Json::Object(g));
    Json::Object(obj)
}

/// Each table entry of the manifest at `lsn` in `dir`, with the bytes of
/// the table object in the segment it names.
fn segment_tables(dir: &Path, lsn: u64) -> Vec<(String, String)> {
    let manifest = state_of(&dir.join(format!("snapshot-{lsn}.json")));
    let num = |t: &Json, k: &str| {
        t.get(k)
            .and_then(Json::as_f64)
            .expect("a segment reference") as usize
    };
    manifest
        .get("tables")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|t| {
            let name = t.get("name").and_then(Json::as_str).unwrap().to_string();
            assert!(t.get("rows").is_none(), "{name}: rows in the manifest");
            let segment = payload(&dir.join(format!("segment-{}.json", num(t, "segment"))));
            let at = num(t, "at");
            (name, segment[at..at + num(t, "len")].to_string())
        })
        .collect()
}

/// Every table of `state` (a full-state snapshot's) is the object a
/// manifest entry names in its segment, byte for byte, and no other
/// table is there.
fn assert_tables_byte_identical(dir: &Path, lsn: u64, state: &Json, raw: &str) {
    let tables = segment_tables(dir, lsn);
    let parent = state.get("tables").and_then(Json::as_array).unwrap();
    assert_eq!(tables.len(), parent.len());
    for ((name, bytes), want) in tables.iter().zip(parent) {
        assert_eq!(Some(name.as_str()), want.get("name").and_then(Json::as_str));
        assert_eq!(*bytes, want.to_string(), "{name} re-encoded differently");
        assert!(
            raw.contains(bytes.as_str()),
            "{name}: not the parent's bytes"
        );
    }
}

#[test]
fn parent_snapshot_and_wal_restore_to_the_parent_digest_and_bytes() {
    let dir = data_dir("full", &["snapshot-13.json", "wal.log", "wal.gen"]);
    let mut service = open(&dir);
    let report = service.recovery_report().unwrap();
    assert_eq!((report.snapshot_lsn, report.replayed_records, report.failed_records), (13, 14, 0));
    // The parent's final state is in its re-snapshot; hashed as the
    // parent hashed it, it is `digest.txt`.
    let want: u64 = std::fs::read_to_string(fixture("digest.txt"))
        .unwrap()
        .trim()
        .parse()
        .unwrap();
    let parent = state_of(&fixture("resnapshot-27.json"));
    assert_eq!(fnv64_str(&digest_input(&parent).to_string()), want);
    let restored = fnv64_str(&live_generations(&digest_input(&parent)).to_string());
    assert_eq!(service.durable_digest(), restored);

    // Uploads in the WAL tail were re-ingested by the new parser; the
    // re-snapshot writes every table into one segment, each as the
    // parent encoded it.
    service.force_snapshot().unwrap();
    let raw = payload(&fixture("resnapshot-27.json"));
    assert_tables_byte_identical(&dir, 27, &parent, &raw);
    drop(service);

    // The new layout reopens to the same state.
    let reopened = open(&dir);
    let report = reopened.recovery_report().unwrap();
    assert_eq!((report.snapshot_lsn, report.replayed_records), (27, 0));
    assert_eq!(reopened.durable_digest(), restored);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_restored_snapshot_encodes_back_to_its_own_bytes() {
    let dir = data_dir("snap", &["snapshot-13.json"]);
    let original = state_of(&dir.join("snapshot-13.json"));
    let raw = payload(&dir.join("snapshot-13.json"));
    let mut service = open(&dir);
    assert_eq!(service.recovery_report().unwrap().snapshot_lsn, 13);
    std::fs::remove_file(dir.join("snapshot-13.json")).unwrap();
    service.force_snapshot().unwrap();
    // The tables, byte for byte, in the segment; the rest of the state,
    // previews aside, in the manifest.
    assert_tables_byte_identical(&dir, 13, &original, &raw);
    let manifest = state_of(&dir.join("snapshot-13.json"));
    let rest = |state: &Json| without(state, "tables", |_, _| false);
    assert_eq!(rest(&manifest), rest(&digest_input(&original)));
    let digest = service.durable_digest();
    drop(service);
    assert_eq!(open(&dir).durable_digest(), digest);
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
