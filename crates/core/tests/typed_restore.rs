//! A table a parent version stored with cells its schema does not
//! declare — a materialized snapshot whose `int` column holds `f:` and
//! `t:` cells — restores, from a snapshot and from a WAL `materialize`
//! record alike: each column lists as `unify` of its cells' types, every
//! cell is the cast value, and the state is stable across reopens. The
//! files are ones this version wrote — the snapshot's table in its
//! segment — rewritten and re-sealed here; the formats themselves are
//! unchanged.

use sqlshare_common::hash::fnv64;
use sqlshare_core::{DatasetName, DurableOptions, FsyncPolicy, Metadata, SqlShare};
use sqlshare_engine::{DataType, Value};
use sqlshare_ingest::IngestOptions;
use sqlshare_storage::Wal;
use std::path::{Path, PathBuf};

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sqlshare-typed-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn options(dir: &Path) -> DurableOptions {
    DurableOptions::new(dir)
        .fsync(FsyncPolicy::Off)
        .snapshot_every(10_000)
}

/// `ada.snap`: a materialized view of two BIGINT columns, `a` (900001..)
/// and `b` (800001..). Their cells appear in no other record or table.
fn write_state(dir: &Path) {
    let mut s = SqlShare::open(options(dir)).unwrap();
    s.register_user("ada", "ada@uw.edu").unwrap();
    s.upload("ada", "nums", "n\n1\n2\n3\n", &IngestOptions::default())
        .unwrap();
    s.save_dataset(
        "ada",
        "shifted",
        "SELECT n + 900000 AS a, n + 800000 AS b FROM nums",
        Metadata::default(),
    )
    .unwrap();
    s.materialize("ada", &DatasetName::new("ada", "shifted"), "snap")
        .unwrap();
}

/// What a parent version could have stored in `text` from byte `at` on:
/// `a`'s 900002 as a float, `b`'s 800003 as a text cell.
fn mistype(text: &str, at: usize) -> String {
    let float = format!("\"f:{:016x}\"", 2.5f64.to_bits());
    let rest =
        text[at..]
            .replacen("\"i:900002\"", &float, 1)
            .replacen("\"i:800003\"", "\"t:x\"", 1);
    format!("{}{rest}", &text[..at])
}

/// The restored snapshot table: its listed types and its rows, and the
/// service's durable digest.
fn restored(dir: &Path) -> (Vec<DataType>, Vec<Vec<Value>>, u64) {
    let s = SqlShare::open(options(dir)).expect("a mistyped table restores");
    let out = s
        .run_query("ada", "SELECT a, b FROM snap ORDER BY a")
        .unwrap();
    // Restored wider than written, the table still has a generation:
    // 0 means "absent" to every cache keyed on it.
    assert!(s.engine().catalog().generation_of("ada.snap$base") > 0);
    let ds = s.dataset(&DatasetName::new("ada", "snap")).unwrap();
    let listed = ds.preview.as_ref().unwrap().schema.types();
    assert_eq!(listed, out.schema.types(), "the listing is the table's");
    (out.schema.types(), out.rows, s.durable_digest())
}

fn assert_widened(dir: &Path) {
    let (types, rows, digest) = restored(dir);
    // Int with Float is Float; Int with Text is Text.
    assert_eq!(types, [DataType::Float, DataType::Text]);
    let t = |s: &str| Value::Text(s.into());
    assert_eq!(
        rows,
        vec![
            vec![Value::Float(2.5), t("800002")],
            vec![Value::Float(900001.0), t("800001")],
            vec![Value::Float(900003.0), t("x")],
        ]
    );
    // Reopening reads the same files to the same state, and a snapshot
    // of it (now typed) restores to it too.
    assert_eq!(restored(dir).2, digest);
    SqlShare::open(options(dir))
        .unwrap()
        .force_snapshot()
        .unwrap();
    assert_eq!(restored(dir), (types, rows, digest));
}

/// `path`'s payload (the text before its trailer).
fn unsealed(path: &Path) -> String {
    let text = std::fs::read_to_string(path).unwrap();
    text[..text.rfind("\n#fnv64=").expect("a sealed file")].to_string()
}

fn seal(path: &Path, payload: &str) {
    let sealed = format!("{payload}\n#fnv64={:016x}\n", fnv64(payload.as_bytes()));
    std::fs::write(path, sealed).unwrap();
}

#[test]
fn a_snapshot_table_holding_cells_of_other_types_restores_widened() {
    let dir = fresh_dir("snapshot");
    write_state(&dir);
    SqlShare::open(options(&dir))
        .unwrap()
        .force_snapshot()
        .unwrap();
    let named = |prefix: &str| -> Vec<PathBuf> {
        std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.file_name().unwrap().to_str().unwrap().starts_with(prefix))
            .collect()
    };
    let (manifests, segments) = (named("snapshot-"), named("segment-"));
    let ([manifest], [segment]) = (&manifests[..], &segments[..]) else {
        panic!("one manifest and one segment: {manifests:?} {segments:?}")
    };
    // The table is the segment's last; rewrite its cells there.
    let payload = unsealed(segment);
    let table = payload
        .find("{\"name\":\"ada.snap$base\"")
        .expect("the snapshot table, in the segment");
    let rewritten = mistype(&payload, table);
    assert_eq!(
        rewritten.matches("\"t:x\"").count(),
        1,
        "the table's cells, rewritten"
    );
    seal(segment, &rewritten);
    // Its manifest entry names its bytes: as many more as were written.
    let entry = unsealed(manifest);
    let len = payload.len() - "]}".len() - table;
    let reference = format!("\"at\":{table},\"len\":{len}}}");
    assert_eq!(entry.matches(&reference).count(), 1, "{entry}");
    let grown = len + rewritten.len() - payload.len();
    seal(
        manifest,
        &entry.replace(&reference, &format!("\"at\":{table},\"len\":{grown}}}")),
    );
    assert_widened(&dir);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_wal_materialize_record_holding_cells_of_other_types_replays_widened() {
    let dir = fresh_dir("wal");
    write_state(&dir);
    let path = dir.join("wal.log");
    let records = Wal::scan(&path).unwrap().records;
    std::fs::remove_file(&path).unwrap();
    let mut wal = Wal::open(&path, FsyncPolicy::Off).unwrap();
    let mut rewritten = 0;
    for record in records {
        let text = std::str::from_utf8(&record).unwrap();
        let record = mistype(text, 0);
        rewritten += usize::from(record != text);
        wal.append(record.as_bytes()).unwrap();
    }
    drop(wal);
    assert_eq!(rewritten, 1, "the materialize record, rewritten");
    assert_widened(&dir);
    let _ = std::fs::remove_dir_all(&dir);
}
