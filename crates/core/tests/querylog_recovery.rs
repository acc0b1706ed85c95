//! Recovering the persisted query log, a record log in the WAL's frame
//! format (`[u32 len][u64 fnv64][entry JSON]`): a torn tail is repaired,
//! damage with logged queries behind it is refused and left on disk, and
//! no damaged entry is ever loaded. A log written as JSON lines by
//! earlier releases is migrated once at open. The log's order is id
//! order and ids are never reused, which is what lets a standby replay
//! it idempotently by id.

use sqlshare_common::hash::fnv64;
use sqlshare_common::json;
use sqlshare_core::{
    read_tail, DurableOptions, FsyncPolicy, IoCounter, Metadata, Outcome, QueryLogEntry,
    ScrubConfig, Scrubber, SqlShare,
};
use sqlshare_ingest::IngestOptions;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// A durable service that ran three queries, closed; its data directory
/// and the path of its query log.
fn logged_three(tag: &str) -> (PathBuf, DurableOptions, PathBuf) {
    let dir = std::env::temp_dir().join(format!("sqlshare-querylog-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let options = DurableOptions::new(&dir).fsync(FsyncPolicy::Off);
    let mut s = SqlShare::open(options.clone()).unwrap();
    s.register_user("ada", "a@uw.edu").unwrap();
    s.upload("ada", "nums", "n\n1\n2\n3\n", &IngestOptions::default())
        .unwrap();
    for sql in [
        "SELECT COUNT(*) FROM nums",
        "SELECT SUM(n) FROM nums",
        "SELECT MAX(n) FROM nums",
    ] {
        s.run_query("ada", sql).unwrap();
    }
    let log = s.querylog_path().expect("a durable service logs queries");
    drop(s);
    (dir, options, log)
}

/// One record as the log frames it.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = (payload.len() as u32).to_le_bytes().to_vec();
    out.extend_from_slice(&fnv64(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// The loaded log, one JSON document per entry.
fn entries(s: &SqlShare) -> Vec<String> {
    s.log()
        .entries()
        .iter()
        .map(|e| e.to_json().to_string())
        .collect()
}

#[test]
fn a_damaged_first_line_is_refused_and_left_on_disk() {
    let (dir, options, log) = logged_three("first-line");
    let mut bytes = std::fs::read(&log).unwrap();
    assert_eq!(read_tail(&log, 0).unwrap().records.len(), 3);
    assert_eq!(
        bytes[12], b'{',
        "the first payload follows its 12-byte header"
    );
    bytes[12] = b'[';
    std::fs::write(&log, &bytes).unwrap();

    let err = SqlShare::open(options).expect_err("a damaged log must not open");
    assert_eq!(err.kind(), "corrupt", "{err}");
    assert!(err.message().contains("querylog.log"), "{err}");
    assert_eq!(std::fs::read(&log).unwrap(), bytes, "the log was modified");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_plan_too_deep_to_read_back_is_logged_without_it() {
    // Depth stacked through views is not bounded yet: binding and running
    // these views takes more than a default thread stack in a debug build.
    std::thread::Builder::new()
        .stack_size(64 << 20)
        .spawn(log_and_reopen_a_plan_too_deep_to_read_back)
        .unwrap()
        .join()
        .unwrap();
}

fn log_and_reopen_a_plan_too_deep_to_read_back() {
    let dir = std::env::temp_dir().join(format!(
        "sqlshare-querylog-{}-deep-plan",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let options = DurableOptions::new(&dir).fsync(FsyncPolicy::Off);
    let mut s = SqlShare::open(options.clone()).unwrap();
    s.register_user("ada", "a@uw.edu").unwrap();
    s.upload("ada", "v0", "n\n1\n", &IngestOptions::default())
        .unwrap();
    // Each view is a UNION ALL chain over the one below it: every view
    // is within the parser's bound, but the stack of them is not.
    let links = " UNION ALL SELECT 1".repeat(40);
    let views = 8;
    for i in 1..=views {
        let sql = format!("SELECT n FROM v{}{links}", i - 1);
        s.save_dataset("ada", &format!("v{i}"), &sql, Metadata::default())
            .unwrap();
    }
    let deep = s
        .run_query("ada", &format!("SELECT COUNT(*) FROM v{views}"))
        .unwrap();
    assert!(
        deep.plan_json.depth() >= json::MAX_DEPTH,
        "the plan is {} levels deep",
        deep.plan_json.depth()
    );
    let shallow = s.run_query("ada", "SELECT COUNT(*) FROM v0").unwrap();
    drop(s);

    let s = SqlShare::open(options).expect("the service reopens");
    let logged = s.log().entries();
    assert_eq!(logged.len(), 2);
    assert!(matches!(logged[0].outcome, Outcome::Success { rows: 1, .. }));
    assert_eq!(logged[0].plan_json, None);
    assert_eq!(logged[1].plan_json, Some(shallow.plan_json));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_entry_that_does_not_decode_is_refused() {
    let (dir, options, log) = logged_three("undecodable");
    let mut damaged = frame(br#"{"not":"an entry"}"#);
    damaged.extend(std::fs::read(&log).unwrap());
    std::fs::write(&log, &damaged).unwrap();

    let err = SqlShare::open(options).expect_err("an undecodable entry must not open");
    assert_eq!(err.kind(), "corrupt", "{err}");
    assert!(err.message().contains("querylog.log: record 1"), "{err}");
    assert_eq!(std::fs::read(&log).unwrap(), damaged);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_torn_final_line_is_still_repaired() {
    let (dir, options, log) = logged_three("torn");
    let clean = std::fs::read(&log).unwrap();
    let mut torn = clean.clone();
    torn.extend_from_slice(&frame(b"{\"id\":4,\"user\":\"ada\"}")[..11]);
    std::fs::write(&log, &torn).unwrap();

    let s = SqlShare::open(options).unwrap();
    let report = s.recovery_report().unwrap();
    assert_eq!(report.querylog_entries, 3);
    assert_eq!(report.querylog_truncated_bytes, 11);
    assert_eq!(std::fs::read(&log).unwrap(), clean);
    drop(s);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A flip inside a logged SQL literal still parses as JSON, so only a
/// checksum can see it: it must refuse the open, not reload `TELECT`,
/// and the scrubber must report it.
#[test]
fn a_flipped_sql_literal_is_refused_and_scrubbed_not_loaded() {
    let (dir, options, log) = logged_three("literal");
    let mut bytes = std::fs::read(&log).unwrap();
    let second = read_tail(&log, 0).unwrap().ends[0] as usize;
    let needle = br#""sql":"SELECT SUM"#;
    let at = bytes[second..]
        .windows(needle.len())
        .position(|w| w == needle)
        .expect("the second entry logs its SQL")
        + second
        + br#""sql":""#.len();
    bytes[at] = b'T';
    std::fs::write(&log, &bytes).unwrap();

    let err = SqlShare::open(options).expect_err("an altered entry must not load");
    assert_eq!(err.kind(), "corrupt", "{err}");
    assert!(err.message().contains("querylog.log"), "{err}");
    assert_eq!(std::fs::read(&log).unwrap(), bytes, "the log was modified");

    let scrubber = Scrubber::new(ScrubConfig::default(), IoCounter::new());
    scrubber.add_root(&dir);
    let findings = scrubber.full_pass();
    assert!(findings.iter().any(|f| f.path == log), "{findings:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every single-bit flip anywhere in a three-entry log ends in a refusal
/// that leaves the file as it was, or in a truncated torn tail below an
/// unaltered prefix of the entries — never in an altered entry loaded.
#[test]
fn no_single_bit_flip_loads_an_altered_entry() {
    let (dir, options, log) = logged_three("sweep");
    let pristine = std::fs::read(&log).unwrap();
    let originals = entries(&SqlShare::open(options.clone()).unwrap());
    assert_eq!(originals.len(), 3);

    let mut seed = 0x5eed_u64;
    let (mut refused, mut truncated) = (0, 0);
    for trial in 0..200 {
        seed = seed
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let bit = (seed >> 33) as usize % (pristine.len() * 8);
        let mut flipped = pristine.clone();
        flipped[bit / 8] ^= 1 << (bit % 8);
        std::fs::write(&log, &flipped).unwrap();
        match SqlShare::open(options.clone()) {
            Err(err) => {
                assert_eq!(err.kind(), "corrupt", "trial {trial}, bit {bit}: {err}");
                assert_eq!(
                    std::fs::read(&log).unwrap(),
                    flipped,
                    "trial {trial}: file touched"
                );
                refused += 1;
            }
            Ok(s) => {
                let loaded = entries(&s);
                assert!(
                    loaded.len() < 3,
                    "trial {trial}, bit {bit}: the flip went unseen"
                );
                assert_eq!(
                    loaded,
                    originals[..loaded.len()],
                    "trial {trial}, bit {bit}"
                );
                assert!(s.recovery_report().unwrap().querylog_truncated_bytes > 0);
                truncated += 1;
            }
        }
    }
    assert!(
        refused > 0 && truncated > 0,
        "{refused} refused, {truncated} truncated"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---- the one-time migration from `querylog.jsonl` ----------------------

/// `logged_three`, with its log rewritten the way earlier releases'
/// appender wrote it (`to_json().to_string()` plus a newline) and the
/// framed log removed; the entries as logged, and the old file's path.
fn logged_three_as_jsonl(tag: &str) -> (PathBuf, DurableOptions, Vec<String>, PathBuf) {
    let (dir, options, log) = logged_three(tag);
    let logged = entries(&SqlShare::open(options.clone()).unwrap());
    let jsonl = dir.join("querylog.jsonl");
    std::fs::write(
        &jsonl,
        logged.iter().map(|e| format!("{e}\n")).collect::<String>(),
    )
    .unwrap();
    std::fs::remove_file(&log).unwrap();
    (dir, options, logged, jsonl)
}

/// The reopened service holds `want`, continues ids and the clock past
/// them, and the old file is gone. Returns the bytes recovery dropped.
fn assert_migrated(dir: &Path, options: DurableOptions, want: &[String]) -> u64 {
    let s = SqlShare::open(options).unwrap();
    assert_eq!(entries(&s), want);
    assert_eq!(
        s.recovery_report().unwrap().querylog_entries,
        want.len() as u64
    );
    assert!(!dir.join("querylog.jsonl").exists());
    assert!(!dir.join("querylog.log.tmp").exists());
    assert_eq!(
        read_tail(&s.querylog_path().unwrap(), 0)
            .unwrap()
            .records
            .len(),
        want.len()
    );
    s.run_query("ada", "SELECT MIN(n) FROM nums").unwrap();
    let log = s.log();
    let (last, next) = (&log.entries()[want.len() - 1], &log.entries()[want.len()]);
    assert_eq!(next.id, last.id + 1);
    assert!(
        next.at > last.at,
        "the clock did not fast-forward past the migrated log"
    );
    drop(log);
    s.recovery_report().unwrap().querylog_truncated_bytes
}

#[test]
fn a_jsonl_log_migrates_to_frames_with_every_entry() {
    let (dir, options, logged, _) = logged_three_as_jsonl("migrate");
    assert_eq!(assert_migrated(&dir, options.clone(), &logged), 0);
    // A second open has nothing to migrate.
    let log = dir.join("querylog.log");
    let before = std::fs::read(&log).unwrap();
    let s = SqlShare::open(options).unwrap();
    assert_eq!(s.log().len(), 4);
    assert_eq!(s.recovery_report().unwrap().querylog_truncated_bytes, 0);
    assert_eq!(std::fs::read(&log).unwrap(), before);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_torn_final_jsonl_line_is_dropped_by_the_migration() {
    let (dir, options, logged, jsonl) = logged_three_as_jsonl("migrate-torn");
    let mut text = std::fs::read_to_string(&jsonl).unwrap();
    text.push_str("{\"id\":4,\"us");
    std::fs::write(&jsonl, text).unwrap();
    assert_eq!(assert_migrated(&dir, options, &logged), 11);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_damaged_interior_jsonl_line_refuses_and_writes_nothing() {
    let (dir, options, logged, jsonl) = logged_three_as_jsonl("migrate-bad");
    let text = format!("{}\nnot json\n{}\n", logged[0], logged[1]);
    std::fs::write(&jsonl, &text).unwrap();
    let err = SqlShare::open(options).expect_err("interior damage must not migrate");
    assert_eq!(err.kind(), "corrupt", "{err}");
    assert!(err.message().contains("querylog.jsonl: line 2"), "{err}");
    assert_eq!(std::fs::read_to_string(&jsonl).unwrap(), text);
    assert!(!dir.join("querylog.log").exists());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn both_logs_present_means_only_the_delete_was_left() {
    let (dir, options, logged, jsonl) = logged_three_as_jsonl("migrate-both");
    // The rename happened: the framed log is complete. The leftover old
    // file is deleted, not migrated a second time.
    let framed: Vec<u8> = logged.iter().flat_map(|e| frame(e.as_bytes())).collect();
    std::fs::write(dir.join("querylog.log"), framed).unwrap();
    assert!(jsonl.exists());
    assert_migrated(&dir, options, &logged);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_leftover_temp_file_is_discarded_and_the_migration_reruns() {
    let (dir, options, logged, _) = logged_three_as_jsonl("migrate-tmp");
    let half: Vec<u8> = frame(logged[0].as_bytes())
        .into_iter()
        .chain([7, 7, 7])
        .collect();
    std::fs::write(dir.join("querylog.log.tmp"), half).unwrap();
    assert_migrated(&dir, options, &logged);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---- ids and order -------------------------------------------------------

/// Queries finish on the scheduler's workers in any order. Each takes
/// its id and appends its frame under the log's one lock, so the file is
/// in id order, and a standby replaying it — which skips any id at or
/// below the highest it holds — applies every entry.
#[test]
fn concurrent_queries_are_logged_in_id_order() {
    let dir = std::env::temp_dir().join(format!("sqlshare-querylog-{}-order", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut s = SqlShare::open(DurableOptions::new(&dir).fsync(FsyncPolicy::Off)).unwrap();
    s.register_user("ada", "a@uw.edu").unwrap();
    s.upload("ada", "nums", "n\n1\n2\n3\n", &IngestOptions::default())
        .unwrap();
    let (threads, per_thread) = (8, 400);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                for _ in 0..per_thread {
                    let id = s.submit_query("ada", "SELECT SUM(n) FROM nums").unwrap();
                    let status = s.wait_for_job(id, Duration::from_secs(60)).unwrap();
                    assert!(status.is_terminal(), "job {id} is still {}", status.label());
                }
            });
        }
    });

    let records = read_tail(&s.querylog_path().unwrap(), 0).unwrap().records;
    assert_eq!(records.len(), threads * per_thread);
    let ids: Vec<u64> = records
        .iter()
        .map(|r| QueryLogEntry::decode(r).expect("an entry").id)
        .collect();
    let out_of_order = ids.windows(2).filter(|w| w[0] >= w[1]).count();
    assert_eq!(out_of_order, 0, "{out_of_order} records follow a higher id");

    let mut standby = SqlShare::new();
    let applied = records
        .iter()
        .filter(|r| standby.apply_replicated_query_entry(r).unwrap())
        .count();
    assert_eq!(applied, threads * per_thread, "the standby dropped entries");
    drop(s);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A local id continues from the highest id logged, not from the count:
/// after replicated ids {1, 2, 5}, the next two queries are 6 and 7.
#[test]
fn local_ids_continue_past_a_gap_in_replicated_ids() {
    let mut primary = SqlShare::new();
    primary.register_user("ada", "a@uw.edu").unwrap();
    primary
        .upload("ada", "nums", "n\n1\n2\n3\n", &IngestOptions::default())
        .unwrap();
    for _ in 0..5 {
        primary.run_query("ada", "SELECT COUNT(*) FROM nums").unwrap();
    }
    let mut s = SqlShare::new();
    s.install_replica_snapshot(&primary.replication_snapshot())
        .unwrap();
    for entry in primary.log().entries() {
        if [1, 2, 5].contains(&entry.id) {
            let payload = entry.to_json().to_string();
            assert!(s.apply_replicated_query_entry(payload.as_bytes()).unwrap());
        }
    }
    for _ in 0..2 {
        s.run_query("ada", "SELECT MAX(n) FROM nums").unwrap();
    }
    let ids: Vec<u64> = s.log().entries().iter().map(|e| e.id).collect();
    assert_eq!(ids, [1, 2, 5, 6, 7]);
}
