//! Bit-rot differential for the at-rest integrity subsystem.
//!
//! The integrity promise (DESIGN.md §4.8): every durable byte is
//! checksummed — record-log frames, snapshot manifests and segments —
//! and a background scrubber re-reads the data directory on a budget.
//! Damage is never read past: recovery refuses interior record-log rot
//! with the typed `corrupt` error instead of truncating acknowledged
//! records, skips a rotted snapshot candidate only when the WAL still
//! covers it, and a rotted segment the scrubber finds is rewritten from
//! memory by the next snapshot. A replica's journal is byte-identical
//! to the primary's, so it is the repair for a rotted one.
//!
//! The tests: a live primary/standby pair whose standby stays in
//! lockstep with an in-memory oracle while the query log and the WAL
//! rot; WAL interior-rot refusal vs torn-tail truncation; snapshot and
//! segment rot; a seeded detection sweep that flips one random bit per
//! file family; and the HTTP server's scrub thread reporting rot.
//!
//! The seed comes from `SQLSHARE_ROT_SEED` (the CI bit-rot leg pins
//! one) or a fixed in-code default.

#[path = "support/fsync.rs"]
mod fsync;
#[allow(dead_code)]
#[path = "support/http.rs"]
mod http;

use sqlshare_common::json::{self, Json};
use sqlshare_core::{
    read_tail, DurableOptions, IoCounter, ScrubConfig, ScrubFinding, Scrubber, SqlShare,
};
use sqlshare_ingest::IngestOptions;
use sqlshare_storage::{SnapshotStore, Wal};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

// ---------------------------------------------------------------------
// Deterministic RNG (splitmix64), seed, temp dirs — the recovery and
// failover suites' idiom.
// ---------------------------------------------------------------------

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

fn rot_seed() -> u64 {
    std::env::var("SQLSHARE_ROT_SEED")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0x0B17_0707)
}

fn temp_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "sqlshare-integrity-{}-{}-{}",
        std::process::id(),
        tag,
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn durable_options(dir: &Path, snapshot_every: u64) -> DurableOptions {
    DurableOptions::new(dir)
        .fsync(fsync::policy())
        .snapshot_every(snapshot_every)
}

/// Serial, cache-less execution: answers are row-order deterministic
/// and every query actually runs.
fn pin(s: &mut SqlShare) {
    s.set_cache_config(0, u64::MAX);
    s.set_parallelism(1, f64::MAX);
}

// ---------------------------------------------------------------------
// Workload: multi-page tables, a query battery, and the differential
// check that encodes the invariant.
// ---------------------------------------------------------------------

/// A 4-column CSV of `rows` rows.
fn wide_csv(tag: &str, rows: usize) -> String {
    let mut out = String::from("a,b,c,d\n");
    for i in 0..rows {
        out.push_str(&format!(
            "{i},{},{tag}_val_{i:05},{}\n",
            (i * 7901) % 997,
            i % 13
        ));
    }
    out
}

/// Per-table battery: a full scan, an equality probe on a non-leading
/// column, and an aggregate.
fn battery(tables: &[String], probe: usize) -> Vec<String> {
    let mut sqls = Vec::new();
    for t in tables {
        sqls.push(format!("SELECT a, b, c, d FROM {t}"));
        sqls.push(format!("SELECT a, c FROM {t} WHERE b = {}", probe % 997));
        sqls.push(format!("SELECT COUNT(*), SUM(a) FROM {t} WHERE d < 7"));
    }
    sqls
}

/// Every query answers exactly like the oracle. Both sides always run,
/// so their sim clocks tick in lockstep.
fn differential(subject: &SqlShare, oracle: &SqlShare, sqls: &[String]) {
    for sql in sqls {
        let want = oracle.run_query("ada", sql).expect("oracle query failed");
        let got = subject.run_query("ada", sql).expect("subject query failed");
        assert_eq!(got.rows, want.rows, "WRONG DATA served for: {sql}");
    }
}

/// Feed the primary's WAL tail since `from` into the standby through
/// the same LSN-idempotent path crash recovery uses.
fn replicate(wal: &Path, from: u64, standby: &mut SqlShare) -> u64 {
    let tail = read_tail(wal, from).expect("read primary wal tail");
    assert!(!tail.reset, "primary WAL reset unexpectedly");
    for payload in &tail.records {
        standby
            .apply_replicated(payload)
            .expect("standby refused a record");
    }
    tail.end_offset
}

// ---------------------------------------------------------------------
// Rot injection: flips land on the *disk image* via std::fs — at-rest
// corruption, not the read-path fault plans the chaos suite uses.
// ---------------------------------------------------------------------

fn flip_bit(path: &Path, bit: usize) {
    let mut bytes = std::fs::read(path).expect("read rot victim");
    assert!(bit / 8 < bytes.len(), "bit offset past EOF of {path:?}");
    bytes[bit / 8] ^= 1 << (bit % 8);
    std::fs::write(path, &bytes).expect("write rot");
}

fn flip_random_bit(path: &Path, rng: &mut Rng) {
    let len = std::fs::metadata(path).expect("stat rot victim").len() as usize;
    assert!(len > 0, "empty rot victim {path:?}");
    flip_bit(path, rng.below(len * 8));
}

/// An unbudgeted scrub sweep over `roots`, returning the findings.
fn scrub(roots: &[&Path]) -> Vec<ScrubFinding> {
    let scrubber = Scrubber::new(
        ScrubConfig {
            every_ms: 1,
            io_budget: 1_000_000,
        },
        IoCounter::new(),
    );
    for root in roots {
        scrubber.add_root(root);
    }
    scrubber.full_pass()
}

// ---------------------------------------------------------------------
// 1. A live primary/standby pair: the standby, fed the primary's WAL
//    records, stays in lockstep with an in-memory oracle while the
//    primary answers every query as the oracle does. Then the durable
//    families rot on the same pair: query log (a scrub finding), WAL
//    (interior rot refuses recovery; the byte-identical standby journal
//    repairs it).
// ---------------------------------------------------------------------

#[test]
fn bit_rot_chaos_on_a_live_pair_never_serves_wrong_data() {
    let mut rng = Rng(rot_seed());
    let p_dir = temp_dir("chaos-p");
    let s_dir = temp_dir("chaos-s");

    // Primary: durable, snapshots off so the WAL always covers every
    // mutation and the standby feed never resets. Oracle: pure
    // in-memory, never rotted. Standby: durable, fed the primary's WAL
    // records.
    let mut primary = SqlShare::open(durable_options(&p_dir, u64::MAX)).unwrap();
    pin(&mut primary);
    let mut oracle = SqlShare::new();
    pin(&mut oracle);
    let mut standby = SqlShare::open(durable_options(&s_dir, u64::MAX)).unwrap();

    for s in [&mut primary, &mut oracle] {
        s.register_user("ada", "ada@uw.edu").unwrap();
    }
    let mut tables = Vec::new();
    for i in 0..4 {
        let csv = wide_csv(&format!("t{i}"), 2200 + 150 * i);
        for s in [&mut primary, &mut oracle] {
            s.upload("ada", &format!("t{i}"), &csv, &IngestOptions::default())
                .unwrap();
        }
        tables.push(format!("ada.t{i}"));
    }
    let wal = p_dir.join("wal.log");
    let mut repl_off = replicate(&wal, 0, &mut standby);
    assert_eq!(standby.durable_digest(), oracle.durable_digest());

    for round in 0..8 {
        let extra = wide_csv(&format!("r{round}"), 40);
        for s in [&mut primary, &mut oracle] {
            s.upload("ada", &format!("extra{round}"), &extra, &IngestOptions::default())
                .unwrap();
        }
        differential(&primary, &oracle, &battery(&tables, rng.below(2200)));
        assert!(scrub(&[&p_dir]).is_empty(), "round {round}: a clean directory has findings");

        // The standby applied the same records and stays byte-for-byte
        // in step with the oracle.
        repl_off = replicate(&wal, repl_off, &mut standby);
        assert_eq!(
            standby.durable_digest(),
            oracle.durable_digest(),
            "round {round}: standby diverged"
        );
    }

    // --- Query-log family: a record log like the WAL, so rot inside
    // its first frame, with frames after it, is a checksum finding ---
    let qlog = p_dir.join("querylog.log");
    let pristine = std::fs::read(&qlog).unwrap();
    flip_bit(&qlog, 20 * 8 + rng.below(8)); // inside the first frame's payload
    let findings = scrub(&[&p_dir]);
    assert!(
        findings.iter().any(|f| f.path == qlog),
        "scrub missed query-log rot"
    );
    std::fs::write(&qlog, &pristine).unwrap();

    // --- WAL family: the standby's re-journaled log is byte-identical,
    // interior rot refuses recovery with the typed error, and copying
    // the replica's journal over is the repair. ---
    let p_wal = std::fs::read(&wal).unwrap();
    let s_wal = std::fs::read(s_dir.join("wal.log")).unwrap();
    assert_eq!(p_wal, s_wal, "standby journal not byte-identical");

    let oracle_digest = oracle.durable_digest();
    drop(primary);
    flip_bit(&wal, 20 * 8 + rng.below(8)); // inside the first frame's payload
    let audit = Wal::verify(&wal, &IoCounter::new()).unwrap();
    assert!(audit.interior_corrupt, "flip did not read as interior rot");
    let err = SqlShare::open(durable_options(&p_dir, u64::MAX)).unwrap_err();
    assert_eq!(err.kind(), "corrupt", "interior WAL rot not typed: {err}");
    std::fs::write(&wal, &s_wal).unwrap();
    let repaired = SqlShare::open(durable_options(&p_dir, u64::MAX)).unwrap();
    assert_eq!(
        repaired.durable_digest(),
        oracle_digest,
        "replica-journal repair lost state"
    );

    let _ = std::fs::remove_dir_all(&p_dir);
    let _ = std::fs::remove_dir_all(&s_dir);
}

// ---------------------------------------------------------------------
// 2. WAL: a torn tail truncates and recovers (the unacked record is
//    cleanly absent), but interior rot — acknowledged bytes — refuses
//    recovery with the typed error instead of silently truncating.
// ---------------------------------------------------------------------

#[test]
fn wal_interior_rot_refuses_recovery_while_a_torn_tail_truncates() {
    let mut rng = Rng(rot_seed() ^ 0x44);
    let dir = temp_dir("wal-rot");
    let mut s = SqlShare::open(durable_options(&dir, u64::MAX)).unwrap();
    s.register_user("ada", "ada@uw.edu").unwrap();
    s.upload("ada", "d0", "a,b\n1,2\n", &IngestOptions::default()).unwrap();
    s.upload("ada", "d1", "a,b\n3,4\n", &IngestOptions::default()).unwrap();
    let digest_before_last = s.durable_digest();
    s.upload("ada", "d2", "a,b\n5,6\n", &IngestOptions::default()).unwrap();
    drop(s);

    let wal = dir.join("wal.log");
    let pristine = std::fs::read(&wal).unwrap();
    let clean = Wal::verify(&wal, &IoCounter::new()).unwrap();
    assert_eq!(clean.frames, 4);
    assert_eq!(clean.tail_bytes, 0);
    assert!(!clean.interior_corrupt);

    // Interior rot: a bit inside the first frame's payload, with three
    // valid frames after it. Refused, typed, and non-destructive.
    flip_bit(&wal, 20 * 8 + rng.below(8));
    let audit = Wal::verify(&wal, &IoCounter::new()).unwrap();
    assert!(audit.interior_corrupt);
    let err = SqlShare::open(durable_options(&dir, u64::MAX)).unwrap_err();
    assert_eq!(err.kind(), "corrupt");
    assert!(
        err.to_string().contains("refusing to truncate"),
        "refusal does not explain itself: {err}"
    );
    // The refused open must not have truncated the journal.
    assert_eq!(std::fs::metadata(&wal).unwrap().len(), pristine.len() as u64);

    // Torn tail: the same journal missing its last 7 bytes — an append
    // that never completed. Truncated, counted, and recovered without
    // the torn record.
    std::fs::write(&wal, &pristine[..pristine.len() - 7]).unwrap();
    let s = SqlShare::open(durable_options(&dir, u64::MAX)).unwrap();
    let report = s.recovery_report().unwrap();
    assert!(report.truncated_wal_bytes > 0);
    assert_eq!(report.replayed_records, 3);
    assert_eq!(s.durable_digest(), digest_before_last);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// 3. Snapshot candidates: a corrupt candidate the WAL still covers is
//    skipped and counted (recovery proceeds, state complete); one past
//    WAL coverage refuses with the typed error; a *vanished* snapshot
//    behind a reset WAL likewise refuses rather than replaying onto the
//    wrong base.
// ---------------------------------------------------------------------

#[test]
fn snapshot_rot_is_skipped_when_covered_and_refused_when_not() {
    let mut rng = Rng(rot_seed() ^ 0x55);

    // Covered: the WAL holds lsns 1..=4 (snapshots off), and a torn
    // snapshot claiming lsn 3 rots. Recovery skips it, counts it, and
    // replays the full journal — no data loss, scrub still reports it.
    let dir = temp_dir("snap-covered");
    let mut s = SqlShare::open(durable_options(&dir, u64::MAX)).unwrap();
    s.register_user("ada", "ada@uw.edu").unwrap();
    s.upload("ada", "d0", "a,b\n1,2\n", &IngestOptions::default()).unwrap();
    s.upload("ada", "d1", "a,b\n3,4\n", &IngestOptions::default()).unwrap();
    s.upload("ada", "d2", "a,b\n5,6\n", &IngestOptions::default()).unwrap();
    let digest = s.durable_digest();
    drop(s);
    let store = SnapshotStore::new(&dir);
    let torn = store.write(3, "{\"torn\":\"snapshot\"}").unwrap();
    flip_random_bit(&torn, &mut rng);
    assert!(
        scrub(&[&dir]).iter().any(|f| f.path == torn),
        "scrub missed snapshot rot"
    );
    let s = SqlShare::open(durable_options(&dir, u64::MAX)).unwrap();
    let report = s.recovery_report().unwrap();
    assert_eq!(report.snapshot_candidates_skipped, 1);
    assert_eq!(s.durable_digest(), digest, "skip-and-replay lost state");
    drop(s);

    // Not covered: a corrupt candidate *newer* than anything the WAL
    // reaches means acknowledged writes are on no surviving medium.
    let newest = store.write(40, "{\"torn\":\"snapshot\"}").unwrap();
    flip_random_bit(&newest, &mut rng);
    let err = SqlShare::open(durable_options(&dir, u64::MAX)).unwrap_err();
    assert_eq!(err.kind(), "corrupt");
    assert!(
        err.to_string().contains("restore"),
        "refusal without an operator hint: {err}"
    );
    let _ = std::fs::remove_dir_all(&dir);

    // Vanished: a snapshot cadence writes a snapshot and resets the
    // WAL; deleting every candidate leaves a journal that resumes past
    // lsn 1 with no base to replay onto. Refused, typed.
    let dir = temp_dir("snap-vanished");
    let mut s = SqlShare::open(durable_options(&dir, 2)).unwrap();
    s.register_user("ada", "ada@uw.edu").unwrap();
    s.upload("ada", "d0", "a,b\n1,2\n", &IngestOptions::default()).unwrap();
    s.upload("ada", "d1", "a,b\n3,4\n", &IngestOptions::default()).unwrap();
    drop(s);
    let mut removed = 0;
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        if path
            .file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| n.starts_with("snapshot-"))
        {
            std::fs::remove_file(&path).unwrap();
            removed += 1;
        }
    }
    assert!(removed >= 1, "cadence never snapshotted");
    let err = SqlShare::open(durable_options(&dir, 2)).unwrap_err();
    assert_eq!(err.kind(), "corrupt");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A segment is part of every manifest that names it: rotted, it makes
/// each such manifest a skipped candidate. Recovery falls back to an
/// older one when the WAL still covers the gap, and otherwise refuses
/// with the typed error — a table is never silently dropped.
#[test]
fn segment_rot_skips_every_manifest_naming_it() {
    let mut rng = Rng(rot_seed() ^ 0x57);
    let dir = temp_dir("segment-rot");
    let mut s = SqlShare::open(durable_options(&dir, u64::MAX)).unwrap();
    s.register_user("ada", "ada@uw.edu").unwrap();
    s.upload("ada", "d0", "a,b\n1,2\n", &IngestOptions::default()).unwrap();
    s.force_snapshot().unwrap(); // snapshot-2 + segment-2: d0
    s.register_user("bob", "bob@uw.edu").unwrap();
    s.force_snapshot().unwrap(); // snapshot-3, no segment: names segment-2
    let digest = s.durable_digest();
    drop(s);
    let names = |dir: &Path| -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|n| n.ends_with(".json"))
            .collect();
        names.sort();
        names
    };
    assert_eq!(names(&dir), ["segment-2.json", "snapshot-2.json", "snapshot-3.json"]);
    let segment = dir.join("segment-2.json");
    let pristine = std::fs::read(&segment).unwrap();
    flip_random_bit(&segment, &mut rng);
    assert!(scrub(&[&dir]).iter().any(|f| f.path == segment), "scrub missed segment rot");
    // Both manifests name it, and the WAL was reset at lsn 3.
    let err = SqlShare::open(durable_options(&dir, u64::MAX)).unwrap_err();
    assert_eq!(err.kind(), "corrupt", "{err}");
    assert!(err.to_string().contains("snapshot-3.json is corrupt"), "{err}");

    // Restored, it loads; a manifest naming a segment that is gone is
    // skipped the same way.
    std::fs::write(&segment, &pristine).unwrap();
    let s = SqlShare::open(durable_options(&dir, u64::MAX)).unwrap();
    assert_eq!(s.durable_digest(), digest);
    assert_eq!(s.recovery_report().unwrap().snapshot_candidates_skipped, 0);
    drop(s);
    std::fs::remove_file(&segment).unwrap();
    let err = SqlShare::open(durable_options(&dir, u64::MAX)).unwrap_err();
    assert_eq!(err.kind(), "corrupt", "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A segment the scrubber finds rotted is not left for a crash to trip
/// over: the next snapshot writes its live tables afresh from memory,
/// the one after prunes it, and the directory reopens with no skip.
#[test]
fn a_segment_the_scrubber_finds_rotted_is_rewritten_by_the_next_snapshot() {
    let mut rng = Rng(rot_seed() ^ 0x58);
    let dir = temp_dir("segment-heal");
    let mut s = SqlShare::open(durable_options(&dir, u64::MAX)).unwrap();
    s.register_user("ada", "ada@uw.edu").unwrap();
    s.upload("ada", "d0", "a,b\n1,2\n", &IngestOptions::default()).unwrap();
    s.force_snapshot().unwrap(); // segment-2: d0
    let segment = dir.join("segment-2.json");
    flip_random_bit(&segment, &mut rng);
    let findings = scrub(&[&dir]);
    assert!(findings.iter().any(|f| f.path == segment), "{findings:?}");
    for f in &findings {
        s.note_scrub_finding(&f.path);
    }
    for (i, user) in ["bob", "cy"].iter().enumerate() {
        s.register_user(user, "x@uw.edu").unwrap();
        s.force_snapshot().unwrap();
        assert_eq!(segment.exists(), i == 0, "pruned once no kept manifest names it");
    }
    let digest = s.durable_digest();
    drop(s);
    let s = SqlShare::open(durable_options(&dir, u64::MAX)).unwrap();
    assert_eq!(s.durable_digest(), digest);
    assert_eq!(s.recovery_report().unwrap().snapshot_candidates_skipped, 0);
    assert!(scrub(&[&dir]).is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// 4. Detection sweep: one random seeded bit flip per file family — WAL,
//    snapshot manifest, segment, query log — must be *detected*: a
//    scrub finding for manifests and segments; for the two record logs
//    (WAL, query log), a finding or a recovery-time truncation/refusal
//    (tail rot is deliberately left to recovery).
// ---------------------------------------------------------------------

#[test]
fn a_random_bit_flip_in_every_file_family_is_detected() {
    let mut rng = Rng(rot_seed() ^ 0x66);
    let dir = temp_dir("families");
    let mut s = SqlShare::open(durable_options(&dir, 3)).unwrap();
    pin(&mut s);
    s.register_user("ada", "ada@uw.edu").unwrap();
    s.upload("ada", "t", &wide_csv("t", 400), &IngestOptions::default()).unwrap();
    s.upload("ada", "u", "x,y\n1,2\n", &IngestOptions::default()).unwrap(); // lsn 3 → snapshot
    s.upload("ada", "v", "x,y\n3,4\n", &IngestOptions::default()).unwrap();
    s.run_query("ada", "SELECT COUNT(*) FROM ada.t").unwrap();
    s.run_query("ada", "SELECT x FROM ada.u").unwrap();
    // The service stays alive through the sweep; the scrubber reads the
    // disk images directly.
    let wal = dir.join("wal.log");
    let qlog = dir.join("querylog.log");
    let written = |prefix: &str| {
        std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok().map(|e| e.path()))
            .find(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with(prefix) && n.ends_with(".json"))
            })
            .expect("cadence wrote a snapshot")
    };
    let snapshot = written("snapshot-");
    let segment = written("segment-");

    let families: Vec<(&str, &Path)> = vec![
        ("wal", &wal),
        ("snapshot", &snapshot),
        ("segment", &segment),
        ("querylog", &qlog),
    ];
    for (family, path) in &families {
        let pristine = std::fs::read(path).unwrap();
        assert!(!pristine.is_empty(), "{family} file is empty");
        let clean_frames = Wal::verify(path, &IoCounter::new()).unwrap().frames;
        for trial in 0..20 {
            let bit = rng.below(pristine.len() * 8);
            flip_bit(path, bit);
            let found = scrub(&[&dir]).iter().any(|f| &f.path == path);
            let detected = if *family == "wal" || *family == "querylog" {
                // Record-log tail rot carries no finding; recovery
                // truncates or refuses instead. Either channel counts
                // as detection.
                found || {
                    let audit = Wal::verify(path, &IoCounter::new()).unwrap();
                    audit.interior_corrupt
                        || audit.tail_bytes > 0
                        || audit.frames < clean_frames
                }
            } else {
                found
            };
            assert!(
                detected,
                "{family} trial {trial}: bit {bit} flipped undetected"
            );
            std::fs::write(path, &pristine).unwrap();
        }
    }
    drop(s);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// 5. Over HTTP: the server's scrub thread finds on-disk rot in the data
//    directory without any request touching it, and the finding is
//    observable on GET /api/integrity.
// ---------------------------------------------------------------------

#[test]
fn http_scrub_thread_reports_rot_in_the_data_directory() {
    use crate::http::{HttpClient, ReplayOp};
    use sqlshare_server::{HttpConfig, Server};

    let mut rng = Rng(rot_seed() ^ 0x77);
    let dir = temp_dir("http");
    let mut svc = SqlShare::open(durable_options(&dir, u64::MAX)).unwrap();
    svc.register_user("ada", "ada@uw.edu").unwrap();
    svc.upload("ada", "t", &wide_csv("t", 2200), &IngestOptions::default())
        .unwrap();
    svc.force_snapshot().unwrap();
    let segment = dir.join("segment-2.json");
    assert!(segment.exists());

    let cfg = HttpConfig {
        scrub: ScrubConfig { every_ms: 10, io_budget: 100_000 },
        ..HttpConfig::default()
    };
    let server = Server::start(svc, "127.0.0.1:0", cfg).expect("bind");
    let mut client = HttpClient::new(server.addr());
    let findings = |client: &mut HttpClient| {
        let resp = client.request(&ReplayOp::Get("/api/integrity".into())).unwrap();
        assert_eq!(resp.status, 200);
        let doc = json::parse(&String::from_utf8_lossy(&resp.body)).unwrap();
        let scrub = doc.get("scrub").cloned().unwrap_or(Json::Null);
        let passes = scrub.get("passes").and_then(Json::as_f64).unwrap_or(0.0);
        (passes, scrub.get("findings").and_then(Json::as_f64).unwrap_or(0.0))
    };

    // A clean directory: passes complete with no finding.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while findings(&mut client).0 < 1.0 {
        assert!(std::time::Instant::now() < deadline, "the scrub thread never finished a pass");
        std::thread::sleep(std::time::Duration::from_millis(25));
    }
    assert_eq!(findings(&mut client).1, 0.0);

    // Rot the segment on disk; the scrub thread must find it.
    flip_random_bit(&segment, &mut rng);
    loop {
        assert!(std::time::Instant::now() < deadline, "the scrub thread never found the rot");
        if findings(&mut client).1 >= 1.0 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(25));
    }

    // The service keeps answering.
    let resp = client
        .request(&ReplayOp::Post(
            "/api/queries".into(),
            r#"{"user":"ada","sql":"SELECT COUNT(*) FROM ada.t"}"#.into(),
        ))
        .unwrap();
    assert!(resp.status < 300, "query after the finding: {}", resp.status);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
