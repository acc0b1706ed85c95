//! Bit-rot chaos differential for the at-rest integrity subsystem.
//!
//! The integrity promise (DESIGN.md §4.8): every durable byte is
//! checksummed, a background scrubber re-reads it on a budget, and a
//! detected flip quarantines only the owning object while a repair
//! ladder climbs cheapest-first — rebuild a rotted secondary index from
//! the intact local heap, re-materialize a rotted heap from the latest
//! snapshot plus WAL records, and, when no local rung can help, fetch
//! replacement pages from a replica with checksum and row-count
//! verification. The invariant this suite enforces on a live two-node
//! pair under random on-disk bit flips: **no query ever returns wrong
//! data**. Every observed outcome is one of
//!
//! - the correct answer (the rot missed, or the cache still held the
//!   good image),
//! - the typed `corrupt` error (503 + Retry-After over HTTP), or
//! - the correct answer again after the repair ladder ran.
//!
//! Alongside the chaos loop: deterministic single-rung tests for each
//! ladder step, WAL interior-rot refusal vs torn-tail truncation,
//! snapshot-candidate rot (skip-and-count when the WAL covers the gap,
//! typed refusal when it does not), a seeded detection sweep that flips
//! one random bit per file family, and the HTTP server's scrub thread
//! driving detection → quarantine → repair end to end.
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
    read_tail, DurableOptions, IoCounter, Repair, ScrubConfig, ScrubFinding,
    Scrubber, SqlShare,
};
use sqlshare_engine::StorageLayer;
use sqlshare_ingest::IngestOptions;
use sqlshare_storage::{SnapshotStore, Wal, PAGE_SIZE};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

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

/// A paged storage layer squeezed to the 8-page buffer-pool floor, so
/// any scan of a table wider than the pool is guaranteed to re-read
/// pages from disk — on-disk flips cannot hide behind the cache.
fn tiny_layer(dir: &Path) -> Arc<StorageLayer> {
    std::fs::create_dir_all(dir).unwrap();
    StorageLayer::new(dir, 1, fsync::policy()).expect("storage layer")
}

/// Serial, cache-less execution: answers are row-order deterministic
/// and every query actually touches the backing pages.
fn pin(s: &mut SqlShare) {
    s.set_cache_config(0, u64::MAX);
    s.set_parallelism(1, f64::MAX);
}

// ---------------------------------------------------------------------
// Workload: multi-page tables, a query battery, and the differential
// check that encodes the invariant.
// ---------------------------------------------------------------------

/// A 4-column CSV wide enough that the heap spans well over the 8-page
/// pool (~12+ pages at 8 KiB) and every non-leading column gets a
/// multi-page secondary index.
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

/// Per-table battery: a full scan, an equality probe on an indexed
/// column, and an aggregate — the three shapes that read heap pages,
/// index pages, and both.
fn battery(tables: &[String], probe: usize) -> Vec<String> {
    let mut sqls = Vec::new();
    for t in tables {
        sqls.push(format!("SELECT a, b, c, d FROM {t}"));
        sqls.push(format!("SELECT a, c FROM {t} WHERE b = {}", probe % 997));
        sqls.push(format!("SELECT COUNT(*), SUM(a) FROM {t} WHERE d < 7"));
    }
    sqls
}

/// THE invariant: for every query, the subject either answers exactly
/// like the oracle or fails with the typed `corrupt` error. Anything
/// else — wrong rows, a different error kind — is a bug. Returns
/// (correct, corrupt) tallies. Both sides always run, so their sim
/// clocks tick in lockstep.
fn differential(subject: &SqlShare, oracle: &SqlShare, sqls: &[String]) -> (usize, usize) {
    let (mut correct, mut corrupt) = (0usize, 0usize);
    for sql in sqls {
        let want = oracle.run_query("ada", sql).expect("oracle query failed");
        match subject.run_query("ada", sql) {
            Ok(got) => {
                assert_eq!(got.rows, want.rows, "WRONG DATA served for: {sql}");
                correct += 1;
            }
            Err(e) => {
                assert_eq!(
                    e.kind(),
                    "corrupt",
                    "non-corrupt error under bit rot for {sql}: {e}"
                );
                corrupt += 1;
            }
        }
    }
    (correct, corrupt)
}

/// Feed the primary's WAL tail since `from` into the standby through
/// the same LSN-idempotent path crash recovery uses.
fn replicate(wal: &Path, from: u64, standby: &mut SqlShare) -> u64 {
    let tail = read_tail(wal, from).expect("read primary wal tail");
    assert!(!tail.reset, "primary WAL reset unexpectedly");
    for payload in &tail.records {
        let doc = json::parse(&String::from_utf8_lossy(payload)).expect("valid record json");
        standby
            .apply_replicated(&doc)
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

/// One random bit flipped in *every* 8 KiB page of a page file. A
/// multi-page file can never be fully resident in the floor-sized pool,
/// so at least one flipped page is always read from disk — detection
/// (and, for heaps, the rung-1 failure that forces rung 2) is
/// deterministic regardless of what the cache still holds.
fn flip_every_page(path: &Path, rng: &mut Rng) {
    let len = std::fs::metadata(path).expect("stat rot victim").len() as usize;
    let pages = len.div_ceil(PAGE_SIZE);
    assert!(pages > 1, "rot victim {path:?} is single-page");
    for page in 0..pages {
        let lo = page * PAGE_SIZE;
        let span = PAGE_SIZE.min(len - lo);
        flip_bit(path, lo * 8 + rng.below(span * 8));
    }
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

/// The backing files of a base table: `(None, heap)` plus
/// `(Some(col), btree)` per secondary index.
fn backing(s: &SqlShare, key: &str) -> Vec<(Option<usize>, PathBuf)> {
    s.engine()
        .catalog()
        .table(key)
        .expect("base table")
        .paged()
        .expect("paged backing")
        .backing_files()
}

fn repair_count(s: &SqlShare, counter: &str) -> u64 {
    s.integrity()
        .report()
        .get("repairs")
        .and_then(|r| r.get(counter))
        .and_then(Json::as_f64)
        .unwrap_or(0.0) as u64
}

// ---------------------------------------------------------------------
// 1. The tentpole: a live primary/standby pair under random at-rest bit
//    flips. Scrub → quarantine → degraded serving → repair ladder →
//    correct again, with an in-memory oracle judging every answer and
//    the standby's digest staying in lockstep throughout. The end
//    phase rots the non-page families on the same live pair: query log
//    (parse-level finding), WAL (interior rot refuses recovery; the
//    byte-identical standby journal repairs it).
// ---------------------------------------------------------------------

#[test]
fn bit_rot_chaos_on_a_live_pair_never_serves_wrong_data() {
    let mut rng = Rng(rot_seed());
    let p_dir = temp_dir("chaos-p");
    let s_dir = temp_dir("chaos-s");
    let pages = p_dir.join("pages");

    // Primary: durable + paged, snapshots off so the WAL always covers
    // every mutation (rung 2 is always available, and the standby feed
    // never resets). Oracle: pure in-memory, never rotted. Standby:
    // durable, fed the primary's WAL records.
    let mut primary = SqlShare::open(durable_options(&p_dir, u64::MAX)).unwrap();
    primary.set_storage(Some(tiny_layer(&pages)));
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

    let (mut rebuilt, mut remat) = (0usize, 0usize);
    for round in 0..8 {
        // Keep the journal growing so rung 2 always replays history.
        let extra = wide_csv(&format!("r{round}"), 40);
        for s in [&mut primary, &mut oracle] {
            s.upload("ada", &format!("extra{round}"), &extra, &IngestOptions::default())
                .unwrap();
        }

        // Strike: even rounds rot a secondary index, odd rounds rot a
        // heap — exercising both local rungs of the ladder.
        let key = format!("{}$base", tables[rng.below(tables.len())]);
        let files = backing(&primary, &key);
        let target = if round % 2 == 0 {
            let idx: Vec<_> = files.iter().filter(|(col, _)| col.is_some()).collect();
            idx[rng.below(idx.len())].1.clone()
        } else {
            files.iter().find(|(col, _)| col.is_none()).unwrap().1.clone()
        };
        flip_every_page(&target, &mut rng);

        // Detection: the scrubber must find the rot and the finding
        // must map back to exactly the owning table.
        let findings = scrub(&[&p_dir, &pages]);
        assert!(
            findings.iter().any(|f| f.path == target),
            "round {round}: scrub missed rot in {target:?}"
        );
        for f in &findings {
            if let Some(owner) = primary.quarantine_file_finding(&f.path, &f.detail) {
                assert_eq!(owner, key, "round {round}: finding blamed the wrong table");
            }
        }
        assert!(primary.is_degraded(), "round {round}: no quarantine");

        // Degraded serving: every outcome is correct-or-typed-corrupt,
        // and only the quarantined table may fail.
        let sqls = battery(&tables, rng.below(2200));
        differential(&primary, &oracle, &sqls);
        primary.quarantine_poisoned();

        // Repair: a durable node must fix everything locally.
        let repairs = primary.repair_quarantined();
        assert!(!repairs.is_empty(), "round {round}: nothing repaired");
        for (name, repair) in &repairs {
            match repair {
                Repair::RebuiltFromHeap => rebuilt += 1,
                Repair::Rematerialized => remat += 1,
                other => panic!("round {round}: {name} repair escalated: {other:?}"),
            }
        }
        assert!(!primary.is_degraded(), "round {round}: still degraded");

        // Repaired-then-correct: the same battery now matches the
        // oracle on every query, and a fresh sweep is clean.
        let (correct, corrupt) = differential(&primary, &oracle, &sqls);
        assert_eq!(corrupt, 0, "round {round}: corrupt after repair");
        assert_eq!(correct, sqls.len());
        let clean = scrub(&[&p_dir, &pages]);
        assert!(clean.is_empty(), "round {round}: repair left rot: {clean:?}");

        // The standby applied the same records and stays byte-for-byte
        // in step with the oracle — repairs never leak wrong state.
        repl_off = replicate(&wal, repl_off, &mut standby);
        assert_eq!(
            standby.durable_digest(),
            oracle.durable_digest(),
            "round {round}: standby diverged"
        );
    }
    assert!(rebuilt >= 1, "no index-rot round exercised rung 1");
    assert!(remat >= 1, "no heap-rot round exercised rung 2");

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
// 2. Rung 1, deterministically: index rot is rebuilt from the intact
//    local heap, answers unchanged, counters visible.
// ---------------------------------------------------------------------

#[test]
fn index_rot_is_rebuilt_from_the_intact_local_heap() {
    let mut rng = Rng(rot_seed() ^ 0x11);
    let dir = temp_dir("rung1");
    let pages = dir.join("pages");
    let mut s = SqlShare::open(durable_options(&dir, u64::MAX)).unwrap();
    s.set_storage(Some(tiny_layer(&pages)));
    pin(&mut s);
    s.register_user("ada", "ada@uw.edu").unwrap();
    s.upload("ada", "t", &wide_csv("t", 2200), &IngestOptions::default())
        .unwrap();

    let tables = vec!["ada.t".to_string()];
    let sqls = battery(&tables, 321);
    let want: Vec<_> = sqls
        .iter()
        .map(|q| s.run_query("ada", q).unwrap().rows)
        .collect();

    let key = "ada.t$base";
    let files = backing(&s, key);
    let idx_path = files.iter().find(|(col, _)| col.is_some()).unwrap().1.clone();
    flip_every_page(&idx_path, &mut rng);

    let findings = scrub(&[&pages]);
    assert!(!findings.is_empty(), "scrub missed index rot");
    for f in &findings {
        assert_eq!(f.path, idx_path, "finding outside the rotted index");
        assert_eq!(
            s.quarantine_file_finding(&f.path, &f.detail).as_deref(),
            Some(key)
        );
    }
    assert!(s.is_degraded());

    let repairs = s.repair_quarantined();
    assert_eq!(repairs, vec![(key.to_string(), Repair::RebuiltFromHeap)]);
    assert!(!s.is_degraded());
    assert_eq!(repair_count(&s, "indexRebuilds"), 1);

    for (q, w) in sqls.iter().zip(&want) {
        assert_eq!(&s.run_query("ada", q).unwrap().rows, w, "post-repair: {q}");
    }
    assert!(scrub(&[&pages]).is_empty(), "repair left rot behind");
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// 3. Rung 2, deterministically: heap rot is re-materialized from the
//    latest snapshot brought forward by later WAL records — including a
//    delete + re-upload of the same name, so the repair must land on
//    the *current* generation, not the snapshotted one.
// ---------------------------------------------------------------------

#[test]
fn heap_rot_is_rematerialized_from_snapshot_plus_wal() {
    let mut rng = Rng(rot_seed() ^ 0x22);
    let dir = temp_dir("rung2");
    let pages = dir.join("pages");
    let mut s = SqlShare::open(durable_options(&dir, 3)).unwrap();
    s.set_storage(Some(tiny_layer(&pages)));
    pin(&mut s);
    s.register_user("ada", "ada@uw.edu").unwrap(); // lsn 1
    s.upload("ada", "t", &wide_csv("v1", 600), &IngestOptions::default())
        .unwrap(); // lsn 2
    s.upload("ada", "filler", "x,y\n1,2\n", &IngestOptions::default())
        .unwrap(); // lsn 3 → snapshot + WAL reset: the snapshot holds v1
    s.delete_dataset("ada", &sqlshare_core::DatasetName::new("ada", "t"))
        .unwrap(); // lsn 4, WAL only
    s.upload("ada", "t", &wide_csv("v2", 2600), &IngestOptions::default())
        .unwrap(); // lsn 5, WAL only

    let scan = "SELECT a, b, c, d FROM ada.t";
    let want = s.run_query("ada", scan).unwrap().rows;
    assert_eq!(want.len(), 2600);

    let key = "ada.t$base";
    let heap_path = backing(&s, key)
        .iter()
        .find(|(col, _)| col.is_none())
        .unwrap()
        .1
        .clone();
    flip_every_page(&heap_path, &mut rng);

    // Query-time detection: the scan trips a checksum, poisons the
    // page, and surfaces the typed error.
    let err = s.run_query("ada", scan).unwrap_err();
    assert_eq!(err.kind(), "corrupt", "heap rot not typed: {err}");
    assert_eq!(s.quarantine_poisoned(), vec![key.to_string()]);

    // Rung 1 cannot help (the heap itself is rotted); rung 2 replays
    // snapshot(v1) → delete → upload(v2) and must end on v2.
    let repairs = s.repair_quarantined();
    assert_eq!(repairs, vec![(key.to_string(), Repair::Rematerialized)]);
    assert!(!s.is_degraded());
    assert_eq!(repair_count(&s, "rematerializations"), 1);
    assert_eq!(s.run_query("ada", scan).unwrap().rows, want);
    assert!(scrub(&[&pages]).is_empty(), "repair left rot behind");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Rung 2 for a table a snapshot already holds: its rows come from the
/// segment its manifest entry names — read alone, not with the rest of
/// the snapshot — and no WAL record mentions it.
#[test]
fn heap_rot_of_a_table_in_a_segment_is_rematerialized_from_it() {
    let mut rng = Rng(rot_seed() ^ 0x23);
    let dir = temp_dir("rung2-segment");
    let pages = dir.join("pages");
    let mut s = SqlShare::open(durable_options(&dir, 3)).unwrap();
    s.set_storage(Some(tiny_layer(&pages)));
    pin(&mut s);
    s.register_user("ada", "ada@uw.edu").unwrap(); // lsn 1
    s.upload("ada", "t", &wide_csv("seg", 2600), &IngestOptions::default())
        .unwrap(); // lsn 2
    s.upload("ada", "u", "x,y\n1,2\n", &IngestOptions::default())
        .unwrap(); // lsn 3 → snapshot: one segment holds t and u
    s.upload("ada", "v", "x,y\n3,4\n", &IngestOptions::default())
        .unwrap(); // lsn 4, WAL only
    s.upload("ada", "w", "x,y\n5,6\n", &IngestOptions::default())
        .unwrap(); // lsn 5, WAL only
    let segments: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.file_name().unwrap().to_str().unwrap().starts_with("segment-"))
        .collect();
    assert_eq!(segments.len(), 1, "{segments:?}");
    let segment = std::fs::read_to_string(&segments[0]).unwrap();
    assert!(segment.contains("\"ada.t$base\""), "t is in the segment");

    let scan = "SELECT a, b, c, d FROM ada.t";
    let want = s.run_query("ada", scan).unwrap().rows;
    assert_eq!(want.len(), 2600);
    let key = "ada.t$base";
    let heap_path = backing(&s, key)
        .iter()
        .find(|(col, _)| col.is_none())
        .unwrap()
        .1
        .clone();
    flip_every_page(&heap_path, &mut rng);
    assert_eq!(s.run_query("ada", scan).unwrap_err().kind(), "corrupt");
    assert_eq!(s.quarantine_poisoned(), vec![key.to_string()]);

    let repairs = s.repair_quarantined();
    assert_eq!(repairs, vec![(key.to_string(), Repair::Rematerialized)]);
    assert!(!s.is_degraded());
    assert_eq!(s.run_query("ada", scan).unwrap().rows, want);
    assert!(scrub(&[&pages]).is_empty(), "repair left rot behind");

    // With the segment rotted, the snapshot cannot vouch for t: rung 2
    // declines and the replica rung is next.
    let heap_path = backing(&s, key)
        .into_iter()
        .find(|(col, _)| col.is_none())
        .unwrap()
        .1;
    flip_every_page(&heap_path, &mut rng);
    flip_random_bit(&segments[0], &mut rng);
    assert_eq!(s.run_query("ada", scan).unwrap_err().kind(), "corrupt");
    assert_eq!(s.quarantine_poisoned(), vec![key.to_string()]);
    let repairs = s.repair_quarantined();
    assert!(matches!(repairs[..], [(_, Repair::NeedsReplica(_))]), "{repairs:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// 4. Rung 3: an ephemeral node (no snapshot, no WAL) with heap rot can
//    only be repaired from a replica. Backing files are
//    byte-deterministic across replicas; fetched images are
//    checksum-verified before installation; repair converges page by
//    page as queries uncover more rot.
// ---------------------------------------------------------------------

#[test]
fn ephemeral_heap_rot_is_repaired_page_by_page_from_a_replica() {
    let mut rng = Rng(rot_seed() ^ 0x33);
    let a_pages = temp_dir("rung3-a");
    let b_pages = temp_dir("rung3-b");
    let mut a = SqlShare::new();
    a.set_storage(Some(tiny_layer(&a_pages)));
    pin(&mut a);
    let mut b = SqlShare::new();
    b.set_storage(Some(tiny_layer(&b_pages)));
    pin(&mut b);

    let csv = wide_csv("t", 2600);
    for s in [&mut a, &mut b] {
        s.register_user("ada", "ada@uw.edu").unwrap();
        s.upload("ada", "t", &csv, &IngestOptions::default()).unwrap();
    }
    let key = "ada.t$base";

    // The repair-from-replica design rests on page files being
    // byte-deterministic across replicas that applied the same history.
    let files_a = backing(&a, key);
    let files_b = backing(&b, key);
    assert_eq!(files_a.len(), files_b.len());
    for ((col_a, pa), (col_b, pb)) in files_a.iter().zip(&files_b) {
        assert_eq!(col_a, col_b);
        assert_eq!(
            std::fs::read(pa).unwrap(),
            std::fs::read(pb).unwrap(),
            "replica page files diverge for column {col_a:?}"
        );
    }

    let scan = "SELECT a, b, c, d FROM ada.t";
    let want = a.run_query("ada", scan).unwrap().rows;
    let heap_b = files_b.iter().find(|(col, _)| col.is_none()).unwrap().1.clone();
    flip_every_page(&heap_b, &mut rng);

    let err = b.run_query("ada", scan).unwrap_err();
    assert_eq!(err.kind(), "corrupt");
    assert_eq!(b.quarantine_poisoned(), vec![key.to_string()]);
    let repairs = b.repair_quarantined();
    assert_eq!(repairs.len(), 1);
    assert!(
        matches!(repairs[0].1, Repair::NeedsReplica(_)),
        "ephemeral node found a local rung: {:?}",
        repairs[0].1
    );
    assert!(b.is_degraded(), "NeedsReplica must keep the quarantine");

    // A tampered fetch is rejected before it touches the file.
    let (file, pages) = b.poisoned_pages(key).into_iter().next().unwrap();
    let mut tampered = a.replication_page(key, file, pages[0]).unwrap();
    tampered[100] ^= 1;
    let err = b.install_replica_page(key, file, pages[0], &tampered).unwrap_err();
    assert_eq!(err.kind(), "corrupt", "tampered page installed: {err}");

    // Converge: fetch-verify-install every poisoned page, re-query to
    // uncover the next rotted page, repeat. The scan stops at the first
    // bad page, so repair is necessarily incremental.
    let mut spins = 0;
    loop {
        spins += 1;
        assert!(spins <= 64, "replica repair did not converge");
        for (file, pages) in b.poisoned_pages(key) {
            for no in pages {
                assert_eq!(
                    a.table_row_count(key),
                    b.table_row_count(key),
                    "generation cross-check failed"
                );
                let image = a.replication_page(key, file, no).unwrap();
                b.install_replica_page(key, file, no, &image).unwrap();
            }
        }
        match b.run_query("ada", scan) {
            Ok(got) => {
                assert_eq!(got.rows, want, "replica repair produced wrong data");
                break;
            }
            Err(e) => {
                assert_eq!(e.kind(), "corrupt");
                b.quarantine_poisoned();
            }
        }
    }
    assert!(!b.is_degraded(), "quarantine survived a completed repair");
    assert!(repair_count(&b, "replicaFetches") >= 1);
    assert!(scrub(&[&b_pages]).is_empty(), "repair left rot behind");
    let _ = std::fs::remove_dir_all(&a_pages);
    let _ = std::fs::remove_dir_all(&b_pages);
}

// ---------------------------------------------------------------------
// 5. WAL: a torn tail truncates and recovers (the unacked record is
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
// 6. Snapshot candidates: a corrupt candidate the WAL still covers is
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
        assert_eq!(s.quarantine_file_finding(&f.path, &f.detail), None);
    }
    assert!(!s.is_degraded(), "no table is quarantined for it");
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
// 7. Detection sweep (satellite): one random seeded bit flip per file
//    family — heap page, B-tree page, WAL, snapshot, query log — must
//    be *detected*: a scrub finding for pages and snapshots; for the two
//    record logs (WAL, query log), a finding or a recovery-time
//    truncation/refusal (tail rot is deliberately left to recovery).
// ---------------------------------------------------------------------

#[test]
fn a_random_bit_flip_in_every_file_family_is_detected() {
    let mut rng = Rng(rot_seed() ^ 0x66);
    let dir = temp_dir("families");
    let pages = dir.join("pages");
    let mut s = SqlShare::open(durable_options(&dir, 3)).unwrap();
    s.set_storage(Some(tiny_layer(&pages)));
    pin(&mut s);
    s.register_user("ada", "ada@uw.edu").unwrap();
    s.upload("ada", "t", &wide_csv("t", 400), &IngestOptions::default()).unwrap();
    s.upload("ada", "u", "x,y\n1,2\n", &IngestOptions::default()).unwrap(); // lsn 3 → snapshot
    s.upload("ada", "v", "x,y\n3,4\n", &IngestOptions::default()).unwrap();
    s.run_query("ada", "SELECT COUNT(*) FROM ada.t").unwrap();
    s.run_query("ada", "SELECT x FROM ada.u").unwrap();
    // The service stays alive through the sweep: dropping it would
    // delete the paged backing files. The scrubber reads the disk
    // images directly, so live cached frames never mask a flip.
    let files = backing(&s, "ada.t$base");
    let heap = files.iter().find(|(c, _)| c.is_none()).unwrap().1.clone();
    let btree = files.iter().find(|(c, _)| c.is_some()).unwrap().1.clone();

    let wal = dir.join("wal.log");
    let qlog = dir.join("querylog.log");
    let snapshot = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .find(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("snapshot-") && n.ends_with(".json"))
        })
        .expect("cadence wrote a snapshot");

    let families: Vec<(&str, &Path)> = vec![
        ("heap", &heap),
        ("btree", &btree),
        ("wal", &wal),
        ("snapshot", &snapshot),
        ("querylog", &qlog),
    ];
    for (family, path) in &families {
        let pristine = std::fs::read(path).unwrap();
        assert!(!pristine.is_empty(), "{family} file is empty");
        let clean_frames = Wal::verify(path, &IoCounter::new()).unwrap().frames;
        for trial in 0..20 {
            let bit = rng.below(pristine.len() * 8);
            flip_bit(path, bit);
            let found = scrub(&[&dir, &pages]).iter().any(|f| &f.path == path);
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
// 8. Over HTTP: the server's env-configured scrub thread detects
//    on-disk rot, quarantines, repairs through the ladder, and the
//    whole story is observable via GET /api/integrity; GET
//    /api/repl/page serves verifiable raw pages to peers.
// ---------------------------------------------------------------------

#[test]
fn http_scrub_thread_repairs_index_rot_and_serves_pages() {
    use crate::http::{HttpClient, ReplayOp};
    use sqlshare_server::{HttpConfig, Server};

    let mut rng = Rng(rot_seed() ^ 0x77);
    let dir = temp_dir("http");
    let pages = dir.join("pages");
    let mut svc = SqlShare::open(durable_options(&dir, u64::MAX)).unwrap();
    svc.set_storage(Some(tiny_layer(&pages)));
    pin(&mut svc);
    svc.register_user("ada", "ada@uw.edu").unwrap();
    svc.upload("ada", "t", &wide_csv("t", 2200), &IngestOptions::default())
        .unwrap();
    let files = backing(&svc, "ada.t$base");
    let idx_path = files.iter().find(|(c, _)| c.is_some()).unwrap().1.clone();
    let heap_path = files.iter().find(|(c, _)| c.is_none()).unwrap().1.clone();

    let cfg = HttpConfig {
        scrub: ScrubConfig { every_ms: 10, io_budget: 100_000 },
        ..HttpConfig::default()
    };
    let server = Server::start(svc, "127.0.0.1:0", cfg).expect("bind");
    let mut client = HttpClient::new(server.addr());

    // GET /api/repl/page round-trips a raw page, hex-encoded, with the
    // row count a fetching peer cross-checks; bad params are a 400.
    let hex = |bytes: &[u8]| {
        bytes.iter().map(|b| format!("{b:02x}")).collect::<String>()
    };
    let resp = client
        .request(&ReplayOp::Get(format!(
            "/api/repl/page?table={}&file=heap&no=0",
            hex(b"ada.t$base")
        )))
        .unwrap();
    assert_eq!(resp.status, 200);
    let doc = json::parse(&String::from_utf8_lossy(&resp.body)).unwrap();
    assert_eq!(doc.get("rowCount").and_then(Json::as_f64), Some(2200.0));
    let served = doc.get("bytes").and_then(Json::as_str).unwrap().to_string();
    let on_disk = &std::fs::read(&heap_path).unwrap()[..PAGE_SIZE];
    assert_eq!(served, hex(on_disk), "served page != on-disk page");
    let resp = client
        .request(&ReplayOp::Get("/api/repl/page?table=zz&file=heap".into()))
        .unwrap();
    assert_eq!(resp.status, 400);

    // Rot an index on disk; the scrub thread must detect, quarantine,
    // and repair it (rung 1) without any request touching the table.
    flip_every_page(&idx_path, &mut rng);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    loop {
        assert!(
            std::time::Instant::now() < deadline,
            "scrub thread never repaired the rot"
        );
        let resp = client
            .request(&ReplayOp::Get("/api/integrity".into()))
            .unwrap();
        assert_eq!(resp.status, 200);
        let doc = json::parse(&String::from_utf8_lossy(&resp.body)).unwrap();
        let rebuilt = doc
            .get("repairs")
            .and_then(|r| r.get("indexRebuilds"))
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        let degraded = matches!(doc.get("degraded"), Some(Json::Bool(true)));
        if rebuilt >= 1.0 && !degraded {
            let scrubbed = doc.get("scrub").and_then(|s| s.get("findings")).and_then(Json::as_f64);
            assert!(scrubbed.unwrap_or(0.0) >= 1.0, "repair without a finding");
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(25));
    }

    // And the repaired table still answers over the normal query path.
    let resp = client
        .request(&ReplayOp::Post(
            "/api/queries".into(),
            r#"{"user":"ada","sql":"SELECT COUNT(*) FROM ada.t"}"#.into(),
        ))
        .unwrap();
    assert!(resp.status < 300, "query after repair: {}", resp.status);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
