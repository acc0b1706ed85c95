//! Atomic catalog snapshots: `snapshot-<lsn>.json`, written via a
//! temporary file renamed into place.
//!
//! A snapshot captures the full durable state as of a WAL LSN, letting
//! recovery skip replaying history and letting the WAL be truncated.
//! The write protocol is the classic one:
//!
//! 1. write the payload to `snapshot-<lsn>.json.tmp`,
//! 2. fsync the file,
//! 3. rename it to `snapshot-<lsn>.json` (atomic on POSIX),
//! 4. fsync the directory so the rename itself is durable.
//!
//! A crash at any step leaves either the previous snapshot intact or a
//! stray `.tmp` that [`SnapshotStore::load_latest`] ignores and
//! [`SnapshotStore::prune`] deletes. `load_latest` walks candidates
//! newest-first and falls back past any whose checksum trailer is
//! missing, damaged or wrong, so a corrupted newest snapshot degrades
//! recovery (longer WAL replay from an older snapshot) instead of
//! breaking it.

use crate::IoCounter;
use sqlshare_common::hash::fnv64;
use sqlshare_common::{json, Error, Result};
use sqlshare_common::faults::{FaultPlan, FaultSite};
use std::fs::{self, File};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Manages the snapshot files inside one data directory.
#[derive(Debug)]
pub struct SnapshotStore {
    dir: PathBuf,
    fault: Option<Arc<FaultPlan>>,
    io: IoCounter,
}

fn io_err(what: &str, path: &Path, e: std::io::Error) -> Error {
    Error::Internal(format!("snapshot {what} {}: {e}", path.display()))
}

/// `snapshot-<lsn>.json` → `Some(lsn)`.
fn parse_name(name: &str) -> Option<u64> {
    name.strip_prefix("snapshot-")?
        .strip_suffix(".json")?
        .parse()
        .ok()
}

/// Result of [`SnapshotStore::load_latest_counted`]: the newest usable
/// snapshot plus how many newer candidates had to be skipped as corrupt
/// or unparseable. A nonzero count is at-rest rot worth surfacing in
/// boot logs and the recovery report, not a silent fallback.
#[derive(Debug)]
pub struct SnapshotLoad {
    /// The newest parseable snapshot, as `(lsn, payload)`.
    pub latest: Option<(u64, String)>,
    /// Newer candidates skipped because they failed to read or parse.
    pub skipped_candidates: u64,
    /// Highest LSN among the skipped candidates (0 when none). The LSN
    /// comes from the file *name*, which survives content rot — so a
    /// caller can tell whether the lineage advanced past the snapshot
    /// it ended up loading. That matters because a snapshot install
    /// resets the WAL: falling back behind a newer-but-corrupt
    /// candidate means the WAL no longer covers the gap, and recovery
    /// must refuse rather than silently lose acknowledged writes.
    pub max_skipped_lsn: u64,
}

/// Checksum trailer appended after the JSON payload. JSON alone cannot
/// detect every flipped bit (a rotted digit still parses), so writes
/// stamp an fnv64 over the payload and every reader verifies it. A file
/// without a whole trailer is a corrupt one: a cut-off tail must not
/// turn a checksummed file into a merely parseable one.
const SUM_MARKER: &str = "\n#fnv64=";

/// Bytes of the trailer [`SnapshotStore::write`] appends: the marker,
/// sixteen hex digits, a newline.
pub(crate) const TRAILER_LEN: u64 = SUM_MARKER.len() as u64 + 17;

/// The checksum a well-formed trailer carries, given the last
/// [`TRAILER_LEN`] bytes of a file. `None` for anything else.
pub(crate) fn trailer_sum(tail: &[u8]) -> Option<u64> {
    let hex = tail.strip_prefix(SUM_MARKER.as_bytes())?.strip_suffix(b"\n")?;
    if !hex.iter().all(u8::is_ascii_hexdigit) {
        return None; // `from_str_radix` would take a sign
    }
    u64::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()
}

/// The payload of a snapshot file whose trailer is whole and matches
/// it; `None` for a missing, damaged or mismatched trailer.
fn checked_payload(text: &str) -> Option<&str> {
    let at = text.len().checked_sub(TRAILER_LEN as usize)?;
    let sum = trailer_sum(&text.as_bytes()[at..])?;
    // `at` is a char boundary: the byte there is the marker's newline.
    let payload = &text[..at];
    (sum == fnv64(payload.as_bytes())).then_some(payload)
}

/// Whether a snapshot file's full contents verify: the trailer checksum
/// must be there and match, and the payload must parse as JSON. Used by
/// the scrubber, which reads candidate files straight off disk.
pub fn verify_payload(text: &str) -> bool {
    checked_payload(text).is_some_and(|payload| json::parse(payload).is_ok())
}

impl SnapshotStore {
    pub fn new(dir: &Path) -> SnapshotStore {
        SnapshotStore::new_counted(dir, IoCounter::new())
    }

    /// [`SnapshotStore::new`] with a caller-supplied [`IoCounter`].
    pub fn new_counted(dir: &Path, io: IoCounter) -> SnapshotStore {
        SnapshotStore {
            dir: dir.to_path_buf(),
            fault: None,
            io,
        }
    }

    /// Attach a fault plan checked at `SnapshotWrite`.
    pub fn set_fault_plan(&mut self, plan: Option<Arc<FaultPlan>>) {
        self.fault = plan;
    }

    fn path_for(&self, lsn: u64) -> PathBuf {
        self.dir.join(format!("snapshot-{lsn}.json"))
    }

    /// Atomically persist `payload` as the snapshot at `lsn`. On any
    /// failure (including an injected `SnapshotWrite` fault) the
    /// previous snapshot remains the latest valid one.
    pub fn write(&self, lsn: u64, payload: &str) -> Result<PathBuf> {
        if let Some(plan) = &self.fault {
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                plan.check(FaultSite::SnapshotWrite)
            })) {
                Ok(r) => r?,
                Err(payload) => return Err(Error::from_panic(payload)),
            }
        }
        let tmp = self.dir.join(format!("snapshot-{lsn}.json.tmp"));
        let finished = self.path_for(lsn);
        self.io.bump();
        let mut f = File::create(&tmp).map_err(|e| io_err("create", &tmp, e))?;
        let sum = fnv64(payload.as_bytes());
        f.write_all(payload.as_bytes())
            .and_then(|()| f.write_all(format!("{SUM_MARKER}{sum:016x}\n").as_bytes()))
            .and_then(|()| f.sync_all())
            .map_err(|e| io_err("write", &tmp, e))?;
        drop(f);
        self.io.bump();
        fs::rename(&tmp, &finished).map_err(|e| io_err("rename", &finished, e))?;
        // Make the rename durable. Directory fsync can fail on exotic
        // filesystems; the rename already happened, so don't fail the
        // snapshot over it.
        if let Ok(d) = File::open(&self.dir) {
            self.io.bump();
            let _ = d.sync_all();
        }
        Ok(finished)
    }

    /// The newest snapshot that verifies ([`verify_payload`]), as
    /// `(lsn, payload)`. Candidates that do not are skipped (fallback to
    /// older snapshots); `.tmp` leftovers are never considered.
    pub fn load_latest(&self) -> Result<Option<(u64, String)>> {
        Ok(self.load_latest_counted()?.latest)
    }

    /// [`SnapshotStore::load_latest`] that also counts the corrupt or
    /// unparseable candidates skipped on the way to a usable snapshot.
    /// An attached fault plan's `SnapshotLoad` rot site may flip a
    /// seeded bit in each candidate's read image before parsing.
    pub fn load_latest_counted(&self) -> Result<SnapshotLoad> {
        let mut lsns = self.list()?;
        lsns.sort_unstable_by(|a, b| b.cmp(a));
        let mut skipped = 0u64;
        let mut max_skipped = 0u64;
        for lsn in lsns {
            let path = self.path_for(lsn);
            self.io.bump();
            let usable = (|| {
                let Ok(mut payload) = fs::read(&path) else {
                    return None;
                };
                if let Some(plan) = &self.fault {
                    plan.rot(FaultSite::SnapshotLoad, &mut payload);
                }
                let text = String::from_utf8(payload).ok()?;
                let payload = checked_payload(&text)?;
                json::parse(payload).ok().map(|_| payload.to_string())
            })();
            match usable {
                Some(payload) => {
                    return Ok(SnapshotLoad {
                        latest: Some((lsn, payload)),
                        skipped_candidates: skipped,
                        max_skipped_lsn: max_skipped,
                    });
                }
                None => {
                    skipped += 1;
                    max_skipped = max_skipped.max(lsn);
                }
            }
        }
        Ok(SnapshotLoad {
            latest: None,
            skipped_candidates: skipped,
            max_skipped_lsn: max_skipped,
        })
    }

    /// Delete all but the newest `keep` snapshots, plus any stray
    /// `.tmp` files from interrupted writes.
    pub fn prune(&self, keep: usize) -> Result<()> {
        let mut lsns = self.list()?;
        lsns.sort_unstable_by(|a, b| b.cmp(a));
        for lsn in lsns.into_iter().skip(keep) {
            self.io.bump();
            let _ = fs::remove_file(self.path_for(lsn));
        }
        self.io.bump();
        for entry in fs::read_dir(&self.dir).map_err(|e| io_err("list", &self.dir, e))? {
            let Ok(entry) = entry else { continue };
            if entry.file_name().to_string_lossy().ends_with(".json.tmp") {
                self.io.bump();
                let _ = fs::remove_file(entry.path());
            }
        }
        Ok(())
    }

    /// LSNs of every `snapshot-<lsn>.json` in the directory.
    pub fn list(&self) -> Result<Vec<u64>> {
        if !self.dir.exists() {
            return Ok(Vec::new());
        }
        self.io.bump();
        let mut lsns = Vec::new();
        for entry in fs::read_dir(&self.dir).map_err(|e| io_err("list", &self.dir, e))? {
            let Ok(entry) = entry else { continue };
            if let Some(lsn) = parse_name(&entry.file_name().to_string_lossy()) {
                lsns.push(lsn);
            }
        }
        Ok(lsns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "sqlshare-snap-{}-{}-{}",
            std::process::id(),
            tag,
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn write_then_load_latest_round_trips() {
        let store = SnapshotStore::new(&temp_dir("round"));
        store.write(3, r#"{"v":3}"#).unwrap();
        store.write(9, r#"{"v":9}"#).unwrap();
        store.write(5, r#"{"v":5}"#).unwrap();
        let (lsn, payload) = store.load_latest().unwrap().unwrap();
        assert_eq!(lsn, 9);
        assert_eq!(payload, r#"{"v":9}"#);
    }

    #[test]
    fn corrupt_newest_snapshot_falls_back_to_older() {
        let dir = temp_dir("fallback");
        let store = SnapshotStore::new(&dir);
        store.write(1, r#"{"v":1}"#).unwrap();
        store.write(2, r#"{"v":2}"#).unwrap();
        // Simulate a torn snapshot write that somehow got renamed (or a
        // disk corruption after the fact).
        fs::write(dir.join("snapshot-7.json"), r#"{"v":"#).unwrap();
        let (lsn, payload) = store.load_latest().unwrap().unwrap();
        assert_eq!(lsn, 2);
        assert_eq!(payload, r#"{"v":2}"#);
        // The skip is counted, not silent.
        let load = store.load_latest_counted().unwrap();
        assert_eq!(load.skipped_candidates, 1);
        assert_eq!(load.latest.unwrap().0, 2);
        fs::write(dir.join("snapshot-8.json"), [0xFFu8, 0xFE]).unwrap();
        assert_eq!(store.load_latest_counted().unwrap().skipped_candidates, 2);
    }

    #[test]
    fn snapshot_load_rot_site_degrades_to_older_snapshot() {
        let dir = temp_dir("rot");
        let mut store = SnapshotStore::new(&dir);
        store.write(1, r#"{"v":1}"#).unwrap();
        store.write(2, r#"{"v":2}"#).unwrap();
        store.set_fault_plan(Some(Arc::new(FaultPlan::rot_at(FaultSite::SnapshotLoad))));
        // Every candidate read rots one bit. The invariant under rot is
        // "never wrong data": a returned payload must be byte-identical
        // to something that was actually written (detection skipped past
        // anything the flip damaged).
        let load = store.load_latest_counted().unwrap();
        if let Some((lsn, payload)) = &load.latest {
            assert_eq!(*payload, format!(r#"{{"v":{lsn}}}"#), "rot fed wrong data");
        }
        // The files themselves are untouched: a clean store still loads.
        store.set_fault_plan(None);
        let clean = store.load_latest_counted().unwrap();
        assert_eq!(clean.skipped_candidates, 0);
        assert_eq!(clean.latest.unwrap(), (2, r#"{"v":2}"#.to_string()));
    }

    #[test]
    fn any_single_bit_flip_in_a_snapshot_file_is_never_wrong_data() {
        // The trailer checksum closes the JSON blind spot (a rotted
        // digit still parses): for every possible single-bit flip the
        // store either skips the file or returns the exact payload.
        let dir = temp_dir("flip");
        let store = SnapshotStore::new(&dir);
        let payload = r#"{"v":123456789,"tag":"integrity"}"#;
        store.write(5, payload).unwrap();
        let path = dir.join("snapshot-5.json");
        let sealed = fs::read(&path).unwrap();
        for bit in 0..sealed.len() * 8 {
            let mut bytes = sealed.clone();
            bytes[bit / 8] ^= 1 << (bit % 8);
            fs::write(&path, &bytes).unwrap();
            let load = store.load_latest_counted().unwrap();
            match load.latest {
                None => assert_eq!(load.skipped_candidates, 1, "bit {bit}"),
                Some((lsn, got)) => {
                    assert_eq!((lsn, got.as_str()), (5, payload), "bit {bit} fed wrong data");
                }
            }
        }
        fs::write(&path, &sealed).unwrap();
        assert_eq!(store.load_latest().unwrap().unwrap().1, payload);
    }

    #[test]
    fn a_file_without_a_whole_trailer_is_a_corrupt_candidate() {
        let dir = temp_dir("trailer");
        let store = SnapshotStore::new(&dir);
        store.write(1, r#"{"v":1}"#).unwrap();
        let sealed = fs::read(store.write(2, r#"{"v":2}"#).unwrap()).unwrap();
        let newest = dir.join("snapshot-2.json");
        // Every way of losing the trailer, the payload still being JSON:
        // cut off whole, cut off part-way, its final newline gone, or
        // never written.
        let marker = sealed.len() - TRAILER_LEN as usize;
        for len in [marker, marker + 1, marker + 12, sealed.len() - 1] {
            fs::write(&newest, &sealed[..len]).unwrap();
            let load = store.load_latest_counted().unwrap();
            assert_eq!(load.latest.unwrap(), (1, r#"{"v":1}"#.to_string()), "cut at {len}");
            assert_eq!((load.skipped_candidates, load.max_skipped_lsn), (1, 2), "cut at {len}");
            assert!(!verify_payload(std::str::from_utf8(&sealed[..len]).unwrap()));
        }
        fs::write(&newest, &sealed).unwrap();
        assert_eq!(store.load_latest_counted().unwrap().skipped_candidates, 0);
        assert!(verify_payload(std::str::from_utf8(&sealed).unwrap()));
    }

    #[test]
    fn tmp_files_are_ignored_and_pruned() {
        let dir = temp_dir("tmp");
        let store = SnapshotStore::new(&dir);
        fs::write(dir.join("snapshot-99.json.tmp"), "{}").unwrap();
        assert!(store.load_latest().unwrap().is_none());
        store.write(1, "{}").unwrap();
        store.prune(2).unwrap();
        assert!(!dir.join("snapshot-99.json.tmp").exists());
        assert!(dir.join("snapshot-1.json").exists());
    }

    #[test]
    fn prune_keeps_newest() {
        let dir = temp_dir("prune");
        let store = SnapshotStore::new(&dir);
        for lsn in [1, 4, 2, 8] {
            store.write(lsn, "{}").unwrap();
        }
        store.prune(2).unwrap();
        let mut left = store.list().unwrap();
        left.sort_unstable();
        assert_eq!(left, vec![4, 8]);
    }

    #[test]
    fn injected_snapshot_fault_preserves_previous_snapshot() {
        let dir = temp_dir("fault");
        let mut store = SnapshotStore::new(&dir);
        store.write(1, r#"{"v":1}"#).unwrap();
        store.set_fault_plan(Some(Arc::new(FaultPlan::fail_at(FaultSite::SnapshotWrite))));
        let err = store.write(2, r#"{"v":2}"#).unwrap_err();
        assert_eq!(err.kind(), "execution");
        store.set_fault_plan(None);
        let (lsn, _) = store.load_latest().unwrap().unwrap();
        assert_eq!(lsn, 1);
        assert!(!dir.join("snapshot-2.json").exists());
        assert!(!dir.join("snapshot-2.json.tmp").exists());
    }

    #[test]
    fn missing_dir_lists_empty() {
        let store = SnapshotStore::new(&temp_dir("gone").join("nope"));
        assert!(store.list().unwrap().is_empty());
        assert!(store.load_latest().unwrap().is_none());
    }
}
