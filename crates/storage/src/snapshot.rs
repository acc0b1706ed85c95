//! Atomic snapshots: a `snapshot-<lsn>.json` **manifest** and the
//! `segment-<lsn>.json` **segments** it names, each written via a
//! temporary file renamed into place.
//!
//! A snapshot captures the durable state as of a WAL LSN, letting
//! recovery skip replaying history and letting the WAL be truncated.
//! Base tables never change once created, so their rows are written
//! once: a snapshot writes one segment holding the tables born since
//! the previous snapshot (none when there are none), and a manifest of
//! everything else that names, for each table, the segment holding it.
//! What a manifest or a segment holds is the caller's; this module owns
//! the files. The write protocol is the classic one, segment first:
//!
//! 1. write the payload to `<name>.tmp`,
//! 2. fsync the file,
//! 3. rename it to `<name>` (atomic on POSIX),
//! 4. once both renames are done, fsync the directory so they are
//!    durable before the caller truncates the WAL.
//!
//! A crash at any step leaves either the previous snapshot intact or a
//! stray `.tmp` or an unnamed segment, which recovery never reads and
//! [`SnapshotStore::prune`] and [`SnapshotStore::prune_segments`]
//! delete. [`SnapshotStore::load_latest_with`] walks manifests
//! newest-first and falls back past any whose checksum trailer is
//! missing, damaged or wrong — or, by the caller's check, that names a
//! segment that does not verify — so a corrupted newest snapshot
//! degrades recovery (longer WAL replay from an older snapshot) instead
//! of breaking it.

use crate::IoCounter;
use sqlshare_common::faults::{FaultPlan, FaultSite};
use sqlshare_common::hash::fnv64;
use sqlshare_common::{json, Error, Result};
use std::collections::BTreeSet;
use std::fs::{self, File};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Manages the snapshot files inside one data directory.
#[derive(Debug)]
pub struct SnapshotStore {
    dir: PathBuf,
    fault: Option<Arc<FaultPlan>>,
    io: IoCounter,
    /// The step of the write protocol a simulated crash stops at.
    crash: Option<SnapshotStep>,
    crashed: AtomicBool,
}

/// A step of a snapshot's write protocol, for crash tests: a store armed
/// with one ([`SnapshotStore::set_crash_step`]) "dies" right after it —
/// nothing further is written, and the owner stops journaling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotStep {
    /// The segment's temporary file is written and synced, not renamed.
    SegmentTmp,
    /// The segment is renamed into place; no manifest names it yet.
    SegmentRename,
    /// The manifest is renamed into place; the WAL is not yet reset.
    ManifestRename,
    /// The WAL is reset; nothing is pruned yet.
    WalReset,
    /// Older manifests are pruned; their segments are not.
    Prune,
}

fn io_err(what: &str, path: &Path, e: std::io::Error) -> Error {
    Error::Internal(format!("snapshot {what} {}: {e}", path.display()))
}

/// `<prefix><lsn>.json` → `Some(lsn)`.
fn parse_name(prefix: &str, name: &str) -> Option<u64> {
    name.strip_prefix(prefix)?
        .strip_suffix(".json")?
        .parse()
        .ok()
}

const MANIFEST: &str = "snapshot-";
const SEGMENT: &str = "segment-";

/// The LSN of a `segment-<lsn>.json` path; `None` for any other file.
pub fn segment_lsn(path: &Path) -> Option<u64> {
    parse_name(SEGMENT, path.file_name()?.to_str()?)
}

/// Result of [`SnapshotStore::load_latest_with`]: the newest usable
/// snapshot plus how many newer candidates had to be skipped as corrupt
/// or unusable. A nonzero count is at-rest rot worth surfacing in boot
/// logs and the recovery report, not a silent fallback.
#[derive(Debug)]
pub struct SnapshotLoad<T = String> {
    /// The newest usable manifest, as `(lsn, what the check made of it)`.
    pub latest: Option<(u64, T)>,
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

/// Bytes of the trailer every snapshot file ends with: the marker,
/// sixteen hex digits, a newline.
pub const TRAILER_LEN: u64 = SUM_MARKER.len() as u64 + 17;

/// The checksum a well-formed trailer carries, given the last
/// [`TRAILER_LEN`] bytes of a file. `None` for anything else. The digits
/// are the lowercase ones a write stamps: an uppercase one is a flipped
/// bit (`a` ^ 0x20 is `A`), not the same sum.
pub fn trailer_sum(tail: &[u8]) -> Option<u64> {
    let hex = tail.strip_prefix(SUM_MARKER.as_bytes())?.strip_suffix(b"\n")?;
    if !hex.iter().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')) {
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
/// the scrubber, which reads manifests and segments straight off disk.
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
            crash: None,
            crashed: AtomicBool::new(false),
        }
    }

    /// Attach a fault plan checked at `SnapshotWrite`.
    pub fn set_fault_plan(&mut self, plan: Option<Arc<FaultPlan>>) {
        self.fault = plan;
    }

    /// Arm (or clear) a simulated crash right after `step`.
    pub fn set_crash_step(&mut self, step: Option<SnapshotStep>) {
        self.crash = step;
    }

    /// Whether an armed [`SnapshotStep`] has fired.
    pub fn crashed(&self) -> bool {
        self.crashed.load(Ordering::Relaxed)
    }

    /// The simulated crash, when `step` is the armed one; a store that
    /// crashed refuses every further step.
    pub fn crash_after(&self, step: SnapshotStep) -> Result<()> {
        if self.crash == Some(step) {
            self.crashed.store(true, Ordering::Relaxed);
        }
        if self.crashed() {
            return Err(Error::Internal(format!(
                "simulated crash after snapshot step {step:?}"
            )));
        }
        Ok(())
    }

    fn path_for(&self, lsn: u64) -> PathBuf {
        self.dir.join(format!("{MANIFEST}{lsn}.json"))
    }

    fn segment_path(&self, lsn: u64) -> PathBuf {
        self.dir.join(format!("{SEGMENT}{lsn}.json"))
    }

    /// Atomically persist `payload` as the manifest at `lsn`, with no
    /// segment. On any failure (including an injected `SnapshotWrite`
    /// fault) the previous snapshot remains the latest valid one.
    pub fn write(&self, lsn: u64, payload: &str) -> Result<PathBuf> {
        self.write_snapshot(lsn, None, payload)?;
        Ok(self.path_for(lsn))
    }

    /// Atomically persist one snapshot at `lsn`: `segment`, when there
    /// is one, as `segment-<lsn>.json`, then `manifest` as
    /// `snapshot-<lsn>.json`, then the directory fsync that makes both
    /// renames durable. A crash before that fsync can leave the manifest
    /// without its segment, which recovery skips like any corrupt
    /// candidate — the caller has not truncated the WAL yet. On any
    /// failure the previous snapshot remains the latest valid one.
    pub fn write_snapshot(&self, lsn: u64, segment: Option<&str>, manifest: &str) -> Result<()> {
        if self.crashed() {
            return Err(Error::Internal("simulated crash: snapshot store is dead".into()));
        }
        if let Some(plan) = &self.fault {
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                plan.check(FaultSite::SnapshotWrite)
            })) {
                Ok(r) => r?,
                Err(payload) => return Err(Error::from_panic(payload)),
            }
        }
        if let Some(segment) = segment {
            let finished = self.segment_path(lsn);
            let tmp = self.seal(&finished, segment)?;
            self.crash_after(SnapshotStep::SegmentTmp)?;
            self.io.bump();
            fs::rename(&tmp, &finished).map_err(|e| io_err("rename", &finished, e))?;
            self.crash_after(SnapshotStep::SegmentRename)?;
        }
        let finished = self.path_for(lsn);
        let tmp = self.seal(&finished, manifest)?;
        self.io.bump();
        fs::rename(&tmp, &finished).map_err(|e| io_err("rename", &finished, e))?;
        // Make the renames durable. Directory fsync can fail on exotic
        // filesystems; the renames already happened, so don't fail the
        // snapshot over it.
        if let Ok(d) = File::open(&self.dir) {
            self.io.bump();
            let _ = d.sync_all();
        }
        self.crash_after(SnapshotStep::ManifestRename)
    }

    /// Write `payload` and its checksum trailer to `<finished>.tmp` and
    /// fsync it; returns the temporary path.
    fn seal(&self, finished: &Path, payload: &str) -> Result<PathBuf> {
        let mut tmp = finished.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        self.io.bump();
        let mut f = File::create(&tmp).map_err(|e| io_err("create", &tmp, e))?;
        let sum = fnv64(payload.as_bytes());
        f.write_all(payload.as_bytes())
            .and_then(|()| f.write_all(format!("{SUM_MARKER}{sum:016x}\n").as_bytes()))
            .and_then(|()| f.sync_all())
            .map_err(|e| io_err("write", &tmp, e))?;
        Ok(tmp)
    }

    /// Read one file and return its payload when the trailer verifies.
    /// An attached fault plan's `SnapshotLoad` rot site may flip a
    /// seeded bit in the read image first.
    fn read_checked(&self, path: &Path) -> Option<String> {
        self.io.bump();
        let mut bytes = fs::read(path).ok()?;
        if let Some(plan) = &self.fault {
            plan.rot(FaultSite::SnapshotLoad, &mut bytes);
        }
        let mut text = String::from_utf8(bytes).ok()?;
        let len = checked_payload(&text)?.len();
        text.truncate(len);
        Some(text)
    }

    /// The payload of `segment-<lsn>.json`, when it exists and its
    /// trailer verifies.
    pub fn read_segment(&self, lsn: u64) -> Option<String> {
        self.read_checked(&self.segment_path(lsn))
    }

    /// The payload of the manifest at `lsn`, when it exists and its
    /// trailer verifies.
    pub fn read_manifest(&self, lsn: u64) -> Option<String> {
        self.read_checked(&self.path_for(lsn))
    }

    /// Whether `segment-<lsn>.json` exists, verified or not.
    pub fn segment_exists(&self, lsn: u64) -> bool {
        self.io.bump();
        self.segment_path(lsn).exists()
    }

    /// The newest manifest that verifies ([`verify_payload`]), as
    /// `(lsn, payload)`. Candidates that do not are skipped (fallback to
    /// older snapshots); `.tmp` leftovers are never considered.
    pub fn load_latest(&self) -> Result<Option<(u64, String)>> {
        Ok(self.load_latest_counted()?.latest)
    }

    /// [`SnapshotStore::load_latest`] that also counts the corrupt or
    /// unparseable candidates skipped on the way to a usable manifest.
    pub fn load_latest_counted(&self) -> Result<SnapshotLoad> {
        self.load_latest_with(|_, payload| {
            json::parse(payload).ok().map(|_| payload.to_string())
        })
    }

    /// Walk the manifests newest-first and return the first whose
    /// trailer verifies and that `usable` accepts (it parses the payload
    /// and checks what the manifest names), counting the candidates
    /// skipped on the way. An attached fault plan's `SnapshotLoad` rot
    /// site may flip a seeded bit in each candidate's read image.
    pub fn load_latest_with<T>(
        &self,
        mut usable: impl FnMut(u64, &str) -> Option<T>,
    ) -> Result<SnapshotLoad<T>> {
        let mut lsns = self.list()?;
        lsns.sort_unstable_by(|a, b| b.cmp(a));
        let mut skipped = 0u64;
        let mut max_skipped = 0u64;
        for lsn in lsns {
            match self.read_manifest(lsn).and_then(|payload| usable(lsn, &payload)) {
                Some(loaded) => {
                    return Ok(SnapshotLoad {
                        latest: Some((lsn, loaded)),
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

    /// Delete all but the newest `keep` manifests, plus any stray
    /// `.tmp` files from interrupted writes. Segments are pruned
    /// separately ([`SnapshotStore::prune_segments`]), after the
    /// manifests that might name them are gone.
    pub fn prune(&self, keep: usize) -> Result<()> {
        let mut lsns = self.list()?;
        lsns.sort_unstable_by(|a, b| b.cmp(a));
        lsns.truncate(keep);
        self.prune_manifests(&lsns)
    }

    /// Delete every manifest whose LSN is not in `keep`, plus any stray
    /// `.tmp` files from interrupted writes.
    pub fn prune_manifests(&self, keep: &[u64]) -> Result<()> {
        for lsn in self.list()? {
            if !keep.contains(&lsn) {
                self.io.bump();
                let _ = fs::remove_file(self.path_for(lsn));
            }
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

    /// Delete every segment not in `named`.
    pub fn prune_segments(&self, named: &BTreeSet<u64>) -> Result<()> {
        for lsn in self.list_segments()? {
            if !named.contains(&lsn) {
                self.io.bump();
                let _ = fs::remove_file(self.segment_path(lsn));
            }
        }
        Ok(())
    }

    /// LSNs of every `snapshot-<lsn>.json` manifest in the directory.
    pub fn list(&self) -> Result<Vec<u64>> {
        self.list_named(MANIFEST)
    }

    /// LSNs of every `segment-<lsn>.json` in the directory.
    pub fn list_segments(&self) -> Result<Vec<u64>> {
        self.list_named(SEGMENT)
    }

    fn list_named(&self, prefix: &str) -> Result<Vec<u64>> {
        if !self.dir.exists() {
            return Ok(Vec::new());
        }
        self.io.bump();
        let mut lsns = Vec::new();
        for entry in fs::read_dir(&self.dir).map_err(|e| io_err("list", &self.dir, e))? {
            let Ok(entry) = entry else { continue };
            if let Some(lsn) = parse_name(prefix, &entry.file_name().to_string_lossy()) {
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
    fn a_segment_is_written_with_its_manifest_and_read_back_verified() {
        let dir = temp_dir("segment");
        let store = SnapshotStore::new(&dir);
        let segment = r#"{"lsn":4,"tables":[{"name":"t"}]}"#;
        store.write_snapshot(4, Some(segment), r#"{"v":4}"#).unwrap();
        store.write_snapshot(6, None, r#"{"v":6}"#).unwrap();
        assert_eq!(store.read_segment(4).as_deref(), Some(segment));
        assert_eq!(store.read_segment(6), None, "no tables, no segment");
        assert_eq!(store.list_segments().unwrap(), vec![4]);
        assert!(store.segment_exists(4) && !store.segment_exists(6));
        let mut manifests = store.list().unwrap();
        manifests.sort_unstable();
        assert_eq!(manifests, vec![4, 6], "segments are not manifests");
        // A flipped bit anywhere in a segment is never wrong data (a
        // hex digit of the trailer may only change case).
        let path = dir.join("segment-4.json");
        let sealed = fs::read(&path).unwrap();
        let mut unreadable = 0;
        for bit in 0..sealed.len() * 8 {
            let mut bytes = sealed.clone();
            bytes[bit / 8] ^= 1 << (bit % 8);
            fs::write(&path, &bytes).unwrap();
            match store.read_segment(4) {
                None => unreadable += 1,
                Some(got) => assert_eq!(got, segment, "bit {bit} fed wrong data"),
            }
        }
        assert!(unreadable > sealed.len() * 7, "{unreadable}");
    }

    #[test]
    fn prune_segments_deletes_every_segment_not_named() {
        let dir = temp_dir("prune-seg");
        let store = SnapshotStore::new(&dir);
        for lsn in [2, 5, 9] {
            store.write_snapshot(lsn, Some("{}"), "{}").unwrap();
        }
        store.prune_segments(&BTreeSet::from([2, 9])).unwrap();
        let mut left = store.list_segments().unwrap();
        left.sort_unstable();
        assert_eq!(left, vec![2, 9]);
        assert_eq!(store.list().unwrap().len(), 3, "manifests are prune's");
    }

    #[test]
    fn load_latest_with_skips_a_manifest_its_check_refuses() {
        let dir = temp_dir("check");
        let store = SnapshotStore::new(&dir);
        store.write(3, r#"{"v":3}"#).unwrap();
        store.write(8, r#"{"v":8}"#).unwrap();
        let load = store
            .load_latest_with(|lsn, payload| (lsn != 8).then_some(payload.len()))
            .unwrap();
        assert_eq!(load.latest, Some((3, 7)));
        assert_eq!((load.skipped_candidates, load.max_skipped_lsn), (1, 8));
    }

    #[test]
    fn a_crash_step_stops_the_write_protocol_right_after_it() {
        use SnapshotStep::*;
        let exists = |dir: &Path, name: &str| dir.join(name).exists();
        for (step, files) in [
            (SegmentTmp, [true, false, false]),
            (SegmentRename, [false, true, false]),
            (ManifestRename, [false, true, true]),
        ] {
            let dir = temp_dir("crash");
            let mut store = SnapshotStore::new(&dir);
            store.set_crash_step(Some(step));
            let err = store.write_snapshot(5, Some("{}"), "{}").unwrap_err();
            assert!(err.to_string().contains("simulated crash"), "{err}");
            assert!(store.crashed());
            let seen = [
                exists(&dir, "segment-5.json.tmp"),
                exists(&dir, "segment-5.json"),
                exists(&dir, "snapshot-5.json"),
            ];
            assert_eq!(seen, files, "{step:?}");
            // A crashed store writes nothing more.
            assert!(store.write_snapshot(6, None, "{}").is_err());
            assert!(!exists(&dir, "snapshot-6.json"));
        }
        // An unarmed step passes.
        let store = SnapshotStore::new(&temp_dir("crash-none"));
        assert!(store.crash_after(SnapshotStep::WalReset).is_ok());
    }

    #[test]
    fn missing_dir_lists_empty() {
        let store = SnapshotStore::new(&temp_dir("gone").join("nope"));
        assert!(store.list().unwrap().is_empty());
        assert!(store.load_latest().unwrap().is_none());
    }
}
