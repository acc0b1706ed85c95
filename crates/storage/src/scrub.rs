//! Background integrity scrubber: budgeted sweeps over at-rest files.
//!
//! A long-lived data service accumulates bit-rot faster than anyone
//! reads it back — a snapshot segment or an old journal can sit unread
//! for months while its bits decay. The scrubber walks every durable
//! file family on a cadence ([`ScrubConfig::every_ms`]) under an I/O
//! budget per tick ([`ScrubConfig::io_budget`], in [`READ_UNIT`]s), so
//! detection latency is bounded without stealing the foreground's disk
//! bandwidth:
//!
//! * **`wal.log`, `querylog.log`** — frame-by-frame checksum walk via
//!   [`Wal::verify`], flagging interior corruption (valid frames after a
//!   break) and leaving torn tails to the recovery scan.
//! * **`snapshot-<lsn>.json`, `segment-<lsn>.json`** — a manifest or a
//!   segment: the trailer checksum over the payload, read in budgeted
//!   units and resumed on the next tick: a matching
//!   sum proves the bytes are the bytes written, and a tick costs what
//!   its budget says whatever the file's size. A file without a
//!   well-formed trailer (a cut-off tail, or rot in the trailer itself)
//!   is a finding.
//!
//! Reads race foreground writers by design: a snapshot file whose sum
//! does not match is read again whole before it becomes a finding,
//! which settles the benign race with a rename. The scrubber detects
//! and reports; what a finding means is the service's business.

use crate::snapshot::{trailer_sum, TRAILER_LEN};
use crate::wal::Wal;
use crate::IoCounter;
use sqlshare_common::hash::Fnv64;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// The scrubber's unit of reading, and of its budget: 8 KiB.
pub const READ_UNIT: usize = 8192;

/// Scrub cadence and per-tick budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScrubConfig {
    /// Milliseconds between ticks; 0 disables the background thread.
    pub every_ms: u64,
    /// [`READ_UNIT`]s read per tick.
    pub io_budget: u64,
}

impl Default for ScrubConfig {
    fn default() -> Self {
        ScrubConfig {
            every_ms: 1000,
            io_budget: 256,
        }
    }
}

impl ScrubConfig {
    pub fn enabled(&self) -> bool {
        self.every_ms > 0
    }
}

/// Cumulative scrub counters, published via `GET /api/integrity`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScrubStatus {
    /// Ticks run.
    pub ticks: u64,
    /// Complete sweeps over every registered file.
    pub passes: u64,
    /// [`READ_UNIT`]s consumed.
    pub units: u64,
    /// Record-log frames validated, over both logs: `wal.log` and
    /// `querylog.log`.
    pub wal_frames: u64,
    /// Snapshot files verified: manifests and segments.
    pub snapshots: u64,
    /// Corruption findings reported (cumulative, repeats included —
    /// a bad file is re-found every pass until it is replaced).
    pub findings: u64,
}

/// One detected corruption: which file, and what failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScrubFinding {
    pub path: PathBuf,
    pub detail: String,
}

#[derive(Debug, Default)]
struct Inner {
    roots: Vec<PathBuf>,
    /// Resume point: the next file (by path) and unit to scrub.
    cursor: Option<(PathBuf, u32)>,
    /// Checksum so far of the snapshot the cursor stopped inside.
    partial_sum: Option<Fnv64>,
    status: ScrubStatus,
}

/// The scrubber: a set of directory roots, a persistent cursor, and a
/// per-tick budget. Thread-safe; the server drives [`Scrubber::tick`]
/// from a background thread and the service maps findings to objects.
#[derive(Debug)]
pub struct Scrubber {
    budget: u64,
    io: IoCounter,
    inner: Mutex<Inner>,
}

/// Outcome of scrubbing (part of) one file.
struct FileScrub {
    units: u64,
    /// `Some(next_unit)` when the budget ran out mid-file.
    resume: Option<u32>,
    findings: Vec<ScrubFinding>,
}

fn is_scrubbable(name: &str) -> bool {
    name == "wal.log" || name == "querylog.log" || is_snapshot_file(name)
}

/// A manifest or a segment, both sealed with the snapshot trailer.
fn is_snapshot_file(name: &str) -> bool {
    (name.starts_with("snapshot-") || name.starts_with("segment-")) && name.ends_with(".json")
}

fn file_units(len: u64) -> u64 {
    (len.div_ceil(READ_UNIT as u64)).max(1)
}

impl Scrubber {
    pub fn new(config: ScrubConfig, io: IoCounter) -> Scrubber {
        Scrubber {
            budget: config.io_budget.max(1),
            io,
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Register a directory to sweep (the durable data dir). Idempotent.
    pub fn add_root(&self, dir: &Path) {
        let mut inner = self.inner.lock().unwrap();
        if !inner.roots.iter().any(|r| r == dir) {
            inner.roots.push(dir.to_path_buf());
        }
    }

    /// Counter snapshot for `/api/integrity`.
    pub fn status(&self) -> ScrubStatus {
        self.inner.lock().unwrap().status
    }

    /// Run one budgeted increment of the sweep and return any new
    /// findings. A tick advances the cursor by at most `io_budget`
    /// [`READ_UNIT`]s; reaching the end of the file list completes a pass
    /// and the next tick starts over.
    pub fn tick(&self) -> Vec<ScrubFinding> {
        let mut inner = self.inner.lock().unwrap();
        inner.status.ticks += 1;
        let files = self.listing(&inner.roots);
        if files.is_empty() {
            inner.status.passes += 1;
            return Vec::new();
        }

        // Resume after the cursor; a vanished file resumes at its
        // successor (files are sorted, so position is stable enough).
        let (mut idx, mut unit) = match &inner.cursor {
            None => (0, 0u32),
            Some((path, unit)) => match files.iter().position(|f| f >= path) {
                Some(i) if &files[i] == path => (i, *unit),
                Some(i) => (i, 0),
                None => (files.len(), 0),
            },
        };

        let mut remaining = self.budget;
        let mut findings = Vec::new();
        let mut status = inner.status;
        let mut partial_sum = inner.partial_sum.take();
        loop {
            if idx >= files.len() {
                status.passes += 1;
                inner.cursor = None;
                break;
            }
            let scrub =
                self.scrub_file(&files[idx], unit, remaining, &mut status, &mut partial_sum);
            status.units += scrub.units;
            status.findings += scrub.findings.len() as u64;
            findings.extend(scrub.findings);
            remaining = remaining.saturating_sub(scrub.units);
            if let Some(next_unit) = scrub.resume {
                inner.cursor = Some((files[idx].clone(), next_unit));
                break;
            }
            idx += 1;
            unit = 0;
            if remaining == 0 {
                inner.cursor = files.get(idx).map(|f| (f.clone(), 0));
                if inner.cursor.is_none() {
                    status.passes += 1;
                }
                break;
            }
        }
        inner.status = status;
        inner.partial_sum = partial_sum;
        findings
    }

    /// Run full passes until one completes with no budget interruption
    /// state left — test/repair convenience that scrubs everything now.
    pub fn full_pass(&self) -> Vec<ScrubFinding> {
        let passes_before = self.status().passes;
        let mut findings = Vec::new();
        while self.status().passes == passes_before {
            findings.extend(self.tick());
        }
        findings
    }

    fn listing(&self, roots: &[PathBuf]) -> Vec<PathBuf> {
        let mut files = Vec::new();
        for root in roots {
            let Ok(entries) = std::fs::read_dir(root) else {
                continue;
            };
            self.io.bump();
            for entry in entries.flatten() {
                let name = entry.file_name();
                let Some(name) = name.to_str() else { continue };
                if is_scrubbable(name) {
                    files.push(entry.path());
                }
            }
        }
        files.sort_unstable();
        files.dedup();
        files
    }

    fn scrub_file(
        &self,
        path: &Path,
        from_unit: u32,
        budget: u64,
        status: &mut ScrubStatus,
        partial_sum: &mut Option<Fnv64>,
    ) -> FileScrub {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if is_snapshot_file(name) {
            return self.scrub_snapshot(path, from_unit, budget, status, partial_sum);
        }
        // A record log: `wal.log` or `querylog.log`.
        let detail = match Wal::verify(path, &self.io) {
            Ok(audit) => {
                status.wal_frames += audit.frames;
                audit.interior_corrupt.then(|| {
                    format!("interior record-log corruption after byte {}", audit.valid_bytes)
                })
            }
            Err(e) => Some(e.to_string()),
        };
        let len = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
        FileScrub {
            units: file_units(len),
            resume: None,
            findings: detail
                .map(|detail| ScrubFinding {
                    path: path.to_path_buf(),
                    detail,
                })
                .into_iter()
                .collect(),
        }
    }

    /// A manifest or a segment: checksum `budget` units of the payload
    /// starting at unit `from_unit`, carrying the sum in `partial_sum`
    /// when the budget runs out mid-file. Snapshot files are written
    /// once and renamed into place, so a resumed sum continues over the
    /// bytes it started on; should it not match all the same, the file
    /// is read whole once more before that becomes a finding.
    fn scrub_snapshot(
        &self,
        path: &Path,
        from_unit: u32,
        budget: u64,
        status: &mut ScrubStatus,
        partial_sum: &mut Option<Fnv64>,
    ) -> FileScrub {
        use std::io::{Read, Seek, SeekFrom};
        let done = |units: u64, detail: Option<String>| FileScrub {
            units: units.max(1),
            resume: None,
            findings: detail
                .map(|detail| ScrubFinding {
                    path: path.to_path_buf(),
                    detail,
                })
                .into_iter()
                .collect(),
        };
        let unreadable = |e: std::io::Error| Some(format!("snapshot unreadable: {e}"));
        // The whole file at once: no well-formed trailer, or a sum that
        // did not match.
        let whole = |status: &mut ScrubStatus| {
            self.io.bump();
            match std::fs::read_to_string(path) {
                Ok(text) => {
                    status.snapshots += 1;
                    let ok = crate::snapshot::verify_payload(&text);
                    let detail = (!ok).then(|| "snapshot fails checksum or parse".to_string());
                    done(file_units(text.len() as u64), detail)
                }
                Err(e) => done(1, unreadable(e)),
            }
        };

        self.io.bump();
        let opened = std::fs::File::open(path).and_then(|f| Ok((f.metadata()?.len(), f)));
        let (len, mut file) = match opened {
            Ok(opened) => opened,
            Err(e) => return done(1, unreadable(e)),
        };
        let mut tail = [0u8; TRAILER_LEN as usize];
        let want = len.checked_sub(TRAILER_LEN).and_then(|payload_len| {
            file.seek(SeekFrom::Start(payload_len)).ok()?;
            file.read_exact(&mut tail).ok()?;
            Some((payload_len, trailer_sum(&tail)?))
        });
        let Some((payload_len, want)) = want else {
            return whole(status);
        };

        let (mut unit, mut sum) = match partial_sum.take() {
            Some(sum) if from_unit > 0 => (u64::from(from_unit), sum),
            _ => (0, Fnv64::new()),
        };
        if let Err(e) = file.seek(SeekFrom::Start(unit * READ_UNIT as u64)) {
            return done(1, unreadable(e));
        }
        let mut units = 0u64;
        let mut buf = [0u8; READ_UNIT];
        while unit * (READ_UNIT as u64) < payload_len {
            if units >= budget {
                *partial_sum = Some(sum);
                return FileScrub {
                    units,
                    resume: Some(unit as u32),
                    findings: Vec::new(),
                };
            }
            let n = (payload_len - unit * READ_UNIT as u64).min(READ_UNIT as u64) as usize;
            self.io.bump();
            if let Err(e) = file.read_exact(&mut buf[..n]) {
                return done(units, unreadable(e));
            }
            sum.write(&buf[..n]);
            units += 1;
            unit += 1;
        }
        if sum.finish() != want {
            return whole(status);
        }
        status.snapshots += 1;
        done(units, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::SnapshotStore;
    use crate::FsyncPolicy;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "sqlshare-scrub-{}-{}-{}",
            std::process::id(),
            tag,
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn scrubber(dir: &Path, budget: u64) -> Scrubber {
        let s = Scrubber::new(
            ScrubConfig {
                every_ms: 1,
                io_budget: budget,
            },
            IoCounter::new(),
        );
        s.add_root(dir);
        s
    }

    #[test]
    fn clean_directory_scrubs_with_no_findings() {
        let dir = temp_dir("clean");
        let mut wal = Wal::open(&dir.join("wal.log"), FsyncPolicy::Off).unwrap();
        wal.append(br#"{"lsn":1}"#).unwrap();
        wal.append(br#"{"lsn":2}"#).unwrap();
        SnapshotStore::new(&dir).write(2, r#"{"v":2}"#).unwrap();
        let mut log = Wal::open(&dir.join("querylog.log"), FsyncPolicy::Off).unwrap();
        log.append(br#"{"q":1}"#).unwrap();
        log.append(br#"{"q":2}"#).unwrap();

        let s = scrubber(&dir, 1024);
        assert!(s.full_pass().is_empty());
        let st = s.status();
        assert_eq!(st.passes, 1);
        assert_eq!(st.wal_frames, 4, "both record logs");
        assert_eq!(st.snapshots, 1);
        assert_eq!(st.findings, 0);
    }

    #[test]
    fn each_family_yields_a_finding_when_rotted() {
        let dir = temp_dir("rot");
        // Both record logs with interior corruption: flip a byte in
        // record 1 of 2.
        for name in ["wal.log", "querylog.log"] {
            let path = dir.join(name);
            let mut log = Wal::open(&path, FsyncPolicy::Off).unwrap();
            log.append(br#"{"lsn":1,"pad":"xxxxxxxxxxxxxxxx"}"#).unwrap();
            let boundary = log.offset();
            log.append(br#"{"lsn":2}"#).unwrap();
            drop(log);
            let mut bytes = std::fs::read(&path).unwrap();
            bytes[20] ^= 0x10; // inside record 1's payload
            std::fs::write(&path, &bytes).unwrap();
            assert!(boundary > 20);
        }

        // Snapshot with a flipped digit (parses, fails the trailer sum).
        let store = SnapshotStore::new(&dir);
        store.write(7, r#"{"v":7}"#).unwrap();
        let snap_path = dir.join("snapshot-7.json");
        let mut bytes = std::fs::read(&snap_path).unwrap();
        bytes[5] ^= 0x01;
        std::fs::write(&snap_path, &bytes).unwrap();

        // Segment with a flipped digit; the manifest naming it is clean.
        store
            .write_snapshot(8, Some(r#"{"lsn":8,"tables":[]}"#), r#"{"v":8}"#)
            .unwrap();
        let segment_path = dir.join("segment-8.json");
        let mut bytes = std::fs::read(&segment_path).unwrap();
        bytes[7] ^= 0x01;
        std::fs::write(&segment_path, &bytes).unwrap();

        let s = scrubber(&dir, 4096);
        let findings = s.full_pass();
        let family = |suffix: &str| {
            findings
                .iter()
                .filter(|f| f.path.to_string_lossy().ends_with(suffix))
                .count()
        };
        assert_eq!(family("wal.log"), 1, "{findings:?}");
        assert_eq!(family("snapshot-7.json"), 1, "{findings:?}");
        assert_eq!(family("segment-8.json"), 1, "{findings:?}");
        assert_eq!(family("snapshot-8.json"), 0, "{findings:?}");
        assert_eq!(family("querylog.log"), 1, "{findings:?}");
        for name in ["wal.log", "querylog.log"] {
            assert!(findings
                .iter()
                .any(|f| f.path.ends_with(name) && f.detail.contains("interior")));
        }
        assert_eq!(s.status().findings, findings.len() as u64);
    }

    #[test]
    fn io_budget_splits_a_sweep_across_ticks() {
        let dir = temp_dir("budget");
        let store = SnapshotStore::new(&dir);
        for lsn in 1..=8 {
            store.write(lsn, &big_payload(3)).unwrap(); // 4 units each
        }
        let s = scrubber(&dir, 4);
        let mut ticks = 0;
        while s.status().passes == 0 {
            assert!(s.tick().is_empty());
            ticks += 1;
            assert!(ticks < 100, "sweep never completed");
        }
        assert!(ticks >= 8, "32 units at 4 units/tick needs ≥ 8 ticks, took {ticks}");
        assert_eq!(s.status().snapshots, 8);
    }

    /// A payload of `units` read units and a bit, valid JSON.
    fn big_payload(units: usize) -> String {
        format!("{{\"pad\":\"{}\"}}", "x".repeat(units * READ_UNIT + 100))
    }

    #[test]
    fn a_snapshot_is_checksummed_within_the_budget_and_resumed() {
        let dir = temp_dir("snapbudget");
        let store = SnapshotStore::new(&dir);
        let path = store.write(9, &big_payload(10)).unwrap();
        let s = scrubber(&dir, 4);
        let mut ticks = 0;
        while s.status().passes == 0 {
            let before = s.status().units;
            assert!(s.tick().is_empty());
            assert!(s.status().units - before <= 4, "a tick read past its budget");
            ticks += 1;
            assert!(ticks < 100, "sweep never completed");
        }
        assert_eq!(ticks, 3, "11 units at 4 a tick");
        assert_eq!(s.status().snapshots, 1);

        // Rot in the last unit is found by the tick that gets there.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[10 * READ_UNIT + 50] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert!(s.tick().is_empty());
        assert!(s.tick().is_empty());
        let findings = s.tick();
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].detail.contains("checksum"));
    }

    #[test]
    fn a_snapshot_replaced_under_a_resumed_sum_is_read_again_not_reported() {
        let dir = temp_dir("snapreplace");
        let store = SnapshotStore::new(&dir);
        store.write(9, &big_payload(10)).unwrap();
        let s = scrubber(&dir, 4);
        assert!(s.tick().is_empty());
        // Same name and length, other bytes, its own valid trailer.
        store.write(9, &big_payload(10).replace('x', "y")).unwrap();
        assert!(s.full_pass().is_empty());
        assert_eq!(s.status().findings, 0);
    }

    #[test]
    fn a_snapshot_without_a_whole_trailer_is_a_finding() {
        let dir = temp_dir("snaptrailer");
        let s = scrubber(&dir, 4);
        let path = SnapshotStore::new(&dir).write(1, &big_payload(6)).unwrap();
        assert!(s.full_pass().is_empty());
        let sealed = std::fs::read(&path).unwrap();

        // The trailer cut off, whole or in part: what is left is valid
        // JSON, and still not a snapshot anyone checksummed.
        for cut in [TRAILER_LEN as usize, 5, 1] {
            std::fs::write(&path, &sealed[..sealed.len() - cut]).unwrap();
            let findings = s.full_pass();
            assert_eq!(findings.len(), 1, "{cut} bytes cut off");
            assert!(findings[0].detail.contains("checksum"));
        }

        // Rot inside the trailer.
        let mut bytes = sealed.clone();
        let at = bytes.len() - 5;
        bytes[at] = b'Z';
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(s.full_pass().len(), 1, "damaged trailer");
        std::fs::write(&path, &sealed).unwrap();
        assert!(s.full_pass().is_empty());
    }

    #[test]
    fn scrub_reads_bypass_any_budgeted_pool() {
        // The scrubber only reads: the scrubbed files' bytes are
        // unchanged afterwards.
        let dir = temp_dir("readonly");
        let mut wal = Wal::open(&dir.join("wal.log"), FsyncPolicy::Off).unwrap();
        wal.append(br#"{"lsn":1}"#).unwrap();
        drop(wal);
        SnapshotStore::new(&dir).write(1, r#"{"v":1}"#).unwrap();
        let before: Vec<(PathBuf, Vec<u8>)> = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .map(|e| (e.path(), std::fs::read(e.path()).unwrap()))
            .collect();
        let s = scrubber(&dir, 64);
        s.full_pass();
        for (path, bytes) in before {
            assert_eq!(std::fs::read(&path).unwrap(), bytes, "{path:?} mutated");
        }
    }
}
