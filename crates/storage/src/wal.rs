//! Append-only write-ahead log with checksummed, length-prefixed
//! records.
//!
//! On-disk format, per record:
//!
//! ```text
//! [u32 LE payload length][u64 LE fnv64(payload)][payload bytes]
//! ```
//!
//! The service keeps two logs in this format: the mutation journal
//! (`wal.log`) and the query log (`querylog.log`, one entry per record,
//! never reset).
//!
//! The journal-before-apply protocol upstream guarantees that every
//! acknowledged mutation has a fully-written record here. Two failure
//! shapes matter:
//!
//! * **Failed append** (real I/O error, injected `WalAppend`/`WalFsync`
//!   fault): the mutation was *not* acknowledged, so the append
//!   self-repairs — the file is truncated back to its pre-append length
//!   and the caller gets a typed error. A torn record can therefore
//!   never sit in the *middle* of the log in front of acknowledged
//!   records.
//! * **Crash** (simulated via [`CrashPoint`]): the process dies
//!   mid-append (torn tail on disk) or between journal and apply (full
//!   record on disk, never applied). [`Wal::scan`] handles both:
//!   it keeps every record whose length and checksum validate,
//!   truncates the file at the first torn or corrupt one, and replay
//!   upstream is idempotent by LSN.
//! * **Interior bit-rot** (at-rest media decay, not a crash): a record
//!   in the *middle* of the log fails its checksum but valid frames
//!   follow it. Truncating here would silently discard acknowledged
//!   records, so [`Wal::scan`] resynchronizes past the bad frame and,
//!   if it finds any later valid frame, refuses with a typed
//!   `Error::Corrupt` and leaves the file untouched for
//!   repair-from-replica. [`Wal::verify`] runs the same analysis
//!   without ever writing — the background scrubber's probe.
//!
//! Disk blocks are reserved ahead of the log's end, a chunk at a time,
//! without changing the file's length (see [`RESERVE_CHUNK`]): the bytes
//! on disk and every length a reader sees are exactly the records.

use crate::{FsyncPolicy, IoCounter};
use sqlshare_common::hash::fnv64;
use sqlshare_common::{Error, Result};
use sqlshare_common::faults::{FaultPlan, FaultSite};
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Frame header: u32 length + u64 checksum.
pub(crate) const HEADER_LEN: usize = 12;
/// Sanity cap on a single record; anything larger is treated as
/// corruption during a scan (a torn length prefix can decode to
/// gigabytes).
const MAX_RECORD: usize = 1 << 30;

/// A simulated crash, for kill-and-recover tests. The WAL "dies" on its
/// `after_records`-th successful append (0-based: `after_records: 0`
/// dies on the very first append).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPoint {
    /// Number of records appended successfully before the crash fires.
    pub after_records: u64,
    /// `Some(n)`: die mid-write, leaving only the first `n` bytes of the
    /// record's frame on disk (a torn tail — `kill -9` between `write`
    /// calls). `None`: die *after* the record is fully written and
    /// synced but before the caller can apply it — the
    /// crash-between-journal-and-apply window; recovery must replay it.
    pub torn_bytes: Option<usize>,
}

/// Result of scanning (and repairing) a WAL file.
#[derive(Debug)]
pub struct WalScan {
    /// Payloads of every valid record, in append order.
    pub records: Vec<Vec<u8>>,
    /// Length of the valid prefix; the file is truncated to this.
    pub valid_bytes: u64,
    /// Bytes discarded from the torn/corrupt tail (0 for a clean log).
    pub truncated_bytes: u64,
}

/// Result of a read-only WAL integrity probe ([`Wal::verify`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalAudit {
    /// Records whose length and checksum validate, from the front.
    pub frames: u64,
    /// Byte length of that valid prefix.
    pub valid_bytes: u64,
    /// Bytes after the valid prefix (0 for a clean log).
    pub tail_bytes: u64,
    /// True when a valid frame follows the break — interior bit-rot,
    /// which [`Wal::scan`] refuses to truncate.
    pub interior_corrupt: bool,
}

/// An open write-ahead log.
#[derive(Debug)]
pub struct Wal {
    path: PathBuf,
    file: File,
    policy: FsyncPolicy,
    /// Current end-of-file offset (all durable, validated bytes).
    offset: u64,
    /// Successful appends since open.
    appended: u64,
    /// Appends since the last fsync (batch policy bookkeeping).
    since_sync: u64,
    /// File offset up to which blocks are reserved; `u64::MAX` once the
    /// filesystem has refused a reservation.
    reserved: u64,
    /// Reset counter, persisted in a sidecar file. Replication followers
    /// compare it across polls: a changed generation means [`Wal::reset`]
    /// ran and their byte offset points into a *different* file's
    /// history, even if the file has since regrown past that offset.
    generation: u64,
    crash: Option<CrashPoint>,
    crashed: bool,
    fault: Option<Arc<FaultPlan>>,
    io: IoCounter,
}

/// Blocks reserved past the end of the log at a time. A log that
/// regrows after every reset is otherwise allocated append by append out
/// of whatever fragments the last snapshot left free, and how long the
/// fsync of a record takes then depends on where they lie: on the
/// benchmark's `ingest` workload (one fsync per record, ext4) 6–18% of
/// the fsyncs took over 2 ms without the reservation and 1% with it, in
/// half the total time (DESIGN §4.9).
const RESERVE_CHUNK: u64 = 1 << 20;

/// Reserve `len` bytes of blocks from `offset` on without changing the
/// file's length (`FALLOC_FL_KEEP_SIZE`). Truncation gives them back.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn reserve_blocks(file: &File, offset: u64, len: u64) -> bool {
    use std::os::fd::AsRawFd;
    const FALLOC_FL_KEEP_SIZE: i32 = 1;
    extern "C" {
        fn fallocate(fd: i32, mode: i32, offset: i64, len: i64) -> i32;
    }
    // SAFETY: a plain syscall on a descriptor this process owns.
    unsafe { fallocate(file.as_raw_fd(), FALLOC_FL_KEEP_SIZE, offset as i64, len as i64) == 0 }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn reserve_blocks(_file: &File, _offset: u64, _len: u64) -> bool {
    false
}

fn gen_path(path: &Path) -> PathBuf {
    path.with_extension("gen")
}

/// Read the WAL's persisted reset generation without opening the log —
/// lock-free, for replication endpoints serving the file directly. A
/// missing sidecar (pre-replication WAL, or never reset) reads as 0.
pub fn wal_generation(path: &Path) -> u64 {
    std::fs::read_to_string(gen_path(path))
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(0)
}

fn io_err(what: &str, path: &Path, e: std::io::Error) -> Error {
    Error::Internal(format!("wal {what} {}: {e}", path.display()))
}

/// One record as [`Wal::append`] writes it and [`frames`] reads it back.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(HEADER_LEN + payload.len());
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(&fnv64(payload).to_le_bytes());
    buf.extend_from_slice(payload);
    buf
}

/// Is there a complete, checksum-valid frame starting at `pos`?
fn valid_frame_at(bytes: &[u8], pos: usize) -> bool {
    if bytes.len() - pos < HEADER_LEN {
        return false;
    }
    let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
    if len > MAX_RECORD || bytes.len() - pos - HEADER_LEN < len {
        return false;
    }
    let sum = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().unwrap());
    fnv64(&bytes[pos + HEADER_LEN..pos + HEADER_LEN + len]) == sum
}

/// The valid frame prefix of `bytes`: each record whose length and
/// checksum validate, as `(payload, offset just past its frame)`. It
/// borrows the payloads and allocates nothing. The one frame parser —
/// recovery's scan, the replication tail reader ([`crate::read_tail`])
/// and an in-memory log of frames all read through it.
pub fn frames(bytes: &[u8]) -> impl Iterator<Item = (&[u8], usize)> {
    let mut pos = 0usize;
    std::iter::from_fn(move || {
        if !valid_frame_at(bytes, pos) {
            return None;
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        let payload = &bytes[pos + HEADER_LEN..pos + HEADER_LEN + len];
        pos += HEADER_LEN + len;
        Some((payload, pos))
    })
}

/// The frames of a source too large to hold whole, read back in order
/// one at a time — the streaming counterpart of [`frames`], for files
/// that must read back whole or not at all. `len` is the bytes the
/// source holds: a length prefix past what is left is refused before
/// anything is allocated, so no input makes the reader allocate more
/// than its own length.
#[derive(Debug)]
pub struct FrameReader<R> {
    src: R,
    /// Bytes of the source not yet read.
    left: u64,
    /// Offset of the next frame, for error messages.
    at: u64,
    payload: Vec<u8>,
    broken: bool,
}

impl<R: Read> FrameReader<R> {
    pub fn new(src: R, len: u64) -> Self {
        FrameReader {
            src,
            left: len,
            at: 0,
            payload: Vec::new(),
            broken: false,
        }
    }

    /// The next frame's payload, or `None` where the source ends on a
    /// frame boundary. A header or payload cut short, a length past the
    /// end, a checksum that does not match or a failed read is
    /// `Error::Corrupt`, and so is every call after it.
    pub fn next_frame(&mut self) -> Result<Option<&[u8]>> {
        if self.broken {
            return Err(Error::Corrupt(format!("frame at byte {}: read after an error", self.at)));
        }
        if self.left == 0 {
            return Ok(None);
        }
        let found = self.read_frame();
        self.broken = found.is_err();
        found.map_err(|problem| Error::Corrupt(format!("frame at byte {}: {problem}", self.at)))?;
        self.at += (HEADER_LEN + self.payload.len()) as u64;
        Ok(Some(&self.payload))
    }

    /// Bytes of the whole frames read so far.
    pub fn offset(&self) -> u64 {
        self.at
    }

    /// Read one frame into `payload`, or say what is wrong with it.
    fn read_frame(&mut self) -> std::result::Result<(), String> {
        let mut header = [0u8; HEADER_LEN];
        if self.left < HEADER_LEN as u64 {
            return Err(format!("header cut short at {} bytes", self.left));
        }
        self.src.read_exact(&mut header).map_err(|e| e.to_string())?;
        self.left -= HEADER_LEN as u64;
        let len = u32::from_le_bytes(header[..4].try_into().expect("a 4-byte slice")) as usize;
        if len as u64 > self.left {
            return Err(format!("length {len} past the end, {} bytes left", self.left));
        }
        self.payload.clear();
        self.payload.reserve_exact(len);
        self.payload.resize(len, 0);
        self.src.read_exact(&mut self.payload).map_err(|e| e.to_string())?;
        self.left -= len as u64;
        if fnv64(&self.payload) != u64::from_le_bytes(header[4..].try_into().expect("an 8-byte slice")) {
            return Err("checksum mismatch".into());
        }
        Ok(())
    }
}

/// Every record of the valid frame prefix, plus the byte offset where
/// validation stopped.
fn parse_frames(bytes: &[u8]) -> (Vec<Vec<u8>>, usize) {
    let mut pos = 0usize;
    let records = frames(bytes)
        .map(|(payload, end)| {
            pos = end;
            payload.to_vec()
        })
        .collect();
    (records, pos)
}

/// After a validation break at `from`, look for any later offset where a
/// complete valid frame resumes. `Some(offset)` means the break is
/// interior corruption (acknowledged records live past it), not a torn
/// tail. A false sync inside a record's payload is astronomically
/// unlikely: the candidate's own 64-bit checksum must validate.
fn resync(bytes: &[u8], from: usize) -> Option<usize> {
    (from + 1..bytes.len()).find(|&pos| valid_frame_at(bytes, pos))
}

impl Wal {
    /// Open (creating if absent) the log at `path` for appending.
    /// Callers recovering state should run [`Wal::scan`] first; `open`
    /// itself does not validate existing contents.
    pub fn open(path: &Path, policy: FsyncPolicy) -> Result<Wal> {
        Wal::open_counted(path, policy, IoCounter::new())
    }

    /// [`Wal::open`] with a caller-supplied [`IoCounter`], so a service
    /// can aggregate I/O across all of its stores.
    pub fn open_counted(path: &Path, policy: FsyncPolicy, io: IoCounter) -> Result<Wal> {
        io.bump();
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| io_err("open", path, e))?;
        let offset = file
            .metadata()
            .map_err(|e| io_err("stat", path, e))?
            .len();
        Ok(Wal {
            path: path.to_path_buf(),
            file,
            policy,
            offset,
            appended: 0,
            since_sync: 0,
            reserved: 0,
            generation: wal_generation(path),
            crash: None,
            crashed: false,
            fault: None,
            io,
        })
    }

    /// Read every valid record from `path`, truncating the file at the
    /// first torn or corrupt record so subsequent appends extend a clean
    /// log. A missing file scans as empty. If a *valid* frame follows
    /// the break — interior bit-rot, not a torn tail — the scan refuses
    /// with `Error::Corrupt` and leaves the file untouched: truncating
    /// would silently drop acknowledged records that a replica (or the
    /// file itself, once repaired) still holds.
    pub fn scan(path: &Path) -> Result<WalScan> {
        Wal::scan_counted(path, &IoCounter::new())
    }

    /// [`Wal::scan`] recording its filesystem operations against `io`.
    pub fn scan_counted(path: &Path, io: &IoCounter) -> Result<WalScan> {
        Wal::scan_with_plan(path, io, None)
    }

    /// [`Wal::scan_counted`] with an optional fault plan whose
    /// `WalScan` rot site may flip a seeded bit in the read image
    /// (never the file) before validation.
    pub fn scan_with_plan(
        path: &Path,
        io: &IoCounter,
        plan: Option<&FaultPlan>,
    ) -> Result<WalScan> {
        if !path.exists() {
            return Ok(WalScan {
                records: Vec::new(),
                valid_bytes: 0,
                truncated_bytes: 0,
            });
        }
        io.bump();
        let mut bytes = Vec::new();
        File::open(path)
            .and_then(|mut f| f.read_to_end(&mut bytes))
            .map_err(|e| io_err("read", path, e))?;
        if let Some(plan) = plan {
            plan.rot(FaultSite::WalScan, &mut bytes);
        }

        let (records, pos) = parse_frames(&bytes);
        if let Some(at) = resync(&bytes, pos) {
            return Err(Error::Corrupt(format!(
                "{}: interior corruption at byte {pos} (valid frame resumes at byte \
                 {at}); refusing to truncate acknowledged records — repair from a replica",
                path.display()
            )));
        }

        let truncated_bytes = (bytes.len() - pos) as u64;
        if truncated_bytes > 0 {
            io.bump();
            OpenOptions::new()
                .write(true)
                .open(path)
                .and_then(|f| f.set_len(pos as u64))
                .map_err(|e| io_err("repair", path, e))?;
        }
        Ok(WalScan {
            records,
            valid_bytes: pos as u64,
            truncated_bytes,
        })
    }

    /// Read-only integrity probe: validate every frame without ever
    /// truncating or rewriting — the background scrubber's WAL check.
    pub fn verify(path: &Path, io: &IoCounter) -> Result<WalAudit> {
        if !path.exists() {
            return Ok(WalAudit {
                frames: 0,
                valid_bytes: 0,
                tail_bytes: 0,
                interior_corrupt: false,
            });
        }
        io.bump();
        let mut bytes = Vec::new();
        File::open(path)
            .and_then(|mut f| f.read_to_end(&mut bytes))
            .map_err(|e| io_err("read", path, e))?;
        let (records, pos) = parse_frames(&bytes);
        Ok(WalAudit {
            frames: records.len() as u64,
            valid_bytes: pos as u64,
            tail_bytes: (bytes.len() - pos) as u64,
            interior_corrupt: resync(&bytes, pos).is_some(),
        })
    }

    /// Append one record. On success the record is durable to the
    /// configured [`FsyncPolicy`]. On failure (I/O error, injected
    /// fault) the file is restored to its pre-append length — a failed
    /// append leaves no trace. A [`CrashPoint`] makes the WAL "die":
    /// this and every later call errors, and the file keeps whatever
    /// the simulated crash left behind.
    pub fn append(&mut self, payload: &[u8]) -> Result<()> {
        if self.crashed {
            return Err(Error::Internal("simulated crash: wal is dead".into()));
        }
        let buf = frame(payload);

        if let Some(cp) = self.crash {
            if self.appended == cp.after_records {
                self.crashed = true;
                self.io.bump();
                match cp.torn_bytes {
                    Some(n) => {
                        // Die mid-write: only a prefix of the frame
                        // lands on disk.
                        let n = n.min(buf.len());
                        self.file
                            .write_all(&buf[..n])
                            .map_err(|e| io_err("torn write", &self.path, e))?;
                        let _ = self.file.flush();
                    }
                    None => {
                        // Die after the record is durable but before the
                        // caller applies it.
                        self.file
                            .write_all(&buf)
                            .map_err(|e| io_err("write", &self.path, e))?;
                        let _ = self.file.sync_data();
                    }
                }
                return Err(Error::Internal("simulated crash during wal append".into()));
            }
        }

        if let Err(e) = self.fault_check(FaultSite::WalAppend) {
            // Model a short write: leave a deterministic torn prefix,
            // then repair so the rejected mutation leaves no trace.
            self.io.bump();
            let n = HEADER_LEN.min(buf.len());
            let _ = self.file.write_all(&buf[..n]);
            self.repair()?;
            return Err(e);
        }

        let end = self.offset + buf.len() as u64;
        if end > self.reserved {
            // Best effort: a filesystem that cannot reserve is asked once.
            let len = RESERVE_CHUNK.max(buf.len() as u64);
            self.reserved = if reserve_blocks(&self.file, self.offset, len) {
                self.offset + len
            } else {
                u64::MAX
            };
        }

        self.io.bump();
        if let Err(e) = self.file.write_all(&buf) {
            let err = io_err("write", &self.path, e);
            self.repair()?;
            return Err(err);
        }

        let want_sync = match self.policy {
            FsyncPolicy::Always => true,
            FsyncPolicy::Batch => self.since_sync + 1 >= FsyncPolicy::BATCH_INTERVAL,
            FsyncPolicy::Off => false,
        };
        if want_sync {
            if let Err(e) = self.fault_check(FaultSite::WalFsync) {
                // fsync failed after the bytes were written: the record
                // is not durable, so abort it entirely.
                self.repair()?;
                return Err(e);
            }
            self.io.bump();
            if let Err(e) = self.file.sync_data() {
                let err = io_err("fsync", &self.path, e);
                self.repair()?;
                return Err(err);
            }
            self.since_sync = 0;
        } else {
            self.since_sync += 1;
        }

        self.offset += buf.len() as u64;
        self.appended += 1;
        Ok(())
    }

    /// Force the log to stable storage regardless of policy (used
    /// before snapshots and on shutdown).
    pub fn sync(&mut self) -> Result<()> {
        if self.crashed {
            return Err(Error::Internal("simulated crash: wal is dead".into()));
        }
        self.io.bump();
        self.file
            .sync_data()
            .map_err(|e| io_err("fsync", &self.path, e))?;
        self.since_sync = 0;
        Ok(())
    }

    /// Truncate the log to empty — called after a snapshot has made its
    /// history redundant. Bumps and persists the reset generation
    /// *before* the truncation so a follower can never observe new-file
    /// bytes under the old generation number.
    pub fn reset(&mut self) -> Result<()> {
        if self.crashed {
            return Err(Error::Internal("simulated crash: wal is dead".into()));
        }
        let next = self.generation + 1;
        let gen = gen_path(&self.path);
        self.io.bump();
        std::fs::write(&gen, format!("{next}\n")).map_err(|e| io_err("write", &gen, e))?;
        self.io.bump();
        self.file
            .set_len(0)
            .and_then(|()| self.file.sync_data())
            .map_err(|e| io_err("reset", &self.path, e))?;
        self.generation = next;
        self.offset = 0;
        self.since_sync = 0;
        self.forget_reservation();
        Ok(())
    }

    /// The file this log appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Current validated end-of-file offset.
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// Reset generation: how many times [`Wal::reset`] has truncated
    /// this log over its lifetime (persisted across reopens).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Successful appends since this handle was opened.
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// Whether a simulated [`CrashPoint`] has fired.
    pub fn crashed(&self) -> bool {
        self.crashed
    }

    /// Arm (or clear) a simulated crash.
    pub fn set_crash_point(&mut self, cp: Option<CrashPoint>) {
        self.crash = cp;
    }

    /// Attach a fault plan checked at `WalAppend` / `WalFsync`.
    pub fn set_fault_plan(&mut self, plan: Option<Arc<FaultPlan>>) {
        self.fault = plan;
    }

    /// Run a fault check with panic containment: an injected panic at a
    /// storage site must surface as a typed error, never unwind through
    /// the service.
    fn fault_check(&self, site: FaultSite) -> Result<()> {
        let Some(plan) = &self.fault else {
            return Ok(());
        };
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| plan.check(site))) {
            Ok(r) => r,
            Err(payload) => Err(Error::from_panic(payload)),
        }
    }

    /// Restore the file to the last acknowledged offset after a failed
    /// append.
    fn repair(&mut self) -> Result<()> {
        self.io.bump();
        self.forget_reservation();
        self.file
            .set_len(self.offset)
            .map_err(|e| io_err("repair", &self.path, e))
    }

    /// A truncation released the reserved blocks: reserve again on the
    /// next append (unless the filesystem cannot).
    fn forget_reservation(&mut self) {
        if self.reserved != u64::MAX {
            self.reserved = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_wal(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "sqlshare-wal-{}-{}-{}",
            std::process::id(),
            tag,
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("wal.log")
    }

    #[test]
    fn append_scan_round_trips() {
        let path = temp_wal("round");
        let mut wal = Wal::open(&path, FsyncPolicy::Off).unwrap();
        wal.append(b"alpha").unwrap();
        wal.append(b"").unwrap();
        wal.append("β-umlaut-\u{1f4be}".as_bytes()).unwrap();
        drop(wal);
        let scan = Wal::scan(&path).unwrap();
        assert_eq!(scan.truncated_bytes, 0);
        assert_eq!(
            scan.records,
            vec![
                b"alpha".to_vec(),
                Vec::new(),
                "β-umlaut-\u{1f4be}".as_bytes().to_vec()
            ]
        );
    }

    #[test]
    fn scan_truncates_torn_tail_at_every_byte_boundary() {
        // Build a two-record log, then chop the file at every length
        // from "record 1 intact" to "record 2 complete minus one byte":
        // scan must always recover exactly record 1 and repair the file.
        let path = temp_wal("torn");
        let mut wal = Wal::open(&path, FsyncPolicy::Off).unwrap();
        wal.append(b"keep-me").unwrap();
        let boundary = wal.offset();
        wal.append(b"torn-away-record").unwrap();
        let full = std::fs::read(&path).unwrap();
        drop(wal);

        for cut in boundary..full.len() as u64 {
            std::fs::write(&path, &full[..cut as usize]).unwrap();
            let scan = Wal::scan(&path).unwrap();
            assert_eq!(scan.records, vec![b"keep-me".to_vec()], "cut at {cut}");
            assert_eq!(scan.valid_bytes, boundary);
            assert_eq!(scan.truncated_bytes, cut - boundary);
            // The repair must stick: a fresh scan sees a clean log.
            let again = Wal::scan(&path).unwrap();
            assert_eq!(again.truncated_bytes, 0);
            assert_eq!(std::fs::metadata(&path).unwrap().len(), boundary);
        }
    }

    #[test]
    fn scan_stops_at_corrupt_checksum() {
        let path = temp_wal("corrupt");
        let mut wal = Wal::open(&path, FsyncPolicy::Off).unwrap();
        wal.append(b"good").unwrap();
        wal.append(b"evil").unwrap();
        drop(wal);
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 1] ^= 0xff; // flip a payload byte of record 2
        std::fs::write(&path, &bytes).unwrap();
        let scan = Wal::scan(&path).unwrap();
        assert_eq!(scan.records, vec![b"good".to_vec()]);
        assert!(scan.truncated_bytes > 0);
    }

    #[test]
    fn crash_point_torn_leaves_partial_record() {
        let path = temp_wal("crash-torn");
        let mut wal = Wal::open(&path, FsyncPolicy::Always).unwrap();
        wal.append(b"first").unwrap();
        wal.set_crash_point(Some(CrashPoint {
            after_records: 1,
            torn_bytes: Some(5),
        }));
        let err = wal.append(b"second").unwrap_err();
        assert!(err.message().contains("simulated crash"), "{err}");
        assert!(wal.crashed());
        // Dead handle rejects everything.
        assert!(wal.append(b"third").is_err());
        assert!(wal.sync().is_err());
        drop(wal);
        let scan = Wal::scan(&path).unwrap();
        assert_eq!(scan.records, vec![b"first".to_vec()]);
        assert_eq!(scan.truncated_bytes, 5);
    }

    #[test]
    fn crash_point_clean_keeps_the_journaled_record() {
        let path = temp_wal("crash-clean");
        let mut wal = Wal::open(&path, FsyncPolicy::Off).unwrap();
        wal.append(b"first").unwrap();
        wal.set_crash_point(Some(CrashPoint {
            after_records: 1,
            torn_bytes: None,
        }));
        assert!(wal.append(b"second").is_err());
        drop(wal);
        // The record was journaled before the "crash": recovery sees it.
        let scan = Wal::scan(&path).unwrap();
        assert_eq!(scan.records, vec![b"first".to_vec(), b"second".to_vec()]);
        assert_eq!(scan.truncated_bytes, 0);
    }

    #[test]
    fn injected_append_and_fsync_faults_leave_no_trace() {
        for site in [FaultSite::WalAppend, FaultSite::WalFsync] {
            let path = temp_wal("fault");
            let mut wal = Wal::open(&path, FsyncPolicy::Always).unwrap();
            wal.append(b"acked").unwrap();
            let before = wal.offset();
            wal.set_fault_plan(Some(Arc::new(FaultPlan::fail_at(site))));
            let err = wal.append(b"rejected").unwrap_err();
            assert_eq!(err.kind(), "execution", "{site:?}: {err}");
            assert_eq!(wal.offset(), before);
            assert_eq!(std::fs::metadata(&path).unwrap().len(), before);
            // Clearing the plan restores service on the same handle.
            wal.set_fault_plan(None);
            wal.append(b"recovered").unwrap();
            drop(wal);
            let scan = Wal::scan(&path).unwrap();
            assert_eq!(
                scan.records,
                vec![b"acked".to_vec(), b"recovered".to_vec()],
                "{site:?}"
            );
        }
    }

    #[test]
    fn injected_panics_are_contained_as_internal_errors() {
        let path = temp_wal("panic");
        let mut wal = Wal::open(&path, FsyncPolicy::Always).unwrap();
        wal.set_fault_plan(Some(Arc::new(FaultPlan::panic_at(FaultSite::WalAppend))));
        let err = wal.append(b"boom").unwrap_err();
        assert_eq!(err.kind(), "internal");
        assert!(err.message().contains("contained panic"), "{err}");
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 0);
    }

    #[test]
    fn reset_empties_the_log() {
        let path = temp_wal("reset");
        let mut wal = Wal::open(&path, FsyncPolicy::Batch).unwrap();
        wal.append(b"one").unwrap();
        wal.append(b"two").unwrap();
        wal.reset().unwrap();
        assert_eq!(wal.offset(), 0);
        wal.append(b"three").unwrap();
        drop(wal);
        let scan = Wal::scan(&path).unwrap();
        assert_eq!(scan.records, vec![b"three".to_vec()]);
    }

    #[test]
    fn reserved_blocks_never_show_in_the_length() {
        let path = temp_wal("reserve");
        let len = || std::fs::metadata(&path).unwrap().len();
        let mut wal = Wal::open(&path, FsyncPolicy::Always).unwrap();
        let mut expect = Vec::new();
        // Past one chunk, through a record larger than a chunk, a failed
        // append and a reset: the file is as long as its records.
        let big = vec![b'x'; RESERVE_CHUNK as usize + 17];
        for payload in [b"one".as_slice(), &big, b"three"] {
            wal.append(payload).unwrap();
            expect.push(payload.to_vec());
            assert_eq!(len(), wal.offset());
        }
        wal.set_fault_plan(Some(Arc::new(FaultPlan::fail_at(FaultSite::WalFsync))));
        assert!(wal.append(b"refused").is_err());
        assert_eq!(len(), wal.offset());
        wal.set_fault_plan(None);
        wal.append(b"four").unwrap();
        expect.push(b"four".to_vec());
        assert_eq!(len(), wal.offset());
        assert_eq!(Wal::scan(&path).unwrap().records, expect);

        wal.reset().unwrap();
        assert_eq!(len(), 0);
        wal.append(b"five").unwrap();
        assert_eq!(len(), wal.offset());
        #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
        if wal.reserved != u64::MAX {
            use std::os::unix::fs::MetadataExt;
            let on_disk = std::fs::metadata(&path).unwrap().blocks() * 512;
            assert!(on_disk >= RESERVE_CHUNK, "{on_disk} bytes of blocks");
        }
        drop(wal);
        assert_eq!(Wal::scan(&path).unwrap().records, vec![b"five".to_vec()]);
    }

    #[test]
    fn reset_bumps_the_persisted_generation() {
        let path = temp_wal("generation");
        let mut wal = Wal::open(&path, FsyncPolicy::Off).unwrap();
        assert_eq!(wal.generation(), 0);
        assert_eq!(wal_generation(&path), 0, "no sidecar reads as zero");
        wal.append(b"one").unwrap();
        wal.reset().unwrap();
        assert_eq!(wal.generation(), 1);
        assert_eq!(wal_generation(&path), 1);
        wal.reset().unwrap();
        drop(wal);
        // The counter survives reopen — a restarted primary must not
        // reuse a generation its followers have already seen.
        let wal = Wal::open(&path, FsyncPolicy::Off).unwrap();
        assert_eq!(wal.generation(), 2);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(path.with_extension("gen"));
    }

    #[test]
    fn scan_of_missing_file_is_empty() {
        let path = temp_wal("missing");
        let scan = Wal::scan(&path).unwrap();
        assert!(scan.records.is_empty());
        assert_eq!(scan.valid_bytes, 0);
    }
}
