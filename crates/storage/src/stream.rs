//! Tail-following WAL reader for replication.
//!
//! [`read_tail`] reads checksummed records from a live `wal.log` starting
//! at a byte offset, through the same frame parser as recovery's
//! [`Wal::scan`](crate::Wal) — but it never repairs the file. A
//! record whose header, length, or checksum does not yet validate is
//! treated as a write in flight: the reader hands off at the last valid
//! record boundary and the next poll resumes from that offset, by which
//! time the append (if it was one) has completed. This is what lets a
//! standby stream from a primary's WAL while the primary is still
//! writing to it.
//!
//! Snapshots truncate the WAL (`Wal::reset`), so a follower's offset can
//! point past the end of the file. That is not corruption — it means the
//! history the follower was reading no longer exists and it must catch
//! up from a snapshot instead. [`read_tail`] reports it as
//! [`TailRead::reset`] and returns no records.

use crate::wal::frames;
#[cfg(test)]
use crate::wal::HEADER_LEN;
use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom};
use std::path::Path;

/// One poll of a live WAL tail.
#[derive(Debug, Default)]
pub struct TailRead {
    /// Fully validated record payloads, in append order.
    pub records: Vec<Vec<u8>>,
    /// The same records' frames, byte for byte as the file holds them
    /// from `from` on: what a primary ships to its standbys.
    pub frames: Vec<u8>,
    /// `ends[i]` is the offset of the byte after `records[i]` — where a
    /// reader that consumed only the first `i + 1` records resumes.
    pub ends: Vec<u64>,
    /// Offset of the byte after the last valid record — pass this as
    /// `from` on the next poll.
    pub end_offset: u64,
    /// The file is now shorter than `from`: a snapshot truncated the
    /// WAL and the follower must catch up from a snapshot, then resume
    /// from offset 0.
    pub reset: bool,
}

/// Read validated records from `path` starting at byte offset `from`.
///
/// Stops (without error) at the first frame that does not fully
/// validate — a torn tail mid-append looks identical to a frame that
/// has not finished being written, and both resolve the same way: poll
/// again later from [`TailRead::end_offset`]. A missing file reads as
/// an empty WAL (offset 0), which is how a freshly reset primary looks.
pub fn read_tail(path: &Path, from: u64) -> io::Result<TailRead> {
    let mut file = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            return Ok(TailRead {
                reset: from > 0,
                ..TailRead::default()
            })
        }
        Err(e) => return Err(e),
    };
    let len = file.metadata()?.len();
    if len < from {
        return Ok(TailRead {
            end_offset: from,
            reset: true,
            ..TailRead::default()
        });
    }
    file.seek(SeekFrom::Start(from))?;
    let mut bytes = Vec::with_capacity((len - from) as usize);
    file.read_to_end(&mut bytes)?;

    let mut out = TailRead {
        end_offset: from,
        ..TailRead::default()
    };
    for (payload, end) in frames(&bytes) {
        out.records.push(payload.to_vec());
        out.end_offset = from + end as u64;
        out.ends.push(out.end_offset);
    }
    bytes.truncate((out.end_offset - from) as usize);
    out.frames = bytes;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FsyncPolicy, Wal};
    use std::fs::OpenOptions;
    use std::io::Write;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_path(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "sqlshare-stream-{tag}-{}-{n}.log",
            std::process::id()
        ))
    }

    #[test]
    fn reads_records_incrementally_from_offsets() {
        let path = temp_path("incr");
        let mut wal = Wal::open(&path, FsyncPolicy::Off).unwrap();
        wal.append(b"one").unwrap();
        wal.append(b"two").unwrap();

        let first = read_tail(&path, 0).unwrap();
        assert_eq!(first.records, vec![b"one".to_vec(), b"two".to_vec()]);
        assert!(!first.reset);

        // Nothing new yet: empty read, offset unchanged.
        let idle = read_tail(&path, first.end_offset).unwrap();
        assert!(idle.records.is_empty());
        assert_eq!(idle.end_offset, first.end_offset);

        wal.append(b"three").unwrap();
        let next = read_tail(&path, first.end_offset).unwrap();
        assert_eq!(next.records, vec![b"three".to_vec()]);
        assert!(next.end_offset > first.end_offset);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_hands_off_at_last_valid_boundary_and_resumes() {
        let path = temp_path("torn");
        let mut wal = Wal::open(&path, FsyncPolicy::Off).unwrap();
        wal.append(b"alpha").unwrap();
        let boundary = read_tail(&path, 0).unwrap().end_offset;
        drop(wal);

        // Simulate an append caught mid-write: chop the second record at
        // every byte short of complete. The reader must return only the
        // first record and never advance past the boundary.
        let mut wal = Wal::open(&path, FsyncPolicy::Off).unwrap();
        wal.append(b"beta-record").unwrap();
        drop(wal);
        let full = std::fs::read(&path).unwrap();
        for cut in boundary as usize..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let got = read_tail(&path, 0).unwrap();
            assert_eq!(got.records.len(), 1, "cut at {cut}");
            assert_eq!(got.end_offset, boundary, "cut at {cut}");
            assert!(!got.reset);
        }

        // The write completes; the next poll from the hand-off boundary
        // picks the record up cleanly.
        std::fs::write(&path, &full).unwrap();
        let resumed = read_tail(&path, boundary).unwrap();
        assert_eq!(resumed.records, vec![b"beta-record".to_vec()]);
        assert_eq!(resumed.end_offset, full.len() as u64);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_checksum_blocks_without_repairing_the_file() {
        let path = temp_path("corrupt");
        let mut wal = Wal::open(&path, FsyncPolicy::Off).unwrap();
        wal.append(b"good").unwrap();
        wal.append(b"evil").unwrap();
        drop(wal);
        let boundary = {
            let full = std::fs::read(&path).unwrap();
            let len = u32::from_le_bytes(full[0..4].try_into().unwrap()) as u64;
            HEADER_LEN as u64 + len
        };
        // Flip a payload byte in the second record.
        let mut bytes = std::fs::read(&path).unwrap();
        let idx = boundary as usize + HEADER_LEN;
        bytes[idx] ^= 0xff;
        let before = bytes.clone();
        std::fs::write(&path, &bytes).unwrap();

        let got = read_tail(&path, 0).unwrap();
        assert_eq!(got.records, vec![b"good".to_vec()]);
        assert_eq!(got.end_offset, boundary);
        assert_eq!(std::fs::read(&path).unwrap(), before, "file untouched");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn truncated_file_reports_reset() {
        let path = temp_path("reset");
        let mut wal = Wal::open(&path, FsyncPolicy::Off).unwrap();
        wal.append(b"one").unwrap();
        wal.append(b"two").unwrap();
        let end = read_tail(&path, 0).unwrap().end_offset;
        wal.reset().unwrap();
        wal.append(b"fresh").unwrap();

        let got = read_tail(&path, end).unwrap();
        assert!(got.reset, "shrunk file must signal snapshot catch-up");
        assert!(got.records.is_empty());

        // After catch-up the follower restarts from offset 0.
        let fresh = read_tail(&path, 0).unwrap();
        assert_eq!(fresh.records, vec![b"fresh".to_vec()]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_file_is_empty_not_an_error() {
        let path = temp_path("missing");
        let got = read_tail(&path, 0).unwrap();
        assert!(got.records.is_empty() && !got.reset);
        let behind = read_tail(&path, 64).unwrap();
        assert!(behind.reset);
    }

    #[test]
    fn header_shorter_than_frame_prefix_is_in_flight() {
        let path = temp_path("short");
        let mut f = OpenOptions::new()
            .create(true)
            .truncate(true)
            .write(true)
            .open(&path)
            .unwrap();
        f.write_all(&[1, 2, 3]).unwrap(); // 3 bytes: not even a header
        drop(f);
        let got = read_tail(&path, 0).unwrap();
        assert!(got.records.is_empty());
        assert_eq!(got.end_offset, 0);
        assert!(!got.reset);
        let _ = std::fs::remove_file(&path);
    }
}
