//! Property tests for the two frame decoders: [`frames`], the parser
//! under both durable logs (`wal.log`, `querylog.log`) and an ephemeral
//! service's in-memory query log, and [`FrameReader`], which streams an
//! operator's spill file back.
//!
//! Whatever the bytes — arbitrary, a valid log with garbage after it, a
//! valid log with one bit flipped, or a valid log cut at any byte — the
//! parser never panics, allocates nothing, and returns frames that
//! re-encode to exactly a prefix of the input. On a cut log it returns
//! exactly the records wholly before the cut; on a flipped bit, exactly
//! the records before the damaged one. The streaming reader returns the
//! same frames, then a typed error wherever the parser stopped short of
//! the end, and allocates no more than the input's length.

use proptest::prelude::*;
use sqlshare_storage::{frame, frames, FrameReader};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts the bytes the current thread allocates, so a case can measure
/// the parser alone while other tests run on other threads.
struct Counting;

thread_local! {
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded to `System` unchanged; the counter is a
// destructor-free thread-local that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATED.try_with(|a| a.set(a.get() + layout.size()));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocated() -> usize {
    ALLOCATED.with(Cell::get)
}

/// Header bytes in front of every payload: u32 length + u64 checksum.
const HEADER: usize = 12;

/// Run the parser over `bytes` and check what must hold for any input;
/// returns the payloads it found.
fn parse(bytes: &[u8]) -> Result<Vec<&[u8]>, TestCaseError> {
    let before = allocated();
    let (mut covered, mut adjacent) = (0usize, true);
    for (payload, end) in frames(bytes) {
        let start = payload.as_ptr() as usize - bytes.as_ptr() as usize;
        adjacent &= start == covered + HEADER && end == start + payload.len();
        covered = end;
    }
    // The parser borrows its payloads: not even a length prefix of 4 GiB
    // makes it allocate.
    prop_assert_eq!(allocated() - before, 0, "the parser allocated");
    prop_assert!(adjacent, "a payload does not follow its header and frame");

    let payloads: Vec<&[u8]> = frames(bytes).map(|(payload, _)| payload).collect();
    let reencoded: Vec<u8> = payloads.iter().flat_map(|p| frame(p)).collect();
    prop_assert_eq!(&reencoded[..], &bytes[..covered], "frames do not tile a prefix");
    Ok(payloads)
}

/// What the streaming reader may allocate beside the input's length: the
/// message of the one error it ends with.
const ERROR_MESSAGE: usize = 256;

/// Stream `bytes` through a [`FrameReader`] and check what must hold for
/// any input; returns the payloads it read and whether it ended in an
/// error rather than at a clean end.
fn stream(bytes: &[u8]) -> Result<(Vec<Vec<u8>>, bool), TestCaseError> {
    let mut reader = FrameReader::new(bytes, bytes.len() as u64);
    let (mut spent, mut payloads) = (0usize, Vec::new());
    let failed = loop {
        let before = allocated();
        let next = reader.next_frame();
        spent += allocated() - before;
        match next {
            Ok(Some(payload)) => payloads.push(payload.to_vec()),
            Ok(None) => break false,
            Err(e) => {
                prop_assert_eq!(e.kind(), "corrupt", "{}", e);
                break true;
            }
        }
    };
    prop_assert!(
        spent <= bytes.len() + ERROR_MESSAGE,
        "the reader allocated {} bytes for a {}-byte input",
        spent,
        bytes.len()
    );
    if failed {
        prop_assert!(reader.next_frame().is_err(), "a read after the error succeeded");
    }
    // It agrees with the parser: the same frames, and an error exactly
    // when they stop short of the end.
    let parsed: Vec<&[u8]> = frames(bytes).map(|(payload, _)| payload).collect();
    let covered = frames(bytes).last().map_or(0, |(_, end)| end);
    prop_assert_eq!(&payloads, &parsed);
    prop_assert_eq!(failed, covered < bytes.len());
    Ok((payloads, failed))
}

/// A valid log of `payloads`, and the offset just past each frame.
fn log_of(payloads: &[Vec<u8>]) -> (Vec<u8>, Vec<usize>) {
    let mut bytes = Vec::new();
    let mut ends = Vec::new();
    for p in payloads {
        bytes.extend(frame(p));
        ends.push(bytes.len());
    }
    (bytes, ends)
}

fn payloads() -> impl Strategy<Value = Vec<Vec<u8>>> {
    prop::collection::vec(prop::collection::vec(any::<u8>(), 0..48), 0..8)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_parse_to_a_prefix(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        parse(&bytes)?;
    }

    #[test]
    fn arbitrary_bytes_stream_to_a_prefix_then_an_error(
        bytes in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        stream(&bytes)?;
    }

    /// Cut at any byte, a stream yields exactly the records wholly
    /// before the cut, then an error unless the cut fell between frames.
    #[test]
    fn a_cut_stream_yields_the_records_before_the_cut(records in payloads(), at in any::<usize>()) {
        let (bytes, ends) = log_of(&records);
        let cut = at % (bytes.len() + 1);
        let (found, failed) = stream(&bytes[..cut])?;
        let whole = ends.iter().filter(|&&end| end <= cut).count();
        prop_assert_eq!(&found[..], &records[..whole]);
        prop_assert_eq!(failed, cut != ends[..whole].last().copied().unwrap_or(0));
    }

    /// One flipped bit anywhere yields exactly the records in front of
    /// the frame it landed in, then an error.
    #[test]
    fn a_flipped_bit_streams_the_records_before_it_then_an_error(
        records in payloads(),
        at in any::<usize>(),
        bit in 0u8..8,
    ) {
        let (mut bytes, ends) = log_of(&records);
        prop_assume!(!bytes.is_empty());
        let byte = at % bytes.len();
        bytes[byte] ^= 1 << bit;
        let (found, failed) = stream(&bytes)?;
        let before = ends.iter().filter(|&&end| end <= byte).count();
        prop_assert_eq!(&found[..], &records[..before]);
        prop_assert!(failed);
    }

    /// A valid log followed by garbage: every record is found, whatever
    /// follows (unless the garbage happens to be a valid frame itself).
    #[test]
    fn garbage_after_a_valid_log_keeps_every_record(
        records in payloads(),
        tail in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let (mut bytes, _) = log_of(&records);
        bytes.extend(&tail);
        let found = parse(&bytes)?;
        prop_assert!(found.len() >= records.len());
        prop_assert_eq!(&found[..records.len()], &records);
    }

    /// Cut at any byte, a log yields exactly the records wholly before
    /// the cut.
    #[test]
    fn a_cut_log_yields_the_records_before_the_cut(records in payloads(), at in any::<usize>()) {
        let (bytes, ends) = log_of(&records);
        let cut = at % (bytes.len() + 1);
        let found = parse(&bytes[..cut])?;
        let whole = ends.iter().filter(|&&end| end <= cut).count();
        prop_assert_eq!(found, &records[..whole]);
    }

    /// One flipped bit anywhere yields exactly the records in front of
    /// the frame it landed in: its checksum no longer validates.
    #[test]
    fn a_flipped_bit_yields_the_records_before_it(
        records in payloads(),
        at in any::<usize>(),
        bit in 0u8..8,
    ) {
        let (mut bytes, ends) = log_of(&records);
        prop_assume!(!bytes.is_empty());
        let byte = at % bytes.len();
        bytes[byte] ^= 1 << bit;
        let found = parse(&bytes)?;
        let before = ends.iter().filter(|&&end| end <= byte).count();
        prop_assert_eq!(found, &records[..before]);
    }
}
