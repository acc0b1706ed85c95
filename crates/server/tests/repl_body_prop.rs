//! Property tests for the standby's body decoder, [`decode_body`]: a
//! `/api/repl/*` answer read as the frames it is — a first frame of JSON
//! (a tail's header, or the snapshot document) and the record frames
//! after it, checked by the same frame reader recovery and spill use.
//!
//! Whatever the bytes — arbitrary, a valid body cut at any byte, or a
//! valid body with one bit flipped — the decoder never panics, allocates
//! no more than a small multiple of the input's length (never what a
//! length prefix claims), fails only with the typed corrupt error, and
//! never hands back the whole body's decoding for a damaged one.

use proptest::prelude::*;
use sqlshare_common::json::Json;
use sqlshare_core::frame;
use sqlshare_server::repl::decode_body;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts the bytes the current thread allocates, so a case can measure
/// the decoder alone while other tests run on other threads.
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

type Decoded = (Json, Vec<Vec<u8>>, u64);

/// What the decoder may allocate for an input of `len` bytes: the frame
/// reader's buffer and the payload copies (each at most `len`), a vector
/// slot per frame (a frame is at least 12 bytes), the first frame's JSON
/// tree and the message of the one error it ends with.
fn budget(len: usize) -> usize {
    8 * len + 1024
}

/// Decode `bytes` and check what must hold for any input.
fn decode(bytes: &[u8]) -> Result<Option<Decoded>, TestCaseError> {
    let before = allocated();
    let decoded = decode_body(bytes);
    let spent = allocated() - before;
    prop_assert!(
        spent <= budget(bytes.len()),
        "the decoder allocated {} bytes for a {}-byte input",
        spent,
        bytes.len()
    );
    match decoded {
        Ok(decoded) => {
            // Whole frames, all of them: the records re-encode to the
            // bytes the decoder says they take, and those end the body.
            let records: Vec<u8> = decoded.1.iter().flat_map(|p| frame(p)).collect();
            prop_assert_eq!(records.len() as u64, decoded.2);
            prop_assert_eq!(&bytes[bytes.len() - records.len()..], &records[..]);
            Ok(Some(decoded))
        }
        Err(e) => {
            prop_assert_eq!(e.kind(), "corrupt", "{}", e);
            Ok(None)
        }
    }
}

/// A tail's body: its header frame, then one frame per record.
fn body_of(header: &Json, records: &[Vec<u8>]) -> Vec<u8> {
    let mut body = frame(header.to_string().as_bytes());
    records.iter().for_each(|r| body.extend(frame(r)));
    body
}

fn header() -> impl Strategy<Value = Json> {
    (any::<bool>(), any::<u32>(), any::<u16>()).prop_map(|(reset, generation, epoch)| {
        Json::object([
            ("reset", Json::Bool(reset)),
            ("generation", Json::num(generation as f64)),
            ("epoch", Json::num(epoch as f64)),
        ])
    })
}

fn records() -> impl Strategy<Value = Vec<Vec<u8>>> {
    prop::collection::vec(prop::collection::vec(any::<u8>(), 0..48), 0..6)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_are_refused_typed(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        decode(&bytes)?;
    }

    /// A well-formed length prefix claiming far more than follows.
    #[test]
    fn a_length_past_the_end_allocates_nothing_for_it(claim in any::<u32>(), tail in records()) {
        let mut bytes = claim.to_le_bytes().to_vec();
        bytes.extend([0; 8]);
        bytes.extend(tail.concat());
        decode(&bytes)?;
    }

    #[test]
    fn a_valid_body_decodes_whole(header in header(), records in records()) {
        let body = body_of(&header, &records);
        let decoded = decode(&body)?.expect("a valid body decodes");
        prop_assert_eq!(decoded.0, header);
        prop_assert_eq!(decoded.1, records);
    }

    /// Cut at any byte short of the end, a body never decodes as the
    /// whole: it is refused, or (cut between record frames) it decodes
    /// as fewer records, the prefix a short read of the file would be.
    #[test]
    fn a_cut_body_never_decodes_as_whole(header in header(), records in records()) {
        let body = body_of(&header, &records);
        let whole = decode(&body)?.expect("a valid body decodes");
        for cut in 0..body.len() {
            if let Some(cut) = decode(&body[..cut])? {
                prop_assert!(cut.1.len() < whole.1.len(), "a cut at {} decoded whole", cut.1.len());
                prop_assert_eq!(&cut.1[..], &whole.1[..cut.1.len()]);
            }
        }
    }

    /// One flipped bit anywhere and the body is refused: every frame's
    /// checksum covers its payload, and a changed length no longer tiles.
    #[test]
    fn a_flipped_bit_is_refused(
        header in header(),
        records in records(),
        at in any::<usize>(),
        bit in 0u8..8,
    ) {
        let mut body = body_of(&header, &records);
        let byte = at % body.len();
        body[byte] ^= 1 << bit;
        prop_assert!(decode(&body)?.is_none(), "a flip at byte {} decoded", byte);
    }
}
