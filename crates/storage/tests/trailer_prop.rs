//! Property tests for the snapshot trailer: [`trailer_sum`], which reads
//! the checksum a snapshot file (manifest or segment) ends with, and
//! [`verify_payload`], the scrubber's whole-file check built on it.
//!
//! Whatever the text — arbitrary, a sealed file cut at any char
//! boundary, or a sealed file with one bit flipped that is still text —
//! neither panics, neither allocates, and none of them verifies: only
//! the whole sealed file does.

use proptest::prelude::*;
use sqlshare_common::hash::fnv64;
use sqlshare_common::json::Json;
use sqlshare_storage::snapshot::{trailer_sum, verify_payload, TRAILER_LEN};
use sqlshare_storage::SnapshotStore;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts the bytes the current thread allocates, so a case can measure
/// the check alone while other tests run on other threads.
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

/// A snapshot file's text as a store writes it: the payload, then its
/// trailer (the test below checks this against [`SnapshotStore`]).
fn seal(payload: &str) -> String {
    format!("{payload}\n#fnv64={:016x}\n", fnv64(payload.as_bytes()))
}

/// A JSON payload holding `text`, the shape of a snapshot document.
fn payload(text: &str) -> String {
    Json::object([("lsn", Json::num(7.0)), ("text", Json::str(text))]).to_string()
}

/// Check `text` the way a reader does, and what must hold for text that
/// is not a whole sealed file: no allocation, and no verification.
fn refused(text: &str) -> Result<(), TestCaseError> {
    let before = allocated();
    let verified = verify_payload(text);
    let tail = &text.as_bytes()[text.len().saturating_sub(TRAILER_LEN as usize)..];
    let sum = trailer_sum(tail);
    prop_assert_eq!(allocated() - before, 0, "the check allocated");
    prop_assert!(!verified, "verified: {:?}", text);
    if let Some(sum) = sum {
        // A well-formed trailer over the wrong payload.
        let payload = &text.as_bytes()[..text.len() - TRAILER_LEN as usize];
        prop_assert!(sum != fnv64(payload), "a matching trailer did not verify");
    }
    Ok(())
}

fn text() -> impl Strategy<Value = String> {
    prop::collection::vec(any::<char>(), 0..96).prop_map(|chars| chars.into_iter().collect())
}

#[test]
fn the_test_seal_is_the_stores() {
    let dir = std::env::temp_dir().join(format!("sqlshare-trailer-prop-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let store = SnapshotStore::new(&dir);
    let payload = payload("5 µg/L €€ café");
    let written = std::fs::read_to_string(store.write(7, &payload).unwrap()).unwrap();
    assert_eq!(written, seal(&payload));
    assert!(verify_payload(&written));
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_text_never_verifies(text in text()) {
        refused(&text)?;
    }

    #[test]
    fn arbitrary_text_with_a_trailer_shape_never_verifies(text in text(), hex in any::<u64>()) {
        // A well-formed trailer stamped over some other payload.
        let forged = format!("{text}\n#fnv64={hex:016x}\n");
        prop_assume!(hex != fnv64(text.as_bytes()));
        refused(&forged)?;
    }

    /// Cut at any char boundary short of the end, a sealed file no
    /// longer verifies.
    #[test]
    fn a_cut_sealed_file_never_verifies(text in text()) {
        let sealed = seal(&payload(&text));
        prop_assert!(verify_payload(&sealed));
        for cut in (0..sealed.len()).filter(|&at| sealed.is_char_boundary(at)) {
            refused(&sealed[..cut])?;
        }
    }

    /// One flipped bit anywhere, where the file is still text, and it no
    /// longer verifies: not in the payload, the marker, the newline, or
    /// the hex digits (an uppercase digit is a flipped bit too).
    #[test]
    fn a_flipped_bit_never_verifies(text in text(), at in any::<usize>(), bit in 0u8..8) {
        let mut bytes = seal(&payload(&text)).into_bytes();
        let byte = at % bytes.len();
        bytes[byte] ^= 1 << bit;
        let Ok(flipped) = String::from_utf8(bytes) else {
            return Ok(()); // no longer text: a reader refuses it before the trailer
        };
        refused(&flipped)?;
    }

    /// Every hex digit of the trailer, flipped at every bit that keeps it
    /// text: none of them verifies.
    #[test]
    fn every_flip_in_the_trailer_is_refused(text in text()) {
        let sealed = seal(&payload(&text)).into_bytes();
        for byte in sealed.len() - TRAILER_LEN as usize..sealed.len() {
            for bit in 0..8 {
                let mut bytes = sealed.clone();
                bytes[byte] ^= 1 << bit;
                if let Ok(flipped) = String::from_utf8(bytes) {
                    refused(&flipped)?;
                }
            }
        }
    }
}
