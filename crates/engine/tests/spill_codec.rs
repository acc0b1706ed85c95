//! Property tests for the row codec under an operator's spill files,
//! [`encode_row`] / [`decode_row`]: a spill file is read back through
//! it, so whatever bytes it is handed it returns a typed error or the
//! one row that encodes to exactly those bytes — never a panic, never a
//! row that reads back as something else.

use proptest::prelude::*;
use sqlshare_engine::spill::{decode_row, encode_row};
use sqlshare_engine::Value;

/// A value of every layout the codec knows, picked and filled from two
/// random words (floats by their bits, so NaN payloads and `-0.0` come
/// up; text with multi-byte characters).
fn value(pick: u8, word: u64) -> Value {
    match pick % 7 {
        0 => Value::Null,
        1 => Value::Bool(word.is_multiple_of(2)),
        2 => Value::Int(word as i64),
        3 => Value::Float(f64::from_bits(word)),
        4 => Value::Date(word as i32),
        5 => Value::Text(format!("{word:x}")),
        _ => Value::Text("é✓".repeat((word % 5) as usize)),
    }
}

fn encoded(row: &[Value]) -> Vec<u8> {
    let mut bytes = Vec::new();
    encode_row(row, &mut bytes);
    bytes
}

/// What must hold for any input: a typed error, or a row that
/// re-encodes to exactly the input.
fn check(bytes: &[u8]) -> Result<(), TestCaseError> {
    match decode_row(bytes) {
        Ok(row) => prop_assert_eq!(encoded(&row), bytes.to_vec(), "decoded {:?}", row),
        Err(e) => prop_assert_eq!(e.kind(), "corrupt", "{}", e),
    }
    Ok(())
}

fn cells() -> impl Strategy<Value = Vec<(u8, u64)>> {
    prop::collection::vec((any::<u8>(), any::<u64>()), 0..8)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn a_row_round_trips_bit_for_bit(cells in cells()) {
        let row: Vec<Value> = cells.iter().map(|&(p, w)| value(p, w)).collect();
        let bytes = encoded(&row);
        let back = decode_row(&bytes).expect("an encoded row decodes");
        prop_assert_eq!(encoded(&back), bytes);
        prop_assert_eq!(back.len(), row.len());
    }

    #[test]
    fn arbitrary_bytes_decode_to_their_own_row_or_a_typed_error(
        bytes in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        check(&bytes)?;
    }

    /// Bytes near a valid record — cut short, a byte changed, or a tag
    /// byte at the end — are where a lax decoder would go wrong.
    #[test]
    fn a_damaged_record_decodes_to_its_own_row_or_a_typed_error(
        cells in cells(),
        at in any::<usize>(),
        byte in any::<u8>(),
    ) {
        let row: Vec<Value> = cells.iter().map(|&(p, w)| value(p, w)).collect();
        let bytes = encoded(&row);
        let cut = at % (bytes.len() + 1);
        check(&bytes[..cut])?;
        if !bytes.is_empty() {
            let mut changed = bytes.clone();
            changed[at % bytes.len()] = byte;
            check(&changed)?;
        }
        let mut longer = bytes;
        longer.push(byte % 8);
        check(&longer)?;
    }
}
