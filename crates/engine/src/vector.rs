//! Typed column vectors with validity bitmaps — the storage layout of
//! the vectorized execution engine ([`crate::vexec`]).
//!
//! A [`Batch`] is a set of equal-length columns. Each column is an
//! `Arc<ColumnVec>` plus an offset, so slicing a batch (morsels,
//! `TOP`) and passing columns through projections is zero-copy. The
//! typed representations mirror the engine's [`Value`] scalar types:
//! i64, f64, bool, i32 days-since-epoch dates, and dictionary-encoded
//! strings. A column whose values span more than one non-null type
//! falls back to `Mixed` (boxed [`Value`]s) so round-tripping a batch
//! through rows is always byte-exact — the differential oracle demands
//! it.
//!
//! Null semantics: a column may carry a validity [`Bitmap`]; a cleared
//! bit means SQL `NULL`. Kernels in `vexec` consult validity before
//! touching the typed data, matching the row interpreter's
//! null-propagation rules exactly.

use crate::hashtable::TextPool;
use crate::memory;
use crate::value::{Row, Value};
use std::ops::Range;
use std::sync::Arc;

/// Rows per kernel-evaluation chunk (matches the morsel size).
pub const BATCH_SIZE: usize = 1024;

/// A packed validity bitmap: bit set = value present, cleared = NULL.
#[derive(Debug, Clone, Default)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// An all-valid bitmap of `len` bits.
    pub fn new_valid(len: usize) -> Self {
        Bitmap {
            words: vec![!0u64; len.div_ceil(64)],
            len,
        }
    }

    /// An all-null bitmap of `len` bits.
    pub fn new_null(len: usize) -> Self {
        Bitmap {
            words: vec![0u64; len.div_ceil(64)],
            len,
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    #[inline]
    pub fn set(&mut self, i: usize, valid: bool) {
        debug_assert!(i < self.len);
        let mask = 1u64 << (i % 64);
        if valid {
            self.words[i / 64] |= mask;
        } else {
            self.words[i / 64] &= !mask;
        }
    }

    pub fn push(&mut self, valid: bool) {
        if self.len.is_multiple_of(64) {
            self.words.push(0);
        }
        self.len += 1;
        self.set(self.len - 1, valid);
    }

    /// Count of set (valid) bits.
    pub fn count_valid(&self) -> usize {
        let mut total: usize = self.words.iter().map(|w| w.count_ones() as usize).sum();
        // Mask off bits past `len` in the final word, which `set` never
        // touches but `new_valid` initializes to 1.
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words.last() {
                total -= (last >> tail).count_ones() as usize;
            }
        }
        total
    }

    /// True when every bit in the bitmap is set.
    pub fn all_valid(&self) -> bool {
        self.count_valid() == self.len
    }
}

/// The typed payload of a column.
#[derive(Debug, Clone)]
pub enum ColumnData {
    Int(Vec<i64>),
    Float(Vec<f64>),
    Bool(Vec<bool>),
    /// Days since 1970-01-01, matching [`Value::Date`].
    Date(Vec<i32>),
    /// Dictionary-encoded strings: `codes[i]` indexes into `dict`.
    /// `dict` holds each string once (the builder interns, its NULL
    /// placeholder `""` included), so equal strings hold equal codes;
    /// [`crate::hashtable`] keys on codes unchanged when both sides
    /// share the `Arc`, and by string otherwise.
    Text { codes: Vec<u32>, dict: Arc<Vec<String>> },
    /// Heterogeneous fallback: exact `Value`s (covers Int/Float mixes
    /// and anything else a user table throws at us).
    Mixed(Vec<Value>),
}

impl ColumnData {
    pub fn len(&self) -> usize {
        match self {
            ColumnData::Int(v) => v.len(),
            ColumnData::Float(v) => v.len(),
            ColumnData::Bool(v) => v.len(),
            ColumnData::Date(v) => v.len(),
            ColumnData::Text { codes, .. } => codes.len(),
            ColumnData::Mixed(v) => v.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A column vector: typed data plus an optional validity bitmap
/// (`None` means all-valid).
#[derive(Debug, Clone)]
pub struct ColumnVec {
    pub data: ColumnData,
    pub validity: Option<Bitmap>,
}

impl ColumnVec {
    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    #[inline]
    pub fn is_valid(&self, i: usize) -> bool {
        self.validity.as_ref().map(|b| b.get(i)).unwrap_or(true)
    }

    /// The `Value` at position `i` (cloning text).
    pub fn value(&self, i: usize) -> Value {
        if !self.is_valid(i) {
            return Value::Null;
        }
        match &self.data {
            ColumnData::Int(v) => Value::Int(v[i]),
            ColumnData::Float(v) => Value::Float(v[i]),
            ColumnData::Bool(v) => Value::Bool(v[i]),
            ColumnData::Date(v) => Value::Date(v[i]),
            ColumnData::Text { codes, dict } => Value::Text(dict[codes[i] as usize].clone()),
            ColumnData::Mixed(v) => v[i].clone(),
        }
    }

    /// Build a column from `Value`s, picking the tightest typed layout
    /// that round-trips exactly (falling back to `Mixed`).
    pub fn from_values(values: &[Value]) -> Self {
        let mut builder = ColumnBuilder::new();
        for v in values {
            builder.push(v);
        }
        builder.finish()
    }
}

/// A column reference inside a batch: shared vector plus a start
/// offset. Row `i` of the batch reads `vec` at `off + i`.
#[derive(Debug, Clone)]
pub struct Col {
    pub vec: Arc<ColumnVec>,
    pub off: usize,
}

impl Col {
    pub fn new(vec: ColumnVec) -> Self {
        Col { vec: Arc::new(vec), off: 0 }
    }

    #[inline]
    pub fn is_valid(&self, i: usize) -> bool {
        self.vec.is_valid(self.off + i)
    }

    pub fn value(&self, i: usize) -> Value {
        self.vec.value(self.off + i)
    }

    /// Row `i` borrowed, when it is a text cell (of a text or a `Mixed`
    /// column).
    pub fn text(&self, i: usize) -> Option<&str> {
        match &self.vec.data {
            _ if !self.is_valid(i) => None,
            ColumnData::Text { codes, dict } => Some(&dict[codes[self.off + i] as usize]),
            ColumnData::Mixed(v) => match &v[self.off + i] {
                Value::Text(s) => Some(s),
                _ => None,
            },
            _ => None,
        }
    }

    /// A literal broadcast to `len` rows.
    pub fn broadcast(value: &Value, len: usize) -> Self {
        let mut b = ColumnBuilder::new();
        for _ in 0..len {
            b.push(value);
        }
        Col::new(b.finish())
    }
}

/// A batch of equal-length columns.
#[derive(Debug, Clone, Default)]
pub struct Batch {
    pub cols: Vec<Col>,
    pub len: usize,
}

impl Batch {
    pub fn new(cols: Vec<Col>, len: usize) -> Self {
        Batch { cols, len }
    }

    pub fn width(&self) -> usize {
        self.cols.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Columnarize rows. `width` covers the empty-table case where the
    /// column count cannot be inferred from the data.
    pub fn from_rows(rows: &[Row], width: usize) -> Self {
        let mut builders: Vec<ColumnBuilder> =
            (0..width).map(|_| ColumnBuilder::with_capacity(rows.len())).collect();
        for row in rows {
            for (b, v) in builders.iter_mut().zip(row.iter()) {
                b.push(v);
            }
        }
        Batch {
            cols: builders.into_iter().map(|b| Col::new(b.finish())).collect(),
            len: rows.len(),
        }
    }

    /// Materialize row `i`.
    pub fn row(&self, i: usize) -> Row {
        self.cols.iter().map(|c| c.value(i)).collect()
    }

    /// Materialize every row.
    pub fn to_rows(&self) -> Vec<Row> {
        (0..self.len).map(|i| self.row(i)).collect()
    }

    /// Zero-copy sub-range of the batch (columns share the backing
    /// vectors with adjusted offsets).
    pub fn slice(&self, range: Range<usize>) -> Batch {
        debug_assert!(range.end <= self.len);
        Batch {
            cols: self
                .cols
                .iter()
                .map(|c| Col { vec: Arc::clone(&c.vec), off: c.off + range.start })
                .collect(),
            len: range.len(),
        }
    }

    /// Gather the selected row positions into a fresh, dense batch.
    /// Text dictionaries are shared, not rebuilt. A [`NULL_ROW`]
    /// position yields NULL in every column (outer-join padding).
    pub fn gather(&self, sel: &[u32]) -> Batch {
        self.gather_live(sel, None)
    }

    /// [`Batch::gather`] restricted to the columns flagged in `live`
    /// (`None` = all). The others keep their slot — expressions address
    /// columns by index — but share one all-NULL placeholder, so a
    /// consumer that declared what it reads pays for nothing else.
    pub(crate) fn gather_live(&self, sel: &[u32], live: Option<&[bool]>) -> Batch {
        let mut dead: Option<Col> = None;
        let cols = self
            .cols
            .iter()
            .enumerate()
            .map(|(i, c)| match live {
                Some(live) if !live[i] => dead.get_or_insert_with(|| null_col(sel.len())).clone(),
                _ => gather_col(c, sel),
            })
            .collect();
        Batch { cols, len: sel.len() }
    }
}

/// Equal width and rows, cell for cell under `Value`'s equality.
impl PartialEq for Batch {
    fn eq(&self, other: &Self) -> bool {
        self.width() == other.width() && self.to_rows() == other.to_rows()
    }
}

/// Selection-vector entry meaning "no source row": gathers as NULL.
pub const NULL_ROW: u32 = u32::MAX;

fn null_col(len: usize) -> Col {
    Col::new(ColumnVec {
        data: ColumnData::Int(vec![0; len]),
        validity: Some(Bitmap::new_null(len)),
    })
}

fn gather_col(col: &Col, sel: &[u32]) -> Col {
    let src = &col.vec;
    let off = col.off;
    let valid = |i: u32| i != NULL_ROW && src.is_valid(off + i as usize);
    let validity = if sel.iter().all(|&i| valid(i)) {
        None
    } else {
        let mut bm = Bitmap::new_null(sel.len());
        for (out, &i) in sel.iter().enumerate() {
            bm.set(out, valid(i));
        }
        Some(bm)
    };
    fn pick<T: Copy + Default>(v: &[T], off: usize, sel: &[u32]) -> Vec<T> {
        sel.iter()
            .map(|&i| if i == NULL_ROW { T::default() } else { v[off + i as usize] })
            .collect()
    }
    let data = match &src.data {
        ColumnData::Int(v) => ColumnData::Int(pick(v, off, sel)),
        ColumnData::Float(v) => ColumnData::Float(pick(v, off, sel)),
        ColumnData::Bool(v) => ColumnData::Bool(pick(v, off, sel)),
        ColumnData::Date(v) => ColumnData::Date(pick(v, off, sel)),
        ColumnData::Text { codes, dict } => ColumnData::Text {
            codes: pick(codes, off, sel),
            dict: Arc::clone(dict),
        },
        ColumnData::Mixed(v) => ColumnData::Mixed(
            sel.iter()
                .map(|&i| if i == NULL_ROW { Value::Null } else { v[off + i as usize].clone() })
                .collect(),
        ),
    };
    Col::new(ColumnVec { data, validity })
}

/// Incremental column builder. Starts optimistically typed from the
/// first non-null value and demotes to `Mixed` when a second type
/// shows up.
pub struct ColumnBuilder {
    data: ColumnData,
    validity: Bitmap,
    any_null: bool,
    /// A text column's strings while it is built; `finish` (or a
    /// demotion) moves them into `data`.
    text: TextPool,
    /// Values seen while the column is still all-null (no type chosen).
    pending_nulls: usize,
    started: bool,
    /// Values expected: the typed vectors, the validity bitmap and a
    /// text column's string index are sized for them once.
    capacity: usize,
}

impl Default for ColumnBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ColumnBuilder {
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// A builder for about `rows` values.
    pub fn with_capacity(rows: usize) -> Self {
        ColumnBuilder {
            data: ColumnData::Int(Vec::new()),
            validity: Bitmap { words: Vec::with_capacity(rows.div_ceil(64)), len: 0 },
            any_null: false,
            text: TextPool::new(),
            pending_nulls: 0,
            started: false,
            capacity: rows,
        }
    }

    pub fn push(&mut self, v: &Value) {
        if matches!(v, Value::Null) {
            self.any_null = true;
            self.validity.push(false);
            if self.started {
                self.push_placeholder();
            } else {
                self.pending_nulls += 1;
            }
            return;
        }
        if !self.started {
            self.start_with(v);
        }
        self.validity.push(true);
        match (&mut self.data, v) {
            (ColumnData::Int(vec), Value::Int(i)) => vec.push(*i),
            (ColumnData::Float(vec), Value::Float(f)) => vec.push(*f),
            (ColumnData::Bool(vec), Value::Bool(b)) => vec.push(*b),
            (ColumnData::Date(vec), Value::Date(d)) => vec.push(*d),
            (ColumnData::Text { codes, .. }, Value::Text(s)) => codes.push(self.text.intern(s)),
            (ColumnData::Mixed(vec), v) => vec.push(v.clone()),
            _ => {
                self.demote();
                if let ColumnData::Mixed(vec) = &mut self.data {
                    vec.push(v.clone());
                }
            }
        }
    }

    /// [`ColumnBuilder::push`] of `Value::Text(s)` from a borrowed cell:
    /// once the column is text, a string already interned allocates
    /// nothing.
    pub fn push_str(&mut self, s: &str) {
        if let ColumnData::Text { codes, .. } = &mut self.data {
            self.validity.push(true);
            return codes.push(self.text.intern(s));
        }
        self.push(&Value::Text(s.to_owned()))
    }

    fn start_with(&mut self, v: &Value) {
        self.started = true;
        let n = self.capacity;
        self.data = match v {
            Value::Int(_) => ColumnData::Int(Vec::with_capacity(n)),
            Value::Float(_) => ColumnData::Float(Vec::with_capacity(n)),
            Value::Bool(_) => ColumnData::Bool(Vec::with_capacity(n)),
            Value::Date(_) => ColumnData::Date(Vec::with_capacity(n)),
            Value::Text(_) => {
                self.text = TextPool::with_capacity(n);
                ColumnData::Text { codes: Vec::with_capacity(n), dict: Arc::default() }
            }
            Value::Null => unreachable!("nulls handled before start_with"),
        };
        // Backfill placeholders for the leading nulls.
        for _ in 0..self.pending_nulls {
            self.push_placeholder();
        }
        self.pending_nulls = 0;
    }

    fn push_placeholder(&mut self) {
        match &mut self.data {
            ColumnData::Int(v) => v.push(0),
            ColumnData::Float(v) => v.push(0.0),
            ColumnData::Bool(v) => v.push(false),
            ColumnData::Date(v) => v.push(0),
            ColumnData::Text { codes, .. } => {
                if self.text.extra.is_empty() {
                    // Registered like any other string, so a real ""
                    // arriving later shares code 0 instead of taking a
                    // second entry: dictionaries hold distinct strings.
                    self.text.intern("");
                }
                codes.push(0);
            }
            ColumnData::Mixed(v) => v.push(Value::Null),
        }
    }

    /// Rebuild the typed data as `Mixed`, preserving nulls.
    fn demote(&mut self) {
        let typed = ColumnVec {
            data: self.take_data(),
            validity: Some(self.validity.clone()),
        };
        self.data = ColumnData::Mixed((0..typed.len()).map(|i| typed.value(i)).collect());
    }

    /// The data built so far, a text column's dictionary moved in.
    fn take_data(&mut self) -> ColumnData {
        let mut data = std::mem::replace(&mut self.data, ColumnData::Mixed(Vec::new()));
        if let ColumnData::Text { dict, .. } = &mut data {
            *dict = Arc::new(std::mem::replace(&mut self.text, TextPool::new()).extra);
        }
        data
    }

    pub fn finish(mut self) -> ColumnVec {
        if !self.started {
            // All-null column: keep the Int placeholder type with an
            // all-null bitmap.
            for _ in 0..self.pending_nulls {
                self.push_placeholder();
            }
        }
        ColumnVec {
            data: self.take_data(),
            validity: if self.any_null { Some(self.validity) } else { None },
        }
    }
}

/// The memory-governor charge for a batch of rows, replicating
/// [`memory::values_bytes`] per row exactly so the vectorized path
/// charges the same bytes the row path would.
pub fn batch_rows_bytes(batch: &Batch) -> usize {
    let mut total = batch.len * std::mem::size_of::<Row>();
    for col in &batch.cols {
        total += batch.len * std::mem::size_of::<Value>();
        if let ColumnData::Text { .. } | ColumnData::Mixed(_) = &col.vec.data {
            total += (0..batch.len).filter_map(|i| col.text(i)).map(str::len).sum::<usize>();
        }
    }
    total
}

/// Row-path equivalent used by tests: charge for materialized rows.
pub fn rows_bytes(rows: &[Row]) -> usize {
    rows.iter().map(|r| memory::values_bytes(r)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(values: Vec<Value>) -> ColumnVec {
        ColumnVec::from_values(&values)
    }

    #[test]
    fn typed_roundtrip() {
        let cases: Vec<Vec<Value>> = vec![
            vec![Value::Int(1), Value::Null, Value::Int(-3)],
            vec![Value::Float(1.5), Value::Float(f64::NAN), Value::Null],
            vec![Value::Bool(true), Value::Bool(false)],
            vec![Value::Date(0), Value::Date(19000), Value::Null],
            vec![Value::Text("a".into()), Value::Text("b".into()), Value::Text("a".into())],
            vec![Value::Null, Value::Null],
            vec![Value::Null, Value::Int(4), Value::Float(2.5)],
            vec![Value::Int(1), Value::Text("x".into())],
        ];
        for values in cases {
            let col = v(values.clone());
            let back: Vec<Value> = (0..values.len()).map(|i| col.value(i)).collect();
            for (a, b) in values.iter().zip(back.iter()) {
                // total_eq semantics (NaN == NaN) via PartialEq.
                assert_eq!(a, b);
            }
        }
    }

    #[test]
    fn mixed_numeric_demotes() {
        let col = v(vec![Value::Int(1), Value::Float(2.5)]);
        assert!(matches!(col.data, ColumnData::Mixed(_)));
        assert_eq!(col.value(0), Value::Int(1));
        assert_eq!(col.value(1), Value::Float(2.5));
    }

    #[test]
    fn dictionary_shares_codes() {
        let col = v(vec![
            Value::Text("x".into()),
            Value::Text("y".into()),
            Value::Text("x".into()),
        ]);
        match &col.data {
            ColumnData::Text { codes, dict } => {
                assert_eq!(dict.len(), 2);
                assert_eq!(codes[0], codes[2]);
            }
            other => panic!("expected Text column, got {other:?}"),
        }
    }

    #[test]
    fn null_placeholder_shares_its_code_with_the_empty_string() {
        // A leading NULL seeds the dictionary with "" as its
        // placeholder; a real "" later must not take a second entry.
        let col = v(vec![
            Value::Null,
            Value::Text(String::new()),
            Value::Text("a".into()),
            Value::Text(String::new()),
        ]);
        match &col.data {
            ColumnData::Text { codes, dict } => {
                assert_eq!(**dict, ["", "a"]);
                assert_eq!(codes, &[0, 0, 1, 0]);
            }
            other => panic!("expected Text column, got {other:?}"),
        }
        assert_eq!(col.value(0), Value::Null);
        assert_eq!(col.value(1), Value::Text(String::new()));
    }

    #[test]
    fn batch_slice_and_gather() {
        let rows: Vec<Row> = (0..10)
            .map(|i| vec![Value::Int(i), Value::Text(format!("r{i}"))])
            .collect();
        let batch = Batch::from_rows(&rows, 2);
        assert_eq!(batch.to_rows(), rows);

        let slice = batch.slice(3..7);
        assert_eq!(slice.to_rows(), rows[3..7].to_vec());

        let picked = slice.gather(&[0, 3]);
        assert_eq!(picked.to_rows(), vec![rows[3].clone(), rows[6].clone()]);
    }

    #[test]
    fn batch_charge_matches_row_charge() {
        let rows: Vec<Row> = vec![
            vec![Value::Int(1), Value::Text("abc".into()), Value::Null],
            vec![Value::Null, Value::Text("".into()), Value::Float(2.0)],
            vec![Value::Int(3), Value::Null, Value::Float(4.0)],
        ];
        let batch = Batch::from_rows(&rows, 3);
        assert_eq!(batch_rows_bytes(&batch), rows_bytes(&rows));
    }

    #[test]
    fn bitmap_counts() {
        let mut bm = Bitmap::new_valid(70);
        assert!(bm.all_valid());
        bm.set(0, false);
        bm.set(65, false);
        assert_eq!(bm.count_valid(), 68);
        assert!(!bm.all_valid());
    }

    #[test]
    fn empty_batch_keeps_width() {
        let batch = Batch::from_rows(&[], 4);
        assert_eq!(batch.width(), 4);
        assert!(batch.is_empty());
    }
}
