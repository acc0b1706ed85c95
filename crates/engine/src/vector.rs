//! Typed column vectors with validity bitmaps — the storage layout of
//! the vectorized execution engine ([`crate::vexec`]).
//!
//! A [`Batch`] is a set of equal-length columns. Each column is an
//! `Arc<ColumnVec>` plus an offset, so slicing a batch (morsels,
//! `TOP`) and passing columns through projections is zero-copy. The
//! typed representations mirror the engine's [`Value`] scalar types:
//! i64, f64, bool, i32 days-since-epoch dates, and dictionary-encoded
//! strings. A column's schema type *is* its layout: the binder makes
//! every value an expression produces its column's declared type, a
//! [`ColumnBuilder`] is created from that type, and no fallback layout
//! exists — so round-tripping a batch through rows is byte-exact.
//!
//! Null semantics: a column may carry a validity [`Bitmap`]; a cleared
//! bit means SQL `NULL`. Kernels in `vexec` consult validity before
//! touching the typed data, matching the row interpreter's
//! null-propagation rules exactly.

use crate::hashtable::TextPool;
use crate::memory;
use crate::value::{DataType, Row, Value};
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
}

impl ColumnData {
    pub fn len(&self) -> usize {
        match self {
            ColumnData::Int(v) => v.len(),
            ColumnData::Float(v) => v.len(),
            ColumnData::Bool(v) => v.len(),
            ColumnData::Date(v) => v.len(),
            ColumnData::Text { codes, .. } => codes.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The type every valid cell of this layout has.
    pub fn data_type(&self) -> DataType {
        match self {
            ColumnData::Int(_) => DataType::Int,
            ColumnData::Float(_) => DataType::Float,
            ColumnData::Bool(_) => DataType::Bool,
            ColumnData::Date(_) => DataType::Date,
            ColumnData::Text { .. } => DataType::Text,
        }
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
        }
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

    /// Row `i` borrowed, when it is a valid cell of a text column.
    pub fn text(&self, i: usize) -> Option<&str> {
        match &self.vec.data {
            ColumnData::Text { codes, dict } if self.is_valid(i) => {
                Some(&dict[codes[self.off + i] as usize])
            }
            _ => None,
        }
    }

    /// A literal of type `ty` broadcast to `len` rows.
    pub fn broadcast(value: &Value, ty: DataType, len: usize) -> Self {
        let mut b = ColumnBuilder::with_capacity(ty, len);
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

    /// The column types, read off the layouts.
    pub fn types(&self) -> Vec<DataType> {
        self.cols.iter().map(|c| c.vec.data.data_type()).collect()
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Columnarize rows whose columns have the types `types`.
    pub fn from_rows(rows: &[Row], types: &[DataType]) -> Self {
        let mut builders: Vec<ColumnBuilder> =
            types.iter().map(|&ty| ColumnBuilder::with_capacity(ty, rows.len())).collect();
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

    /// The rows of `parts` one after another, as columns of `types`.
    /// Where every part of a text column shares one dictionary its codes
    /// are concatenated; otherwise its strings are interned anew.
    pub fn concat(parts: &[Batch], types: &[DataType]) -> Batch {
        let parts: Vec<&Batch> = parts.iter().filter(|b| !b.is_empty()).collect();
        if let [only] = parts[..] {
            if only.types() == types {
                return only.clone();
            }
        }
        let len = parts.iter().map(|b| b.len).sum();
        let cols = types
            .iter()
            .enumerate()
            .map(|(j, &ty)| {
                let col: Vec<(&Col, usize)> = parts.iter().map(|b| (&b.cols[j], b.len)).collect();
                concat_col(&col, ty, len)
            })
            .collect();
        Batch { cols, len }
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
    };
    Col::new(ColumnVec { data, validity })
}

/// `parts` (a column and its row count each) as one column of `ty` and
/// `len` rows: typed slices appended where every part has `ty`'s layout
/// (and, for text, one dictionary), cell by cell through a builder
/// otherwise.
fn concat_col(parts: &[(&Col, usize)], ty: DataType, len: usize) -> Col {
    fn cat<T: Copy>(parts: &[(&Col, usize)], slice: impl Fn(&ColumnData) -> Option<&[T]>) -> Option<Vec<T>> {
        let mut out = Vec::new();
        for (c, n) in parts {
            out.extend_from_slice(&slice(&c.vec.data)?[c.off..c.off + n]);
        }
        Some(out)
    }
    let data = match ty {
        DataType::Int => cat(parts, |d| if let ColumnData::Int(v) = d { Some(&v[..]) } else { None }).map(ColumnData::Int),
        DataType::Float => cat(parts, |d| if let ColumnData::Float(v) = d { Some(&v[..]) } else { None }).map(ColumnData::Float),
        DataType::Bool => cat(parts, |d| if let ColumnData::Bool(v) = d { Some(&v[..]) } else { None }).map(ColumnData::Bool),
        DataType::Date => cat(parts, |d| if let ColumnData::Date(v) = d { Some(&v[..]) } else { None }).map(ColumnData::Date),
        DataType::Text => {
            let dict = |c: &Col| match &c.vec.data {
                ColumnData::Text { dict, .. } => Some(Arc::clone(dict)),
                _ => None,
            };
            let first = parts.first().and_then(|(c, _)| dict(c));
            match first {
                Some(first) if parts.iter().all(|(c, _)| dict(c).is_some_and(|d| Arc::ptr_eq(&d, &first))) => {
                    cat(parts, |d| if let ColumnData::Text { codes, .. } = d { Some(&codes[..]) } else { None })
                        .map(|codes| ColumnData::Text { codes, dict: first })
                }
                _ => None,
            }
        }
    };
    let Some(data) = data else {
        let mut b = ColumnBuilder::with_capacity(ty, len);
        for (c, n) in parts {
            for i in 0..*n {
                match c.text(i) {
                    Some(s) => b.push_str(s),
                    None => b.push(&c.value(i)),
                }
            }
        }
        return Col::new(b.finish());
    };
    let validity = parts.iter().any(|(c, _)| c.vec.validity.is_some()).then(|| {
        let mut bm = Bitmap::new_null(len);
        let cells = parts.iter().flat_map(|(c, n)| (0..*n).map(|i| c.is_valid(i)));
        for (at, valid) in cells.enumerate() {
            bm.set(at, valid);
        }
        bm
    });
    Col::new(ColumnVec { data, validity })
}

/// Incremental column builder of one type, fixed when it is created
/// (from a schema or a `result_type`). Pushing a value of another type
/// is a bug in whoever typed the column: the builder panics naming both
/// types, and the engine's containment barrier fails that query alone.
pub struct ColumnBuilder {
    data: ColumnData,
    validity: Bitmap,
    any_null: bool,
    /// A text column's strings while it is built; `finish` moves them
    /// into `data`.
    text: TextPool,
}

impl ColumnBuilder {
    /// A builder for about `rows` values of type `ty`: the typed vector,
    /// the validity bitmap and a text column's string index are sized
    /// for them once.
    pub fn with_capacity(ty: DataType, rows: usize) -> Self {
        let data = match ty {
            DataType::Int => ColumnData::Int(Vec::with_capacity(rows)),
            DataType::Float => ColumnData::Float(Vec::with_capacity(rows)),
            DataType::Bool => ColumnData::Bool(Vec::with_capacity(rows)),
            DataType::Date => ColumnData::Date(Vec::with_capacity(rows)),
            DataType::Text => ColumnData::Text { codes: Vec::with_capacity(rows), dict: Arc::default() },
        };
        ColumnBuilder {
            data,
            validity: Bitmap { words: Vec::with_capacity(rows.div_ceil(64)), len: 0 },
            any_null: false,
            text: if ty == DataType::Text { TextPool::with_capacity(rows) } else { TextPool::new() },
        }
    }

    pub fn push(&mut self, v: &Value) {
        if v.is_null() {
            self.validity.push(false);
            return self.push_null();
        }
        self.validity.push(true);
        match (&mut self.data, v) {
            (ColumnData::Int(vec), Value::Int(i)) => vec.push(*i),
            (ColumnData::Float(vec), Value::Float(f)) => vec.push(*f),
            (ColumnData::Bool(vec), Value::Bool(b)) => vec.push(*b),
            (ColumnData::Date(vec), Value::Date(d)) => vec.push(*d),
            (ColumnData::Text { codes, .. }, Value::Text(s)) => codes.push(self.text.intern(s)),
            (data, v) => mismatch(data, v.data_type()),
        }
    }

    /// [`ColumnBuilder::push`] of `Value::Text(s)` from a borrowed cell:
    /// a string already interned allocates nothing.
    pub fn push_str(&mut self, s: &str) {
        self.validity.push(true);
        match &mut self.data {
            ColumnData::Text { codes, .. } => codes.push(self.text.intern(s)),
            data => mismatch(data, Some(DataType::Text)),
        }
    }

    /// A NULL's placeholder cell (its validity bit is already clear).
    fn push_null(&mut self) {
        self.any_null = true;
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
        }
    }

    pub fn finish(mut self) -> ColumnVec {
        if let ColumnData::Text { dict, .. } = &mut self.data {
            *dict = Arc::new(self.text.extra);
        }
        ColumnVec {
            data: self.data,
            validity: if self.any_null { Some(self.validity) } else { None },
        }
    }
}

fn mismatch(data: &ColumnData, got: Option<DataType>) -> ! {
    panic!(
        "internal: a {} value pushed to a {} column",
        got.map_or("NULL", DataType::sql_name),
        data.data_type().sql_name()
    )
}

/// The memory-governor charge for a batch of rows, replicating
/// [`memory::values_bytes`] per row exactly so the vectorized path
/// charges the same bytes the row path would.
pub fn batch_rows_bytes(batch: &Batch) -> usize {
    let mut total = batch.len * std::mem::size_of::<Row>();
    for col in &batch.cols {
        total += batch.len * std::mem::size_of::<Value>();
        if let ColumnData::Text { .. } = &col.vec.data {
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

    fn v(ty: DataType, values: Vec<Value>) -> ColumnVec {
        let rows: Vec<Row> = values.into_iter().map(|v| vec![v]).collect();
        Batch::from_rows(&rows, &[ty]).cols[0].vec.as_ref().clone()
    }

    #[test]
    fn typed_roundtrip() {
        let cases: Vec<(DataType, Vec<Value>)> = vec![
            (DataType::Int, vec![Value::Int(1), Value::Null, Value::Int(-3)]),
            (DataType::Float, vec![Value::Float(1.5), Value::Float(f64::NAN), Value::Null]),
            (DataType::Bool, vec![Value::Bool(true), Value::Bool(false)]),
            (DataType::Date, vec![Value::Date(0), Value::Date(19000), Value::Null]),
            (DataType::Text, vec![Value::Text("a".into()), Value::Text("b".into()), Value::Text("a".into())]),
            (DataType::Int, vec![Value::Null, Value::Null]),
            (DataType::Text, vec![Value::Null, Value::Null]),
        ];
        for (ty, values) in cases {
            let col = v(ty, values.clone());
            assert_eq!(col.data.data_type(), ty, "the layout is the declared type");
            let back: Vec<Value> = (0..values.len()).map(|i| col.value(i)).collect();
            for (a, b) in values.iter().zip(back.iter()) {
                // total_eq semantics (NaN == NaN) via PartialEq.
                assert_eq!(a, b);
            }
        }
    }

    #[test]
    #[should_panic(expected = "a FLOAT value pushed to a BIGINT column")]
    fn a_value_of_another_type_is_refused() {
        v(DataType::Int, vec![Value::Int(1), Value::Float(2.5)]);
    }

    #[test]
    fn dictionary_shares_codes() {
        let col = v(
            DataType::Text,
            vec![Value::Text("x".into()), Value::Text("y".into()), Value::Text("x".into())],
        );
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
        let col = v(
            DataType::Text,
            vec![
                Value::Null,
                Value::Text(String::new()),
                Value::Text("a".into()),
                Value::Text(String::new()),
            ],
        );
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
        let batch = Batch::from_rows(&rows, &[DataType::Int, DataType::Text]);
        assert_eq!(batch.to_rows(), rows);

        let slice = batch.slice(3..7);
        assert_eq!(slice.to_rows(), rows[3..7].to_vec());

        let picked = slice.gather(&[0, 3]);
        assert_eq!(picked.to_rows(), vec![rows[3].clone(), rows[6].clone()]);
    }

    #[test]
    fn concat_shares_one_dictionary_and_reinterns_two() {
        let rows: Vec<Row> = (0..6)
            .map(|i| vec![if i == 2 { Value::Null } else { Value::Int(i) }, Value::Text(format!("s{}", i % 3))])
            .collect();
        let types = [DataType::Int, DataType::Text];
        let whole = Batch::from_rows(&rows, &types);
        let dict = |b: &Batch| match &b.cols[1].vec.data {
            ColumnData::Text { dict, .. } => Arc::clone(dict),
            other => panic!("expected Text column, got {other:?}"),
        };
        // Slices of one batch share its dictionary: the codes are joined.
        let shared = Batch::concat(&[whole.slice(0..2), whole.slice(2..2), whole.slice(2..6)], &types);
        assert_eq!(shared.to_rows(), rows);
        assert!(Arc::ptr_eq(&dict(&shared), &dict(&whole)));
        // Separately built halves do not: the strings are interned anew.
        let halves = [Batch::from_rows(&rows[..3], &types), Batch::from_rows(&rows[3..], &types)];
        let joined = Batch::concat(&halves, &types);
        assert_eq!(joined.to_rows(), rows);
        assert_eq!(dict(&joined).len(), 3);
        assert_eq!(Batch::concat(&[], &types).types(), types);
    }

    #[test]
    fn batch_charge_matches_row_charge() {
        let rows: Vec<Row> = vec![
            vec![Value::Int(1), Value::Text("abc".into()), Value::Null],
            vec![Value::Null, Value::Text("".into()), Value::Float(2.0)],
            vec![Value::Int(3), Value::Null, Value::Float(4.0)],
        ];
        let batch = Batch::from_rows(&rows, &[DataType::Int, DataType::Text, DataType::Float]);
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
        let types = [DataType::Int, DataType::Text, DataType::Date, DataType::Bool];
        let batch = Batch::from_rows(&[], &types);
        assert_eq!(batch.types(), types);
        assert!(batch.is_empty());
    }
}
