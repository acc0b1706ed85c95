//! Base-table storage with a default clustered index.
//!
//! SQL Azure "requires all tables to be associated with a clustered
//! index", and SQLShare "creates a clustered index by default on all
//! columns in the database, in column order" (§3.4). We reproduce that:
//! every table keeps its rows sorted lexicographically by all columns in
//! column order, which gives the physical planner real `Clustered Index
//! Seek` opportunities on leading-column predicates.
//!
//! A table is stored once, as its typed column [`Batch`] in clustered
//! order: a scan gets the batch, a `TOP n` a zero-copy prefix, a seek
//! the slice a binary search on the leading column finds. No read can
//! fail.

use crate::schema::Schema;
use crate::value::{DataType, Row, Value};
use crate::vector::{Batch, Col, ColumnData};
use std::cmp::Ordering;
use std::ops::{Bound, Range};
use std::sync::Arc;

/// An immutable-after-load, clustered-ordered table.
#[derive(Debug, Clone)]
pub struct Table {
    pub name: String,
    pub schema: Schema,
    /// The columns in clustered order. Shared: tables are immutable
    /// after load, and the service clones its engine into the workers'
    /// snapshot after every catalog change (`SqlShare::engine_snapshot`),
    /// so a clone must not copy them.
    batch: Arc<Batch>,
    /// Estimated size of the rows, summed once at load: quota checks and
    /// storage totals read it per table, never the rows.
    bytes: usize,
}

impl Table {
    /// Create an in-memory table from rows, clustering them on all
    /// columns in column order. Rows from outside the engine (a record a
    /// parent version wrote) may hold cells of other types than their
    /// column's: it widens to [`DataType::unify`] of them, cells cast.
    pub fn new(name: impl Into<String>, mut schema: Schema, mut rows: Vec<Row>) -> Self {
        for (j, col) in schema.columns.iter_mut().enumerate() {
            col.ty = rows.iter().filter_map(|r| r.get(j)?.data_type()).fold(col.ty, DataType::unify);
        }
        let types = schema.types();
        for row in &mut rows {
            for (v, &ty) in row.iter_mut().zip(&types) {
                if v.data_type().is_some_and(|t| t != ty) {
                    *v = v.cast(ty).expect("a type unify widened to holds every cell");
                }
            }
        }
        let batch = Batch::from_rows(&rows, &types);
        Self::from_batch(name, schema, batch)
    }

    /// Create an in-memory table from its columns (one per schema
    /// column), clustering the rows on all columns in column order.
    pub fn from_batch(name: impl Into<String>, schema: Schema, batch: Batch) -> Self {
        debug_assert_eq!(batch.types(), schema.types());
        let batch = cluster(batch);
        Table {
            name: name.into(),
            schema,
            bytes: batch.cols.iter().map(|c| cells_bytes(c, batch.len)).sum(),
            batch: Arc::new(batch),
        }
    }

    pub fn row_count(&self) -> usize {
        self.batch.len
    }

    /// Total estimated size in bytes.
    pub fn estimated_bytes(&self) -> usize {
        self.bytes
    }

    /// Every row in clustered order.
    pub fn batch(&self) -> Batch {
        (*self.batch).clone()
    }

    /// The first `n` rows in clustered order (all of them when the table
    /// is shorter) — what a `TOP n` over a bare scan reads.
    pub fn head(&self, n: usize) -> Batch {
        self.batch.slice(0..n.min(self.row_count()))
    }

    /// Clustered-index seek on the *leading* column: the rows matching
    /// the bounds. This is what the planner compiles sargable predicates
    /// on column 0 into.
    pub fn seek(&self, lower: Bound<&Value>, upper: Bound<&Value>) -> Batch {
        let batch = &self.batch;
        let lead = |v: &Value, keep: fn(Ordering) -> bool| {
            partition_point(batch.len, |i| keep(cmp_cell(&batch.cols[0], i, v)))
        };
        batch.slice(seek_range(batch.len, lower, upper, lead))
    }
}

/// The clustered ordinal range a leading-column seek covers, out of
/// `len` rows. `boundary(v, keep)` answers the first ordinal whose
/// leading value `x` fails `keep(x.total_cmp(v))`; `keep` holds on a
/// prefix of the clustered order. An empty range means no matches.
fn seek_range(
    len: usize,
    lower: Bound<&Value>,
    upper: Bound<&Value>,
    boundary: impl Fn(&Value, fn(Ordering) -> bool) -> usize,
) -> Range<usize> {
    let start = match lower {
        Bound::Unbounded => 0,
        Bound::Included(v) => boundary(v, Ordering::is_lt),
        Bound::Excluded(v) => boundary(v, Ordering::is_le),
    };
    let end = match upper {
        Bound::Unbounded => len,
        Bound::Included(v) => boundary(v, Ordering::is_le),
        Bound::Excluded(v) => boundary(v, Ordering::is_lt),
    };
    if start >= end {
        0..0
    } else {
        start..end
    }
}

/// The first of `0..len` failing `pred`, which holds on a prefix.
fn partition_point(len: usize, pred: impl Fn(usize) -> bool) -> usize {
    let (mut lo, mut hi) = (0, len);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// `Value::total_cmp` of row `i` of `col` against `v`; text is compared
/// in place.
fn cmp_cell(col: &Col, i: usize, v: &Value) -> Ordering {
    match (col.text(i), v) {
        (Some(cell), Value::Text(s)) => cell.cmp(s),
        _ => col.value(i).total_cmp(v),
    }
}

/// Sort a batch into clustered order: every column ascending, in
/// column order.
fn cluster(batch: Batch) -> Batch {
    let order = sort_order(&batch, &[]);
    batch.gather(&order)
}

/// The stable permutation that orders the rows of `keys` by its columns
/// in turn, column `k` descending where `desc[k]` is set (ascending past
/// the end of `desc`): the order a stable sort of the rows under
/// [`cmp_rows`], each key's order reversed where flagged, produces. Ints
/// compare through their `f64` image, as `Value::total_cmp` does, so
/// integers above 2^53 that round together keep their input order. A
/// leading text key's first eight bytes settle most comparisons without
/// reading the strings: a NULL cell keys as 0, which no cell it precedes
/// can key below, and equal keys compare in full.
pub(crate) fn sort_order(keys: &Batch, desc: &[bool]) -> Vec<u32> {
    let flip = |k: usize, ord: Ordering| if desc.get(k) == Some(&true) { ord.reverse() } else { ord };
    let prefix: Vec<u64> = match keys.cols.first() {
        Some(lead) => (0..keys.len).map(|i| lead.text(i).map_or(0, prefix_key)).collect(),
        None => Vec::new(),
    };
    let mut order: Vec<u32> = (0..keys.len as u32).collect();
    order.sort_by(|&a, &b| {
        let (a, b) = (a as usize, b as usize);
        let lead = flip(0, prefix[a].cmp(&prefix[b]));
        if lead.is_ne() {
            return lead;
        }
        let cmp = |(k, col)| flip(k, cmp_cells(col, a, b));
        keys.cols.iter().enumerate().map(cmp).find(|o| o.is_ne()).unwrap_or(Ordering::Equal)
    });
    order
}

/// The first eight bytes of `s`, zero-padded, as a big-endian integer:
/// ordered as the strings are wherever two keys differ.
fn prefix_key(s: &str) -> u64 {
    let mut bytes = [0; 8];
    let n = s.len().min(8);
    bytes[..n].copy_from_slice(&s.as_bytes()[..n]);
    u64::from_be_bytes(bytes)
}

/// `Value::total_cmp` of rows `a` and `b` of one column, read in place:
/// NULL first, then the layout's own order.
pub(crate) fn cmp_cells(col: &Col, a: usize, b: usize) -> Ordering {
    match (col.is_valid(a), col.is_valid(b)) {
        (true, true) => {}
        (x, y) => return x.cmp(&y),
    }
    let (a, b) = (col.off + a, col.off + b);
    match &col.vec.data {
        ColumnData::Int(v) => (v[a] as f64).total_cmp(&(v[b] as f64)),
        ColumnData::Float(v) => v[a].total_cmp(&v[b]),
        ColumnData::Bool(v) => v[a].cmp(&v[b]),
        ColumnData::Date(v) => v[a].cmp(&v[b]),
        ColumnData::Text { codes, dict } => dict[codes[a] as usize].cmp(&dict[codes[b] as usize]),
    }
}

/// Σ `Value::estimated_size` over the first `len` cells of `col`.
fn cells_bytes(col: &Col, len: usize) -> usize {
    (0..len)
        .map(|i| col.text(i).map_or_else(|| col.value(i).estimated_size(), |s| s.len().max(1)))
        .sum()
}

/// Lexicographic row comparison under the total value order.
pub fn cmp_rows(a: &Row, b: &Row) -> Ordering {
    for (va, vb) in a.iter().zip(b.iter()) {
        match va.total_cmp(vb) {
            Ordering::Equal => continue,
            other => return other,
        }
    }
    a.len().cmp(&b.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;
    use crate::value::DataType;

    fn rows() -> Vec<Row> {
        vec![
            vec![Value::Int(5), Value::Text("e".into())],
            vec![Value::Int(1), Value::Text("a".into())],
            vec![Value::Int(3), Value::Text("c".into())],
            vec![Value::Int(3), Value::Text("b".into())],
            vec![Value::Int(9), Value::Text("i".into())],
        ]
    }

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("k", DataType::Int),
            Column::new("v", DataType::Text),
        ])
    }

    fn table() -> Table {
        Table::new("t", schema(), rows())
    }

    #[test]
    fn rows_are_clustered() {
        let t = table();
        let rows = t.batch().to_rows();
        let keys: Vec<i64> = rows
            .iter()
            .map(|r| match r[0] {
                Value::Int(i) => i,
                _ => panic!(),
            })
            .collect();
        assert_eq!(keys, vec![1, 3, 3, 5, 9]);
        // Secondary column also ordered within equal keys.
        assert_eq!(rows[1][1], Value::Text("b".into()));
    }

    #[test]
    fn seek_equality() {
        let t = table();
        let three = Value::Int(3);
        let hits = t.seek(Bound::Included(&three), Bound::Included(&three));
        assert_eq!(hits.len, 2);
    }

    #[test]
    fn seek_range() {
        let t = table();
        let lo = Value::Int(3);
        let hits = t.seek(Bound::Excluded(&lo), Bound::Unbounded);
        assert_eq!(hits.len, 2); // 5 and 9
        let hi = Value::Int(5);
        let hits = t.seek(Bound::Unbounded, Bound::Excluded(&hi));
        assert_eq!(hits.len, 3); // 1, 3, 3
    }

    #[test]
    fn seek_missing_key() {
        let t = table();
        let four = Value::Int(4);
        assert!(t.seek(Bound::Included(&four), Bound::Included(&four)).is_empty());
    }

    #[test]
    fn seek_empty_table() {
        let schema = Schema::from_pairs([("k", DataType::Int)]);
        let one = Value::Int(1);
        let t = Table::new("e", schema, vec![]);
        assert!(t.seek(Bound::Included(&one), Bound::Unbounded).is_empty());
    }

    #[test]
    fn size_is_a_stored_field_not_a_walk() {
        // A table whose stored size disagrees with its rows answers with
        // the stored size: nothing on the quota path can touch a row.
        let mut t = Table::new("t", schema(), rows());
        assert_eq!(
            t.estimated_bytes(),
            rows().iter().flatten().map(Value::estimated_size).sum::<usize>()
        );
        t.bytes = 12_345;
        assert_eq!(t.estimated_bytes(), 12_345);
        assert_eq!(t.clone().estimated_bytes(), 12_345);
    }

    #[test]
    fn scan_head_is_a_prefix_of_scan() {
        let t = table();
        for n in [0, 1, 3, 5, 99] {
            let head = t.head(n).to_rows();
            assert_eq!(&head[..], &t.batch().to_rows()[..n.min(5)]);
        }
    }
}
