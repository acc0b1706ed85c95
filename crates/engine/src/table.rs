//! Base-table storage with a default clustered index.
//!
//! SQL Azure "requires all tables to be associated with a clustered
//! index", and SQLShare "creates a clustered index by default on all
//! columns in the database, in column order" (§3.4). We reproduce that:
//! every table keeps its rows sorted lexicographically by all columns in
//! column order, which gives the physical planner real `Clustered Index
//! Seek` opportunities on leading-column predicates.
//!
//! Tables have two backings that produce byte-identical results. An
//! in-memory table is stored once, as its typed column [`Batch`] in
//! clustered order: a scan gets the batch, a `TOP n` a zero-copy prefix,
//! a seek the slice a binary search on the leading column finds. A paged
//! table ([`crate::paged::PagedTable`]) keeps rows in slotted heap pages
//! behind a buffer pool with B-tree secondary indexes and decodes what a
//! read asks for, bounding resident memory by the pool, not the table.

use crate::paged::{PagedTable, StorageLayer};
use crate::schema::Schema;
use crate::value::{DataType, Row, Value};
use crate::vector::{Batch, Col, ColumnData};
use sqlshare_common::Result;
use std::cmp::Ordering;
use std::ops::{Bound, Range};
use std::sync::Arc;

#[derive(Debug, Clone)]
enum Backing {
    /// The columns in clustered order. Shared: tables are immutable
    /// after load, and the service clones its engine into the workers'
    /// snapshot after every catalog change (`SqlShare::engine_snapshot`),
    /// so a clone must not copy them.
    Mem(Arc<Batch>),
    Paged(Arc<PagedTable>),
}

/// An immutable-after-load, clustered-ordered table.
#[derive(Debug, Clone)]
pub struct Table {
    pub name: String,
    pub schema: Schema,
    backing: Backing,
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
            backing: Backing::Mem(Arc::new(batch)),
        }
    }

    /// Convert to the paged backing: the clustered rows are encoded into
    /// heap pages under `layer` and indexed (B-tree per non-leading
    /// column). A no-op when the table already lives on `layer`; a table
    /// paged on a *different* layer is rematerialized and rebuilt so it
    /// lands in the requested pool (otherwise re-creating tables after a
    /// storage switch would silently keep their old backing).
    pub fn into_paged(self, layer: &Arc<StorageLayer>) -> Result<Self> {
        let rows = match &self.backing {
            Backing::Paged(p) if Arc::ptr_eq(p.layer(), layer) => return Ok(self),
            Backing::Paged(p) => p.scan_all()?,
            Backing::Mem(batch) => batch.to_rows(),
        };
        let paged = PagedTable::build(layer, &self.name, self.schema.len(), &rows)?;
        Ok(Table {
            name: self.name,
            schema: self.schema,
            bytes: paged.estimated_bytes(),
            backing: Backing::Paged(Arc::new(paged)),
        })
    }

    /// The paged backing, when this table has one.
    pub fn paged(&self) -> Option<&Arc<PagedTable>> {
        match &self.backing {
            Backing::Paged(p) => Some(p),
            Backing::Mem(_) => None,
        }
    }

    pub fn row_count(&self) -> usize {
        match &self.backing {
            Backing::Mem(batch) => batch.len,
            Backing::Paged(p) => p.row_count(),
        }
    }

    /// Total estimated size in bytes.
    pub fn estimated_bytes(&self) -> usize {
        self.bytes
    }

    /// Every row in clustered order: the stored batch, or for a paged
    /// table a fresh one decoded page at a time, so resident memory stays
    /// bounded by the buffer pool.
    pub fn batch(&self) -> Result<Batch> {
        match &self.backing {
            Backing::Mem(batch) => Ok((**batch).clone()),
            Backing::Paged(p) => p.scan_columnar(&self.schema.types()),
        }
    }

    /// The first `n` rows in clustered order (all of them when the table
    /// is shorter) — what a `TOP n` over a bare scan reads. The paged
    /// backing decodes only the pages those rows live on.
    pub fn head(&self, n: usize) -> Result<Batch> {
        let n = n.min(self.row_count());
        match &self.backing {
            Backing::Mem(batch) => Ok(batch.slice(0..n)),
            Backing::Paged(p) => Ok(Batch::from_rows(&p.scan_range(0..n)?, &self.schema.types())),
        }
    }

    /// Clustered-index seek on the *leading* column: the rows matching
    /// the bounds. This is what the planner compiles sargable predicates
    /// on column 0 into. Both backings locate the same partition points
    /// (the paged one by page-level binary search); the paged backing
    /// decodes only the touched pages.
    pub fn seek(&self, lower: Bound<&Value>, upper: Bound<&Value>) -> Result<Batch> {
        match &self.backing {
            Backing::Mem(batch) => {
                let range = seek_range(batch.len, lower, upper, |v, keep| {
                    Ok(partition_point(batch.len, |i| keep(cmp_cell(&batch.cols[0], i, v))))
                })?;
                Ok(batch.slice(range))
            }
            Backing::Paged(p) => {
                let rows = p.scan_range(p.seek_range(lower, upper)?)?;
                Ok(Batch::from_rows(&rows, &self.schema.types()))
            }
        }
    }

    /// The candidates of a secondary-index seek on `column`, in clustered
    /// order: the rows a paged table's B-tree narrows the heap to (a
    /// superset of the matches), or every row when no order-safe index
    /// serves the bounds. The caller re-applies the full predicate.
    pub fn index_seek(
        &self,
        column: usize,
        lower: Bound<&Value>,
        upper: Bound<&Value>,
    ) -> Result<Batch> {
        if let Some(p) = self.paged() {
            if let Some(ordinals) = p.secondary_candidates(column, lower, upper)? {
                return Ok(Batch::from_rows(&p.fetch_rows(&ordinals)?, &self.schema.types()));
            }
        }
        self.batch()
    }
}

/// The clustered ordinal range a leading-column seek covers, out of
/// `len` rows. `boundary(v, keep)` answers the first ordinal whose
/// leading value `x` fails `keep(x.total_cmp(v))`; `keep` holds on a
/// prefix of the clustered order. An empty range means no matches.
pub(crate) fn seek_range(
    len: usize,
    lower: Bound<&Value>,
    upper: Bound<&Value>,
    mut boundary: impl FnMut(&Value, fn(Ordering) -> bool) -> Result<usize>,
) -> Result<Range<usize>> {
    let start = match lower {
        Bound::Unbounded => 0,
        Bound::Included(v) => boundary(v, Ordering::is_lt)?,
        Bound::Excluded(v) => boundary(v, Ordering::is_le)?,
    };
    let end = match upper {
        Bound::Unbounded => len,
        Bound::Included(v) => boundary(v, Ordering::is_le)?,
        Bound::Excluded(v) => boundary(v, Ordering::is_lt)?,
    };
    Ok(if start >= end { 0..0 } else { start..end })
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

    /// Every test runs against both backings: the in-memory oracle and
    /// the paged subject must be indistinguishable.
    fn tables() -> Vec<Table> {
        let mem = Table::new("t", schema(), rows());
        let layer = StorageLayer::temp(0).unwrap();
        let paged = mem.clone().into_paged(&layer).unwrap();
        assert!(paged.paged().is_some());
        assert!(mem.paged().is_none());
        vec![mem, paged]
    }

    #[test]
    fn rows_are_clustered() {
        for t in tables() {
            let rows = t.batch().unwrap().to_rows();
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
    }

    #[test]
    fn seek_equality() {
        for t in tables() {
            let three = Value::Int(3);
            let hits = t
                .seek(Bound::Included(&three), Bound::Included(&three))
                .unwrap();
            assert_eq!(hits.len, 2);
        }
    }

    #[test]
    fn seek_range() {
        for t in tables() {
            let lo = Value::Int(3);
            let hits = t.seek(Bound::Excluded(&lo), Bound::Unbounded).unwrap();
            assert_eq!(hits.len, 2); // 5 and 9
            let hi = Value::Int(5);
            let hits = t.seek(Bound::Unbounded, Bound::Excluded(&hi)).unwrap();
            assert_eq!(hits.len, 3); // 1, 3, 3
        }
    }

    #[test]
    fn seek_missing_key() {
        for t in tables() {
            let four = Value::Int(4);
            assert!(t
                .seek(Bound::Included(&four), Bound::Included(&four))
                .unwrap()
                .is_empty());
        }
    }

    #[test]
    fn seek_empty_table() {
        let layer = StorageLayer::temp(0).unwrap();
        let schema = Schema::from_pairs([("k", DataType::Int)]);
        let one = Value::Int(1);
        for t in [
            Table::new("e", schema.clone(), vec![]),
            Table::new("e", schema, vec![]).into_paged(&layer).unwrap(),
        ] {
            assert!(t
                .seek(Bound::Included(&one), Bound::Unbounded)
                .unwrap()
                .is_empty());
        }
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
        for t in tables() {
            for n in [0, 1, 3, 5, 99] {
                let head = t.head(n).unwrap().to_rows();
                assert_eq!(&head[..], &t.batch().unwrap().to_rows()[..n.min(5)]);
            }
        }
    }

    #[test]
    fn into_paged_preserves_contents_and_accounting() {
        let mem = Table::new("t", schema(), rows());
        let bytes = mem.estimated_bytes();
        assert!(bytes > 0);
        let layer = StorageLayer::temp(0).unwrap();
        let paged = mem.clone().into_paged(&layer).unwrap();
        assert_eq!(paged.estimated_bytes(), bytes);
        assert_eq!(paged.batch().unwrap().to_rows(), mem.batch().unwrap().to_rows());
        assert_eq!(paged.row_count(), mem.row_count());
    }

    #[test]
    fn into_paged_rebuilds_on_a_different_layer() {
        let mem = Table::new("t", schema(), rows());
        let a = StorageLayer::temp(0).unwrap();
        let b = StorageLayer::temp(0).unwrap();
        let on_a = mem.clone().into_paged(&a).unwrap();

        // Same layer: the backing is reused untouched.
        let same = on_a.clone().into_paged(&a).unwrap();
        assert!(Arc::ptr_eq(same.paged().unwrap().layer(), &a));

        // Different layer: the table is rematerialized into `b`'s pool,
        // not left pointing at `a` — re-creating tables after a storage
        // switch must actually move them.
        let on_b = on_a.into_paged(&b).unwrap();
        assert!(Arc::ptr_eq(on_b.paged().unwrap().layer(), &b));
        assert_eq!(on_b.batch().unwrap().to_rows(), mem.batch().unwrap().to_rows());
    }
}
