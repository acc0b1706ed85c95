//! Base-table storage with a default clustered index.
//!
//! SQL Azure "requires all tables to be associated with a clustered
//! index", and SQLShare "creates a clustered index by default on all
//! columns in the database, in column order" (§3.4). We reproduce that:
//! every table keeps its rows sorted lexicographically by all columns in
//! column order, which gives the physical planner real `Clustered Index
//! Seek` opportunities on leading-column predicates.
//!
//! Tables have two interchangeable backings: an in-memory `Vec<Row>`
//! (the default, and the differential oracle) and a paged one
//! ([`crate::paged::PagedTable`]) that stores rows in slotted heap
//! pages behind a buffer pool with B-tree secondary indexes. Both
//! produce byte-identical results; the paged backing bounds resident
//! memory by the layer's buffer pool instead of table size.

use crate::paged::{PagedTable, StorageLayer};
use crate::schema::Schema;
use crate::value::{Row, Value};
use crate::vector::Batch;
use sqlshare_common::Result;
use std::borrow::Cow;
use std::cmp::Ordering;
use std::ops::{Bound, Range};
use std::sync::{Arc, OnceLock};

#[derive(Debug, Clone)]
enum Backing {
    /// Shared: tables are immutable after load, and the service clones
    /// its engine into the workers' snapshot after every catalog change
    /// (`SqlShare::engine_snapshot`), so a clone must not copy rows.
    Mem(Arc<Vec<Row>>),
    Paged(Arc<PagedTable>),
}

/// An immutable-after-load, clustered-ordered table.
#[derive(Debug, Clone)]
pub struct Table {
    pub name: String,
    pub schema: Schema,
    backing: Backing,
    /// Lazily built columnar view of an in-memory backing, shared
    /// across clones (tables are immutable after load). Paged backings
    /// never cache here — a resident full-table batch would defeat the
    /// buffer pool's memory bound.
    columnar: Arc<OnceLock<Arc<Batch>>>,
    /// Estimated size of the rows, summed once at load: quota checks and
    /// storage totals read it per table, never the rows.
    bytes: usize,
}

impl Table {
    /// Create an in-memory table, clustering (sorting) the rows on all
    /// columns in column order.
    pub fn new(name: impl Into<String>, schema: Schema, mut rows: Vec<Row>) -> Self {
        rows.sort_by(cmp_rows);
        let bytes = rows
            .iter()
            .map(|r| r.iter().map(Value::estimated_size).sum::<usize>())
            .sum();
        Table {
            name: name.into(),
            schema,
            backing: Backing::Mem(Arc::new(rows)),
            columnar: Arc::new(OnceLock::new()),
            bytes,
        }
    }

    /// Create a paged table: rows are clustered, encoded into heap
    /// pages under `layer`, and indexed (B-tree per non-leading column).
    pub fn new_paged(
        name: impl Into<String>,
        schema: Schema,
        mut rows: Vec<Row>,
        layer: &Arc<StorageLayer>,
    ) -> Result<Self> {
        rows.sort_by(cmp_rows);
        let name = name.into();
        let paged = PagedTable::build(layer, &name, schema.len(), &rows)?;
        Ok(Table {
            name,
            schema,
            bytes: paged.estimated_bytes(),
            backing: Backing::Paged(Arc::new(paged)),
            columnar: Arc::new(OnceLock::new()),
        })
    }

    /// Convert to the paged backing. A no-op when the table already
    /// lives on `layer`; a table paged on a *different* layer is
    /// rematerialized and rebuilt so it lands in the requested pool
    /// (otherwise re-creating tables after a storage switch would
    /// silently keep their old backing).
    pub fn into_paged(self, layer: &Arc<StorageLayer>) -> Result<Self> {
        let rows = match self.backing {
            Backing::Paged(ref p) if Arc::ptr_eq(p.layer(), layer) => return Ok(self),
            Backing::Paged(ref p) => p.scan_all()?,
            Backing::Mem(rows) => Arc::unwrap_or_clone(rows),
        };
        let paged = PagedTable::build(layer, &self.name, self.schema.len(), &rows)?;
        Ok(Table {
            name: self.name,
            schema: self.schema,
            bytes: paged.estimated_bytes(),
            backing: Backing::Paged(Arc::new(paged)),
            columnar: Arc::new(OnceLock::new()),
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
            Backing::Mem(rows) => rows.len(),
            Backing::Paged(p) => p.row_count(),
        }
    }

    /// All rows in clustered order. Borrowed for the in-memory backing,
    /// decoded for the paged one.
    pub fn scan(&self) -> Result<Cow<'_, [Row]>> {
        match &self.backing {
            Backing::Mem(rows) => Ok(Cow::Borrowed(rows)),
            Backing::Paged(p) => Ok(Cow::Owned(p.scan_all()?)),
        }
    }

    /// Convenience accessor for tests and tooling.
    ///
    /// # Panics
    /// On paged-storage I/O errors; query paths use [`Table::scan`].
    pub fn rows(&self) -> Cow<'_, [Row]> {
        self.scan().expect("paged table scan failed")
    }

    /// Total estimated size in bytes.
    pub fn estimated_bytes(&self) -> usize {
        self.bytes
    }

    /// The first `n` rows in clustered order (all of them when the table
    /// is shorter) — what a `TOP n` over a bare scan reads. The paged
    /// backing decodes only the pages those rows live on.
    pub fn scan_head(&self, n: usize) -> Result<Cow<'_, [Row]>> {
        let n = n.min(self.row_count());
        match &self.backing {
            Backing::Mem(rows) => Ok(Cow::Borrowed(&rows[..n])),
            Backing::Paged(p) => Ok(Cow::Owned(p.scan_range(0..n)?)),
        }
    }

    /// Clustered-index seek on the *leading* column: the rows matching
    /// the bounds. This is what the planner compiles sargable predicates
    /// on column 0 into. Both backings locate the same partition points
    /// (the paged one by page-level binary search); results are
    /// identical, the paged backing just decodes only the touched pages.
    pub fn seek_leading(
        &self,
        lower: Bound<&Value>,
        upper: Bound<&Value>,
    ) -> Result<Cow<'_, [Row]>> {
        match &self.backing {
            Backing::Mem(rows) => Ok(match self.seek_bounds(lower, upper) {
                Some(range) if !range.is_empty() => Cow::Borrowed(&rows[range]),
                _ => Cow::Borrowed(&[][..]),
            }),
            Backing::Paged(p) => {
                let range = p.seek_range(lower, upper)?;
                Ok(Cow::Owned(p.scan_range(range)?))
            }
        }
    }

    /// The clustered ordinal range a leading-column seek covers, for
    /// the in-memory backing only (`None` for paged tables — they
    /// resolve bounds through [`PagedTable::seek_range`]). An empty
    /// range means no matches.
    pub(crate) fn seek_bounds(
        &self,
        lower: Bound<&Value>,
        upper: Bound<&Value>,
    ) -> Option<Range<usize>> {
        let Backing::Mem(rows) = &self.backing else {
            return None;
        };
        if rows.is_empty() {
            return Some(0..0);
        }
        let start = match lower {
            Bound::Unbounded => 0,
            Bound::Included(v) => {
                rows.partition_point(|row| row[0].total_cmp(v) == Ordering::Less)
            }
            Bound::Excluded(v) => {
                rows.partition_point(|row| row[0].total_cmp(v) != Ordering::Greater)
            }
        };
        let end = match upper {
            Bound::Unbounded => rows.len(),
            Bound::Included(v) => {
                rows.partition_point(|row| row[0].total_cmp(v) != Ordering::Greater)
            }
            Bound::Excluded(v) => {
                rows.partition_point(|row| row[0].total_cmp(v) == Ordering::Less)
            }
        };
        Some(if start >= end { 0..0 } else { start..end })
    }

    /// The table as a column batch. In-memory backings build it once
    /// and cache it (shared across clones); paged backings decode a
    /// fresh batch per call, page at a time, so resident memory stays
    /// bounded by the buffer pool.
    pub fn columnar(&self) -> Result<Arc<Batch>> {
        match &self.backing {
            Backing::Mem(rows) => {
                if let Some(batch) = self.columnar.get() {
                    return Ok(Arc::clone(batch));
                }
                let batch = Arc::new(Batch::from_rows(rows, self.schema.len()));
                Ok(Arc::clone(self.columnar.get_or_init(|| batch)))
            }
            Backing::Paged(p) => Ok(Arc::new(p.scan_columnar(self.schema.len())?)),
        }
    }
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
        let paged = Table::new_paged("t", schema(), rows(), &layer).unwrap();
        assert!(paged.paged().is_some());
        assert!(mem.paged().is_none());
        vec![mem, paged]
    }

    #[test]
    fn rows_are_clustered() {
        for t in tables() {
            let keys: Vec<i64> = t
                .rows()
                .iter()
                .map(|r| match r[0] {
                    Value::Int(i) => i,
                    _ => panic!(),
                })
                .collect();
            assert_eq!(keys, vec![1, 3, 3, 5, 9]);
            // Secondary column also ordered within equal keys.
            assert_eq!(t.rows()[1][1], Value::Text("b".into()));
        }
    }

    #[test]
    fn seek_equality() {
        for t in tables() {
            let three = Value::Int(3);
            let hits = t
                .seek_leading(Bound::Included(&three), Bound::Included(&three))
                .unwrap();
            assert_eq!(hits.len(), 2);
        }
    }

    #[test]
    fn seek_range() {
        for t in tables() {
            let lo = Value::Int(3);
            let hits = t.seek_leading(Bound::Excluded(&lo), Bound::Unbounded).unwrap();
            assert_eq!(hits.len(), 2); // 5 and 9
            let hi = Value::Int(5);
            let hits = t.seek_leading(Bound::Unbounded, Bound::Excluded(&hi)).unwrap();
            assert_eq!(hits.len(), 3); // 1, 3, 3
        }
    }

    #[test]
    fn seek_missing_key() {
        for t in tables() {
            let four = Value::Int(4);
            assert!(t
                .seek_leading(Bound::Included(&four), Bound::Included(&four))
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
            Table::new_paged("e", schema, vec![], &layer).unwrap(),
        ] {
            assert!(t
                .seek_leading(Bound::Included(&one), Bound::Unbounded)
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
                let head = t.scan_head(n).unwrap();
                assert_eq!(&head[..], &t.rows()[..n.min(5)]);
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
        assert_eq!(paged.rows(), mem.rows());
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
        assert_eq!(on_b.rows(), mem.rows());
    }
}
