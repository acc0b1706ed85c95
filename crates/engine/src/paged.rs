//! Out-of-core table backing: paged heaps, clustered seeks, and B-tree
//! secondary indexes.
//!
//! On an engine with a [`StorageLayer`] attached, tables are stored as
//! [`PagedTable`]s: rows are encoded into slotted-page heap files read
//! through the layer's bounded [`BufferPool`], and every non-leading
//! column gets a B-tree secondary index keyed by an order-preserving
//! encoding of [`Value`]. The same machinery backs
//! operator spill: over-budget hash joins and sorts write partitions /
//! runs to temp heap files via [`SpillWriter`] and merge them back.
//!
//! Correctness contract: the paged layer must be indistinguishable from
//! the in-memory backing. Clustered seeks replicate
//! `Table::seek_leading`'s partition points exactly (page-level binary
//! search over first-leading values, then a one-page refinement), and
//! secondary-index lookups return a *superset* of matches (the executor
//! always re-applies the full predicate as a residual), so results are
//! byte-identical to the in-memory oracle.
//!
//! ## Key encoding
//!
//! Index keys are `[rank byte][payload]`, compared bytewise:
//!
//! * rank mirrors `Value::total_cmp`'s type ranking (Null 0, Bool 1,
//!   numeric 2, Date 3, Text 4);
//! * numbers use the f64 total-order bit trick (sign-flipped bits,
//!   big-endian), which reproduces `f64::total_cmp` *exactly* —
//!   including `-0.0 < +0.0` and NaN placement — so stored keys need no
//!   normalization. SQL's `0.0 = -0.0` is handled at bound-encoding
//!   time instead: lower bounds encode `-0.0`, upper bounds `+0.0`;
//! * dates are sign-biased big-endian i32;
//! * text is raw bytes truncated to [`KEY_PREFIX`]. Prefix truncation
//!   is monotone for bytewise order, so truncated bounds still yield a
//!   superset.

use crate::value::{DataType, Row, Value};
use sqlshare_common::faults::FaultPlan;
use sqlshare_common::{Error, Result};
use sqlshare_storage::{BTree, BufferPool, FsyncPolicy, HeapFile, IoCounter, PoolStats, PAGE_SIZE};
use std::cmp::Ordering;
use std::ops::{Bound, Range};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::{Arc, Mutex};

/// Bytes of a Text value that participate in a secondary-index key.
/// Longer strings share a key prefix; the residual predicate
/// disambiguates. Total key length stays far under the B-tree's cap.
pub const KEY_PREFIX: usize = 256;

/// Buffer-pool size a deployment gets when it does not choose one.
pub const DEFAULT_POOL_MB: usize = 64;

// ---------------------------------------------------------------------------
// Row codec
// ---------------------------------------------------------------------------

const TAG_NULL: u8 = 0;
const TAG_FALSE: u8 = 1;
const TAG_TRUE: u8 = 2;
const TAG_INT: u8 = 3;
const TAG_FLOAT: u8 = 4;
const TAG_DATE: u8 = 5;
const TAG_TEXT: u8 = 6;

/// Encode a row as a self-delimiting byte record (exact round trip,
/// including NaN payloads and `-0.0`).
pub fn encode_row(row: &[Value], out: &mut Vec<u8>) {
    for v in row {
        match v {
            Value::Null => out.push(TAG_NULL),
            Value::Bool(false) => out.push(TAG_FALSE),
            Value::Bool(true) => out.push(TAG_TRUE),
            Value::Int(i) => {
                out.push(TAG_INT);
                out.extend_from_slice(&i.to_le_bytes());
            }
            Value::Float(f) => {
                out.push(TAG_FLOAT);
                out.extend_from_slice(&f.to_bits().to_le_bytes());
            }
            Value::Date(d) => {
                out.push(TAG_DATE);
                out.extend_from_slice(&d.to_le_bytes());
            }
            Value::Text(s) => {
                out.push(TAG_TEXT);
                out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                out.extend_from_slice(s.as_bytes());
            }
        }
    }
}

/// Decode a record produced by [`encode_row`].
pub fn decode_row(mut bytes: &[u8]) -> Result<Row> {
    fn take<'a>(bytes: &mut &'a [u8], n: usize) -> Result<&'a [u8]> {
        if bytes.len() < n {
            return Err(Error::Internal("paged: truncated row record".into()));
        }
        let (head, tail) = bytes.split_at(n);
        *bytes = tail;
        Ok(head)
    }
    let mut row = Vec::new();
    while let Some((&tag, rest)) = bytes.split_first() {
        bytes = rest;
        row.push(match tag {
            TAG_NULL => Value::Null,
            TAG_FALSE => Value::Bool(false),
            TAG_TRUE => Value::Bool(true),
            TAG_INT => Value::Int(i64::from_le_bytes(take(&mut bytes, 8)?.try_into().unwrap())),
            TAG_FLOAT => Value::Float(f64::from_bits(u64::from_le_bytes(
                take(&mut bytes, 8)?.try_into().unwrap(),
            ))),
            TAG_DATE => Value::Date(i32::from_le_bytes(take(&mut bytes, 4)?.try_into().unwrap())),
            TAG_TEXT => {
                let len = u32::from_le_bytes(take(&mut bytes, 4)?.try_into().unwrap()) as usize;
                let s = std::str::from_utf8(take(&mut bytes, len)?)
                    .map_err(|_| Error::Internal("paged: non-utf8 text in row record".into()))?;
                Value::Text(s.to_string())
            }
            other => {
                return Err(Error::Internal(format!(
                    "paged: unknown value tag {other} in row record"
                )))
            }
        });
    }
    Ok(row)
}

// ---------------------------------------------------------------------------
// Key codec
// ---------------------------------------------------------------------------

/// Type rank of a value in index-key space; identical to the ranking
/// inside `Value::total_cmp`.
pub fn key_rank(v: &Value) -> u8 {
    match v {
        Value::Null => 0,
        Value::Bool(_) => 1,
        Value::Int(_) | Value::Float(_) => 2,
        Value::Date(_) => 3,
        Value::Text(_) => 4,
    }
}

fn push_f64_key(f: f64, out: &mut Vec<u8>) {
    let bits = f.to_bits();
    // Total-order transform: negatives flip entirely (bigger magnitude
    // sorts first), non-negatives flip the sign bit (above all
    // negatives). Bytewise BE comparison then equals f64::total_cmp.
    let key = if bits & (1 << 63) != 0 { !bits } else { bits ^ (1 << 63) };
    out.extend_from_slice(&key.to_be_bytes());
}

/// Order-preserving key for `v`: bytewise comparison of keys never
/// contradicts `Value::total_cmp` (it can only collapse distinctions,
/// via text prefix truncation, never invert them).
pub fn encode_key(v: &Value) -> Vec<u8> {
    let mut out = vec![key_rank(v)];
    match v {
        Value::Null => {}
        Value::Bool(b) => out.push(*b as u8),
        Value::Int(i) => push_f64_key(*i as f64, &mut out),
        Value::Float(f) => push_f64_key(*f, &mut out),
        Value::Date(d) => out.extend_from_slice(&((*d as u32) ^ 0x8000_0000).to_be_bytes()),
        Value::Text(s) => {
            let bytes = s.as_bytes();
            out.extend_from_slice(&bytes[..bytes.len().min(KEY_PREFIX)]);
        }
    }
    out
}

/// Key for a *lower* bound on `v`: like [`encode_key`] but `0.0`
/// widens to `-0.0` so SQL's signed-zero equality can't lose rows.
fn encode_lower_key(v: &Value) -> Vec<u8> {
    if v.as_f64().is_some_and(|f| f == 0.0) {
        let mut out = vec![key_rank(v)];
        push_f64_key(-0.0, &mut out);
        out
    } else {
        encode_key(v)
    }
}

/// Key for an *upper* bound on `v`: `-0.0` widens to `+0.0`.
fn encode_upper_key(v: &Value) -> Vec<u8> {
    if v.as_f64().is_some_and(|f| f == 0.0) {
        let mut out = vec![key_rank(v)];
        push_f64_key(0.0, &mut out);
        out
    } else {
        encode_key(v)
    }
}

// ---------------------------------------------------------------------------
// Storage layer
// ---------------------------------------------------------------------------

/// Shared paged-storage context: one buffer pool, one I/O counter, and
/// a directory of page files (tables and spill) with unique names.
#[derive(Debug)]
pub struct StorageLayer {
    dir: PathBuf,
    own_dir: bool,
    pool: Arc<BufferPool>,
    io: IoCounter,
    next_id: AtomicU64,
    spill_bytes: AtomicU64,
    /// Bit-rot plan propagated to every page file created after it is
    /// set (chaos tests flip seeded bits in read images).
    rot: Mutex<Option<Arc<FaultPlan>>>,
}

impl StorageLayer {
    /// A layer over an existing or to-be-created directory.
    pub fn new(dir: impl Into<PathBuf>, pool_bytes: usize, fsync: FsyncPolicy) -> Result<Arc<Self>> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)
            .map_err(|e| Error::Internal(format!("paged: create {}: {e}", dir.display())))?;
        Ok(Arc::new(StorageLayer {
            dir,
            own_dir: false,
            pool: Arc::new(BufferPool::new(pool_bytes, fsync)),
            io: IoCounter::new(),
            next_id: AtomicU64::new(0),
            spill_bytes: AtomicU64::new(0),
            rot: Mutex::new(None),
        }))
    }

    /// A layer over a fresh process-unique temp directory, removed when
    /// the layer drops.
    pub fn temp(pool_bytes: usize) -> Result<Arc<Self>> {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "sqlshare-paged-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, AtomicOrdering::Relaxed)
        ));
        let mut layer = StorageLayer::new(dir, pool_bytes, FsyncPolicy::Off)?;
        Arc::get_mut(&mut layer).expect("fresh arc").own_dir = true;
        Ok(layer)
    }

    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// Directory holding this layer's page files (scrub root).
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Attach a bit-rot plan applied to every page file created from
    /// now on. Chaos tests set this before tables are built.
    pub fn set_rot_plan(&self, plan: Arc<FaultPlan>) {
        *self.rot.lock().unwrap_or_else(|e| e.into_inner()) = Some(plan);
    }

    fn rot_plan(&self) -> Option<Arc<FaultPlan>> {
        self.rot.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Page-file operations performed through this layer (reads,
    /// writes, fsyncs) — per-layer, resettable for tests.
    pub fn io(&self) -> &IoCounter {
        &self.io
    }

    /// Total bytes spilled to temp heap files by over-budget operators.
    pub fn spill_bytes(&self) -> u64 {
        self.spill_bytes.load(AtomicOrdering::Relaxed)
    }

    pub fn add_spill_bytes(&self, bytes: u64) {
        self.spill_bytes.fetch_add(bytes, AtomicOrdering::Relaxed);
    }

    fn file_path(&self, stem: &str, ext: &str) -> PathBuf {
        let id = self.next_id.fetch_add(1, AtomicOrdering::Relaxed);
        let stem: String = stem
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() || c == '-' || c == '_' { c } else { '_' })
            .take(64)
            .collect();
        self.dir.join(format!("{stem}-{id}.{ext}"))
    }

    /// A fresh heap file under this layer's directory and pool.
    pub fn create_heap(&self, stem: &str) -> Result<HeapFile> {
        let heap =
            HeapFile::create(Arc::clone(&self.pool), &self.file_path(stem, "heap"), self.io.clone())?;
        if let Some(plan) = self.rot_plan() {
            heap.set_rot_plan(plan);
        }
        Ok(heap)
    }

    /// A fresh B-tree under this layer's directory and pool.
    pub fn create_tree(&self, stem: &str) -> Result<BTree> {
        let tree =
            BTree::create(Arc::clone(&self.pool), &self.file_path(stem, "btree"), self.io.clone())?;
        if let Some(plan) = self.rot_plan() {
            tree.set_rot_plan(plan);
        }
        Ok(tree)
    }
}

impl Drop for StorageLayer {
    fn drop(&mut self) {
        if self.own_dir {
            // Tables hold an Arc to the layer, so by now every page
            // file has been dropped (and deleted) already.
            let _ = std::fs::remove_dir_all(&self.dir);
        }
    }
}

// ---------------------------------------------------------------------------
// Paged tables
// ---------------------------------------------------------------------------

/// One column's secondary index: a B-tree from encoded keys to row
/// ordinals, plus the set of value ranks present in the column.
#[derive(Debug)]
struct SecondaryIndex {
    tree: BTree,
    /// Bitmask of [`key_rank`]s present in the column. An index seek is
    /// only order-safe when every non-null value shares the literal's
    /// rank (cross-rank predicates go through `sql_cmp`'s text
    /// coercion, which key order cannot reproduce).
    group_mask: u8,
}

/// Whether an index on a column with `group_mask` can serve bounds on a
/// literal of rank `lit_rank`.
fn index_rank_safe(group_mask: u8, lit_rank: u8) -> bool {
    group_mask & !(1 | (1 << lit_rank)) == 0
}

/// An immutable clustered-ordered table stored in heap pages, with
/// B-tree secondary indexes on every non-leading column.
#[derive(Debug)]
pub struct PagedTable {
    layer: Arc<StorageLayer>,
    heap: HeapFile,
    row_count: usize,
    bytes: usize,
    /// Ordinal of the first row on each data page.
    page_offsets: Vec<usize>,
    /// Leading-column value of the first row on each data page (the
    /// sparse clustered index).
    first_leading: Vec<Value>,
    /// Per column: `None` for the leading column (served by the
    /// clustered order) and for empty tables.
    indexes: Vec<Option<SecondaryIndex>>,
}

impl PagedTable {
    /// Build from rows already sorted in clustered order.
    pub fn build(
        layer: &Arc<StorageLayer>,
        name: &str,
        n_columns: usize,
        rows: &[Row],
    ) -> Result<PagedTable> {
        let mut heap = layer.create_heap(name)?;
        let mut page_offsets = Vec::new();
        let mut first_leading = Vec::new();
        let mut record = Vec::new();
        let mut bytes = 0usize;
        for (ordinal, row) in rows.iter().enumerate() {
            record.clear();
            encode_row(row, &mut record);
            bytes += row.iter().map(Value::estimated_size).sum::<usize>();
            let page = heap.append(&record)?;
            if page == page_offsets.len() {
                page_offsets.push(ordinal);
                first_leading.push(row.first().cloned().unwrap_or(Value::Null));
            }
        }
        heap.finish()?;
        let mut indexes: Vec<Option<SecondaryIndex>> = Vec::new();
        for col in 0..n_columns {
            if col == 0 || rows.is_empty() {
                indexes.push(None);
                continue;
            }
            let mut tree = layer.create_tree(&format!("{name}-c{col}"))?;
            let mut group_mask = 0u8;
            for (ordinal, row) in rows.iter().enumerate() {
                let v = row.get(col).unwrap_or(&Value::Null);
                group_mask |= 1 << key_rank(v);
                tree.insert(&encode_key(v), ordinal as u64)?;
            }
            tree.flush()?;
            indexes.push(Some(SecondaryIndex { tree, group_mask }));
        }
        Ok(PagedTable {
            layer: Arc::clone(layer),
            heap,
            row_count: rows.len(),
            bytes,
            page_offsets,
            first_leading,
            indexes,
        })
    }

    pub fn row_count(&self) -> usize {
        self.row_count
    }

    /// Estimated bytes of the decoded rows (matches the in-memory
    /// backing's accounting, so the planner and memory governor see the
    /// same numbers either way).
    pub fn estimated_bytes(&self) -> usize {
        self.bytes
    }

    /// Data pages in the heap (not counting overflow or index pages).
    pub fn data_page_count(&self) -> usize {
        self.page_offsets.len()
    }

    pub fn layer(&self) -> &Arc<StorageLayer> {
        &self.layer
    }

    /// Files backing this table: `(index_column, path)` where `None` is
    /// the heap and `Some(col)` a secondary index. The scrubber and the
    /// repair ladder use this to map an on-disk finding back to its
    /// owning table.
    pub fn backing_files(&self) -> Vec<(Option<usize>, PathBuf)> {
        let mut files = vec![(None, self.heap.path().to_path_buf())];
        for (col, idx) in self.indexes.iter().enumerate() {
            if let Some(idx) = idx {
                files.push((Some(col), idx.tree.path().to_path_buf()));
            }
        }
        files
    }

    /// Pages negative-cached as corrupt, per backing file. Empty means
    /// no read of this table has hit rot (the scrubber may still know
    /// more — it reads pages the working set never touches).
    pub fn poisoned(&self) -> Vec<(Option<usize>, Vec<u32>)> {
        let mut out = Vec::new();
        let heap = self.heap.poisoned_pages();
        if !heap.is_empty() {
            out.push((None, heap));
        }
        for (col, idx) in self.indexes.iter().enumerate() {
            if let Some(idx) = idx {
                let pages = idx.tree.poisoned_pages();
                if !pages.is_empty() {
                    out.push((Some(col), pages));
                }
            }
        }
        out
    }

    /// Read the raw sealed bytes of physical page `no` straight off
    /// disk, bypassing the buffer pool — the serving side of
    /// repair-from-replica. Page files are byte-deterministic across
    /// replicas (single-pass build from byte-identical replicated rows),
    /// so a healthy peer's image is the correct replacement.
    pub fn read_raw_page(&self, file: Option<usize>, no: u32) -> Result<Vec<u8>> {
        use std::io::{Read as _, Seek as _, SeekFrom};
        let path = self.backing_path(file)?;
        self.layer.io.bump();
        let mut f = std::fs::File::open(&path)
            .map_err(|e| Error::Internal(format!("paged: open {}: {e}", path.display())))?;
        let mut buf = vec![0u8; PAGE_SIZE];
        f.seek(SeekFrom::Start(no as u64 * PAGE_SIZE as u64))
            .and_then(|_| f.read_exact(&mut buf))
            .map_err(|e| {
                Error::Internal(format!("paged: read page {no} of {}: {e}", path.display()))
            })?;
        Ok(buf)
    }

    /// Install a replacement page image fetched from a replica. The
    /// image is checksum-verified before it touches the file; the pool's
    /// poison verdict clears only on success.
    pub fn install_page(&self, file: Option<usize>, no: u32, bytes: &[u8]) -> Result<()> {
        let image: [u8; PAGE_SIZE] = bytes.try_into().map_err(|_| {
            Error::Corrupt(format!(
                "replacement page image is {} bytes, expected {PAGE_SIZE}",
                bytes.len()
            ))
        })?;
        match file {
            None => self.heap.install_page(no, image),
            Some(col) => match self.indexes.get(col).and_then(Option::as_ref) {
                Some(idx) => idx.tree.install_page(no, image),
                None => Err(Error::Internal(format!("no secondary index on column {col}"))),
            },
        }
    }

    fn backing_path(&self, file: Option<usize>) -> Result<PathBuf> {
        match file {
            None => Ok(self.heap.path().to_path_buf()),
            Some(col) => match self.indexes.get(col).and_then(Option::as_ref) {
                Some(idx) => Ok(idx.tree.path().to_path_buf()),
                None => Err(Error::Internal(format!("no secondary index on column {col}"))),
            },
        }
    }

    /// Decode every row of data page `idx`, in clustered order.
    pub fn decode_page(&self, idx: usize) -> Result<Vec<Row>> {
        self.heap
            .read_page_records(idx)?
            .iter()
            .map(|r| decode_row(r))
            .collect()
    }

    /// Global ordinal of the first row whose leading value `x` fails
    /// `keep(x.total_cmp(v))`, where `keep` holds on a prefix of the
    /// clustered order. Page-level binary search plus one page decode.
    fn boundary(&self, v: &Value, keep: fn(Ordering) -> bool) -> Result<usize> {
        let p = self.first_leading.partition_point(|x| keep(x.total_cmp(v)));
        if p == 0 {
            return Ok(0);
        }
        let rows = self.decode_page(p - 1)?;
        Ok(self.page_offsets[p - 1] + rows.partition_point(|r| keep(r[0].total_cmp(v))))
    }

    /// The ordinal range matching leading-column bounds — the partition
    /// points an in-memory table's `Table::seek` finds.
    pub fn seek_range(&self, lower: Bound<&Value>, upper: Bound<&Value>) -> Result<Range<usize>> {
        crate::table::seek_range(self.row_count, lower, upper, |v, keep| self.boundary(v, keep))
    }

    /// Decode the rows of an ordinal range (page at a time through the
    /// buffer pool).
    pub fn scan_range(&self, range: Range<usize>) -> Result<Vec<Row>> {
        let mut out = Vec::with_capacity(range.len());
        if range.start >= range.end {
            return Ok(out);
        }
        let first = self.page_offsets.partition_point(|&o| o <= range.start) - 1;
        for pg in first..self.page_offsets.len() {
            let base = self.page_offsets[pg];
            if base >= range.end {
                break;
            }
            for (i, row) in self.decode_page(pg)?.into_iter().enumerate() {
                let ordinal = base + i;
                if ordinal >= range.start && ordinal < range.end {
                    out.push(row);
                }
            }
        }
        Ok(out)
    }

    /// All rows in clustered order.
    pub fn scan_all(&self) -> Result<Vec<Row>> {
        self.scan_range(0..self.row_count)
    }

    /// Decode the whole table straight into a column batch, page by
    /// page through the buffer pool (no intermediate `Vec<Row>` of the
    /// full table). `types` come from the schema — the heap records
    /// neither column types nor count, and empty tables still need them.
    pub fn scan_columnar(&self, types: &[DataType]) -> Result<crate::vector::Batch> {
        let mut builders: Vec<crate::vector::ColumnBuilder> = types
            .iter()
            .map(|&ty| crate::vector::ColumnBuilder::with_capacity(ty, self.row_count))
            .collect();
        for pg in 0..self.page_offsets.len() {
            for row in self.decode_page(pg)? {
                for (b, v) in builders.iter_mut().zip(row.iter()) {
                    b.push(v);
                }
            }
        }
        Ok(crate::vector::Batch::new(
            builders
                .into_iter()
                .map(|b| crate::vector::Col::new(b.finish()))
                .collect(),
            self.row_count,
        ))
    }

    /// Whether an order-safe secondary index exists to serve these
    /// bounds on `col` — the planner's gate for emitting an
    /// `Index Seek` (the executor re-checks through
    /// [`PagedTable::secondary_candidates`] and falls back to a scan).
    pub fn index_serves(&self, col: usize, lower: Bound<&Value>, upper: Bound<&Value>) -> bool {
        let Some(Some(index)) = self.indexes.get(col) else {
            return false;
        };
        let rank_of = |b: &Bound<&Value>| match b {
            Bound::Included(v) | Bound::Excluded(v) if !v.is_null() => Some(key_rank(v)),
            _ => None,
        };
        let rank = match (rank_of(&lower), rank_of(&upper)) {
            (Some(a), Some(b)) if a == b => a,
            (Some(a), None) | (None, Some(a)) => a,
            _ => return false,
        };
        index_rank_safe(index.group_mask, rank)
    }

    /// Candidate row ordinals (ascending, i.e. clustered order) for
    /// bounds on column `col`, via its secondary B-tree. Returns
    /// `Ok(None)` when no order-safe index can serve the bounds; when
    /// `Some`, the ordinals are a *superset* of the matches — the
    /// caller must re-apply the full predicate.
    pub fn secondary_candidates(
        &self,
        col: usize,
        lower: Bound<&Value>,
        upper: Bound<&Value>,
    ) -> Result<Option<Vec<usize>>> {
        let Some(Some(index)) = self.indexes.get(col) else {
            return Ok(None);
        };
        let rank_of = |b: &Bound<&Value>| match b {
            Bound::Included(v) | Bound::Excluded(v) if !v.is_null() => Some(key_rank(v)),
            _ => None,
        };
        let rank = match (rank_of(&lower), rank_of(&upper)) {
            (Some(a), Some(b)) if a == b => a,
            (Some(a), None) | (None, Some(a)) => a,
            // No usable bound, or bounds in different rank groups
            // (total order and sql_cmp disagree across groups).
            _ => return Ok(None),
        };
        if !index_rank_safe(index.group_mask, rank) {
            return Ok(None);
        }
        // Widen every bound to Included: exact exclusion is the
        // residual's job (and truncated text keys collapse distinctions
        // anyway). Unbounded sides clamp to the literal's rank region so
        // NULLs and other type groups stay out.
        let lo_key = match lower {
            Bound::Included(v) | Bound::Excluded(v) => encode_lower_key(v),
            Bound::Unbounded => vec![rank],
        };
        let hi_key = match upper {
            Bound::Included(v) | Bound::Excluded(v) => encode_upper_key(v),
            Bound::Unbounded => vec![rank + 1],
        };
        let hi_bound = match upper {
            Bound::Unbounded => Bound::Excluded(hi_key.as_slice()),
            _ => Bound::Included(hi_key.as_slice()),
        };
        let vals = index.tree.range(Bound::Included(lo_key.as_slice()), hi_bound)?;
        let mut ordinals: Vec<usize> = vals.into_iter().map(|v| v as usize).collect();
        ordinals.sort_unstable();
        Ok(Some(ordinals))
    }

    /// Fetch rows by ascending ordinals (each touched page is decoded
    /// once).
    pub fn fetch_rows(&self, ordinals: &[usize]) -> Result<Vec<Row>> {
        let mut out = Vec::with_capacity(ordinals.len());
        let mut cached: Option<(usize, Vec<Row>)> = None;
        for &ordinal in ordinals {
            if ordinal >= self.row_count {
                return Err(Error::Internal(format!(
                    "paged: ordinal {ordinal} out of range"
                )));
            }
            let pg = self.page_offsets.partition_point(|&o| o <= ordinal) - 1;
            if cached.as_ref().map(|(p, _)| *p) != Some(pg) {
                cached = Some((pg, self.decode_page(pg)?));
            }
            let (_, rows) = cached.as_ref().unwrap();
            out.push(rows[ordinal - self.page_offsets[pg]].clone());
        }
        Ok(out)
    }
}

// ---------------------------------------------------------------------------
// Spill files
// ---------------------------------------------------------------------------

/// Write-side of an operator spill: rows encoded into a temp heap file
/// owned by the storage layer's pool.
#[derive(Debug)]
pub struct SpillWriter {
    layer: Arc<StorageLayer>,
    heap: HeapFile,
    record: Vec<u8>,
}

impl SpillWriter {
    pub fn create(layer: &Arc<StorageLayer>, stem: &str) -> Result<SpillWriter> {
        Ok(SpillWriter {
            layer: Arc::clone(layer),
            heap: layer.create_heap(&format!("spill-{stem}"))?,
            record: Vec::new(),
        })
    }

    pub fn push(&mut self, row: &[Value]) -> Result<()> {
        self.record.clear();
        encode_row(row, &mut self.record);
        self.heap.append(&self.record)?;
        Ok(())
    }

    pub fn row_count(&self) -> u64 {
        self.heap.record_count()
    }

    /// Flush and convert to the read side, crediting the layer's spill
    /// accounting.
    pub fn finish(mut self) -> Result<SpillReader> {
        self.heap.finish()?;
        self.layer.add_spill_bytes(self.heap.payload_bytes());
        Ok(SpillReader {
            _layer: self.layer,
            heap: self.heap,
        })
    }
}

/// Read-side of a spill file; the temp file is deleted on drop.
#[derive(Debug)]
pub struct SpillReader {
    _layer: Arc<StorageLayer>,
    heap: HeapFile,
}

impl SpillReader {
    pub fn row_count(&self) -> u64 {
        self.heap.record_count()
    }

    pub fn page_count(&self) -> usize {
        self.heap.data_page_count()
    }

    /// Bytes of record payload spilled into this file.
    pub fn payload_bytes(&self) -> u64 {
        self.heap.payload_bytes()
    }

    pub fn read_page(&self, idx: usize) -> Result<Vec<Row>> {
        self.heap
            .read_page_records(idx)?
            .iter()
            .map(|r| decode_row(r))
            .collect()
    }

    /// A page-buffered cursor over all rows, in append order.
    pub fn cursor(self: &Arc<Self>) -> SpillCursor {
        SpillCursor {
            reader: Arc::clone(self),
            page: 0,
            buf: Vec::new(),
            pos: 0,
        }
    }
}

/// Streaming reader over a [`SpillReader`], one page resident at a time.
#[derive(Debug)]
pub struct SpillCursor {
    reader: Arc<SpillReader>,
    page: usize,
    buf: Vec<Row>,
    pos: usize,
}

impl SpillCursor {
    pub fn next_row(&mut self) -> Result<Option<Row>> {
        while self.pos >= self.buf.len() {
            if self.page >= self.reader.page_count() {
                return Ok(None);
            }
            self.buf = self.reader.read_page(self.page)?;
            self.page += 1;
            self.pos = 0;
        }
        let row = self.buf[self.pos].clone();
        self.pos += 1;
        Ok(Some(row))
    }
}

/// Guard against concurrent engines/tests sharing one temp namespace:
/// layer directories embed the pid and a process-wide sequence, so this
/// mutex only exists for Drop-order tests that inspect the filesystem.
#[allow(dead_code)]
static FS_TEST_LOCK: Mutex<()> = Mutex::new(());

#[allow(dead_code)]
fn _assert_send_sync(p: &Path) -> &Path {
    fn check<T: Send + Sync>() {}
    check::<PagedTable>();
    check::<StorageLayer>();
    check::<SpillReader>();
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::cmp_rows;

    fn values() -> Vec<Value> {
        vec![
            Value::Null,
            Value::Bool(false),
            Value::Bool(true),
            Value::Int(-5),
            Value::Int(0),
            Value::Int(42),
            Value::Int(i64::MAX),
            Value::Float(f64::NEG_INFINITY),
            Value::Float(-1.5),
            Value::Float(-0.0),
            Value::Float(0.0),
            Value::Float(2.5),
            Value::Float(f64::INFINITY),
            Value::Float(f64::NAN),
            Value::Date(-3000),
            Value::Date(0),
            Value::Date(20000),
            Value::Text(String::new()),
            Value::Text("a".into()),
            Value::Text("aardvark".into()),
            Value::Text("z".repeat(KEY_PREFIX + 50)),
        ]
    }

    #[test]
    fn row_codec_round_trips_every_type() {
        let row = values();
        let mut bytes = Vec::new();
        encode_row(&row, &mut bytes);
        let back = decode_row(&bytes).unwrap();
        assert_eq!(back.len(), row.len());
        for (a, b) in row.iter().zip(&back) {
            assert_eq!(a.total_cmp(b), Ordering::Equal, "{a:?} vs {b:?}");
            // NaN and -0.0 must survive bit-exactly, not just total-equal.
            if let (Value::Float(x), Value::Float(y)) = (a, b) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn key_order_never_contradicts_total_order() {
        let vals = values();
        for a in &vals {
            for b in &vals {
                let (ka, kb) = (encode_key(a), encode_key(b));
                match ka.cmp(&kb) {
                    Ordering::Equal => {} // truncation may collapse; never inverts
                    other => assert_eq!(other, a.total_cmp(b), "{a:?} vs {b:?}"),
                }
            }
        }
    }

    #[test]
    fn zero_widening_bounds_cover_both_zeros() {
        let neg = encode_key(&Value::Float(-0.0));
        let pos = encode_key(&Value::Float(0.0));
        assert!(neg < pos);
        assert!(encode_lower_key(&Value::Int(0)) <= neg);
        assert!(encode_upper_key(&Value::Float(-0.0)) >= pos);
    }

    fn sorted_rows(n: i64) -> Vec<Row> {
        let mut rows: Vec<Row> = (0..n)
            .map(|i| {
                vec![
                    Value::Int((i * 7) % 100),
                    Value::Text(format!("name-{:04}", (i * 13) % 50)),
                    Value::Float(((i % 20) as f64) - 10.0),
                ]
            })
            .collect();
        rows.sort_by(cmp_rows);
        rows
    }

    fn build_table(rows: &[Row]) -> (Arc<StorageLayer>, PagedTable) {
        let layer = StorageLayer::temp(0).unwrap(); // minimum pool: 8 frames
        let t = PagedTable::build(&layer, "t", 3, rows).unwrap();
        (layer, t)
    }

    #[test]
    fn scan_all_round_trips_in_clustered_order() {
        let rows = sorted_rows(3000);
        let (_layer, t) = build_table(&rows);
        assert!(t.data_page_count() > 1);
        assert_eq!(t.scan_all().unwrap(), rows);
    }

    #[test]
    fn seek_range_matches_in_memory_partition_points() {
        let rows = sorted_rows(2000);
        let (_layer, t) = build_table(&rows);
        let probes = [-1i64, 0, 1, 35, 50, 77, 99, 100, 200];
        for &lo in &probes {
            for &hi in &probes {
                let (lov, hiv) = (Value::Int(lo), Value::Int(hi));
                for (lb, ub) in [
                    (Bound::Included(&lov), Bound::Included(&hiv)),
                    (Bound::Excluded(&lov), Bound::Excluded(&hiv)),
                    (Bound::Included(&lov), Bound::Unbounded),
                    (Bound::Unbounded, Bound::Excluded(&hiv)),
                ] {
                    let range = t.seek_range(lb, ub).unwrap();
                    // Oracle: partition points over the sorted vec.
                    let start = match lb {
                        Bound::Unbounded => 0,
                        Bound::Included(v) => rows
                            .partition_point(|r| r[0].total_cmp(v) == Ordering::Less),
                        Bound::Excluded(v) => rows
                            .partition_point(|r| r[0].total_cmp(v) != Ordering::Greater),
                    };
                    let end = match ub {
                        Bound::Unbounded => rows.len(),
                        Bound::Included(v) => rows
                            .partition_point(|r| r[0].total_cmp(v) != Ordering::Greater),
                        Bound::Excluded(v) => rows
                            .partition_point(|r| r[0].total_cmp(v) == Ordering::Less),
                    };
                    let expect = if start >= end { 0..0 } else { start..end };
                    assert_eq!(range.clone(), expect, "bounds {lb:?}..{ub:?}");
                    assert_eq!(t.scan_range(range).unwrap().as_slice(), &rows[expect]);
                }
            }
        }
    }

    #[test]
    fn secondary_candidates_are_supersets_in_clustered_order() {
        let rows = sorted_rows(1500);
        let (_layer, t) = build_table(&rows);
        let needle = Value::Text("name-0013".into());
        let cands = t
            .secondary_candidates(1, Bound::Included(&needle), Bound::Included(&needle))
            .unwrap()
            .expect("text index applicable");
        assert!(cands.windows(2).all(|w| w[0] < w[1]), "sorted, deduped");
        let fetched = t.fetch_rows(&cands).unwrap();
        let exact: Vec<&Row> = rows
            .iter()
            .filter(|r| r[1].sql_eq(&needle) == Some(true))
            .collect();
        assert!(!exact.is_empty());
        // Superset: every exact match is among the candidates.
        let matches: Vec<&Row> = fetched
            .iter()
            .filter(|r| r[1].sql_eq(&needle) == Some(true))
            .collect();
        assert_eq!(matches, exact);

        // Numeric range on the float column, spanning zero.
        let lo = Value::Float(-0.5);
        let hi = Value::Int(3);
        let cands = t
            .secondary_candidates(2, Bound::Excluded(&lo), Bound::Included(&hi))
            .unwrap()
            .expect("float index applicable");
        let fetched = t.fetch_rows(&cands).unwrap();
        let pred = |r: &Row| {
            r[2].sql_cmp(&lo) == Some(Ordering::Greater)
                && r[2].sql_cmp(&hi) != Some(Ordering::Greater)
        };
        let exact: Vec<&Row> = rows.iter().filter(|r| pred(r)).collect();
        let matched: Vec<&Row> = fetched.iter().filter(|r| pred(r)).collect();
        assert_eq!(matched, exact);
        assert!(!exact.is_empty());
    }

    #[test]
    fn secondary_candidates_refuse_mixed_rank_columns() {
        // A column holding text AND ints can't serve numeric bounds.
        let mut rows = vec![
            vec![Value::Int(1), Value::Text("9".into())],
            vec![Value::Int(2), Value::Int(5)],
            vec![Value::Int(3), Value::Null],
        ];
        rows.sort_by(cmp_rows);
        let layer = StorageLayer::temp(0).unwrap();
        let t = PagedTable::build(&layer, "mixed", 2, &rows).unwrap();
        let five = Value::Int(5);
        assert!(t
            .secondary_candidates(1, Bound::Included(&five), Bound::Unbounded)
            .unwrap()
            .is_none());
        // Nulls alongside one rank are fine.
        let mut rows = vec![
            vec![Value::Int(1), Value::Int(9)],
            vec![Value::Int(2), Value::Null],
        ];
        rows.sort_by(cmp_rows);
        let t = PagedTable::build(&layer, "nullable", 2, &rows).unwrap();
        let cands = t
            .secondary_candidates(1, Bound::Included(&five), Bound::Unbounded)
            .unwrap()
            .expect("single-rank column");
        assert_eq!(t.fetch_rows(&cands).unwrap(), vec![vec![Value::Int(1), Value::Int(9)]]);
    }

    #[test]
    fn spill_round_trips_and_accounts_bytes() {
        let layer = StorageLayer::temp(0).unwrap();
        let mut w = SpillWriter::create(&layer, "join-p0").unwrap();
        let rows = sorted_rows(500);
        for r in &rows {
            w.push(r).unwrap();
        }
        assert_eq!(w.row_count(), 500);
        let r = Arc::new(w.finish().unwrap());
        assert!(layer.spill_bytes() > 0);
        let mut cursor = r.cursor();
        let mut back = Vec::new();
        while let Some(row) = cursor.next_row().unwrap() {
            back.push(row);
        }
        assert_eq!(back, rows);
    }

    #[test]
    fn temp_layer_cleans_up_its_directory() {
        let _guard = FS_TEST_LOCK.lock().unwrap();
        let layer = StorageLayer::temp(0).unwrap();
        let dir = layer.dir.clone();
        let t = PagedTable::build(&layer, "gone", 2, &sorted_rows(100)).unwrap();
        assert!(dir.exists());
        assert!(std::fs::read_dir(&dir).unwrap().count() > 0);
        drop(t);
        drop(layer);
        assert!(!dir.exists());
    }

    #[test]
    fn empty_table_is_well_behaved() {
        let layer = StorageLayer::temp(0).unwrap();
        let t = PagedTable::build(&layer, "empty", 2, &[]).unwrap();
        assert_eq!(t.row_count(), 0);
        assert_eq!(t.scan_all().unwrap(), Vec::<Row>::new());
        let one = Value::Int(1);
        assert_eq!(t.seek_range(Bound::Included(&one), Bound::Unbounded).unwrap(), 0..0);
        assert!(t
            .secondary_candidates(1, Bound::Included(&one), Bound::Unbounded)
            .unwrap()
            .is_none());
    }
}
