//! Operator spill: Grace hash join and external merge sort over spill
//! files.
//!
//! When a hash-join build or sort decoration would blow the query's
//! [`crate::memory::MemoryBudget`] and the guard has a spill directory,
//! the operator spills instead of failing with `ResourceExhausted`: the
//! build side is partitioned to spill files and joined partition by
//! partition, or the sort writes bounded sorted runs and k-way-merges
//! them back. Both paths reproduce the in-memory operator's output order
//! *exactly* — joins tag every spilled row with its original index and
//! re-sort the matches by (probe index, build index); the merge breaks
//! ties by run index, which preserves the stable sort's input order —
//! so spilling is invisible to the differential suites.
//!
//! A spill file is created in the spill directory and unlinked at once:
//! it lives only as long as its open handle, so no exit, error, panic or
//! cancellation leaves an entry behind. It holds up to [`CHARGE_BATCH`]
//! rows per checksummed `storage::frame`, each row as [`encode_row`]
//! writes it, and is read back in order through one
//! `storage::FrameReader`: a short or damaged file is `Error::Corrupt`.
//!
//! Memory accounting: the spill paths charge one partition (or one
//! run's key decoration) at a time and release it before the next, so
//! the budget bounds the *working set*, not the input. If even a single
//! partition/run doesn't fit, the original `ResourceExhausted` outcome
//! stands. Spilled bytes are tallied on the guard, per query, for the
//! query log.

use crate::exec::{join_key, null_row, ExecGuard};
use crate::expr::{eval_predicate, BoundExpr};
use crate::faults::FaultSite;
use crate::functions::EvalContext;
use crate::logical::SortKey;
use crate::memory::values_bytes;
use crate::value::{Row, Value};
use sqlshare_common::hash::fnv64;
use sqlshare_common::{Error, Result};
use sqlshare_sql::ast::JoinKind;
use sqlshare_storage::{frame, FrameReader};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{BufReader, BufWriter, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};

/// Fan-out of the Grace join's partitioning pass. Eight partitions cut
/// the per-partition build to ~1/8 of the input; inputs whose *single
/// partition* still exceeds the budget fail as before.
pub const JOIN_PARTITIONS: usize = 8;

/// Rows per memory-charge batch in spill-capable operators (accounting
/// stays coarse-grained — one atomic add per batch, not per row).
pub const CHARGE_BATCH: usize = 1024;

/// The sort comparator shared by the in-memory sort, run generation,
/// and the merge: per-key total order with per-key descending flags.
pub(crate) fn sort_cmp(keys: &[SortKey], a: &[Value], b: &[Value]) -> Ordering {
    for (i, key) in keys.iter().enumerate() {
        let ord = a[i].total_cmp(&b[i]);
        let ord = if key.desc { ord.reverse() } else { ord };
        if !ord.is_eq() {
            return ord;
        }
    }
    Ordering::Equal
}

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

/// Split `n` bytes off the front of `bytes`.
fn take<'a>(bytes: &mut &'a [u8], n: usize) -> Result<&'a [u8]> {
    if bytes.len() < n {
        return Err(Error::Corrupt("spill: truncated row record".into()));
    }
    let (head, tail) = bytes.split_at(n);
    *bytes = tail;
    Ok(head)
}

/// Split `N` bytes off the front of `bytes`, as an array.
fn take_array<const N: usize>(bytes: &mut &[u8]) -> Result<[u8; N]> {
    let mut out = [0; N];
    out.copy_from_slice(take(bytes, N)?);
    Ok(out)
}

/// Decode a record produced by [`encode_row`]: a typed error for any
/// bytes it did not write.
pub fn decode_row(mut bytes: &[u8]) -> Result<Row> {
    let mut row = Vec::new();
    while let Some((&tag, rest)) = bytes.split_first() {
        bytes = rest;
        row.push(match tag {
            TAG_NULL => Value::Null,
            TAG_FALSE => Value::Bool(false),
            TAG_TRUE => Value::Bool(true),
            TAG_INT => Value::Int(i64::from_le_bytes(take_array(&mut bytes)?)),
            TAG_FLOAT => Value::Float(f64::from_bits(u64::from_le_bytes(take_array(&mut bytes)?))),
            TAG_DATE => Value::Date(i32::from_le_bytes(take_array(&mut bytes)?)),
            TAG_TEXT => {
                let len = u32::from_le_bytes(take_array(&mut bytes)?) as usize;
                let s = std::str::from_utf8(take(&mut bytes, len)?)
                    .map_err(|_| Error::Corrupt("spill: non-utf8 text in row record".into()))?;
                Value::Text(s.to_string())
            }
            other => {
                return Err(Error::Corrupt(format!("spill: unknown value tag {other} in row record")))
            }
        });
    }
    Ok(row)
}

// ---------------------------------------------------------------------------
// Spill files
// ---------------------------------------------------------------------------

fn spill_io(what: &str, e: std::io::Error) -> Error {
    Error::Internal(format!("spill: {what}: {e}"))
}

/// The write side of a spill file: rows buffered into frames of up to
/// [`CHARGE_BATCH`] rows, each row a `u32` length and its record.
#[derive(Debug)]
pub(crate) struct SpillWriter {
    out: BufWriter<File>,
    frame: Vec<u8>,
    rows_in_frame: usize,
    written: u64,
}

impl SpillWriter {
    /// A fresh spill file in `dir`, already unlinked.
    pub fn create(dir: &Path) -> Result<SpillWriter> {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let path = dir.join(format!(
            "sqlshare-spill-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, AtomicOrdering::Relaxed)
        ));
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(&path)
            .map_err(|e| spill_io(&format!("create {}", path.display()), e))?;
        std::fs::remove_file(&path).map_err(|e| spill_io(&format!("unlink {}", path.display()), e))?;
        Ok(SpillWriter {
            out: BufWriter::new(file),
            frame: Vec::new(),
            rows_in_frame: 0,
            written: 0,
        })
    }

    pub fn push(&mut self, row: &[Value]) -> Result<()> {
        let at = self.frame.len();
        self.frame.extend_from_slice(&[0; 4]);
        encode_row(row, &mut self.frame);
        let len = (self.frame.len() - at - 4) as u32;
        self.frame[at..at + 4].copy_from_slice(&len.to_le_bytes());
        self.rows_in_frame += 1;
        if self.rows_in_frame == CHARGE_BATCH {
            self.flush_frame()?;
        }
        Ok(())
    }

    fn flush_frame(&mut self) -> Result<()> {
        if self.rows_in_frame == 0 {
            return Ok(());
        }
        let framed = frame(&self.frame);
        self.out.write_all(&framed).map_err(|e| spill_io("write", e))?;
        self.written += framed.len() as u64;
        self.frame.clear();
        self.rows_in_frame = 0;
        Ok(())
    }

    /// Write what is buffered and turn to the read side.
    pub fn finish(mut self) -> Result<SpillReader> {
        self.flush_frame()?;
        let mut file = self.out.into_inner().map_err(|e| spill_io("flush", e.into_error()))?;
        file.seek(SeekFrom::Start(0)).map_err(|e| spill_io("rewind", e))?;
        Ok(SpillReader {
            frames: FrameReader::new(BufReader::new(file), self.written),
            bytes: self.written,
            rows: Vec::new().into_iter(),
        })
    }
}

/// The read side of a spill file: its rows in the order they were
/// pushed, one frame resident at a time.
#[derive(Debug)]
pub(crate) struct SpillReader {
    frames: FrameReader<BufReader<File>>,
    bytes: u64,
    rows: std::vec::IntoIter<Row>,
}

impl SpillReader {
    /// Bytes written to the file.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    pub fn next_row(&mut self) -> Result<Option<Row>> {
        loop {
            if let Some(row) = self.rows.next() {
                return Ok(Some(row));
            }
            let Some(mut payload) = self.frames.next_frame()? else {
                return Ok(None);
            };
            let mut rows = Vec::new();
            while !payload.is_empty() {
                let len = u32::from_le_bytes(take_array(&mut payload)?) as usize;
                rows.push(decode_row(take(&mut payload, len)?)?);
            }
            self.rows = rows.into_iter();
        }
    }
}

/// Partition a join side into [`JOIN_PARTITIONS`] spill files, tagging
/// every row with its original index (first column). NULL-key rows
/// never match anything but still need to surface for outer-join
/// padding, so they are routed by row index.
fn spill_side(
    rows: Vec<Row>,
    keys: &[BoundExpr],
    ctx: &EvalContext,
    guard: &ExecGuard,
    dir: &Path,
) -> Result<Vec<SpillReader>> {
    let mut writers = (0..JOIN_PARTITIONS)
        .map(|_| SpillWriter::create(dir))
        .collect::<Result<Vec<_>>>()?;
    for (idx, row) in rows.into_iter().enumerate() {
        guard.tick(1)?;
        let kv = keys
            .iter()
            .map(|k| k.eval(&row, ctx))
            .collect::<Result<Vec<_>>>()?;
        let p = match join_key(&kv) {
            Some(key) => (fnv64(key.as_bytes()) as usize) % JOIN_PARTITIONS,
            None => idx % JOIN_PARTITIONS,
        };
        let mut tagged = Vec::with_capacity(row.len() + 1);
        tagged.push(Value::Int(idx as i64));
        tagged.extend(row);
        writers[p].push(&tagged)?;
    }
    let readers = writers.into_iter().map(SpillWriter::finish).collect::<Result<Vec<_>>>()?;
    guard.note_spill(readers.iter().map(SpillReader::bytes).sum());
    Ok(readers)
}

fn untag(mut row: Row) -> Result<(i64, Row)> {
    match row.first() {
        Some(Value::Int(_)) => {
            let Value::Int(idx) = row.remove(0) else { unreachable!() };
            Ok((idx, row))
        }
        _ => Err(Error::Internal("spill: row missing its index tag".into())),
    }
}

/// Grace hash join: both sides partitioned by join-key hash to spill
/// files, each partition built + probed under a per-partition memory
/// charge, output re-sorted by (probe index, build index) so the row
/// order is byte-identical to the in-memory join's.
#[allow(clippy::too_many_arguments)]
pub(crate) fn grace_hash_join(
    left: Vec<Row>,
    right: Vec<Row>,
    kind: JoinKind,
    left_keys: &[BoundExpr],
    right_keys: &[BoundExpr],
    residual: Option<&BoundExpr>,
    left_width: usize,
    right_width: usize,
    ctx: &EvalContext,
    guard: &ExecGuard,
    dir: &Path,
) -> Result<Vec<Row>> {
    let rparts = spill_side(right, right_keys, ctx, guard, dir)?;
    let lparts = spill_side(left, left_keys, ctx, guard, dir)?;
    guard.fault(FaultSite::JoinProbe)?;
    // (probe index, build index, row); left pads carry build index -1,
    // sorting before any real match of the same probe row — but a
    // padded probe row never *has* matches, so the slot is unambiguous.
    let mut tagged_out: Vec<(i64, i64, Row)> = Vec::new();
    let mut right_pads: Vec<(i64, Row)> = Vec::new();
    for (mut rpart, mut lpart) in rparts.into_iter().zip(lparts) {
        let mut build: Vec<(i64, Row)> = Vec::new();
        while let Some(row) = rpart.next_row()? {
            guard.tick(1)?;
            build.push(untag(row)?);
        }
        // One partition's build side is the working set; released below.
        let bytes: usize = build.iter().map(|(_, r)| values_bytes(r)).sum();
        guard.charge(bytes)?;
        let mut table: HashMap<String, Vec<usize>> = HashMap::new();
        for (slot, (_, rrow)) in build.iter().enumerate() {
            guard.tick(1)?;
            let kv = right_keys
                .iter()
                .map(|k| k.eval(rrow, ctx))
                .collect::<Result<Vec<_>>>()?;
            if let Some(key) = join_key(&kv) {
                table.entry(key).or_default().push(slot);
            }
        }
        let mut right_matched = vec![false; build.len()];
        while let Some(row) = lpart.next_row()? {
            guard.tick(1)?;
            let (li, lrow) = untag(row)?;
            let kv = left_keys
                .iter()
                .map(|k| k.eval(&lrow, ctx))
                .collect::<Result<Vec<_>>>()?;
            let mut matched = false;
            if let Some(key) = join_key(&kv) {
                if let Some(candidates) = table.get(&key) {
                    for &slot in candidates {
                        guard.tick(1)?;
                        let (ri, rrow) = &build[slot];
                        let mut combined = lrow.clone();
                        combined.extend(rrow.iter().cloned());
                        let ok = match residual {
                            None => true,
                            Some(pred) => eval_predicate(pred, &combined, ctx)?,
                        };
                        if ok {
                            matched = true;
                            right_matched[slot] = true;
                            tagged_out.push((li, *ri, combined));
                        }
                    }
                }
            }
            if !matched && matches!(kind, JoinKind::Left | JoinKind::Full) {
                let mut padded = lrow;
                padded.extend(null_row(right_width));
                tagged_out.push((li, -1, padded));
            }
        }
        if matches!(kind, JoinKind::Right | JoinKind::Full) {
            for (slot, (ri, rrow)) in build.iter().enumerate() {
                if !right_matched[slot] {
                    let mut padded = null_row(left_width);
                    padded.extend(rrow.iter().cloned());
                    right_pads.push((*ri, padded));
                }
            }
        }
        guard.memory().release(bytes);
    }
    // Matched rows (and inline left pads) in probe order, candidates in
    // build order — exactly the in-memory loop's emission order.
    tagged_out.sort_by_key(|t| (t.0, t.1));
    let mut out: Vec<Row> = tagged_out.into_iter().map(|(_, _, r)| r).collect();
    if matches!(kind, JoinKind::Right | JoinKind::Full) {
        right_pads.sort_by_key(|(ri, _)| *ri);
        out.extend(right_pads.into_iter().map(|(_, r)| r));
    }
    Ok(out)
}

/// External merge sort. `first` is the decoration built before the
/// budget ran out (`charged` bytes of it are on the budget); `rest` is
/// the undecorated remainder of the input. Sorted runs go to spill
/// files; the k-way merge breaks ties by run index, reproducing the
/// stable in-memory sort exactly.
pub(crate) fn external_sort(
    first: Vec<(Vec<Value>, Row)>,
    charged: usize,
    rest: impl Iterator<Item = Row>,
    keys: &[SortKey],
    ctx: &EvalContext,
    guard: &ExecGuard,
    dir: &Path,
) -> Result<Vec<Row>> {
    let key_len = keys.len();
    let mut runs: Vec<SpillReader> = Vec::new();
    let mut spilled = 0u64;

    let flush_run = |run: &mut Vec<(Vec<Value>, Row)>,
                     run_charged: &mut usize,
                     runs: &mut Vec<SpillReader>,
                     spilled: &mut u64|
     -> Result<()> {
        if run.is_empty() {
            return Ok(());
        }
        run.sort_by(|a, b| sort_cmp(keys, &a.0, &b.0)); // stable within run
        let mut w = SpillWriter::create(dir)?;
        let mut record = Vec::new();
        for (kv, row) in run.drain(..) {
            guard.tick(1)?;
            record.clear();
            record.extend(kv);
            record.extend(row);
            w.push(&record)?;
        }
        let r = w.finish()?;
        *spilled += r.bytes();
        runs.push(r);
        guard.memory().release(*run_charged);
        *run_charged = 0;
        Ok(())
    };

    // Run 0: everything decorated before the overflow.
    let mut run = first;
    let mut run_charged = charged;
    // Subsequent runs: decorate + charge in batches; a failing batch
    // charge closes the current run and retries (a retry that still
    // fails is genuine exhaustion — one batch can't fit).
    let mut batch: Vec<(Vec<Value>, Row)> = Vec::with_capacity(CHARGE_BATCH);
    let mut batch_bytes = 0usize;
    for row in rest {
        guard.tick(1)?;
        let kv = keys
            .iter()
            .map(|k| k.expr.eval(&row, ctx))
            .collect::<Result<Vec<_>>>()?;
        batch_bytes += values_bytes(&kv);
        batch.push((kv, row));
        if batch.len() >= CHARGE_BATCH {
            if guard.charge(batch_bytes).is_err() {
                guard.memory().release(batch_bytes);
                flush_run(&mut run, &mut run_charged, &mut runs, &mut spilled)?;
                guard.charge(batch_bytes)?;
            }
            run_charged += batch_bytes;
            run.append(&mut batch);
            batch_bytes = 0;
        }
    }
    if !batch.is_empty() {
        if guard.charge(batch_bytes).is_err() {
            guard.memory().release(batch_bytes);
            flush_run(&mut run, &mut run_charged, &mut runs, &mut spilled)?;
            guard.charge(batch_bytes)?;
        }
        run_charged += batch_bytes;
        run.append(&mut batch);
    }
    flush_run(&mut run, &mut run_charged, &mut runs, &mut spilled)?;
    guard.note_spill(spilled);

    // K-way merge, one buffered frame per run. Ties keep the lowest run
    // index: runs partition the input in order, and each run is stable,
    // so this reproduces the stable sort's order for equal keys.
    let mut heads: Vec<Option<(Vec<Value>, Row)>> = Vec::with_capacity(runs.len());
    for run in &mut runs {
        heads.push(match run.next_row()? {
            Some(mut rec) => {
                let row = rec.split_off(key_len);
                Some((rec, row))
            }
            None => None,
        });
    }
    let mut out = Vec::new();
    loop {
        let mut best: Option<usize> = None;
        for i in 0..heads.len() {
            if heads[i].is_none() {
                continue;
            }
            best = match best {
                None => Some(i),
                Some(b) => {
                    let ka = &heads[i].as_ref().expect("checked").0;
                    let kb = &heads[b].as_ref().expect("some").0;
                    if sort_cmp(keys, ka, kb) == Ordering::Less {
                        Some(i)
                    } else {
                        Some(b)
                    }
                }
            };
        }
        let Some(b) = best else { break };
        guard.tick(1)?;
        let (_, row) = heads[b].take().expect("selected head");
        out.push(row);
        heads[b] = match runs[b].next_row()? {
            Some(mut rec) => {
                let row = rec.split_off(key_len);
                Some((rec, row))
            }
            None => None,
        };
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn values() -> Vec<Value> {
        vec![
            Value::Null,
            Value::Bool(false),
            Value::Bool(true),
            Value::Int(-5),
            Value::Int(i64::MAX),
            Value::Float(f64::NEG_INFINITY),
            Value::Float(-0.0),
            Value::Float(0.0),
            Value::Float(f64::NAN),
            Value::Date(-3000),
            Value::Date(20000),
            Value::Text(String::new()),
            Value::Text("aardvark".into()),
            Value::Text("z".repeat(300)),
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
    fn a_spill_file_reads_back_its_rows_in_order_and_leaves_no_entry() {
        let dir = std::env::temp_dir().join(format!("sqlshare-spill-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut w = SpillWriter::create(&dir).unwrap();
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0, "the file is unlinked at once");
        let rows: Vec<Row> = (0..2 * CHARGE_BATCH as i64 + 7)
            .map(|i| vec![Value::Int(i), Value::Text(format!("row-{i}")), values()[i as usize % 14].clone()])
            .collect();
        for row in &rows {
            w.push(row).unwrap();
        }
        let mut r = w.finish().unwrap();
        assert!(r.bytes() > 0);
        let mut back = Vec::new();
        while let Some(row) = r.next_row().unwrap() {
            back.push(row);
        }
        assert_eq!(format!("{back:?}"), format!("{rows:?}"));
        std::fs::remove_dir(&dir).unwrap();
    }
}
