//! The executor: materialized, recursive evaluation of physical plans.
//!
//! SQLShare datasets are modest ("The SQLShare system is not intended for
//! large datasets; ... 143 GB total", §4 — and per-table sizes are small),
//! so a materialized executor is the right tradeoff: every operator
//! consumes and produces `Vec<Row>`.
//!
//! This row interpreter (`Engine::set_vectorized(false)`) is the oracle
//! the batch engine is held to, so it shares no execution code with it:
//! it is wholly serial — `Parallelism` exchanges are pass-throughs at any
//! DOP — and evaluates every expression per row through
//! `BoundExpr::eval`. The batch engine borrows from here, never the
//! reverse.

use crate::aggregate::Accumulator;
use crate::catalog::Catalog;
use crate::expr::{eval_predicate, BoundExpr};
use crate::faults::{FaultPlan, FaultSite};
use crate::functions::EvalContext;
use crate::logical::SortKey;
use crate::memory::{values_bytes, MemoryBudget};
use crate::physical::{PhysOp, PhysicalPlan};
use crate::table::cmp_rows;
use crate::value::{Row, Value};
use crate::window::compute_windows;
use sqlshare_common::{CancellationToken, Error, Result};
use sqlshare_sql::ast::{JoinKind, SetOp};
use std::cell::Cell;
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::Arc;

/// Rows processed between cancellation checks. Checking is a single
/// atomic load, so the interval mostly bounds how stale the check can
/// get, not its cost.
const CHECK_INTERVAL: u64 = 1024;

/// Per-run cancellation guard threaded through the executor.
///
/// Operators call [`ExecGuard::tick`] with the number of rows they just
/// touched; every ~[`CHECK_INTERVAL`] rows the guard polls the
/// [`CancellationToken`] and unwinds with the token's error
/// ([`Error::Timeout`] or [`Error::Cancelled`]) if it has tripped. A
/// guard without a token never checks and costs one branch per tick.
///
/// The guard is created per `Engine::run` call and lives on the running
/// thread only (interior mutability via [`Cell`], deliberately not
/// `Sync`), so the engine itself stays shareable across threads.
#[derive(Debug)]
pub struct ExecGuard {
    token: Option<CancellationToken>,
    until_check: Cell<u64>,
    /// Per-query memory budget charged by buffer-building operators.
    /// Shared (`Arc`) across worker forks so a parallel region's
    /// allocations all land on the owning query.
    mem: Arc<MemoryBudget>,
    /// Fault-injection schedule; `None` (the default) costs one branch
    /// per site.
    faults: Option<Arc<FaultPlan>>,
    /// Directory over-budget joins and sorts spill to. `None` (the
    /// default) makes them fail with [`Error::ResourceExhausted`].
    spill_dir: Option<Arc<Path>>,
    /// Bytes this query's operators spilled; shared across forks so the
    /// query log sees one total.
    spill: Arc<AtomicU64>,
}

impl Default for ExecGuard {
    fn default() -> Self {
        ExecGuard {
            token: None,
            until_check: Cell::new(CHECK_INTERVAL),
            mem: Arc::new(MemoryBudget::unlimited()),
            faults: None,
            spill_dir: None,
            spill: Arc::new(AtomicU64::new(0)),
        }
    }
}

/// The CPUs the calling thread may run on: its affinity mask, capped by
/// a cgroup CPU quota. Re-reads the cgroup files on every call, so the
/// engine measures it once, as its default DOP.
pub fn hardware_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

impl ExecGuard {
    /// Guard that polls `token` as execution proceeds.
    pub fn new(token: CancellationToken) -> Self {
        ExecGuard {
            token: Some(token),
            ..ExecGuard::default()
        }
    }

    /// Guard that never cancels (synchronous / plan-time execution).
    pub fn unbounded() -> Self {
        ExecGuard::default()
    }

    /// Attach a per-query memory budget. Operators that build buffers
    /// charge it and unwind with [`Error::ResourceExhausted`] past the
    /// limit.
    pub fn with_memory(mut self, mem: Arc<MemoryBudget>) -> Self {
        self.mem = mem;
        self
    }

    /// Attach a fault-injection schedule (chaos testing).
    pub fn with_faults(mut self, faults: Option<Arc<FaultPlan>>) -> Self {
        self.faults = faults;
        self
    }

    /// Enable operator spill into `dir`: an over-budget hash-join build
    /// or sort decoration writes partitions / runs to files there and
    /// merges them back instead of failing.
    pub fn with_spill_dir(mut self, dir: Option<Arc<Path>>) -> Self {
        self.spill_dir = dir;
        self
    }

    /// Where an operator whose memory charge failed with `err` may
    /// spill instead: the spill directory, when there is one and `err`
    /// is the budget running out.
    pub(crate) fn spill_to(&self, err: &Error) -> Option<&Path> {
        match err {
            Error::ResourceExhausted(_) => self.spill_dir(),
            _ => None,
        }
    }

    /// Where operators spill, if they may.
    pub(crate) fn spill_dir(&self) -> Option<&Path> {
        self.spill_dir.as_deref()
    }

    /// Bytes spilled so far by this query (all forks).
    pub fn spill_bytes(&self) -> u64 {
        self.spill.load(AtomicOrdering::Relaxed)
    }

    /// Record `bytes` of operator spill.
    pub fn note_spill(&self, bytes: u64) {
        self.spill.fetch_add(bytes, AtomicOrdering::Relaxed);
    }

    /// The memory budget this execution charges.
    pub fn memory(&self) -> &Arc<MemoryBudget> {
        &self.mem
    }

    /// Charge `bytes` of operator-buffer allocation to the query.
    #[inline]
    pub fn charge(&self, bytes: usize) -> Result<()> {
        self.mem.charge(bytes)
    }

    /// Fault-injection checkpoint: no-op without a plan, possibly an
    /// injected error/panic/delay with one. Every call site sits under a
    /// `catch_unwind` containment barrier (engine serial path, morsel
    /// workers, scheduler job wrapper).
    #[inline]
    pub fn fault(&self, site: FaultSite) -> Result<()> {
        match &self.faults {
            Some(plan) => plan.check(site),
            None => Ok(()),
        }
    }

    /// A fresh guard observing the same token, for a parallel worker
    /// thread. The guard itself is deliberately not `Sync` (interior
    /// mutability via [`Cell`]), so each worker forks its own; all forks
    /// share the underlying [`CancellationToken`], so one `cancel()`
    /// lands in every worker.
    pub fn fork(&self) -> ExecGuard {
        ExecGuard {
            token: self.token.clone(),
            until_check: Cell::new(CHECK_INTERVAL),
            mem: Arc::clone(&self.mem),
            faults: self.faults.clone(),
            spill_dir: self.spill_dir.clone(),
            spill: Arc::clone(&self.spill),
        }
    }

    /// Record `rows` units of work; errors if the token has tripped.
    #[inline]
    pub fn tick(&self, rows: u64) -> Result<()> {
        let Some(token) = &self.token else {
            return Ok(());
        };
        let left = self.until_check.get();
        if rows < left {
            self.until_check.set(left - rows);
            return Ok(());
        }
        self.until_check.set(CHECK_INTERVAL);
        if token.is_cancelled() {
            Err(token.to_error())
        } else {
            Ok(())
        }
    }
}

/// Execute a physical plan to completion.
pub fn execute(
    plan: &PhysicalPlan,
    catalog: &Catalog,
    ctx: &EvalContext,
    guard: &ExecGuard,
) -> Result<Vec<Row>> {
    match &plan.op {
        PhysOp::ConstantScan => Ok(vec![Vec::new()]),
        PhysOp::Scan { table, head } => {
            guard.fault(FaultSite::Scan)?;
            let t = catalog.table(table)?;
            let rows = match head {
                Some(n) => t.head(usize::try_from(*n).unwrap_or(usize::MAX)),
                None => t.batch(),
            }
            .to_rows();
            guard.tick(rows.len() as u64)?;
            Ok(rows)
        }
        PhysOp::CachedScan { batch, .. } => {
            guard.tick(batch.len as u64)?;
            Ok(batch.to_rows())
        }
        PhysOp::Seek {
            table,
            lower,
            upper,
            residual,
        } => {
            guard.fault(FaultSite::Scan)?;
            let t = catalog.table(table)?;
            let hits = t.seek(as_ref_bound(lower), as_ref_bound(upper)).to_rows();
            guard.tick(hits.len() as u64)?;
            match residual {
                None => Ok(hits),
                Some(pred) => {
                    let mut out = Vec::new();
                    for row in hits {
                        if eval_predicate(pred, &row, ctx)? {
                            out.push(row);
                        }
                    }
                    Ok(out)
                }
            }
        }
        PhysOp::Filter { predicate } => {
            let input = execute(data_child(plan)?, catalog, ctx, guard)?;
            let mut out = Vec::with_capacity(input.len() / 2);
            for row in input {
                guard.tick(1)?;
                if eval_predicate(predicate, &row, ctx)? {
                    out.push(row);
                }
            }
            Ok(out)
        }
        PhysOp::Compute { exprs } => {
            let input = execute(data_child(plan)?, catalog, ctx, guard)?;
            let mut out = Vec::with_capacity(input.len());
            for row in input {
                guard.tick(1)?;
                let mut new_row = Vec::with_capacity(exprs.len());
                for e in exprs {
                    new_row.push(e.eval(&row, ctx)?);
                }
                out.push(new_row);
            }
            Ok(out)
        }
        PhysOp::NestedLoops {
            kind,
            on,
            left_width,
            right_width,
        } => {
            let (l, r) = two_children(plan, catalog, ctx, guard)?;
            nested_loops(
                l,
                r,
                *kind,
                on.as_ref(),
                *left_width,
                *right_width,
                ctx,
                guard,
            )
        }
        PhysOp::HashJoin {
            kind,
            left_keys,
            right_keys,
            residual,
            left_width,
            right_width,
        } => {
            let (l, r) = two_children(plan, catalog, ctx, guard)?;
            hash_join(
                l,
                r,
                *kind,
                left_keys,
                right_keys,
                residual.as_ref(),
                *left_width,
                *right_width,
                ctx,
                guard,
            )
        }
        PhysOp::MergeJoin {
            left_keys,
            right_keys,
            residual,
        } => {
            // Executed as an inner hash join; the operator *name* is what
            // matters for plan statistics, the result is identical.
            let (l, r) = two_children(plan, catalog, ctx, guard)?;
            let lw = l.first().map(Row::len).unwrap_or(0);
            let rw = r.first().map(Row::len).unwrap_or(0);
            hash_join(
                l,
                r,
                JoinKind::Inner,
                left_keys,
                right_keys,
                residual.as_ref(),
                lw,
                rw,
                ctx,
                guard,
            )
        }
        PhysOp::Aggregate { group, aggs, .. } => {
            let input = execute(data_child(plan)?, catalog, ctx, guard)?;
            aggregate(input, group, aggs, ctx, guard)
        }
        PhysOp::Sort { keys } => {
            let input = execute(data_child(plan)?, catalog, ctx, guard)?;
            sort_rows(input, keys, ctx, guard)
        }
        PhysOp::Top { quantity, percent } => {
            let mut input = execute(data_child(plan)?, catalog, ctx, guard)?;
            let n = if *percent {
                ((input.len() as f64) * (*quantity as f64) / 100.0).ceil() as usize
            } else {
                *quantity as usize
            };
            input.truncate(n);
            Ok(input)
        }
        PhysOp::DistinctSort => {
            let mut input = execute(data_child(plan)?, catalog, ctx, guard)?;
            guard.tick(input.len() as u64)?;
            input.sort_by(cmp_rows);
            input.dedup_by(|a, b| cmp_rows(a, b).is_eq());
            Ok(input)
        }
        PhysOp::Concatenation => {
            let (mut l, r) = two_children(plan, catalog, ctx, guard)?;
            l.extend(r);
            Ok(l)
        }
        PhysOp::HashSetOp { op } => {
            let (l, r) = two_children(plan, catalog, ctx, guard)?;
            hash_set_op(l, r, *op)
        }
        // Exchanges say how the batch engine spreads a region over
        // workers; the row interpreter runs every plan serially.
        PhysOp::Gather { .. } | PhysOp::Repartition { .. } | PhysOp::Segment => {
            execute(data_child(plan)?, catalog, ctx, guard)
        }
        PhysOp::SequenceProject { calls } => {
            let input = execute(data_child(plan)?, catalog, ctx, guard)?;
            guard.tick(input.len() as u64)?;
            compute_windows(input, calls, ctx)
        }
    }
}

/// The first child is always the data input; extra children are
/// materialized-subquery plans kept for EXPLAIN only.
pub(crate) fn data_child(plan: &PhysicalPlan) -> Result<&PhysicalPlan> {
    plan.children
        .first()
        .ok_or_else(|| Error::Execution("internal: operator missing input".into()))
}

fn two_children(
    plan: &PhysicalPlan,
    catalog: &Catalog,
    ctx: &EvalContext,
    guard: &ExecGuard,
) -> Result<(Vec<Row>, Vec<Row>)> {
    if plan.children.len() < 2 {
        return Err(Error::Execution(
            "internal: binary operator missing inputs".into(),
        ));
    }
    let l = execute(&plan.children[0], catalog, ctx, guard)?;
    let r = execute(&plan.children[1], catalog, ctx, guard)?;
    Ok((l, r))
}

pub(crate) fn as_ref_bound(b: &std::ops::Bound<Value>) -> std::ops::Bound<&Value> {
    match b {
        std::ops::Bound::Included(v) => std::ops::Bound::Included(v),
        std::ops::Bound::Excluded(v) => std::ops::Bound::Excluded(v),
        std::ops::Bound::Unbounded => std::ops::Bound::Unbounded,
    }
}

pub(crate) fn null_row(width: usize) -> Row {
    vec![Value::Null; width]
}

pub(crate) fn hash_set_op(l: Vec<Row>, r: Vec<Row>, op: SetOp) -> Result<Vec<Row>> {
    let mut right_set: Vec<Row> = r;
    right_set.sort_by(cmp_rows);
    let contains = |row: &Row| {
        right_set
            .binary_search_by(|probe| cmp_rows(probe, row))
            .is_ok()
    };
    let mut left: Vec<Row> = l;
    left.sort_by(cmp_rows);
    left.dedup_by(|a, b| cmp_rows(a, b).is_eq());
    Ok(match op {
        SetOp::Intersect => left.into_iter().filter(|r| contains(r)).collect(),
        SetOp::Except => left.into_iter().filter(|r| !contains(r)).collect(),
        SetOp::Union => unreachable!("UNION is planned as Concatenation"),
    })
}

#[allow(clippy::too_many_arguments)]
pub(crate) fn nested_loops(
    left: Vec<Row>,
    right: Vec<Row>,
    kind: JoinKind,
    on: Option<&BoundExpr>,
    left_width: usize,
    right_width: usize,
    ctx: &EvalContext,
    guard: &ExecGuard,
) -> Result<Vec<Row>> {
    // The output can be the product of the inputs: it is charged a
    // batch of rows at a time as it grows.
    let mut out = ChargedRows::new(guard);
    let mut right_matched = vec![false; right.len()];
    for lrow in &left {
        let mut matched = false;
        for (ri, rrow) in right.iter().enumerate() {
            guard.tick(1)?;
            let mut combined = lrow.clone();
            combined.extend(rrow.iter().cloned());
            let ok = match on {
                None => true,
                Some(p) => eval_predicate(p, &combined, ctx)?,
            };
            if ok {
                matched = true;
                right_matched[ri] = true;
                out.push(combined)?;
            }
        }
        if !matched && matches!(kind, JoinKind::Left | JoinKind::Full) {
            let mut padded = lrow.clone();
            padded.extend(null_row(right_width));
            out.push(padded)?;
        }
    }
    if matches!(kind, JoinKind::Right | JoinKind::Full) {
        for (ri, rrow) in right.iter().enumerate() {
            if !right_matched[ri] {
                let mut padded = null_row(left_width);
                padded.extend(rrow.iter().cloned());
                out.push(padded)?;
            }
        }
    }
    out.finish()
}

/// Rows an operator builds, charged to the query's budget once per
/// [`crate::spill::CHARGE_BATCH`] rows and for the rest at the end.
struct ChargedRows<'g> {
    guard: &'g ExecGuard,
    rows: Vec<Row>,
    uncharged: usize,
}

impl<'g> ChargedRows<'g> {
    fn new(guard: &'g ExecGuard) -> Self {
        ChargedRows {
            guard,
            rows: Vec::new(),
            uncharged: 0,
        }
    }

    fn push(&mut self, row: Row) -> Result<()> {
        self.uncharged += values_bytes(&row);
        self.rows.push(row);
        if self.rows.len().is_multiple_of(crate::spill::CHARGE_BATCH) {
            self.guard.charge(std::mem::take(&mut self.uncharged))?;
        }
        Ok(())
    }

    fn finish(self) -> Result<Vec<Row>> {
        self.guard.charge(self.uncharged)?;
        Ok(self.rows)
    }
}

/// Grouping key for hash joins: text-normalized so `Int(1)` and
/// `Float(1.0)` hash identically (they compare equal under `sql_eq`).
pub(crate) fn join_key(values: &[Value]) -> Option<String> {
    let mut key = String::new();
    for v in values {
        match v {
            Value::Null => return None, // NULL keys never join
            Value::Int(i) => key.push_str(&format!("n{}", *i as f64)),
            Value::Float(f) => key.push_str(&format!("n{f}")),
            Value::Bool(b) => key.push_str(if *b { "b1" } else { "b0" }),
            Value::Date(d) => key.push_str(&format!("d{d}")),
            Value::Text(s) => {
                key.push('t');
                key.push_str(s);
            }
        }
        key.push('\u{1}');
    }
    Some(key)
}

#[allow(clippy::too_many_arguments)]
pub(crate) fn hash_join(
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
) -> Result<Vec<Row>> {
    guard.fault(FaultSite::JoinBuild)?;
    // The build table holds the whole right side for the probe's
    // lifetime — the allocation the memory governor most wants to see.
    // When it doesn't fit and the query may spill, fall back to a Grace
    // hash join: partition both sides to spill files and join partition
    // by partition (byte-identical output order).
    let build_bytes: usize = right.iter().map(|r| values_bytes(r)).sum();
    if let Err(e) = guard.charge(build_bytes) {
        let Some(dir) = guard.spill_to(&e) else {
            return Err(e);
        };
        // The failed charge was still recorded (add-before-check);
        // refund it — the spill path charges per partition instead.
        guard.memory().release(build_bytes);
        return crate::spill::grace_hash_join(
            left, right, kind, left_keys, right_keys, residual, left_width, right_width,
            ctx, guard, dir,
        );
    }
    let mut table: HashMap<String, Vec<usize>> = HashMap::new();
    for (ri, rrow) in right.iter().enumerate() {
        guard.tick(1)?;
        let keys = right_keys
            .iter()
            .map(|k| k.eval(rrow, ctx))
            .collect::<Result<Vec<_>>>()?;
        if let Some(key) = join_key(&keys) {
            table.entry(key).or_default().push(ri);
        }
    }
    guard.fault(FaultSite::JoinProbe)?;
    let mut out = Vec::new();
    let mut right_matched = vec![false; right.len()];
    for lrow in &left {
        guard.tick(1)?;
        let keys = left_keys
            .iter()
            .map(|k| k.eval(lrow, ctx))
            .collect::<Result<Vec<_>>>()?;
        let mut matched = false;
        if let Some(key) = join_key(&keys) {
            if let Some(candidates) = table.get(&key) {
                for &ri in candidates {
                    guard.tick(1)?;
                    let mut combined = lrow.clone();
                    combined.extend(right[ri].iter().cloned());
                    let ok = match residual {
                        None => true,
                        Some(p) => eval_predicate(p, &combined, ctx)?,
                    };
                    if ok {
                        matched = true;
                        right_matched[ri] = true;
                        out.push(combined);
                    }
                }
            }
        }
        if !matched && matches!(kind, JoinKind::Left | JoinKind::Full) {
            let mut padded = lrow.clone();
            padded.extend(null_row(right_width));
            out.push(padded);
        }
    }
    if matches!(kind, JoinKind::Right | JoinKind::Full) {
        for (ri, rrow) in right.iter().enumerate() {
            if !right_matched[ri] {
                let mut padded = null_row(left_width);
                padded.extend(rrow.iter().cloned());
                out.push(padded);
            }
        }
    }
    Ok(out)
}

pub(crate) fn aggregate(
    input: Vec<Row>,
    group: &[BoundExpr],
    aggs: &[crate::aggregate::AggCall],
    ctx: &EvalContext,
    guard: &ExecGuard,
) -> Result<Vec<Row>> {
    if group.is_empty() {
        // Scalar aggregate: exactly one output row, even on empty input.
        let mut accs: Vec<Accumulator> = aggs
            .iter()
            .map(|a| Accumulator::new(a.func, a.distinct))
            .collect();
        for row in &input {
            guard.tick(1)?;
            feed(&mut accs, aggs, row, ctx)?;
        }
        return Ok(vec![accs.iter().map(Accumulator::finish).collect::<Result<_>>()?]);
    }
    // Keyed grouping: evaluate keys, sort by them, aggregate runs.
    guard.fault(FaultSite::AggMerge)?;
    let mut keyed: Vec<(Vec<Value>, Row)> = Vec::with_capacity(input.len());
    let mut key_bytes = 0usize;
    for row in input {
        guard.tick(1)?;
        let key = group
            .iter()
            .map(|g| g.eval(&row, ctx))
            .collect::<Result<Vec<_>>>()?;
        key_bytes += values_bytes(&key);
        keyed.push((key, row));
    }
    // Aggregation state: the key decoration doubles the grouped columns
    // (the rows themselves were charged by whoever built them).
    guard.charge(key_bytes)?;
    keyed.sort_by(|a, b| cmp_rows(&a.0, &b.0));
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < keyed.len() {
        let mut j = i + 1;
        while j < keyed.len() && cmp_rows(&keyed[j].0, &keyed[i].0).is_eq() {
            j += 1;
        }
        let mut accs: Vec<Accumulator> = aggs
            .iter()
            .map(|a| Accumulator::new(a.func, a.distinct))
            .collect();
        for (_, row) in &keyed[i..j] {
            feed(&mut accs, aggs, row, ctx)?;
        }
        let mut out_row = keyed[i].0.clone();
        for acc in &accs {
            out_row.push(acc.finish()?);
        }
        out.push(out_row);
        i = j;
    }
    Ok(out)
}

pub(crate) fn feed(
    accs: &mut [Accumulator],
    aggs: &[crate::aggregate::AggCall],
    row: &Row,
    ctx: &EvalContext,
) -> Result<()> {
    for (acc, call) in accs.iter_mut().zip(aggs) {
        let v = match &call.arg {
            Some(e) => e.eval(row, ctx)?,
            None => Value::Int(1), // COUNT(*)
        };
        acc.push(&v)?;
    }
    Ok(())
}

pub(crate) fn sort_rows(
    input: Vec<Row>,
    keys: &[SortKey],
    ctx: &EvalContext,
    guard: &ExecGuard,
) -> Result<Vec<Row>> {
    // Precompute key vectors (decorate-sort-undecorate), charging the
    // decoration in batches so an over-budget sort is caught *while*
    // decorating — at which point, when the query may spill, the rows
    // decorated so far become the first run of an external merge sort
    // instead of a failure.
    let mut keyed: Vec<(Vec<Value>, Row)> = Vec::with_capacity(input.len());
    let mut charged = 0usize;
    let mut batch_bytes = 0usize;
    let mut uncharged = 0usize;
    let mut iter = input.into_iter();
    for row in iter.by_ref() {
        guard.tick(1)?;
        let kv = keys
            .iter()
            .map(|k| k.expr.eval(&row, ctx))
            .collect::<Result<Vec<_>>>()?;
        batch_bytes += values_bytes(&kv);
        uncharged += 1;
        keyed.push((kv, row));
        if uncharged >= crate::spill::CHARGE_BATCH {
            if let Err(e) = guard.charge(batch_bytes) {
                let Some(dir) = guard.spill_to(&e) else {
                    return Err(e);
                };
                guard.memory().release(batch_bytes);
                // Everything decorated so far (including this uncharged
                // batch) seeds the external sort; `charged` bytes of it
                // are on the budget and released run by run.
                return crate::spill::external_sort(keyed, charged, iter, keys, ctx, guard, dir);
            }
            charged += batch_bytes;
            batch_bytes = 0;
            uncharged = 0;
        }
    }
    if let Err(e) = guard.charge(batch_bytes) {
        let Some(dir) = guard.spill_to(&e) else {
            return Err(e);
        };
        guard.memory().release(batch_bytes);
        return crate::spill::external_sort(keyed, charged, iter, keys, ctx, guard, dir);
    }
    keyed.sort_by(|a, b| crate::spill::sort_cmp(keys, &a.0, &b.0));
    Ok(keyed.into_iter().map(|(_, r)| r).collect())
}
