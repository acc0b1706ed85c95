//! The batch pipeline: one driver for every chain of batch operators,
//! at every degree of parallelism.
//!
//! A *pipeline* is read off the plan from the node that tops it
//! ([`Pipeline::of`]): an optional Aggregate, then Filter and Compute
//! Scalar stages and at most one Hash Match or Merge Join, followed down
//! its probe input to a *source*. The source is a base-table access — a
//! Scan or a Seek's range, whose residual predicate becomes the first
//! Filter stage — or, below any other node, that
//! node's output batch. The stages are [`crate::vexec`]'s batch
//! operators over [`crate::hashtable`]; this module implements none of
//! them. It owns the order they run in, which columns each stage still
//! needs, and how the source is cut into morsels:
//!
//! * **DOP 1** — every serial batch plan: vexec hands each pipeline
//!   node here — runs the source as one morsel, in the order a serial
//!   evaluation meets the operators: the probe side before the join's
//!   build subtree, a Right/Full join's unmatched build rows appended
//!   inside the probe stage, a one-morsel aggregate's partial taken as
//!   the result. Rows and first errors are therefore the row oracle's.
//! * **Under a `Parallelism (Gather Streams)`** the join is built once,
//!   the source is cut into fixed-size *morsels* that workers claim off
//!   a shared atomic counter, and the gather merges the per-morsel
//!   outputs back into one stream *in morsel order* — so for everything
//!   but floating-point aggregates the parallel result is byte-identical
//!   to the serial one, not merely bag-equal.
//!
//! The optimizer places exchanges by the same shape
//! ([`Pipeline::parallelizable`], [`Pipeline::join_depth`]), so the
//! executor never meets a region it cannot run.
//!
//! Cancellation: each worker forks the caller's [`ExecGuard`] (the
//! guard is not `Sync`; the underlying token is shared), and a tripped
//! token aborts the morsel dispatch loop, so `cancel_query` lands
//! mid-join just as it does serially.

use crate::aggregate::AggCall;
use crate::catalog::Catalog;
use crate::exec::{self, as_ref_bound, ExecGuard};
use crate::expr::BoundExpr;
use crate::faults::FaultSite;
use crate::functions::EvalContext;
use crate::physical::{PhysOp, PhysicalPlan};
use crate::value::{DataType, Row};
use crate::vector::{batch_rows_bytes, Batch, NULL_ROW};
use crate::vexec::{self, GroupMerger, JoinBuild, JoinSpec};
use sqlshare_common::{Error, Result};
use sqlshare_sql::ast::JoinKind;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Rows per morsel. Small enough that a worker pool balances skewed
/// filters, large enough that the claim (one `fetch_add`) is noise.
pub const MORSEL_SIZE: usize = 1024;

/// Run the pipeline `plan` tops at `dop`: as one morsel on the caller's
/// thread at DOP 1, as morsels on up to `dop` workers under a Gather.
pub(crate) fn execute(
    plan: &PhysicalPlan,
    dop: usize,
    catalog: &Catalog,
    ctx: &EvalContext,
    guard: &ExecGuard,
) -> Result<Batch> {
    let pipeline = Pipeline::of(plan)?;
    let mut source = match pipeline.source {
        Source::Table(node) => table_source(node, catalog)?,
        Source::Node(node) => vexec::exec_node(node, catalog, ctx, guard)?,
    };
    let serial = dop <= 1;
    if serial {
        source = pipeline.slice_source(&source, 0..source.len, guard)?;
    }
    let Some((at, spec)) = pipeline.probe() else {
        return pipeline.drive(0, &source, None, dop, ctx, guard);
    };
    // Serially the probe side runs before the build subtree, as a join
    // evaluates its inputs; a parallel region builds first so that every
    // worker can probe.
    let lower = if serial {
        Some(pipeline.run(0..at, source.clone(), None, false, ctx, guard)?)
    } else {
        None
    };
    match (build_join(spec, catalog, ctx, guard)?, lower) {
        (Build::Hashed(join), Some(lower)) => pipeline.drive(at, &lower, Some(&join), dop, ctx, guard),
        (Build::Hashed(join), None) => pipeline.drive(0, &source, Some(&join), dop, ctx, guard),
        // Over budget with a spill directory: the pipeline is cut at the
        // join, which runs as a Grace hash join over the whole probe side.
        (Build::Spilled(right), lower) => {
            let left = match lower {
                Some(lower) => lower.to_rows(),
                None => run_morsels(source.len, dop, guard, |_, range, g| {
                    let morsel = pipeline.slice_source(&source, range, g)?;
                    Ok(pipeline.run(0..at, morsel, None, false, ctx, g)?.to_rows())
                })?
                .into_iter()
                .flatten()
                .collect(),
            };
            let dir = guard.spill_dir().expect("only a spill directory lets a build spill");
            let j = &spec.join;
            let joined = crate::spill::grace_hash_join(
                left,
                right,
                j.kind,
                j.left_keys,
                j.right_keys,
                j.residual,
                j.left_width,
                j.right_width,
                ctx,
                guard,
                dir,
            )?;
            pipeline.drive(at + 1, &Batch::from_rows(&joined, spec.types), None, dop, ctx, guard)
        }
    }
}

// ---------------------------------------------------------------------------
// Pipeline shape
// ---------------------------------------------------------------------------

/// One pipeline: a source plus the stages each morsel of it is pushed
/// through.
pub(crate) struct Pipeline<'a> {
    source: Source<'a>,
    /// Stages, bottom-up (source side first).
    ops: Vec<Op<'a>>,
    /// `live[i]`: the columns of the batch entering `ops[i]` that it or
    /// anything after it reads (`live[ops.len()]`: what the aggregate
    /// reads); `None` when the batch reaches the pipeline's output whole.
    /// A stage materializes only these for the next one.
    live: Vec<Option<Vec<usize>>>,
    /// Terminal aggregation: the result at DOP 1, per-morsel partials
    /// merged after the gather above it.
    agg: Option<AggSpec<'a>>,
    /// The output types of the node that tops the pipeline.
    types: &'a [DataType],
}

#[derive(Clone, Copy)]
enum Source<'a> {
    /// A base-table access (Scan, Seek): morsels are
    /// zero-copy slices of the table's batch.
    Table(&'a PhysicalPlan),
    /// Any other node: the stages read its output batch.
    Node(&'a PhysicalPlan),
}

enum Op<'a> {
    Filter(&'a BoundExpr),
    Compute(&'a [BoundExpr]),
    Probe(ProbeSpec<'a>),
}

struct ProbeSpec<'a> {
    /// Build-side subtree (below the `Repartition` marker), executed
    /// once before anything probes.
    build: &'a PhysicalPlan,
    join: JoinSpec<'a>,
    /// The join's output types: the probe side's, then the build side's.
    types: &'a [DataType],
}

struct AggSpec<'a> {
    group: &'a [BoundExpr],
    aggs: &'a [AggCall],
}

fn columns_of<'e>(exprs: impl IntoIterator<Item = &'e BoundExpr>) -> Vec<usize> {
    let mut idxs = Vec::new();
    for e in exprs {
        e.column_indexes(&mut idxs);
    }
    idxs
}

impl<'a> Pipeline<'a> {
    /// Read the pipeline `plan` tops off the plan: an optional Aggregate,
    /// then Filter / Compute Scalar stages and at most one Hash Match or
    /// Merge Join, down the probe input to the source. The one definition
    /// of a pipeline's shape: the executor runs it, the optimizer places
    /// exchanges by it.
    pub(crate) fn of(plan: &'a PhysicalPlan) -> Result<Self> {
        let mut node = plan;
        let agg = match &node.op {
            PhysOp::Aggregate { group, aggs, .. } => {
                node = exec::data_child(node)?;
                Some(AggSpec { group, aggs })
            }
            _ => None,
        };
        // Collected top-down.
        let mut ops: Vec<Op<'a>> = Vec::new();
        let mut joined = false;
        let source = loop {
            match &node.op {
                PhysOp::Filter { predicate } => ops.push(Op::Filter(predicate)),
                PhysOp::Compute { exprs } => ops.push(Op::Compute(exprs)),
                PhysOp::HashJoin {
                    kind,
                    left_keys,
                    right_keys,
                    residual,
                    left_width,
                    right_width,
                } if !joined => {
                    joined = true;
                    ops.push(Op::Probe(ProbeSpec {
                        build: build_child(node)?,
                        types: &node.types,
                        join: JoinSpec {
                            kind: *kind,
                            left_keys,
                            right_keys,
                            residual: residual.as_ref(),
                            left_width: *left_width,
                            right_width: *right_width,
                        },
                    }));
                }
                // A Merge Join runs as an inner hash join (the operator
                // name is what plan statistics need). Inner joins never
                // null-pad, so the widths are irrelevant.
                PhysOp::MergeJoin {
                    left_keys,
                    right_keys,
                    residual,
                } if !joined => {
                    joined = true;
                    ops.push(Op::Probe(ProbeSpec {
                        build: build_child(node)?,
                        types: &node.types,
                        join: JoinSpec {
                            kind: JoinKind::Inner,
                            left_keys,
                            right_keys,
                            residual: residual.as_ref(),
                            left_width: 0,
                            right_width: 0,
                        },
                    }));
                }
                // A row-bounded scan reads a prefix, not a table to cut
                // into morsels: it is a `Node` source below.
                PhysOp::Scan { head: None, .. } => break Source::Table(node),
                PhysOp::Seek { residual, .. } => {
                    ops.extend(residual.as_ref().map(Op::Filter));
                    break Source::Table(node);
                }
                _ => break Source::Node(node),
            }
            node = exec::data_child(node)?;
        };
        // Walk the stages top-down, carrying what is read above.
        let mut need = agg.as_ref().map(|a| {
            columns_of(a.group.iter().chain(a.aggs.iter().filter_map(|c| c.arg.as_ref())))
        });
        let mut live = vec![need.clone()];
        for op in &ops {
            need = match op {
                Op::Filter(p) => need.map(|mut n| {
                    p.column_indexes(&mut n);
                    n
                }),
                Op::Compute(exprs) => Some(columns_of(exprs.iter())),
                // The probe input is the left side of the combined row,
                // plus the probe keys. (A Merge Join carries no widths to
                // split the combined row by: keep everything.)
                Op::Probe(spec) if spec.join.left_width > 0 => need.map(|n| {
                    let mut n: Vec<usize> = n
                        .into_iter()
                        .chain(columns_of(spec.join.residual))
                        .filter(|&c| c < spec.join.left_width)
                        .collect();
                    n.extend(columns_of(spec.join.left_keys));
                    n
                }),
                Op::Probe(_) => None,
            };
            live.push(need.clone());
        }
        ops.reverse();
        live.reverse();
        Ok(Pipeline { source, ops, live, agg, types: &plan.types })
    }

    /// Whether a Gather over this pipeline is worth placing: it reads a
    /// base table and runs a stage over it. An exchange over a plain
    /// table copy is pure overhead.
    pub(crate) fn parallelizable(&self) -> bool {
        matches!(self.source, Source::Table(_)) && (self.agg.is_some() || !self.ops.is_empty())
    }

    /// First-child steps from the pipeline's top node to its join, if it
    /// has one.
    pub(crate) fn join_depth(&self) -> Option<usize> {
        // A table predicate's stage sits below the join and is no node.
        let (at, _) = self.probe()?;
        Some(usize::from(self.agg.is_some()) + self.ops.len() - 1 - at)
    }

    fn probe(&self) -> Option<(usize, &ProbeSpec<'a>)> {
        self.ops.iter().enumerate().find_map(|(i, op)| match op {
            Op::Probe(spec) => Some((i, spec)),
            _ => None,
        })
    }

    /// Rows `range` of `source`. A table morsel is also a scan
    /// checkpoint: chaos faults here land *inside* worker threads,
    /// exercising the catch_unwind barrier in `run_morsels`.
    fn slice_source(&self, source: &Batch, range: Range<usize>, guard: &ExecGuard) -> Result<Batch> {
        if matches!(self.source, Source::Table(_)) {
            guard.fault(FaultSite::Scan)?;
            guard.tick(range.len() as u64)?;
        }
        Ok(source.slice(range))
    }

    /// Push `batch` through `stages`.
    ///
    /// Each stage is a batch operator over the whole batch, so errors
    /// surface stage by stage — the order the row engine reports them in
    /// over the same rows — and row order is preserved throughout.
    /// `whole`: `batch` is the pipeline's entire input, so a Right/Full
    /// probe appends the build rows nothing matched.
    fn run(
        &self,
        stages: Range<usize>,
        mut batch: Batch,
        join: Option<&JoinBuild>,
        whole: bool,
        ctx: &EvalContext,
        guard: &ExecGuard,
    ) -> Result<Batch> {
        for i in stages {
            let live = self.live[i + 1].as_deref();
            batch = match &self.ops[i] {
                Op::Filter(p) => {
                    guard.tick(batch.len as u64)?;
                    filter(batch, p, live, ctx)?
                }
                Op::Compute(exprs) => {
                    guard.tick(batch.len as u64)?;
                    vexec::compute_batch(exprs, &batch, ctx)?
                }
                Op::Probe(spec) => {
                    let build = join.ok_or_else(|| {
                        Error::Execution("internal: probe without build".into())
                    })?;
                    guard.fault(FaultSite::JoinProbe)?;
                    let (mut lsel, mut rsel) = build.probe(&batch, &spec.join, ctx, guard)?;
                    if whole {
                        let tail = build.unmatched();
                        lsel.resize(lsel.len() + tail.len(), NULL_ROW);
                        rsel.extend(tail);
                    }
                    let width = batch.width() + build.batch.width();
                    let live = live.map(|l| vexec::live_mask(l, width));
                    vexec::combine(&batch, &build.batch, &lsel, &rsel, live.as_deref())
                }
            };
        }
        Ok(batch)
    }

    /// Run stages `from..` over `input` and finish: at DOP 1 one morsel
    /// whose output (or aggregate) is the result; above it morsels on up
    /// to `dop` workers, gathered in morsel order with a Right/Full
    /// join's unmatched build rows last. `from == 0` means `input` is the
    /// source, whose morsels are scan checkpoints above DOP 1 (at DOP 1
    /// the caller took the one checkpoint).
    fn drive(
        &self,
        from: usize,
        input: &Batch,
        join: Option<&JoinBuild>,
        dop: usize,
        ctx: &EvalContext,
        guard: &ExecGuard,
    ) -> Result<Batch> {
        let stages = from..self.ops.len();
        if dop <= 1 {
            let out = self.run(stages, input.clone(), join, true, ctx, guard)?;
            return match &self.agg {
                None => Ok(out),
                Some(agg) if agg.group.is_empty() => {
                    let accs = vexec::scalar_partial(&out, agg.aggs, ctx, guard)?;
                    vexec::emit_groups(Batch::new(Vec::new(), 1), &accs, self.types)
                }
                Some(agg) => vexec::group_batch(&out, agg.group, agg.aggs, ctx, guard)?.finish(self.types),
            };
        }
        let morsel = |range: Range<usize>, g: &ExecGuard| {
            let batch = if from == 0 {
                self.slice_source(input, range, g)?
            } else {
                input.slice(range)
            };
            self.run(stages.clone(), batch, join, false, ctx, g)
        };
        // The unmatched-build tail for Right/Full joins can only be read
        // once every probe morsel has run — the probes are what populate
        // the matched flags — so each branch reads it after
        // `run_morsels` returns, never before.
        match &self.agg {
            None => {
                // Morsel materialization: once a stage builds new rows,
                // the morsel's output is held until the gather drains it.
                let builds = self.ops[from..].iter().any(|op| !matches!(op, Op::Filter(_)));
                let mut chunks = run_morsels(input.len, dop, guard, |_, range, g| {
                    let out = morsel(range, g)?;
                    if builds {
                        g.charge(batch_rows_bytes(&out))?;
                    }
                    Ok(out)
                })?;
                chunks.extend(self.tail(join, ctx, guard)?);
                Ok(Batch::concat(&chunks, self.types))
            }
            Some(agg) if agg.group.is_empty() => {
                // Scalar aggregate: one partial per morsel, merged in
                // morsel order; always exactly one output row, even on
                // empty input.
                let mut partials = run_morsels(input.len, dop, guard, |_, range, g| {
                    vexec::scalar_partial(&morsel(range, g)?, agg.aggs, ctx, g)
                })?;
                if let Some(tail) = self.tail(join, ctx, guard)? {
                    partials.push(vexec::scalar_partial(&tail, agg.aggs, ctx, guard)?);
                }
                let mut accs = vexec::new_accs(agg.aggs);
                for partial in &partials {
                    for (acc, p) in accs.iter_mut().zip(partial) {
                        acc.merge(p)?;
                    }
                }
                vexec::emit_groups(Batch::new(Vec::new(), 1), &accs, self.types)
            }
            Some(agg) => {
                let partials = run_morsels(input.len, dop, guard, |_, range, g| {
                    vexec::group_batch(&morsel(range, g)?, agg.group, agg.aggs, ctx, g)
                })?;
                let mut merger = GroupMerger::new(agg.group.len(), agg.aggs.len());
                for partial in partials {
                    merger.push(partial)?;
                }
                if let Some(tail) = self.tail(join, ctx, guard)? {
                    merger.push(vexec::group_batch(&tail, agg.group, agg.aggs, ctx, guard)?)?;
                }
                merger.finish(self.types)
            }
        }
    }

    /// Unmatched build rows of a Right/Full join after a parallel probe,
    /// null-padded on the probe side and pushed through the stages above
    /// the join; appended after the gathered streams, exactly where the
    /// serial executor emits them. `None` when there are none.
    fn tail(
        &self,
        join: Option<&JoinBuild>,
        ctx: &EvalContext,
        guard: &ExecGuard,
    ) -> Result<Option<Batch>> {
        let Some(build) = join else { return Ok(None) };
        let rsel = build.unmatched();
        if rsel.is_empty() {
            return Ok(None);
        }
        let (at, spec) = self.probe().expect("a build implies a probe stage");
        guard.tick(rsel.len() as u64)?;
        let left = Batch::from_rows(&[], &spec.types[..spec.join.left_width]);
        let padded = vexec::combine(&left, &build.batch, &vec![NULL_ROW; rsel.len()], &rsel, None);
        self.run(at + 1..self.ops.len(), padded, None, false, ctx, guard).map(Some)
    }
}

/// Keep the rows of `batch` passing `pred`, materializing only the
/// `live` columns (a filter that keeps everything copies nothing).
fn filter(
    batch: Batch,
    pred: &BoundExpr,
    live: Option<&[usize]>,
    ctx: &EvalContext,
) -> Result<Batch> {
    let sel = vexec::eval_filter(pred, &batch, ctx)?;
    if sel.len() == batch.len {
        return Ok(batch);
    }
    let live = live.map(|l| vexec::live_mask(l, batch.width()));
    Ok(batch.gather_live(&sel, live.as_deref()))
}

/// A base-table access's rows as a batch, in clustered order: the whole
/// table or a Seek's range. A Seek's residual is the pipeline's first
/// Filter stage, not applied here.
fn table_source(node: &PhysicalPlan, catalog: &Catalog) -> Result<Batch> {
    let batch = match &node.op {
        PhysOp::Scan { table, .. } => catalog.table(table)?.batch(),
        PhysOp::Seek {
            table,
            lower,
            upper,
            ..
        } => catalog.table(table)?.seek(as_ref_bound(lower), as_ref_bound(upper)),
        _ => unreachable!("`Pipeline::of` reads tables through these two accesses only"),
    };
    Ok(batch)
}

/// A join's build input, below its `Repartition` marker.
fn build_child(join: &PhysicalPlan) -> Result<&PhysicalPlan> {
    let build = join.children.get(1).ok_or_else(|| {
        Error::Execution("internal: binary operator missing inputs".into())
    })?;
    if matches!(build.op, PhysOp::Repartition { .. }) {
        exec::data_child(build)
    } else {
        Ok(build)
    }
}

/// A join's build side: indexed in memory, or — over budget with a
/// spill directory — its rows, for the Grace hash join.
enum Build {
    Hashed(JoinBuild),
    Spilled(Vec<Row>),
}

/// Execute the build subtree and index it once; every probe then reads
/// the same read-only table. Partitioning is how the probe side is
/// driven (morsels), not a property of the table.
fn build_join(
    spec: &ProbeSpec,
    catalog: &Catalog,
    ctx: &EvalContext,
    guard: &ExecGuard,
) -> Result<Build> {
    let right = vexec::exec_node(spec.build, catalog, ctx, guard)?;
    guard.fault(FaultSite::JoinBuild)?;
    // The build side is pinned for the probe's lifetime, charged as the
    // row engine charges its materialized rows.
    let bytes = batch_rows_bytes(&right);
    if let Err(e) = guard.charge(bytes) {
        if guard.spill_to(&e).is_none() {
            return Err(e);
        }
        // The failed charge was still recorded (add-before-check);
        // refund it — the spill path charges per partition instead.
        guard.memory().release(bytes);
        return Ok(Build::Spilled(right.to_rows()));
    }
    JoinBuild::new(right, &spec.join, ctx, guard).map(Build::Hashed)
}

// ---------------------------------------------------------------------------
// Morsel dispatch
// ---------------------------------------------------------------------------

/// Run `f` once per morsel of `n_rows` input rows on `min(dop, morsels)`
/// worker threads, returning the per-morsel results in morsel order.
/// The DOP is the worker count: the engine plans no more than the CPUs
/// it may run on unless told otherwise.
///
/// Workers claim morsel indexes off a shared counter. A failing morsel
/// does not abort the others (so the error reported is deterministically
/// the one from the *earliest* morsel, matching serial row order) —
/// except cancellation, which flips an abort flag so every worker stops
/// at its next claim.
fn run_morsels<T: Send>(
    n_rows: usize,
    dop: usize,
    guard: &ExecGuard,
    f: impl Fn(usize, Range<usize>, &ExecGuard) -> Result<T> + Sync,
) -> Result<Vec<T>> {
    let morsels = n_rows.div_ceil(MORSEL_SIZE);
    let range_of = |m: usize| m * MORSEL_SIZE..((m + 1) * MORSEL_SIZE).min(n_rows);
    let workers = dop.min(morsels);
    if workers <= 1 {
        // Zero or one morsel, or DOP 1: run inline on the caller's
        // thread (same code path, no thread overhead).
        let mut out = Vec::with_capacity(morsels);
        for m in 0..morsels {
            out.push(f(m, range_of(m), guard)?);
        }
        return Ok(out);
    }
    let next = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    let mut slots: Vec<Option<Result<T>>> = (0..morsels).map(|_| None).collect();
    let mut lost_worker: Option<Error> = None;
    std::thread::scope(|s| {
        let (next, abort, f) = (&next, &abort, &f);
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let worker_guard = guard.fork();
                s.spawn(move || {
                    let mut local: Vec<(usize, Result<T>)> = Vec::new();
                    loop {
                        if abort.load(Ordering::Relaxed) {
                            break;
                        }
                        let m = next.fetch_add(1, Ordering::Relaxed);
                        if m >= morsels {
                            break;
                        }
                        // Panic isolation: a panicking operator (a bug, or
                        // an injected chaos fault) fails this morsel —
                        // and through the earliest-error rule below, this
                        // query — never the process. The pipeline only
                        // borrows shared state (`&Pipeline`, `&JoinBuild`)
                        // whose mutations are per-element atomics, so
                        // unwinding mid-morsel cannot leave it torn;
                        // `AssertUnwindSafe` is sound here.
                        let range = m * MORSEL_SIZE..((m + 1) * MORSEL_SIZE).min(n_rows);
                        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            f(m, range, &worker_guard)
                        }))
                        .unwrap_or_else(|payload| Err(Error::from_panic(payload)));
                        let cancelled =
                            matches!(r, Err(Error::Cancelled(_) | Error::Timeout(_)));
                        local.push((m, r));
                        if cancelled {
                            abort.store(true, Ordering::Relaxed);
                            break;
                        }
                    }
                    local
                })
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok(local) => {
                    for (m, r) in local {
                        slots[m] = Some(r);
                    }
                }
                // The worker panicked *outside* the per-morsel
                // catch_unwind (the claim loop itself — should be
                // impossible). Contain it here too: one query must never
                // abort the process.
                Err(payload) => lost_worker = Some(Error::from_panic(payload)),
            }
        }
    });
    // Earliest morsel's error wins — deterministic, and for non-cancel
    // errors identical to the serial executor's first failing row.
    for slot in &slots {
        if let Some(Err(e)) = slot {
            return Err(e.clone());
        }
    }
    if let Some(e) = lost_worker {
        return Err(e);
    }
    slots
        .into_iter()
        .map(|s| match s {
            Some(Ok(t)) => Ok(t),
            _ => Err(Error::Internal("parallel morsel lost".into())),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use crate::engine::Engine;
    use crate::schema::Schema;
    use crate::table::Table;
    use crate::value::{DataType, Value};
    use sqlshare_common::{CancellationToken, Error};

    /// An engine whose every eligible plan is forced parallel at `dop`,
    /// and a serial twin over the same catalog.
    fn twins(dop: usize) -> (Engine, Engine) {
        // The explicit DOP below runs that many worker threads even on a
        // one-CPU host, so the scoped-thread machinery (claiming, abort,
        // error ordering) is exercised, not just the inline path.
        let mut parallel = Engine::new();
        let rows: Vec<Vec<Value>> = (0..5000)
            .map(|i| {
                vec![
                    Value::Int(i % 97),
                    Value::Int(i),
                    if i % 11 == 0 {
                        Value::Null
                    } else {
                        Value::Float((i % 13) as f64)
                    },
                ]
            })
            .collect();
        parallel
            .create_table(Table::new(
                "facts",
                Schema::from_pairs([
                    ("k", DataType::Int),
                    ("v", DataType::Int),
                    ("w", DataType::Float),
                ]),
                rows,
            ))
            .unwrap();
        let dims: Vec<Vec<Value>> = (0..97)
            .map(|i| vec![Value::Int(i), Value::Text(format!("dim{i}"))])
            .collect();
        parallel
            .create_table(Table::new(
                "dims",
                Schema::from_pairs([("id", DataType::Int), ("name", DataType::Text)]),
                dims,
            ))
            .unwrap();
        let mut serial = parallel.clone();
        serial.set_max_dop(1);
        parallel.set_max_dop(dop);
        parallel.set_parallelism_cost_threshold(0.0);
        (parallel, serial)
    }

    const QUERIES: &[&str] = &[
        "SELECT v FROM facts WHERE k > 40",
        "SELECT v + 1, w FROM facts WHERE k % 2 = 0",
        "SELECT COUNT(*), SUM(v), MIN(w), MAX(w) FROM facts",
        "SELECT k, COUNT(*), SUM(v) FROM facts GROUP BY k",
        "SELECT name, COUNT(*) FROM facts JOIN dims ON facts.k = dims.id GROUP BY name",
        "SELECT v, name FROM facts LEFT JOIN dims ON facts.k = dims.id WHERE v < 500",
        "SELECT COUNT(DISTINCT k) FROM facts WHERE v > 100",
    ];

    #[test]
    fn forced_parallel_matches_serial() {
        for dop in [2, 4] {
            let (parallel, serial) = twins(dop);
            for sql in QUERIES {
                let p = parallel.run(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
                let s = serial.run(sql).unwrap();
                assert!(
                    p.plan.max_parallelism() > 1,
                    "{sql}: expected a parallel plan at dop {dop}"
                );
                assert_eq!(s.plan.max_parallelism(), 1, "{sql}");
                assert_eq!(p.rows, s.rows, "{sql} at dop {dop}");
            }
        }
    }

    #[test]
    fn right_join_tail_matches_serial() {
        let (parallel, serial) = twins(4);
        // dims rows without facts (none) plus facts keys without dims:
        // exercise unmatched-build handling both ways.
        for sql in [
            "SELECT v, name FROM facts RIGHT JOIN dims ON facts.k = dims.id",
            "SELECT name FROM facts FULL JOIN dims ON facts.k = dims.id WHERE v IS NULL OR v < 10",
        ] {
            let p = parallel.run(sql).unwrap();
            let s = serial.run(sql).unwrap();
            assert_eq!(p.rows, s.rows, "{sql}");
        }
    }

    #[test]
    fn right_join_under_aggregate_matches_serial() {
        // Regression: the unmatched-build tail must be computed after
        // the probe morsels have run (the probes populate the matched
        // bitmap). Read before them, every matched build row is also
        // emitted as a null-padded tail row and aggregates double-count.
        let (parallel, serial) = twins(4);
        for sql in [
            "SELECT COUNT(*) FROM facts RIGHT JOIN dims ON facts.k = dims.id",
            "SELECT COUNT(v), COUNT(*) FROM facts FULL JOIN dims ON facts.k = dims.id",
            "SELECT name, COUNT(*), SUM(v) FROM facts RIGHT JOIN dims ON facts.k = dims.id GROUP BY name",
            "SELECT name, COUNT(v) FROM facts FULL JOIN dims ON facts.k = dims.id AND facts.v < 50 GROUP BY name",
        ] {
            let p = parallel.run(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
            let s = serial.run(sql).unwrap();
            assert!(p.plan.max_parallelism() > 1, "{sql}: expected a parallel plan");
            assert_eq!(p.rows, s.rows, "{sql}");
        }
    }

    #[test]
    fn parallel_run_is_cancellable() {
        let (parallel, _) = twins(4);
        let token = CancellationToken::new();
        token.cancel(sqlshare_common::CancelReason::Cancelled);
        let err = parallel
            .run_with_cancel("SELECT k, COUNT(*) FROM facts GROUP BY k", token)
            .unwrap_err();
        assert!(matches!(err, Error::Cancelled(_)), "{err:?}");
    }

    #[test]
    fn execution_error_is_deterministic_and_serial_identical() {
        let (parallel, serial) = twins(4);
        // SUM over text that is not numeric fails on a data-dependent
        // row; the parallel executor must surface the same error.
        let sql = "SELECT SUM(name) FROM facts JOIN dims ON facts.k = dims.id";
        let p = parallel.run(sql).unwrap_err();
        let s = serial.run(sql).unwrap_err();
        assert_eq!(p, s);
    }

    #[test]
    fn memory_budget_kills_parallel_but_degraded_retry_succeeds() {
        // The parallel plan materializes morsel outputs (charged per
        // worker) on top of the shared join build, so a projection join
        // with a wide output charges roughly twice what the serial plan
        // does. A budget between the two kills the parallel run with a
        // typed resource error while the DOP-1 degraded path completes.
        let (mut parallel, serial) = twins(4);
        let sql = "SELECT v, name FROM facts JOIN dims ON facts.k = dims.id";
        parallel.set_query_mem_limit(600 * 1024);
        let err = parallel.run(sql).unwrap_err();
        assert_eq!(err.kind(), "resource", "{err}");
        // The failed query must not leak reserved bytes from the pool.
        assert_eq!(parallel.memory_pool().used(), 0);
        let degraded = parallel
            .run_degraded_with_cancel(sql, CancellationToken::new())
            .unwrap();
        assert_eq!(degraded.plan.max_parallelism(), 1);
        assert_eq!(degraded.rows, serial.run(sql).unwrap().rows);
        assert_eq!(parallel.memory_pool().used(), 0);
    }

    #[test]
    fn aggregate_over_join_charges_what_it_holds() {
        // Under an aggregate no morsel materializes the joined rows, so
        // none is charged for them: the query holds the 97-row build
        // side (~8 KB), a few dozen groups per morsel and one result.
        // The 5000 combined rows it never builds would be ~750 KB.
        let (mut parallel, serial) = twins(4);
        let sql = "SELECT name, COUNT(*), SUM(v) FROM facts JOIN dims ON facts.k = dims.id GROUP BY name";
        parallel.set_query_mem_limit(64 * 1024);
        let out = parallel.run(sql).unwrap();
        assert!(out.plan.max_parallelism() > 1);
        assert_eq!(out.rows, serial.run(sql).unwrap().rows);
        assert_eq!(parallel.memory_pool().used(), 0);
    }

    #[test]
    fn injected_worker_panic_is_contained_and_engine_survives() {
        let (mut parallel, _) = twins(4);
        parallel.set_fault_plan(Some(crate::faults::FaultPlan::panic_at(
            crate::faults::FaultSite::Scan,
        )));
        let sql = "SELECT name, COUNT(*) FROM facts JOIN dims ON facts.k = dims.id GROUP BY name";
        let err = parallel.run(sql).unwrap_err();
        assert_eq!(err.kind(), "internal", "{err}");
        assert!(err.message().contains("contained panic"), "{err}");
        assert_eq!(parallel.memory_pool().used(), 0);
        // Clearing the plan restores normal service on the same engine:
        // the panic poisoned nothing.
        parallel.set_fault_plan(None);
        let out = parallel.run("SELECT COUNT(*) FROM facts").unwrap();
        assert_eq!(out.rows, vec![vec![Value::Int(5000)]]);
    }

    #[test]
    fn explain_carries_parallelism_operators() {
        let (parallel, _) = twins(4);
        let plan = parallel
            .explain("SELECT name, COUNT(*) FROM facts JOIN dims ON facts.k = dims.id GROUP BY name")
            .unwrap();
        let names = plan.operator_names();
        assert!(
            names.contains(&"Parallelism (Gather Streams)"),
            "{names:?}"
        );
        assert!(
            names.contains(&"Parallelism (Repartition Streams)"),
            "{names:?}"
        );
        assert_eq!(plan.max_parallelism(), 4);
    }
}
