//! Morsel-driven parallel execution.
//!
//! A `Parallelism (Gather Streams)` operator marks a subtree that runs
//! on a small worker pool: the base table under it, as a column
//! [`Batch`], is cut into fixed-size *morsels*, workers claim morsels
//! off a shared atomic counter, push each morsel slice through the
//! region's operator pipeline (seek residual → filters / compute
//! scalars → probe of the shared hash-join table → pre-aggregation),
//! and the gather merges the per-morsel outputs back into one stream
//! *in morsel order* — so for everything but floating-point aggregates
//! the parallel result is byte-identical to the serial one, not merely
//! bag-equal.
//!
//! The pipeline stages are not implemented here: filters, computes,
//! the join and the aggregates are [`crate::vexec`]'s batch operators
//! over [`crate::hashtable`], driven a morsel at a time. This module
//! owns what is specific to running them in parallel — region
//! recognition, morsel dispatch, which columns each stage still needs,
//! the order partial results are merged in. Both engines share it: the
//! row engine (`Engine::set_vectorized(false)`) differs only in running the
//! join's build subtree, and any region [`compile`] does not
//! recognize, on the row interpreter.
//!
//! The shape of a parallel region is deliberately restricted to what
//! [`compile`] recognizes; `execute_gather` falls back to plain serial
//! execution for anything else, so correctness never depends on the
//! optimizer and the executor agreeing about eligibility.
//!
//! Cancellation: each worker forks the caller's [`ExecGuard`] (the
//! guard is not `Sync`; the underlying token is shared), and a tripped
//! token aborts the morsel dispatch loop, so `cancel_query` lands
//! mid-join just as it does serially.

use crate::aggregate::{Accumulator, AggCall};
use crate::catalog::Catalog;
use crate::exec::{self, ExecGuard};
use crate::expr::BoundExpr;
use crate::faults::FaultSite;
use crate::functions::EvalContext;
use crate::physical::{PhysOp, PhysicalPlan};
use crate::value::Row;
use crate::vector::{batch_rows_bytes, Batch, NULL_ROW};
use crate::vexec::{self, GroupMerger, JoinBuild, JoinSpec};
use sqlshare_common::{Error, Result};
use sqlshare_sql::ast::JoinKind;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Rows per morsel. Small enough that a worker pool balances skewed
/// filters, large enough that the claim (one `fetch_add`) is noise.
pub const MORSEL_SIZE: usize = 1024;

/// Execute a `Gather` node: compile the subtree below it into a morsel
/// pipeline and run it on `dop` workers. Unsupported subtree shapes run
/// serially (same results, no parallelism).
pub fn execute_gather(
    plan: &PhysicalPlan,
    dop: usize,
    catalog: &Catalog,
    ctx: &EvalContext,
    guard: &ExecGuard,
) -> Result<Vec<Row>> {
    gather_inner(plan, dop, catalog, ctx, guard, false)
}

/// [`execute_gather`] for the vectorized engine: the serial fallback
/// and the join's build subtree run on [`crate::vexec`].
pub(crate) fn execute_gather_vectorized(
    plan: &PhysicalPlan,
    dop: usize,
    catalog: &Catalog,
    ctx: &EvalContext,
    guard: &ExecGuard,
) -> Result<Vec<Row>> {
    gather_inner(plan, dop, catalog, ctx, guard, true)
}

fn gather_inner(
    plan: &PhysicalPlan,
    dop: usize,
    catalog: &Catalog,
    ctx: &EvalContext,
    guard: &ExecGuard,
    vectorized: bool,
) -> Result<Vec<Row>> {
    let child = exec::data_child(plan)?;
    let dop = dop.max(1);
    let Some(region) = compile(child, catalog)? else {
        return if vectorized {
            vexec::execute(child, catalog, ctx, guard)
        } else {
            exec::execute(child, catalog, ctx, guard)
        };
    };
    let join = match region.probe_spec() {
        Some(spec) => Some(build_join(spec, catalog, ctx, guard, vectorized)?),
        None => None,
    };
    let join = join.as_ref();
    let n_rows = region.source.len;
    // The unmatched-build tail for Right/Full joins can only be read
    // once every probe morsel has run — the probes are what populate the
    // matched flags — so each branch computes it after `run_morsels`
    // returns, never before.
    match &region.agg {
        None => {
            // Morsel materialization: once an operator builds new rows,
            // the morsel's output is held until the gather drains it.
            let builds = region.ops.iter().any(|op| !matches!(op, Op::Filter(_)));
            let chunks = run_morsels(n_rows, dop, guard, |_, range, g| {
                let out = region.run(range, join, ctx, g)?;
                if builds {
                    g.charge(batch_rows_bytes(&out))?;
                }
                Ok(out.to_rows())
            })?;
            let mut out: Vec<Row> = chunks.into_iter().flatten().collect();
            if let Some(tail) = region.tail(join, ctx, guard)? {
                out.extend(tail.to_rows());
            }
            Ok(out)
        }
        Some(agg) if agg.group.is_empty() => {
            // Scalar aggregate: one partial per morsel, merged in morsel
            // order; always exactly one output row, even on empty input.
            let mut partials = run_morsels(n_rows, dop, guard, |_, range, g| {
                vexec::scalar_partial(&region.run(range, join, ctx, g)?, agg.aggs, ctx, g)
            })?;
            if let Some(tail) = region.tail(join, ctx, guard)? {
                partials.push(vexec::scalar_partial(&tail, agg.aggs, ctx, guard)?);
            }
            let mut accs = vexec::new_accs(agg.aggs);
            for partial in &partials {
                for (acc, p) in accs.iter_mut().zip(partial) {
                    acc.merge(p)?;
                }
            }
            Ok(vec![accs.iter().map(Accumulator::finish).collect()])
        }
        Some(agg) => {
            let partials = run_morsels(n_rows, dop, guard, |_, range, g| {
                vexec::group_batch(&region.run(range, join, ctx, g)?, agg.group, agg.aggs, ctx, g)
            })?;
            let mut merger = GroupMerger::new(agg.group.len(), agg.aggs.len());
            for partial in partials {
                merger.push(partial)?;
            }
            if let Some(tail) = region.tail(join, ctx, guard)? {
                merger.push(vexec::group_batch(&tail, agg.group, agg.aggs, ctx, guard)?)?;
            }
            Ok(merger.finish())
        }
    }
}

// ---------------------------------------------------------------------------
// Region compilation
// ---------------------------------------------------------------------------

/// One morsel-parallel region: a base-table batch plus the operator
/// pipeline every morsel of it is pushed through.
struct Region<'a> {
    /// The base table (or the slice of it a seek selects). Morsels are
    /// zero-copy slices.
    source: Batch,
    /// Seek residual predicate, applied before everything else.
    residual: Option<&'a BoundExpr>,
    /// Pipeline stages, bottom-up (source side first).
    ops: Vec<Op<'a>>,
    /// `live[i]`: the columns of the batch entering `ops[i]` that it or
    /// anything after it reads (`live[ops.len()]`: what the aggregate
    /// reads); `None` when the batch reaches the region's output whole.
    /// A stage materializes only these for the next one.
    live: Vec<Option<Vec<usize>>>,
    /// Terminal pre-aggregation, merged serially after the gather.
    agg: Option<AggSpec<'a>>,
}

enum Op<'a> {
    Filter(&'a BoundExpr),
    Compute(&'a [BoundExpr]),
    Probe(ProbeSpec<'a>),
}

struct ProbeSpec<'a> {
    /// Build-side subtree (below the `Repartition` marker), executed
    /// serially once before the morsel workers start.
    build: &'a PhysicalPlan,
    join: JoinSpec<'a>,
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

impl<'a> Region<'a> {
    /// `ops` as [`compile`] collects them: top-down.
    fn new(
        source: Batch,
        residual: Option<&'a BoundExpr>,
        mut ops: Vec<Op<'a>>,
        agg: Option<AggSpec<'a>>,
    ) -> Self {
        ops.reverse();
        // Walk the pipeline top-down, carrying what is read above.
        let mut need = agg.as_ref().map(|a| {
            columns_of(a.group.iter().chain(a.aggs.iter().filter_map(|c| c.arg.as_ref())))
        });
        let mut live = vec![need.clone()];
        for op in ops.iter().rev() {
            need = match op {
                Op::Filter(p) => need.map(|mut n| {
                    p.column_indexes(&mut n);
                    n
                }),
                Op::Compute(exprs) => Some(columns_of(exprs.iter())),
                // The probe input is the left side of the combined row,
                // plus the probe keys. (A Merge Join region carries no
                // widths to split the combined row by: keep everything.)
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
        live.reverse();
        Region { source, residual, ops, live, agg }
    }

    fn probe_spec(&self) -> Option<&ProbeSpec<'a>> {
        self.ops.iter().find_map(|op| match op {
            Op::Probe(spec) => Some(spec),
            _ => None,
        })
    }

    /// Push one morsel of the source through the pipeline.
    ///
    /// Each stage is a batch operator over the whole morsel, so within
    /// a morsel errors surface stage by stage — the order the serial
    /// executors report them in over a whole table — and row order is
    /// preserved throughout.
    fn run(
        &self,
        range: Range<usize>,
        join: Option<&JoinBuild>,
        ctx: &EvalContext,
        guard: &ExecGuard,
    ) -> Result<Batch> {
        // Per-morsel scan checkpoint: chaos faults here land *inside*
        // worker threads, exercising the catch_unwind barrier in
        // `run_morsels`.
        guard.fault(FaultSite::Scan)?;
        guard.tick(range.len() as u64)?;
        let mut batch = self.source.slice(range);
        if let Some(p) = self.residual {
            batch = filter(batch, p, self.live[0].as_deref(), ctx)?;
        }
        self.apply(0, batch, join, ctx, guard)
    }

    /// Run `ops[from..]` over `batch`.
    fn apply(
        &self,
        from: usize,
        mut batch: Batch,
        join: Option<&JoinBuild>,
        ctx: &EvalContext,
        guard: &ExecGuard,
    ) -> Result<Batch> {
        for (i, op) in self.ops.iter().enumerate().skip(from) {
            let live = self.live[i + 1].as_deref();
            batch = match op {
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
                        Error::Execution("internal: parallel probe without build".into())
                    })?;
                    guard.fault(FaultSite::JoinProbe)?;
                    let (lsel, rsel) = build.probe(&batch, &spec.join, ctx, guard)?;
                    let width = batch.width() + build.batch.width();
                    let live = live.map(|l| vexec::live_mask(l, width));
                    vexec::combine(&batch, &build.batch, &lsel, &rsel, live.as_deref())
                }
            };
        }
        Ok(batch)
    }

    /// Unmatched build rows of a Right/Full join, null-padded on the
    /// probe side and pushed through the stages above the join;
    /// appended after the gathered streams, exactly where the serial
    /// executor emits them. `None` when there are none.
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
        let at = self
            .ops
            .iter()
            .position(|op| matches!(op, Op::Probe(_)))
            .expect("a build implies a probe stage");
        let Op::Probe(spec) = &self.ops[at] else { unreachable!() };
        guard.tick(rsel.len() as u64)?;
        let left = Batch::from_rows(&[], spec.join.left_width);
        let padded = vexec::combine(&left, &build.batch, &vec![NULL_ROW; rsel.len()], &rsel, None);
        self.apply(at + 1, padded, None, ctx, guard).map(Some)
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

/// Recognize a parallelizable subtree: an optional Aggregate on top of a
/// Filter/Compute chain, with at most one hash join whose probe (left)
/// input continues the chain down to a Scan or Seek. Mirrored by
/// `optimizer::parallel_region_shape`, but execution never trusts that —
/// anything unrecognized returns `None` and runs serially.
fn compile<'a>(plan: &'a PhysicalPlan, catalog: &'a Catalog) -> Result<Option<Region<'a>>> {
    let mut agg = None;
    let mut node = plan;
    if let PhysOp::Aggregate { group, aggs, .. } = &node.op {
        agg = Some(AggSpec { group, aggs });
        node = exec::data_child(node)?;
    }
    let mut ops: Vec<Op<'a>> = Vec::new();
    let mut joined = false;
    loop {
        match &node.op {
            PhysOp::Filter { predicate } => {
                ops.push(Op::Filter(predicate));
                node = exec::data_child(node)?;
            }
            PhysOp::Compute { exprs } => {
                ops.push(Op::Compute(exprs));
                node = exec::data_child(node)?;
            }
            PhysOp::HashJoin {
                kind,
                left_keys,
                right_keys,
                residual,
                left_width,
                right_width,
            } if !joined && node.children.len() >= 2 => {
                joined = true;
                ops.push(Op::Probe(ProbeSpec {
                    build: build_child(node)?,
                    join: JoinSpec {
                        kind: *kind,
                        left_keys,
                        right_keys,
                        residual: residual.as_ref(),
                        left_width: *left_width,
                        right_width: *right_width,
                    },
                }));
                node = &node.children[0];
            }
            // The serial executor runs a Merge Join as an inner hash
            // join (the operator name is what plan statistics need), so
            // the parallel region can too. Inner joins never null-pad,
            // so the widths are irrelevant.
            PhysOp::MergeJoin {
                left_keys,
                right_keys,
                residual,
            } if !joined && node.children.len() >= 2 => {
                joined = true;
                ops.push(Op::Probe(ProbeSpec {
                    build: build_child(node)?,
                    join: JoinSpec {
                        kind: JoinKind::Inner,
                        left_keys,
                        right_keys,
                        residual: residual.as_ref(),
                        left_width: 0,
                        right_width: 0,
                    },
                }));
                node = &node.children[0];
            }
            // A row-bounded scan reads a prefix; there is nothing to split
            // into morsels, so it runs serially (`_ => None` below).
            PhysOp::Scan { table, head: None } => {
                let source = (*catalog.table(table)?.columnar()?).clone();
                return Ok(Some(Region::new(source, None, ops, agg)));
            }
            PhysOp::Seek {
                table,
                lower,
                upper,
                residual,
            } => {
                let t = catalog.table(table)?;
                let lo = exec::as_ref_bound(lower);
                let hi = exec::as_ref_bound(upper);
                let source = match t.seek_bounds(lo, hi) {
                    Some(range) => t.columnar()?.slice(range),
                    None => Batch::from_rows(&t.seek_leading(lo, hi)?, t.schema.len()),
                };
                return Ok(Some(Region::new(source, residual.as_ref(), ops, agg)));
            }
            PhysOp::IndexSeek {
                table,
                column,
                lower,
                upper,
                predicate,
            } => {
                // The candidate ordinals are ascending, so the morsel
                // source is in clustered order — same rows, same order
                // as the serial arm (and as scan + filter on fallback).
                let t = catalog.table(table)?;
                let candidates = match t.paged() {
                    Some(p) => p.secondary_candidates(
                        *column,
                        exec::as_ref_bound(lower),
                        exec::as_ref_bound(upper),
                    )?,
                    None => None,
                };
                let source = match candidates {
                    Some(ordinals) => Batch::from_rows(
                        &t.paged()
                            .expect("candidates imply paged backing")
                            .fetch_rows(&ordinals)?,
                        t.schema.len(),
                    ),
                    None => (*t.columnar()?).clone(),
                };
                return Ok(Some(Region::new(source, Some(predicate), ops, agg)));
            }
            _ => return Ok(None),
        }
    }
}

/// A join's build input, below its `Repartition` marker.
fn build_child(join: &PhysicalPlan) -> Result<&PhysicalPlan> {
    let build = &join.children[1];
    if matches!(build.op, PhysOp::Repartition { .. }) {
        exec::data_child(build)
    } else {
        Ok(build)
    }
}

/// Execute the build subtree serially and index it once; every morsel
/// worker then probes the same read-only table. Partitioning is how the
/// probe side is driven (morsels), not a property of the table.
fn build_join(
    spec: &ProbeSpec,
    catalog: &Catalog,
    ctx: &EvalContext,
    guard: &ExecGuard,
    vectorized: bool,
) -> Result<JoinBuild> {
    guard.fault(FaultSite::JoinBuild)?;
    let right = if vectorized {
        vexec::execute_batch(spec.build, catalog, ctx, guard)?
    } else {
        vexec::rows_to_batch(&exec::execute(spec.build, catalog, ctx, guard)?)
    };
    // The build side is pinned for the probe's lifetime, charged as the
    // row engine charges its materialized rows.
    guard.charge(batch_rows_bytes(&right))?;
    JoinBuild::new(right, &spec.join, ctx, guard)
}

// ---------------------------------------------------------------------------
// Morsel dispatch
// ---------------------------------------------------------------------------

/// Run `f` once per morsel of `n_rows` input rows on up to `dop` worker
/// threads, returning the per-morsel results in morsel order.
///
/// Morsel-driven scheduling is elastic: the plan's DOP is an admission
/// control and accounting property (a DOP-4 query reserves four
/// scheduler slots), while the executor never runs more OS threads than
/// the guard's [`ExecGuard::exec_threads`] cap (hardware parallelism by
/// default, or an explicit
/// [`crate::engine::Engine::set_exec_threads`]) — extra
/// threads on an oversubscribed host are pure context-switch churn.
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
    let workers = dop.min(morsels).min(guard.exec_threads());
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
                        // borrows shared state (`&Region`, `&JoinBuild`)
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
        let mut parallel = Engine::new();
        // Force real worker threads even on single-core CI hosts so the
        // scoped-thread machinery (claiming, abort, error ordering) is
        // exercised, not just the inline fallback.
        parallel.set_exec_threads(4);
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
