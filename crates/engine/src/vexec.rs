//! The vectorized executor: batch-at-a-time evaluation of physical
//! plans over typed column vectors ([`crate::vector`]).
//!
//! This engine is selected by default (`Engine::set_vectorized(false)`
//! selects the row interpreter in [`crate::exec`], which stays alive as
//! the correctness oracle). The contract with the oracle is strict:
//! **byte-identical rows and identical first errors** on every query.
//!
//! The mechanism that makes that tractable is *replay-on-kernel-error*:
//! expression kernels ([`eval_kernel`]) compile a supported subset of
//! [`BoundExpr`] into tight per-type loops over column slices, and
//! return `None` both for unsupported expressions and whenever a loop
//! hits a row-level error (division by zero, overflow, NaN comparison,
//! truth coercion of a non-boolean). The caller then *replays* the
//! expression row-at-a-time through `BoundExpr::eval` — the oracle's
//! own code — which reproduces the oracle's exact first error, in the
//! oracle's exact evaluation order (including `AND`/`OR`
//! short-circuiting, which column-at-a-time evaluation cannot honor
//! when the skipped side would error). A kernel that *succeeds* is
//! guaranteed to produce exactly the values the oracle would, so
//! downstream error positions (e.g. "not a boolean" in a filter) are
//! also exact.
//!
//! This module interprets the plan node by node and owns the batch
//! operators. Every operator takes and returns a [`Batch`]; rows exist
//! only at [`execute`]'s output. A Scan, Seek, Filter,
//! Compute Scalar, Hash Match, Merge Join or Aggregate is the top of a
//! pipeline, which [`crate::parallel`] runs — as one morsel here, at a
//! `Gather`'s DOP under an exchange. Sort, Distinct Sort and aggregate
//! output order rows by one stable permutation over typed key columns
//! (`table::sort_order`); Top slices its input; Concatenation
//! and a Gather join batches ([`Batch::concat`]). Three operators still
//! run on rows, converted at their own boundary: Nested Loops, Hash Set
//! Op (`INTERSECT` / `EXCEPT`) and Sequence Project (windows). So do the
//! spill paths: an over-budget Sort enters the oracle's external sort
//! through the oracle's own sort, an over-budget join build the Grace
//! hash join.
//!
//! Hash join and grouped aggregation are batch operators over
//! [`crate::hashtable`]: key columns are encoded to fixed-width atoms,
//! rows are matched or numbered through the flat table, and only index
//! vectors move until the consumer gathers the columns it reads. They
//! charge the memory governor for what they hold — the join's build
//! side byte for byte as the row engine charges it
//! ([`crate::vector::batch_rows_bytes`] replicates
//! [`crate::memory::values_bytes`] per row, so the Grace-spill
//! threshold is the same), grouped state per group — hit the same
//! fault-injection sites in the same order, and fall back to the same
//! spill paths.

use crate::aggregate::{AggCall, AggFunc, Accumulator};
use crate::catalog::Catalog;
use crate::exec::{self, ExecGuard};
use crate::expr::BoundExpr;
use crate::faults::FaultSite;
use crate::functions::EvalContext;
use crate::hashtable::{GroupTable, JoinTable};
use crate::logical::SortKey;
use crate::physical::{PhysOp, PhysicalPlan};
use crate::spill::CHARGE_BATCH;
use crate::table::{cmp_cells, sort_order};
use crate::value::{DataType, Row, Value};
use crate::vector::{
    batch_rows_bytes, Batch, Bitmap, Col, ColumnBuilder, ColumnData, ColumnVec, BATCH_SIZE, NULL_ROW,
};
use sqlshare_common::{Error, Result};
use sqlshare_sql::ast::{BinaryOp, JoinKind};
use std::cmp::Ordering;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering as AtomicOrdering};

/// Execute a physical plan to completion on the vectorized engine.
pub fn execute(
    plan: &PhysicalPlan,
    catalog: &Catalog,
    ctx: &EvalContext,
    guard: &ExecGuard,
) -> Result<Vec<Row>> {
    Ok(exec_node(plan, catalog, ctx, guard)?.to_rows())
}

fn child(plan: &PhysicalPlan, catalog: &Catalog, ctx: &EvalContext, guard: &ExecGuard) -> Result<Batch> {
    exec_node(exec::data_child(plan)?, catalog, ctx, guard)
}

/// Run the plan `plan` tops, leaving its output in columns.
pub(crate) fn exec_node(
    plan: &PhysicalPlan,
    catalog: &Catalog,
    ctx: &EvalContext,
    guard: &ExecGuard,
) -> Result<Batch> {
    match &plan.op {
        // One row of no columns.
        PhysOp::ConstantScan => Ok(Batch::new(Vec::new(), 1)),
        // The top of a pipeline, run as one morsel.
        PhysOp::Scan { head: None, .. }
        | PhysOp::Seek { .. }
        | PhysOp::Filter { .. }
        | PhysOp::Compute { .. }
        | PhysOp::HashJoin { .. }
        | PhysOp::MergeJoin { .. }
        | PhysOp::Aggregate { .. } => crate::parallel::execute(plan, 1, catalog, ctx, guard),
        PhysOp::Gather { dop } => {
            crate::parallel::execute(exec::data_child(plan)?, *dop, catalog, ctx, guard)
        }
        PhysOp::Scan { table, head: Some(n) } => {
            guard.fault(FaultSite::Scan)?;
            let head = catalog.table(table)?.head(usize::try_from(*n).unwrap_or(usize::MAX));
            guard.tick(head.len as u64)?;
            Ok(head)
        }
        PhysOp::CachedScan { batch, .. } => {
            guard.tick(batch.len as u64)?;
            Ok((**batch).clone())
        }
        PhysOp::Top { quantity, percent } => {
            let input = child(plan, catalog, ctx, guard)?;
            let n = if *percent {
                ((input.len as f64) * (*quantity as f64) / 100.0).ceil() as usize
            } else {
                *quantity as usize
            };
            Ok(input.slice(0..n.min(input.len)))
        }
        PhysOp::Sort { keys } => sort(child(plan, catalog, ctx, guard)?, keys, ctx, guard),
        PhysOp::DistinctSort => {
            let input = child(plan, catalog, ctx, guard)?;
            guard.tick(input.len as u64)?;
            let order = sort_order(&input, &[]);
            let same = |a: u32, b: u32| input.cols.iter().all(|c| cmp_cells(c, a as usize, b as usize).is_eq());
            let mut keep: Vec<u32> = Vec::with_capacity(order.len());
            for &i in &order {
                if keep.last().is_none_or(|&prev| !same(prev, i)) {
                    keep.push(i);
                }
            }
            Ok(input.gather(&keep))
        }
        PhysOp::Concatenation => {
            let (l, r) = two_children(plan, catalog, ctx, guard)?;
            Ok(Batch::concat(&[l, r], &plan.types))
        }
        // Row operators: their inputs leave columns here, their output
        // re-enters them as the node's types.
        PhysOp::NestedLoops {
            kind,
            on,
            left_width,
            right_width,
        } => {
            let (l, r) = two_children(plan, catalog, ctx, guard)?;
            let rows = exec::nested_loops(
                l.to_rows(),
                r.to_rows(),
                *kind,
                on.as_ref(),
                *left_width,
                *right_width,
                ctx,
                guard,
            )?;
            Ok(Batch::from_rows(&rows, &plan.types))
        }
        PhysOp::HashSetOp { op } => {
            let (l, r) = two_children(plan, catalog, ctx, guard)?;
            let rows = exec::hash_set_op(l.to_rows(), r.to_rows(), *op)?;
            Ok(Batch::from_rows(&rows, &plan.types))
        }
        PhysOp::Segment | PhysOp::Repartition { .. } => child(plan, catalog, ctx, guard),
        PhysOp::SequenceProject { calls } => {
            let input = child(plan, catalog, ctx, guard)?;
            guard.tick(input.len as u64)?;
            let rows = crate::window::compute_windows(input.to_rows(), calls, ctx)?;
            Ok(Batch::from_rows(&rows, &plan.types))
        }
    }
}

fn two_children(
    plan: &PhysicalPlan,
    catalog: &Catalog,
    ctx: &EvalContext,
    guard: &ExecGuard,
) -> Result<(Batch, Batch)> {
    if plan.children.len() < 2 {
        return Err(Error::Execution(
            "internal: binary operator missing inputs".into(),
        ));
    }
    let l = exec_node(&plan.children[0], catalog, ctx, guard)?;
    let r = exec_node(&plan.children[1], catalog, ctx, guard)?;
    Ok((l, r))
}

/// `Sort`: the input gathered in the order of its key columns.
///
/// The row engine decorates row by row and charges the decoration every
/// [`CHARGE_BATCH`] rows, so the keys are charged chunk by chunk here
/// too, each only once all its keys evaluated: an error and a failed
/// charge surface in the order the row engine meets them. A charge that
/// fails with a spill directory set is the one way into the external
/// sort, which runs over rows: what was charged is released and the row
/// engine sorts the input from the start, decorating and failing the
/// same charge again before it spills.
fn sort(input: Batch, keys: &[SortKey], ctx: &EvalContext, guard: &ExecGuard) -> Result<Batch> {
    guard.tick(input.len as u64)?;
    let exprs: Vec<BoundExpr> = keys.iter().map(|k| k.expr.clone()).collect();
    let (cols, valid, err) = eval_cols(&exprs, &input, ctx);
    let key_batch = Batch::new(cols, input.len);
    let mut charged = 0usize;
    let mut charge = |rows: Range<usize>| -> Result<bool> {
        let bytes = batch_rows_bytes(&key_batch.slice(rows));
        match guard.charge(bytes) {
            Ok(()) => {
                charged += bytes;
                Ok(true)
            }
            Err(e) if guard.spill_to(&e).is_none() => Err(e),
            Err(_) => {
                guard.memory().release(charged + bytes);
                Ok(false)
            }
        }
    };
    let full = valid / CHARGE_BATCH * CHARGE_BATCH;
    let mut fits = true;
    for at in (0..full).step_by(CHARGE_BATCH) {
        fits = charge(at..at + CHARGE_BATCH)?;
        if !fits {
            break;
        }
    }
    if fits {
        if let Some(e) = err {
            return Err(e);
        }
        fits = charge(full..input.len)?;
    }
    if !fits {
        let rows = exec::sort_rows(input.to_rows(), keys, ctx, guard)?;
        return Ok(Batch::from_rows(&rows, &input.types()));
    }
    let desc: Vec<bool> = keys.iter().map(|k| k.desc).collect();
    Ok(input.gather(&sort_order(&key_batch, &desc)))
}

// ---------------------------------------------------------------------------
// Expression evaluation: kernels + replay
// ---------------------------------------------------------------------------

/// Sparse scratch row for replaying expressions through the oracle's
/// `BoundExpr::eval`: only the referenced column slots are filled.
struct ScratchRow {
    row: Row,
    idxs: Vec<usize>,
}

impl ScratchRow {
    fn new(expr: &BoundExpr, batch: &Batch) -> Self {
        let mut idxs = Vec::new();
        expr.column_indexes(&mut idxs);
        idxs.sort_unstable();
        idxs.dedup();
        idxs.retain(|&i| i < batch.width());
        ScratchRow {
            row: vec![Value::Null; batch.width()],
            idxs,
        }
    }

    #[inline]
    fn load(&mut self, batch: &Batch, i: usize) {
        for &c in &self.idxs {
            self.row[c] = batch.cols[c].value(i);
        }
    }
}

/// A column's oracle values up to (not including) the first erroring
/// row, plus that error at its exact position.
type Partial = (Col, Option<(usize, Error)>);

/// Evaluate an expression over a batch: kernel when possible, replayed
/// row-at-a-time otherwise. A replay that errors keeps the value prefix
/// computed before the error, so callers that interleave other per-row
/// work (join probes, aggregate pushes) can reproduce the oracle's
/// error order.
fn eval_col_partial(expr: &BoundExpr, batch: &Batch, ctx: &EvalContext) -> Partial {
    if let Some(col) = eval_kernel(expr, batch) {
        return (col, None);
    }
    let mut scratch = ScratchRow::new(expr, batch);
    let mut b = ColumnBuilder::with_capacity(expr.result_type(&batch.types()), batch.len);
    let mut err = None;
    for i in 0..batch.len {
        scratch.load(batch, i);
        match expr.eval(&scratch.row, ctx) {
            Ok(v) => b.push(&v),
            Err(e) => {
                err = Some((i, e));
                break;
            }
        }
    }
    (Col::new(b.finish()), err)
}

/// Evaluate several expressions column-at-a-time. The oracle evaluates
/// row-major (for each row, each expression left to right), so its
/// first error is the lexicographic minimum over (row, expression
/// index). Returns the columns, the number of leading rows valid in all
/// of them, and that error.
fn eval_cols(
    exprs: &[BoundExpr],
    batch: &Batch,
    ctx: &EvalContext,
) -> (Vec<Col>, usize, Option<Error>) {
    let mut parts: Vec<Partial> = exprs.iter().map(|e| eval_col_partial(e, batch, ctx)).collect();
    let first = parts
        .iter()
        .enumerate()
        .filter_map(|(k, (_, err))| err.as_ref().map(|(row, _)| (*row, k)))
        .min();
    let err = first.map(|(_, k)| parts[k].1.take().expect("error recorded").1);
    let cols = parts.into_iter().map(|(col, _)| col).collect();
    (cols, first.map_or(batch.len, |(row, _)| row), err)
}

/// `Compute Scalar` over a batch.
pub(crate) fn compute_batch(exprs: &[BoundExpr], input: &Batch, ctx: &EvalContext) -> Result<Batch> {
    match eval_cols(exprs, input, ctx) {
        (cols, _, None) => Ok(Batch::new(cols, input.len)),
        (_, _, Some(e)) => Err(e),
    }
}

/// Evaluate a predicate over a batch into a selection vector of
/// surviving row positions, reproducing the oracle's first error
/// (whether an evaluation error or a truth-coercion error).
pub(crate) fn eval_filter(expr: &BoundExpr, batch: &Batch, ctx: &EvalContext) -> Result<Vec<u32>> {
    let bs = BATCH_SIZE;
    let mut sel = Vec::new();
    let mut scratch: Option<ScratchRow> = None;
    let mut start = 0usize;
    while start < batch.len {
        let end = (start + bs).min(batch.len);
        let chunk = batch.slice(start..end);
        match eval_kernel(expr, &chunk) {
            Some(col) => truth_select(&col, chunk.len, start, &mut sel)?,
            None => {
                // Replay the chunk row-at-a-time, interleaving
                // evaluation and truth coercion exactly like the
                // oracle's per-row `eval_predicate` loop.
                let scratch = scratch.get_or_insert_with(|| ScratchRow::new(expr, batch));
                for i in start..end {
                    scratch.load(batch, i);
                    if crate::expr::truth(&expr.eval(&scratch.row, ctx)?)?.unwrap_or(false) {
                        sel.push(i as u32);
                    }
                }
            }
        }
        start = end;
    }
    Ok(sel)
}

/// Map a kernel-produced predicate column to selected positions,
/// erroring on the first *valid* non-boolean value (the kernel's values
/// are exactly the oracle's, so position and message match).
fn truth_select(col: &Col, len: usize, base: usize, sel: &mut Vec<u32>) -> Result<()> {
    match &col.vec.data {
        ColumnData::Bool(v) => {
            for i in 0..len {
                if col.is_valid(i) && v[col.off + i] {
                    sel.push((base + i) as u32);
                }
            }
        }
        ColumnData::Int(v) => {
            for i in 0..len {
                if col.is_valid(i) && v[col.off + i] != 0 {
                    sel.push((base + i) as u32);
                }
            }
        }
        // No other type is boolean: the first valid cell is the error.
        _ => {
            if let Some(i) = (0..len).find(|&i| col.is_valid(i)) {
                let text = col.value(i).to_text();
                return Err(Error::Execution(format!("'{text}' is not a boolean")));
            }
        }
    }
    Ok(())
}

/// Compile-and-run an expression kernel over a batch. `None` means
/// "fall back to replay": either the expression shape is unsupported
/// or a row-level error occurred mid-loop (the replay reproduces the
/// oracle's exact error — or its absence, when the error was a phantom
/// of non-short-circuited `AND`/`OR` evaluation).
fn eval_kernel(expr: &BoundExpr, batch: &Batch) -> Option<Col> {
    let n = batch.len;
    match expr {
        BoundExpr::Column(i) => batch.cols.get(*i).cloned(),
        BoundExpr::Literal(v) => Some(Col::broadcast(v, expr.result_type(&[]), n)),
        BoundExpr::Neg(e) => neg_kernel(&eval_kernel(e, batch)?, n),
        BoundExpr::Not(e) => {
            let t = truth_col(&eval_kernel(e, batch)?, n)?;
            Some(tri_to_col(t.into_iter().map(|b| b.map(|x| !x)).collect()))
        }
        BoundExpr::IsNull { expr, negated } => {
            let c = eval_kernel(expr, batch)?;
            let out: Vec<bool> = (0..n).map(|i| c.is_valid(i) == *negated).collect();
            Some(Col::new(ColumnVec {
                data: ColumnData::Bool(out),
                validity: None,
            }))
        }
        BoundExpr::Binary { left, op, right } => {
            use BinaryOp::*;
            match op {
                And | Or => {
                    // Evaluated non-progressively over the full batch;
                    // the oracle short-circuits (skipping errors on the
                    // unevaluated side), so any kernel abort here may be
                    // a phantom — the replay is authoritative.
                    let lt = truth_col(&eval_kernel(left, batch)?, n)?;
                    let rt = truth_col(&eval_kernel(right, batch)?, n)?;
                    let tri = lt
                        .into_iter()
                        .zip(rt)
                        .map(|(a, b)| match op {
                            And => match (a, b) {
                                (Some(false), _) | (_, Some(false)) => Some(false),
                                (Some(true), Some(true)) => Some(true),
                                _ => None,
                            },
                            _ => match (a, b) {
                                (Some(true), _) | (_, Some(true)) => Some(true),
                                (Some(false), Some(false)) => Some(false),
                                _ => None,
                            },
                        })
                        .collect();
                    Some(tri_to_col(tri))
                }
                Eq | NotEq | Lt | LtEq | Gt | GtEq => {
                    let l = eval_kernel(left, batch)?;
                    let r = eval_kernel(right, batch)?;
                    cmp_kernel(*op, &l, &r, n)
                }
                Add | Sub | Mul | Div | Mod => {
                    let l = eval_kernel(left, batch)?;
                    let r = eval_kernel(right, batch)?;
                    arith_kernel(*op, &l, &r, n)
                }
                Concat => None,
            }
        }
        _ => None,
    }
}

/// Three-valued truth view of a column. `None` aborts the kernel: some
/// valid value is not boolean-coercible (the oracle would error there
/// unless short-circuited away — replay decides).
fn truth_col(col: &Col, n: usize) -> Option<Vec<Option<bool>>> {
    let mut out = Vec::with_capacity(n);
    match &col.vec.data {
        ColumnData::Bool(v) => {
            for i in 0..n {
                out.push(col.is_valid(i).then(|| v[col.off + i]));
            }
        }
        ColumnData::Int(v) => {
            for i in 0..n {
                out.push(col.is_valid(i).then(|| v[col.off + i] != 0));
            }
        }
        // No other type is boolean: only an all-NULL column is.
        _ if (0..n).any(|i| col.is_valid(i)) => return None,
        _ => out.resize(n, None),
    }
    Some(out)
}

/// Pack a three-valued boolean vector into a `Bool` column.
fn tri_to_col(tri: Vec<Option<bool>>) -> Col {
    let n = tri.len();
    let any_null = tri.iter().any(Option::is_none);
    let mut data = Vec::with_capacity(n);
    let validity = if any_null {
        let mut bm = Bitmap::new_null(n);
        for (i, t) in tri.iter().enumerate() {
            match t {
                Some(b) => {
                    bm.set(i, true);
                    data.push(*b);
                }
                None => data.push(false),
            }
        }
        Some(bm)
    } else {
        data.extend(tri.into_iter().map(|t| t.expect("no nulls")));
        None
    };
    Col::new(ColumnVec {
        data: ColumnData::Bool(data),
        validity,
    })
}

fn neg_kernel(c: &Col, n: usize) -> Option<Col> {
    let validity = one_validity(c, n);
    match &c.vec.data {
        ColumnData::Int(v) => {
            // `i64::MIN` has no negation: the replay reports the overflow.
            let data = (0..n)
                .map(|i| if c.is_valid(i) { v[c.off + i].checked_neg() } else { Some(0) })
                .collect::<Option<_>>()?;
            Some(Col::new(ColumnVec {
                data: ColumnData::Int(data),
                validity,
            }))
        }
        ColumnData::Float(v) => {
            let data = (0..n)
                .map(|i| if c.is_valid(i) { -v[c.off + i] } else { 0.0 })
                .collect();
            Some(Col::new(ColumnVec {
                data: ColumnData::Float(data),
                validity,
            }))
        }
        _ => None,
    }
}

fn one_validity(c: &Col, n: usize) -> Option<Bitmap> {
    c.vec.validity.as_ref()?;
    let mut bm = Bitmap::new_null(n);
    for i in 0..n {
        bm.set(i, c.is_valid(i));
    }
    Some(bm)
}

fn combined_validity(l: &Col, r: &Col, n: usize) -> Option<Bitmap> {
    if l.vec.validity.is_none() && r.vec.validity.is_none() {
        return None;
    }
    let mut bm = Bitmap::new_null(n);
    for i in 0..n {
        bm.set(i, l.is_valid(i) && r.is_valid(i));
    }
    Some(bm)
}

/// Numeric column view: both int and float read as their exact `f64`
/// image, matching the oracle's mixed-numeric arithmetic/comparison.
enum NumSlice<'a> {
    I(&'a [i64]),
    F(&'a [f64]),
}

impl NumSlice<'_> {
    #[inline]
    fn get(&self, i: usize) -> f64 {
        match self {
            NumSlice::I(v) => v[i] as f64,
            NumSlice::F(v) => v[i],
        }
    }
}

fn num_slice(c: &Col) -> Option<NumSlice<'_>> {
    match &c.vec.data {
        ColumnData::Int(v) => Some(NumSlice::I(v)),
        ColumnData::Float(v) => Some(NumSlice::F(v)),
        _ => None,
    }
}

fn arith_kernel(op: BinaryOp, l: &Col, r: &Col, n: usize) -> Option<Col> {
    use BinaryOp::*;
    let validity = combined_validity(l, r, n);
    let valid = |i: usize| l.is_valid(i) && r.is_valid(i);
    match (&l.vec.data, &r.vec.data) {
        (ColumnData::Int(a), ColumnData::Int(b)) => {
            let mut out = Vec::with_capacity(n);
            for i in 0..n {
                if !valid(i) {
                    out.push(0);
                    continue;
                }
                let (x, y) = (a[l.off + i], b[r.off + i]);
                out.push(match op {
                    Add => x.checked_add(y)?,
                    Sub => x.checked_sub(y)?,
                    Mul => x.checked_mul(y)?,
                    Div => {
                        if y == 0 {
                            return None;
                        }
                        x / y
                    }
                    Mod => {
                        if y == 0 {
                            return None;
                        }
                        x % y
                    }
                    _ => return None,
                });
            }
            Some(Col::new(ColumnVec {
                data: ColumnData::Int(out),
                validity,
            }))
        }
        (ColumnData::Date(a), ColumnData::Int(b)) if matches!(op, Add | Sub) => {
            let mut out = Vec::with_capacity(n);
            for i in 0..n {
                if !valid(i) {
                    out.push(0);
                    continue;
                }
                let (d, m) = (a[l.off + i], b[r.off + i] as i32);
                out.push(if matches!(op, Add) { d + m } else { d - m });
            }
            Some(Col::new(ColumnVec {
                data: ColumnData::Date(out),
                validity,
            }))
        }
        (ColumnData::Date(a), ColumnData::Date(b)) if matches!(op, Sub) => {
            let mut out = Vec::with_capacity(n);
            for i in 0..n {
                if !valid(i) {
                    out.push(0);
                    continue;
                }
                out.push(i64::from(a[l.off + i]) - i64::from(b[r.off + i]));
            }
            Some(Col::new(ColumnVec {
                data: ColumnData::Int(out),
                validity,
            }))
        }
        _ => {
            // Mixed numeric (at least one float side): f64 arithmetic,
            // like the oracle's cast-to-Float path. Anything else
            // (text concat via `+`, invalid date ops) replays.
            let a = num_slice(l)?;
            let b = num_slice(r)?;
            let mut out = Vec::with_capacity(n);
            for i in 0..n {
                if !valid(i) {
                    out.push(0.0);
                    continue;
                }
                let (x, y) = (a.get(l.off + i), b.get(r.off + i));
                out.push(match op {
                    Add => x + y,
                    Sub => x - y,
                    Mul => x * y,
                    Div => {
                        if y == 0.0 {
                            return None;
                        }
                        x / y
                    }
                    Mod => {
                        if y == 0.0 {
                            return None;
                        }
                        x % y
                    }
                    _ => return None,
                });
            }
            Some(Col::new(ColumnVec {
                data: ColumnData::Float(out),
                validity,
            }))
        }
    }
}

fn ord_to_bool(op: BinaryOp, ord: Ordering) -> bool {
    use BinaryOp::*;
    match op {
        Eq => ord == Ordering::Equal,
        NotEq => ord != Ordering::Equal,
        Lt => ord == Ordering::Less,
        LtEq => ord != Ordering::Greater,
        Gt => ord == Ordering::Greater,
        GtEq => ord != Ordering::Less,
        _ => unreachable!("not a comparison"),
    }
}

fn cmp_kernel(op: BinaryOp, l: &Col, r: &Col, n: usize) -> Option<Col> {
    let validity = combined_validity(l, r, n);
    let valid = |i: usize| l.is_valid(i) && r.is_valid(i);
    let mut out = Vec::with_capacity(n);
    match (&l.vec.data, &r.vec.data) {
        // Int × Int compares exactly (the oracle's `sql_cmp` uses
        // `i64::cmp` for this pair, not the f64 image).
        (ColumnData::Int(a), ColumnData::Int(b)) => {
            for i in 0..n {
                out.push(valid(i) && ord_to_bool(op, a[l.off + i].cmp(&b[r.off + i])));
            }
        }
        (ColumnData::Text { codes: ca, dict: da }, ColumnData::Text { codes: cb, dict: db }) => {
            for i in 0..n {
                out.push(
                    valid(i)
                        && ord_to_bool(
                            op,
                            da[ca[l.off + i] as usize].as_str().cmp(db[cb[r.off + i] as usize].as_str()),
                        ),
                );
            }
        }
        (ColumnData::Date(a), ColumnData::Date(b)) => {
            for i in 0..n {
                out.push(valid(i) && ord_to_bool(op, a[l.off + i].cmp(&b[r.off + i])));
            }
        }
        (ColumnData::Bool(a), ColumnData::Bool(b)) => {
            for i in 0..n {
                out.push(valid(i) && ord_to_bool(op, a[l.off + i].cmp(&b[r.off + i])));
            }
        }
        _ => {
            // Mixed numeric via f64 `partial_cmp`; NaN has no ordering
            // under `sql_cmp`, which is an error in the oracle — abort
            // to replay. Cross-group pairs (text coercions) replay too.
            let a = num_slice(l)?;
            let b = num_slice(r)?;
            for i in 0..n {
                if !valid(i) {
                    out.push(false);
                    continue;
                }
                let ord = a.get(l.off + i).partial_cmp(&b.get(r.off + i))?;
                out.push(ord_to_bool(op, ord));
            }
        }
    }
    Some(Col::new(ColumnVec {
        data: ColumnData::Bool(out),
        validity,
    }))
}

// ---------------------------------------------------------------------------
// Batch operators: aggregate + hash join, over `crate::hashtable`
// ---------------------------------------------------------------------------
//
// `crate::parallel` drives both, a morsel at a time (the whole input at
// DOP 1), against shared read-only state (`JoinBuild`) or into
// per-morsel state merged in morsel order (`Groups`).

/// One group's fresh accumulators.
pub(crate) fn new_accs(aggs: &[AggCall]) -> Vec<Accumulator> {
    aggs.iter().map(|a| Accumulator::new(a.func, a.distinct)).collect()
}

/// Non-null positions of the column's first `n` rows.
fn valid_count(c: &Col, n: usize) -> usize {
    match &c.vec.validity {
        None => n,
        Some(_) => (0..n).filter(|&i| c.is_valid(i)).count(),
    }
}

/// The kernel-evaluated feed of every aggregate (`None` for
/// `COUNT(*)`), if all of them can be fed straight off typed columns
/// without a chance of error. Kernel success already guarantees
/// oracle-identical cell values, `COUNT` ignores its input beyond
/// null-ness, and [`Accumulator::push`] is infallible for `Int`/`Float`
/// (an integer SUM can only overflow at `finish`) — so bailing to
/// [`feed_exact`] (`None`) covers everything else: DISTINCT, text
/// feeds (parse errors), and expressions the kernels cannot compile.
fn typed_feeds(input: &Batch, aggs: &[AggCall]) -> Option<Vec<Option<Col>>> {
    let mut cols = Vec::with_capacity(aggs.len());
    for a in aggs {
        if a.distinct {
            return None;
        }
        match &a.arg {
            // A missing argument behaves as a non-null `1` per row; only
            // COUNT reduces that to a count (the planner never produces
            // other argument-less calls, but the exact path defines
            // their semantics).
            None if !matches!(a.func, AggFunc::Count) => return None,
            None => cols.push(None),
            Some(e) => {
                let c = eval_kernel(e, input)?;
                match &c.vec.data {
                    ColumnData::Int(_) | ColumnData::Float(_) => {}
                    // COUNT only looks at null-ness, which the validity
                    // bitmap decides for every layout.
                    _ if matches!(a.func, AggFunc::Count) => {}
                    _ => return None,
                }
                cols.push(Some(c));
            }
        }
    }
    Some(cols)
}

/// Feed [`typed_feeds`] columns into `accs` (`aggs.len()` accumulators
/// per group), row `i` into group `gids[i]` — or everything into the
/// one group of a scalar aggregate, where counts go in bulk. Rows reach
/// each accumulator in input order, which within a group is the order
/// the oracle's stable sort-then-feed produces: float sums agree to the
/// bit.
fn feed_typed(
    feeds: &[Option<Col>],
    aggs: &[AggCall],
    n: usize,
    gids: Option<&[u32]>,
    accs: &mut [Accumulator],
) {
    let na = aggs.len();
    for (ai, (a, feed)) in aggs.iter().zip(feeds).enumerate() {
        let at = |i: usize| gids.map_or(0, |g| g[i] as usize) * na + ai;
        let counts = matches!(a.func, AggFunc::Count);
        match feed {
            None if gids.is_none() => accs[ai].add_count(n as i64),
            Some(c) if counts && gids.is_none() => accs[ai].add_count(valid_count(c, n) as i64),
            None => (0..n).for_each(|i| accs[at(i)].add_count(1)),
            Some(c) if counts => {
                (0..n).filter(|&i| c.is_valid(i)).for_each(|i| accs[at(i)].add_count(1));
            }
            Some(c) => each_number(c, n, |i, v| {
                accs[at(i)].push(&v).expect("numeric feed cannot fail");
            }),
        }
    }
}

/// Call `f(row, value)` for every non-null cell of an `Int` or `Float`
/// column's first `n` rows.
fn each_number(c: &Col, n: usize, mut f: impl FnMut(usize, Value)) {
    match &c.vec.data {
        ColumnData::Int(vals) => {
            for (i, &x) in vals[c.off..c.off + n].iter().enumerate() {
                if c.is_valid(i) {
                    f(i, Value::Int(x));
                }
            }
        }
        ColumnData::Float(vals) => {
            for (i, &x) in vals[c.off..c.off + n].iter().enumerate() {
                if c.is_valid(i) {
                    f(i, Value::Float(x));
                }
            }
        }
        _ => unreachable!("typed_feeds admits numeric layouts only"),
    }
}

/// Feed `input` row by row, aggregate by aggregate — the oracle's own
/// loop, so the first argument-evaluation or accumulation error is the
/// one it reports. The caller passes rows in the order the oracle feeds
/// them, a group's rows together; like the oracle, a group is finished
/// (its SUM overflow reported) before the next one is fed.
fn feed_exact(
    input: &Batch,
    aggs: &[AggCall],
    gids: Option<&[u32]>,
    accs: &mut [Accumulator],
    ctx: &EvalContext,
) -> Result<()> {
    let mut args: Vec<Option<Partial>> = aggs
        .iter()
        .map(|a| a.arg.as_ref().map(|e| eval_col_partial(e, input, ctx)))
        .collect();
    let n = aggs.len();
    for pos in 0..input.len {
        let base = gids.map_or(0, |g| g[pos] as usize) * n;
        if let Some(prev) = gids.filter(|g| pos > 0 && g[pos - 1] != g[pos]).map(|g| g[pos - 1] as usize) {
            accs[prev * n..(prev + 1) * n].iter().try_for_each(|a| a.finish().map(drop))?;
        }
        for (ai, arg) in args.iter_mut().enumerate() {
            let v = match arg {
                None => Value::Int(1), // COUNT(*)
                Some((_, err)) if err.as_ref().is_some_and(|(at, _)| *at == pos) => {
                    return Err(err.take().expect("checked above").1);
                }
                Some((col, _)) => col.value(pos),
            };
            accs[base + ai].push(&v)?;
        }
    }
    Ok(())
}

/// One input's scalar-aggregate state (the whole input at DOP 1, a
/// morsel above it).
pub(crate) fn scalar_partial(
    input: &Batch,
    aggs: &[AggCall],
    ctx: &EvalContext,
    guard: &ExecGuard,
) -> Result<Vec<Accumulator>> {
    guard.tick(input.len as u64)?;
    let mut accs = new_accs(aggs);
    match typed_feeds(input, aggs) {
        Some(feeds) => feed_typed(&feeds, aggs, input.len, None, &mut accs),
        None => feed_exact(input, aggs, None, &mut accs, ctx)?,
    }
    Ok(accs)
}

/// One input's grouped-aggregation state: groups in first-appearance
/// order, each with the key of its first row (kept in columns, so text
/// keys stay dictionary codes) and `aggs.len()` accumulators.
pub(crate) struct Groups {
    keys: Batch,
    accs: Vec<Accumulator>,
}

impl Groups {
    /// The groups as output columns of `types`: see [`emit_groups`].
    pub(crate) fn finish(self, types: &[DataType]) -> Result<Batch> {
        emit_groups(self.keys, &self.accs, types)
    }
}

/// Aggregate output as columns of `types`: each group's key (one row of
/// `keys` per group), then its finished accumulators. Groups come out,
/// and are finished, in the `cmp_rows` order of their keys, the order
/// the oracle's sort meets them in; keys are distinct, so it is total.
/// A scalar aggregate is one group with a key of no columns.
pub(crate) fn emit_groups(keys: Batch, accs: &[Accumulator], types: &[DataType]) -> Result<Batch> {
    let order = sort_order(&keys, &[]);
    let mut out: Vec<ColumnBuilder> = types[keys.width()..]
        .iter()
        .map(|&ty| ColumnBuilder::with_capacity(ty, keys.len))
        .collect();
    let na = out.len();
    for &g in &order {
        let g = g as usize;
        for (b, acc) in out.iter_mut().zip(&accs[g * na..(g + 1) * na]) {
            b.push(&acc.finish()?);
        }
    }
    let mut cols = keys.gather(&order).cols;
    cols.extend(out.into_iter().map(|b| Col::new(b.finish())));
    Ok(Batch::new(cols, keys.len))
}

/// Group one input: evaluate keys, number the groups through the hash
/// table, feed the accumulators. State is charged per group held, not
/// per input row.
pub(crate) fn group_batch(
    input: &Batch,
    group: &[BoundExpr],
    aggs: &[AggCall],
    ctx: &EvalContext,
    guard: &ExecGuard,
) -> Result<Groups> {
    guard.fault(FaultSite::AggMerge)?;
    let n = input.len;
    guard.tick(n as u64)?;
    // Key errors mirror the oracle's row-major order and surface before
    // the governor charge.
    let (key_cols, _, err) = eval_cols(group, input, ctx);
    if let Some(e) = err {
        return Err(e);
    }
    let gids = GroupTable::new(group.len()).assign(&key_cols, n);
    let mut first: Vec<u32> = Vec::new();
    for (i, &g) in gids.iter().enumerate() {
        if g as usize == first.len() {
            first.push(i as u32);
        }
    }
    let keys = Batch::new(key_cols, n).gather(&first);
    guard.charge(batch_rows_bytes(&keys))?;
    let mut accs: Vec<Accumulator> = first.iter().flat_map(|_| new_accs(aggs)).collect();
    match typed_feeds(input, aggs) {
        Some(feeds) => feed_typed(&feeds, aggs, n, Some(&gids), &mut accs),
        None => {
            // The oracle sorts rows by key (stably) and feeds them in
            // that order, so that is the order its feed errors come in:
            // rank the groups, counting-sort the rows by rank.
            let by_key = sort_order(&keys, &[]);
            let mut size = vec![0u32; first.len()];
            for &g in &gids {
                size[g as usize] += 1;
            }
            let mut next = vec![0u32; first.len()];
            let mut filled = 0;
            for &g in &by_key {
                next[g as usize] = filled;
                filled += size[g as usize];
            }
            let mut order = vec![0u32; n];
            for (i, &g) in gids.iter().enumerate() {
                order[next[g as usize] as usize] = i as u32;
                next[g as usize] += 1;
            }
            let sorted_gids: Vec<u32> = order.iter().map(|&i| gids[i as usize]).collect();
            feed_exact(&input.gather(&order), aggs, Some(&sorted_gids), &mut accs, ctx)?;
        }
    }
    Ok(Groups { keys, accs })
}

/// Merges per-morsel [`Groups`] in morsel order: a key met before keeps
/// its first representative and folds the accumulators in, a new key is
/// appended — the stable order a serial run over the concatenated
/// morsels produces.
pub(crate) struct GroupMerger {
    table: GroupTable,
    /// Per part, the keys that opened a group, in group order.
    keys: Vec<Batch>,
    groups: usize,
    accs: Vec<Accumulator>,
    n_aggs: usize,
}

impl GroupMerger {
    pub(crate) fn new(n_keys: usize, n_aggs: usize) -> Self {
        GroupMerger {
            table: GroupTable::new(n_keys),
            keys: Vec::new(),
            groups: 0,
            accs: Vec::new(),
            n_aggs,
        }
    }

    pub(crate) fn push(&mut self, part: Groups) -> Result<()> {
        let ids = self.table.assign(&part.keys.cols, part.keys.len);
        let mut accs = part.accs.into_iter();
        let mut opened = Vec::new();
        for (g, id) in ids.into_iter().enumerate() {
            let accs = accs.by_ref().take(self.n_aggs);
            if id as usize == self.groups {
                self.groups += 1;
                opened.push(g as u32);
                self.accs.extend(accs);
            } else {
                let base = id as usize * self.n_aggs;
                for (mine, theirs) in self.accs[base..].iter_mut().zip(accs) {
                    mine.merge(&theirs)?;
                }
            }
        }
        self.keys.push(part.keys.gather(&opened));
        Ok(())
    }

    /// The merged groups as output columns of `types`.
    pub(crate) fn finish(self, types: &[DataType]) -> Result<Batch> {
        let keys = Batch::concat(&self.keys, &types[..types.len() - self.n_aggs]);
        emit_groups(keys, &self.accs, types)
    }
}

/// A hash join's configuration (the `HashJoin` / `MergeJoin` payload).
pub(crate) struct JoinSpec<'a> {
    pub kind: JoinKind,
    pub left_keys: &'a [BoundExpr],
    pub right_keys: &'a [BoundExpr],
    pub residual: Option<&'a BoundExpr>,
    pub left_width: usize,
    pub right_width: usize,
}

/// The build side of a hash join: the right input, its key table, and —
/// for Right/Full joins — which build rows a probe has matched. Shared
/// read-only by morsel workers (the flags are per-element atomics).
pub(crate) struct JoinBuild {
    pub batch: Batch,
    table: JoinTable,
    matched: Vec<AtomicBool>,
}

impl JoinBuild {
    /// Evaluate the build keys (row-major first error) and index them.
    /// The caller has charged `right` to the governor.
    pub(crate) fn new(
        right: Batch,
        spec: &JoinSpec,
        ctx: &EvalContext,
        guard: &ExecGuard,
    ) -> Result<JoinBuild> {
        guard.tick(right.len as u64)?;
        let (keys, _, err) = eval_cols(spec.right_keys, &right, ctx);
        if let Some(e) = err {
            return Err(e);
        }
        let table = JoinTable::build(&keys, right.len);
        let tracked = matches!(spec.kind, JoinKind::Right | JoinKind::Full);
        let matched = (0..if tracked { right.len } else { 0 })
            .map(|_| AtomicBool::new(false))
            .collect();
        Ok(JoinBuild { batch: right, table, matched })
    }

    /// Probe `left`: the join's output as `(probe row, build row)`
    /// selection vectors in probe order, each row's matches in build
    /// order, [`NULL_ROW`] on the build side of an unmatched Left/Full
    /// row. Residual errors and a left-key error surface in the order
    /// the oracle's per-row loop meets them.
    pub(crate) fn probe(
        &self,
        left: &Batch,
        spec: &JoinSpec,
        ctx: &EvalContext,
        guard: &ExecGuard,
    ) -> Result<(Vec<u32>, Vec<u32>)> {
        guard.tick(left.len as u64)?;
        // A left-key error at row L must not preempt a residual error at
        // an earlier probe row: probe the pre-error prefix first, then
        // raise.
        let (keys, limit, key_err) = eval_cols(spec.left_keys, left, ctx);
        let ids = self.table.lookup(&keys, limit);
        let pad = matches!(spec.kind, JoinKind::Left | JoinKind::Full);
        let residual = spec.residual.map(|p| {
            let mut idxs = Vec::new();
            p.column_indexes(&mut idxs);
            (p, live_mask(&idxs, left.width() + self.batch.width()))
        });
        let (mut lsel, mut rsel) = (Vec::new(), Vec::new());
        let mut from = 0usize;
        while from < limit {
            let (mut pl, mut pr) = (Vec::new(), Vec::new());
            let next = self.table.pairs(&ids, from, &mut pl, &mut pr);
            guard.tick(pl.len() as u64)?;
            if let Some((p, live)) = &residual {
                let candidates = combine(left, &self.batch, &pl, &pr, Some(live));
                let keep = eval_filter(p, &candidates, ctx)?;
                pl = keep.iter().map(|&k| pl[k as usize]).collect();
                pr = keep.iter().map(|&k| pr[k as usize]).collect();
            }
            if !self.matched.is_empty() {
                for &r in &pr {
                    self.matched[r as usize].store(true, AtomicOrdering::Relaxed);
                }
            }
            if pad {
                let mut k = 0usize;
                for row in from as u32..next as u32 {
                    if pl.get(k) != Some(&row) {
                        lsel.push(row);
                        rsel.push(NULL_ROW);
                    }
                    while pl.get(k) == Some(&row) {
                        lsel.push(row);
                        rsel.push(pr[k]);
                        k += 1;
                    }
                }
            } else {
                lsel.append(&mut pl);
                rsel.append(&mut pr);
            }
            from = next;
        }
        match key_err {
            Some(e) => Err(e),
            None => Ok((lsel, rsel)),
        }
    }

    /// Build rows no probe matched (Right/Full joins; empty otherwise),
    /// in build order. Only meaningful once every probe has run.
    pub(crate) fn unmatched(&self) -> Vec<u32> {
        self.matched
            .iter()
            .enumerate()
            .filter(|(_, m)| !m.load(AtomicOrdering::Relaxed))
            .map(|(r, _)| r as u32)
            .collect()
    }
}

/// A `width`-column mask with the listed columns set.
pub(crate) fn live_mask(idxs: &[usize], width: usize) -> Vec<bool> {
    let mut mask = vec![false; width];
    for &i in idxs.iter().filter(|&&i| i < width) {
        mask[i] = true;
    }
    mask
}

/// Materialize join output: `left`'s columns gathered by `lsel` next to
/// `right`'s by `rsel`, restricted to the `live` columns of the
/// combined row when the consumer named them.
pub(crate) fn combine(
    left: &Batch,
    right: &Batch,
    lsel: &[u32],
    rsel: &[u32],
    live: Option<&[bool]>,
) -> Batch {
    let (ll, rl) = match live {
        Some(m) => (Some(&m[..left.width()]), Some(&m[left.width()..])),
        None => (None, None),
    };
    let mut cols = left.gather_live(lsel, ll).cols;
    cols.extend(right.gather_live(rsel, rl).cols);
    Batch::new(cols, lsel.len())
}

// ---------------------------------------------------------------------------
// EXPLAIN annotation
// ---------------------------------------------------------------------------

/// Mark the operators the vectorized engine executes in batch mode
/// (`batchMode: true` in EXPLAIN): every data operator with a batch
/// implementation, whether it runs serially or as a stage of a morsel
/// pipeline under a `Gather`. Exchanges carry no mark.
pub fn annotate_batch_mode(plan: &mut PhysicalPlan) {
    plan.batch_mode = matches!(
        plan.op,
        PhysOp::Scan { .. }
            | PhysOp::CachedScan { .. }
            | PhysOp::Seek { .. }
            | PhysOp::Filter { .. }
            | PhysOp::Compute { .. }
            | PhysOp::Aggregate { .. }
            | PhysOp::Top { .. }
            | PhysOp::HashJoin { .. }
            | PhysOp::MergeJoin { .. }
    );
    plan.children.iter_mut().for_each(annotate_batch_mode);
}

#[cfg(test)]
mod tests {
    //! Randomized null-bitmap kernel oracle: batches of typed columns
    //! with nulls are pushed through the filter / comparison /
    //! arithmetic / aggregation kernels and compared against naive
    //! per-row [`BoundExpr::eval`] — the row engine's own code — cell
    //! by cell and error by error. The generators deliberately meet
    //! numeric type groups (`Int` × `Float` columns, NaN literals,
    //! numeric and non-numeric text) to cover the seams between
    //! `Value::total_cmp` (the builder/sort order, NaN-last) and
    //! `sql_cmp` (the comparison kernels' semantics, where NaN has no
    //! order and cross-group pairs coerce through text).

    use super::*;
    use crate::aggregate::AggFunc;
    use crate::cost::Estimates;
    use proptest::prelude::*;
    use std::sync::Arc;

    /// `op` over `children`, as the planner would hand it to the executor.
    fn node(op: PhysOp, children: Vec<PhysicalPlan>) -> PhysicalPlan {
        PhysicalPlan {
            op,
            physical_op: String::new(),
            logical_op: String::new(),
            visible: true,
            est: Estimates { rows: 0.0, io: 0.0, cpu: 0.0, row_size: 0.0 },
            filters: Vec::new(),
            expr_ops: Vec::new(),
            columns: Vec::new(),
            degree_of_parallelism: None,
            batch_mode: true,
            types: Vec::new(),
            children,
        }
    }

    /// A leaf handing `batch`'s rows to the operator above it.
    fn leaf(batch: &Batch) -> PhysicalPlan {
        let op = PhysOp::CachedScan { name: "t".into(), batch: Arc::new(batch.clone()) };
        PhysicalPlan { types: batch.types(), ..node(op, Vec::new()) }
    }

    /// A Hash Match over two inputs, run as the serial executor runs it.
    fn hash_join_batch(
        left: Batch,
        right: Batch,
        spec: &JoinSpec,
        ctx: &EvalContext,
        guard: &ExecGuard,
    ) -> Result<Vec<Row>> {
        let op = PhysOp::HashJoin {
            kind: spec.kind,
            left_keys: spec.left_keys.to_vec(),
            right_keys: spec.right_keys.to_vec(),
            residual: spec.residual.cloned(),
            left_width: spec.left_width,
            right_width: spec.right_width,
        };
        let plan = PhysicalPlan { types: [left.types(), right.types()].concat(), ..node(op, vec![leaf(&left), leaf(&right)]) };
        execute(&plan, &Catalog::new(), ctx, guard)
    }

    /// An Aggregate over one input, run as the serial executor runs it.
    fn aggregate_batch(
        input: Batch,
        group: &[BoundExpr],
        aggs: &[AggCall],
        ctx: &EvalContext,
        guard: &ExecGuard,
    ) -> Result<Vec<Row>> {
        let input_types = input.types();
        let arg_type = |a: &AggCall| a.arg.as_ref().map_or(DataType::Int, |e| e.result_type(&input_types));
        let types = group
            .iter()
            .map(|g| g.result_type(&input_types))
            .chain(aggs.iter().map(|a| a.func.result_type(arg_type(a))))
            .collect();
        let op = PhysOp::Aggregate { group: group.to_vec(), aggs: aggs.to_vec(), hash: true };
        let plan = PhysicalPlan { types, ..node(op, vec![leaf(&input)]) };
        execute(&plan, &Catalog::new(), ctx, guard)
    }

    /// Deterministic xorshift so every case derives from one seed the
    /// proptest harness prints on failure.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x.max(1);
            x
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// A literal drawn from every type group, including the edge values
    /// the kernels special-case: NaN (no `sql_cmp` order), near-MAX
    /// ints (checked-arithmetic overflow), numeric text (aggregate
    /// parsing, text coercion in comparisons), and empty text.
    fn gen_value(r: &mut Rng) -> Value {
        match r.below(12) {
            0 => Value::Null,
            1 => Value::Bool(r.below(2) == 1),
            2..=4 => Value::Int(r.below(21) as i64 - 10),
            5 => Value::Int(i64::MAX - r.below(3) as i64),
            6 | 7 => Value::Float((r.below(41) as f64 - 20.0) / 4.0),
            8 => Value::Float(f64::NAN),
            9 => Value::Date(r.below(2000) as i32),
            10 => Value::Text(format!("{}", r.below(30))),
            _ => Value::Text(["a", "b", "zz", ""][r.below(4) as usize].into()),
        }
    }

    /// One cell of a column of the given flavor, one per type, with a
    /// ~1-in-5 null rate.
    fn gen_cell(flavor: u8, r: &mut Rng) -> Value {
        if r.below(5) == 0 {
            return Value::Null;
        }
        match flavor {
            0 => Value::Int(r.below(13) as i64 - 6),
            1 => {
                if r.below(10) == 0 {
                    Value::Float(f64::NAN)
                } else {
                    Value::Float((r.below(25) as f64 - 12.0) / 2.0)
                }
            }
            2 => Value::Text(["x", "y", "7", "-3", ""][r.below(5) as usize].into()),
            3 => Value::Date(r.below(300) as i32),
            _ => Value::Bool(r.below(2) == 1),
        }
    }

    const FLAVOR_TYPES: [DataType; 5] =
        [DataType::Int, DataType::Float, DataType::Text, DataType::Date, DataType::Bool];

    fn gen_batch(r: &mut Rng) -> Batch {
        let width = 1 + r.below(3) as usize;
        let n = r.below(40) as usize;
        let flavors: Vec<u8> = (0..width).map(|_| r.below(5) as u8).collect();
        let mut rows: Vec<Row> = (0..n)
            .map(|_| flavors.iter().map(|&f| gen_cell(f, r)).collect())
            .collect();
        // Every third batch opens with an all-NULL row: a text column's
        // dictionary then starts with the builder's "" placeholder, and
        // the real "" cells behind it must still meet "" from the other
        // side of a join.
        if n > 0 && r.below(3) == 0 {
            rows[0] = vec![Value::Null; width];
        }
        let types: Vec<DataType> = flavors.iter().map(|&f| FLAVOR_TYPES[f as usize]).collect();
        Batch::from_rows(&rows, &types)
    }

    /// A random expression over the batch's columns. Covers every
    /// kernel shape (column, literal, Neg/Not/IsNull, AND/OR,
    /// comparisons, arithmetic, Concat) plus the occasional
    /// out-of-range column index (both engines must report it
    /// identically) — anything the kernels cannot compile exercises
    /// the replay path instead.
    fn gen_expr(r: &mut Rng, width: usize, depth: u32) -> BoundExpr {
        use sqlshare_sql::ast::BinaryOp::*;
        if depth == 0 || r.below(3) == 0 {
            return if r.below(2) == 0 {
                // 1-in-16 out-of-range index.
                let i = if r.below(16) == 0 { width + 3 } else { r.below(width as u64) as usize };
                BoundExpr::Column(i)
            } else {
                BoundExpr::Literal(gen_value(r))
            };
        }
        match r.below(10) {
            0 => BoundExpr::Neg(Box::new(gen_expr(r, width, depth - 1))),
            1 => BoundExpr::Not(Box::new(gen_expr(r, width, depth - 1))),
            2 => BoundExpr::IsNull {
                expr: Box::new(gen_expr(r, width, depth - 1)),
                negated: r.below(2) == 1,
            },
            _ => {
                let op = [
                    And, Or, Eq, NotEq, Lt, LtEq, Gt, GtEq, Add, Sub, Mul, Div, Mod, Concat,
                ][r.below(14) as usize];
                BoundExpr::Binary {
                    left: Box::new(gen_expr(r, width, depth - 1)),
                    op,
                    right: Box::new(gen_expr(r, width, depth - 1)),
                }
            }
        }
    }

    /// The governor is charged for what the operators hold: a join's
    /// build side exactly as the row engine charges it (so the Grace
    /// spill threshold does not move), grouped state per group — the
    /// row engine decorates, and charges, every input row.
    #[test]
    fn charges_follow_what_is_held() {
        use crate::memory::{values_bytes, MemoryBudget};
        let ctx = EvalContext::default();
        let budgeted = || ExecGuard::unbounded().with_memory(Arc::new(MemoryBudget::unlimited()));
        let rows: Vec<Row> = (0..200)
            .map(|i| vec![Value::Int(i % 7), Value::Text(format!("t{}", i % 5))])
            .collect();
        let batch = Batch::from_rows(&rows, &[DataType::Int, DataType::Text]);
        let key = [BoundExpr::Column(0)];

        let spec = JoinSpec {
            kind: JoinKind::Inner,
            left_keys: &key,
            right_keys: &key,
            residual: None,
            left_width: 2,
            right_width: 2,
        };
        let (vec_guard, row_guard) = (budgeted(), budgeted());
        hash_join_batch(batch.clone(), batch.clone(), &spec, &ctx, &vec_guard).unwrap();
        exec::hash_join(rows.clone(), rows.clone(), JoinKind::Inner, &key, &key, None, 2, 2, &ctx, &row_guard)
            .unwrap();
        assert_eq!(vec_guard.memory().used(), row_guard.memory().used());
        assert_eq!(vec_guard.memory().used(), crate::vector::rows_bytes(&rows));

        let group = [BoundExpr::Column(1)];
        let aggs = [AggCall { func: AggFunc::Count, arg: None, distinct: false }];
        let (vec_guard, row_guard) = (budgeted(), budgeted());
        let got = aggregate_batch(batch, &group, &aggs, &ctx, &vec_guard).unwrap();
        let want = exec::aggregate(rows, &group, &aggs, &ctx, &row_guard).unwrap();
        assert_eq!(got, want);
        let per_key = values_bytes(&[Value::Text("t0".into())]);
        assert_eq!(vec_guard.memory().used(), 5 * per_key, "one charge per group");
        assert_eq!(row_guard.memory().used(), 200 * per_key, "the oracle charges per input row");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        #[test]
        fn eval_col_matches_row_oracle(seed in proptest::any::<u64>()) {
            let mut r = Rng(seed | 1);
            let ctx = EvalContext::default();
            let batch = gen_batch(&mut r);
            let expr = gen_expr(&mut r, batch.width(), 3);
            let mut oracle_vals = Vec::new();
            let mut oracle_err: Option<(usize, Error)> = None;
            for i in 0..batch.len {
                match expr.eval(&batch.row(i), &ctx) {
                    Ok(v) => oracle_vals.push(v),
                    Err(e) => {
                        oracle_err = Some((i, e));
                        break;
                    }
                }
            }
            let got = match eval_col_partial(&expr, &batch, &ctx) {
                (col, None) => Ok(col),
                (_, Some(err)) => Err(err),
            };
            match (got, oracle_err) {
                (Ok(col), None) => {
                    for (i, want) in oracle_vals.iter().enumerate() {
                        prop_assert_eq!(&col.value(i), want, "cell {} of {:?}", i, expr);
                    }
                }
                (Err((row, err)), Some((orow, oerr))) => {
                    prop_assert_eq!(row, orow, "error row for {:?}", expr);
                    prop_assert_eq!(err, oerr, "error for {:?}", expr);
                }
                (got, want) => {
                    return Err(TestCaseError::fail(format!(
                        "outcome mismatch for {expr:?}: kernel {:?} vs oracle {want:?}",
                        got.map(|_| "rows")
                    )));
                }
            }
        }

        #[test]
        fn eval_filter_matches_row_oracle(seed in proptest::any::<u64>()) {
            let mut r = Rng(seed | 1);
            let ctx = EvalContext::default();
            let batch = gen_batch(&mut r);
            let expr = gen_expr(&mut r, batch.width(), 3);
            // The oracle interleaves evaluation and truth coercion per
            // row, exactly like `exec`'s filter loop.
            let mut oracle_sel: Vec<u32> = Vec::new();
            let mut oracle_err: Option<Error> = None;
            for i in 0..batch.len {
                match expr.eval(&batch.row(i), &ctx).and_then(|v| crate::expr::truth(&v)) {
                    Ok(t) => {
                        if t.unwrap_or(false) {
                            oracle_sel.push(i as u32);
                        }
                    }
                    Err(e) => {
                        oracle_err = Some(e);
                        break;
                    }
                }
            }
            match (eval_filter(&expr, &batch, &ctx), oracle_err) {
                (Ok(sel), None) => prop_assert_eq!(sel, oracle_sel, "selection for {:?}", expr),
                (Err(err), Some(oerr)) => prop_assert_eq!(err, oerr, "error for {:?}", expr),
                (got, want) => {
                    return Err(TestCaseError::fail(format!(
                        "outcome mismatch for {expr:?}: kernel {got:?} vs oracle {want:?}"
                    )));
                }
            }
        }

        #[test]
        fn aggregate_matches_row_oracle(seed in proptest::any::<u64>()) {
            let mut r = Rng(seed | 1);
            let n_keys = r.below(3) as usize;
            check_aggregate(&mut r, n_keys)?;
        }

        /// Always keyed, up to three key expressions: the hash-table
        /// path — group numbering, representative keys, `cmp_rows`
        /// emission order, the sorted-order exact feed and its errors.
        #[test]
        fn grouped_aggregate_matches_row_oracle(seed in proptest::any::<u64>()) {
            let mut r = Rng(seed | 1);
            let n_keys = 1 + r.below(3) as usize;
            check_aggregate(&mut r, n_keys)?;
        }

        /// All four join kinds, with and without a residual, over
        /// random typed / null-riddled / mixed key expressions:
        /// byte-identical rows in the oracle's order, identical first
        /// error (build keys, probe keys and residual interleaved as
        /// the oracle's per-row loop meets them).
        #[test]
        fn hash_join_matches_row_oracle(seed in proptest::any::<u64>()) {
            let mut r = Rng(seed | 1);
            let ctx = EvalContext::default();
            let left = gen_batch(&mut r);
            let right = gen_batch(&mut r);
            let (lw, rw) = (left.width(), right.width());
            let n_keys = 1 + r.below(2) as usize;
            let left_keys: Vec<BoundExpr> = (0..n_keys).map(|_| gen_expr(&mut r, lw, 1)).collect();
            let right_keys: Vec<BoundExpr> = (0..n_keys).map(|_| gen_expr(&mut r, rw, 1)).collect();
            let kind = [JoinKind::Inner, JoinKind::Left, JoinKind::Right, JoinKind::Full]
                [r.below(4) as usize];
            let residual = (r.below(2) == 0).then(|| gen_expr(&mut r, lw + rw, 2));
            let spec = JoinSpec {
                kind,
                left_keys: &left_keys,
                right_keys: &right_keys,
                residual: residual.as_ref(),
                left_width: lw,
                right_width: rw,
            };
            let guard = ExecGuard::unbounded();
            let got = hash_join_batch(left.clone(), right.clone(), &spec, &ctx, &guard);
            let want = exec::hash_join(
                left.to_rows(),
                right.to_rows(),
                kind,
                &left_keys,
                &right_keys,
                residual.as_ref(),
                lw,
                rw,
                &ctx,
                &guard,
            );
            match (got, want) {
                (Ok(g), Ok(w)) => prop_assert_eq!(g, w, "{:?} join on {:?} = {:?} / {:?}", kind, left_keys, right_keys, residual),
                (Err(ge), Err(we)) => prop_assert_eq!(ge, we, "{:?} join on {:?} = {:?} / {:?}", kind, left_keys, right_keys, residual),
                (g, w) => {
                    return Err(TestCaseError::fail(format!(
                        "outcome mismatch for {kind:?} join on {left_keys:?} = {right_keys:?} / \
                         {residual:?}: batch {g:?} vs rows {w:?}"
                    )));
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// ORDER BY over random keys (typed, null-riddled, erroring, some
        /// descending) and DISTINCT, the batch operators against the
        /// oracle's sort and sort-dedup: rows in order, first errors.
        #[test]
        fn sort_and_distinct_match_row_oracle(seed in proptest::any::<u64>()) {
            let mut r = Rng(seed | 1);
            let ctx = EvalContext::default();
            let guard = ExecGuard::unbounded();
            let batch = gen_batch(&mut r);
            let keys: Vec<SortKey> = (0..1 + r.below(3))
                .map(|_| SortKey { expr: gen_expr(&mut r, batch.width(), 1), desc: r.below(2) == 0 })
                .collect();
            let run = |op: PhysOp| {
                let plan = PhysicalPlan { types: batch.types(), ..node(op, vec![leaf(&batch)]) };
                execute(&plan, &Catalog::new(), &ctx, &guard)
            };
            let got = run(PhysOp::Sort { keys: keys.clone() });
            let want = exec::sort_rows(batch.to_rows(), &keys, &ctx, &guard);
            match (got, want) {
                (Ok(g), Ok(w)) => prop_assert_eq!(g, w, "order by {:?}", keys),
                (Err(ge), Err(we)) => prop_assert_eq!(ge, we, "order by {:?}", keys),
                (g, w) => {
                    return Err(TestCaseError::fail(format!(
                        "outcome mismatch for order by {keys:?}: batch {g:?} vs rows {w:?}"
                    )));
                }
            }
            let mut want = batch.to_rows();
            want.sort_by(crate::table::cmp_rows);
            want.dedup_by(|a, b| crate::table::cmp_rows(a, b).is_eq());
            prop_assert_eq!(run(PhysOp::DistinctSort).unwrap(), want);
        }
    }

    /// One random aggregate over one random batch, batch operator
    /// against `exec::aggregate`.
    fn check_aggregate(r: &mut Rng, n_keys: usize) -> std::result::Result<(), TestCaseError> {
        let ctx = EvalContext::default();
        let batch = gen_batch(r);
        let width = batch.width();
        let group: Vec<BoundExpr> = (0..n_keys).map(|_| gen_expr(r, width, 1)).collect();
        let funcs = [
            AggFunc::Count,
            AggFunc::Sum,
            AggFunc::Avg,
            AggFunc::Min,
            AggFunc::Max,
            AggFunc::Stdev,
            AggFunc::Var,
        ];
        // Zero aggregates is `GROUP BY` used as DISTINCT.
        let aggs: Vec<AggCall> = (0..r.below(4))
            .map(|_| AggCall {
                func: funcs[r.below(7) as usize],
                arg: if r.below(5) == 0 {
                    None
                } else {
                    Some(gen_expr(r, width, 2))
                },
                distinct: r.below(4) == 0,
            })
            .collect();
        let guard = ExecGuard::unbounded();
        let got = aggregate_batch(batch.clone(), &group, &aggs, &ctx, &guard);
        let want = exec::aggregate(batch.to_rows(), &group, &aggs, &ctx, &guard);
        match (got, want) {
            (Ok(g), Ok(w)) => prop_assert_eq!(g, w, "groups for {:?} / {:?}", group, aggs),
            (Err(ge), Err(we)) => prop_assert_eq!(ge, we, "error for {:?} / {:?}", group, aggs),
            (g, w) => {
                return Err(TestCaseError::fail(format!(
                    "outcome mismatch for {group:?} / {aggs:?}: batch {g:?} vs rows {w:?}"
                )));
            }
        }
        Ok(())
    }
}
