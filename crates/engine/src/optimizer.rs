//! Logical plan optimization.
//!
//! Two passes, both motivated by SQLShare's view-centric data model
//! (§3.2: every query goes through at least one view):
//!
//! 1. [`collapse_identity_projections`] — the binder wraps inlined views
//!    and derived tables in *identity projections* (pure column
//!    pass-throughs used for schema renaming). They carry no computation,
//!    but they hide Scan nodes from the physical planner's seek
//!    detection.
//! 2. [`push_down_filters`] — predicates over views sink toward the data,
//!    as SQL Server's optimizer does: through projections (by
//!    substituting defining expressions), sorts, DISTINCT, set
//!    operations, join inputs, aggregate group keys, and window inputs.
//!    Combined with the planner's scan folding, a `WHERE` over a deep
//!    view chain usually ends as a `Clustered Index Seek`/`Scan`
//!    predicate rather than a stack of `Filter` operators.

//!
//! A third pass, [`parallelize`], runs on the *physical* plan: it finds
//! morsel-parallelizable regions (scan → filter/compute → hash join →
//! pre-aggregation pipelines) whose estimated cost clears the
//! parallelism threshold and joins them to the serial plan with
//! `Parallelism (Gather Streams)` / `Parallelism (Repartition Streams)`
//! exchange operators, mirroring how SQL Server surfaces DOP > 1 plans
//! in SHOWPLAN.

use crate::cost::{self, choose_dop, Estimates};
use crate::expr::BoundExpr;
use crate::logical::LogicalPlan;
use crate::parallel::Pipeline;
use crate::physical::{join_conjuncts, split_conjuncts, PhysOp, PhysicalPlan};
use sqlshare_sql::ast::{BinaryOp, JoinKind, SetOp};

/// Run the full optimization pipeline.
pub fn optimize(plan: LogicalPlan) -> LogicalPlan {
    push_down_filters(collapse_identity_projections(plan))
}

/// Collapse identity projections throughout a plan. The plan's *output
/// schema* may change its name/qualifier annotations, but every consumer
/// after binding is positional, so results are unaffected; callers that
/// need output names capture the schema before optimizing.
pub fn collapse_identity_projections(plan: LogicalPlan) -> LogicalPlan {
    match plan.map_inputs(&mut collapse_identity_projections) {
        LogicalPlan::Project { input, exprs, .. }
            if exprs.len() == input.schema().len()
                && exprs
                    .iter()
                    .enumerate()
                    .all(|(i, e)| matches!(e, BoundExpr::Column(c) if *c == i)) =>
        {
            *input
        }
        other => other,
    }
}

/// Push filter predicates as close to the data as safely possible.
pub fn push_down_filters(plan: LogicalPlan) -> LogicalPlan {
    match plan.map_inputs(&mut push_down_filters) {
        LogicalPlan::Filter { input, predicate } => push_predicate(*input, predicate),
        other => other,
    }
}

/// Place `predicate` above `input`, sinking whatever conjuncts can sink.
fn push_predicate(input: LogicalPlan, predicate: BoundExpr) -> LogicalPlan {
    let mut kept: Vec<BoundExpr> = Vec::new();
    let mut plan = input;
    for c in split_conjuncts(&predicate) {
        plan = match try_sink(plan, c) {
            Ok(p) => p,
            Err(p) => {
                kept.push(c.clone());
                p
            }
        };
    }
    match join_conjuncts(kept) {
        Some(residual) => LogicalPlan::Filter {
            input: Box::new(plan),
            predicate: residual,
        },
        None => plan,
    }
}

/// Try to sink one conjunct into `input`; `Ok` = sunk, `Err` = unchanged.
#[allow(clippy::result_large_err)]
fn try_sink(input: LogicalPlan, conjunct: &BoundExpr) -> Result<LogicalPlan, LogicalPlan> {
    match input {
        LogicalPlan::Project {
            input: inner,
            exprs,
            schema,
        } => {
            // Rewrite output references to their defining expressions.
            let rewritten = conjunct.substitute_columns(&exprs);
            Ok(LogicalPlan::Project {
                input: Box::new(push_predicate(*inner, rewritten)),
                exprs,
                schema,
            })
        }
        LogicalPlan::Sort { input: inner, keys } => match try_sink(*inner, conjunct) {
            Ok(p) => Ok(LogicalPlan::Sort {
                input: Box::new(p),
                keys,
            }),
            Err(p) => Err(LogicalPlan::Sort {
                input: Box::new(p),
                keys,
            }),
        },
        LogicalPlan::Distinct { input: inner } => match try_sink(*inner, conjunct) {
            Ok(p) => Ok(LogicalPlan::Distinct { input: Box::new(p) }),
            Err(p) => Err(LogicalPlan::Distinct { input: Box::new(p) }),
        },
        LogicalPlan::SetOp {
            op,
            all,
            left,
            right,
            schema,
        } => {
            // Column positions line up across set-op operands. Pushing
            // into the right side of EXCEPT would change results.
            let left = Box::new(push_predicate(*left, conjunct.clone()));
            let right = if op == SetOp::Except {
                right
            } else {
                Box::new(push_predicate(*right, conjunct.clone()))
            };
            // EXCEPT output is a subset of the left input, so filtering
            // the left side alone is a complete sink.
            Ok(LogicalPlan::SetOp {
                op,
                all,
                left,
                right,
                schema,
            })
        }
        LogicalPlan::Join {
            left,
            right,
            kind,
            on,
            schema,
        } => {
            let left_width = left.schema().len();
            let mut cols = Vec::new();
            conjunct.column_indexes(&mut cols);
            let all_left = cols.iter().all(|&i| i < left_width);
            let all_right = cols.iter().all(|&i| i >= left_width);
            let can_left = all_left
                && !cols.is_empty()
                && matches!(kind, JoinKind::Inner | JoinKind::Cross | JoinKind::Left);
            let can_right = all_right
                && !cols.is_empty()
                && matches!(kind, JoinKind::Inner | JoinKind::Cross | JoinKind::Right);
            if can_left {
                Ok(LogicalPlan::Join {
                    left: Box::new(push_predicate(*left, conjunct.clone())),
                    right,
                    kind,
                    on,
                    schema,
                })
            } else if can_right {
                let shifted = conjunct.remap_columns(&|i| i - left_width);
                Ok(LogicalPlan::Join {
                    left,
                    right: Box::new(push_predicate(*right, shifted)),
                    kind,
                    on,
                    schema,
                })
            } else {
                Err(LogicalPlan::Join {
                    left,
                    right,
                    kind,
                    on,
                    schema,
                })
            }
        }
        LogicalPlan::Aggregate {
            input: inner,
            group,
            aggs,
            schema,
        } => {
            // Only predicates over group keys commute with aggregation.
            let mut cols = Vec::new();
            conjunct.column_indexes(&mut cols);
            if !cols.is_empty() && cols.iter().all(|&i| i < group.len()) {
                let rewritten = conjunct.substitute_columns(&group);
                Ok(LogicalPlan::Aggregate {
                    input: Box::new(push_predicate(*inner, rewritten)),
                    group,
                    aggs,
                    schema,
                })
            } else {
                Err(LogicalPlan::Aggregate {
                    input: inner,
                    group,
                    aggs,
                    schema,
                })
            }
        }
        LogicalPlan::Window {
            input: inner,
            calls,
            schema,
        } => {
            // Predicates over pre-window columns commute with the window.
            let width = inner.schema().len();
            let mut cols = Vec::new();
            conjunct.column_indexes(&mut cols);
            if !cols.is_empty() && cols.iter().all(|&i| i < width) {
                Ok(LogicalPlan::Window {
                    input: Box::new(push_predicate(*inner, conjunct.clone())),
                    calls,
                    schema,
                })
            } else {
                Err(LogicalPlan::Window {
                    input: inner,
                    calls,
                    schema,
                })
            }
        }
        LogicalPlan::Filter {
            input: inner,
            predicate,
        } => {
            // Merge adjacent filters, then retry the combined sink.
            let combined = BoundExpr::Binary {
                left: Box::new(predicate),
                op: BinaryOp::And,
                right: Box::new(conjunct.clone()),
            };
            Ok(push_predicate(*inner, combined))
        }
        // Scan, Seek-to-be, OneRow, Top: the conjunct stays above (Top
        // because filtering before TOP changes which rows are kept).
        other => Err(other),
    }
}

/// Physical post-pass: wrap parallelizable regions in `Parallelism`
/// exchange operators when their estimated cost clears `threshold` (see
/// [`cost::choose_dop`]). `max_dop <= 1` disables the pass entirely, so
/// an engine capped at DOP 1 yields byte-identical plans to the
/// pre-parallel engine.
pub fn parallelize(mut plan: PhysicalPlan, max_dop: usize, threshold: f64) -> PhysicalPlan {
    if max_dop <= 1 {
        return plan;
    }
    // The region is the pipeline the plan tops, read by the function the
    // executor runs it by.
    let region = Pipeline::of(&plan)
        .ok()
        .filter(Pipeline::parallelizable)
        .map(|p| p.join_depth());
    if let Some(join_depth) = region {
        let dop = choose_dop(plan.total_cost(), max_dop, threshold);
        if dop > 1 {
            if let Some(depth) = join_depth {
                repartition_build(&mut plan, depth, dop);
            }
            return exchange(
                PhysOp::Gather { dop },
                "Parallelism (Gather Streams)",
                "Gather Streams",
                dop,
                plan,
            );
        }
    }
    plan.children = plan
        .children
        .into_iter()
        .map(|c| parallelize(c, max_dop, threshold))
        .collect();
    plan
}

/// Wrap the build input of the region's join, `depth` first-child steps
/// below its top, in a `Parallelism (Repartition Streams)` marker.
fn repartition_build(mut node: &mut PhysicalPlan, depth: usize, dop: usize) {
    for _ in 0..depth {
        node = &mut node.children[0];
    }
    let build = node.children.remove(1);
    let wrapped = exchange(
        PhysOp::Repartition { dop },
        "Parallelism (Repartition Streams)",
        "Repartition Streams",
        dop,
        build,
    );
    node.children.insert(1, wrapped);
}

fn exchange(
    op: PhysOp,
    physical_op: &str,
    logical_op: &str,
    dop: usize,
    child: PhysicalPlan,
) -> PhysicalPlan {
    PhysicalPlan {
        op,
        physical_op: physical_op.to_string(),
        logical_op: logical_op.to_string(),
        visible: true,
        est: Estimates {
            rows: child.est.rows,
            io: 0.0,
            // Row-exchange overhead, so parallel plans cost slightly more
            // than serial ones on paper — as in SQL Server, parallelism
            // is bought, not free.
            cpu: cost::row_cpu(child.est.rows, 0),
            row_size: child.est.row_size,
        },
        filters: Vec::new(),
        expr_ops: Vec::new(),
        columns: Vec::new(),
        degree_of_parallelism: Some(dop),
        batch_mode: false,
        types: child.types.clone(),
        children: vec![child],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, Schema};
    use crate::value::DataType;
    use sqlshare_sql::ast::JoinKind;

    fn scan() -> LogicalPlan {
        LogicalPlan::Scan {
            table: "t".into(),
            schema: Schema::new(vec![
                Column::new("a", DataType::Int),
                Column::new("b", DataType::Int),
            ]),
        }
    }

    #[test]
    fn identity_projection_collapses() {
        let plan = LogicalPlan::Project {
            input: Box::new(scan()),
            exprs: vec![BoundExpr::Column(0), BoundExpr::Column(1)],
            schema: Schema::new(vec![
                Column::new("a", DataType::Int).with_qualifier("v"),
                Column::new("b", DataType::Int).with_qualifier("v"),
            ]),
        };
        assert!(matches!(
            collapse_identity_projections(plan),
            LogicalPlan::Scan { .. }
        ));
    }

    #[test]
    fn reordering_projection_kept() {
        let plan = LogicalPlan::Project {
            input: Box::new(scan()),
            exprs: vec![BoundExpr::Column(1), BoundExpr::Column(0)],
            schema: Schema::new(vec![
                Column::new("b", DataType::Int),
                Column::new("a", DataType::Int),
            ]),
        };
        assert!(matches!(
            collapse_identity_projections(plan),
            LogicalPlan::Project { .. }
        ));
    }

    #[test]
    fn pruning_projection_kept() {
        let plan = LogicalPlan::Project {
            input: Box::new(scan()),
            exprs: vec![BoundExpr::Column(0)],
            schema: Schema::new(vec![Column::new("a", DataType::Int)]),
        };
        assert!(matches!(
            collapse_identity_projections(plan),
            LogicalPlan::Project { .. }
        ));
    }

    fn lit(i: i64) -> BoundExpr {
        BoundExpr::Literal(crate::value::Value::Int(i))
    }

    fn gt(col: usize, v: i64) -> BoundExpr {
        BoundExpr::Binary {
            left: Box::new(BoundExpr::Column(col)),
            op: BinaryOp::Gt,
            right: Box::new(lit(v)),
        }
    }

    fn filter(input: LogicalPlan, predicate: BoundExpr) -> LogicalPlan {
        LogicalPlan::Filter {
            input: Box::new(input),
            predicate,
        }
    }

    #[test]
    fn filter_pushes_through_renaming_projection() {
        // WHERE renamed > 5 over SELECT b AS renamed: sinks below, rewritten
        // to reference column 1.
        let project = LogicalPlan::Project {
            input: Box::new(scan()),
            exprs: vec![BoundExpr::Column(1)],
            schema: Schema::new(vec![Column::new("renamed", DataType::Int)]),
        };
        let plan = push_down_filters(filter(project, gt(0, 5)));
        let LogicalPlan::Project { input, .. } = plan else {
            panic!("projection should stay on top");
        };
        let LogicalPlan::Filter { predicate, input } = *input else {
            panic!("filter should sink below the projection");
        };
        assert_eq!(predicate, gt(1, 5));
        assert!(matches!(*input, LogicalPlan::Scan { .. }));
    }

    #[test]
    fn filter_pushes_into_union_branches() {
        let union = LogicalPlan::SetOp {
            op: sqlshare_sql::ast::SetOp::Union,
            all: true,
            left: Box::new(scan()),
            right: Box::new(scan()),
            schema: scan().schema().clone(),
        };
        let plan = push_down_filters(filter(union, gt(0, 3)));
        let LogicalPlan::SetOp { left, right, .. } = plan else {
            panic!("set op should surface");
        };
        assert!(matches!(*left, LogicalPlan::Filter { .. }));
        assert!(matches!(*right, LogicalPlan::Filter { .. }));
    }

    #[test]
    fn filter_does_not_push_into_except_right() {
        let except = LogicalPlan::SetOp {
            op: sqlshare_sql::ast::SetOp::Except,
            all: false,
            left: Box::new(scan()),
            right: Box::new(scan()),
            schema: scan().schema().clone(),
        };
        let plan = push_down_filters(filter(except, gt(0, 3)));
        let LogicalPlan::SetOp { left, right, .. } = plan else {
            panic!()
        };
        assert!(matches!(*left, LogicalPlan::Filter { .. }));
        assert!(matches!(*right, LogicalPlan::Scan { .. }));
    }

    #[test]
    fn filter_splits_across_inner_join_sides() {
        let join = LogicalPlan::Join {
            left: Box::new(scan()),
            right: Box::new(scan()),
            kind: JoinKind::Inner,
            on: None,
            schema: scan().schema().join(scan().schema()),
        };
        // Conjuncts: left col 0 > 1 (sinks left), right col 2 > 2 (sinks
        // right, remapped to 0), cross-side col0 = col2 stays above... use
        // an AND of the two sinkable ones.
        let predicate = BoundExpr::Binary {
            left: Box::new(gt(0, 1)),
            op: BinaryOp::And,
            right: Box::new(gt(2, 2)),
        };
        let plan = push_down_filters(filter(join, predicate));
        let LogicalPlan::Join { left, right, .. } = plan else {
            panic!("join should surface with both conjuncts sunk");
        };
        let LogicalPlan::Filter { predicate: lp, .. } = *left else {
            panic!()
        };
        assert_eq!(lp, gt(0, 1));
        let LogicalPlan::Filter { predicate: rp, .. } = *right else {
            panic!()
        };
        assert_eq!(rp, gt(0, 2), "right-side conjunct is remapped");
    }

    #[test]
    fn cross_side_conjunct_stays_above_join() {
        let join = LogicalPlan::Join {
            left: Box::new(scan()),
            right: Box::new(scan()),
            kind: JoinKind::Inner,
            on: None,
            schema: scan().schema().join(scan().schema()),
        };
        let predicate = BoundExpr::Binary {
            left: Box::new(BoundExpr::Column(0)),
            op: BinaryOp::Eq,
            right: Box::new(BoundExpr::Column(2)),
        };
        let plan = push_down_filters(filter(join, predicate.clone()));
        let LogicalPlan::Filter { predicate: kept, .. } = plan else {
            panic!("cross-side predicate must stay above the join");
        };
        assert_eq!(kept, predicate);
    }

    #[test]
    fn outer_join_null_side_blocks_pushdown() {
        // WHERE on right columns of a LEFT join must not sink into the
        // right input (null-extended rows would change).
        let join = LogicalPlan::Join {
            left: Box::new(scan()),
            right: Box::new(scan()),
            kind: JoinKind::Left,
            on: None,
            schema: scan().schema().join(scan().schema()),
        };
        let plan = push_down_filters(filter(join, gt(2, 0)));
        assert!(matches!(plan, LogicalPlan::Filter { .. }));
    }

    #[test]
    fn group_key_predicate_sinks_below_aggregate() {
        let agg = LogicalPlan::Aggregate {
            input: Box::new(scan()),
            group: vec![BoundExpr::Column(1)],
            aggs: vec![],
            schema: Schema::new(vec![Column::new("b", DataType::Int)]),
        };
        let plan = push_down_filters(filter(agg, gt(0, 7)));
        let LogicalPlan::Aggregate { input, .. } = plan else {
            panic!("aggregate should surface");
        };
        let LogicalPlan::Filter { predicate, .. } = *input else {
            panic!("group-key predicate should sink");
        };
        assert_eq!(predicate, gt(1, 7), "rewritten to the group expression");
    }

    #[test]
    fn aggregate_output_predicate_stays_above() {
        // Column 1 of the aggregate output is an aggregate result.
        let agg = LogicalPlan::Aggregate {
            input: Box::new(scan()),
            group: vec![BoundExpr::Column(0)],
            aggs: vec![crate::aggregate::AggCall {
                func: crate::aggregate::AggFunc::Count,
                arg: None,
                distinct: false,
            }],
            schema: Schema::new(vec![
                Column::new("a", DataType::Int),
                Column::new("n", DataType::Int),
            ]),
        };
        let plan = push_down_filters(filter(agg, gt(1, 3)));
        assert!(matches!(plan, LogicalPlan::Filter { .. }));
    }

    #[test]
    fn filter_does_not_cross_top() {
        let top = LogicalPlan::Top {
            input: Box::new(scan()),
            quantity: 5,
            percent: false,
        };
        let plan = push_down_filters(filter(top, gt(0, 1)));
        assert!(
            matches!(plan, LogicalPlan::Filter { .. }),
            "filtering before TOP changes which rows survive"
        );
    }

    #[test]
    fn adjacent_filters_merge_and_sink() {
        let inner = filter(scan(), gt(0, 1));
        let plan = push_down_filters(filter(inner, gt(1, 2)));
        // Both conjuncts end in one filter over the scan.
        let LogicalPlan::Filter { predicate, input } = plan else {
            panic!()
        };
        assert!(matches!(*input, LogicalPlan::Scan { .. }));
        let mut count = 0;
        predicate.walk(&mut |e| {
            if matches!(e, BoundExpr::Binary { op: BinaryOp::Gt, .. }) {
                count += 1;
            }
        });
        assert_eq!(count, 2);
    }

    #[test]
    fn nested_identities_collapse_through_filter() {
        let inner = LogicalPlan::Project {
            input: Box::new(scan()),
            exprs: vec![BoundExpr::Column(0), BoundExpr::Column(1)],
            schema: scan().schema().clone(),
        };
        let plan = LogicalPlan::Filter {
            input: Box::new(inner),
            predicate: BoundExpr::Column(0),
        };
        let optimized = collapse_identity_projections(plan);
        let LogicalPlan::Filter { input, .. } = optimized else {
            panic!()
        };
        assert!(matches!(*input, LogicalPlan::Scan { .. }));
    }
}
