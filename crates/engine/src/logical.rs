//! The logical relational algebra.
//!
//! Produced by the binder, consumed by the physical planner. Every node
//! carries its output [`Schema`] so downstream passes never re-derive
//! name resolution.

use crate::aggregate::AggCall;
use crate::expr::BoundExpr;
use crate::schema::Schema;
use crate::vector::Batch;
use crate::window::WindowCall;
use sqlshare_sql::ast::{JoinKind, SetOp};
use std::sync::Arc;

/// A sort key: expression over the input row plus direction.
#[derive(Debug, Clone, PartialEq)]
pub struct SortKey {
    pub expr: BoundExpr,
    pub desc: bool,
}

/// Logical plan nodes.
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalPlan {
    /// Base table scan; `table` is the catalog key.
    Scan { table: String, schema: Schema },
    /// Scan of a pinned (materialized) hot-view result, spliced in by the
    /// binder in place of re-expanding the view; `name` is the view's
    /// catalog key.
    CachedScan {
        name: String,
        schema: Schema,
        batch: Arc<Batch>,
    },
    /// A single empty row — the input of a FROM-less SELECT
    /// (SQL Server's "Constant Scan").
    OneRow,
    Filter {
        input: Box<LogicalPlan>,
        predicate: BoundExpr,
    },
    Project {
        input: Box<LogicalPlan>,
        exprs: Vec<BoundExpr>,
        schema: Schema,
    },
    Join {
        left: Box<LogicalPlan>,
        right: Box<LogicalPlan>,
        kind: JoinKind,
        /// Bound over the concatenated (left ++ right) schema.
        on: Option<BoundExpr>,
        schema: Schema,
    },
    Aggregate {
        input: Box<LogicalPlan>,
        group: Vec<BoundExpr>,
        aggs: Vec<AggCall>,
        schema: Schema,
    },
    /// Appends one column per window call (all calls share one spec).
    Window {
        input: Box<LogicalPlan>,
        calls: Vec<WindowCall>,
        schema: Schema,
    },
    Sort {
        input: Box<LogicalPlan>,
        keys: Vec<SortKey>,
    },
    Top {
        input: Box<LogicalPlan>,
        quantity: u64,
        percent: bool,
    },
    Distinct { input: Box<LogicalPlan> },
    SetOp {
        op: SetOp,
        all: bool,
        left: Box<LogicalPlan>,
        right: Box<LogicalPlan>,
        schema: Schema,
    },
}

impl LogicalPlan {
    /// Output schema of this node.
    pub fn schema(&self) -> &Schema {
        static EMPTY: Schema = Schema { columns: Vec::new() };
        match self {
            LogicalPlan::OneRow => &EMPTY,
            LogicalPlan::Scan { schema, .. }
            | LogicalPlan::CachedScan { schema, .. }
            | LogicalPlan::Project { schema, .. }
            | LogicalPlan::Join { schema, .. }
            | LogicalPlan::Aggregate { schema, .. }
            | LogicalPlan::Window { schema, .. }
            | LogicalPlan::SetOp { schema, .. } => schema,
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Top { input, .. }
            | LogicalPlan::Distinct { input } => input.schema(),
        }
    }

    /// The one enumeration of a plan node's parts: its input plans, then
    /// *every expression position* of the node — predicate, projection,
    /// join `ON`, group keys and aggregate arguments, window arguments /
    /// partition / order keys, sort keys. The planner materializes
    /// subqueries through this, so no operator can skip a position.
    #[deny(clippy::wildcard_enum_match_arm, clippy::match_wildcard_for_single_variants)]
    pub fn parts<'a>(&'a self, f: &mut dyn FnMut(Part<'a>)) {
        match self {
            LogicalPlan::Scan { .. } | LogicalPlan::CachedScan { .. } | LogicalPlan::OneRow => {}
            LogicalPlan::Filter { input, predicate } => {
                f(Part::Plan(input));
                f(Part::Expr(predicate));
            }
            LogicalPlan::Project { input, exprs, .. } => {
                f(Part::Plan(input));
                for e in exprs {
                    f(Part::Expr(e));
                }
            }
            LogicalPlan::Join {
                left, right, on, ..
            } => {
                f(Part::Plan(left));
                f(Part::Plan(right));
                if let Some(on) = on {
                    f(Part::Expr(on));
                }
            }
            LogicalPlan::Aggregate {
                input, group, aggs, ..
            } => {
                f(Part::Plan(input));
                for e in group.iter().chain(aggs.iter().flat_map(|a| &a.arg)) {
                    f(Part::Expr(e));
                }
            }
            LogicalPlan::Window { input, calls, .. } => {
                f(Part::Plan(input));
                for c in calls {
                    let keys = c.order_by.iter().map(|(e, _)| e);
                    for e in c.args.iter().chain(&c.partition_by).chain(keys) {
                        f(Part::Expr(e));
                    }
                }
            }
            LogicalPlan::Sort { input, keys } => {
                f(Part::Plan(input));
                for k in keys {
                    f(Part::Expr(&k.expr));
                }
            }
            LogicalPlan::Top { input, .. } | LogicalPlan::Distinct { input } => {
                f(Part::Plan(input));
            }
            LogicalPlan::SetOp { left, right, .. } => {
                f(Part::Plan(left));
                f(Part::Plan(right));
            }
        }
    }

    /// [`LogicalPlan::parts`] for rewrites.
    #[deny(clippy::wildcard_enum_match_arm, clippy::match_wildcard_for_single_variants)]
    pub fn parts_mut(&mut self, f: &mut dyn FnMut(PartMut<'_>)) {
        match self {
            LogicalPlan::Scan { .. } | LogicalPlan::CachedScan { .. } | LogicalPlan::OneRow => {}
            LogicalPlan::Filter { input, predicate } => {
                f(PartMut::Plan(input));
                f(PartMut::Expr(predicate));
            }
            LogicalPlan::Project { input, exprs, .. } => {
                f(PartMut::Plan(input));
                for e in exprs {
                    f(PartMut::Expr(e));
                }
            }
            LogicalPlan::Join {
                left, right, on, ..
            } => {
                f(PartMut::Plan(left));
                f(PartMut::Plan(right));
                if let Some(on) = on {
                    f(PartMut::Expr(on));
                }
            }
            LogicalPlan::Aggregate {
                input, group, aggs, ..
            } => {
                f(PartMut::Plan(input));
                for e in group.iter_mut().chain(aggs.iter_mut().flat_map(|a| &mut a.arg)) {
                    f(PartMut::Expr(e));
                }
            }
            LogicalPlan::Window { input, calls, .. } => {
                f(PartMut::Plan(input));
                for c in calls {
                    let keys = c.order_by.iter_mut().map(|(e, _)| e);
                    for e in c.args.iter_mut().chain(&mut c.partition_by).chain(keys) {
                        f(PartMut::Expr(e));
                    }
                }
            }
            LogicalPlan::Sort { input, keys } => {
                f(PartMut::Plan(input));
                for k in keys {
                    f(PartMut::Expr(&mut k.expr));
                }
            }
            LogicalPlan::Top { input, .. } | LogicalPlan::Distinct { input } => {
                f(PartMut::Plan(input));
            }
            LogicalPlan::SetOp { left, right, .. } => {
                f(PartMut::Plan(left));
                f(PartMut::Plan(right));
            }
        }
    }

    /// Rebuild this node with each input plan replaced by `f(input)` —
    /// how a bottom-up rewrite recurses without naming the variants it
    /// leaves alone.
    pub fn map_inputs(mut self, f: &mut dyn FnMut(LogicalPlan) -> LogicalPlan) -> LogicalPlan {
        self.parts_mut(&mut |part| {
            if let PartMut::Plan(input) = part {
                *input = f(std::mem::replace(input, LogicalPlan::OneRow));
            }
        });
        self
    }
}

/// A direct part of a [`LogicalPlan`] node or a [`BoundExpr`], as their
/// `parts` enumerators hand it out: a plan's inputs and expressions, an
/// expression's operands and the subquery plan it may hold. Each tree has
/// exactly one function per form (`parts` to visit, `parts_mut` to
/// rewrite) that knows a node's children; every other walk is written on
/// those and names only the variants it acts on.
#[derive(Debug, Clone, Copy)]
pub enum Part<'a> {
    Plan(&'a LogicalPlan),
    Expr(&'a BoundExpr),
}

/// [`Part`] for rewrites.
#[derive(Debug)]
pub enum PartMut<'a> {
    Plan(&'a mut LogicalPlan),
    Expr(&'a mut BoundExpr),
}
