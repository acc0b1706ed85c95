//! Physical plans and the physical planner.
//!
//! The planner turns a [`LogicalPlan`] into a tree of physical operators
//! whose vocabulary matches SQL Server's (the backend the paper's corpus
//! was extracted from): `Clustered Index Scan`/`Seek`, `Filter`,
//! `Compute Scalar`, `Nested Loops`, `Merge Join`, `Hash Match`, `Sort`,
//! `Stream Aggregate`, `Top`, `Concatenation`, `Segment`,
//! `Sequence Project`, `Constant Scan`. Each node carries the estimates
//! (`io`, `cpu`, `numRows`, `rowSize`) and annotations (`filters`,
//! expression operators, referenced columns) that the paper's Phase 1
//! extraction reads (Fig. 5a / Listing 1).
//!
//! Uncorrelated subqueries in expressions are *materialized here*: the
//! subquery is planned and executed once, its result replaces the
//! expression (scalar value or IN set), and its physical plan is kept as
//! an extra child so plan-level statistics still see its operators.

use crate::aggregate::AggCall;
use crate::catalog::Catalog;
use crate::cost::{self, Estimates, PredKind};
use crate::expr::BoundExpr;
use crate::functions::EvalContext;
use crate::logical::{LogicalPlan, Part, PartMut, SortKey};
use crate::schema::Schema;
use crate::value::{DataType, Value};
use crate::window::WindowCall;
use sqlshare_common::{Error, Result};
use sqlshare_sql::ast::{BinaryOp, JoinKind, SetOp};
use std::ops::Bound;

/// Executable configuration of one physical operator.
#[derive(Debug, Clone)]
pub enum PhysOp {
    ConstantScan,
    Scan {
        table: String,
        /// Row bound pushed down from a `TOP n` with nothing between it
        /// and this scan that drops or reorders rows: read only the first
        /// `head` rows of the clustered order.
        head: Option<u64>,
    },
    /// Scan of a pinned hot-view result (the cache's automated snapshot
    /// materialization). Reported as a `Clustered Index Seek` over the
    /// materialized relation, with `cached: true` in EXPLAIN.
    CachedScan {
        name: String,
        batch: std::sync::Arc<crate::vector::Batch>,
    },
    Seek {
        table: String,
        lower: Bound<Value>,
        upper: Bound<Value>,
        residual: Option<BoundExpr>,
    },
    /// Secondary B-tree index seek on a non-leading column of a paged
    /// table: the index narrows the heap to candidate row ordinals (a
    /// *superset* of the matches — index keys are rank-tagged prefixes),
    /// then `predicate` re-applies in full. Executes as a scan + filter
    /// when the backing cannot serve the bounds, producing identical
    /// rows either way.
    IndexSeek {
        table: String,
        column: usize,
        lower: Bound<Value>,
        upper: Bound<Value>,
        predicate: BoundExpr,
    },
    Filter {
        predicate: BoundExpr,
    },
    Compute {
        exprs: Vec<BoundExpr>,
    },
    NestedLoops {
        kind: JoinKind,
        on: Option<BoundExpr>,
        left_width: usize,
        right_width: usize,
    },
    HashJoin {
        kind: JoinKind,
        left_keys: Vec<BoundExpr>,
        right_keys: Vec<BoundExpr>,
        residual: Option<BoundExpr>,
        left_width: usize,
        right_width: usize,
    },
    /// Sort-merge join; inputs are pre-sorted scans on their join keys.
    MergeJoin {
        left_keys: Vec<BoundExpr>,
        right_keys: Vec<BoundExpr>,
        residual: Option<BoundExpr>,
    },
    Aggregate {
        group: Vec<BoundExpr>,
        aggs: Vec<AggCall>,
        hash: bool,
    },
    Sort {
        keys: Vec<SortKey>,
    },
    Top {
        quantity: u64,
        percent: bool,
    },
    DistinctSort,
    Concatenation,
    HashSetOp {
        op: SetOp,
    },
    /// Window pipeline: Segment marks partition boundaries (pass-through
    /// at execution), Sequence Project computes the window columns.
    Segment,
    SequenceProject {
        calls: Vec<WindowCall>,
    },
    /// `Parallelism (Gather Streams)`: the subtree below runs
    /// morsel-parallel on `dop` workers; this exchange merges the
    /// workers' output streams back into one (in morsel order, so the
    /// result is deterministic and bag-equal to serial execution).
    Gather {
        dop: usize,
    },
    /// `Parallelism (Repartition Streams)`: marks the build input of a
    /// parallel Hash Match. At execution the build rows are hashed on
    /// the join keys and redistributed into `dop` partitions, each with
    /// its own hash table.
    Repartition {
        dop: usize,
    },
}

/// A physical plan node with everything EXPLAIN reports.
#[derive(Debug, Clone)]
pub struct PhysicalPlan {
    pub op: PhysOp,
    /// SHOWPLAN-style operator name.
    pub physical_op: String,
    pub logical_op: String,
    /// Whether the node appears in EXPLAIN output (trivial projections do
    /// not, mirroring SHOWPLAN).
    pub visible: bool,
    pub est: Estimates,
    /// Rendered predicates at this node (Listing 1 `filters`).
    pub filters: Vec<String>,
    /// Expression-operator mnemonics evaluated at this node.
    pub expr_ops: Vec<String>,
    /// `(base table, column)` pairs referenced at this node.
    pub columns: Vec<(String, String)>,
    /// Degree of parallelism, on `Parallelism` exchange operators only
    /// (the SHOWPLAN property the paper's extractor reads).
    pub degree_of_parallelism: Option<usize>,
    /// Whether the vectorized engine executes this operator in batch
    /// mode (EXPLAIN `batchMode: true`).
    pub batch_mode: bool,
    /// Output column types, the logical schema's (a node that passes
    /// rows through has its input's): operator rows columnarize as these.
    pub types: Vec<DataType>,
    pub children: Vec<PhysicalPlan>,
}

impl PhysicalPlan {
    fn new(op: PhysOp, physical_op: &str, logical_op: &str, est: Estimates) -> Self {
        PhysicalPlan {
            op,
            physical_op: physical_op.to_string(),
            logical_op: logical_op.to_string(),
            visible: true,
            est,
            filters: Vec::new(),
            expr_ops: Vec::new(),
            columns: Vec::new(),
            degree_of_parallelism: None,
            batch_mode: false,
            types: Vec::new(),
            children: Vec::new(),
        }
    }

    /// Highest degree of parallelism of any exchange in the plan; 1 for
    /// a fully serial plan.
    pub fn max_parallelism(&self) -> usize {
        let mut dop = 1usize;
        self.visit(&mut |n| {
            if let Some(d) = n.degree_of_parallelism {
                dop = dop.max(d);
            }
        });
        dop
    }

    /// Subtree total cost (own io + cpu + children).
    pub fn total_cost(&self) -> f64 {
        self.est.io
            + self.est.cpu
            + self.children.iter().map(PhysicalPlan::total_cost).sum::<f64>()
    }

    /// All visible operator names in the subtree.
    pub fn operator_names(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.visit(&mut |n| {
            if n.visible {
                out.push(n.physical_op.as_str());
            }
        });
        out
    }

    /// Distinct base tables scanned or sought anywhere in the plan.
    pub fn base_tables(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.visit(&mut |n| {
            let table = match &n.op {
                PhysOp::Scan { table, .. }
                | PhysOp::Seek { table, .. }
                | PhysOp::IndexSeek { table, .. } => table,
                PhysOp::CachedScan { name, .. } => name,
                _ => return,
            };
            if !out.contains(table) {
                out.push(table.clone());
            }
        });
        out.sort();
        out
    }

    /// Visit every node depth-first (pre-order).
    pub fn visit<'a>(&'a self, f: &mut dyn FnMut(&'a PhysicalPlan)) {
        f(self);
        for c in &self.children {
            c.visit(f);
        }
    }
}

/// Push a `TOP n` row bound toward the data. It passes through operators
/// that emit exactly their input rows, in order — `Compute`, and both
/// inputs of a `Concatenation` (each alone can supply at most `n` of the
/// first `n`) — and lands in a `Scan` as its `head`. Anything else (a
/// filter, sort, join, aggregate, seek) stops it; the `Top` operator
/// itself stays in the plan and does the final cut.
fn push_head(node: &mut PhysicalPlan, n: u64) {
    match &mut node.op {
        PhysOp::Scan { head, .. } => *head = Some(head.map_or(n, |h| h.min(n))),
        // Children past the first are materialized-subquery plans kept
        // for EXPLAIN, not data inputs.
        PhysOp::Compute { .. } => {
            if let Some(input) = node.children.first_mut() {
                push_head(input, n);
            }
        }
        PhysOp::Concatenation => node.children.iter_mut().for_each(|c| push_head(c, n)),
        _ => {}
    }
}

/// Plan a logical plan into a physical plan, materializing uncorrelated
/// subqueries along the way (which requires executing them — `catalog`
/// and `ctx` are the execution environment). Subqueries executed at plan
/// time poll `guard`: a query spending its deadline inside a huge
/// uncorrelated subquery must still be cancellable.
pub fn plan_physical_with(
    logical: &LogicalPlan,
    catalog: &Catalog,
    ctx: &EvalContext,
    guard: &crate::exec::ExecGuard,
) -> Result<PhysicalPlan> {
    Planner {
        catalog,
        ctx,
        guard,
    }
    .plan(logical)
}

struct Planner<'a> {
    catalog: &'a Catalog,
    ctx: &'a EvalContext,
    guard: &'a crate::exec::ExecGuard,
}

impl Planner<'_> {
    /// Plan one node. Uncorrelated subqueries are materialized first, in
    /// *every* expression position [`LogicalPlan::parts`] enumerates — no
    /// operator below sees one — and their physical plans are attached
    /// after the node's data inputs, on the node that consumes them.
    fn plan(&self, node: &LogicalPlan) -> Result<PhysicalPlan> {
        let mut pending = false;
        node.parts(&mut |part| {
            if let Part::Expr(e) = part {
                pending |= e.holds_subquery();
            }
        });
        if !pending {
            return self.plan_node(node);
        }
        let mut node = node.clone();
        let mut subplans = Vec::new();
        let mut result = Ok(());
        node.parts_mut(&mut |part| {
            if let (Ok(()), PartMut::Expr(e)) = (&result, part) {
                result = self.materialize(e, &mut subplans);
            }
        });
        result?;
        let mut planned = self.plan_node(&node)?;
        planned.children.extend(subplans);
        Ok(planned)
    }

    fn plan_node(&self, node: &LogicalPlan) -> Result<PhysicalPlan> {
        let mut planned = match node {
            LogicalPlan::OneRow => Ok(PhysicalPlan::new(
                PhysOp::ConstantScan,
                "Constant Scan",
                "Constant Scan",
                Estimates {
                    rows: 1.0,
                    io: 0.0,
                    cpu: cost::CPU_PER_ROW,
                    row_size: 1.0,
                },
            )),
            LogicalPlan::Scan { table, schema } => self.plan_scan(table, schema),
            LogicalPlan::CachedScan { name, schema, batch } => {
                let row_count = batch.len as f64;
                let row_size = schema.estimated_row_size() as f64;
                let est = Estimates {
                    rows: row_count,
                    // The result is pinned in memory: no IO, row CPU only.
                    io: 0.0,
                    cpu: cost::row_cpu(row_count, 0),
                    row_size,
                };
                let mut n = PhysicalPlan::new(
                    PhysOp::CachedScan {
                        name: name.clone(),
                        batch: batch.clone(),
                    },
                    "Clustered Index Seek",
                    "Clustered Index Seek",
                    est,
                );
                // Attribute every output column to the materialized
                // relation itself: the pinned rows are what this plan
                // reads (computed view columns have no base source_table,
                // and the workload extractor counts tables from these
                // attributions).
                n.columns = schema
                    .columns
                    .iter()
                    .map(|c| (name.clone(), c.name.clone()))
                    .collect();
                Ok(n)
            }
            LogicalPlan::Filter { input, predicate } => self.plan_filter(input, predicate),
            LogicalPlan::Project {
                input,
                exprs,
                schema,
            } => self.plan_project(input, exprs, schema),
            LogicalPlan::Join {
                left,
                right,
                kind,
                on,
                schema,
            } => self.plan_join(left, right, *kind, on, schema),
            LogicalPlan::Aggregate {
                input,
                group,
                aggs,
                schema,
            } => self.plan_aggregate(input, group, aggs, schema),
            LogicalPlan::Window {
                input,
                calls,
                schema,
            } => self.plan_window(input, calls, schema),
            LogicalPlan::Sort { input, keys } => {
                let child = self.plan(input)?;
                let est = Estimates {
                    rows: child.est.rows,
                    io: 0.0,
                    cpu: cost::sort_cpu(child.est.rows),
                    row_size: child.est.row_size,
                };
                let mut n = PhysicalPlan::new(PhysOp::Sort { keys: keys.clone() }, "Sort", "Sort", est);
                for k in keys {
                    k.expr.expression_ops(&mut n.expr_ops);
                    n.columns
                        .extend(columns_used(&k.expr, input.schema()));
                }
                n.children.push(child);
                Ok(n)
            }
            LogicalPlan::Top {
                input,
                quantity,
                percent,
            } => {
                let mut child = self.plan(input)?;
                if !*percent {
                    push_head(&mut child, *quantity);
                }
                let out_rows = if *percent {
                    (child.est.rows * (*quantity as f64) / 100.0).ceil()
                } else {
                    child.est.rows.min(*quantity as f64)
                };
                let est = Estimates {
                    rows: out_rows.max(0.0),
                    io: 0.0,
                    cpu: cost::CPU_PER_ROW,
                    row_size: child.est.row_size,
                };
                let mut n = PhysicalPlan::new(
                    PhysOp::Top {
                        quantity: *quantity,
                        percent: *percent,
                    },
                    "Top",
                    "Top",
                    est,
                );
                n.children.push(child);
                Ok(n)
            }
            LogicalPlan::Distinct { input } => {
                let child = self.plan(input)?;
                let est = Estimates {
                    rows: (child.est.rows * 0.5).max(1.0),
                    io: 0.0,
                    cpu: cost::sort_cpu(child.est.rows),
                    row_size: child.est.row_size,
                };
                let mut n = PhysicalPlan::new(PhysOp::DistinctSort, "Sort", "Distinct Sort", est);
                n.children.push(child);
                Ok(n)
            }
            LogicalPlan::SetOp {
                op,
                all,
                left,
                right,
                schema,
            } => {
                let l = self.plan(left)?;
                let r = self.plan(right)?;
                let row_size = schema.estimated_row_size() as f64;
                match op {
                    SetOp::Union => {
                        let est = Estimates {
                            rows: l.est.rows + r.est.rows,
                            io: 0.0,
                            cpu: cost::row_cpu(l.est.rows + r.est.rows, 0),
                            row_size,
                        };
                        let mut concat = PhysicalPlan::new(
                            PhysOp::Concatenation,
                            "Concatenation",
                            "Concatenation",
                            est,
                        );
                        concat.types = schema.types();
                        concat.children.push(l);
                        concat.children.push(r);
                        if *all {
                            Ok(concat)
                        } else {
                            let est = Estimates {
                                rows: (concat.est.rows * 0.7).max(1.0),
                                io: 0.0,
                                cpu: cost::sort_cpu(concat.est.rows),
                                row_size,
                            };
                            let mut dedup = PhysicalPlan::new(
                                PhysOp::DistinctSort,
                                "Sort",
                                "Distinct Sort",
                                est,
                            );
                            dedup.children.push(concat);
                            Ok(dedup)
                        }
                    }
                    SetOp::Intersect | SetOp::Except => {
                        let rows = match op {
                            SetOp::Intersect => l.est.rows.min(r.est.rows) * 0.5,
                            _ => l.est.rows * 0.5,
                        };
                        let est = Estimates {
                            rows: rows.max(1.0),
                            io: 0.0,
                            cpu: cost::row_cpu(l.est.rows + r.est.rows, 0),
                            row_size,
                        };
                        let logical = match op {
                            SetOp::Intersect => "Intersect",
                            _ => "Except",
                        };
                        let mut n = PhysicalPlan::new(
                            PhysOp::HashSetOp { op: *op },
                            "Hash Match",
                            logical,
                            est,
                        );
                        n.children.push(l);
                        n.children.push(r);
                        Ok(n)
                    }
                }
            }
        }?;
        planned.types = node.schema().types();
        Ok(planned)
    }

    fn plan_scan(&self, table: &str, schema: &Schema) -> Result<PhysicalPlan> {
        let t = self.catalog.table(table)?;
        let rows = t.row_count() as f64;
        let row_size = schema.estimated_row_size() as f64;
        let est = Estimates {
            rows,
            io: cost::scan_io(rows, row_size),
            cpu: cost::row_cpu(rows, 0),
            row_size,
        };
        let mut n = PhysicalPlan::new(
            PhysOp::Scan {
                table: table.to_string(),
                head: None,
            },
            "Clustered Index Scan",
            "Clustered Index Scan",
            est,
        );
        n.columns = schema
            .columns
            .iter()
            .filter_map(|c| c.source_table.clone().map(|t| (t, c.name.clone())))
            .collect();
        Ok(n)
    }

    fn plan_filter(&self, input: &LogicalPlan, predicate: &BoundExpr) -> Result<PhysicalPlan> {
        let schema = input.schema();

        // Predicates directly over a scan fold into the access operator,
        // as SQL Server does: a sargable leading-column predicate becomes
        // a Clustered Index Seek (§3.4: every table carries a clustered
        // index on all columns in column order); anything else becomes a
        // scan with a residual predicate — no separate Filter operator.
        if let LogicalPlan::Scan { table, .. } = input {
            let leading_ty = schema
                .columns
                .first()
                .map(|c| c.ty)
                .unwrap_or(DataType::Text);
            let bounds = extract_seek_bounds(predicate, leading_ty);
            // No clustered-order bounds: a sargable non-leading column
            // can still go through its secondary B-tree when the table
            // is page-backed.
            if bounds.is_none() {
                if let Some(n) = self.plan_index_seek(table, schema, predicate)? {
                    return Ok(n);
                }
            }
            let bounds = bounds.unwrap_or((
                Bound::Unbounded,
                Bound::Unbounded,
                Some(predicate.clone()),
                Vec::new(),
            ));
            {
                let (lower, upper, residual, consumed) = bounds;
                let is_seek =
                    !matches!((&lower, &upper), (Bound::Unbounded, Bound::Unbounded));
                let t = self.catalog.table(table)?;
                let rows = t.row_count() as f64;
                let row_size = schema.estimated_row_size() as f64;
                let sel = if is_seek {
                    cost::selectivity(if matches!(
                        (&lower, &upper),
                        (Bound::Included(_), Bound::Included(_))
                    ) {
                        PredKind::Equality
                    } else {
                        PredKind::Range
                    })
                } else {
                    1.0
                };
                let residual_sel = residual
                    .as_ref()
                    .map(pred_selectivity)
                    .unwrap_or(1.0);
                let out_rows = (rows * sel * residual_sel).max(1.0);
                let est = Estimates {
                    rows: out_rows,
                    io: cost::scan_io(rows * sel, row_size),
                    cpu: cost::row_cpu(rows * sel, 1),
                    row_size,
                };
                let name = if is_seek {
                    "Clustered Index Seek"
                } else {
                    "Clustered Index Scan"
                };
                let mut n = PhysicalPlan::new(
                    PhysOp::Seek {
                        table: table.clone(),
                        lower,
                        upper,
                        residual: residual.clone(),
                    },
                    name,
                    name,
                    est,
                );
                n.filters = consumed;
                if let Some(r) = &residual {
                    n.filters.push(render_filter(r, schema));
                    r.expression_ops(&mut n.expr_ops);
                }
                n.columns = schema
                    .columns
                    .iter()
                    .filter_map(|c| c.source_table.clone().map(|t| (t, c.name.clone())))
                    .collect();
                return Ok(n);
            }
        }

        let child = self.plan(input)?;
        let sel = pred_selectivity(predicate);
        let est = Estimates {
            rows: (child.est.rows * sel).max(1.0),
            io: 0.0,
            cpu: cost::row_cpu(child.est.rows, count_expr_ops(predicate)),
            row_size: child.est.row_size,
        };
        let mut n = PhysicalPlan::new(
            PhysOp::Filter {
                predicate: predicate.clone(),
            },
            "Filter",
            "Filter",
            est,
        );
        n.filters = split_conjuncts(predicate)
            .iter()
            .map(|c| render_filter(c, schema))
            .collect();
        predicate.expression_ops(&mut n.expr_ops);
        n.columns = columns_used(predicate, schema);
        n.children.push(child);
        Ok(n)
    }

    /// Plan a secondary-index seek over `table` if some non-leading
    /// column has sargable bounds that a B-tree on the paged backing can
    /// serve; `None` sends the caller down the scan-with-residual path.
    fn plan_index_seek(
        &self,
        table: &str,
        schema: &Schema,
        predicate: &BoundExpr,
    ) -> Result<Option<PhysicalPlan>> {
        let t = self.catalog.table(table)?;
        let Some(paged) = t.paged() else {
            return Ok(None);
        };
        let Some((column, lower, upper, consumed)) =
            extract_index_bounds(predicate, schema.columns.len())
        else {
            return Ok(None);
        };
        if !paged.index_serves(
            column,
            crate::exec::as_ref_bound(&lower),
            crate::exec::as_ref_bound(&upper),
        ) {
            return Ok(None);
        }
        let rows = t.row_count() as f64;
        let row_size = schema.estimated_row_size() as f64;
        let sel = cost::selectivity(if matches!(
            (&lower, &upper),
            (Bound::Included(_), Bound::Included(_))
        ) {
            PredKind::Equality
        } else {
            PredKind::Range
        });
        // The full predicate re-applies over the candidates, so its
        // selectivity already covers the consumed bounds.
        let est = Estimates {
            rows: (rows * pred_selectivity(predicate)).max(1.0),
            io: cost::scan_io(rows * sel, row_size),
            cpu: cost::row_cpu(rows * sel, 1),
            row_size,
        };
        let mut n = PhysicalPlan::new(
            PhysOp::IndexSeek {
                table: table.to_string(),
                column,
                lower,
                upper,
                predicate: predicate.clone(),
            },
            "Index Seek",
            "Index Seek",
            est,
        );
        n.filters = consumed;
        n.filters.push(render_filter(predicate, schema));
        predicate.expression_ops(&mut n.expr_ops);
        n.columns = schema
            .columns
            .iter()
            .filter_map(|c| c.source_table.clone().map(|t| (t, c.name.clone())))
            .collect();
        Ok(Some(n))
    }

    fn plan_project(
        &self,
        input: &LogicalPlan,
        exprs: &[BoundExpr],
        schema: &Schema,
    ) -> Result<PhysicalPlan> {
        let child = self.plan(input)?;
        let trivial = exprs.iter().all(BoundExpr::is_column);
        let expr_count: usize = exprs.iter().map(count_expr_ops).sum();
        let est = Estimates {
            rows: child.est.rows,
            io: 0.0,
            cpu: cost::row_cpu(child.est.rows, expr_count),
            row_size: schema.estimated_row_size() as f64,
        };
        let mut n = PhysicalPlan::new(
            PhysOp::Compute {
                exprs: exprs.to_vec(),
            },
            "Compute Scalar",
            "Compute Scalar",
            est,
        );
        n.visible = !trivial;
        for e in exprs {
            e.expression_ops(&mut n.expr_ops);
            n.columns.extend(columns_used(e, input.schema()));
        }
        n.children.push(child);
        Ok(n)
    }

    fn plan_join(
        &self,
        left: &LogicalPlan,
        right: &LogicalPlan,
        kind: JoinKind,
        on: &Option<BoundExpr>,
        schema: &Schema,
    ) -> Result<PhysicalPlan> {
        let l = self.plan(left)?;
        let r = self.plan(right)?;
        let left_width = left.schema().len();
        let right_width = right.schema().len();
        let row_size = schema.estimated_row_size() as f64;

        // Split the ON condition into equi-key pairs and a residual.
        let (pairs, residual) = match on {
            Some(e) if kind != JoinKind::Cross => split_equi_join(e, left_width),
            _ => (Vec::new(), on.clone()),
        };

        // Hash (and merge) joins bucket keys by value identity within a
        // type group, but `=` under `sql_cmp` also matches text against
        // numbers/dates by textual form — and that relation is not even
        // transitive, so no hash key can encode it. A key pair whose two
        // sides type to different groups must run as nested loops, where
        // the ON predicate is evaluated exactly; otherwise the choice of
        // join operator (driven by cost estimates) would change results.
        let (left_types, right_types) = (left.schema().types(), right.schema().types());
        let keys_hashable = pairs.iter().all(|(lk, rk)| {
            type_group(lk.result_type(&left_types)) == type_group(rk.result_type(&right_types))
        });

        let (phys, name, est_rows) = if !pairs.is_empty() && keys_hashable {
            let left_keys: Vec<BoundExpr> = pairs.iter().map(|(l, _)| l.clone()).collect();
            let right_keys: Vec<BoundExpr> = pairs.iter().map(|(_, r)| r.clone()).collect();
            let est_rows = l.est.rows.max(r.est.rows);
            // Merge join when both sides arrive in clustered order on the
            // key — a scan or seek of the leading index column (seeks
            // preserve clustered order); nested loops for tiny inputs;
            // hash otherwise.
            let in_clustered_order = |p: &PhysicalPlan| {
                matches!(p.op, PhysOp::Scan { .. } | PhysOp::Seek { .. })
            };
            let leading_sorted = kind == JoinKind::Inner
                && left_keys == [BoundExpr::Column(0)]
                && right_keys == [BoundExpr::Column(0)]
                && in_clustered_order(&l)
                && in_clustered_order(&r);
            if leading_sorted {
                (
                    PhysOp::MergeJoin {
                        left_keys,
                        right_keys,
                        residual: residual.clone(),
                    },
                    "Merge Join",
                    est_rows,
                )
            } else if l.est.rows.min(r.est.rows) < 2.0 {
                (
                    PhysOp::NestedLoops {
                        kind,
                        on: on.clone(),
                        left_width,
                        right_width,
                    },
                    "Nested Loops",
                    est_rows,
                )
            } else {
                (
                    PhysOp::HashJoin {
                        kind,
                        left_keys,
                        right_keys,
                        residual: residual.clone(),
                        left_width,
                        right_width,
                    },
                    "Hash Match",
                    est_rows,
                )
            }
        } else {
            let est_rows = match kind {
                JoinKind::Cross => l.est.rows * r.est.rows,
                _ => (l.est.rows * r.est.rows * 0.3).max(1.0),
            };
            (
                PhysOp::NestedLoops {
                    kind,
                    on: on.clone(),
                    left_width,
                    right_width,
                },
                "Nested Loops",
                est_rows,
            )
        };

        let logical = match kind {
            JoinKind::Inner => "Inner Join",
            JoinKind::Left => "Left Outer Join",
            JoinKind::Right => "Right Outer Join",
            JoinKind::Full => "Full Outer Join",
            JoinKind::Cross => "Cross Join",
        };
        let est = Estimates {
            rows: est_rows.max(1.0),
            io: 0.0,
            cpu: cost::row_cpu(l.est.rows + r.est.rows + est_rows, 1),
            row_size,
        };
        let mut n = PhysicalPlan::new(phys, name, logical, est);
        if let Some(on) = on {
            n.filters = split_conjuncts(on)
                .iter()
                .map(|c| render_filter(c, schema))
                .collect();
            on.expression_ops(&mut n.expr_ops);
            n.columns = columns_used(on, schema);
        }
        n.children.push(l);
        n.children.push(r);
        Ok(n)
    }

    fn plan_aggregate(
        &self,
        input: &LogicalPlan,
        group: &[BoundExpr],
        aggs: &[AggCall],
        schema: &Schema,
    ) -> Result<PhysicalPlan> {
        let child = self.plan(input)?;
        let in_rows = child.est.rows;
        // SQL Server's choice in this regime: stream aggregation when the
        // input is already ordered on the group key or small enough to
        // sort cheaply; hash aggregation otherwise.
        let pre_ordered = group == [BoundExpr::Column(0)]
            && matches!(child.op, PhysOp::Scan { .. } | PhysOp::Seek { .. });
        let hash = !group.is_empty() && !pre_ordered && in_rows > 90.0;
        let out_rows = if group.is_empty() {
            1.0
        } else {
            in_rows.sqrt().max(1.0)
        };
        let est = Estimates {
            rows: out_rows,
            io: 0.0,
            cpu: cost::row_cpu(in_rows, group.len() + aggs.len()),
            row_size: schema.estimated_row_size() as f64,
        };
        let mut expr_ops = Vec::new();
        let mut columns = Vec::new();
        for g in group {
            g.expression_ops(&mut expr_ops);
            columns.extend(columns_used(g, input.schema()));
        }
        for a in aggs {
            if let Some(arg) = &a.arg {
                arg.expression_ops(&mut expr_ops);
                columns.extend(columns_used(arg, input.schema()));
            }
        }

        // Stream aggregation requires sorted input: plan an explicit Sort
        // below, like SQL Server does — unless the input is already in
        // clustered order on the group key (grouping by the leading
        // column of a scan/seek).
        let mut lower = child;
        if !hash && !group.is_empty() && !pre_ordered {
            let keys: Vec<SortKey> = group
                .iter()
                .map(|g| SortKey {
                    expr: g.clone(),
                    desc: false,
                })
                .collect();
            let est = Estimates {
                rows: lower.est.rows,
                io: 0.0,
                cpu: cost::sort_cpu(lower.est.rows),
                row_size: lower.est.row_size,
            };
            let mut sort = PhysicalPlan::new(PhysOp::Sort { keys }, "Sort", "Sort", est);
            sort.types = lower.types.clone();
            sort.children.push(lower);
            lower = sort;
        }

        let (name, logical) = if hash {
            ("Hash Match", "Aggregate")
        } else {
            ("Stream Aggregate", "Aggregate")
        };
        let mut n = PhysicalPlan::new(
            PhysOp::Aggregate {
                group: group.to_vec(),
                aggs: aggs.to_vec(),
                hash,
            },
            name,
            logical,
            est,
        );
        n.expr_ops = expr_ops;
        n.columns = columns;
        n.children.push(lower);
        Ok(n)
    }

    fn plan_window(
        &self,
        input: &LogicalPlan,
        calls: &[WindowCall],
        schema: &Schema,
    ) -> Result<PhysicalPlan> {
        let child = self.plan(input)?;
        let rows = child.est.rows;
        let row_size = schema.estimated_row_size() as f64;

        // Sort by (partition, order) keys.
        let spec = &calls[0];
        let mut keys: Vec<SortKey> = spec
            .partition_by
            .iter()
            .map(|e| SortKey {
                expr: e.clone(),
                desc: false,
            })
            .collect();
        keys.extend(spec.order_by.iter().map(|(e, desc)| SortKey {
            expr: e.clone(),
            desc: *desc,
        }));
        let mut lower = child;
        if !keys.is_empty() {
            let est = Estimates {
                rows,
                io: 0.0,
                cpu: cost::sort_cpu(rows),
                row_size: lower.est.row_size,
            };
            let mut sort = PhysicalPlan::new(PhysOp::Sort { keys }, "Sort", "Sort", est);
            sort.types = lower.types.clone();
            sort.children.push(lower);
            lower = sort;
        }

        let mut segment = PhysicalPlan::new(
            PhysOp::Segment,
            "Segment",
            "Segment",
            Estimates {
                rows,
                io: 0.0,
                cpu: cost::row_cpu(rows, 0),
                row_size,
            },
        );
        for p in &spec.partition_by {
            segment.columns.extend(columns_used(p, input.schema()));
        }
        segment.types = lower.types.clone();
        segment.children.push(lower);

        let mut n = PhysicalPlan::new(
            PhysOp::SequenceProject {
                calls: calls.to_vec(),
            },
            "Sequence Project",
            "Compute Scalar",
            Estimates {
                rows,
                io: 0.0,
                cpu: cost::row_cpu(rows, calls.len()),
                row_size,
            },
        );
        for c in calls {
            for a in &c.args {
                a.expression_ops(&mut n.expr_ops);
                n.columns.extend(columns_used(a, input.schema()));
            }
        }
        n.children.push(segment);
        Ok(n)
    }

    /// Materialize the uncorrelated subqueries inside an expression: each
    /// is planned, executed, and replaced by its value; the subquery
    /// physical plans are pushed onto `subplans` for attachment to the
    /// consuming node.
    fn materialize(&self, expr: &mut BoundExpr, subplans: &mut Vec<PhysicalPlan>) -> Result<()> {
        let mut run = |plan: &LogicalPlan| -> Result<Vec<crate::value::Row>> {
            let phys = self.plan(plan)?;
            let rows = crate::exec::execute(&phys, self.catalog, self.ctx, self.guard)?;
            subplans.push(phys);
            Ok(rows)
        };
        match expr {
            BoundExpr::ScalarSubquery(plan) => {
                let rows = run(plan)?;
                if rows.len() > 1 {
                    return Err(Error::Execution(
                        "scalar subquery returned more than one row".into(),
                    ));
                }
                let value = rows.into_iter().next().and_then(|r| r.into_iter().next());
                *expr = BoundExpr::Literal(value.unwrap_or(Value::Null));
            }
            BoundExpr::InSubquery {
                expr: operand,
                plan,
                negated,
            } => {
                let rows = run(plan)?;
                *expr = BoundExpr::InSet {
                    expr: std::mem::replace(operand, Box::new(BoundExpr::Literal(Value::Null))),
                    values: rows.into_iter().filter_map(|r| r.into_iter().next()).collect(),
                    negated: *negated,
                };
            }
            BoundExpr::Exists { plan, negated } => {
                let rows = run(plan)?;
                *expr = BoundExpr::Literal(Value::Bool(rows.is_empty() == *negated));
            }
            _ => {}
        }
        let mut result = Ok(());
        expr.parts_mut(&mut |part| {
            if let (Ok(()), PartMut::Expr(e)) = (&result, part) {
                result = self.materialize(e, subplans);
            }
        });
        result
    }
}

/// Split a predicate into its AND-ed conjuncts.
pub fn split_conjuncts(e: &BoundExpr) -> Vec<&BoundExpr> {
    let mut out = Vec::new();
    fn rec<'a>(e: &'a BoundExpr, out: &mut Vec<&'a BoundExpr>) {
        if let BoundExpr::Binary {
            left,
            op: BinaryOp::And,
            right,
        } = e
        {
            rec(left, out);
            rec(right, out);
        } else {
            out.push(e);
        }
    }
    rec(e, &mut out);
    out
}

/// AND conjuncts back into one predicate — [`split_conjuncts`]'s inverse.
pub fn join_conjuncts(conjuncts: Vec<BoundExpr>) -> Option<BoundExpr> {
    conjuncts.into_iter().reduce(|a, b| BoundExpr::Binary {
        left: Box::new(a),
        op: BinaryOp::And,
        right: Box::new(b),
    })
}

/// Comparison type groups: `Int` and `Float` compare numerically with each
/// other; every other type only compares order-consistently with itself
/// (cross-group comparisons go through `sql_cmp`'s permissive text
/// coercion, which neither the clustered-index order nor a hash table can
/// reproduce).
fn type_group(t: DataType) -> u8 {
    match t {
        DataType::Bool => 1,
        DataType::Int | DataType::Float => 2,
        DataType::Date => 3,
        DataType::Text => 4,
    }
}

/// Seek ranges locate rows under `Value::total_cmp` (the clustered-index
/// sort order, which ranks types before comparing), while predicates
/// evaluate under `Value::sql_cmp` (permissive: text coerces against
/// numbers and dates by textual form). The two orders agree only when the
/// bound literal lives in the same type group as the leading column — a
/// mismatched bound (e.g. `text_col > 4`) must stay a residual predicate
/// or the seek would keep/drop the wrong range.
fn seek_order_matches(col: DataType, lit: &Value) -> bool {
    let lit_group = match lit {
        Value::Bool(_) => 1,
        Value::Int(_) | Value::Float(_) => 2,
        Value::Date(_) => 3,
        Value::Text(_) => 4,
        Value::Null => return false,
    };
    lit_group == type_group(col)
}

/// A range on one column, tightened a conjunct at a time, and the
/// rendered conjuncts that bound it (for EXPLAIN).
struct ColumnRange {
    lower: Bound<Value>,
    upper: Bound<Value>,
    consumed: Vec<String>,
}

impl ColumnRange {
    fn new() -> Self {
        ColumnRange {
            lower: Bound::Unbounded,
            upper: Bound::Unbounded,
            consumed: Vec::new(),
        }
    }

    fn is_bounded(&self) -> bool {
        !matches!((&self.lower, &self.upper), (Bound::Unbounded, Bound::Unbounded))
    }

    /// Tighten the range by `c` if it bounds `#col`: `#col op lit` or
    /// `lit op #col` with `op` one of `= < <= > >=`, or `#col BETWEEN lit
    /// AND lit`, over non-null literals `admit` accepts. Returns whether
    /// `c` was consumed.
    fn take(&mut self, c: &BoundExpr, col: usize, admit: impl Fn(&Value) -> bool) -> bool {
        let ok = |v: &Value| !v.is_null() && admit(v);
        let is_col = |e: &BoundExpr| matches!(e, BoundExpr::Column(i) if *i == col);
        let (lower, upper, rendered) = match c {
            BoundExpr::Binary { left, op, right } => {
                // Normalize to `#col op lit`.
                let (lit, op) = match (left.as_ref(), right.as_ref()) {
                    (l, BoundExpr::Literal(v)) if is_col(l) => (v, *op),
                    (BoundExpr::Literal(v), r) if is_col(r) => match op {
                        BinaryOp::Lt => (v, BinaryOp::Gt),
                        BinaryOp::LtEq => (v, BinaryOp::GtEq),
                        BinaryOp::Gt => (v, BinaryOp::Lt),
                        BinaryOp::GtEq => (v, BinaryOp::LtEq),
                        other => (v, *other),
                    },
                    _ => return false,
                };
                let (lower, upper, name) = match op {
                    BinaryOp::Eq => (Bound::Included(lit), Bound::Included(lit), "EQ"),
                    BinaryOp::Lt => (Bound::Unbounded, Bound::Excluded(lit), "LT"),
                    BinaryOp::LtEq => (Bound::Unbounded, Bound::Included(lit), "LE"),
                    BinaryOp::Gt => (Bound::Excluded(lit), Bound::Unbounded, "GT"),
                    BinaryOp::GtEq => (Bound::Included(lit), Bound::Unbounded, "GE"),
                    _ => return false,
                };
                if !ok(lit) {
                    return false;
                }
                (lower, upper, format!("#{col} {name} {lit}"))
            }
            BoundExpr::Between {
                expr,
                low,
                high,
                negated: false,
            } if is_col(expr) => match (low.as_ref(), high.as_ref()) {
                (BoundExpr::Literal(lo), BoundExpr::Literal(hi)) if ok(lo) && ok(hi) => (
                    Bound::Included(lo),
                    Bound::Included(hi),
                    format!("#{col} BETWEEN {lo} AND {hi}"),
                ),
                _ => return false,
            },
            _ => return false,
        };
        let current = std::mem::replace(&mut self.lower, Bound::Unbounded);
        self.lower = tighten_lower(current, lower.cloned());
        let current = std::mem::replace(&mut self.upper, Bound::Unbounded);
        self.upper = tighten_upper(current, upper.cloned());
        self.consumed.push(rendered);
        true
    }
}

/// Extracted seek range: lower/upper bounds on the leading column, the
/// residual predicate left to evaluate per row, and the rendered
/// conjuncts the seek consumed (for EXPLAIN).
type SeekBounds = (Bound<Value>, Bound<Value>, Option<BoundExpr>, Vec<String>);

/// Try to turn a predicate over a scan into clustered-index seek bounds
/// on the leading column; every conjunct that sets no bound — or whose
/// literal's type group does not match the column's — stays residual.
fn extract_seek_bounds(predicate: &BoundExpr, leading_ty: DataType) -> Option<SeekBounds> {
    let mut range = ColumnRange::new();
    let mut residual: Vec<BoundExpr> = Vec::new();
    for c in split_conjuncts(predicate) {
        if !range.take(c, 0, |lit| seek_order_matches(leading_ty, lit)) {
            residual.push(c.clone());
        }
    }
    range
        .is_bounded()
        .then_some((range.lower, range.upper, join_conjuncts(residual), range.consumed))
}

/// Bounds on a single non-leading column, for a secondary-index seek:
/// `(column, lower, upper, consumed_desc)`. Columns are tried in
/// ordinal order and the first with any bound wins. Unlike the
/// clustered-seek extraction there is no residual to compute — index
/// candidates are a superset, so the caller keeps the full predicate —
/// and no type-group gate — the index's rank mask (checked by the
/// caller against the actual stored values) is the authoritative
/// order-safety test.
#[allow(clippy::type_complexity)]
fn extract_index_bounds(
    predicate: &BoundExpr,
    n_columns: usize,
) -> Option<(usize, Bound<Value>, Bound<Value>, Vec<String>)> {
    let conjuncts = split_conjuncts(predicate);
    (1..n_columns).find_map(|col| {
        let mut range = ColumnRange::new();
        for c in &conjuncts {
            range.take(c, col, |_| true);
        }
        range
            .is_bounded()
            .then_some((col, range.lower, range.upper, range.consumed))
    })
}

fn tighten_lower(current: Bound<Value>, new: Bound<Value>) -> Bound<Value> {
    match (&current, &new) {
        (Bound::Unbounded, _) => new,
        (_, Bound::Unbounded) => current,
        (Bound::Included(a) | Bound::Excluded(a), Bound::Included(b) | Bound::Excluded(b)) => {
            match a.total_cmp(b) {
                std::cmp::Ordering::Less => new,
                std::cmp::Ordering::Greater => current,
                std::cmp::Ordering::Equal => {
                    if matches!(current, Bound::Excluded(_)) {
                        current
                    } else {
                        new
                    }
                }
            }
        }
    }
}

fn tighten_upper(current: Bound<Value>, new: Bound<Value>) -> Bound<Value> {
    match (&current, &new) {
        (Bound::Unbounded, _) => new,
        (_, Bound::Unbounded) => current,
        (Bound::Included(a) | Bound::Excluded(a), Bound::Included(b) | Bound::Excluded(b)) => {
            match a.total_cmp(b) {
                std::cmp::Ordering::Greater => new,
                std::cmp::Ordering::Less => current,
                std::cmp::Ordering::Equal => {
                    if matches!(current, Bound::Excluded(_)) {
                        current
                    } else {
                        new
                    }
                }
            }
        }
    }
}

/// Split an ON condition over a concatenated schema into equi-key pairs
/// `(left_expr, right_expr)` (remapped to each side's row) and a residual.
fn split_equi_join(
    on: &BoundExpr,
    left_width: usize,
) -> (Vec<(BoundExpr, BoundExpr)>, Option<BoundExpr>) {
    let mut pairs = Vec::new();
    let mut residual = Vec::new();
    for c in split_conjuncts(on) {
        if let BoundExpr::Binary {
            left,
            op: BinaryOp::Eq,
            right,
        } = c
        {
            let l_side = side_of(left, left_width);
            let r_side = side_of(right, left_width);
            match (l_side, r_side) {
                (Some(false), Some(true)) => {
                    // left expr references only left columns, right only right.
                    pairs.push((
                        (**left).clone(),
                        right.remap_columns(&|i| i - left_width),
                    ));
                    continue;
                }
                (Some(true), Some(false)) => {
                    pairs.push((
                        (**right).clone(),
                        left.remap_columns(&|i| i - left_width),
                    ));
                    continue;
                }
                _ => {}
            }
        }
        residual.push(c.clone());
    }
    (pairs, join_conjuncts(residual))
}

/// Which side of a join an expression's columns come from:
/// `Some(false)` = all left, `Some(true)` = all right, `None` = mixed or
/// no columns.
fn side_of(e: &BoundExpr, left_width: usize) -> Option<bool> {
    let mut cols = Vec::new();
    e.column_indexes(&mut cols);
    if cols.is_empty() {
        return None;
    }
    let all_left = cols.iter().all(|&i| i < left_width);
    let all_right = cols.iter().all(|&i| i >= left_width);
    if all_left {
        Some(false)
    } else if all_right {
        Some(true)
    } else {
        None
    }
}

fn pred_selectivity(e: &BoundExpr) -> f64 {
    split_conjuncts(e)
        .iter()
        .map(|c| {
            cost::selectivity(match c {
                BoundExpr::Binary {
                    op: BinaryOp::Eq, ..
                } => PredKind::Equality,
                BoundExpr::Binary {
                    op: BinaryOp::Lt | BinaryOp::LtEq | BinaryOp::Gt | BinaryOp::GtEq,
                    ..
                }
                | BoundExpr::Between { .. } => PredKind::Range,
                BoundExpr::Like { .. } => PredKind::Like,
                _ => PredKind::Other,
            })
        })
        .product::<f64>()
        .max(0.0001)
}

fn count_expr_ops(e: &BoundExpr) -> usize {
    let mut v = Vec::new();
    e.expression_ops(&mut v);
    v.len()
}

/// Render one conjunct in Listing-1 style with real column names.
fn render_filter(e: &BoundExpr, schema: &Schema) -> String {
    let text = e.to_string();
    // Replace positional markers `#i` with column names where possible.
    let mut out = String::with_capacity(text.len());
    let mut chars = text.chars().peekable();
    while let Some(c) = chars.next() {
        if c == '#' {
            let mut digits = String::new();
            while let Some(d) = chars.peek() {
                if d.is_ascii_digit() {
                    digits.push(*d);
                    chars.next();
                } else {
                    break;
                }
            }
            match digits.parse::<usize>().ok().and_then(|i| schema.columns.get(i)) {
                Some(col) => out.push_str(&col.name),
                None => {
                    out.push('#');
                    out.push_str(&digits);
                }
            }
        } else {
            out.push(c);
        }
    }
    out
}

/// `(base table, column)` pairs an expression touches, via the schema's
/// source-table annotations.
fn columns_used(e: &BoundExpr, schema: &Schema) -> Vec<(String, String)> {
    let mut idxs = Vec::new();
    e.column_indexes(&mut idxs);
    idxs.sort_unstable();
    idxs.dedup();
    idxs.into_iter()
        .filter_map(|i| schema.columns.get(i))
        .filter_map(|c| {
            c.source_table
                .clone()
                .map(|t| (t, c.name.clone()))
        })
        .collect()
}
