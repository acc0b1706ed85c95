//! The binder: AST → logical plan.
//!
//! Resolves table/view names against the [`Catalog`] (inlining views, so
//! the deep view chains of §5.2 become nested subplans), resolves column
//! references to row positions, splits aggregates and window functions
//! out of projections, and validates the query. Subqueries bind to their
//! own plans; *correlated* subqueries are rejected with a clear message
//! (the original SQL Azure backend supported them; see DESIGN.md).

use crate::aggregate::{AggCall, AggFunc};
use crate::cache::QueryCache;
use crate::catalog::{Catalog, Relation};
use crate::expr::{common_type, BoundExpr};
use crate::functions::ScalarFunc;
use crate::logical::{LogicalPlan, SortKey};
use crate::schema::{Column, Schema};
use crate::value::{DataType, Value};
use crate::window::{WinFunc, WindowCall};
use sqlshare_common::{Error, Result};
use sqlshare_sql::ast::{
    self, ColumnRef, Expr, Literal, OrderByItem, Query, Select, SelectItem, SetExpr,
    TableRef, TypeName,
};
use sqlshare_sql::parser::parse_query;

/// Marker qualifier used to smuggle pre-resolved positions through AST
/// rewrites (aggregate and window extraction).
const POS_MARKER: &str = "$pos";

/// Maximum view-inlining depth. Fig. 6 of the paper shows real chains of
/// depth 8+; 40 leaves ample room while catching cycles.
const MAX_VIEW_DEPTH: usize = 40;

/// Binds queries against a catalog.
pub struct Binder<'a> {
    catalog: &'a Catalog,
    view_depth: usize,
    /// Canonical catalog keys of every relation this query depends on
    /// (tables and views, including through subqueries and inlined
    /// views). The engine stamps current generations onto these for
    /// result-cache keying and preview versioning.
    deps: std::collections::BTreeSet<String>,
    /// When set, view references with a current pinned materialization
    /// are spliced in as [`LogicalPlan::CachedScan`] instead of being
    /// re-expanded.
    cache: Option<&'a QueryCache>,
}

impl<'a> Binder<'a> {
    pub fn new(catalog: &'a Catalog) -> Self {
        Binder {
            catalog,
            view_depth: 0,
            deps: std::collections::BTreeSet::new(),
            cache: None,
        }
    }

    /// A binder that splices pinned hot-view materializations from
    /// `cache` into the plans it produces.
    pub fn with_cache(catalog: &'a Catalog, cache: &'a QueryCache) -> Self {
        Binder {
            cache: Some(cache),
            ..Binder::new(catalog)
        }
    }

    /// The canonical catalog keys this binder resolved, in sorted order.
    pub fn into_deps(self) -> Vec<String> {
        self.deps.into_iter().collect()
    }

    /// Bind a full query to a logical plan.
    pub fn bind_query(&mut self, query: &Query) -> Result<LogicalPlan> {
        // TOP of a lone SELECT applies after the query-level ORDER BY.
        let (mut plan, top) = match &query.body {
            // For a plain SELECT, the select binder places the Sort so that
            // ORDER BY may reference un-projected input columns.
            SetExpr::Select(s) => self.bind_select(s, &query.order_by)?,
            SetExpr::SetOp { .. } => {
                let mut plan = self.bind_set_expr(&query.body)?;
                if !query.order_by.is_empty() {
                    let keys = self.bind_order_by(&query.order_by, plan.schema())?;
                    plan = LogicalPlan::Sort {
                        input: Box::new(plan),
                        keys,
                    };
                }
                (plan, None)
            }
        };
        if let Some(top) = top {
            plan = LogicalPlan::Top {
                input: Box::new(plan),
                quantity: top.quantity,
                percent: top.percent,
            };
        }
        Ok(plan)
    }

    fn bind_set_expr(&mut self, body: &SetExpr) -> Result<LogicalPlan> {
        match body {
            SetExpr::Select(s) => {
                let (mut plan, top) = self.bind_select(s, &[])?;
                if let Some(top) = top {
                    plan = LogicalPlan::Top {
                        input: Box::new(plan),
                        quantity: top.quantity,
                        percent: top.percent,
                    };
                }
                Ok(plan)
            }
            SetExpr::SetOp {
                op,
                all,
                left,
                right,
            } => {
                let l = self.bind_set_expr(left)?;
                let r = self.bind_set_expr(right)?;
                if l.schema().len() != r.schema().len() {
                    return Err(Error::Binding(format!(
                        "{op} operands have different column counts ({} vs {})",
                        l.schema().len(),
                        r.schema().len()
                    )));
                }
                // Result schema: left names, unified types, no qualifiers;
                // a side whose column has another type converts it.
                let typed = |side: &LogicalPlan, i| (!null_only(side, i)).then(|| side.schema().columns[i].ty);
                let types: Vec<DataType> = (0..l.schema().len())
                    .map(|i| typed(&l, i).into_iter().chain(typed(&r, i)).reduce(DataType::unify))
                    .map(|ty| ty.unwrap_or(DataType::Text))
                    .collect();
                let columns = l
                    .schema()
                    .columns
                    .iter()
                    .zip(&types)
                    .map(|(c, &ty)| Column::new(c.name.clone(), ty))
                    .collect();
                Ok(LogicalPlan::SetOp {
                    op: *op,
                    all: *all,
                    left: Box::new(conform(l, &types)),
                    right: Box::new(conform(r, &types)),
                    schema: Schema::new(columns),
                })
            }
        }
    }

    /// Bind one SELECT block; returns the plan (without TOP applied) and
    /// the TOP clause for the caller to place after any ORDER BY.
    ///
    /// `order_by` is the query-level ORDER BY when this SELECT is the sole
    /// body: keys that reference output columns sort after the projection;
    /// keys that reference un-projected input columns are pushed below it
    /// (a projection is row-preserving, so the order survives).
    fn bind_select(
        &mut self,
        select: &Select,
        order_by: &[OrderByItem],
    ) -> Result<(LogicalPlan, Option<ast::Top>)> {
        // 1. FROM
        let mut input = match select.from.split_first() {
            None => LogicalPlan::OneRow,
            Some((first, rest)) => {
                let mut plan = self.bind_table_ref(first)?;
                for t in rest {
                    let right = self.bind_table_ref(t)?;
                    let schema = plan.schema().join(right.schema());
                    plan = LogicalPlan::Join {
                        left: Box::new(plan),
                        right: Box::new(right),
                        kind: ast::JoinKind::Cross,
                        on: None,
                        schema,
                    };
                }
                plan
            }
        };
        let from_schema = input.schema().clone();

        // 2. WHERE
        if let Some(selection) = &select.selection {
            let predicate = self.bind_expr(selection, &from_schema)?;
            input = LogicalPlan::Filter {
                input: Box::new(input),
                predicate,
            };
        }

        // 3. Aggregation
        let mut agg_calls: Vec<ast::FunctionCall> = Vec::new();
        for item in &select.projection {
            if let SelectItem::Expr { expr, .. } = item {
                collect_agg_calls(expr, &mut agg_calls)?;
            }
        }
        if let Some(h) = &select.having {
            collect_agg_calls(h, &mut agg_calls)?;
        }
        let has_aggregate = !agg_calls.is_empty() || !select.group_by.is_empty();

        // Rewritten projection items (post aggregate/window extraction).
        let mut projection: Vec<SelectItem> = select.projection.clone();
        let mut having = select.having.clone();
        // Group exprs -> their positions in the aggregate's output, and
        // aggregate calls -> positions after the group keys: what every
        // expression above the aggregate is rewritten with.
        let mut rules: Vec<(Expr, usize)> = Vec::new();

        if has_aggregate {
            if projection
                .iter()
                .any(|i| !matches!(i, SelectItem::Expr { .. }))
            {
                return Err(Error::Binding(
                    "SELECT * cannot be combined with GROUP BY or aggregates".into(),
                ));
            }
            // Bind group keys over the FROM schema.
            let mut group_bound = Vec::new();
            let mut group_cols = Vec::new();
            for g in &select.group_by {
                let bound = self.bind_expr(g, &from_schema)?;
                let ty = bound.result_type(&from_schema.types());
                let col = match g {
                    Expr::Column(c) => {
                        let idx = from_schema.resolve(c.qualifier.as_deref(), &c.name)?;
                        let src = &from_schema.columns[idx];
                        Column {
                            name: src.name.clone(),
                            ty,
                            qualifier: src.qualifier.clone(),
                            source_table: src.source_table.clone(),
                        }
                    }
                    // Non-column group keys are addressable by their
                    // rendered text (`GROUP BY year(d)` -> `YEAR(d)`).
                    _ => Column::new(g.to_string(), ty),
                };
                group_bound.push(bound);
                group_cols.push(col);
            }
            // Deduplicate aggregate calls structurally.
            let mut unique_aggs: Vec<ast::FunctionCall> = Vec::new();
            for call in &agg_calls {
                if !unique_aggs.iter().any(|c| c == call) {
                    unique_aggs.push(call.clone());
                }
            }
            let mut bound_aggs = Vec::new();
            let mut agg_cols = Vec::new();
            for call in &unique_aggs {
                let func = AggFunc::from_name(&call.name)
                    .expect("collect_agg_calls only collects aggregates");
                let (arg, arg_ty) = match call.args.as_slice() {
                    [Expr::Wildcard] => (None, DataType::Int),
                    [one] => {
                        let bound = self.bind_expr(one, &from_schema)?;
                        let ty = bound.result_type(&from_schema.types());
                        (Some(bound), ty)
                    }
                    [] => {
                        return Err(Error::Binding(format!(
                            "{} requires an argument",
                            call.name
                        )))
                    }
                    _ => {
                        return Err(Error::Binding(format!(
                            "{} takes a single argument",
                            call.name
                        )))
                    }
                };
                agg_cols.push(Column::new(
                    ast::Expr::Function(call.clone()).to_string(),
                    func.result_type(arg_ty),
                ));
                bound_aggs.push(AggCall {
                    func,
                    arg,
                    distinct: call.distinct,
                });
            }
            let mut agg_schema_cols = group_cols;
            agg_schema_cols.extend(agg_cols);
            let agg_schema = Schema::new(agg_schema_cols);

            input = LogicalPlan::Aggregate {
                input: Box::new(input),
                group: group_bound,
                aggs: bound_aggs,
                schema: agg_schema.clone(),
            };

            let group_len = select.group_by.len();
            for (i, g) in select.group_by.iter().enumerate() {
                rules.push((g.clone(), i));
            }
            for (i, c) in unique_aggs.iter().enumerate() {
                rules.push((Expr::Function(c.clone()), group_len + i));
            }
            for item in &mut projection {
                if let SelectItem::Expr { expr, .. } = item {
                    replace_subtrees(expr, &rules);
                }
            }
            if let Some(h) = &mut having {
                replace_subtrees(h, &rules);
            }

            // HAVING binds over the aggregate output.
            if let Some(h) = &having {
                let predicate = self.bind_expr(h, &agg_schema)?;
                input = LogicalPlan::Filter {
                    input: Box::new(input),
                    predicate,
                };
            }
        } else if select.having.is_some() {
            return Err(Error::Binding(
                "HAVING requires GROUP BY or aggregates".into(),
            ));
        }

        // 4. Window functions over the (possibly aggregated) input.
        let pre_window_schema = input.schema().clone();
        let mut window_calls: Vec<ast::FunctionCall> = Vec::new();
        for item in &projection {
            if let SelectItem::Expr { expr, .. } = item {
                collect_window_calls(expr, &mut window_calls);
            }
        }
        if !window_calls.is_empty() {
            // Group calls by window spec so each group becomes one
            // Segment/Sequence Project pipeline.
            let mut groups: Vec<(String, Vec<(usize, ast::FunctionCall)>)> = Vec::new();
            for (i, call) in window_calls.iter().enumerate() {
                let spec = call.over.as_ref().expect("window call has OVER");
                let sig = format!("{spec}");
                match groups.iter_mut().find(|(s, _)| *s == sig) {
                    Some((_, v)) => v.push((i, call.clone())),
                    None => groups.push((sig, vec![(i, call.clone())])),
                }
            }
            // Output position of each original call.
            let mut positions = vec![0usize; window_calls.len()];
            let mut width = pre_window_schema.len();
            for (_, members) in &groups {
                let schema_now = input.schema().clone();
                let mut calls = Vec::new();
                let mut new_cols = Vec::new();
                for (orig_idx, call) in members {
                    let spec = call.over.as_ref().unwrap();
                    let func = WinFunc::from_name(&call.name).ok_or_else(|| {
                        Error::Binding(format!(
                            "'{}' is not usable as a window function",
                            call.name
                        ))
                    })?;
                    let mut args = Vec::new();
                    for a in &call.args {
                        if matches!(a, Expr::Wildcard) {
                            return Err(Error::Binding(
                                "window aggregates require an explicit argument".into(),
                            ));
                        }
                        args.push(self.bind_expr(a, &schema_now)?);
                    }
                    let partition_by = spec
                        .partition_by
                        .iter()
                        .map(|e| self.bind_expr(e, &schema_now))
                        .collect::<Result<Vec<_>>>()?;
                    let order_by = spec
                        .order_by
                        .iter()
                        .map(|o| Ok((self.bind_expr(&o.expr, &schema_now)?, o.desc)))
                        .collect::<Result<Vec<_>>>()?;
                    if let (WinFunc::Lag | WinFunc::Lead, [value, _, default]) = (func, &mut args[..]) {
                        // The default stands in for the value: they meet.
                        meet([value, default].into_iter(), &schema_now);
                    }
                    let arg_ty = args
                        .first()
                        .map(|a| a.result_type(&schema_now.types()))
                        .unwrap_or(DataType::Int);
                    new_cols.push(Column::new(
                        Expr::Function(call.clone()).to_string(),
                        func.result_type(arg_ty),
                    ));
                    calls.push(WindowCall {
                        func,
                        args,
                        partition_by,
                        order_by,
                    });
                    positions[*orig_idx] = width;
                    width += 1;
                }
                let mut cols = input.schema().columns.clone();
                cols.extend(new_cols);
                let schema = Schema::new(cols);
                input = LogicalPlan::Window {
                    input: Box::new(input),
                    calls,
                    schema,
                };
            }
            // Rewrite projection: window calls -> output positions.
            let rules: Vec<(Expr, usize)> = window_calls
                .iter()
                .enumerate()
                .map(|(i, c)| (Expr::Function(c.clone()), positions[i]))
                .collect();
            for item in &mut projection {
                if let SelectItem::Expr { expr, .. } = item {
                    replace_subtrees(expr, &rules);
                }
            }
        }

        // 5. Projection. Wildcards expand over the FROM schema (window
        // columns and internal aggregate outputs are not part of `*`).
        let bind_schema = input.schema().clone();
        let mut exprs = Vec::new();
        let mut out_cols = Vec::new();
        for item in &projection {
            match item {
                SelectItem::Wildcard => {
                    for (i, c) in from_schema.columns.iter().enumerate() {
                        exprs.push(BoundExpr::Column(i));
                        out_cols.push(c.clone());
                    }
                }
                SelectItem::QualifiedWildcard(q) => {
                    let idxs = from_schema.indexes_for_qualifier(q);
                    if idxs.is_empty() {
                        return Err(Error::Binding(format!("unknown table alias '{q}'")));
                    }
                    for i in idxs {
                        exprs.push(BoundExpr::Column(i));
                        out_cols.push(from_schema.columns[i].clone());
                    }
                }
                SelectItem::Expr { expr, alias } => {
                    let bound = self.bind_expr(expr, &bind_schema)?;
                    let ty = bound.result_type(&bind_schema.types());
                    let col = match (&bound, alias) {
                        (_, Some(a)) => Column::new(a.clone(), ty),
                        (BoundExpr::Column(i), None) => {
                            let src = &bind_schema.columns[*i];
                            Column {
                                name: src.name.clone(),
                                ty,
                                qualifier: src.qualifier.clone(),
                                source_table: src.source_table.clone(),
                            }
                        }
                        (_, None) => Column::new(expr.to_string(), ty),
                    };
                    exprs.push(bound);
                    out_cols.push(col);
                }
            }
        }
        let out_schema = Schema::new(out_cols);

        // 6. ORDER BY placement. First try binding every key over the
        // output schema (aliases, positions); if any key only resolves
        // against the projection *input*, push the whole Sort below the
        // projection by substituting output references with their
        // defining expressions.
        let mut sort_above: Option<Vec<SortKey>> = None;
        let mut sort_below: Option<Vec<SortKey>> = None;
        if !order_by.is_empty() {
            match self.bind_order_by(order_by, &out_schema) {
                Ok(keys) => sort_above = Some(keys),
                Err(output_err) => {
                    if select.distinct {
                        // With DISTINCT, ORDER BY must use selected columns.
                        return Err(output_err);
                    }
                    let mut keys = Vec::with_capacity(order_by.len());
                    for item in order_by {
                        let key = match self.bind_order_by(
                            std::slice::from_ref(item),
                            &out_schema,
                        ) {
                            // Resolves in the output: rewrite to the
                            // defining input expression.
                            Ok(mut k) => {
                                let k = k.remove(0);
                                SortKey {
                                    expr: k.expr.substitute_columns(&exprs),
                                    desc: k.desc,
                                }
                            }
                            // Falls back to the projection input.
                            Err(_) => {
                                let mut expr = item.expr.clone();
                                replace_subtrees(&mut expr, &rules);
                                SortKey {
                                    expr: self.bind_expr(&expr, &bind_schema)?,
                                    desc: item.desc,
                                }
                            }
                        };
                        keys.push(key);
                    }
                    sort_below = Some(keys);
                }
            }
        }

        if let Some(keys) = sort_below {
            input = LogicalPlan::Sort {
                input: Box::new(input),
                keys,
            };
        }

        let mut plan = LogicalPlan::Project {
            input: Box::new(input),
            exprs,
            schema: out_schema,
        };

        // 7. DISTINCT
        if select.distinct {
            plan = LogicalPlan::Distinct {
                input: Box::new(plan),
            };
        }

        if let Some(keys) = sort_above {
            plan = LogicalPlan::Sort {
                input: Box::new(plan),
                keys,
            };
        }

        Ok((plan, select.top))
    }

    fn bind_table_ref(&mut self, t: &TableRef) -> Result<LogicalPlan> {
        match t {
            TableRef::Named { name, alias } => {
                let (relation, key) = self.catalog.resolve_with_key(name)?;
                self.deps.insert(key.clone());
                match relation {
                    Relation::Table(table) => {
                        let visible = alias.clone().unwrap_or_else(|| name.base().to_string());
                        let columns = table
                            .schema
                            .columns
                            .iter()
                            .map(|c| {
                                Column::new(c.name.clone(), c.ty)
                                    .with_qualifier(visible.clone())
                                    .with_source(table.name.clone())
                            })
                            .collect();
                        Ok(LogicalPlan::Scan {
                            table: table.name.clone(),
                            schema: Schema::new(columns),
                        })
                    }
                    Relation::View(view) => {
                        if self.view_depth >= MAX_VIEW_DEPTH {
                            return Err(Error::Binding(format!(
                                "view nesting exceeds {MAX_VIEW_DEPTH} (cycle in view '{}'?)",
                                view.name
                            )));
                        }
                        // A pinned hot-view materialization whose
                        // dependency generations are all current replaces
                        // the whole expansion with a base-scan of the
                        // pinned rows.
                        if let Some(cache) = self.cache {
                            if let Some(mat) = cache.materialized(&key, self.catalog) {
                                for (dep, _) in &mat.deps {
                                    self.deps.insert(dep.clone());
                                }
                                let visible = alias
                                    .clone()
                                    .unwrap_or_else(|| short_name(&view.name));
                                let plan = LogicalPlan::CachedScan {
                                    name: key,
                                    schema: mat.schema.clone(),
                                    batch: mat.batch.clone(),
                                };
                                return Ok(requalify(plan, &visible));
                            }
                        }
                        let parsed = parse_query(&view.sql).map_err(|e| {
                            Error::Binding(format!(
                                "definition of view '{}' failed to parse: {e}",
                                view.name
                            ))
                        })?;
                        let visible = alias
                            .clone()
                            .unwrap_or_else(|| short_name(&view.name));
                        self.view_depth += 1;
                        let plan = self.bind_query(&parsed);
                        self.view_depth -= 1;
                        Ok(requalify(plan?, &visible))
                    }
                }
            }
            TableRef::Derived { subquery, alias } => {
                let plan = self.bind_query(subquery)?;
                Ok(requalify(plan, alias))
            }
            TableRef::Join {
                left,
                right,
                kind,
                constraint,
            } => {
                let l = self.bind_table_ref(left)?;
                let r = self.bind_table_ref(right)?;
                let schema = l.schema().join(r.schema());
                let on = match constraint {
                    Some(c) => Some(self.bind_expr(c, &schema)?),
                    None => None,
                };
                Ok(LogicalPlan::Join {
                    left: Box::new(l),
                    right: Box::new(r),
                    kind: *kind,
                    on,
                    schema,
                })
            }
        }
    }

    fn bind_order_by(&mut self, items: &[OrderByItem], schema: &Schema) -> Result<Vec<SortKey>> {
        items
            .iter()
            .map(|item| {
                // Positional ORDER BY: `ORDER BY 2`.
                if let Expr::Literal(Literal::Int(k)) = &item.expr {
                    let idx = *k;
                    if idx < 1 || idx as usize > schema.len() {
                        return Err(Error::Binding(format!(
                            "ORDER BY position {idx} is out of range"
                        )));
                    }
                    return Ok(SortKey {
                        expr: BoundExpr::Column(idx as usize - 1),
                        desc: item.desc,
                    });
                }
                Ok(SortKey {
                    expr: self.bind_expr(&item.expr, schema)?,
                    desc: item.desc,
                })
            })
            .collect()
    }

    /// Bind a scalar expression over `schema`.
    pub fn bind_expr(&mut self, expr: &Expr, schema: &Schema) -> Result<BoundExpr> {
        let mut bound = match expr {
            Expr::Column(ColumnRef { qualifier, name }) => {
                if qualifier.as_deref() == Some(POS_MARKER) {
                    BoundExpr::Column(name.parse::<usize>().map_err(|_| {
                        Error::Binding("internal: bad position marker".into())
                    })?)
                } else {
                    BoundExpr::Column(schema.resolve(qualifier.as_deref(), name)?)
                }
            }
            Expr::Literal(l) => BoundExpr::Literal(match l {
                Literal::Null => Value::Null,
                Literal::Bool(b) => Value::Bool(*b),
                Literal::Int(i) => Value::Int(*i),
                Literal::Float(f) => Value::Float(*f),
                Literal::String(s) => Value::Text(s.clone()),
            }),
            Expr::Wildcard => {
                return Err(Error::Binding(
                    "'*' is only valid in COUNT(*) or a SELECT list".into(),
                ))
            }
            Expr::Unary { op, expr } => match op {
                ast::UnaryOp::Not => BoundExpr::Not(Box::new(self.bind_expr(expr, schema)?)),
                ast::UnaryOp::Neg => BoundExpr::Neg(Box::new(self.bind_expr(expr, schema)?)),
            },
            Expr::Binary { left, op, right } => BoundExpr::Binary {
                left: Box::new(self.bind_expr(left, schema)?),
                op: *op,
                right: Box::new(self.bind_expr(right, schema)?),
            },
            Expr::Function(call) => self.bind_function(call, schema)?,
            Expr::Case {
                operand,
                branches,
                else_result,
            } => BoundExpr::Case {
                operand: match operand {
                    Some(o) => Some(Box::new(self.bind_expr(o, schema)?)),
                    None => None,
                },
                branches: branches
                    .iter()
                    .map(|(c, v)| {
                        Ok((self.bind_expr(c, schema)?, self.bind_expr(v, schema)?))
                    })
                    .collect::<Result<Vec<_>>>()?,
                else_result: match else_result {
                    Some(e) => Some(Box::new(self.bind_expr(e, schema)?)),
                    None => None,
                },
            },
            Expr::Cast {
                expr,
                ty,
                try_cast,
            } => BoundExpr::Cast {
                expr: Box::new(self.bind_expr(expr, schema)?),
                ty: bind_type(*ty),
                try_cast: *try_cast,
            },
            Expr::IsNull { expr, negated } => BoundExpr::IsNull {
                expr: Box::new(self.bind_expr(expr, schema)?),
                negated: *negated,
            },
            Expr::InList {
                expr,
                list,
                negated,
            } => BoundExpr::InList {
                expr: Box::new(self.bind_expr(expr, schema)?),
                list: list
                    .iter()
                    .map(|e| self.bind_expr(e, schema))
                    .collect::<Result<Vec<_>>>()?,
                negated: *negated,
            },
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => BoundExpr::Between {
                expr: Box::new(self.bind_expr(expr, schema)?),
                low: Box::new(self.bind_expr(low, schema)?),
                high: Box::new(self.bind_expr(high, schema)?),
                negated: *negated,
            },
            Expr::Like {
                expr,
                pattern,
                negated,
            } => BoundExpr::Like {
                expr: Box::new(self.bind_expr(expr, schema)?),
                pattern: Box::new(self.bind_expr(pattern, schema)?),
                negated: *negated,
            },
            Expr::ScalarSubquery(q) => {
                let plan = self.bind_subquery(q)?;
                if plan.schema().len() != 1 {
                    return Err(Error::Binding(
                        "scalar subquery must return exactly one column".into(),
                    ));
                }
                BoundExpr::ScalarSubquery(Box::new(plan))
            }
            Expr::InSubquery {
                expr,
                subquery,
                negated,
            } => {
                let plan = self.bind_subquery(subquery)?;
                if plan.schema().len() != 1 {
                    return Err(Error::Binding(
                        "IN subquery must return exactly one column".into(),
                    ));
                }
                BoundExpr::InSubquery {
                    expr: Box::new(self.bind_expr(expr, schema)?),
                    plan: Box::new(plan),
                    negated: *negated,
                }
            }
            Expr::Exists { subquery, negated } => BoundExpr::Exists {
                plan: Box::new(self.bind_subquery(subquery)?),
                negated: *negated,
            },
        };
        // Values that meet — `CASE` results, `COALESCE` / `ISNULL`
        // arguments — take their common type.
        match &mut bound {
            BoundExpr::Case { branches, else_result, .. } => {
                meet(branches.iter_mut().map(|(_, v)| v).chain(else_result.as_deref_mut()), schema)
            }
            BoundExpr::Func { func: ScalarFunc::Coalesce | ScalarFunc::IsNullFn, args } => {
                meet(args.iter_mut(), schema)
            }
            _ => {}
        }
        Ok(bound)
    }

    fn bind_subquery(&mut self, q: &Query) -> Result<LogicalPlan> {
        let mut sub = Binder {
            catalog: self.catalog,
            view_depth: self.view_depth,
            deps: std::collections::BTreeSet::new(),
            cache: self.cache,
        };
        let bound = sub.bind_query(q);
        // Subquery plans read relations too; their dependencies are the
        // outer query's dependencies.
        self.deps.extend(sub.deps);
        bound.map_err(|e| match e {
            // Unresolvable columns inside a subquery are usually attempts
            // at correlation; say so.
            Error::Binding(msg) if msg.starts_with("unknown column") => Error::Binding(format!(
                "{msg} (correlated subqueries are not supported; \
                 rewrite with a JOIN)"
            )),
            other => other,
        })
    }

    fn bind_function(&mut self, call: &ast::FunctionCall, schema: &Schema) -> Result<BoundExpr> {
        if call.over.is_some() {
            return Err(Error::Binding(format!(
                "window function {} is only allowed in the SELECT list",
                call.name
            )));
        }
        if AggFunc::from_name(&call.name).is_some() {
            return Err(Error::Binding(format!(
                "aggregate {} is not allowed here",
                call.name
            )));
        }
        if let Some(func) = ScalarFunc::from_name(&call.name) {
            use crate::functions::ScalarFunc::*;
            let mut args = Vec::with_capacity(call.args.len());
            for (i, a) in call.args.iter().enumerate() {
                // DATEPART-family first argument is a bare date-part
                // keyword, not a column.
                let is_part_keyword =
                    i == 0 && matches!(func, Datepart | Datediff | Dateadd);
                if is_part_keyword {
                    if let Expr::Column(ColumnRef {
                        qualifier: None,
                        name,
                    }) = a
                    {
                        args.push(BoundExpr::Literal(Value::Text(name.clone())));
                        continue;
                    }
                }
                args.push(self.bind_expr(a, schema)?);
            }
            let (min, max) = func.arity();
            if args.len() < min || args.len() > max {
                return Err(Error::Binding(format!(
                    "wrong number of arguments for {}",
                    call.name
                )));
            }
            return Ok(BoundExpr::Func { func, args });
        }
        if self.catalog.udf(&call.name).is_some() {
            let args = call
                .args
                .iter()
                .map(|a| self.bind_expr(a, schema))
                .collect::<Result<Vec<_>>>()?;
            return Ok(BoundExpr::Udf {
                name: call.name.clone(),
                args,
            });
        }
        Err(Error::Binding(format!("unknown function '{}'", call.name)))
    }
}

/// Wrap a plan in an identity projection that renames qualifiers to
/// `alias` (used for derived tables and inlined views). The physical
/// planner recognizes identity projections and keeps them invisible.
fn requalify(plan: LogicalPlan, alias: &str) -> LogicalPlan {
    let columns: Vec<Column> = plan
        .schema()
        .columns
        .iter()
        .map(|c| Column {
            name: c.name.clone(),
            ty: c.ty,
            qualifier: Some(alias.to_string()),
            source_table: c.source_table.clone(),
        })
        .collect();
    let exprs = (0..columns.len()).map(BoundExpr::Column).collect();
    LogicalPlan::Project {
        input: Box::new(plan),
        exprs,
        schema: Schema::new(columns),
    }
}

/// The display base of a possibly-qualified view name (`alice.tides` ->
/// `tides`).
fn short_name(name: &str) -> String {
    name.rsplit('.').next().unwrap_or(name).to_string()
}

/// Where `exprs`, bound over `schema`, meet: each takes their
/// [`common_type`] by an implicit conversion.
fn meet<'e>(exprs: impl Iterator<Item = &'e mut BoundExpr>, schema: &Schema) {
    let (exprs, types): (Vec<_>, _) = (exprs.collect(), schema.types());
    let ty = common_type(exprs.iter().map(|e| &**e), &types);
    exprs.into_iter().for_each(|e| convert_implicit(e, ty, &types));
}

/// The implicit conversion where values meet (SQL Server's
/// `CONVERT_IMPLICIT`): `e`, over columns of `input_types`, in a strict
/// CAST to `ty` unless it has that type. The conversions [`common_type`]
/// asks for — Int to Float, any to Text — cannot fail; a NULL literal
/// fits any type as it is.
fn convert_implicit(e: &mut BoundExpr, ty: DataType, input_types: &[DataType]) {
    if !matches!(e, BoundExpr::Literal(Value::Null)) && e.result_type(input_types) != ty {
        let expr = Box::new(std::mem::replace(e, BoundExpr::Literal(Value::Null)));
        *e = BoundExpr::Cast { expr, ty, try_cast: false };
    }
}

/// A set-operation side whose columns take `types`: under a projection
/// converting the columns of other types, when there are any.
fn conform(side: LogicalPlan, types: &[DataType]) -> LogicalPlan {
    let input = side.schema().types();
    if input == types {
        return side;
    }
    let mut exprs: Vec<BoundExpr> = (0..types.len()).map(BoundExpr::Column).collect();
    exprs.iter_mut().zip(types).for_each(|(e, &ty)| convert_implicit(e, ty, &input));
    let columns = side.schema().columns.iter().zip(types);
    let columns = columns.map(|(c, &ty)| Column { ty, ..c.clone() }).collect();
    LogicalPlan::Project {
        input: Box::new(side),
        exprs,
        schema: Schema::new(columns),
    }
}

/// Whether column `i` of a set-operation side can only be NULL (`SELECT
/// NULL AS c ... UNION ...`): it has no type of its own and takes the
/// other side's.
fn null_only(side: &LogicalPlan, i: usize) -> bool {
    match side {
        LogicalPlan::Project { exprs, .. } => matches!(exprs[i], BoundExpr::Literal(Value::Null)),
        LogicalPlan::Distinct { input } | LogicalPlan::Sort { input, .. } => null_only(input, i),
        LogicalPlan::Top { input, .. } => null_only(input, i),
        LogicalPlan::SetOp { left, right, .. } => null_only(left, i) && null_only(right, i),
        _ => false,
    }
}

fn bind_type(ty: TypeName) -> DataType {
    match ty {
        TypeName::Int | TypeName::BigInt => DataType::Int,
        TypeName::Float | TypeName::Decimal => DataType::Float,
        TypeName::Varchar => DataType::Text,
        TypeName::Date | TypeName::DateTime => DataType::Date,
        TypeName::Bit => DataType::Bool,
    }
}

/// Collect aggregate calls (non-windowed), rejecting nested aggregates.
fn collect_agg_calls(expr: &Expr, out: &mut Vec<ast::FunctionCall>) -> Result<()> {
    if let Expr::Function(call) = expr {
        if call.over.is_none() && AggFunc::from_name(&call.name).is_some() {
            for a in &call.args {
                let mut inner = Vec::new();
                collect_agg_calls(a, &mut inner)?;
                if !inner.is_empty() {
                    return Err(Error::Binding(
                        "aggregate functions cannot be nested".into(),
                    ));
                }
            }
            out.push(call.clone());
            return Ok(());
        }
    }
    // Recurse into children (a window call's arguments and keys among
    // them); subqueries are their own scopes and are not entered.
    expr.walk(&mut |e| {
        if std::ptr::eq(e, expr) {
            return;
        }
        if let Expr::Function(call) = e {
            if call.over.is_none()
                && AggFunc::from_name(&call.name).is_some()
                && !out.iter().any(|c| c == call)
            {
                out.push(call.clone());
            }
        }
    });
    Ok(())
}

/// Collect windowed calls.
fn collect_window_calls(expr: &Expr, out: &mut Vec<ast::FunctionCall>) {
    expr.walk(&mut |e| {
        if let Expr::Function(call) = e {
            if call.over.is_some() && !out.iter().any(|c| c == call) {
                out.push(call.clone());
            }
        }
    });
}

/// Replace every subtree structurally equal to a rule's pattern with a
/// position-marker column — in every operand position, a window call's
/// `PARTITION BY` / `ORDER BY` keys included. Subqueries are their own
/// scope and are left alone.
fn replace_subtrees(expr: &mut Expr, rules: &[(Expr, usize)]) {
    if let Some((_, pos)) = rules.iter().find(|(pattern, _)| pattern == expr) {
        *expr = Expr::Column(ColumnRef {
            qualifier: Some(POS_MARKER.to_string()),
            name: pos.to_string(),
        });
        return;
    }
    expr.parts_mut(&mut |part| {
        if let ast::PartMut::Expr(e) = part {
            replace_subtrees(e, rules);
        }
    });
}
