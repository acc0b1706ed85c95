//! Window functions (§3.5, §5.3 of the paper).
//!
//! "Virtually no systems outside of the major vendors support window
//! functions; these newer systems will not be capable of handling the
//! SQLShare workload!" — so this engine supports them: ranking functions
//! (`ROW_NUMBER`, `RANK`, `DENSE_RANK`, `NTILE`), offset functions
//! (`LAG`, `LEAD`), and aggregates over windows with the T-SQL default
//! frame (whole partition without ORDER BY; running-with-peers with it).

use crate::aggregate::{Accumulator, AggFunc};
use crate::expr::BoundExpr;
use crate::functions::EvalContext;
use crate::table::cmp_rows;
use crate::value::{DataType, Row, Value};
use sqlshare_common::{Error, Result};

/// Window function kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WinFunc {
    RowNumber,
    Rank,
    DenseRank,
    Ntile,
    Lag,
    Lead,
    Agg(AggFunc),
}

impl WinFunc {
    /// Resolve a function name used with OVER.
    pub fn from_name(name: &str) -> Option<WinFunc> {
        Some(match name.to_ascii_uppercase().as_str() {
            "ROW_NUMBER" => WinFunc::RowNumber,
            "RANK" => WinFunc::Rank,
            "DENSE_RANK" => WinFunc::DenseRank,
            "NTILE" => WinFunc::Ntile,
            "LAG" => WinFunc::Lag,
            "LEAD" => WinFunc::Lead,
            other => WinFunc::Agg(AggFunc::from_name(other)?),
        })
    }

    /// Whether this function requires an ORDER BY in its window spec.
    pub fn requires_order(&self) -> bool {
        matches!(
            self,
            WinFunc::RowNumber | WinFunc::Rank | WinFunc::DenseRank | WinFunc::Ntile | WinFunc::Lag | WinFunc::Lead
        )
    }

    /// Result type given the argument type.
    pub fn result_type(&self, arg: DataType) -> DataType {
        match self {
            WinFunc::RowNumber | WinFunc::Rank | WinFunc::DenseRank | WinFunc::Ntile => {
                DataType::Int
            }
            WinFunc::Lag | WinFunc::Lead => arg,
            WinFunc::Agg(f) => f.result_type(arg),
        }
    }
}

/// One bound window call.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowCall {
    pub func: WinFunc,
    pub args: Vec<BoundExpr>,
    pub partition_by: Vec<BoundExpr>,
    pub order_by: Vec<(BoundExpr, bool)>,
}

impl WindowCall {
    /// The (partition, order) signature used to group compatible calls
    /// into one Segment/Sequence Project pipeline.
    pub fn spec_signature(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        for p in &self.partition_by {
            let _ = write!(s, "P{p};");
        }
        for (o, d) in &self.order_by {
            let _ = write!(s, "O{o}{};", if *d { "D" } else { "A" });
        }
        s
    }
}

/// Compute a group of window calls sharing one window spec, appending one
/// output column per call. `rows` arrive sorted by (partition, order) —
/// the planner puts a Sort on those keys under every Segment — and are
/// returned in that order.
pub fn compute_windows(
    mut rows: Vec<Row>,
    calls: &[WindowCall],
    ctx: &EvalContext,
) -> Result<Vec<Row>> {
    if calls.is_empty() {
        return Ok(rows);
    }
    let spec = &calls[0];
    debug_assert!(calls
        .iter()
        .all(|c| c.spec_signature() == spec.spec_signature()));

    let mut keyed: Vec<(Vec<Value>, Vec<Value>, Row)> = Vec::with_capacity(rows.len());
    for row in rows.drain(..) {
        let pkey = eval_all(&spec.partition_by, &row, ctx)?;
        let mut okey = Vec::with_capacity(spec.order_by.len());
        for (e, _) in &spec.order_by {
            okey.push(e.eval(&row, ctx)?);
        }
        keyed.push((pkey, okey, row));
    }

    // Partition boundaries.
    let mut out = Vec::with_capacity(keyed.len());
    let mut start = 0usize;
    while start < keyed.len() {
        let mut end = start + 1;
        while end < keyed.len() && cmp_rows(&keyed[end].0, &keyed[start].0).is_eq() {
            end += 1;
        }
        let partition = &keyed[start..end];
        let mut extra: Vec<Vec<Value>> = vec![Vec::with_capacity(partition.len()); calls.len()];
        for (ci, call) in calls.iter().enumerate() {
            compute_one(call, partition, ctx, &mut extra[ci])?;
        }
        for (ri, (_, _, row)) in partition.iter().enumerate() {
            let mut new_row = row.clone();
            for col in &extra {
                new_row.push(col[ri].clone());
            }
            out.push(new_row);
        }
        start = end;
    }
    Ok(out)
}

fn compute_one(
    call: &WindowCall,
    partition: &[(Vec<Value>, Vec<Value>, Row)],
    ctx: &EvalContext,
    out: &mut Vec<Value>,
) -> Result<()> {
    let n = partition.len();
    if call.func.requires_order() && call.order_by.is_empty() {
        return Err(Error::Plan(
            "window function requires ORDER BY in its OVER clause".to_string(),
        ));
    }
    match call.func {
        WinFunc::RowNumber => {
            for i in 0..n {
                out.push(Value::Int((i + 1) as i64));
            }
        }
        WinFunc::Rank | WinFunc::DenseRank => {
            let mut rank = 0i64;
            let mut dense = 0i64;
            for i in 0..n {
                if i == 0 || cmp_order(&partition[i].1, &partition[i - 1].1, &call.order_by) != std::cmp::Ordering::Equal {
                    rank = (i + 1) as i64;
                    dense += 1;
                }
                out.push(Value::Int(if call.func == WinFunc::Rank {
                    rank
                } else {
                    dense
                }));
            }
        }
        WinFunc::Ntile => {
            let buckets = match call.args.first() {
                Some(BoundExpr::Literal(Value::Int(k))) if *k > 0 => *k as usize,
                _ => {
                    return Err(Error::Plan(
                        "NTILE requires a positive integer literal argument".into(),
                    ))
                }
            };
            let base = n / buckets;
            let extra = n % buckets;
            let mut idx = 0usize;
            for b in 0..buckets {
                let size = base + usize::from(b < extra);
                for _ in 0..size {
                    if idx < n {
                        out.push(Value::Int((b + 1) as i64));
                        idx += 1;
                    }
                }
            }
            while idx < n {
                out.push(Value::Int(buckets as i64));
                idx += 1;
            }
        }
        WinFunc::Lag | WinFunc::Lead => {
            let offset = match call.args.get(1) {
                None => 1i64,
                Some(BoundExpr::Literal(Value::Int(k))) => *k,
                Some(_) => {
                    return Err(Error::Plan(
                        "LAG/LEAD offset must be an integer literal".into(),
                    ))
                }
            };
            let arg = call
                .args
                .first()
                .ok_or_else(|| Error::Plan("LAG/LEAD requires an argument".into()))?;
            for i in 0..n {
                let j = if call.func == WinFunc::Lag {
                    i as i64 - offset
                } else {
                    i as i64 + offset
                };
                if j < 0 || j >= n as i64 {
                    // Optional third default argument.
                    match call.args.get(2) {
                        Some(d) => out.push(d.eval(&partition[i].2, ctx)?),
                        None => out.push(Value::Null),
                    }
                } else {
                    out.push(arg.eval(&partition[j as usize].2, ctx)?);
                }
            }
        }
        WinFunc::Agg(func) => {
            let arg = call.args.first();
            if call.order_by.is_empty() {
                // Whole-partition aggregate.
                let mut acc = Accumulator::new(func, false);
                for (_, _, row) in partition {
                    let v = match arg {
                        Some(e) => e.eval(row, ctx)?,
                        None => Value::Int(1),
                    };
                    acc.push(&v)?;
                }
                let v = acc.finish()?;
                for _ in 0..n {
                    out.push(v.clone());
                }
            } else {
                // Running aggregate including peers (T-SQL default RANGE
                // frame): recompute at each distinct order-key boundary.
                let mut acc = Accumulator::new(func, false);
                let mut i = 0usize;
                while i < n {
                    let mut j = i + 1;
                    while j < n
                        && cmp_order(&partition[j].1, &partition[i].1, &call.order_by)
                            == std::cmp::Ordering::Equal
                    {
                        j += 1;
                    }
                    for (_, _, row) in &partition[i..j] {
                        let v = match arg {
                            Some(e) => e.eval(row, ctx)?,
                            None => Value::Int(1),
                        };
                        acc.push(&v)?;
                    }
                    let v = acc.finish()?;
                    for _ in i..j {
                        out.push(v.clone());
                    }
                    i = j;
                }
            }
        }
    }
    Ok(())
}

fn eval_all(exprs: &[BoundExpr], row: &Row, ctx: &EvalContext) -> Result<Vec<Value>> {
    exprs.iter().map(|e| e.eval(row, ctx)).collect()
}

fn cmp_order(a: &[Value], b: &[Value], spec: &[(BoundExpr, bool)]) -> std::cmp::Ordering {
    for (i, (_, desc)) in spec.iter().enumerate() {
        let ord = a[i].total_cmp(&b[i]);
        let ord = if *desc { ord.reverse() } else { ord };
        if ord != std::cmp::Ordering::Equal {
            return ord;
        }
    }
    std::cmp::Ordering::Equal
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<Row> {
        // (dept, salary)
        vec![
            vec![Value::Text("a".into()), Value::Int(10)],
            vec![Value::Text("a".into()), Value::Int(30)],
            vec![Value::Text("a".into()), Value::Int(30)],
            vec![Value::Text("b".into()), Value::Int(20)],
        ]
    }

    fn call(func: WinFunc, args: Vec<BoundExpr>) -> WindowCall {
        WindowCall {
            func,
            args,
            partition_by: vec![BoundExpr::Column(0)],
            order_by: vec![(BoundExpr::Column(1), false)],
        }
    }

    fn col(rows: &[Row], idx: usize) -> Vec<Value> {
        rows.iter().map(|r| r[idx].clone()).collect()
    }

    #[test]
    fn row_number_per_partition() {
        let out =
            compute_windows(rows(), &[call(WinFunc::RowNumber, vec![])], &EvalContext::default())
                .unwrap();
        assert_eq!(
            col(&out, 2),
            vec![Value::Int(1), Value::Int(2), Value::Int(3), Value::Int(1)]
        );
    }

    #[test]
    fn rank_and_dense_rank_handle_ties() {
        let out = compute_windows(
            rows(),
            &[call(WinFunc::Rank, vec![]), call(WinFunc::DenseRank, vec![])],
            &EvalContext::default(),
        )
        .unwrap();
        assert_eq!(
            col(&out, 2),
            vec![Value::Int(1), Value::Int(2), Value::Int(2), Value::Int(1)]
        );
        assert_eq!(
            col(&out, 3),
            vec![Value::Int(1), Value::Int(2), Value::Int(2), Value::Int(1)]
        );
    }

    #[test]
    fn whole_partition_aggregate() {
        let mut c = call(WinFunc::Agg(AggFunc::Sum), vec![BoundExpr::Column(1)]);
        c.order_by.clear();
        let out = compute_windows(rows(), &[c], &EvalContext::default()).unwrap();
        assert_eq!(
            col(&out, 2),
            vec![Value::Int(70), Value::Int(70), Value::Int(70), Value::Int(20)]
        );
    }

    #[test]
    fn running_aggregate_includes_peers() {
        let c = call(WinFunc::Agg(AggFunc::Sum), vec![BoundExpr::Column(1)]);
        let out = compute_windows(rows(), &[c], &EvalContext::default()).unwrap();
        // 10; then two peers at 30 both see 10+30+30=70.
        assert_eq!(
            col(&out, 2),
            vec![Value::Int(10), Value::Int(70), Value::Int(70), Value::Int(20)]
        );
    }

    #[test]
    fn lag_lead_defaults() {
        let out = compute_windows(
            rows(),
            &[
                call(WinFunc::Lag, vec![BoundExpr::Column(1)]),
                call(WinFunc::Lead, vec![BoundExpr::Column(1)]),
            ],
            &EvalContext::default(),
        )
        .unwrap();
        assert_eq!(
            col(&out, 2),
            vec![Value::Null, Value::Int(10), Value::Int(30), Value::Null]
        );
        assert_eq!(
            col(&out, 3),
            vec![Value::Int(30), Value::Int(30), Value::Null, Value::Null]
        );
    }

    #[test]
    fn ntile_splits_evenly() {
        let c = WindowCall {
            func: WinFunc::Ntile,
            args: vec![BoundExpr::Literal(Value::Int(2))],
            partition_by: vec![],
            order_by: vec![(BoundExpr::Column(1), false)],
        };
        let out = compute_windows(rows(), &[c], &EvalContext::default()).unwrap();
        assert_eq!(
            col(&out, 2),
            vec![Value::Int(1), Value::Int(1), Value::Int(2), Value::Int(2)]
        );
    }

    #[test]
    fn ranking_requires_order() {
        let c = WindowCall {
            func: WinFunc::RowNumber,
            args: vec![],
            partition_by: vec![],
            order_by: vec![],
        };
        assert!(compute_windows(rows(), &[c], &EvalContext::default()).is_err());
    }

    #[test]
    fn from_name_resolves_aggregates() {
        assert_eq!(WinFunc::from_name("sum"), Some(WinFunc::Agg(AggFunc::Sum)));
        assert_eq!(WinFunc::from_name("ROW_NUMBER"), Some(WinFunc::RowNumber));
        assert_eq!(WinFunc::from_name("LEN"), None);
    }
}
