//! Aggregate functions and accumulators.

use crate::expr::{overflow, BoundExpr};
use crate::value::{DataType, Value};
use sqlshare_common::{Error, Result};

/// Aggregate function kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    Count,
    Sum,
    Avg,
    Min,
    Max,
    Stdev,
    Var,
}

impl AggFunc {
    /// Resolve a function name if it names an aggregate.
    pub fn from_name(name: &str) -> Option<AggFunc> {
        Some(match name.to_ascii_uppercase().as_str() {
            "COUNT" => AggFunc::Count,
            "SUM" => AggFunc::Sum,
            "AVG" => AggFunc::Avg,
            "MIN" => AggFunc::Min,
            "MAX" => AggFunc::Max,
            "STDEV" | "STDDEV" => AggFunc::Stdev,
            "VAR" | "VARIANCE" => AggFunc::Var,
            _ => return None,
        })
    }

    /// Display name used for plan columns and reports.
    pub fn name(&self) -> &'static str {
        match self {
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Avg => "AVG",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
            AggFunc::Stdev => "STDEV",
            AggFunc::Var => "VAR",
        }
    }

    /// Output type given the input type.
    pub fn result_type(&self, input: DataType) -> DataType {
        match self {
            AggFunc::Count => DataType::Int,
            AggFunc::Sum => match input {
                DataType::Int => DataType::Int,
                _ => DataType::Float,
            },
            AggFunc::Avg | AggFunc::Stdev | AggFunc::Var => DataType::Float,
            AggFunc::Min | AggFunc::Max => input,
        }
    }
}

/// One bound aggregate call: `func(arg)`, `COUNT(*)` when `arg` is `None`.
#[derive(Debug, Clone, PartialEq)]
pub struct AggCall {
    pub func: AggFunc,
    pub arg: Option<BoundExpr>,
    pub distinct: bool,
}

/// Streaming accumulator for one aggregate over one group.
#[derive(Debug, Clone)]
pub struct Accumulator {
    func: AggFunc,
    distinct: bool,
    seen: Vec<Value>,
    count: i64,
    sum: f64,
    sum_sq: f64,
    /// An integer SUM's total, which `finish` checks fits `i64`: `i128`
    /// cannot overflow below 2^64 rows, so partials merge in any order.
    int_sum: i128,
    all_int: bool,
    min: Option<Value>,
    max: Option<Value>,
}

impl Accumulator {
    pub fn new(func: AggFunc, distinct: bool) -> Self {
        Accumulator {
            func,
            distinct,
            seen: Vec::new(),
            count: 0,
            sum: 0.0,
            sum_sq: 0.0,
            int_sum: 0,
            all_int: true,
            min: None,
            max: None,
        }
    }

    /// Feed one value. NULLs are ignored per SQL semantics (COUNT(*) is
    /// handled by feeding a non-null marker for every row).
    pub fn push(&mut self, v: &Value) -> Result<()> {
        if v.is_null() {
            return Ok(());
        }
        if self.distinct {
            if self.seen.iter().any(|s| s.total_eq(v)) {
                return Ok(());
            }
            self.seen.push(v.clone());
        }
        self.count += 1;
        match self.func {
            AggFunc::Count => {}
            AggFunc::Min => {
                if self
                    .min
                    .as_ref()
                    .map(|m| v.total_cmp(m) == std::cmp::Ordering::Less)
                    .unwrap_or(true)
                {
                    self.min = Some(v.clone());
                }
            }
            AggFunc::Max => {
                if self
                    .max
                    .as_ref()
                    .map(|m| v.total_cmp(m) == std::cmp::Ordering::Greater)
                    .unwrap_or(true)
                {
                    self.max = Some(v.clone());
                }
            }
            AggFunc::Sum | AggFunc::Avg | AggFunc::Stdev | AggFunc::Var => {
                let f = match v {
                    Value::Int(i) => {
                        if self.func == AggFunc::Sum {
                            self.int_sum += i128::from(*i);
                        }
                        *i as f64
                    }
                    Value::Float(f) => {
                        self.all_int = false;
                        *f
                    }
                    Value::Text(s) => {
                        // Weakly-typed columns: try numeric interpretation.
                        self.all_int = false;
                        s.trim().parse::<f64>().map_err(|_| {
                            Error::Execution(format!(
                                "{}: '{s}' is not numeric",
                                self.func.name()
                            ))
                        })?
                    }
                    other => {
                        return Err(Error::Execution(format!(
                            "{} cannot aggregate '{}'",
                            self.func.name(),
                            other.to_text()
                        )))
                    }
                };
                self.sum += f;
                self.sum_sq += f * f;
            }
        }
        Ok(())
    }

    /// Bulk-count `n` non-null feeds. Exactly equivalent to `n` calls
    /// to [`push`](Self::push) with any non-null value on a non-DISTINCT
    /// COUNT accumulator, whose push does nothing but increment the
    /// counter — the vectorized executor's fast path for `COUNT(*)` and
    /// `COUNT(col)` over a column's valid positions.
    pub(crate) fn add_count(&mut self, n: i64) {
        debug_assert!(matches!(self.func, AggFunc::Count) && !self.distinct);
        self.count += n;
    }

    /// Fold another accumulator of the same function into this one.
    /// Used by the parallel executor's pre-aggregation: each worker
    /// accumulates its morsels locally and partials are merged serially.
    /// Exact for COUNT/MIN/MAX and integer SUM; floating-point sums may
    /// differ from serial accumulation in the last few ulps (addition is
    /// not associative), which is the usual contract for parallel
    /// aggregation.
    pub fn merge(&mut self, other: &Accumulator) -> Result<()> {
        debug_assert_eq!(self.func, other.func);
        debug_assert_eq!(self.distinct, other.distinct);
        if self.distinct {
            // `other.seen` is exactly the distinct set the other partial
            // observed; re-pushing applies the dedup against ours.
            for v in &other.seen {
                self.push(v)?;
            }
            return Ok(());
        }
        self.count += other.count;
        self.sum += other.sum;
        self.sum_sq += other.sum_sq;
        self.int_sum += other.int_sum;
        self.all_int &= other.all_int;
        if let Some(m) = &other.min {
            if self
                .min
                .as_ref()
                .map(|cur| m.total_cmp(cur) == std::cmp::Ordering::Less)
                .unwrap_or(true)
            {
                self.min = Some(m.clone());
            }
        }
        if let Some(m) = &other.max {
            if self
                .max
                .as_ref()
                .map(|cur| m.total_cmp(cur) == std::cmp::Ordering::Greater)
                .unwrap_or(true)
            {
                self.max = Some(m.clone());
            }
        }
        Ok(())
    }

    /// Final aggregate value. Empty input yields NULL for everything but
    /// COUNT, which yields 0. An integer SUM whose total leaves `i64` is
    /// an `integer overflow`, as `+` is.
    pub fn finish(&self) -> Result<Value> {
        Ok(match self.func {
            AggFunc::Count => Value::Int(self.count),
            AggFunc::Min => self.min.clone().unwrap_or(Value::Null),
            AggFunc::Max => self.max.clone().unwrap_or(Value::Null),
            AggFunc::Sum => {
                if self.count == 0 {
                    Value::Null
                } else if self.all_int {
                    Value::Int(i64::try_from(self.int_sum).map_err(|_| overflow())?)
                } else {
                    Value::Float(self.sum)
                }
            }
            AggFunc::Avg => {
                if self.count == 0 {
                    Value::Null
                } else {
                    Value::Float(self.sum / self.count as f64)
                }
            }
            AggFunc::Var | AggFunc::Stdev => {
                if self.count < 2 {
                    Value::Null
                } else {
                    let n = self.count as f64;
                    // Sample variance, like T-SQL VAR/STDEV.
                    let var = (self.sum_sq - self.sum * self.sum / n) / (n - 1.0);
                    let var = var.max(0.0);
                    if self.func == AggFunc::Var {
                        Value::Float(var)
                    } else {
                        Value::Float(var.sqrt())
                    }
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(func: AggFunc, distinct: bool, vals: &[Value]) -> Value {
        let mut acc = Accumulator::new(func, distinct);
        for v in vals {
            acc.push(v).unwrap();
        }
        acc.finish().unwrap()
    }

    #[test]
    fn count_ignores_nulls() {
        let vals = [Value::Int(1), Value::Null, Value::Int(2)];
        assert_eq!(run(AggFunc::Count, false, &vals), Value::Int(2));
    }

    #[test]
    fn count_distinct() {
        let vals = [Value::Int(1), Value::Int(1), Value::Int(2), Value::Null];
        assert_eq!(run(AggFunc::Count, true, &vals), Value::Int(2));
    }

    #[test]
    fn sum_stays_integer_for_ints() {
        let vals = [Value::Int(1), Value::Int(2)];
        assert_eq!(run(AggFunc::Sum, false, &vals), Value::Int(3));
        let vals = [Value::Int(1), Value::Float(0.5)];
        assert_eq!(run(AggFunc::Sum, false, &vals), Value::Float(1.5));
    }

    #[test]
    fn avg_and_empty_input() {
        let vals = [Value::Int(1), Value::Int(2), Value::Int(3)];
        assert_eq!(run(AggFunc::Avg, false, &vals), Value::Float(2.0));
        assert!(run(AggFunc::Avg, false, &[]).is_null());
        assert_eq!(run(AggFunc::Count, false, &[]), Value::Int(0));
        assert!(run(AggFunc::Sum, false, &[Value::Null]).is_null());
    }

    #[test]
    fn min_max_text() {
        let vals = [
            Value::Text("b".into()),
            Value::Text("a".into()),
            Value::Text("c".into()),
        ];
        assert_eq!(run(AggFunc::Min, false, &vals), Value::Text("a".into()));
        assert_eq!(run(AggFunc::Max, false, &vals), Value::Text("c".into()));
    }

    #[test]
    fn variance_and_stdev() {
        let vals: Vec<Value> = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
            .iter()
            .map(|&f| Value::Float(f))
            .collect();
        let var = run(AggFunc::Var, false, &vals);
        let Value::Float(v) = var else { panic!() };
        assert!((v - 4.571428).abs() < 1e-4);
        assert!(run(AggFunc::Stdev, false, &[Value::Int(1)]).is_null());
    }

    #[test]
    fn sum_parses_numeric_text() {
        let vals = [Value::Text("1.5".into()), Value::Text("2.5".into())];
        assert_eq!(run(AggFunc::Sum, false, &vals), Value::Float(4.0));
        let mut acc = Accumulator::new(AggFunc::Sum, false);
        assert!(acc.push(&Value::Text("NA".into())).is_err());
    }

    #[test]
    fn merge_matches_serial_for_exact_aggregates() {
        let vals: Vec<Value> = (0..20).map(Value::Int).collect();
        for func in [AggFunc::Count, AggFunc::Sum, AggFunc::Min, AggFunc::Max] {
            for distinct in [false, true] {
                let serial = run(func, distinct, &vals);
                let mut left = Accumulator::new(func, distinct);
                let mut right = Accumulator::new(func, distinct);
                for v in &vals[..7] {
                    left.push(v).unwrap();
                }
                for v in &vals[7..] {
                    right.push(v).unwrap();
                }
                left.merge(&right).unwrap();
                assert_eq!(left.finish().unwrap(), serial, "{func:?} distinct={distinct}");
            }
        }
    }

    #[test]
    fn merge_distinct_dedups_across_partials() {
        let mut left = Accumulator::new(AggFunc::Count, true);
        let mut right = Accumulator::new(AggFunc::Count, true);
        for v in [Value::Int(1), Value::Int(2)] {
            left.push(&v).unwrap();
        }
        for v in [Value::Int(2), Value::Int(3)] {
            right.push(&v).unwrap();
        }
        left.merge(&right).unwrap();
        assert_eq!(left.finish().unwrap(), Value::Int(3));
    }

    #[test]
    fn from_name() {
        assert_eq!(AggFunc::from_name("count"), Some(AggFunc::Count));
        assert_eq!(AggFunc::from_name("STDDEV"), Some(AggFunc::Stdev));
        assert_eq!(AggFunc::from_name("LEN"), None);
    }
}
