//! Per-query memory governance.
//!
//! SQLShare was a shared service: one scientist's runaway hash join must
//! not OOM-kill everyone else's session. The executor is materialized
//! (operators allocate whole `Vec<Row>` buffers), so the governor is an
//! accounting layer, not an allocator: every *buffer-building* operator
//! charges its allocation against the query's [`MemoryBudget`] — hash-join
//! build tables, sort decorations, aggregation state, morsel
//! materialization, result assembly — and a charge past the limit fails
//! the query with [`Error::ResourceExhausted`]. Two limits apply:
//!
//! * a per-query budget (`Engine::set_query_mem_limit`; unlimited by
//!   default), and
//! * an engine-wide [`MemoryPool`] shared by every concurrent query of an
//!   engine lineage (`Engine::set_total_mem_limit`), released when the
//!   query's budget is dropped.
//!
//! Accounting granularity is the operator buffer, not the row: a charge
//! lands once per built buffer (per morsel in parallel regions), so
//! enforcement can trail the allocation by at most one operator's output.
//! That is deliberate — the counter is one atomic add per operator, not
//! per row. See DESIGN.md for the fault-model discussion.

use crate::value::{Row, Value};
use sqlshare_common::{Error, Result};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// "No limit": charges are still counted (peak tracking) but never fail.
pub const UNLIMITED: usize = usize::MAX;

/// Engine-wide memory pool shared by all concurrent queries of an engine
/// and its clones (the service's worker snapshots share one pool).
#[derive(Debug)]
pub struct MemoryPool {
    limit: usize,
    used: AtomicUsize,
}

impl MemoryPool {
    pub fn new(limit_bytes: usize) -> Self {
        MemoryPool {
            limit: limit_bytes.max(1),
            used: AtomicUsize::new(0),
        }
    }

    pub fn unlimited() -> Self {
        MemoryPool {
            limit: UNLIMITED,
            used: AtomicUsize::new(0),
        }
    }

    /// Bytes currently charged across all live queries.
    pub fn used(&self) -> usize {
        self.used.load(Ordering::Relaxed)
    }

    pub fn limit(&self) -> usize {
        self.limit
    }
}

/// Per-query byte counter threaded through `ExecGuard`. Forked workers
/// share it via `Arc`, so a parallel region's charges all land on the
/// owning query. Dropping the budget returns its charges to the pool.
#[derive(Debug)]
pub struct MemoryBudget {
    limit: usize,
    used: AtomicUsize,
    peak: AtomicUsize,
    pool: Option<Arc<MemoryPool>>,
}

impl MemoryBudget {
    /// A budget of `limit_bytes`, drawing from `pool` when given.
    pub fn new(limit_bytes: usize, pool: Option<Arc<MemoryPool>>) -> Self {
        MemoryBudget {
            limit: limit_bytes.max(1),
            used: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
            pool,
        }
    }

    /// A budget that never fails (plan-time execution, tests).
    pub fn unlimited() -> Self {
        MemoryBudget::new(UNLIMITED, None)
    }

    /// Charge `bytes` against the query (and the pool, when attached).
    ///
    /// The add happens before the check so the drop-time release always
    /// sees a consistent `used` — an over-limit charge is still recorded,
    /// then the query unwinds with [`Error::ResourceExhausted`] and the
    /// whole budget is returned to the pool.
    pub fn charge(&self, bytes: usize) -> Result<()> {
        let used = self.used.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak.fetch_max(used, Ordering::Relaxed);
        if let Some(pool) = &self.pool {
            let pool_used = pool.used.fetch_add(bytes, Ordering::Relaxed) + bytes;
            if pool_used > pool.limit {
                return Err(Error::ResourceExhausted(format!(
                    "engine memory pool exhausted: {pool_used} bytes charged, limit {} \
                     (this query holds {used})",
                    pool.limit
                )));
            }
        }
        if used > self.limit {
            return Err(Error::ResourceExhausted(format!(
                "query exceeded its memory budget: {used} bytes charged, limit {}",
                self.limit
            )));
        }
        Ok(())
    }

    /// Return `bytes` of a previous charge (spilling operators release
    /// buffers they wrote to spill files). Saturating: releasing more
    /// than was charged is a caller bug but must not wrap the counters.
    pub fn release(&self, bytes: usize) {
        let _ = self
            .used
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |u| {
                Some(u.saturating_sub(bytes))
            });
        if let Some(pool) = &self.pool {
            let _ = pool
                .used
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |u| {
                    Some(u.saturating_sub(bytes))
                });
        }
    }

    /// Bytes currently charged to this query.
    pub fn used(&self) -> usize {
        self.used.load(Ordering::Relaxed)
    }

    /// High-water mark of [`MemoryBudget::used`] over the query's life.
    pub fn peak(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }
}

impl Drop for MemoryBudget {
    fn drop(&mut self) {
        if let Some(pool) = &self.pool {
            pool.used.fetch_sub(*self.used.get_mut(), Ordering::Relaxed);
        }
    }
}

/// Approximate heap footprint of one value (same shape the result cache
/// uses for its budget: enum payload plus text length).
pub fn value_bytes(v: &Value) -> usize {
    std::mem::size_of::<Value>()
        + match v {
            Value::Text(s) => s.len(),
            _ => 0,
        }
}

/// Approximate heap footprint of a slice of values (one row, or one
/// group/sort key vector).
pub fn values_bytes(values: &[Value]) -> usize {
    std::mem::size_of::<Row>() + values.iter().map(value_bytes).sum::<usize>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate_and_fail_past_the_limit() {
        let b = MemoryBudget::new(100, None);
        b.charge(60).unwrap();
        b.charge(40).unwrap();
        assert_eq!(b.used(), 100);
        let err = b.charge(1).unwrap_err();
        assert_eq!(err.kind(), "resource");
        assert_eq!(b.peak(), 101, "the failing charge still counts toward peak");
    }

    #[test]
    fn pool_is_shared_and_released_on_drop() {
        let pool = Arc::new(MemoryPool::new(100));
        let a = MemoryBudget::new(UNLIMITED, Some(Arc::clone(&pool)));
        let b = MemoryBudget::new(UNLIMITED, Some(Arc::clone(&pool)));
        a.charge(70).unwrap();
        assert_eq!(
            b.charge(70).unwrap_err().kind(),
            "resource",
            "second query must see the pool already mostly charged"
        );
        drop(a);
        drop(b);
        assert_eq!(pool.used(), 0, "drops must return every charge to the pool");
        let c = MemoryBudget::new(UNLIMITED, Some(pool));
        c.charge(90).unwrap();
    }

    #[test]
    fn release_refunds_query_and_pool() {
        let pool = Arc::new(MemoryPool::new(100));
        let b = MemoryBudget::new(80, Some(Arc::clone(&pool)));
        b.charge(60).unwrap();
        b.release(50);
        assert_eq!(b.used(), 10);
        assert_eq!(pool.used(), 10);
        b.charge(60).unwrap(); // would have failed without the release
        assert_eq!(b.peak(), 70);
        drop(b);
        assert_eq!(pool.used(), 0);
    }

    #[test]
    fn value_accounting_counts_text_payloads() {
        let short = values_bytes(&[Value::Int(1)]);
        let long = values_bytes(&[Value::Text("x".repeat(1000))]);
        assert!(long > short + 900);
    }
}
