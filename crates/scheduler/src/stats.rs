//! Scheduler statistics: per-tenant counters plus aggregate totals.
//!
//! The paper's workload analysis leans on the query log's timing split;
//! these counters expose the live view of the same quantities — how
//! long queries wait versus run, and how often each tenant completes,
//! times out, is cancelled, or is turned away at admission.

use std::collections::BTreeMap;

/// Counters for one tenant (or the aggregate over all tenants).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Jobs accepted into the queue.
    pub submitted: u64,
    /// Jobs that ran to completion.
    pub completed: u64,
    /// Jobs that ran and failed (query error).
    pub failed: u64,
    /// Of `failed`: contained panics / engine bugs (`internal` class).
    pub failed_internal: u64,
    /// Of `failed`: memory-budget exhaustion (`resource` class) that
    /// the degraded DOP-1 retry could not rescue.
    pub failed_resource: u64,
    /// Jobs that went through the retry-at-DOP-1 degraded path,
    /// whatever their final disposition.
    pub degraded_retries: u64,
    /// Jobs stopped by their deadline.
    pub timed_out: u64,
    /// Jobs cancelled by a user or by shutdown.
    pub cancelled: u64,
    /// Submissions rejected by admission control.
    pub rejected: u64,
    /// Jobs currently queued (snapshot; only meaningful in
    /// [`SchedulerStats`] output).
    pub queue_depth: u64,
    /// Jobs currently executing (snapshot).
    pub running: u64,
    /// Worker slots those jobs hold (snapshot). A serial query holds
    /// one; a DOP-n parallel query holds n, so this can exceed
    /// `running`.
    pub running_slots: u64,
    /// Highest queue depth observed.
    pub max_queue_depth: u64,
    /// Total time jobs spent queued before starting.
    pub total_queue_wait_micros: u64,
    /// Total time jobs spent executing.
    pub total_exec_micros: u64,
}

impl TenantStats {
    /// Jobs that have finished one way or another.
    pub fn finished(&self) -> u64 {
        self.completed + self.failed + self.timed_out + self.cancelled
    }

    /// Mean queue wait over finished jobs, in microseconds.
    pub fn mean_queue_wait_micros(&self) -> f64 {
        let n = self.finished();
        if n == 0 {
            0.0
        } else {
            self.total_queue_wait_micros as f64 / n as f64
        }
    }

    /// Mean execution time over finished jobs, in microseconds.
    pub fn mean_exec_micros(&self) -> f64 {
        let n = self.finished();
        if n == 0 {
            0.0
        } else {
            self.total_exec_micros as f64 / n as f64
        }
    }

    /// Accumulate another tenant's counters into this one.
    pub fn add(&mut self, other: &TenantStats) {
        self.submitted += other.submitted;
        self.completed += other.completed;
        self.failed += other.failed;
        self.failed_internal += other.failed_internal;
        self.failed_resource += other.failed_resource;
        self.degraded_retries += other.degraded_retries;
        self.timed_out += other.timed_out;
        self.cancelled += other.cancelled;
        self.rejected += other.rejected;
        self.queue_depth += other.queue_depth;
        self.running += other.running;
        self.running_slots += other.running_slots;
        self.max_queue_depth = self.max_queue_depth.max(other.max_queue_depth);
        self.total_queue_wait_micros += other.total_queue_wait_micros;
        self.total_exec_micros += other.total_exec_micros;
    }
}

/// A point-in-time snapshot of the whole scheduler.
#[derive(Debug, Clone, Default)]
pub struct SchedulerStats {
    /// Worker threads in the pool, and so the worker slots available to
    /// running jobs (a DOP-n query holds n of them).
    pub workers: usize,
    /// Aggregate counters over all tenants.
    pub totals: TenantStats,
    /// Per-tenant counters, keyed by tenant name (sorted for stable
    /// rendering).
    pub tenants: BTreeMap<String, TenantStats>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finished_and_means() {
        let s = TenantStats {
            completed: 3,
            failed: 1,
            total_queue_wait_micros: 400,
            total_exec_micros: 800,
            ..Default::default()
        };
        assert_eq!(s.finished(), 4);
        assert!((s.mean_queue_wait_micros() - 100.0).abs() < f64::EPSILON);
        assert!((s.mean_exec_micros() - 200.0).abs() < f64::EPSILON);
    }

    #[test]
    fn empty_means_are_zero() {
        let s = TenantStats::default();
        assert_eq!(s.mean_queue_wait_micros(), 0.0);
        assert_eq!(s.mean_exec_micros(), 0.0);
    }

    #[test]
    fn add_accumulates_and_maxes_depth() {
        let mut a = TenantStats {
            submitted: 2,
            completed: 1,
            max_queue_depth: 3,
            ..Default::default()
        };
        let b = TenantStats {
            submitted: 5,
            rejected: 2,
            max_queue_depth: 7,
            ..Default::default()
        };
        a.add(&b);
        assert_eq!(a.submitted, 7);
        assert_eq!(a.rejected, 2);
        assert_eq!(a.max_queue_depth, 7);
    }
}
