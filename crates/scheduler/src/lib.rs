//! `sqlshare-scheduler` — the multi-tenant query scheduler.
//!
//! SQLShare is a *service*: many scientists concurrently throw ad-hoc
//! SQL at a shared backend, with heavily skewed per-user demand (the
//! SkyServer traffic study found top users issuing orders of magnitude
//! more queries than the median). This crate provides the substrate
//! that makes that survivable:
//!
//! * a **worker pool** executing jobs off the caller's thread, one job
//!   per worker whatever the job does inside (a parallel query's own
//!   threads are the engine's, not the pool's);
//! * **bounded per-tenant queues** with **round-robin dequeue** (one
//!   job per tenant per turn), so one heavy user cannot starve others;
//! * **admission control**: submissions beyond a tenant's queue
//!   capacity are rejected with [`Error::Overloaded`];
//! * **deadlines** enforced by a reaper thread that trips each job's
//!   [`CancellationToken`]; execution is expected to poll the token and
//!   unwind cooperatively (the engine checks every few thousand rows);
//! * **statistics** per tenant and in aggregate: queue depth,
//!   queue-wait vs execution time, completions, failures, timeouts,
//!   cancellations, and rejections.
//!
//! The scheduler runs closures, not SQL — `sqlshare-core` packages a
//! query (engine snapshot, canonical SQL, log hooks) into a job and
//! interprets the outcome. Each job reports a [`JobReport`] — a
//! [`JobDisposition`] plus an optional [`FailureClass`] and a
//! degraded-retry flag — so the scheduler can attribute its fate in the
//! stats. A job that *panics* is contained by the worker (the panic
//! fails that job alone, recorded as `internal`) and the worker goes
//! back to the queue like after any other outcome.

pub mod stats;

pub use stats::{SchedulerStats, TenantStats};

use sqlshare_common::{CancelReason, CancellationToken, Error, Result};
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Scheduler tuning knobs.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Worker threads executing jobs; each running job holds one.
    pub workers: usize,
    /// Maximum queued (not yet running) jobs per tenant; submissions
    /// beyond this are rejected with [`Error::Overloaded`].
    pub queue_capacity: usize,
    /// Deadline applied to jobs submitted without an explicit one.
    /// `None` means no deadline.
    pub default_deadline: Option<Duration>,
    /// Start with dequeuing paused (jobs accumulate until
    /// [`Scheduler::resume`]); used by tests that need deterministic
    /// queue states.
    pub start_paused: bool,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            workers: 4,
            queue_capacity: 64,
            default_deadline: None,
            start_paused: false,
        }
    }
}

/// Per-submission options.
#[derive(Debug, Clone, Default)]
pub struct SubmitOptions {
    /// Deadline for this job (queue wait included); falls back to the
    /// scheduler's `default_deadline` when `None`.
    pub deadline: Option<Duration>,
    /// Cancellation token to attach instead of minting a fresh one —
    /// lets the caller hold the cancel handle before the job is even
    /// queued, so a concurrent cancel can never miss the job.
    pub token: Option<CancellationToken>,
}

/// How a job ended, as reported by the job itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobDisposition {
    Completed,
    Failed,
    TimedOut,
    Cancelled,
}

/// Why a job failed, for stats attribution. The scheduler does not
/// interpret these — the service classifies its own errors — except
/// that a job which *panics* out of its closure is recorded as
/// [`FailureClass::Internal`] by the containment barrier in the worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureClass {
    /// A contained panic or other engine bug (`Error::Internal`).
    Internal,
    /// Memory budget or pool exhaustion (`Error::ResourceExhausted`),
    /// surfaced after the degraded retry also failed.
    Resource,
    /// Any other per-query error (parse, binding, execution, ...).
    Execution,
}

/// A job's self-reported outcome: its disposition plus the failure
/// class and degraded-retry flag that feed per-tenant stats. Plain
/// [`JobDisposition`] converts via `From`, so closures that don't care
/// about classification can keep returning the bare enum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobReport {
    pub disposition: JobDisposition,
    /// Set when `disposition` is [`JobDisposition::Failed`].
    pub failure_class: Option<FailureClass>,
    /// The job went through the service's retry-at-DOP-1 degraded path
    /// (whatever the final disposition was).
    pub degraded_retry: bool,
}

impl JobReport {
    pub fn new(disposition: JobDisposition) -> Self {
        JobReport {
            disposition,
            failure_class: None,
            degraded_retry: false,
        }
    }

    pub fn failed(class: FailureClass) -> Self {
        JobReport {
            disposition: JobDisposition::Failed,
            failure_class: Some(class),
            degraded_retry: false,
        }
    }

    pub fn with_degraded_retry(mut self, degraded: bool) -> Self {
        self.degraded_retry = degraded;
        self
    }
}

impl From<JobDisposition> for JobReport {
    fn from(disposition: JobDisposition) -> Self {
        JobReport::new(disposition)
    }
}

/// What a running job learns about its circumstances.
#[derive(Debug, Clone)]
pub struct JobContext {
    /// Cooperative cancellation flag; poll it and unwind when tripped.
    pub token: CancellationToken,
    /// How long the job sat queued before a worker picked it up.
    pub queue_wait: Duration,
}

/// A point-in-time view of scheduler pressure, from which the HTTP
/// front end derives the `Retry-After` hint of a `429`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadSnapshot {
    /// Worker threads executing jobs.
    pub workers: usize,
    /// Jobs queued (not yet running) across all tenants.
    pub queued: usize,
    /// Per-tenant queue capacity (admission control's rejection bound).
    pub queue_capacity: usize,
}

impl LoadSnapshot {
    /// A coarse client back-off hint in whole seconds, scaled to how
    /// many queued jobs each worker must drain first; clamped to
    /// `1..=30` so a burst never tells clients to go away for minutes.
    pub fn retry_after_secs(&self) -> u64 {
        let backlog_per_worker = self.queued.div_ceil(self.workers.max(1));
        (backlog_per_worker as u64).clamp(1, 30)
    }
}

/// Handle returned by [`Scheduler::submit`].
#[derive(Debug, Clone)]
pub struct JobTicket {
    /// Scheduler-assigned sequence number (submission order).
    pub seq: u64,
    /// The job's cancellation token; `cancel` it to stop the job.
    pub token: CancellationToken,
}

type JobFn = Box<dyn FnOnce(&JobContext) -> JobReport + Send + 'static>;

struct QueuedJob {
    job: JobFn,
    token: CancellationToken,
    enqueued: Instant,
}

/// Deadline heap entry, ordered soonest-first.
struct DeadlineEntry {
    at: Instant,
    seq: u64,
    token: CancellationToken,
}

impl PartialEq for DeadlineEntry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for DeadlineEntry {}
impl PartialOrd for DeadlineEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for DeadlineEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap; invert so the soonest deadline wins.
        other.at.cmp(&self.at).then(other.seq.cmp(&self.seq))
    }
}

#[derive(Default)]
struct TenantState {
    queue: VecDeque<QueuedJob>,
    /// Jobs currently executing for this tenant.
    running: usize,
    stats: TenantStats,
}

struct State {
    tenants: HashMap<String, TenantState>,
    /// Rotation of tenants that currently have queued jobs.
    rotation: VecDeque<String>,
    deadlines: BinaryHeap<DeadlineEntry>,
    paused: bool,
    shutdown: bool,
    next_seq: u64,
    running: usize,
}

struct Shared {
    state: Mutex<State>,
    /// Workers wait here for work; also notified on every job
    /// completion so `wait_idle` can make progress.
    work_cv: Condvar,
    /// The deadline reaper waits here.
    reaper_cv: Condvar,
    config: SchedulerConfig,
}

/// The scheduler: owns the worker pool and the deadline reaper.
pub struct Scheduler {
    shared: Arc<Shared>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("workers", &self.shared.config.workers)
            .field("queue_capacity", &self.shared.config.queue_capacity)
            .finish()
    }
}

impl Default for Scheduler {
    fn default() -> Self {
        Scheduler::new(SchedulerConfig::default())
    }
}

impl Scheduler {
    pub fn new(config: SchedulerConfig) -> Self {
        let config = SchedulerConfig {
            workers: config.workers.max(1),
            queue_capacity: config.queue_capacity.max(1),
            ..config
        };
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                tenants: HashMap::new(),
                rotation: VecDeque::new(),
                deadlines: BinaryHeap::new(),
                paused: config.start_paused,
                shutdown: false,
                next_seq: 0,
                running: 0,
            }),
            work_cv: Condvar::new(),
            reaper_cv: Condvar::new(),
            config,
        });
        let mut threads = Vec::new();
        for i in 0..shared.config.workers {
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("sqlshare-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker"),
            );
        }
        {
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name("sqlshare-reaper".into())
                    .spawn(move || reaper_loop(&shared))
                    .expect("spawn reaper"),
            );
        }
        Scheduler { shared, threads }
    }

    /// Submit a job for `tenant`. Rejects with [`Error::Overloaded`]
    /// when the tenant's queue is at capacity, and with
    /// [`Error::Cancelled`] after shutdown has begun.
    pub fn submit<F, R>(&self, tenant: &str, opts: SubmitOptions, job: F) -> Result<JobTicket>
    where
        F: FnOnce(&JobContext) -> R + Send + 'static,
        R: Into<JobReport>,
    {
        let mut state = self.lock();
        if state.shutdown {
            return Err(Error::Cancelled("scheduler is shut down".into()));
        }
        let entry = state.tenants.entry(tenant.to_string()).or_default();
        if entry.queue.len() >= self.shared.config.queue_capacity {
            entry.stats.rejected += 1;
            return Err(Error::Overloaded(format!(
                "tenant '{tenant}' already has {} queued queries (limit {})",
                entry.queue.len(),
                self.shared.config.queue_capacity
            )));
        }
        let seq = state.next_seq;
        state.next_seq += 1;
        let token = opts.token.clone().unwrap_or_default();
        let now = Instant::now();
        let deadline = opts
            .deadline
            .or(self.shared.config.default_deadline)
            .map(|d| now + d);
        let entry = state.tenants.get_mut(tenant).expect("just inserted");
        entry.stats.submitted += 1;
        let newly_active = entry.queue.is_empty();
        entry.queue.push_back(QueuedJob {
            job: Box::new(move |ctx: &JobContext| job(ctx).into()),
            token: token.clone(),
            enqueued: now,
        });
        let depth = entry.queue.len() as u64;
        entry.stats.max_queue_depth = entry.stats.max_queue_depth.max(depth);
        if newly_active {
            state.rotation.push_back(tenant.to_string());
        }
        if let Some(at) = deadline {
            state.deadlines.push(DeadlineEntry {
                at,
                seq,
                token: token.clone(),
            });
            self.shared.reaper_cv.notify_one();
        }
        drop(state);
        self.shared.work_cv.notify_one();
        Ok(JobTicket { seq, token })
    }

    /// Resume dequeuing after [`SchedulerConfig::start_paused`].
    pub fn resume(&self) {
        self.lock().paused = false;
        self.shared.work_cv.notify_all();
    }

    /// Snapshot of scheduler statistics.
    pub fn stats(&self) -> SchedulerStats {
        let state = self.lock();
        let mut tenants = std::collections::BTreeMap::new();
        let mut totals = TenantStats::default();
        for (name, t) in &state.tenants {
            let mut s = t.stats.clone();
            s.queue_depth = t.queue.len() as u64;
            s.running = t.running as u64;
            totals.add(&s);
            tenants.insert(name.clone(), s);
        }
        debug_assert_eq!(totals.running, state.running as u64);
        SchedulerStats {
            workers: self.shared.config.workers,
            totals,
            tenants,
        }
    }

    /// One-lock snapshot of scheduler pressure — the overload signal a
    /// front end turns into `429 Too Many Requests` + `Retry-After`.
    /// Cheaper than [`Scheduler::stats`] (no per-tenant map walk beyond
    /// summing queue lengths) so it can run on every admission decision.
    pub fn load(&self) -> LoadSnapshot {
        let state = self.lock();
        LoadSnapshot {
            workers: self.shared.config.workers,
            queued: state.tenants.values().map(|t| t.queue.len()).sum(),
            queue_capacity: self.shared.config.queue_capacity,
        }
    }

    /// Queued (not yet running) jobs for a tenant.
    pub fn queue_depth(&self, tenant: &str) -> usize {
        self.lock()
            .tenants
            .get(tenant)
            .map(|t| t.queue.len())
            .unwrap_or(0)
    }

    /// Block until no job is queued or running, or until `timeout`.
    /// Returns `true` if the scheduler went idle.
    pub fn wait_idle(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut state = self.lock();
        loop {
            let busy = state.running > 0
                || state.tenants.values().any(|t| !t.queue.is_empty());
            if !busy {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (guard, _) = self
                .shared
                .work_cv
                .wait_timeout(state, deadline - now)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            state = guard;
        }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        lock_state(&self.shared)
    }
}

/// Lock the scheduler state, recovering from poisoning rather than
/// propagating it. Jobs run under their own `catch_unwind` barrier with
/// the lock *released*, so a poisoned mutex can only mean a panic inside
/// the scheduler's own bookkeeping; everything the lock guards is plain
/// counters and queues that are valid at every statement boundary, and
/// refusing the lock would deadlock every tenant instead of one query.
fn lock_state(shared: &Shared) -> MutexGuard<'_, State> {
    shared
        .state
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        {
            let mut state = self.lock();
            state.shutdown = true;
            // Trip every queued token so drained jobs unwind instantly.
            for tenant in state.tenants.values() {
                for job in &tenant.queue {
                    job.token.cancel(CancelReason::Shutdown);
                }
            }
        }
        self.shared.work_cv.notify_all();
        self.shared.reaper_cv.notify_all();
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Round-robin over tenants, one job per turn: take the head job of the
/// first tenant in the rotation, then move that tenant to the back if it
/// still has queued work. Submission order within a tenant is preserved.
///
/// Caller must hold the state lock. Returns the job and its tenant.
fn next_job(state: &mut State) -> Option<(String, QueuedJob)> {
    let tenant_name = state.rotation.pop_front()?;
    let tenant = state
        .tenants
        .get_mut(&tenant_name)
        .expect("rotation entry has tenant state");
    let job = tenant
        .queue
        .pop_front()
        .expect("a tenant is in the rotation only while it has queued jobs");
    if !tenant.queue.is_empty() {
        state.rotation.push_back(tenant_name.clone());
    }
    Some((tenant_name, job))
}

fn worker_loop(shared: &Shared) {
    let mut state = lock_state(shared);
    loop {
        // During shutdown jobs are still drained (their tokens are
        // tripped, so they unwind quickly) to keep the invariant that
        // every accepted job eventually runs and records an outcome.
        let can_take = state.shutdown || !state.paused;
        let job = if can_take {
            next_job(&mut state)
        } else {
            None
        };
        match job {
            Some((tenant_name, queued)) => {
                state.running += 1;
                state.tenants.entry(tenant_name.clone()).or_default().running += 1;
                drop(state);

                let queue_wait = queued.enqueued.elapsed();
                let ctx = JobContext {
                    token: queued.token.clone(),
                    queue_wait,
                };
                let started = Instant::now();
                // Containment barrier: a panic escaping the job closure
                // (an engine bug past the engine's own barriers, or an
                // injected chaos fault) fails *that job* and keeps this
                // worker alive; the bookkeeping below runs regardless, so
                // a crashed query can never hold its worker.
                let job = queued.job;
                let report: JobReport =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| job(&ctx)))
                        .unwrap_or_else(|_payload| JobReport::failed(FailureClass::Internal));
                let exec = started.elapsed();

                state = lock_state(shared);
                state.running -= 1;
                let tenant = state.tenants.entry(tenant_name).or_default();
                tenant.running -= 1;
                let stats = &mut tenant.stats;
                stats.total_queue_wait_micros += queue_wait.as_micros() as u64;
                stats.total_exec_micros += exec.as_micros() as u64;
                if report.degraded_retry {
                    stats.degraded_retries += 1;
                }
                match report.disposition {
                    JobDisposition::Completed => stats.completed += 1,
                    JobDisposition::Failed => {
                        stats.failed += 1;
                        match report.failure_class {
                            Some(FailureClass::Internal) => stats.failed_internal += 1,
                            Some(FailureClass::Resource) => stats.failed_resource += 1,
                            Some(FailureClass::Execution) | None => {}
                        }
                    }
                    JobDisposition::TimedOut => stats.timed_out += 1,
                    JobDisposition::Cancelled => stats.cancelled += 1,
                }
                shared.work_cv.notify_all();
            }
            None => {
                if state.shutdown {
                    return;
                }
                state = shared
                    .work_cv
                    .wait(state)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        }
    }
}

fn reaper_loop(shared: &Shared) {
    let mut state = lock_state(shared);
    loop {
        if state.shutdown {
            return;
        }
        let now = Instant::now();
        match state.deadlines.peek() {
            Some(entry) if entry.at <= now => {
                let entry = state.deadlines.pop().expect("peeked");
                // Harmless if the job already finished: nobody reads
                // the token after completion.
                entry.token.cancel(CancelReason::Timeout);
            }
            Some(entry) => {
                let wait = entry.at - now;
                let (guard, _) = shared
                    .reaper_cv
                    .wait_timeout(state, wait)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                state = guard;
            }
            None => {
                state = shared
                    .reaper_cv
                    .wait(state)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        }
    }
}

#[cfg(test)]
mod tests;
