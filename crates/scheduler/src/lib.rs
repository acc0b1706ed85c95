//! `sqlshare-scheduler` — the multi-tenant query scheduler.
//!
//! SQLShare is a *service*: many scientists concurrently throw ad-hoc
//! SQL at a shared backend, with heavily skewed per-user demand (the
//! SkyServer traffic study found top users issuing orders of magnitude
//! more queries than the median). This crate provides the substrate
//! that makes that survivable:
//!
//! * a **worker pool** executing jobs off the caller's thread;
//! * **bounded per-tenant queues** with **weighted fair dequeue**
//!   (round-robin over tenants, `weight` consecutive jobs per turn), so
//!   one heavy user cannot starve others;
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
//! fails that job alone, recorded as `internal`) and its slots are
//! released like any other outcome.

pub mod stats;

pub use stats::{SchedulerStats, TenantStats};

use sqlshare_common::{CancelReason, CancellationToken, Error, Result};
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Scheduler tuning knobs.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Worker threads executing jobs, and the worker *slots* available
    /// to running jobs. A serial query holds one slot; an
    /// intra-query-parallel job submitted with `SubmitOptions::slots =
    /// dop` holds `dop`, so a DOP-4 query accounts for four workers'
    /// worth of capacity.
    pub workers: usize,
    /// Maximum queued (not yet running) jobs per tenant; submissions
    /// beyond this are rejected with [`Error::Overloaded`].
    pub queue_capacity: usize,
    /// Deadline applied to jobs submitted without an explicit one.
    /// `None` means no deadline.
    pub default_deadline: Option<Duration>,
    /// Start with dequeuing paused (jobs accumulate until
    /// [`Scheduler::resume`]); used by tests that need deterministic
    /// queue states, and by services that want to warm up first.
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
    /// Worker slots this job occupies while running — the query's
    /// degree of parallelism. `0` means 1; values beyond the
    /// scheduler's slot capacity are clamped so the job can still run.
    pub slots: usize,
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

/// A point-in-time view of scheduler pressure, exposed so the HTTP
/// front end can shed load *before* queues collapse: when
/// [`LoadSnapshot::saturated`] the right client-facing answer is
/// `429` with a [`LoadSnapshot::retry_after`] hint, not a deeper queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadSnapshot {
    /// Worker threads executing jobs, and so the worker slots.
    pub workers: usize,
    /// Slots currently held by running jobs.
    pub running_slots: usize,
    /// Jobs queued (not yet running) across all tenants.
    pub queued: usize,
    /// Per-tenant queue capacity (admission control's rejection bound).
    pub queue_capacity: usize,
}

impl LoadSnapshot {
    /// Every slot busy *and* work already waiting: new work can only
    /// deepen queues.
    pub fn saturated(&self) -> bool {
        self.running_slots >= self.workers && self.queued > 0
    }

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
    /// Worker slots held while running (clamped at submission).
    slots: usize,
    /// Times this job, at the head of its tenant's queue, was passed
    /// over for lack of free slots while some other job was admitted.
    /// Feeds the anti-starvation reservation in [`next_job`].
    skipped: u32,
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
    /// Jobs dequeued per round-robin turn (fairness weight); 1 = strict
    /// alternation with other tenants.
    weight: u32,
    /// Jobs taken in the current turn.
    burst: u32,
    /// Jobs currently executing for this tenant.
    running: usize,
    /// Worker slots those jobs hold (≥ `running`; DOP-n jobs hold n).
    running_slots: usize,
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
    /// Worker slots held by running jobs; dequeue is gated on
    /// `running_slots + job.slots <= config.workers`.
    running_slots: usize,
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
                running_slots: 0,
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
        if entry.weight == 0 {
            entry.weight = 1;
        }
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

        let slots = opts.slots.max(1).min(self.shared.config.workers);
        let entry = state.tenants.get_mut(tenant).expect("just inserted");
        entry.stats.submitted += 1;
        let newly_active = entry.queue.is_empty();
        entry.queue.push_back(QueuedJob {
            job: Box::new(move |ctx: &JobContext| job(ctx).into()),
            token: token.clone(),
            enqueued: now,
            slots,
            skipped: 0,
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

    /// Stop dequeuing new jobs (running jobs continue).
    pub fn pause(&self) {
        self.lock().paused = true;
    }

    /// Resume dequeuing.
    pub fn resume(&self) {
        self.lock().paused = false;
        self.shared.work_cv.notify_all();
    }

    /// Set a tenant's fairness weight: the number of consecutive jobs
    /// it may dequeue per round-robin turn. Minimum 1.
    pub fn set_tenant_weight(&self, tenant: &str, weight: u32) {
        let mut state = self.lock();
        state
            .tenants
            .entry(tenant.to_string())
            .or_default()
            .weight = weight.max(1);
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
            s.running_slots = t.running_slots as u64;
            totals.add(&s);
            tenants.insert(name.clone(), s);
        }
        debug_assert_eq!(totals.running, state.running as u64);
        debug_assert_eq!(totals.running_slots, state.running_slots as u64);
        SchedulerStats {
            workers: self.shared.config.workers,
            totals,
            tenants,
        }
    }

    /// Worker slots not currently held by running jobs.
    pub fn free_slots(&self) -> usize {
        let state = self.lock();
        self.shared.config.workers.saturating_sub(state.running_slots)
    }

    /// One-lock snapshot of scheduler pressure — the overload signal a
    /// front end turns into `429 Too Many Requests` + `Retry-After`.
    /// Cheaper than [`Scheduler::stats`] (no per-tenant map walk beyond
    /// summing queue lengths) so it can run on every admission decision.
    pub fn load(&self) -> LoadSnapshot {
        let state = self.lock();
        LoadSnapshot {
            workers: self.shared.config.workers,
            running_slots: state.running_slots,
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

/// Pass-overs after which a slot-blocked head job earns a reservation.
const STARVATION_SKIPS: u32 = 8;
/// Queue wait after which a head job that has been passed over at least
/// once earns a reservation even if pass-overs were sparse.
const STARVATION_PATIENCE: Duration = Duration::from_millis(500);

/// Has this head job been slot-blocked long enough to deserve a
/// reservation? Only jobs that were actually passed over count — plain
/// weighted round-robin is untouched while everything fits.
fn starving(job: &QueuedJob) -> bool {
    job.skipped >= STARVATION_SKIPS
        || (job.skipped > 0 && job.enqueued.elapsed() >= STARVATION_PATIENCE)
}

/// Pick the next job according to weighted round-robin over tenants,
/// gated on free worker slots: a job runs only when `running_slots +
/// job.slots` fits in `slot_capacity`. First fit over the rotation — a
/// wide (high-DOP) job at the front of one tenant's queue does not
/// block another tenant's narrow job from slipping through, but
/// submission-order within one tenant is preserved.
///
/// First fit alone can starve a wide job indefinitely: narrow jobs from
/// other tenants keep slipping through, so free slots never accumulate
/// to the wide job's demand. Anti-starvation reservation: every time a
/// head job is passed over for slots while another job is admitted, its
/// `skipped` count grows; once a job has been passed over
/// [`STARVATION_SKIPS`] times (or once plus [`STARVATION_PATIENCE`] of
/// queue wait), the longest-waiting such job is *reserved* — other jobs
/// are then admitted only if they would still leave it enough free
/// slots, so capacity drains to the reserved job instead of leaking to
/// the narrow stream.
///
/// Caller must hold the state lock. Returns the job and its tenant.
fn next_job(state: &mut State, slot_capacity: usize) -> Option<(String, QueuedJob)> {
    // The reservation: the longest-waiting starving head job, if any.
    let mut reserved: Option<(&str, usize, Instant)> = None;
    for name in &state.rotation {
        let Some(job) = state.tenants.get(name).and_then(|t| t.queue.front()) else {
            continue;
        };
        if starving(job) && reserved.is_none_or(|(_, _, at)| job.enqueued < at) {
            reserved = Some((name, job.slots, job.enqueued));
        }
    }
    let reserved: Option<(String, usize)> =
        reserved.map(|(name, slots, _)| (name.to_string(), slots));

    // Heads passed over for slots this scan; they are only charged a
    // skip if the scan actually admits some other job.
    let mut passed_over: Vec<String> = Vec::new();
    let mut idx = 0;
    while idx < state.rotation.len() {
        let tenant_name = state.rotation[idx].clone();
        let tenant = state
            .tenants
            .get_mut(&tenant_name)
            .expect("rotation entry has tenant state");
        let Some(job) = tenant.queue.front() else {
            // Stale rotation entry (queue drained elsewhere).
            tenant.burst = 0;
            state.rotation.remove(idx);
            continue;
        };
        if state.running_slots + job.slots > slot_capacity {
            // Doesn't fit right now; try the next tenant.
            passed_over.push(tenant_name);
            idx += 1;
            continue;
        }
        if let Some((res_tenant, res_slots)) = &reserved {
            if *res_tenant != tenant_name
                && state.running_slots + job.slots + res_slots > slot_capacity
            {
                // Fits, but would eat into the reservation; held back
                // (not charged as a pass-over — the hold is deliberate).
                idx += 1;
                continue;
            }
        }
        let job = tenant.queue.pop_front().expect("peeked");
        tenant.burst += 1;
        let exhausted = tenant.queue.is_empty();
        let turn_over = tenant.burst >= tenant.weight.max(1);
        if exhausted || turn_over {
            tenant.burst = 0;
            state.rotation.remove(idx);
            if !exhausted {
                state.rotation.push_back(tenant_name.clone());
            }
        }
        for name in passed_over {
            if let Some(head) = state
                .tenants
                .get_mut(&name)
                .and_then(|t| t.queue.front_mut())
            {
                head.skipped = head.skipped.saturating_add(1);
            }
        }
        return Some((tenant_name, job));
    }
    None
}

fn worker_loop(shared: &Shared) {
    let mut state = lock_state(shared);
    loop {
        // During shutdown jobs are still drained (their tokens are
        // tripped, so they unwind quickly) to keep the invariant that
        // every accepted job eventually runs and records an outcome.
        let can_take = state.shutdown || !state.paused;
        let job = if can_take {
            next_job(&mut state, shared.config.workers)
        } else {
            None
        };
        match job {
            Some((tenant_name, queued)) => {
                let slots = queued.slots;
                state.running += 1;
                state.running_slots += slots;
                {
                    let tenant = state.tenants.entry(tenant_name.clone()).or_default();
                    tenant.running += 1;
                    tenant.running_slots += slots;
                }
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
                // worker alive; the slot release below runs regardless,
                // so capacity can never leak to a crashed query.
                let job = queued.job;
                let report: JobReport =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| job(&ctx)))
                        .unwrap_or_else(|_payload| JobReport::failed(FailureClass::Internal));
                let exec = started.elapsed();

                state = lock_state(shared);
                state.running -= 1;
                state.running_slots -= slots;
                let tenant = state.tenants.entry(tenant_name).or_default();
                tenant.running -= 1;
                tenant.running_slots -= slots;
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
