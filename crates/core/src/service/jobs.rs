//! Queries: the one pipeline both entry points run, and the state it
//! owns — job table, scheduler, query log, per-tenant cache counters.
//!
//! A query is three stages. **Preflight** ([`SqlShare::preflight`])
//! parses, qualifies against the current catalog and checks the
//! author's permissions. **Run** ([`run`]) executes the prepared plan
//! under a cancellation token, with the one degraded retry. **Finish**
//! ([`Shared::finish`]) builds the query-log entry — the only place one
//! is built — assigns its id and appends it under the log's one lock,
//! and counts the tenant's cache hit or miss.
//! [`SqlShare::run_query`] is those stages on the caller's thread
//! against the live engine; [`SqlShare::submit_query_with_deadline`] is
//! the same stages inside the scheduler's closure against the engine
//! snapshot, plus what being asynchronous adds: a job-table row and the
//! scheduler's report.

use super::{lock, Preflight, SqlShare};
use crate::clock::SimInstant;
use crate::querylog::{Outcome, QueryLog, QueryLogEntry};
use sqlshare_common::json::Json;
use sqlshare_common::{CancelReason, CancellationToken, Error, Result};
use sqlshare_engine::{Engine, FaultSite, PreparedQuery, QueryOutput, Row, Schema};
use sqlshare_scheduler::{
    FailureClass, JobDisposition, JobReport, Scheduler, SchedulerConfig, SchedulerStats,
    SubmitOptions,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Result rows plus execution metadata returned to clients.
#[derive(Debug, Clone)]
pub struct QueryResult {
    pub schema: Schema,
    pub rows: Vec<Row>,
    pub runtime_micros: u64,
    pub plan_json: Json,
    /// Whether the rows were served from the engine's result cache.
    pub cache_hit: bool,
    /// Bytes of operator state spilled to spill files (0 when
    /// everything fit in memory).
    pub spill_bytes: u64,
}

/// Per-tenant result-cache counters (hits and misses attributed to the
/// user who ran the query).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TenantCacheStats {
    pub hits: u64,
    pub misses: u64,
}

/// Status of an asynchronous query job (§3.3: the REST server returns an
/// identifier immediately; clients poll for status and results).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobStatus {
    /// Accepted by the scheduler, waiting for a worker.
    Queued,
    /// A worker is executing the query.
    Running,
    Complete,
    /// The query unwound with an error. The full typed error is kept
    /// (not just its message) so `query_results` and the REST layer can
    /// distinguish server faults (contained panics → 500) from resource
    /// kills (429) and ordinary query errors (4xx).
    Failed(Error),
    /// The query's deadline expired before it finished.
    TimedOut(String),
    /// The owner (or an admin) cancelled the query.
    Cancelled(String),
}

impl JobStatus {
    /// Terminal states never change again.
    pub fn is_terminal(&self) -> bool {
        !matches!(self, JobStatus::Queued | JobStatus::Running)
    }

    /// Short lowercase label used by the REST layer.
    pub fn label(&self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Complete => "complete",
            JobStatus::Failed(_) => "failed",
            JobStatus::TimedOut(_) => "timeout",
            JobStatus::Cancelled(_) => "cancelled",
        }
    }

    /// Job status for a query that unwound with `err`.
    fn of(err: &Error) -> JobStatus {
        match err {
            Error::Timeout(m) => JobStatus::TimedOut(m.clone()),
            Error::Cancelled(m) => JobStatus::Cancelled(m.clone()),
            other => JobStatus::Failed(other.clone()),
        }
    }
}

/// A submitted query job.
#[derive(Debug, Clone)]
pub struct QueryJob {
    pub id: u64,
    pub user: String,
    pub sql: String,
    pub status: JobStatus,
    /// Time spent queued before execution began, in microseconds
    /// (0 until the job leaves the queue).
    pub queue_wait_micros: u64,
    result: Option<QueryResult>,
    token: CancellationToken,
}

/// One query attempt as the log will record it: who, when, what.
#[derive(Clone)]
pub(super) struct Attempt {
    pub user: String,
    pub sql: String,
    pub at: SimInstant,
}

/// What worker closures share with the service, each piece behind its
/// own lock: the job table (the condvar wakes waiters on every status
/// change), the query log, and the per-tenant cache counters (keyed by
/// lowercased username).
#[derive(Debug, Default)]
struct Shared {
    jobs: Mutex<HashMap<u64, QueryJob>>,
    changed: Condvar,
    log: Mutex<QueryLog>,
    tenant_cache: Mutex<HashMap<String, TenantCacheStats>>,
}

/// The query side of the service.
#[derive(Debug, Default)]
pub(super) struct Jobs {
    shared: Arc<Shared>,
    next_job_id: AtomicU64,
    scheduler: Scheduler,
}

/// Stage 2 — run. The prepared plan executes under `token`; a query
/// that blew its memory budget at full DOP gets one serial,
/// cache-bypassed retry (a DOP-1 plan charges far less — no per-worker
/// partials, no materialized morsel outputs) before the error surfaces,
/// and `degraded` says it did. A cancel must win over the retry
/// whenever it lands: the retry unwinds cooperatively off the same
/// token, and even a retry that raced to completion is reported
/// cancelled — the client was already told so. A plan that failed to
/// prepare is its own outcome: the catalog it was planned against does
/// not change under a running query, so planning again could only
/// reproduce the error.
fn run(
    engine: &Engine,
    prepared: Result<Arc<PreparedQuery>>,
    canonical: &str,
    token: &CancellationToken,
    degraded: &mut bool,
) -> Result<QueryOutput> {
    match prepared.and_then(|plan| engine.run_prepared_with_cancel(&plan, token.clone())) {
        Err(Error::ResourceExhausted(_)) => {
            *degraded = true;
            match engine.run_degraded_with_cancel(canonical, token.clone()) {
                Ok(_) if token.is_cancelled() => Err(token.to_error()),
                other => other,
            }
        }
        other => other,
    }
}

impl Shared {
    /// Stage 3 — finish: the attempt becomes a [`QueryLogEntry`],
    /// whatever its outcome, and the outcome becomes what the caller is
    /// told. The entry's id is assigned and its frame appended under the
    /// log's one lock, so the log's order is id order. The append is best
    /// effort: the query already ran, and a full disk must not fail it
    /// retroactively. A failed query logs no plan and nothing it touched.
    fn finish(
        &self,
        attempt: Attempt,
        queue_wait_micros: u64,
        degraded_retry: bool,
        outcome: Result<(QueryOutput, Preflight)>,
    ) -> Result<QueryResult> {
        let mut entry = QueryLogEntry {
            id: 0,
            user: attempt.user,
            at: attempt.at,
            sql: attempt.sql,
            outcome: Outcome::Error(String::new()),
            queue_wait_micros,
            cache_hit: false,
            degraded_retry,
            spill_bytes: 0,
            plan_json: None,
            tables: vec![],
            datasets: vec![],
            touches_foreign_data: false,
        };
        let finished = match outcome {
            Ok((output, touched)) => {
                let result = QueryResult {
                    plan_json: output.plan_json(&entry.sql),
                    schema: output.schema,
                    rows: output.rows,
                    runtime_micros: output.elapsed_micros,
                    cache_hit: output.cache_hit,
                    spill_bytes: output.spill_bytes,
                };
                entry.outcome = Outcome::Success {
                    rows: result.rows.len(),
                    runtime_micros: result.runtime_micros,
                };
                entry.cache_hit = result.cache_hit;
                entry.spill_bytes = result.spill_bytes;
                entry.plan_json = Some(result.plan_json.clone());
                entry.tables = output.plan.base_tables();
                entry.datasets = touched.datasets;
                entry.touches_foreign_data = touched.foreign;
                let mut tenants = lock(&self.tenant_cache);
                let tenant = tenants.entry(entry.user.to_lowercase()).or_default();
                if result.cache_hit {
                    tenant.hits += 1;
                } else {
                    tenant.misses += 1;
                }
                Ok(result)
            }
            Err(err) => {
                entry.outcome = Outcome::Error(err.kind().to_string());
                Err(err)
            }
        };
        let mut log = lock(&self.log);
        entry.id = log.high_id() + 1;
        let _ = log.append(&entry);
        finished
    }

    /// What being asynchronous adds to stage 3: the finished query
    /// becomes the job's terminal state and the scheduler's report
    /// (disposition, plus the failure class the per-tenant stats record).
    fn conclude(
        &self,
        id: u64,
        queue_wait_micros: u64,
        degraded_retry: bool,
        finished: Result<QueryResult>,
    ) -> JobReport {
        let (status, result, report) = match finished {
            Ok(result) => (
                JobStatus::Complete,
                Some(result),
                JobReport::new(JobDisposition::Completed),
            ),
            Err(err) => {
                let report = match err {
                    Error::Timeout(_) => JobReport::new(JobDisposition::TimedOut),
                    Error::Cancelled(_) => JobReport::new(JobDisposition::Cancelled),
                    Error::Internal(_) => JobReport::failed(FailureClass::Internal),
                    Error::ResourceExhausted(_) => JobReport::failed(FailureClass::Resource),
                    _ => JobReport::failed(FailureClass::Execution),
                };
                (JobStatus::of(&err), None, report)
            }
        };
        self.update_job(id, |job| {
            job.queue_wait_micros = queue_wait_micros;
            job.result = result;
            job.status = status;
        });
        report.with_degraded_retry(degraded_retry)
    }

    fn update_job(&self, id: u64, f: impl FnOnce(&mut QueryJob)) {
        if let Some(job) = lock(&self.jobs).get_mut(&id) {
            f(job);
        }
        self.changed.notify_all();
    }
}

impl SqlShare {
    /// Build a service with a custom scheduler configuration (worker
    /// count, queue capacity, default deadline).
    pub fn with_scheduler(config: SchedulerConfig) -> Self {
        let jobs = Jobs {
            scheduler: Scheduler::new(config),
            ..Jobs::default()
        };
        SqlShare {
            jobs,
            ..Self::default()
        }
    }

    /// Run a query synchronously, enforcing permissions and logging the
    /// attempt (success or failure) to the research corpus.
    pub fn run_query(&self, user: &str, sql: &str) -> Result<QueryResult> {
        let attempt = self.begin_query(user, sql)?;
        let shared = &self.jobs.shared;
        let touched = match self.preflight(user, sql) {
            Ok(touched) => touched,
            Err(err) => return shared.finish(attempt, 0, false, Err(err)),
        };
        let mut degraded = false;
        let outcome = run(
            &self.engine,
            self.engine.prepare(&touched.canonical),
            &touched.canonical,
            &CancellationToken::new(),
            &mut degraded,
        );
        shared.finish(
            attempt,
            0,
            degraded,
            outcome.map(|output| (output, touched)),
        )
    }

    /// Submit a query for asynchronous execution; returns an identifier
    /// the client can poll (§3.3). The query is admitted into the
    /// scheduler's per-tenant queue and runs on a worker thread against
    /// an immutable engine snapshot; admission control rejects with
    /// [`Error::Overloaded`] when the user's queue is full.
    pub fn submit_query(&self, user: &str, sql: &str) -> Result<u64> {
        self.submit_query_with_deadline(user, sql, None)
    }

    /// Like [`SqlShare::submit_query`], with a per-query deadline
    /// (covering queue wait and execution; `None` takes the scheduler's
    /// `default_deadline`). When the deadline fires the query unwinds
    /// cooperatively and the job ends `TimedOut`.
    pub fn submit_query_with_deadline(
        &self,
        user: &str,
        sql: &str,
        deadline: Option<Duration>,
    ) -> Result<u64> {
        let attempt = self.begin_query(user, sql)?;
        let shared = Arc::clone(&self.jobs.shared);
        let id = self.jobs.next_job_id.fetch_add(1, Ordering::Relaxed) + 1;
        let token = CancellationToken::new();
        let mut job = QueryJob {
            id,
            user: user.to_string(),
            sql: sql.to_string(),
            status: JobStatus::Queued,
            queue_wait_micros: 0,
            result: None,
            token: token.clone(),
        };

        // Preflight while we hold the service. Failures become terminal
        // jobs immediately — the id is still handed out, and the failure
        // is observable by polling (as in the real service).
        let touched = match self.preflight(user, sql) {
            Ok(touched) => touched,
            Err(err) => {
                let _ = shared.finish(attempt, 0, false, Err(err.clone()));
                job.status = JobStatus::Failed(err);
                lock(&shared.jobs).insert(id, job);
                return Ok(id);
            }
        };
        lock(&shared.jobs).insert(id, job);

        let engine = self.engine_snapshot();
        let options = SubmitOptions {
            deadline,
            token: Some(token),
        };
        let queued = attempt.clone();
        let worker = Arc::clone(&shared);
        let submitted = self
            .jobs
            .scheduler
            .submit(&user.to_lowercase(), options, move |ctx| {
                let (shared, attempt) = (worker, queued);
                let wait = ctx.queue_wait.as_micros() as u64;
                // Cancelled while still queued: never execute.
                if ctx.token.is_cancelled() {
                    let finished = shared.finish(attempt, wait, false, Err(ctx.token.to_error()));
                    return shared.conclude(id, wait, false, finished);
                }
                shared.update_job(id, |job| {
                    job.queue_wait_micros = wait;
                    job.status = JobStatus::Running;
                });
                // Containment here (below the scheduler's own barrier) keeps
                // the job *table* consistent: a panic at the dequeue fault
                // site, or any engine panic that slipped the engine's
                // barriers, still ends with a terminal job status and a log
                // entry instead of a forever-Running handle.
                let mut degraded = false;
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    // Dequeue fault site: fires the moment the worker picks
                    // the job up, before the engine's own containment takes
                    // over; what it injects stands in for the first run.
                    let picked_up = engine
                        .fault_plan()
                        .map_or(Ok(()), |faults| faults.check(FaultSite::SchedDequeue));
                    let plan = picked_up.and_then(|()| engine.prepare(&touched.canonical));
                    run(&engine, plan, &touched.canonical, &ctx.token, &mut degraded)
                }))
                .unwrap_or_else(|payload| Err(Error::from_panic(payload)));
                let finished = shared.finish(
                    attempt,
                    wait,
                    degraded,
                    outcome.map(|output| (output, touched)),
                );
                shared.conclude(id, wait, degraded, finished)
            });

        if let Err(err) = submitted {
            // Admission control rejected the query: no job is retained,
            // but the rejection is part of the research corpus.
            lock(&shared.jobs).remove(&id);
            return shared.finish(attempt, 0, false, Err(err)).map(|_| id);
        }
        Ok(id)
    }

    /// The job `id` names, for as long as the caller holds the table.
    fn with_job<T>(&self, id: u64, f: impl FnOnce(&QueryJob) -> Result<T>) -> Result<T> {
        let jobs = lock(&self.jobs.shared.jobs);
        let job = jobs
            .get(&id)
            .ok_or_else(|| Error::Request(format!("unknown query id {id}")))?;
        f(job)
    }

    /// Poll a submitted query's status.
    pub fn query_status(&self, id: u64) -> Result<JobStatus> {
        self.with_job(id, |job| Ok(job.status.clone()))
    }

    /// Fetch a completed query's results.
    pub fn query_results(&self, id: u64) -> Result<QueryResult> {
        self.with_job(id, |job| match (&job.status, &job.result) {
            (JobStatus::Complete, Some(r)) => Ok(r.clone()),
            (JobStatus::Failed(err), _) => Err(err.clone()),
            (JobStatus::TimedOut(msg), _) => Err(Error::Timeout(msg.clone())),
            (JobStatus::Cancelled(msg), _) => Err(Error::Cancelled(msg.clone())),
            _ => Err(Error::Request(format!(
                "query {id} is still {}",
                job.status.label()
            ))),
        })
    }

    /// Cancel a submitted query. Only the job's owner or an admin may
    /// cancel; a queued job never executes, a running one unwinds at
    /// its next cancellation check.
    pub fn cancel_query(&self, user: &str, id: u64) -> Result<()> {
        self.require_user(user)?;
        let is_admin = self.user(user).is_some_and(|u| u.admin);
        self.with_job(id, |job| {
            if !job.user.eq_ignore_ascii_case(user) && !is_admin {
                return Err(Error::Permission(format!(
                    "only the owner or an admin may cancel query {id}"
                )));
            }
            job.token.cancel(CancelReason::Cancelled);
            Ok(())
        })
    }

    /// Block until job `id` reaches a terminal state, or `timeout`
    /// elapses (returning the current, possibly non-terminal status).
    pub fn wait_for_job(&self, id: u64, timeout: Duration) -> Result<JobStatus> {
        let deadline = Instant::now() + timeout;
        let shared = &self.jobs.shared;
        let mut jobs = lock(&shared.jobs);
        loop {
            let status = jobs
                .get(&id)
                .map(|j| j.status.clone())
                .ok_or_else(|| Error::Request(format!("unknown query id {id}")))?;
            let now = Instant::now();
            if status.is_terminal() || now >= deadline {
                return Ok(status);
            }
            jobs = shared
                .changed
                .wait_timeout(jobs, deadline - now)
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
    }

    /// Scheduler statistics (queue depths, waits, outcomes per tenant).
    pub fn scheduler_stats(&self) -> SchedulerStats {
        self.jobs.scheduler.stats()
    }

    /// Direct access to the scheduler (resume after a paused start, load,
    /// queue depths) — used by tests and operational tooling.
    pub fn scheduler(&self) -> &Scheduler {
        &self.jobs.scheduler
    }

    /// Per-tenant result-cache hit/miss counters, sorted by username.
    pub fn tenant_cache_stats(&self) -> Vec<(String, TenantCacheStats)> {
        let mut out: Vec<(String, TenantCacheStats)> = lock(&self.jobs.shared.tenant_cache)
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// The query log; while the guard lives no entry is logged.
    pub fn log(&self) -> MutexGuard<'_, QueryLog> {
        lock(&self.jobs.shared.log)
    }
}
