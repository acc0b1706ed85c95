//! The SQLShare service: the whole platform behind the REST interface.
//!
//! Implements the minimal workflow the paper advocates — *upload data,
//! write queries, share the results* — with everything that entails:
//! staged ingest with schema inference (§3.1), the unified dataset model
//! with wrapper views, UNION appends and snapshots (§3.2), asynchronous
//! query handles and preview caching (§3.3), ownership-chain permissions
//! (§3.2), quotas, a simulated clock, and the query log that is the
//! paper's research corpus (§4).

use crate::accounts::{validate_username, Quota, User};
use crate::clock::{SimClock, SimInstant};
use crate::dataset::{Dataset, DatasetKind, DatasetName, Metadata, Preview, PREVIEW_ROWS};
use crate::integrity::{IntegrityHub, Repair};
use crate::permissions::{check_access, DatasetGraph, Visibility};
use crate::persist::{self, DurableOptions, DurableStore, Mutation, RecoveryReport};
use crate::querylog::{Outcome, QueryLog, QueryLogEntry};
use crate::repl::{ReplApply, ReplState, Role};
use sqlshare_common::json::{self, Json, JsonWriter};
use sqlshare_common::{CancelReason, CancellationToken, Error, Result};
use sqlshare_engine::{Engine, FaultSite, Row, Schema, Table};
use sqlshare_ingest::staging::Staging;
use sqlshare_ingest::{ingest_text, IngestOptions, IngestReport};
use sqlshare_storage::{jsonl, read_tail, CrashPoint, JsonlAppender, SnapshotStore, Wal};
use sqlshare_scheduler::{
    FailureClass, JobDisposition, JobReport, Scheduler, SchedulerConfig, SchedulerStats,
    SubmitOptions,
};
use sqlshare_sql::ast::{ObjectName, Query, TableRef};
use sqlshare_sql::parser::parse_query;
use sqlshare_sql::rewrite::{append_union, strip_order_by_for_view, wrapper_view, AppendMode};
use std::collections::{BTreeMap, HashMap};
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
    /// Bytes of operator state spilled to temp pages (0 without a paged
    /// storage layer, or when everything fit in memory).
    pub spill_bytes: u64,
}

/// Per-tenant result-cache counters (hits and misses attributed to the
/// user who ran the query).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TenantCacheStats {
    pub hits: u64,
    pub misses: u64,
}

/// Shared per-tenant cache accounting, updated by both the synchronous
/// path and scheduler workers.
type TenantCacheMap = Mutex<HashMap<String, TenantCacheStats>>;

fn record_tenant_cache(map: &TenantCacheMap, user: &str, hit: bool) {
    let mut map = map.lock().unwrap_or_else(|e| e.into_inner());
    let entry = map.entry(user.to_lowercase()).or_default();
    if hit {
        entry.hits += 1;
    } else {
        entry.misses += 1;
    }
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

/// Shared job table: the service and the scheduler's workers both
/// update it; the condvar wakes waiters on every status change.
type JobTable = (Mutex<HashMap<u64, QueryJob>>, Condvar);

fn update_job(jobs: &JobTable, id: u64, f: impl FnOnce(&mut QueryJob)) {
    let mut map = jobs.0.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(job) = map.get_mut(&id) {
        f(job);
    }
    drop(map);
    jobs.1.notify_all();
}

/// The in-memory query log plus its optional JSONL sink. Worker
/// closures clone the handle; both paths append through [`push_log`] so
/// every logged query also lands in `querylog.jsonl` when the service
/// is durable.
#[derive(Debug, Clone, Default)]
struct LogHandle {
    entries: Arc<Mutex<QueryLog>>,
    sink: Arc<Mutex<Option<JsonlAppender>>>,
}

/// Append an entry to the log, assigning the next id under the lock,
/// and mirror it to the durable sink (best effort: the query already
/// ran; a full disk must not fail it retroactively).
#[allow(clippy::too_many_arguments)]
fn push_log(
    log: &LogHandle,
    user: &str,
    at: SimInstant,
    sql: &str,
    outcome: Outcome,
    plan_json: Option<Json>,
    tables: Vec<String>,
    datasets: Vec<String>,
    touches_foreign_data: bool,
    queue_wait_micros: u64,
    cache_hit: bool,
    degraded_retry: bool,
    spill_bytes: u64,
) {
    let mut entries = log.entries.lock().unwrap_or_else(|e| e.into_inner());
    let id = entries.len() as u64 + 1;
    let entry = QueryLogEntry {
        id,
        user: user.to_string(),
        at,
        sql: sql.to_string(),
        outcome,
        plan_json,
        tables,
        datasets,
        touches_foreign_data,
        queue_wait_micros,
        cache_hit,
        degraded_retry,
        spill_bytes,
    };
    let line = entry.to_json();
    entries.push(entry);
    drop(entries);
    let mut sink = log.sink.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(appender) = sink.as_mut() {
        let _ = appender.append(&line);
    }
}

/// The SQLShare platform.
///
/// Read paths — previews, downloads, status polls, stats, and crucially
/// **query submission** — take `&self`: the pieces they mutate (job
/// table, clock, job-id counter, snapshot cache, log, tenant counters,
/// scheduler queues) all carry their own synchronization. Only the
/// journal-before-apply mutation path (uploads, view DDL, permissions,
/// deletes) needs `&mut self`, so a front end can serve the hot paths
/// through a shared read lock and reserve exclusivity for mutations.
#[derive(Debug, Default)]
pub struct SqlShare {
    engine: Engine,
    /// Cached immutable engine snapshot handed to scheduler workers;
    /// invalidated by any catalog mutation. Queries running on a stale
    /// snapshot simply see the pre-DDL catalog (snapshot isolation).
    /// Interior-locked so concurrent submitters can share one clone.
    snapshot: Mutex<Option<Arc<Engine>>>,
    datasets: BTreeMap<String, Dataset>,
    visibility: HashMap<String, Visibility>,
    users: BTreeMap<String, User>,
    staging: Staging,
    log: LogHandle,
    /// Simulated clock; interior-locked because every query tick moves
    /// it, and queries run concurrently under `&self`.
    clock: Mutex<SimClock>,
    quota: Quota,
    scheduler: Scheduler,
    jobs: Arc<JobTable>,
    next_job_id: std::sync::atomic::AtomicU64,
    /// Deadline applied to submitted queries with no explicit deadline.
    default_deadline: Option<Duration>,
    /// Result-cache hits/misses per tenant (lowercased username).
    tenant_cache: Arc<TenantCacheMap>,
    /// Durable storage (WAL + snapshots), `None` in ephemeral mode. The
    /// ephemeral path never touches the filesystem.
    store: Option<DurableStore>,
    /// True only while startup recovery is replaying; the REST layer
    /// returns 503 for everything but `/api/ready` until it clears.
    recovering: bool,
    /// What the last recovery found, for observability.
    recovery: Option<RecoveryReport>,
    /// Replication role, lease epoch, and lag hint.
    repl: ReplState,
    /// Data directory in durable mode, kept so replication can serve
    /// the live WAL file without going through the store.
    data_dir: Option<std::path::PathBuf>,
    /// Quarantine registry and repair counters, `Arc`-shared so the
    /// server's scrub thread can record findings under a read lock.
    integrity: Arc<IntegrityHub>,
    /// Catalog generation at which every cached preview was last checked
    /// against its dependencies (`None`: not since the state was last
    /// replaced wholesale). A mutation that moves no generation cannot
    /// stale a preview, so `refresh_previews` has nothing to look at.
    previews_checked_at: Option<u64>,
}

impl SqlShare {
    pub fn new() -> Self {
        Self::default()
    }

    /// Build a service with a custom scheduler configuration (worker
    /// count, queue capacity, default deadline).
    pub fn with_scheduler(config: SchedulerConfig) -> Self {
        let default_deadline = config.default_deadline;
        SqlShare {
            scheduler: Scheduler::new(config),
            default_deadline,
            ..Self::default()
        }
    }

    /// Build a service around an engine the caller configured (executor,
    /// parallelism, cache, memory limits, storage layer). This is the
    /// one way to construct a configured service — `Config::open_service`
    /// in the server crate and the test mode matrix both go through it;
    /// the `set_*` methods below re-tune a service that already runs.
    /// The engine's catalog must be empty: datasets enter through the
    /// service.
    pub fn with_engine(engine: Engine) -> Self {
        SqlShare {
            engine,
            ..Self::default()
        }
    }

    /// Open a durable service: run crash recovery against the data
    /// directory (latest valid snapshot, then the WAL tail, truncating
    /// any torn record), reload the persisted query log, and start
    /// journaling new mutations.
    pub fn open(options: DurableOptions) -> Result<Self> {
        Self::new().recover(options)
    }

    /// [`SqlShare::open`] into this service, which must be freshly
    /// constructed. What was configured on it first is in force while
    /// recovery replays: recovered tables get its storage layer.
    pub fn recover(self, options: DurableOptions) -> Result<Self> {
        if self.store.is_some() || !self.users.is_empty() || !self.datasets.is_empty() {
            return Err(Error::Internal(
                "recover: the service already holds state".into(),
            ));
        }
        let mut svc = self;
        svc.recovering = true;
        std::fs::create_dir_all(&options.dir).map_err(|e| {
            Error::Internal(format!("create data dir {}: {e}", options.dir.display()))
        })?;
        let mut report = RecoveryReport::default();

        // 1. Latest valid snapshot (corrupt candidates are skipped by
        //    the store; an older snapshot just means a longer replay).
        let snapshots = SnapshotStore::new(&options.dir);
        let mut applied_lsn = 0u64;
        let loaded = snapshots.load_latest_counted()?;
        report.snapshot_candidates_skipped = loaded.skipped_candidates;
        if let Some((lsn, payload)) = loaded.latest {
            let doc = json::parse(&payload)?;
            svc.restore_snapshot(&doc)?;
            applied_lsn = lsn;
            report.snapshot_lsn = lsn;
        }
        // 2. WAL tail. The scan already truncated any torn/corrupt
        //    suffix; each surviving record is replayed through the same
        //    apply path live mutations use. Records at or below the
        //    snapshot LSN are skipped (double replay is idempotent); a
        //    record whose apply fails is counted and skipped — the
        //    failure was deterministic, so it never took effect live
        //    either.
        let scan = Wal::scan(&DurableStore::wal_path(&options.dir))?;
        report.truncated_wal_bytes = scan.truncated_bytes;
        for record in &scan.records {
            let parsed = std::str::from_utf8(record)
                .map_err(|_| ())
                .and_then(|text| json::parse(text).map_err(|_| ()))
                .and_then(|doc| {
                    let epoch = Mutation::epoch_of(&doc);
                    Mutation::from_json(&doc).map(|(lsn, m)| (lsn, epoch, m)).map_err(|_| ())
                });
            let Ok((lsn, epoch, m)) = parsed else {
                report.failed_records += 1;
                continue;
            };
            // A restarted node resumes in the highest lease epoch it
            // ever journaled under, so a deposed primary stays fenced
            // across its own restart. The tail epoch tracks the epoch
            // of whatever record ends up at the last LSN — including
            // skipped ones, which still occupy their LSN on disk.
            svc.repl.epoch = svc.repl.epoch.max(epoch);
            svc.repl.tail_epoch = epoch;
            if lsn <= applied_lsn {
                report.skipped_records += 1;
                continue;
            }
            // LSNs are contiguous within one lineage, so the first
            // replayed record landing past `applied_lsn + 1` proves the
            // WAL was reset by a snapshot that no longer loads (rotted
            // or deleted). The missing prefix is on no surviving
            // medium; refuse rather than replay onto the wrong base.
            if report.replayed_records == 0 && report.failed_records == 0
                && lsn > applied_lsn + 1
            {
                return Err(Error::Corrupt(format!(
                    "WAL resumes at lsn {lsn} but recovery only reaches lsn {applied_lsn}: \
                     the snapshot covering lsns {}..={} is gone — restore it from a \
                     replica before restarting",
                    applied_lsn + 1,
                    lsn - 1
                )));
            }
            match svc.apply_mutation(&m, None) {
                Ok(_) => report.replayed_records += 1,
                Err(_) => report.failed_records += 1,
            }
            applied_lsn = lsn;
        }
        // A corrupt snapshot candidate newer than everything recovery
        // reached means the mutations up to its LSN are on no surviving
        // medium (the install that wrote it also reset the WAL): refuse
        // rather than boot a state that silently lost acknowledged
        // writes. A skipped candidate the WAL replays *past* — e.g. a
        // write torn before the reset — is harmless: state is complete
        // and the skip is merely counted in the report.
        if loaded.max_skipped_lsn > applied_lsn {
            return Err(Error::Corrupt(format!(
                "snapshot-{}.json is corrupt and recovery only reaches lsn {}; \
                 no surviving snapshot or WAL record covers the gap — restore the \
                 file from a replica, or delete it to explicitly accept losing \
                 lsns {}..={}",
                loaded.max_skipped_lsn,
                applied_lsn,
                applied_lsn + 1,
                loaded.max_skipped_lsn
            )));
        }
        svc.refresh_previews();
        svc.invalidate_snapshot();
        report.last_lsn = applied_lsn;

        // 3. Persisted query log (torn tail repaired on load). Query
        //    ticks are not journaled in the WAL, so the clock must also
        //    fast-forward past the newest logged timestamp — otherwise a
        //    recovered service would re-issue instants the crashed
        //    process already spent on queries.
        let querylog_path = DurableStore::querylog_path(&options.dir);
        let (docs, truncated) = jsonl::load_and_repair(&querylog_path)?;
        report.querylog_truncated_bytes = truncated;
        let mut newest_logged: Option<SimInstant> = None;
        {
            let mut log = svc.log.entries.lock().unwrap_or_else(|e| e.into_inner());
            for doc in &docs {
                if let Ok(entry) = QueryLogEntry::from_json(doc) {
                    if newest_logged.is_none_or(|at| (at.day, at.sequence) < (entry.at.day, entry.at.sequence)) {
                        newest_logged = Some(entry.at);
                    }
                    svc.repl.applied_query_id = svc.repl.applied_query_id.max(entry.id);
                    log.push(entry);
                    report.querylog_entries += 1;
                }
            }
        }
        if let Some(at) = newest_logged {
            svc.sync_clock(at);
        }

        // 4. Go live: open the WAL and query-log sink for appending.
        // The lease-epoch meta file may outrun the journaled epochs: a
        // promotion that crashed before journaling anything still
        // fences the old lease after restart.
        svc.repl.epoch = svc.repl.epoch.max(DurableStore::load_epoch(&options.dir));
        let mut store = DurableStore::open(&options, applied_lsn)?;
        store.set_epoch(svc.repl.epoch);
        svc.repl.applied_lsn = applied_lsn;
        svc.data_dir = Some(options.dir.clone());
        svc.store = Some(store);
        *svc.log.sink.lock().unwrap_or_else(|e| e.into_inner()) =
            Some(JsonlAppender::open(&querylog_path, options.fsync)?);
        svc.recovering = false;
        svc.recovery = Some(report);
        Ok(svc)
    }

    // ---- users and time -------------------------------------------------

    /// Lock the simulated clock (poison-recovering: the clock is a pair
    /// of integers, valid at every statement boundary).
    fn clock(&self) -> MutexGuard<'_, SimClock> {
        self.clock.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Produce the next event timestamp.
    fn tick(&self) -> SimInstant {
        self.clock().tick()
    }

    /// Register a user account.
    pub fn register_user(&mut self, username: &str, email: &str) -> Result<()> {
        validate_username(username)?;
        if self.users.contains_key(&username.to_lowercase()) {
            return Err(Error::Request(format!(
                "username '{username}' is already taken"
            )));
        }
        self.commit(Mutation::RegisterUser {
            username: username.to_string(),
            email: email.to_string(),
        })?;
        Ok(())
    }

    /// Grant or revoke administrator rights (admins may cancel any
    /// user's queries).
    pub fn set_admin(&mut self, username: &str, admin: bool) -> Result<()> {
        self.require_user(username)?;
        self.commit(Mutation::SetAdmin {
            username: username.to_string(),
            admin,
        })?;
        Ok(())
    }

    pub fn user(&self, username: &str) -> Option<&User> {
        self.users.get(&username.to_lowercase())
    }

    pub fn users(&self) -> impl Iterator<Item = &User> {
        self.users.values()
    }

    /// Advance the simulated clock. In durable mode a journal failure
    /// leaves the clock unchanged (unjournaled time travel would not
    /// survive recovery).
    pub fn advance_days(&mut self, days: i32) {
        let _ = self.commit(Mutation::AdvanceDays { days });
    }

    /// Current simulated day.
    pub fn today(&self) -> i32 {
        self.clock().day
    }

    fn require_user(&self, username: &str) -> Result<()> {
        if self.user(username).is_none() {
            return Err(Error::Request(format!("unknown user '{username}'")));
        }
        Ok(())
    }

    // ---- datasets --------------------------------------------------------

    /// Upload a delimited file as a new dataset: stages it, infers the
    /// schema, creates the base table and its trivial wrapper view, and
    /// caches a preview.
    pub fn upload(
        &mut self,
        user: &str,
        dataset: &str,
        content: &str,
        options: &IngestOptions,
    ) -> Result<(DatasetName, IngestReport)> {
        self.require_user(user)?;
        let name = DatasetName::new(user, dataset);
        self.check_name_free(&name)?;
        self.check_quota(user, content.len())?;

        // Stage + ingest during validation: staging owns the retry
        // semantics (transient-failure injection, attempt counting,
        // file retained on failure), so a rejected ingest is never
        // journaled. The built table rides along to apply; replay
        // rebuilds it from the recorded raw content via the same pure
        // `ingest_text`, byte for byte.
        let stage_id = self.staging.stage(format!("{dataset}.csv"), content);
        let base_key = base_table_key(&name);
        let (table, report) = self.staging.ingest(stage_id, &base_key, options)?;

        let saved_clock = *self.clock();
        let created = self.tick();
        let report = self
            .commit_with(
                Mutation::Upload {
                    user: user.to_string(),
                    dataset: dataset.to_string(),
                    content: content.to_string(),
                    options: options.clone(),
                    created,
                },
                Some((table, report)),
            )
            .inspect_err(|_| {
                *self.clock() = saved_clock;
            })?
            .expect("upload apply returns its ingest report");
        Ok((name, report))
    }

    /// Save a query as a new derived dataset (a view). ORDER BY is
    /// stripped per §3.5 unless TOP makes it meaningful.
    pub fn save_dataset(
        &mut self,
        user: &str,
        dataset: &str,
        sql: &str,
        metadata: Metadata,
    ) -> Result<DatasetName> {
        self.require_user(user)?;
        let name = DatasetName::new(user, dataset);
        self.check_name_free(&name)?;
        self.check_quota(user, 0)?;

        let parsed = parse_query(sql)?;
        let qualified = self.qualify(&parsed, user)?;
        let (stripped, _removed) = strip_order_by_for_view(&qualified);
        // The author must be able to read everything the view touches.
        for key in self.referenced_dataset_keys(&stripped) {
            check_access(&GraphView { service: self }, user, &key)?;
        }
        let canonical = stripped.to_string();

        let saved_clock = *self.clock();
        let created = self.tick();
        self.commit(Mutation::SaveDataset {
            user: user.to_string(),
            dataset: dataset.to_string(),
            sql: canonical,
            metadata,
            created,
        })
        .inspect_err(|_| {
            *self.clock() = saved_clock;
        })?;
        Ok(name)
    }

    /// Append the rows of dataset `new` to dataset `existing` by view
    /// rewrite (§3.2): `(existing) UNION ALL (new)`. Downstream views see
    /// the new data with no changes.
    pub fn append(
        &mut self,
        user: &str,
        existing: &DatasetName,
        new: &DatasetName,
        mode: AppendMode,
    ) -> Result<()> {
        self.require_user(user)?;
        let existing_ds = self.dataset_required(existing)?;
        if !existing_ds.name.owner.eq_ignore_ascii_case(user) {
            return Err(Error::Permission(format!(
                "only the owner may append to '{existing}'"
            )));
        }
        check_access(&GraphView { service: self }, user, &new.key())?;

        // Schema compatibility: same arity, unifiable types.
        let old_schema = self.engine.check(&self.dataset_required(existing)?.sql)?;
        let new_schema = self
            .engine
            .check(&format!("SELECT * FROM {}", new.sql_ref()))?;
        if old_schema.len() != new_schema.len() {
            return Err(Error::Request(format!(
                "append schema mismatch: '{existing}' has {} columns, '{new}' has {}",
                old_schema.len(),
                new_schema.len()
            )));
        }

        let existing_ds = self.dataset_required(existing)?;
        let canonical_name = existing_ds.name.clone();
        let old_sql = existing_ds.sql.clone();
        let rewritten = append_union(
            &old_sql,
            &ObjectName(vec![new.owner.clone(), new.name.clone()]),
            mode,
        )?
        .to_string();
        self.commit(Mutation::Append {
            existing: canonical_name,
            sql: rewritten,
        })?;
        Ok(())
    }

    /// Materialize a dataset into a snapshot "distinct from the original
    /// view definition" (§3.2): later changes to the source do not affect
    /// the snapshot.
    pub fn materialize(
        &mut self,
        user: &str,
        source: &DatasetName,
        snapshot: &str,
    ) -> Result<DatasetName> {
        self.require_user(user)?;
        check_access(&GraphView { service: self }, user, &source.key())?;
        let name = DatasetName::new(user, snapshot);
        self.check_name_free(&name)?;
        self.check_quota(user, 0)?;

        // Run the source query now and embed its rows in the record:
        // replaying the query later could observe a changed source — or,
        // under parallel execution, a different float merge order.
        let source_sql = self.dataset_required(source)?.sql.clone();
        let output = self.engine.run(&source_sql)?;

        let saved_clock = *self.clock();
        let created = self.tick();
        self.commit(Mutation::Materialize {
            source: self.dataset_required(source)?.name.clone(),
            name: name.clone(),
            schema: output.schema,
            rows: output.rows,
            created,
        })
        .inspect_err(|_| {
            *self.clock() = saved_clock;
        })?;
        Ok(name)
    }

    /// Delete a dataset (owner only). Views deriving from it keep their
    /// definitions and fail at query time, as in the real system.
    pub fn delete_dataset(&mut self, user: &str, name: &DatasetName) -> Result<()> {
        self.require_user(user)?;
        let ds = self.dataset_required(name)?;
        if !ds.name.owner.eq_ignore_ascii_case(user) {
            return Err(Error::Permission(format!(
                "only the owner may delete '{name}'"
            )));
        }
        let canonical_name = ds.name.clone();
        self.commit(Mutation::Delete {
            name: canonical_name,
        })?;
        Ok(())
    }

    /// Set a dataset's visibility (owner only).
    pub fn set_visibility(
        &mut self,
        user: &str,
        name: &DatasetName,
        visibility: Visibility,
    ) -> Result<()> {
        self.require_user(user)?;
        let ds = self.dataset_required(name)?;
        if !ds.name.owner.eq_ignore_ascii_case(user) {
            return Err(Error::Permission(format!(
                "only the owner may share '{name}'"
            )));
        }
        let canonical_name = ds.name.clone();
        self.commit(Mutation::SetVisibility {
            name: canonical_name,
            visibility,
        })?;
        Ok(())
    }

    /// Update a dataset's description and tags (owner only).
    pub fn set_metadata(
        &mut self,
        user: &str,
        name: &DatasetName,
        metadata: Metadata,
    ) -> Result<()> {
        self.require_user(user)?;
        let ds = self.dataset_required(name)?;
        if !ds.name.owner.eq_ignore_ascii_case(user) {
            return Err(Error::Permission(format!(
                "only the owner may edit '{name}'"
            )));
        }
        let canonical_name = ds.name.clone();
        self.commit(Mutation::SetMetadata {
            name: canonical_name,
            metadata,
        })?;
        Ok(())
    }

    /// Serve the cached preview (§3.3: previews are served without
    /// re-running the query).
    pub fn preview(&self, user: &str, name: &DatasetName) -> Result<&Preview> {
        self.require_user(user)?;
        check_access(&GraphView { service: self }, user, &name.key())?;
        self.dataset_required(name)?
            .preview
            .as_ref()
            .ok_or_else(|| Error::Catalog(format!("no preview cached for '{name}'")))
    }

    /// Download a dataset's full contents as CSV — this *does* run the
    /// query (§3.3).
    pub fn download(&self, user: &str, name: &DatasetName) -> Result<String> {
        let sql = format!("SELECT * FROM {}", name.sql_ref());
        let result = self.run_query(user, &sql)?;
        let mut out = String::new();
        out.push_str(
            &result
                .schema
                .columns
                .iter()
                .map(|c| csv_escape(&c.name))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &result.rows {
            out.push_str(
                &row.iter()
                    .map(|v| csv_escape(&v.to_text()))
                    .collect::<Vec<_>>()
                    .join(","),
            );
            out.push('\n');
        }
        Ok(out)
    }

    // ---- queries -----------------------------------------------------

    /// Run a query synchronously, enforcing permissions and logging the
    /// attempt (success or failure) to the research corpus.
    pub fn run_query(&self, user: &str, sql: &str) -> Result<QueryResult> {
        self.require_user(user)?;
        let at = self.tick();
        let mut degraded = false;
        match self.run_query_inner(user, sql, &mut degraded) {
            Ok((result, datasets, tables)) => {
                let foreign = datasets.iter().any(|k| {
                    self.datasets
                        .get(k)
                        .map(|d| !d.name.owner.eq_ignore_ascii_case(user))
                        .unwrap_or(false)
                });
                record_tenant_cache(&self.tenant_cache, user, result.cache_hit);
                push_log(
                    &self.log,
                    user,
                    at,
                    sql,
                    Outcome::Success {
                        rows: result.rows.len(),
                        runtime_micros: result.runtime_micros,
                    },
                    Some(result.plan_json.clone()),
                    tables,
                    datasets,
                    foreign,
                    0,
                    result.cache_hit,
                    degraded,
                    result.spill_bytes,
                );
                Ok(result)
            }
            Err(err) => {
                push_log(
                    &self.log,
                    user,
                    at,
                    sql,
                    Outcome::Error(err.kind().to_string()),
                    None,
                    vec![],
                    vec![],
                    false,
                    0,
                    false,
                    degraded,
                    0,
                );
                Err(err)
            }
        }
    }

    fn run_query_inner(
        &self,
        user: &str,
        sql: &str,
        degraded: &mut bool,
    ) -> Result<(QueryResult, Vec<String>, Vec<String>)> {
        let parsed = parse_query(sql)?;
        let qualified = self.qualify(&parsed, user)?;
        let dataset_keys = self.referenced_dataset_keys(&qualified);
        for key in &dataset_keys {
            check_access(&GraphView { service: self }, user, key)?;
        }
        let canonical = qualified.to_string();
        let output = match self.engine.run(&canonical) {
            // Graceful degradation: a query that blew its memory budget
            // at full DOP gets one serial, cache-bypassed retry (a
            // DOP-1 plan charges far less — no per-worker partials, no
            // materialized morsel outputs) before the error surfaces.
            Err(Error::ResourceExhausted(_)) => {
                *degraded = true;
                self.engine
                    .run_degraded_with_cancel(&canonical, CancellationToken::new())?
            }
            other => other?,
        };
        let tables = output.plan.base_tables();
        let plan_json = output.plan_json(sql);
        Ok((
            QueryResult {
                schema: output.schema,
                rows: output.rows,
                runtime_micros: output.elapsed_micros,
                plan_json,
                cache_hit: output.cache_hit,
                spill_bytes: output.spill_bytes,
            },
            dataset_keys,
            tables,
        ))
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
    /// (covering queue wait and execution). When the deadline fires the
    /// query unwinds cooperatively and the job ends `TimedOut`.
    pub fn submit_query_with_deadline(
        &self,
        user: &str,
        sql: &str,
        deadline: Option<Duration>,
    ) -> Result<u64> {
        self.require_user(user)?;
        let at = self.tick();
        let id = self
            .next_job_id
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed)
            + 1;

        // Preflight while we hold the service: parse, qualify against
        // the current catalog, and check permissions. Failures become
        // terminal jobs immediately — the id is still handed out, and
        // the failure is observable by polling (as in the real service).
        let preflight = (|| -> Result<(String, Vec<String>, bool)> {
            let parsed = parse_query(sql)?;
            let qualified = self.qualify(&parsed, user)?;
            let keys = self.referenced_dataset_keys(&qualified);
            for key in &keys {
                check_access(&GraphView { service: self }, user, key)?;
            }
            let foreign = keys.iter().any(|k| {
                self.datasets
                    .get(k)
                    .map(|d| !d.name.owner.eq_ignore_ascii_case(user))
                    .unwrap_or(false)
            });
            Ok((qualified.to_string(), keys, foreign))
        })();
        let (canonical, dataset_keys, foreign) = match preflight {
            Ok(v) => v,
            Err(err) => {
                push_log(
                    &self.log,
                    user,
                    at,
                    sql,
                    Outcome::Error(err.kind().to_string()),
                    None,
                    vec![],
                    vec![],
                    false,
                    0,
                    false,
                    false,
                    0,
                );
                self.insert_job(id, user, sql, JobStatus::Failed(err));
                return Ok(id);
            }
        };

        let token = CancellationToken::new();
        self.insert_job_with_token(id, user, sql, JobStatus::Queued, token.clone());

        let engine = self.engine_snapshot();
        // Plan once on the submit path: the optimizer's degree of
        // parallelism decides how many worker slots the job reserves (a
        // DOP-4 hash join accounts for four workers' worth of backend
        // capacity, not one), and the worker executes this same plan
        // against the same snapshot instead of planning a second time.
        // Planning failures keep the normal job lifecycle: the stored
        // error surfaces when the job is picked up, like any failure.
        let prepared = engine.prepare(&canonical);
        // An expected result-cache hit needs no backend capacity: the
        // worker will serve pinned rows without executing, so reserve a
        // single slot instead of the plan's DOP. (If the entry is evicted
        // between here and execution the query simply runs under-reserved
        // once — slots are scheduler accounting, not a thread cap.)
        let dop = match &prepared {
            Ok(p) if engine.cached_result_available(p) => 1,
            Ok(p) => p.dop(),
            Err(_) => 1,
        };
        let jobs = Arc::clone(&self.jobs);
        let log = self.log.clone();
        let tenant_cache = Arc::clone(&self.tenant_cache);
        let user_owned = user.to_string();
        let sql_owned = sql.to_string();

        let submitted = self.scheduler.submit(
            &user.to_lowercase(),
            SubmitOptions {
                deadline: deadline.or(self.default_deadline),
                token: Some(token),
                slots: dop,
            },
            move |ctx| {
                let wait = ctx.queue_wait.as_micros() as u64;
                // Cancelled while still queued: never execute.
                if ctx.token.is_cancelled() {
                    let err = ctx.token.to_error();
                    let status = status_for(&err);
                    let report = report_for(&err);
                    push_log(
                        &log,
                        &user_owned,
                        at,
                        &sql_owned,
                        Outcome::Error(err.kind().to_string()),
                        None,
                        vec![],
                        vec![],
                        false,
                        wait,
                        false,
                        false,
                        0,
                    );
                    update_job(&jobs, id, |j| {
                        j.queue_wait_micros = wait;
                        j.status = status;
                    });
                    return report;
                }
                update_job(&jobs, id, |j| {
                    j.queue_wait_micros = wait;
                    j.status = JobStatus::Running;
                });
                // Containment here (below the scheduler's own barrier)
                // keeps the job *table* consistent: a panic at the
                // dequeue fault site, or any engine panic that slipped
                // the engine's barriers, still ends with a terminal job
                // status and a log entry instead of a forever-Running
                // handle.
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    // Dequeue fault site: fires the moment the worker
                    // picks the job up, before the engine's own
                    // containment takes over.
                    if let Some(faults) = engine.fault_plan() {
                        faults.check(FaultSite::SchedDequeue)?;
                    }
                    match &prepared {
                        Ok(plan) => engine.run_prepared_with_cancel(plan, ctx.token.clone()),
                        // The snapshot is immutable, so re-planning could
                        // only reproduce the same error; report it directly.
                        Err(err) => Err(err.clone()),
                    }
                }))
                .unwrap_or_else(|payload| Err(Error::from_panic(payload)));
                // Graceful degradation: a memory-killed query gets one
                // serial (DOP-1, cache-bypassed) retry before its error
                // surfaces. A cancel must win over the retry whenever it
                // lands: the retry unwinds cooperatively off the same
                // token, and even a retry that raced to completion is
                // reported cancelled — the client was already told so.
                let mut degraded = false;
                let outcome = match outcome {
                    Err(Error::ResourceExhausted(_)) => {
                        degraded = true;
                        let retried =
                            engine.run_degraded_with_cancel(&canonical, ctx.token.clone());
                        match retried {
                            Ok(_) if ctx.token.is_cancelled() => Err(ctx.token.to_error()),
                            other => other,
                        }
                    }
                    other => other,
                };
                match outcome {
                    Ok(output) => {
                        let tables = output.plan.base_tables();
                        let plan_json = output.plan_json(&sql_owned);
                        let result = QueryResult {
                            schema: output.schema,
                            rows: output.rows,
                            runtime_micros: output.elapsed_micros,
                            plan_json: plan_json.clone(),
                            cache_hit: output.cache_hit,
                            spill_bytes: output.spill_bytes,
                        };
                        record_tenant_cache(&tenant_cache, &user_owned, result.cache_hit);
                        push_log(
                            &log,
                            &user_owned,
                            at,
                            &sql_owned,
                            Outcome::Success {
                                rows: result.rows.len(),
                                runtime_micros: result.runtime_micros,
                            },
                            Some(plan_json),
                            tables,
                            dataset_keys,
                            foreign,
                            wait,
                            result.cache_hit,
                            degraded,
                            result.spill_bytes,
                        );
                        update_job(&jobs, id, |j| {
                            j.result = Some(result);
                            j.status = JobStatus::Complete;
                        });
                        JobReport::new(JobDisposition::Completed).with_degraded_retry(degraded)
                    }
                    Err(err) => {
                        let status = status_for(&err);
                        let report = report_for(&err);
                        push_log(
                            &log,
                            &user_owned,
                            at,
                            &sql_owned,
                            Outcome::Error(err.kind().to_string()),
                            None,
                            vec![],
                            vec![],
                            false,
                            wait,
                            false,
                            degraded,
                            0,
                        );
                        update_job(&jobs, id, |j| j.status = status);
                        report.with_degraded_retry(degraded)
                    }
                }
            },
        );

        if let Err(err) = submitted {
            // Admission control rejected the query: no job is retained,
            // but the rejection is part of the research corpus.
            self.jobs
                .0
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .remove(&id);
            push_log(
                &self.log,
                user,
                at,
                sql,
                Outcome::Error(err.kind().to_string()),
                None,
                vec![],
                vec![],
                false,
                0,
                false,
                false,
                0,
            );
            return Err(err);
        }
        Ok(id)
    }

    fn insert_job(&self, id: u64, user: &str, sql: &str, status: JobStatus) {
        self.insert_job_with_token(id, user, sql, status, CancellationToken::new());
    }

    fn insert_job_with_token(
        &self,
        id: u64,
        user: &str,
        sql: &str,
        status: JobStatus,
        token: CancellationToken,
    ) {
        let mut map = self.jobs.0.lock().unwrap_or_else(|e| e.into_inner());
        map.insert(
            id,
            QueryJob {
                id,
                user: user.to_string(),
                sql: sql.to_string(),
                status,
                queue_wait_micros: 0,
                result: None,
                token,
            },
        );
        drop(map);
        self.jobs.1.notify_all();
    }

    /// Poll a submitted query's status.
    pub fn query_status(&self, id: u64) -> Result<JobStatus> {
        self.jobs
            .0
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(&id)
            .map(|j| j.status.clone())
            .ok_or_else(|| Error::Request(format!("unknown query id {id}")))
    }

    /// Fetch a completed query's results.
    pub fn query_results(&self, id: u64) -> Result<QueryResult> {
        let map = self.jobs.0.lock().unwrap_or_else(|e| e.into_inner());
        let job = map
            .get(&id)
            .ok_or_else(|| Error::Request(format!("unknown query id {id}")))?;
        match (&job.status, &job.result) {
            (JobStatus::Complete, Some(r)) => Ok(r.clone()),
            (JobStatus::Failed(err), _) => Err(err.clone()),
            (JobStatus::TimedOut(msg), _) => Err(Error::Timeout(msg.clone())),
            (JobStatus::Cancelled(msg), _) => Err(Error::Cancelled(msg.clone())),
            _ => Err(Error::Request(format!(
                "query {id} is still {}",
                job.status.label()
            ))),
        }
    }

    /// Cancel a submitted query. Only the job's owner or an admin may
    /// cancel; a queued job never executes, a running one unwinds at
    /// its next cancellation check.
    pub fn cancel_query(&self, user: &str, id: u64) -> Result<()> {
        self.require_user(user)?;
        let is_admin = self.user(user).map(|u| u.admin).unwrap_or(false);
        let map = self.jobs.0.lock().unwrap_or_else(|e| e.into_inner());
        let job = map
            .get(&id)
            .ok_or_else(|| Error::Request(format!("unknown query id {id}")))?;
        if !job.user.eq_ignore_ascii_case(user) && !is_admin {
            return Err(Error::Permission(format!(
                "only the owner or an admin may cancel query {id}"
            )));
        }
        job.token.cancel(CancelReason::Cancelled);
        Ok(())
    }

    /// Block until job `id` reaches a terminal state, or `timeout`
    /// elapses (returning the current, possibly non-terminal status).
    pub fn wait_for_job(&self, id: u64, timeout: Duration) -> Result<JobStatus> {
        let deadline = Instant::now() + timeout;
        let mut map = self.jobs.0.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            let status = map
                .get(&id)
                .map(|j| j.status.clone())
                .ok_or_else(|| Error::Request(format!("unknown query id {id}")))?;
            if status.is_terminal() {
                return Ok(status);
            }
            let now = Instant::now();
            if now >= deadline {
                return Ok(status);
            }
            let (guard, _) = self
                .jobs
                .1
                .wait_timeout(map, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            map = guard;
        }
    }

    /// Scheduler statistics (queue depths, waits, outcomes per tenant).
    pub fn scheduler_stats(&self) -> SchedulerStats {
        self.scheduler.stats()
    }

    /// Engine cache counters and occupancy (plan/result hits, evictions,
    /// invalidations, materialized views).
    pub fn cache_stats(&self) -> sqlshare_engine::CacheStats {
        self.engine.cache_stats()
    }

    /// The engine's paged storage layer, if one is attached. The REST
    /// layer reads buffer-pool and spill statistics through it.
    pub fn storage(&self) -> Option<&Arc<sqlshare_engine::StorageLayer>> {
        self.engine.storage()
    }

    /// Attach (or detach) a paged-storage layer. Tables created *after*
    /// the switch get the new backing; existing tables keep theirs.
    /// Invalidates the worker snapshot so queued work executes against
    /// the same layer.
    pub fn set_storage(&mut self, layer: Option<Arc<sqlshare_engine::StorageLayer>>) {
        self.engine.set_storage(layer);
        self.invalidate_snapshot();
    }

    /// Per-tenant result-cache hit/miss counters, sorted by username.
    pub fn tenant_cache_stats(&self) -> Vec<(String, TenantCacheStats)> {
        let map = self.tenant_cache.lock().unwrap_or_else(|e| e.into_inner());
        let mut out: Vec<(String, TenantCacheStats)> =
            map.iter().map(|(k, v)| (k.clone(), *v)).collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Reconfigure the engine cache (result budget in MiB — 0 disables
    /// the result cache and hot views — and hot-view threshold). Drops
    /// all cached state and the worker snapshot.
    pub fn set_cache_config(&mut self, result_mb: usize, hot_view_threshold: u64) {
        self.engine.set_cache_config(result_mb, hot_view_threshold);
        self.invalidate_snapshot();
    }

    /// Direct access to the scheduler (pause/resume, weights) — used by
    /// tests and operational tooling.
    pub fn scheduler(&self) -> &Scheduler {
        &self.scheduler
    }

    /// Configure intra-query parallelism: the per-query DOP cap and the
    /// plan-cost threshold above which the optimizer goes parallel
    /// (`threshold <= 0` forces every eligible plan parallel — test
    /// hook). Invalidates the worker snapshot so queued work picks up
    /// the new policy.
    pub fn set_parallelism(&mut self, max_dop: usize, threshold: f64) {
        self.engine.set_max_dop(max_dop);
        self.engine.set_parallelism_cost_threshold(threshold);
        self.invalidate_snapshot();
    }

    /// Cap each query's memory budget in bytes (`usize::MAX` disables
    /// the cap). Invalidates the worker snapshot so queued work picks
    /// it up.
    pub fn set_query_mem_limit(&mut self, bytes: usize) {
        self.engine.set_query_mem_limit(bytes);
        self.invalidate_snapshot();
    }

    /// Install (or clear) a deterministic fault-injection plan.
    /// Invalidates the worker snapshot; the plan (and its draw counter)
    /// is shared between the sync path and worker snapshots.
    pub fn set_fault_plan(&mut self, plan: Option<sqlshare_engine::FaultPlan>) {
        self.engine.set_fault_plan(plan);
        // Storage shares the engine's plan (and its draw counter), so
        // one seeded plan covers query and durability fault sites alike.
        let shared = self.engine.fault_plan().cloned();
        // Bit-rot sites ride the same plan: page files created from now
        // on apply it to every read image.
        if let (Some(layer), Some(plan)) = (self.engine.storage(), &shared) {
            layer.set_rot_plan(Arc::clone(plan));
        }
        if let Some(store) = &mut self.store {
            store.set_fault_plan(shared);
        }
        self.invalidate_snapshot();
    }

    // ---- at-rest integrity ---------------------------------------------

    /// The shared quarantine registry and repair counters behind
    /// `GET /api/integrity`.
    pub fn integrity(&self) -> &Arc<IntegrityHub> {
        &self.integrity
    }

    /// Whether the node is serving degraded: at least one object is
    /// quarantined for corruption. Everything else keeps serving.
    pub fn is_degraded(&self) -> bool {
        self.integrity.degraded()
    }

    /// Map an on-disk page file back to the base table it backs, if
    /// any (scrub findings name files, quarantine names tables).
    pub fn table_for_file(&self, path: &std::path::Path) -> Option<String> {
        for t in self.engine.catalog().tables() {
            if let Some(paged) = t.paged() {
                if paged.backing_files().iter().any(|(_, f)| f == path) {
                    return Some(t.name.clone());
                }
            }
        }
        None
    }

    /// Quarantine the table owning `path` because of a scrub finding.
    /// Returns the table name, or `None` when no table owns the file
    /// (WAL, snapshot, and query-log findings have their own handling;
    /// spill files are transient).
    pub fn quarantine_file_finding(&self, path: &std::path::Path, detail: &str) -> Option<String> {
        let table = self.table_for_file(path)?;
        self.integrity.quarantine(&table, detail);
        Some(table)
    }

    /// Sweep every paged table for buffer-pool poison verdicts —
    /// query-time corruption detections — and quarantine the owners.
    /// Returns newly quarantined table names.
    pub fn quarantine_poisoned(&self) -> Vec<String> {
        let mut out = Vec::new();
        for t in self.engine.catalog().tables() {
            let Some(paged) = t.paged() else { continue };
            for (file, pages) in paged.poisoned() {
                let what = match file {
                    None => "heap".to_string(),
                    Some(col) => format!("secondary index on column {col}"),
                };
                let detail = format!("{what}: checksum-failed pages {pages:?}");
                if self.integrity.quarantine(&t.name, detail) {
                    out.push(t.name.clone());
                }
            }
        }
        out
    }

    /// Run the local rungs of the repair ladder over every quarantined
    /// object, cheapest first: rebuild from the intact local heap
    /// (index rot), then re-materialize from local snapshot + WAL
    /// records (heap rot). Objects neither rung can fix stay
    /// quarantined with [`Repair::NeedsReplica`] — the server's scrub
    /// thread (or a test harness) then fetches replacement pages from a
    /// replica via [`SqlShare::install_replica_page`].
    pub fn repair_quarantined(&mut self) -> Vec<(String, Repair)> {
        let names: Vec<String> = self
            .integrity
            .quarantined()
            .into_iter()
            .map(|q| q.table)
            .collect();
        let mut out = Vec::new();
        for name in names {
            let repair = self.repair_table(&name);
            self.integrity.record_repair(&repair);
            if !matches!(repair, Repair::NeedsReplica(_)) {
                self.integrity.unquarantine(&name);
            }
            out.push((name, repair));
        }
        if !out.is_empty() {
            self.invalidate_snapshot();
        }
        out
    }

    fn repair_table(&mut self, name: &str) -> Repair {
        match self.engine.rebuild_table_from_heap(name) {
            Ok(true) => Repair::RebuiltFromHeap,
            Ok(false) => Repair::Vacuous,
            Err(heap_err) => match self.rematerialize_table(name) {
                Ok(true) => Repair::Rematerialized,
                Ok(false) => Repair::NeedsReplica(heap_err.to_string()),
                Err(e) => Repair::NeedsReplica(format!(
                    "{heap_err}; rematerialization failed: {e}"
                )),
            },
        }
    }

    /// Rung 2: rebuild one base table from local durable state — the
    /// latest snapshot's embedded rows, brought forward by any later
    /// WAL `upload` / `materialize` / `delete` records naming the same
    /// object, in journal order. Returns `Ok(false)` when no local
    /// durable source mentions the table (ephemeral mode, or the rot
    /// predates every surviving snapshot).
    fn rematerialize_table(&mut self, name: &str) -> Result<bool> {
        let Some(dir) = self.data_dir.clone() else {
            return Ok(false);
        };
        let mut candidate: Option<Table> = None;
        let mut mentioned = false;
        let loaded = SnapshotStore::new(&dir).load_latest_counted()?;
        // A corrupt candidate newer than the loadable snapshot means the
        // WAL was reset past it: local durable state cannot prove what
        // this table held at the tip, so escalate to the replica rung
        // instead of rebuilding a possibly stale generation.
        if loaded.max_skipped_lsn > loaded.latest.as_ref().map_or(0, |(lsn, _)| *lsn) {
            return Ok(false);
        }
        if let Some((_, payload)) = loaded.latest {
            let doc = json::parse(&payload)?;
            let state = persist::field(&doc, "state")?;
            if let Some(tables) = persist::field(state, "tables")?.as_array() {
                for t in tables {
                    let table = persist::table_from_json(t)?;
                    if table.name.eq_ignore_ascii_case(name) {
                        candidate = Some(table);
                        mentioned = true;
                    }
                }
            }
        }
        let wal_path = DurableStore::wal_path(&dir);
        if wal_path.exists() {
            // Non-mutating tail read: the WAL is live and owned by the
            // store; repair must not truncate anything.
            let tail = read_tail(&wal_path, 0)
                .map_err(|e| Error::Internal(format!("repair: wal read failed: {e}")))?;
            for payload in &tail.records {
                let Ok(text) = std::str::from_utf8(payload) else { break };
                let Ok(doc) = json::parse(text) else { break };
                let Ok((_, m)) = Mutation::from_json(&doc) else { break };
                match m {
                    Mutation::Upload {
                        user,
                        dataset,
                        content,
                        options,
                        ..
                    } => {
                        let key = base_table_key(&DatasetName::new(user, dataset));
                        if key.eq_ignore_ascii_case(name) {
                            let (table, _) = ingest_text(&key, &content, &options)?;
                            candidate = Some(table);
                            mentioned = true;
                        }
                    }
                    Mutation::Materialize {
                        name: ds,
                        schema,
                        rows,
                        ..
                    } => {
                        let key = base_table_key(&ds);
                        if key.eq_ignore_ascii_case(name) {
                            candidate = Some(Table::new(&key, schema, rows));
                            mentioned = true;
                        }
                    }
                    Mutation::Delete { name: ds }
                        if base_table_key(&ds).eq_ignore_ascii_case(name) =>
                    {
                        candidate = None;
                        mentioned = true;
                    }
                    _ => {}
                }
            }
        }
        if !mentioned {
            return Ok(false);
        }
        self.engine.drop_relation(name);
        if let Some(table) = candidate {
            self.engine.create_table(table)?;
        }
        Ok(true)
    }

    /// Serve the raw sealed bytes of one backing page of a base table —
    /// the serving side of repair-from-replica (`GET /api/repl/page`).
    /// `file` is `None` for the heap, `Some(col)` for a secondary
    /// index. Page files are byte-deterministic across replicas, so the
    /// image is the exact replacement a corrupted peer needs; the
    /// fetcher still checksum-verifies before installing.
    pub fn replication_page(&self, table: &str, file: Option<usize>, no: u32) -> Result<Vec<u8>> {
        let t = self.engine.catalog().table(table)?;
        let Some(paged) = t.paged() else {
            return Err(Error::Request(format!(
                "table '{table}' has no paged backing to serve pages from"
            )));
        };
        paged.read_raw_page(file, no)
    }

    /// Install a replacement page image fetched from a replica. The
    /// image must pass checksum verification before it touches the
    /// file. Returns `true` when the table has no poisoned pages left —
    /// the quarantine lifts and the repair is counted.
    pub fn install_replica_page(
        &mut self,
        table: &str,
        file: Option<usize>,
        no: u32,
        bytes: &[u8],
    ) -> Result<bool> {
        let name = {
            let t = self.engine.catalog().table(table)?;
            let Some(paged) = t.paged() else {
                return Err(Error::Request(format!(
                    "table '{table}' has no paged backing to repair"
                )));
            };
            paged.install_page(file, no, bytes)?;
            if !paged.poisoned().is_empty() {
                return Ok(false);
            }
            t.name.clone()
        };
        self.integrity.record_replica_repair();
        self.integrity.unquarantine(&name);
        self.invalidate_snapshot();
        Ok(true)
    }

    /// Poisoned pages of one table's backing files — the fetch list for
    /// repair-from-replica. Empty for unknown or memory-backed tables.
    pub fn poisoned_pages(&self, table: &str) -> Vec<(Option<usize>, Vec<u32>)> {
        self.engine
            .catalog()
            .table(table)
            .ok()
            .and_then(|t| t.paged())
            .map(|p| p.poisoned())
            .unwrap_or_default()
    }

    /// Row count of a base table, if it exists — the cheap identity
    /// check a repairing node runs against a peer's answer before
    /// installing fetched pages (a lagging replica serving a different
    /// table generation would pass page checksums but fail this).
    pub fn table_row_count(&self, table: &str) -> Option<usize> {
        self.engine.catalog().table(table).ok().map(Table::row_count)
    }

    /// Resolve a user's query to the catalog-canonical SQL the engine
    /// executes (dataset names qualified, exactly as the async path
    /// preflights it) without running it. Lets harnesses replay logged
    /// queries directly against [`SqlShare::engine`].
    pub fn canonicalize(&self, user: &str, sql: &str) -> Result<String> {
        let parsed = parse_query(sql)?;
        Ok(self.qualify(&parsed, user)?.to_string())
    }

    /// Set the deadline applied to future submissions without one.
    pub fn set_default_deadline(&mut self, deadline: Option<Duration>) {
        self.default_deadline = deadline;
    }

    /// The immutable engine snapshot workers execute against, rebuilt
    /// lazily after catalog mutations.
    fn engine_snapshot(&self) -> Arc<Engine> {
        let mut slot = self.snapshot.lock().unwrap_or_else(|e| e.into_inner());
        slot.get_or_insert_with(|| Arc::new(self.engine.clone())).clone()
    }

    fn invalidate_snapshot(&mut self) {
        *self.snapshot.lock().unwrap_or_else(|e| e.into_inner()) = None;
    }

    /// Run a parameterized query macro (§5.2's proposed convenience):
    /// `$name` placeholders — table positions included — are substituted
    /// from `bindings` before normal execution and logging.
    pub fn run_macro(
        &self,
        user: &str,
        body: &str,
        bindings: &crate::macros::MacroBindings,
    ) -> Result<QueryResult> {
        let sql = crate::macros::expand_macro(body, bindings)?;
        self.run_query(user, &sql)
    }

    /// Run a query whose SELECT list may contain `prefix*` column
    /// patterns (§5.3's proposed syntax), expanded against `dataset`'s
    /// current schema.
    pub fn run_with_column_patterns(
        &self,
        user: &str,
        sql: &str,
        dataset: &DatasetName,
    ) -> Result<QueryResult> {
        let columns: Vec<String> = self
            .dataset_required(dataset)?
            .preview
            .as_ref()
            .map(|p| p.schema.columns.iter().map(|c| c.name.clone()).collect())
            .unwrap_or_default();
        let expanded = crate::macros::expand_column_patterns(sql, &columns)?;
        self.run_query(user, &expanded)
    }

    /// Mint a DOI for a dataset (§5.2: "One user minted DOIs for datasets
    /// in SQLShare; we are adding DOI minting into the interface as a
    /// feature in the next release"). Requires the dataset to be public
    /// (a resolvable identifier must resolve for everyone), is idempotent,
    /// and records the DOI as a dataset tag.
    pub fn mint_doi(&mut self, user: &str, name: &DatasetName) -> Result<String> {
        self.require_user(user)?;
        let ds = self.dataset_required(name)?;
        if !ds.name.owner.eq_ignore_ascii_case(user) {
            return Err(Error::Permission(format!(
                "only the owner may mint a DOI for '{name}'"
            )));
        }
        if !matches!(self.visibility(name), Visibility::Public) {
            return Err(Error::Request(format!(
                "'{name}' must be public before a DOI can be minted"
            )));
        }
        let key = name.key();
        let existing = self
            .datasets
            .get(&key)
            .and_then(|d| {
                d.metadata
                    .tags
                    .iter()
                    .find(|t| t.starts_with("doi:"))
                    .cloned()
            });
        if let Some(doi) = existing {
            return Ok(doi.trim_start_matches("doi:").to_string());
        }
        // Deterministic registry-style identifier: prefix/dataset-hash.
        let h = sqlshare_common::hash::fnv64_str(&key);
        let doi = format!("10.5072/sqlshare.{h:016x}");
        self.commit(Mutation::MintDoi {
            name: self.dataset_required(name)?.name.clone(),
            doi: doi.clone(),
        })?;
        Ok(doi)
    }

    /// Register a user-defined function name with the backing engine
    /// (UDF bodies are synthetic; see `sqlshare-engine`). The SDSS
    /// comparison workload is UDF-heavy (Table 4b of the paper).
    pub fn register_udf(&mut self, name: &str) {
        let _ = self.commit(Mutation::RegisterUdf {
            name: name.to_string(),
        });
    }

    // ---- accessors for analysis ---------------------------------------

    pub fn log(&self) -> MutexGuard<'_, QueryLog> {
        self.log.entries.lock().unwrap_or_else(|e| e.into_inner())
    }

    pub fn datasets(&self) -> impl Iterator<Item = &Dataset> {
        self.datasets.values()
    }

    pub fn dataset(&self, name: &DatasetName) -> Option<&Dataset> {
        self.datasets.get(&name.key())
    }

    pub fn visibility(&self, name: &DatasetName) -> Visibility {
        self.visibility
            .get(&name.key())
            .cloned()
            .unwrap_or(Visibility::Private)
    }

    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Uploads held in the staging area: files whose ingest hit a
    /// transient failure and can be retried. A rejected file is not kept.
    pub fn staged_uploads(&self) -> usize {
        self.staging.len()
    }

    /// Total bytes stored in base tables (the paper reports 143.02 GB for
    /// the production deployment).
    pub fn stored_bytes(&self) -> usize {
        self.engine.catalog().estimated_bytes()
    }

    // ---- durability ----------------------------------------------------

    /// Journal-then-apply one validated mutation. In ephemeral mode
    /// this is just the apply; in durable mode the mutation is
    /// acknowledged only after the WAL append succeeds, and the apply
    /// is the same code recovery replays.
    fn commit(&mut self, m: Mutation) -> Result<Option<IngestReport>> {
        self.commit_with(m, None)
    }

    fn commit_with(
        &mut self,
        m: Mutation,
        prebuilt: Option<(Table, IngestReport)>,
    ) -> Result<Option<IngestReport>> {
        if self.repl.role == Role::Standby {
            return Err(Error::ReadOnly(
                "node is a replication standby; send writes to the primary".into(),
            ));
        }
        let mut lsn = 0u64;
        if let Some(store) = &mut self.store {
            lsn = store.journal(&m)?;
            self.repl.tail_epoch = self.repl.epoch;
        }
        let report = self.apply_mutation(&m, prebuilt)?;
        self.repl.applied_lsn = self.repl.applied_lsn.max(lsn);
        self.refresh_previews();
        self.invalidate_snapshot();
        self.maybe_snapshot();
        Ok(report)
    }

    /// Apply one mutation to in-memory state. Shared between the live
    /// path (after journaling) and recovery replay, so both produce
    /// identical state. Fallible steps come first; the clock moves and
    /// maps change only once nothing else can fail. Previews are best
    /// effort (`.ok()`): they are derived caches, rebuilt on divergence,
    /// and excluded from the durable digest.
    fn apply_mutation(
        &mut self,
        m: &Mutation,
        prebuilt: Option<(Table, IngestReport)>,
    ) -> Result<Option<IngestReport>> {
        match m {
            Mutation::RegisterUser { username, email } => {
                self.users.insert(
                    username.to_lowercase(),
                    User {
                        username: username.clone(),
                        email: email.clone(),
                        admin: false,
                    },
                );
                Ok(None)
            }
            Mutation::SetAdmin { username, admin } => {
                if let Some(u) = self.users.get_mut(&username.to_lowercase()) {
                    u.admin = *admin;
                }
                Ok(None)
            }
            Mutation::AdvanceDays { days } => {
                self.clock().advance_days(*days);
                Ok(None)
            }
            Mutation::Upload {
                user,
                dataset,
                content,
                options,
                created,
            } => {
                let name = DatasetName::new(user.clone(), dataset.clone());
                let base_key = base_table_key(&name);
                let (table, report) = match prebuilt {
                    Some((table, report)) => (table, report),
                    None => ingest_text(&base_key, content, options)?,
                };
                self.engine.create_table(table)?;
                let sql = wrapper_view(&ObjectName(vec![
                    name.owner.clone(),
                    base_name_part(&name.name),
                ]))
                .to_string();
                self.engine.create_view(&name.flat(), &sql)?;
                let preview = self.compute_preview(&sql).ok();
                self.sync_clock(*created);
                self.datasets.insert(
                    name.key(),
                    Dataset {
                        name: name.clone(),
                        sql,
                        metadata: Metadata::default(),
                        preview,
                        kind: DatasetKind::Uploaded,
                        base_table: Some(base_key),
                        created: *created,
                    },
                );
                self.visibility.insert(name.key(), Visibility::Private);
                Ok(Some(report))
            }
            Mutation::SaveDataset {
                user,
                dataset,
                sql,
                metadata,
                created,
            } => {
                let name = DatasetName::new(user.clone(), dataset.clone());
                self.engine.create_view(&name.flat(), sql)?;
                // A view over a failing query is still creatable; the
                // preview stays empty (matches the real system's lazy
                // errors).
                let preview = self.compute_preview(sql).ok();
                self.sync_clock(*created);
                self.datasets.insert(
                    name.key(),
                    Dataset {
                        name: name.clone(),
                        sql: sql.clone(),
                        metadata: metadata.clone(),
                        preview,
                        kind: DatasetKind::Derived,
                        base_table: None,
                        created: *created,
                    },
                );
                self.visibility.insert(name.key(), Visibility::Private);
                Ok(None)
            }
            Mutation::Append { existing, sql } => {
                self.engine.create_view(&existing.flat(), sql)?;
                let preview = self.compute_preview(sql).ok();
                if let Some(ds) = self.datasets.get_mut(&existing.key()) {
                    ds.sql = sql.clone();
                    ds.preview = preview;
                }
                Ok(None)
            }
            Mutation::Materialize {
                source,
                name,
                schema,
                rows,
                created,
            } => {
                let base_key = base_table_key(name);
                let table = Table::new(&base_key, schema.clone(), rows.clone());
                self.engine.create_table(table)?;
                let sql = wrapper_view(&ObjectName(vec![
                    name.owner.clone(),
                    base_name_part(&name.name),
                ]))
                .to_string();
                self.engine.create_view(&name.flat(), &sql)?;
                let preview = self.compute_preview(&sql).ok();
                self.sync_clock(*created);
                self.datasets.insert(
                    name.key(),
                    Dataset {
                        name: name.clone(),
                        sql,
                        metadata: Metadata {
                            description: format!("snapshot of {source}"),
                            tags: vec![],
                        },
                        preview,
                        kind: DatasetKind::Snapshot,
                        base_table: Some(base_key),
                        created: *created,
                    },
                );
                self.visibility.insert(name.key(), Visibility::Private);
                Ok(None)
            }
            Mutation::Delete { name } => {
                let base = self
                    .datasets
                    .get(&name.key())
                    .and_then(|d| d.base_table.clone());
                self.engine.drop_relation(&name.flat());
                if let Some(b) = base {
                    self.engine.drop_relation(&b);
                }
                self.datasets.remove(&name.key());
                self.visibility.remove(&name.key());
                Ok(None)
            }
            Mutation::SetVisibility { name, visibility } => {
                self.visibility.insert(name.key(), visibility.clone());
                Ok(None)
            }
            Mutation::SetMetadata { name, metadata } => {
                if let Some(ds) = self.datasets.get_mut(&name.key()) {
                    ds.metadata = metadata.clone();
                }
                Ok(None)
            }
            Mutation::MintDoi { name, doi } => {
                if let Some(ds) = self.datasets.get_mut(&name.key()) {
                    ds.metadata.tags.push(format!("doi:{doi}"));
                }
                Ok(None)
            }
            Mutation::RegisterUdf { name } => {
                self.engine.catalog_mut().register_udf(name.as_str());
                Ok(None)
            }
        }
    }

    /// Fast-forward the clock to just past `created` when behind. Live
    /// commits already ticked past it (no-op); replay catches up so a
    /// recovered clock issues the same timestamps the crashed process
    /// would have.
    fn sync_clock(&mut self, created: SimInstant) {
        let mut clock = self.clock();
        if (clock.day, clock.sequence) <= (created.day, created.sequence) {
            clock.day = created.day;
            clock.sequence = created.sequence + 1;
        }
    }

    /// Take an automatic snapshot when the cadence is due. Best effort:
    /// a failed snapshot leaves the WAL holding full history, and the
    /// next commit retries after another full cadence interval.
    fn maybe_snapshot(&mut self) {
        if self.store.as_ref().is_some_and(DurableStore::wants_snapshot) {
            let payload = self.snapshot_payload();
            if let Some(store) = &mut self.store {
                let _ = store.take_snapshot(&payload);
            }
        }
    }

    /// Force a snapshot now (durable mode only) — truncates the WAL.
    pub fn force_snapshot(&mut self) -> Result<()> {
        if self.store.is_none() {
            return Err(Error::Request(
                "service has no data directory (ephemeral mode)".into(),
            ));
        }
        let payload = self.snapshot_payload();
        let store = self.store.as_mut().expect("checked above");
        store.take_snapshot(&payload)
    }

    /// The snapshot document (`lsn`, `epoch`, `clock`, `state`), streamed
    /// from live state into the string that goes to disk — no tree of the
    /// whole service is built on the way.
    fn snapshot_payload(&self) -> String {
        // Copy the clock out first: a second `self.clock()` while the
        // first guard is alive would self-deadlock.
        let clock = *self.clock();
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("lsn")
            .number(self.store.as_ref().map_or(0, DurableStore::last_lsn) as f64);
        w.key("epoch").number(self.repl.epoch as f64);
        w.key("clock").begin_object();
        w.key("day").number(clock.day as f64);
        w.key("seq").number(clock.sequence as f64);
        w.end_object();
        self.write_durable_state(w.key("state"), true);
        w.end_object();
        w.finish()
    }

    /// The full durable state as canonical JSON: users, catalog tables
    /// and views, UDFs, datasets, visibility, and generation counters,
    /// all in sorted order. With `include_previews: false` this is the
    /// digest input — previews are derived caches and the clock is
    /// captured separately. This is the only encoder of durable state;
    /// snapshot, digest and [`SqlShare::durable_state_json`] all read it.
    fn write_durable_state(&self, w: &mut JsonWriter, include_previews: bool) {
        w.begin_object();
        w.key("users").begin_array();
        for u in self.users.values() {
            w.begin_object();
            w.key("username").string(&u.username);
            w.key("email").string(&u.email);
            w.key("admin").bool(u.admin);
            w.end_object();
        }
        w.end_array();
        let mut tables: Vec<&Table> = self.engine.catalog().tables().collect();
        tables.sort_by(|a, b| a.name.cmp(&b.name));
        w.key("tables").begin_array();
        for t in tables {
            persist::write_table(w, t);
        }
        w.end_array();
        let mut views: Vec<_> = self.engine.catalog().views().collect();
        views.sort_by(|a, b| a.name.cmp(&b.name));
        w.key("views").begin_array();
        for v in views {
            w.begin_object();
            w.key("name").string(&v.name);
            w.key("sql").string(&v.sql);
            w.end_object();
        }
        w.end_array();
        let mut udfs: Vec<&str> = self.engine.catalog().udfs().collect();
        udfs.sort_unstable();
        w.key("udfs").begin_array();
        for u in udfs {
            w.string(u);
        }
        w.end_array();
        w.key("datasets").begin_array();
        for d in self.datasets.values() {
            persist::write_dataset(w, d, include_previews);
        }
        w.end_array();
        let mut vis: Vec<(&String, &Visibility)> = self.visibility.iter().collect();
        vis.sort_by(|a, b| a.0.cmp(b.0));
        w.key("visibility").begin_array();
        for (k, v) in vis {
            w.begin_array().string(k);
            persist::write_visibility(w, v);
            w.end_array();
        }
        w.end_array();
        let (global, gens) = self.engine.catalog().export_generations();
        w.key("generations").begin_object();
        w.key("global").number(global as f64);
        w.key("objects").begin_array();
        for (k, g) in &gens {
            w.begin_array().string(k).number(*g as f64).end_array();
        }
        w.end_array();
        w.end_object();
        w.end_object();
    }

    fn durable_state_string(&self, include_previews: bool) -> String {
        let mut w = JsonWriter::new();
        self.write_durable_state(&mut w, include_previews);
        w.finish()
    }

    /// The durable state as a document: the streamed encoding, parsed.
    pub fn durable_state_json(&self, include_previews: bool) -> Json {
        json::parse(&self.durable_state_string(include_previews))
            .expect("the state encoder writes valid JSON")
    }

    /// FNV-64 of the canonical durable state (previews excluded). Two
    /// services with equal digests hold byte-identical durable state —
    /// the recovery differential suite's oracle.
    pub fn durable_digest(&self) -> u64 {
        sqlshare_common::hash::fnv64_str(&self.durable_state_string(false))
    }

    fn restore_snapshot(&mut self, doc: &Json) -> Result<()> {
        let clock = persist::field(doc, "clock")?;
        let at = persist::instant_from_json(clock)?;
        {
            let mut clock = self.clock();
            clock.day = at.day;
            clock.sequence = at.sequence;
        }
        // Snapshots written before replication carry no epoch. The
        // snapshot *is* the WAL tail until something is journaled, so
        // its epoch seeds the tail epoch too.
        let epoch = Mutation::epoch_of(doc);
        self.repl.epoch = self.repl.epoch.max(epoch);
        self.repl.tail_epoch = self.repl.tail_epoch.max(epoch);
        self.restore_state(persist::field(doc, "state")?)
    }

    /// Rebuild in-memory state from a snapshot's `state` object. Views
    /// are installed raw (no binder validation) so restore order cannot
    /// matter; generations are imported last, overriding the bumps the
    /// rebuild itself caused.
    fn restore_state(&mut self, state: &Json) -> Result<()> {
        let arr = |key: &str| -> Result<&[Json]> {
            persist::field(state, key)?
                .as_array()
                .ok_or_else(|| Error::Json(format!("snapshot: bad '{key}'")))
        };
        for u in arr("users")? {
            let username = persist::str_of(u, "username")?;
            self.users.insert(
                username.to_lowercase(),
                User {
                    username,
                    email: persist::str_of(u, "email")?,
                    admin: persist::bool_of(u, "admin")?,
                },
            );
        }
        for t in arr("tables")? {
            self.engine.create_table(persist::table_from_json(t)?)?;
        }
        for v in arr("views")? {
            self.engine
                .catalog_mut()
                .set_view(persist::str_of(v, "name")?, persist::str_of(v, "sql")?)?;
        }
        for u in arr("udfs")? {
            let name = u
                .as_str()
                .ok_or_else(|| Error::Json("snapshot: bad udf".into()))?;
            self.engine.catalog_mut().register_udf(name);
        }
        for d in arr("datasets")? {
            let ds = persist::dataset_from_json(d)?;
            self.datasets.insert(ds.name.key(), ds);
        }
        for pair in arr("visibility")? {
            let pair = pair
                .as_array()
                .filter(|p| p.len() == 2)
                .ok_or_else(|| Error::Json("snapshot: bad visibility".into()))?;
            let key = pair[0]
                .as_str()
                .ok_or_else(|| Error::Json("snapshot: bad visibility key".into()))?;
            self.visibility
                .insert(key.to_string(), persist::visibility_from_json(&pair[1])?);
        }
        let gens = persist::field(state, "generations")?;
        let global = persist::u64_of(gens, "global")?;
        let objects = persist::field(gens, "objects")?
            .as_array()
            .ok_or_else(|| Error::Json("snapshot: bad generations".into()))?
            .iter()
            .map(|p| {
                let p = p
                    .as_array()
                    .filter(|p| p.len() == 2)
                    .ok_or_else(|| Error::Json("snapshot: bad generation pair".into()))?;
                let key = p[0]
                    .as_str()
                    .ok_or_else(|| Error::Json("snapshot: bad generation key".into()))?;
                let gen = p[1]
                    .as_f64()
                    .ok_or_else(|| Error::Json("snapshot: bad generation".into()))?;
                Ok((key.to_string(), gen as u64))
            })
            .collect::<Result<Vec<_>>>()?;
        self.engine.catalog_mut().import_generations(global, objects);
        Ok(())
    }

    /// True while startup recovery is still replaying. The REST layer
    /// turns this into 503s on every route but `/api/ready`.
    pub fn is_recovering(&self) -> bool {
        self.recovering
    }

    /// Test hook: flip the recovering gate without running a recovery.
    #[doc(hidden)]
    pub fn set_recovering(&mut self, recovering: bool) {
        self.recovering = recovering;
    }

    /// What the last startup recovery found, if this service was opened
    /// from a data directory.
    pub fn recovery_report(&self) -> Option<RecoveryReport> {
        self.recovery
    }

    /// Arm a simulated crash after `after_records` more WAL appends
    /// (optionally tearing the final record). Chaos-test hook; no-op in
    /// ephemeral mode.
    pub fn set_storage_crash_point(&mut self, crash: Option<CrashPoint>) {
        if let Some(store) = &mut self.store {
            store.set_crash_point(crash);
        }
    }

    /// Whether an armed crash point has fired. After a simulated crash
    /// the WAL is dead — every further mutation is rejected — and the
    /// only way forward is to reopen the data directory (recovery). Ops
    /// that swallow journal errors (`advance_days`, `register_udf`)
    /// make this the only reliable crash signal for chaos harnesses.
    pub fn storage_crashed(&self) -> bool {
        self.store.as_ref().is_some_and(DurableStore::crashed)
    }

    // ---- replication ---------------------------------------------------

    /// This node's replication role. Every node is a primary until it
    /// is demoted (configured to follow someone) or promoted back.
    pub fn role(&self) -> Role {
        self.repl.role
    }

    /// Current lease epoch: stamped on every journaled record so a
    /// deposed primary's stale writes are recognizable and fenced.
    pub fn epoch(&self) -> u64 {
        self.repl.epoch
    }

    /// Highest LSN in durable state (journaled locally or applied from
    /// replication). 0 for a fresh ephemeral service.
    pub fn last_lsn(&self) -> u64 {
        self.store
            .as_ref()
            .map_or(self.repl.applied_lsn, DurableStore::last_lsn)
    }

    /// Path of the live WAL file, for replication streaming. `None` in
    /// ephemeral mode.
    pub fn wal_path(&self) -> Option<std::path::PathBuf> {
        self.data_dir.as_deref().map(DurableStore::wal_path)
    }

    /// Become the primary: bump the lease epoch so everything journaled
    /// from here on supersedes the deposed primary's lease. Returns the
    /// new epoch.
    pub fn promote(&mut self) -> u64 {
        self.repl.role = Role::Primary;
        self.repl.epoch += 1;
        if let Some(store) = &mut self.store {
            store.set_epoch(self.repl.epoch);
        }
        self.repl.epoch
    }

    /// Become (or stay) a standby, adopting `epoch` if it is newer than
    /// ours. A returned ex-primary is demoted with the cluster's
    /// current epoch, which fences its stale lease: it now rejects
    /// client writes and its old-epoch records are refused by
    /// [`apply_replicated`](Self::apply_replicated) everywhere.
    pub fn demote(&mut self, epoch: u64) {
        self.repl.role = Role::Standby;
        self.repl.epoch = self.repl.epoch.max(epoch);
        if let Some(store) = &mut self.store {
            store.set_epoch(self.repl.epoch);
        }
    }

    /// Record the newest LSN the primary has advertised, for lag
    /// accounting on standbys.
    pub fn note_primary_lsn(&mut self, lsn: u64) {
        self.repl.primary_lsn_hint = self.repl.primary_lsn_hint.max(lsn);
    }

    /// How many LSNs this node trails the primary it follows (0 on a
    /// primary, or when fully caught up).
    pub fn replication_lag(&self) -> u64 {
        self.repl.primary_lsn_hint.saturating_sub(self.last_lsn())
    }

    /// Apply one replicated WAL record (the parsed JSON payload the
    /// primary journaled). The record is re-journaled locally under the
    /// primary's LSN and epoch, then applied through the same path
    /// recovery replays — replication correctness *is* the recovery
    /// path.
    ///
    /// Outcomes, checked in order:
    ///
    /// * `lsn <= last_lsn` with the record's epoch at or below our tail
    ///   epoch ⇒ [`ReplApply::Duplicate`] — idempotent redelivery of
    ///   history we already hold.
    /// * `lsn <= last_lsn` with a *newer* epoch ⇒ [`ReplApply::Diverged`]
    ///   — our record at that LSN belongs to an older lease the upstream
    ///   never saw (a deposed primary's un-replicated tail). Skipping it
    ///   as a duplicate would silently keep divergent state *and* ack an
    ///   LSN we never applied from the new history, so the caller must
    ///   reseed from a snapshot.
    /// * `lsn > last_lsn + 1` ⇒ [`ReplApply::Diverged`] — the record
    ///   would leave a gap (e.g. the upstream WAL was truncated and
    ///   regrew past our offset); replaying it out of order is unsound.
    /// * An epoch older than ours ⇒ `Err(ReadOnly)` — fencing: a deposed
    ///   primary's stale lease cannot extend our history.
    /// * Otherwise the record is journaled and applied:
    ///   [`ReplApply::Applied`].
    pub fn apply_replicated(&mut self, doc: &Json) -> Result<ReplApply> {
        let epoch = Mutation::epoch_of(doc);
        let (lsn, m) = Mutation::from_json(doc)?;
        let last = self.last_lsn();
        if lsn <= last {
            if epoch > self.repl.tail_epoch {
                return Ok(ReplApply::Diverged);
            }
            return Ok(ReplApply::Duplicate);
        }
        if lsn > last + 1 {
            return Ok(ReplApply::Diverged);
        }
        if epoch < self.repl.epoch {
            return Err(Error::ReadOnly(format!(
                "fenced replicated record: lease epoch {epoch} predates current epoch {}",
                self.repl.epoch
            )));
        }
        self.repl.epoch = epoch;
        if let Some(store) = &mut self.store {
            store.set_epoch(epoch);
            store.journal_replicated(lsn, epoch, &m)?;
        }
        self.apply_mutation(&m, None)?;
        self.repl.applied_lsn = lsn;
        self.repl.tail_epoch = epoch;
        self.refresh_previews();
        self.invalidate_snapshot();
        self.maybe_snapshot();
        Ok(ReplApply::Applied)
    }

    /// Where the durable query-log sink lives (`None` in ephemeral
    /// mode) — the second file replication streams, because the log is
    /// durable acknowledged state too (it is the paper's research
    /// corpus) and recovery reads it back.
    pub fn querylog_path(&self) -> Option<std::path::PathBuf> {
        self.data_dir.as_deref().map(DurableStore::querylog_path)
    }

    /// Apply one replicated query-log entry — the query-log analogue of
    /// [`apply_replicated`](Self::apply_replicated), idempotent by
    /// entry id. The entry is mirrored to this node's own sink (so it
    /// survives recovery and can be served onward) and its timestamp
    /// fast-forwards the clock: queries tick the simulated clock on the
    /// primary, and a promoted standby must issue timestamps from where
    /// the primary left off, not from its last replicated *mutation*.
    pub fn apply_replicated_query_entry(&mut self, doc: &Json) -> Result<bool> {
        let entry = QueryLogEntry::from_json(doc)
            .map_err(|e| Error::Request(format!("bad replicated query-log entry: {e}")))?;
        let at = entry.at;
        {
            let mut entries = self.log.entries.lock().unwrap_or_else(|e| e.into_inner());
            // Dedup against the highest id actually applied, not the
            // local vector length: ids are assigned upstream, and after
            // a snapshot reseed or an ex-primary rejoin the local count
            // no longer aligns with them.
            let high = entries
                .entries()
                .last()
                .map_or(0, |e| e.id)
                .max(self.repl.applied_query_id);
            if entry.id <= high {
                return Ok(false);
            }
            self.repl.applied_query_id = entry.id;
            let line = entry.to_json();
            entries.push(entry);
            drop(entries);
            let mut sink = self.log.sink.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(appender) = sink.as_mut() {
                let _ = appender.append(&line);
            }
        }
        self.sync_clock(at);
        Ok(true)
    }

    /// The document a standby needs to catch up when the WAL it was
    /// streaming has been truncated by a snapshot: same shape the
    /// snapshot store persists (`lsn`, `epoch`, `clock`, `state`).
    pub fn replication_snapshot(&self) -> Json {
        json::parse(&self.snapshot_payload()).expect("the snapshot encoder writes valid JSON")
    }

    /// Replace this node's state with a primary's snapshot document and
    /// resume streaming from there. Existing catalog state is dropped —
    /// the snapshot is authoritative — while the engine's settings stay:
    /// the tables come back in the configured storage layer. In durable
    /// mode the installed state is immediately snapshotted locally so a
    /// crash right after catch-up recovers to it. Returns the snapshot's
    /// LSN.
    pub fn install_replica_snapshot(&mut self, doc: &Json) -> Result<u64> {
        let lsn = persist::u64_of(doc, "lsn")?;
        self.engine.clear();
        self.datasets.clear();
        self.visibility.clear();
        self.users.clear();
        self.previews_checked_at = None;
        self.restore_snapshot(doc)?;
        // The snapshot is authoritative: local history (including any
        // divergent tail that forced this reseed) is gone, so the tail
        // epoch is exactly the snapshot's.
        self.repl.tail_epoch = Mutation::epoch_of(doc);
        self.repl.applied_lsn = lsn;
        self.refresh_previews();
        self.invalidate_snapshot();
        if let Some(store) = &mut self.store {
            store.set_last_lsn(lsn);
            store.set_epoch(self.repl.epoch);
        }
        if self.store.is_some() {
            let payload = self.snapshot_payload();
            if let Some(store) = &mut self.store {
                store.take_snapshot(&payload)?;
            }
        }
        Ok(lsn)
    }

    // ---- internals -----------------------------------------------------

    fn dataset_required(&self, name: &DatasetName) -> Result<&Dataset> {
        self.datasets
            .get(&name.key())
            .ok_or_else(|| Error::Catalog(format!("unknown dataset '{name}'")))
    }

    fn check_name_free(&self, name: &DatasetName) -> Result<()> {
        if self.datasets.contains_key(&name.key()) {
            return Err(Error::Catalog(format!(
                "dataset '{name}' already exists"
            )));
        }
        Ok(())
    }

    /// Quota check: a walk over the datasets `user` owns (their keys are
    /// one `user.` range of the map) summing each base table's stored
    /// size — no other user's datasets and no row are looked at.
    fn check_quota(&self, user: &str, incoming_bytes: usize) -> Result<()> {
        let (owned, bytes) = self.usage_of(user);
        if owned >= self.quota.max_datasets {
            return Err(Error::Quota(format!(
                "user '{user}' has reached the {} dataset quota",
                self.quota.max_datasets
            )));
        }
        if bytes + incoming_bytes > self.quota.max_bytes {
            return Err(Error::Quota(format!(
                "user '{user}' would exceed the storage quota"
            )));
        }
        Ok(())
    }

    /// What counts against `user`'s quota: datasets owned, and the bytes
    /// their base tables store.
    pub fn usage_of(&self, user: &str) -> (usize, usize) {
        // Usernames hold no '.', so `user.` prefixes exactly the keys of
        // the datasets this user owns.
        let prefix = format!("{}.", user.to_lowercase());
        let owned = self
            .datasets
            .range::<str, _>((std::ops::Bound::Included(prefix.as_str()), std::ops::Bound::Unbounded))
            .take_while(|(key, _)| key.starts_with(&prefix));
        let (mut count, mut bytes) = (0, 0);
        for (_, d) in owned {
            count += 1;
            if let Some(table) = d.base_table.as_deref().and_then(|b| self.engine.catalog().table(b).ok()) {
                bytes += table.estimated_bytes();
            }
        }
        (count, bytes)
    }

    /// A dataset's preview: the first [`PREVIEW_ROWS`] rows, plus one
    /// more read to learn whether there are more. The engine bounds the
    /// scans, so the cost is the preview's size, not the dataset's.
    fn compute_preview(&self, sql: &str) -> Result<Preview> {
        let output = self.engine.run_head(sql, PREVIEW_ROWS as u64 + 1)?;
        let truncated = output.rows.len() > PREVIEW_ROWS;
        let mut rows = output.rows;
        rows.truncate(PREVIEW_ROWS);
        Ok(Preview {
            schema: output.schema,
            rows,
            truncated,
            deps: output.deps,
        })
    }

    /// Recompute every cached preview whose dependency generations moved.
    /// Before this, an append (or snapshot, upload, delete) only refreshed
    /// the mutated dataset's own preview — previews of *downstream* views
    /// kept serving pre-mutation rows even though §3.2 promises downstream
    /// views see new data with no changes. A preview whose query now fails
    /// (e.g. its source was deleted) is dropped rather than left stale.
    /// When the catalog generation has not moved since the last check
    /// (visibility, metadata, DOI, user and clock mutations) no
    /// dependency can have, and the catalog is not walked.
    fn refresh_previews(&mut self) {
        let generation = self.engine.catalog().generation();
        if self.previews_checked_at == Some(generation) {
            return;
        }
        self.previews_checked_at = Some(generation);
        let stale: Vec<String> = self
            .datasets
            .iter()
            .filter(|(_, ds)| {
                ds.preview.as_ref().is_some_and(|p| {
                    p.deps
                        .iter()
                        .any(|(k, g)| self.engine.catalog().generation_of(k) != *g)
                })
            })
            .map(|(key, _)| key.clone())
            .collect();
        for key in stale {
            let sql = match self.datasets.get(&key) {
                Some(ds) => ds.sql.clone(),
                None => continue,
            };
            let preview = self.compute_preview(&sql).ok();
            if let Some(ds) = self.datasets.get_mut(&key) {
                ds.preview = preview;
            }
        }
    }

    /// Qualify single-part dataset references with the requesting user's
    /// name when that dataset exists, so `FROM tides` works for the owner.
    fn qualify(&self, query: &Query, user: &str) -> Result<Query> {
        let mut q = query.clone();
        qualify_query(&mut q, &|name: &ObjectName| {
            if name.0.len() == 1 {
                let candidate = format!("{}.{}", user.to_lowercase(), name.0[0].to_lowercase());
                if self.datasets.contains_key(&candidate) {
                    return Some(ObjectName(vec![
                        user.to_string(),
                        name.0[0].clone(),
                    ]));
                }
            }
            None
        });
        Ok(q)
    }

    /// Dataset keys directly referenced by a query (base-table internals
    /// excluded).
    fn referenced_dataset_keys(&self, query: &Query) -> Vec<String> {
        let mut keys: Vec<String> = query
            .referenced_tables()
            .iter()
            .map(|n| n.flat().to_lowercase())
            .filter(|k| self.datasets.contains_key(k))
            .collect();
        keys.sort();
        keys.dedup();
        keys
    }
}

/// Job status for a query that unwound with `err`.
fn status_for(err: &Error) -> JobStatus {
    match err {
        Error::Timeout(m) => JobStatus::TimedOut(m.clone()),
        Error::Cancelled(m) => JobStatus::Cancelled(m.clone()),
        other => JobStatus::Failed(other.clone()),
    }
}

/// Scheduler-facing report for a query that unwound with `err`: the
/// disposition plus the failure class the per-tenant stats record.
fn report_for(err: &Error) -> JobReport {
    match err {
        Error::Timeout(_) => JobReport::new(JobDisposition::TimedOut),
        Error::Cancelled(_) => JobReport::new(JobDisposition::Cancelled),
        Error::Internal(_) => JobReport::failed(FailureClass::Internal),
        Error::ResourceExhausted(_) => JobReport::failed(FailureClass::Resource),
        _ => JobReport::failed(FailureClass::Execution),
    }
}

/// The base table behind a dataset: `owner.<name>$base`.
fn base_table_key(name: &DatasetName) -> String {
    format!("{}.{}", name.owner, base_name_part(&name.name))
}

fn base_name_part(dataset: &str) -> String {
    format!("{dataset}$base")
}

fn csv_escape(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Rewrite table names in a query via `f` (returning `Some` replaces).
fn qualify_query(query: &mut Query, f: &dyn Fn(&ObjectName) -> Option<ObjectName>) {
    fn walk_set(e: &mut sqlshare_sql::ast::SetExpr, f: &dyn Fn(&ObjectName) -> Option<ObjectName>) {
        match e {
            sqlshare_sql::ast::SetExpr::Select(s) => {
                for t in &mut s.from {
                    walk_table(t, f);
                }
                // Subqueries in expressions:
                rewrite_exprs_in_select(s, f);
            }
            sqlshare_sql::ast::SetExpr::SetOp { left, right, .. } => {
                walk_set(left, f);
                walk_set(right, f);
            }
        }
    }
    fn walk_table(t: &mut TableRef, f: &dyn Fn(&ObjectName) -> Option<ObjectName>) {
        match t {
            TableRef::Named { name, alias } => {
                if let Some(new_name) = f(name) {
                    // Keep the original short name visible as an alias so
                    // column qualifiers keep resolving.
                    if alias.is_none() {
                        *alias = Some(name.base().to_string());
                    }
                    *name = new_name;
                }
            }
            TableRef::Derived { subquery, .. } => qualify_query(subquery, f),
            TableRef::Join { left, right, .. } => {
                walk_table(left, f);
                walk_table(right, f);
            }
        }
    }
    fn rewrite_exprs_in_select(
        s: &mut sqlshare_sql::ast::Select,
        f: &dyn Fn(&ObjectName) -> Option<ObjectName>,
    ) {
        use sqlshare_sql::ast::{Expr, SelectItem};
        fn walk_expr(e: &mut Expr, f: &dyn Fn(&ObjectName) -> Option<ObjectName>) {
            match e {
                Expr::ScalarSubquery(q) => qualify_query(q, f),
                Expr::InSubquery { subquery, expr, .. } => {
                    qualify_query(subquery, f);
                    walk_expr(expr, f);
                }
                Expr::Exists { subquery, .. } => qualify_query(subquery, f),
                Expr::Unary { expr, .. } => walk_expr(expr, f),
                Expr::Binary { left, right, .. } => {
                    walk_expr(left, f);
                    walk_expr(right, f);
                }
                Expr::Function(call) => {
                    for a in &mut call.args {
                        walk_expr(a, f);
                    }
                }
                Expr::Case {
                    operand,
                    branches,
                    else_result,
                } => {
                    if let Some(o) = operand {
                        walk_expr(o, f);
                    }
                    for (c, v) in branches {
                        walk_expr(c, f);
                        walk_expr(v, f);
                    }
                    if let Some(el) = else_result {
                        walk_expr(el, f);
                    }
                }
                Expr::Cast { expr, .. } | Expr::IsNull { expr, .. } => walk_expr(expr, f),
                Expr::InList { expr, list, .. } => {
                    walk_expr(expr, f);
                    for e in list {
                        walk_expr(e, f);
                    }
                }
                Expr::Between {
                    expr, low, high, ..
                } => {
                    walk_expr(expr, f);
                    walk_expr(low, f);
                    walk_expr(high, f);
                }
                Expr::Like { expr, pattern, .. } => {
                    walk_expr(expr, f);
                    walk_expr(pattern, f);
                }
                _ => {}
            }
        }
        for item in &mut s.projection {
            if let SelectItem::Expr { expr, .. } = item {
                walk_expr(expr, f);
            }
        }
        if let Some(w) = &mut s.selection {
            walk_expr(w, f);
        }
        for g in &mut s.group_by {
            walk_expr(g, f);
        }
        if let Some(h) = &mut s.having {
            walk_expr(h, f);
        }
    }
    walk_set(&mut query.body, f);
    let _ = &query.order_by; // ORDER BY cannot reference tables.
}

/// Adapter exposing the service's dataset graph to the permission walker.
struct GraphView<'a> {
    service: &'a SqlShare,
}

impl DatasetGraph for GraphView<'_> {
    fn owner_of(&self, dataset_key: &str) -> Option<String> {
        self.service
            .datasets
            .get(dataset_key)
            .map(|d| d.name.owner.clone())
    }

    fn visibility_of(&self, dataset_key: &str) -> Option<Visibility> {
        self.service.visibility.get(dataset_key).cloned()
    }

    fn references_of(&self, dataset_key: &str) -> Vec<String> {
        let Some(ds) = self.service.datasets.get(dataset_key) else {
            return vec![];
        };
        let Ok(parsed) = parse_query(&ds.sql) else {
            return vec![];
        };
        parsed
            .referenced_tables()
            .iter()
            .map(|n| n.flat().to_lowercase())
            .filter(|k| self.service.datasets.contains_key(k))
            .collect()
    }
}
