//! The SQLShare service: the whole platform behind the REST interface.
//!
//! Implements the minimal workflow the paper advocates — *upload data,
//! write queries, share the results* — with everything that entails:
//! staged ingest with schema inference (§3.1), the unified dataset model
//! with wrapper views, UNION appends and snapshots (§3.2), asynchronous
//! query handles and preview caching (§3.3), ownership-chain permissions
//! (§3.2), quotas, a simulated clock, and the query log that is the
//! paper's research corpus (§4).
//!
//! This file is the catalog: what the state is, how each public call
//! validates a change to it, and how one [`Mutation`] record changes it
//! ([`SqlShare::apply_mutation`]). The rest of [`SqlShare`] is split by
//! the state each part owns, and the owning module keeps its fields
//! private: [`journal`] journals and installs mutations (live,
//! replicated, recovered, reseeded) and holds roles and epochs; [`jobs`]
//! runs queries and holds the job table, scheduler and query log.

mod jobs;
mod journal;

pub use jobs::{JobStatus, QueryJob, QueryResult, TenantCacheStats};

use crate::accounts::{validate_username, Quota, User};
use crate::clock::{SimClock, SimInstant};
use crate::dataset::{Dataset, DatasetKind, DatasetName, Metadata, Preview, PREVIEW_ROWS};
use crate::integrity::IntegrityHub;
use crate::permissions::{check_access, DatasetGraph, Visibility};
use crate::persist::{
    self, base_name_part, base_table_key, Mutation, Segments, TableRef,
};
use crate::repl::Role;
use jobs::{Attempt, Jobs};
use journal::Journal;
use sqlshare_common::json::{self, Json, JsonWriter};
use sqlshare_common::{Error, Result};
use sqlshare_engine::catalog::canonical_key;
use sqlshare_engine::{Engine, Table};
use sqlshare_ingest::staging::Staging;
use sqlshare_ingest::{IngestOptions, IngestReport};
use sqlshare_sql::ast::{ObjectName, Query};
use sqlshare_sql::parser::parse_query;
use sqlshare_sql::rewrite::{
    append_union, rename_tables, strip_order_by_for_view, wrapper_view, AppendMode,
};
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex, MutexGuard};

/// How [`SqlShare::write_durable_state`] writes tables and previews.
#[derive(Clone, Copy)]
enum StateLayout<'a> {
    /// Tables inline, no previews: the digest's input.
    Digest,
    /// Tables inline, previews too: a self-contained replication
    /// document.
    Replica,
    /// A snapshot manifest: each table by its segment — `placed`, by
    /// (catalog key, generation); a table not there inline — and no
    /// previews, which restore computes.
    Manifest(&'a HashMap<(String, u64), TableRef>),
}

/// Lock state that is valid at every statement boundary (counters, maps
/// updated in one step), so a panic elsewhere need not poison it.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

/// A query after stage one (preflight): the catalog-canonical SQL the
/// engine runs, the datasets it names, and whether any is someone
/// else's (§5.2 reports >10% of queries touch foreign data).
struct Preflight {
    canonical: String,
    datasets: Vec<String>,
    foreign: bool,
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
    /// Simulated clock; interior-locked because every query tick moves
    /// it, and queries run concurrently under `&self`.
    clock: Mutex<SimClock>,
    quota: Quota,
    /// Catalog generation at which every cached preview was last checked
    /// against its dependencies (`None`: not since the state was last
    /// replaced wholesale). A mutation that moves no generation cannot
    /// stale a preview, so `refresh_previews` has nothing to look at.
    previews_checked_at: Option<u64>,
    /// Queries: job table, scheduler, query log.
    jobs: Jobs,
    /// Durability and replication: store, roles, epochs, recovery.
    journal: Journal,
    /// Scrub progress, `Arc`-shared so the server's scrub thread can
    /// record it under a read lock.
    integrity: Arc<IntegrityHub>,
}

impl SqlShare {
    pub fn new() -> Self {
        Self::default()
    }

    /// Build a service around an engine the caller configured (executor,
    /// parallelism, cache, memory limits, spill directory). This is the
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

    // ---- users and time -------------------------------------------------

    /// Lock the simulated clock (a pair of integers).
    fn clock(&self) -> MutexGuard<'_, SimClock> {
        lock(&self.clock)
    }

    /// Produce the next event timestamp.
    fn tick(&self) -> SimInstant {
        self.clock().tick()
    }

    /// Journal and install a record stamped with the next clock tick. A
    /// failure hands the tick back: unjournaled time would not survive
    /// recovery.
    fn commit_at_tick(
        &mut self,
        prebuilt: Option<(Table, IngestReport)>,
        record: impl FnOnce(SimInstant) -> Mutation,
    ) -> Result<Option<IngestReport>> {
        let saved_clock = *self.clock();
        let created = self.tick();
        self.commit(record(created), prebuilt).inspect_err(|_| {
            *self.clock() = saved_clock;
        })
    }

    /// Register a user account.
    pub fn register_user(&mut self, username: &str, email: &str) -> Result<()> {
        validate_username(username)?;
        if self.users.contains_key(&username.to_lowercase()) {
            return Err(Error::Request(format!(
                "username '{username}' is already taken"
            )));
        }
        self.commit(
            Mutation::RegisterUser {
                username: username.to_string(),
                email: email.to_string(),
            },
            None,
        )?;
        Ok(())
    }

    /// Grant or revoke administrator rights (admins may cancel any
    /// user's queries).
    pub fn set_admin(&mut self, username: &str, admin: bool) -> Result<()> {
        self.require_user(username)?;
        let username = username.to_string();
        self.commit(Mutation::SetAdmin { username, admin }, None)?;
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
        let _ = self.commit(Mutation::AdvanceDays { days }, None);
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
        self.check_name_free(&name, true)?;
        self.check_quota(user, content.len())?;

        // Stage + ingest during validation: staging owns the retry
        // semantics (transient-failure injection, attempt counting,
        // file retained on failure), so a rejected ingest is never
        // journaled. The built table rides along to apply; replay
        // rebuilds it from the recorded raw content via the same pure
        // `ingest_text`, byte for byte.
        let stage_id = self.staging.stage(format!("{dataset}.csv"), content);
        let prebuilt = self
            .staging
            .ingest(stage_id, &base_table_key(&name), options)?;
        let report = self
            .commit_at_tick(Some(prebuilt), |created| Mutation::Upload {
                user: user.to_string(),
                dataset: dataset.to_string(),
                content: content.to_string(),
                options: options.clone(),
                created,
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
        self.check_name_free(&name, false)?;
        self.check_quota(user, 0)?;

        // The author must be able to read everything the view touches,
        // and the definition must bind: apply creates the view through
        // the binder, and a record that cannot apply must not be
        // journaled.
        let (qualified, _) = self.readable(user, sql)?;
        let (stripped, _removed) = strip_order_by_for_view(&qualified);
        let canonical = stripped.to_string();
        self.engine.check(&canonical)?;

        self.commit_at_tick(None, |created| Mutation::SaveDataset {
            user: user.to_string(),
            dataset: dataset.to_string(),
            sql: canonical,
            metadata,
            created,
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
        let existing_ds = self.owned_dataset(user, existing, "append to")?;
        check_access(&GraphView { service: self }, user, &new.key())?;

        // Schema compatibility: same arity, unifiable types.
        let old_schema = self.engine.check(&existing_ds.sql)?;
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

        let rewritten = append_union(
            &existing_ds.sql,
            &ObjectName(vec![new.owner.clone(), new.name.clone()]),
            mode,
        )?
        .to_string();
        // Apply redefines the view through the binder; what the binder
        // would refuse (column types that do not unify) is refused here.
        self.engine.check(&rewritten)?;
        let existing = existing_ds.name.clone();
        self.commit(
            Mutation::Append {
                existing,
                sql: rewritten,
            },
            None,
        )?;
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
        self.check_name_free(&name, true)?;
        self.check_quota(user, 0)?;

        // Run the source query now and embed its rows in the record:
        // replaying the query later could observe a changed source — or,
        // under parallel execution, a different float merge order.
        let source_ds = self.dataset_required(source)?;
        let output = self.engine.run(&source_ds.sql)?;
        let source = source_ds.name.clone();

        self.commit_at_tick(None, |created| Mutation::Materialize {
            source,
            name: name.clone(),
            schema: output.schema,
            rows: output.rows,
            created,
        })?;
        Ok(name)
    }

    /// Delete a dataset (owner only). Views deriving from it keep their
    /// definitions and fail at query time, as in the real system.
    pub fn delete_dataset(&mut self, user: &str, name: &DatasetName) -> Result<()> {
        self.require_user(user)?;
        let name = self.owned_dataset(user, name, "delete")?.name.clone();
        self.commit(Mutation::Delete { name }, None)?;
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
        let name = self.owned_dataset(user, name, "share")?.name.clone();
        self.commit(Mutation::SetVisibility { name, visibility }, None)?;
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
        let name = self.owned_dataset(user, name, "edit")?.name.clone();
        self.commit(Mutation::SetMetadata { name, metadata }, None)?;
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

    /// Where every query enters, synchronous or submitted: a standby
    /// refuses it, the author must exist, and the attempt takes its
    /// timestamp. A query logs an entry and ticks the clock; on a
    /// standby both would collide with the entries and timestamps the
    /// primary's log replicates here (DESIGN §4.7), so the refusal is
    /// the typed `read-only` error a refused write gets. It comes first:
    /// a lagging standby may not know the user yet.
    fn begin_query(&self, user: &str, sql: &str) -> Result<Attempt> {
        if self.role() == Role::Standby {
            return Err(Error::ReadOnly(
                "node is a replication standby; send queries to the primary".into(),
            ));
        }
        self.require_user(user)?;
        Ok(Attempt {
            user: user.to_string(),
            sql: sql.to_string(),
            at: self.tick(),
        })
    }

    /// Parse `sql`, qualify it against the current catalog for `user`,
    /// and check `user` may read every dataset it names. Returns the
    /// qualified query and those datasets' keys.
    fn readable(&self, user: &str, sql: &str) -> Result<(Query, Vec<String>)> {
        let qualified = self.qualify(&parse_query(sql)?, user);
        let keys = self.referenced_dataset_keys(&qualified);
        for key in &keys {
            check_access(&GraphView { service: self }, user, key)?;
        }
        Ok((qualified, keys))
    }

    /// Stage one of a query (the stages are in [`jobs`]).
    fn preflight(&self, user: &str, sql: &str) -> Result<Preflight> {
        let (qualified, datasets) = self.readable(user, sql)?;
        let foreign = datasets.iter().any(|k| {
            self.datasets
                .get(k)
                .is_some_and(|d| !d.name.owner.eq_ignore_ascii_case(user))
        });
        Ok(Preflight {
            canonical: qualified.to_string(),
            datasets,
            foreign,
        })
    }

    /// Engine cache counters and occupancy (plan/result hits, evictions,
    /// invalidations, materialized views).
    pub fn cache_stats(&self) -> sqlshare_engine::CacheStats {
        self.engine.cache_stats()
    }

    /// The shared scrub-progress mirror behind `GET /api/integrity`.
    pub fn integrity(&self) -> &Arc<IntegrityHub> {
        &self.integrity
    }

    /// Row count of a base table, if it exists.
    pub fn table_row_count(&self, table: &str) -> Option<usize> {
        self.engine.catalog().table(table).ok().map(Table::row_count)
    }

    /// Reconfigure the engine cache (result budget in MiB — 0 disables
    /// the result cache and hot views — and hot-view threshold). Drops
    /// all cached state and the worker snapshot.
    pub fn set_cache_config(&mut self, result_mb: usize, hot_view_threshold: u64) {
        self.engine.set_cache_config(result_mb, hot_view_threshold);
        self.invalidate_snapshot();
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
        self.journal.set_fault_plan(self.engine.fault_plan().cloned());
        self.invalidate_snapshot();
    }

    /// Resolve a user's query to the catalog-canonical SQL the engine
    /// executes (dataset names qualified, exactly as the async path
    /// preflights it) without running it. Lets harnesses replay logged
    /// queries directly against [`SqlShare::engine`].
    pub fn canonicalize(&self, user: &str, sql: &str) -> Result<String> {
        Ok(self.qualify(&parse_query(sql)?, user).to_string())
    }

    /// The immutable engine snapshot workers execute against, rebuilt
    /// lazily after catalog mutations.
    fn engine_snapshot(&self) -> Arc<Engine> {
        lock(&self.snapshot)
            .get_or_insert_with(|| Arc::new(self.engine.clone()))
            .clone()
    }

    fn invalidate_snapshot(&mut self) {
        *lock(&self.snapshot) = None;
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
        let ds = self.owned_dataset(user, name, "mint a DOI for")?;
        if !matches!(self.visibility(name), Visibility::Public) {
            return Err(Error::Request(format!(
                "'{name}' must be public before a DOI can be minted"
            )));
        }
        if let Some(doi) = ds.metadata.tags.iter().find_map(|t| t.strip_prefix("doi:")) {
            return Ok(doi.to_string());
        }
        // Deterministic registry-style identifier: prefix/dataset-hash.
        let h = sqlshare_common::hash::fnv64_str(&name.key());
        let doi = format!("10.5072/sqlshare.{h:016x}");
        let name = ds.name.clone();
        self.commit(
            Mutation::MintDoi {
                name,
                doi: doi.clone(),
            },
            None,
        )?;
        Ok(doi)
    }

    /// Register a user-defined function name with the backing engine
    /// (UDF bodies are synthetic; see `sqlshare-engine`). The SDSS
    /// comparison workload is UDF-heavy (Table 4b of the paper).
    pub fn register_udf(&mut self, name: &str) {
        let name = name.to_string();
        let _ = self.commit(Mutation::RegisterUdf { name }, None);
    }

    // ---- accessors for analysis ---------------------------------------

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

    // ---- applying a record ----------------------------------------------

    /// Apply one mutation to in-memory state — stage three's first step,
    /// whoever the caller ([`SqlShare::install`]): live commit,
    /// replicated record or recovery replay, so all produce identical
    /// state. Fallible steps come first; the clock moves and maps change
    /// only once nothing else can fail. Previews are best effort
    /// (`.ok()`): they are derived caches, rebuilt on divergence, and
    /// excluded from the durable digest.
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
            }
            Mutation::SetAdmin { username, admin } => {
                if let Some(u) = self.users.get_mut(&username.to_lowercase()) {
                    u.admin = *admin;
                }
            }
            Mutation::AdvanceDays { days } => {
                self.clock().advance_days(*days);
            }
            Mutation::Upload {
                user,
                dataset,
                created,
                ..
            } => {
                let name = DatasetName::new(user.clone(), dataset.clone());
                let (kind, metadata) = (DatasetKind::Uploaded, Metadata::default());
                return self.create_base_dataset(m, prebuilt, name, kind, metadata, *created);
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
            }
            Mutation::Append { existing, sql } => {
                self.engine.create_view(&existing.flat(), sql)?;
                let preview = self.compute_preview(sql).ok();
                if let Some(ds) = self.datasets.get_mut(&existing.key()) {
                    ds.sql = sql.clone();
                    ds.preview = preview;
                }
            }
            Mutation::Materialize {
                source,
                name,
                created,
                ..
            } => {
                let metadata = Metadata {
                    description: format!("snapshot of {source}"),
                    tags: vec![],
                };
                let kind = DatasetKind::Snapshot;
                return self.create_base_dataset(m, None, name.clone(), kind, metadata, *created);
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
            }
            Mutation::SetVisibility { name, visibility } => {
                self.visibility.insert(name.key(), visibility.clone());
            }
            Mutation::SetMetadata { name, metadata } => {
                if let Some(ds) = self.datasets.get_mut(&name.key()) {
                    ds.metadata = metadata.clone();
                }
            }
            Mutation::MintDoi { name, doi } => {
                if let Some(ds) = self.datasets.get_mut(&name.key()) {
                    ds.metadata.tags.push(format!("doi:{doi}"));
                }
            }
            Mutation::RegisterUdf { name } => {
                self.engine.catalog_mut().register_udf(name.as_str());
            }
        }
        Ok(None)
    }

    /// The shared body of the two records that create a base table: the
    /// table (prebuilt by the validate stage, or rebuilt from what the
    /// record embeds), its trivial wrapper view, the preview, and the
    /// dataset entry over them.
    fn create_base_dataset(
        &mut self,
        m: &Mutation,
        prebuilt: Option<(Table, IngestReport)>,
        name: DatasetName,
        kind: DatasetKind,
        metadata: Metadata,
        created: SimInstant,
    ) -> Result<Option<IngestReport>> {
        let Some((base_key, source)) = m.base_table() else {
            return Err(Error::Internal("record creates no base table".into()));
        };
        let (table, report) = match prebuilt {
            Some((table, report)) => (table, Some(report)),
            None => source.build(&base_key)?,
        };
        self.engine.create_table(table)?;
        let sql = wrapper_view(&ObjectName(vec![
            name.owner.clone(),
            base_name_part(&name.name),
        ]))
        .to_string();
        self.engine.create_view(&name.flat(), &sql)?;
        let preview = self.compute_preview(&sql).ok();
        self.sync_clock(created);
        self.visibility.insert(name.key(), Visibility::Private);
        self.datasets.insert(
            name.key(),
            Dataset {
                name,
                sql,
                metadata,
                preview,
                kind,
                base_table: Some(base_key),
                created,
            },
        );
        Ok(report)
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

    /// The full durable state as canonical JSON: users, catalog tables
    /// and views, UDFs, datasets, visibility, and generation counters,
    /// all in sorted order, tables and previews as `layout` says. The
    /// digest's input has no previews — they are derived caches — and
    /// the clock is captured separately. This is the only encoder of
    /// durable state; snapshot manifest, replication document, digest
    /// and [`SqlShare::durable_state_json`] all read it.
    fn write_durable_state(&self, w: &mut JsonWriter, layout: StateLayout<'_>) {
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
        let catalog = self.engine.catalog();
        let mut tables: Vec<&Table> = catalog.tables().collect();
        tables.sort_by(|a, b| a.name.cmp(&b.name));
        w.key("tables").begin_array();
        for t in tables {
            let place = match layout {
                StateLayout::Manifest(placed) => {
                    let key = canonical_key(&t.name);
                    let generation = catalog.generation_of(&key);
                    placed.get(&(key, generation)).copied()
                }
                StateLayout::Digest | StateLayout::Replica => None,
            };
            match place {
                Some(r) => persist::write_table_ref(w, &t.name, r),
                None => persist::write_table(w, t),
            }
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
        let previews = matches!(layout, StateLayout::Replica);
        w.key("datasets").begin_array();
        for d in self.datasets.values() {
            persist::write_dataset(w, d, previews);
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

    fn durable_state_string(&self, layout: StateLayout<'_>) -> String {
        let mut w = JsonWriter::new();
        self.write_durable_state(&mut w, layout);
        w.finish()
    }

    /// The durable state as a document: the streamed encoding, parsed.
    pub fn durable_state_json(&self, include_previews: bool) -> Json {
        let layout = if include_previews {
            StateLayout::Replica
        } else {
            StateLayout::Digest
        };
        let state = self.durable_state_string(layout);
        json::parse(&state).expect("the state encoder writes valid JSON")
    }

    /// FNV-64 of the canonical durable state (previews excluded). Two
    /// services with equal digests hold byte-identical durable state —
    /// the recovery differential suite's oracle.
    pub fn durable_digest(&self) -> u64 {
        let state = self.durable_state_string(StateLayout::Digest);
        sqlshare_common::hash::fnv64_str(&state)
    }

    /// Drop everything and rebuild from a snapshot document (`clock`,
    /// `state`) and the segments it names — the whole-state counterpart
    /// of `apply_mutation` — then compute the previews the document does
    /// not carry. The engine's settings stay. Returns where the tables
    /// read from segments are, by (catalog key, generation).
    fn replace_state(
        &mut self,
        doc: &Json,
        segments: &Segments,
    ) -> Result<HashMap<(String, u64), TableRef>> {
        self.engine.clear();
        self.datasets.clear();
        self.visibility.clear();
        self.users.clear();
        self.previews_checked_at = None;
        let at = persist::instant_from_json(persist::field(doc, "clock")?)?;
        *self.clock() = SimClock {
            day: at.day,
            sequence: at.sequence,
        };
        let placed = self.restore_state(persist::field(doc, "state")?, segments)?;
        let missing: Vec<(String, String)> = self
            .datasets
            .iter()
            .filter(|(_, d)| d.preview.is_none())
            .map(|(key, d)| (key.clone(), d.sql.clone()))
            .collect();
        for (key, sql) in missing {
            let preview = self.compute_preview(&sql).ok();
            if let Some(d) = self.datasets.get_mut(&key) {
                d.preview = preview;
            }
        }
        Ok(placed)
    }

    /// Rebuild in-memory state from a snapshot's `state` object, reading
    /// each table inline or from the segment its entry names. Views are
    /// installed raw (no binder validation) so restore order cannot
    /// matter; generations are imported last, overriding the bumps the
    /// rebuild itself caused — except a table's that restored wider than
    /// it was written (a parent version's cells of other types): it gets
    /// a fresh generation, so the previews and results over it are
    /// computed afresh, and it is left out of the returned places, so
    /// the next snapshot writes it as it now is.
    fn restore_state(
        &mut self,
        state: &Json,
        segments: &Segments,
    ) -> Result<HashMap<(String, u64), TableRef>> {
        for u in persist::array_of(state, "users")? {
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
        let mut widened = Vec::new();
        let mut in_segments = Vec::new();
        for entry in persist::array_of(state, "tables")? {
            let place = persist::table_ref_of(entry)?;
            let read;
            let t = match place {
                Some(r) => {
                    read = persist::segment_table(segments, &persist::str_of(entry, "name")?, r)?;
                    &read
                }
                None => entry,
            };
            let table = persist::table_from_json(t)?;
            let key = canonical_key(&table.name);
            if table.schema != persist::schema_from_json(persist::field(t, "schema")?)? {
                widened.push(key);
            } else if let Some(r) = place {
                in_segments.push((key, r));
            }
            self.engine.create_table(table)?;
        }
        for v in persist::array_of(state, "views")? {
            self.engine
                .catalog_mut()
                .set_view(persist::str_of(v, "name")?, persist::str_of(v, "sql")?)?;
        }
        for u in persist::array_of(state, "udfs")? {
            let name = u
                .as_str()
                .ok_or_else(|| Error::Json("snapshot: bad udf".into()))?;
            self.engine.catalog_mut().register_udf(name);
        }
        for d in persist::array_of(state, "datasets")? {
            let ds = persist::dataset_from_json(d)?;
            self.datasets.insert(ds.name.key(), ds);
        }
        for pair in persist::array_of(state, "visibility")? {
            let (key, visibility) = persist::keyed_pair(pair, "visibility")?;
            self.visibility
                .insert(key.to_string(), persist::visibility_from_json(visibility)?);
        }
        let gens = persist::field(state, "generations")?;
        let mut objects = persist::array_of(gens, "objects")?
            .iter()
            .map(persist::generation_pair)
            .collect::<Result<Vec<_>>>()?;
        let mut global = persist::u64_of(gens, "global")?;
        objects.retain(|(key, _)| !widened.contains(key));
        for key in widened {
            global += 1;
            objects.push((key, global));
        }
        let catalog = self.engine.catalog_mut();
        catalog.import_generations(global, objects);
        Ok(in_segments
            .into_iter()
            .map(|(key, r)| {
                let generation = catalog.generation_of(&key);
                ((key, generation), r)
            })
            .collect())
    }

    // ---- internals -----------------------------------------------------

    fn dataset_required(&self, name: &DatasetName) -> Result<&Dataset> {
        self.datasets
            .get(&name.key())
            .ok_or_else(|| Error::Catalog(format!("unknown dataset '{name}'")))
    }

    /// The dataset `name`, which only its owner may `verb`.
    fn owned_dataset(&self, user: &str, name: &DatasetName, verb: &str) -> Result<&Dataset> {
        let ds = self.dataset_required(name)?;
        if !ds.name.owner.eq_ignore_ascii_case(user) {
            return Err(Error::Permission(format!(
                "only the owner may {verb} '{name}'"
            )));
        }
        Ok(ds)
    }

    /// Nothing answers to `name` yet: not a dataset, and nothing in
    /// either of the engine's name spaces under the view name
    /// `owner.name` or — for a dataset that brings a base table — under
    /// `owner.name$base`. This is everything `Catalog::add_table` and
    /// `set_view` would refuse at apply, refused before the journal: a
    /// dataset may be *named* `x$base`, which is also where dataset `x`
    /// keeps its table.
    fn check_name_free(&self, name: &DatasetName, with_base_table: bool) -> Result<()> {
        let catalog = self.engine.catalog();
        let taken =
            |relation: &str| catalog.table(relation).is_ok() || catalog.view(relation).is_some();
        if self.datasets.contains_key(&name.key()) {
            return Err(Error::Catalog(format!("dataset '{name}' already exists")));
        }
        if taken(&name.flat()) || (with_base_table && taken(&base_table_key(name))) {
            return Err(Error::Catalog(format!(
                "the name '{name}' collides with the base table or view of another dataset"
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
            .range::<str, _>((
                std::ops::Bound::Included(prefix.as_str()),
                std::ops::Bound::Unbounded,
            ))
            .take_while(|(key, _)| key.starts_with(&prefix));
        let (mut count, mut bytes) = (0, 0);
        for (_, d) in owned {
            count += 1;
            if let Some(table) = d
                .base_table
                .as_deref()
                .and_then(|b| self.engine.catalog().table(b).ok())
            {
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
    fn qualify(&self, query: &Query, user: &str) -> Query {
        let mut q = query.clone();
        rename_tables(&mut q, &|name: &ObjectName| {
            if name.0.len() == 1 {
                let candidate = format!("{}.{}", user.to_lowercase(), name.0[0].to_lowercase());
                if self.datasets.contains_key(&candidate) {
                    return Some(ObjectName(vec![user.to_string(), name.0[0].clone()]));
                }
            }
            None
        });
        q
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

fn csv_escape(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
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
        self.service.referenced_dataset_keys(&parsed)
    }
}
