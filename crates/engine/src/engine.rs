//! The engine facade: parse → bind → plan → execute, fronted by the
//! multi-level query cache (see [`crate::cache`]).

use crate::binder::Binder;
use crate::cache::{self, MaterializedView, PlanKey, QueryCache, ResultKey};
use crate::optimizer::{optimize, parallelize};
use crate::catalog::{canonical_key, Catalog};
use crate::exec;
use crate::explain::plan_to_json;
use crate::faults::{FaultPlan, FaultSite};
use crate::functions::EvalContext;
use crate::exec::ExecGuard;
use crate::logical::LogicalPlan;
use crate::memory::{self, MemoryBudget, MemoryPool};
use crate::physical::{plan_physical_with, PhysOp, PhysicalPlan};
use crate::schema::Schema;
use crate::table::Table;
use crate::value::Row;
use crate::vector::Batch;
use sqlshare_common::json::Json;
use sqlshare_common::{CancellationToken, Error, Result};
use sqlshare_sql::ast::Statement;
use sqlshare_sql::parser::{parse_query, parse_statement};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Run `f`, converting any panic it leaks into [`Error::Internal`] — the
/// containment barrier that turns one query's bug (or injected chaos
/// panic) into a per-query failure instead of a process abort.
///
/// `AssertUnwindSafe` is justified by the engine's poisoning discipline:
/// everything `f` can half-mutate is either query-local (dropped on
/// unwind), per-element atomic (the join matched bitmap), or behind the
/// cache's poison-recovering lock whose writes are transactional (a
/// partial result is never inserted — stores happen strictly after a
/// successful execution, outside `f`'s failure window).
fn contain<T>(f: impl FnOnce() -> Result<T>) -> Result<T> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
        .unwrap_or_else(|payload| Err(Error::from_panic(payload)))
}

/// Result of running one query.
#[derive(Debug, Clone)]
pub struct QueryOutput {
    pub schema: Schema,
    pub rows: Vec<Row>,
    pub plan: PhysicalPlan,
    /// Wall-clock execution time (parse + bind + plan + execute).
    pub elapsed_micros: u64,
    /// Whether the rows were served from the result cache.
    pub cache_hit: bool,
    /// Canonical keys of the relations this query read, with the catalog
    /// generations they were read at (the service versions previews with
    /// these).
    pub deps: Vec<(String, u64)>,
    /// Bytes this query spilled to spill files (0 when everything fit in
    /// memory).
    pub spill_bytes: u64,
}

impl QueryOutput {
    /// The Listing-1 JSON plan for this execution.
    pub fn plan_json(&self, query: &str) -> Json {
        plan_to_json(query, &self.plan)
    }
}

/// An in-process relational engine over a [`Catalog`].
#[derive(Debug, Clone)]
pub struct Engine {
    catalog: Catalog,
    ctx: EvalContext,
    /// Upper bound on per-query parallelism, and so on the worker
    /// threads a parallel region runs; 1 disables the parallel executor
    /// entirely.
    max_dop: usize,
    /// Plan cost above which the optimizer considers DOP > 1. Zero or
    /// negative forces parallelism on every eligible plan (test hook).
    parallel_threshold: f64,
    /// Whether queries execute on the vectorized engine
    /// ([`crate::vexec`]); off selects the row interpreter
    /// ([`crate::exec`]), the correctness oracle.
    vectorized: bool,
    /// The multi-level cache, shared across clones of this engine (the
    /// service's worker snapshots populate and consult the same cache).
    cache: Arc<QueryCache>,
    /// Per-query memory budget in bytes (unlimited by default). Each
    /// run gets a fresh [`MemoryBudget`] of this size.
    query_mem_bytes: usize,
    /// Engine-wide memory pool (unlimited by default), shared across
    /// clones so concurrent worker snapshots draw from one budget.
    mem_pool: Arc<MemoryPool>,
    /// Fault-injection schedule, shared across clones so a chaos run
    /// draws one deterministic stream.
    faults: Option<Arc<FaultPlan>>,
    /// Where over-budget joins and sorts spill instead of failing;
    /// `None` makes them fail with `ResourceExhausted`.
    spill_dir: Option<Arc<Path>>,
}

/// A query planned once for later execution: the bound output schema, the
/// parallelized physical plan, and the cache identity (normalized SQL,
/// fingerprint, dependency generations) the result cache is keyed on.
/// The service prepares a query where it runs it — on the worker that
/// picked the job up, against that worker's engine snapshot — and
/// executes this same plan.
#[derive(Debug, Clone)]
pub struct PreparedQuery {
    pub schema: Schema,
    pub plan: PhysicalPlan,
    /// Canonical keys of every relation the plan reads, with the catalog
    /// generation each was bound at (sorted by key).
    pub deps: Vec<(String, u64)>,
    /// Stable hash over the normalized SQL and execution configuration.
    pub fingerprint: u64,
    /// Whitespace/comment-normalized SQL (kept alongside the fingerprint
    /// so a hash collision can never serve wrong rows).
    pub normalized_sql: String,
}

impl PreparedQuery {
    /// The result-cache key for this plan.
    pub fn result_key(&self) -> ResultKey {
        ResultKey {
            fingerprint: self.fingerprint,
            sql: self.normalized_sql.clone(),
            deps: self.deps.clone(),
        }
    }
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

impl Engine {
    /// An empty engine with the default configuration: a DOP cap of the
    /// CPUs this process may run on ([`exec::hardware_threads`],
    /// measured here once), the vectorized executor, a
    /// [`QueryCache::default`] cache, no memory limits, no fault plan,
    /// in-memory tables. Everything else is set by the caller through
    /// the setters below.
    pub fn new() -> Self {
        Engine {
            catalog: Catalog::new(),
            ctx: EvalContext::default(),
            max_dop: exec::hardware_threads(),
            parallel_threshold: crate::cost::PARALLELISM_COST_THRESHOLD,
            vectorized: true,
            cache: Arc::new(QueryCache::default()),
            query_mem_bytes: memory::UNLIMITED,
            mem_pool: Arc::new(MemoryPool::unlimited()),
            faults: None,
            spill_dir: None,
        }
    }

    /// Cap per-query parallelism (like `MAXDOP`); 1 disables it. A
    /// region at DOP n runs up to n worker threads whatever the host
    /// has: a cap above the CPU count oversubscribes them.
    pub fn set_max_dop(&mut self, max_dop: usize) {
        self.max_dop = max_dop.max(1);
    }

    /// Select the vectorized engine (`true`, the default) or the
    /// row-at-a-time interpreter (`false`), which stays alive as the
    /// correctness oracle the differential suites compare against.
    pub fn set_vectorized(&mut self, on: bool) {
        self.vectorized = on;
    }

    /// Whether this engine executes queries on the vectorized engine.
    pub fn vectorized(&self) -> bool {
        self.vectorized
    }

    /// Run a plan on whichever executor this engine is configured for,
    /// holding its rows to the binder's contract: every value has its
    /// column's declared type. A value that does not is a bug, reported
    /// as an internal error on this query.
    fn execute_plan(&self, prepared: &PreparedQuery, guard: &ExecGuard) -> Result<Vec<Row>> {
        let rows = if self.vectorized {
            crate::vexec::execute(&prepared.plan, &self.catalog, &self.ctx, guard)?
        } else {
            exec::execute(&prepared.plan, &self.catalog, &self.ctx, guard)?
        };
        let mut cells = rows.iter().flat_map(|row| row.iter().zip(&prepared.schema.columns));
        match cells.find(|(v, c)| v.data_type().is_some_and(|ty| ty != c.ty)) {
            Some((v, c)) => Err(Error::Internal(format!("column '{}' is {} but holds {v:?}", c.name, c.ty))),
            None => Ok(rows),
        }
    }

    /// An [`ExecGuard`] carrying a fresh per-query [`MemoryBudget`]
    /// drawing on the shared pool, and the fault-injection schedule.
    fn guard(&self, token: Option<CancellationToken>) -> ExecGuard {
        let guard = match token {
            Some(token) => ExecGuard::new(token),
            None => ExecGuard::unbounded(),
        };
        guard
            .with_memory(Arc::new(MemoryBudget::new(
                self.query_mem_bytes,
                Some(Arc::clone(&self.mem_pool)),
            )))
            .with_faults(self.faults.clone())
            .with_spill_dir(self.spill_dir.clone())
    }

    /// Let over-budget joins and sorts spill to files in `dir` (each
    /// unlinked as soon as it is created) instead of failing; `None`
    /// turns spilling off.
    pub fn set_spill_dir(&mut self, dir: Option<PathBuf>) {
        self.spill_dir = dir.map(Arc::from);
    }

    /// Where over-budget joins and sorts spill, if they may.
    pub fn spill_dir(&self) -> Option<&Path> {
        self.spill_dir.as_deref()
    }

    /// Set the per-query memory budget in bytes.
    pub fn set_query_mem_limit(&mut self, bytes: usize) {
        self.query_mem_bytes = bytes.max(1);
    }

    /// Replace the engine-wide memory pool with one of `bytes`. Clones
    /// made before this call keep drawing on the old pool.
    pub fn set_total_mem_limit(&mut self, bytes: usize) {
        self.mem_pool = Arc::new(MemoryPool::new(bytes.max(1)));
    }

    /// Install (or clear) a fault-injection schedule.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.faults = plan.map(Arc::new);
    }

    /// The active fault plan, if any (tests inspect draw counts).
    pub fn fault_plan(&self) -> Option<&Arc<FaultPlan>> {
        self.faults.as_ref()
    }

    /// The engine-wide memory pool (shared across clones).
    pub fn memory_pool(&self) -> &Arc<MemoryPool> {
        &self.mem_pool
    }

    /// The configured parallelism cap (by default the CPU count).
    pub fn max_dop(&self) -> usize {
        self.max_dop
    }

    /// Set the cost threshold above which plans go parallel; <= 0 forces
    /// every eligible plan parallel (the differential harness uses this
    /// to exercise the morsel executor on small tables).
    pub fn set_parallelism_cost_threshold(&mut self, threshold: f64) {
        self.parallel_threshold = threshold;
    }

    // ---- cache configuration -------------------------------------------

    /// Replace the cache with one using an explicit result budget (MiB;
    /// 0 disables results and hot views) and hot-view threshold.
    /// Discards all cached state — this engine (and clones made after
    /// this call) start cold.
    pub fn set_cache_config(&mut self, result_mb: usize, hot_view_threshold: u64) {
        self.cache = Arc::new(QueryCache::with_config(result_mb, hot_view_threshold));
    }

    /// Turn off every cache level (plans included) — the cold-execution
    /// reference configuration used by the differential harness.
    pub fn disable_cache(&mut self) {
        self.cache = Arc::new(QueryCache::disabled());
    }

    /// The shared cache (clones of this engine use the same one).
    pub fn cache(&self) -> &Arc<QueryCache> {
        &self.cache
    }

    /// Cache counters and occupancy.
    pub fn cache_stats(&self) -> cache::CacheStats {
        self.cache.stats()
    }

    // ---- catalog -------------------------------------------------------

    /// Forget every relation and start the cache cold; every setting
    /// above stays. Clones made earlier keep the old catalog and the old
    /// cache, so a query still running on one cannot store a result this
    /// engine would later find under a reused generation.
    pub fn clear(&mut self) {
        self.catalog = Catalog::new();
        self.cache = Arc::new(self.cache.emptied());
    }

    /// Access the catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Mutable access to the catalog. Mutations made through this escape
    /// hatch still bump generation counters (the [`Catalog`] does that
    /// itself), so cached entries over changed relations become
    /// unreachable; they just are not evicted eagerly. Prefer
    /// [`Engine::create_table`] / [`Engine::create_view`] /
    /// [`Engine::drop_relation`], which also reclaim cache memory.
    pub fn catalog_mut(&mut self) -> &mut Catalog {
        &mut self.catalog
    }

    /// Set the simulated "today" used by GETDATE().
    pub fn set_current_date(&mut self, days_since_epoch: i32) {
        self.ctx.current_date = days_since_epoch;
    }

    /// Register a base table.
    pub fn create_table(&mut self, table: Table) -> Result<()> {
        let key = canonical_key(&table.name);
        self.catalog.add_table(table)?;
        self.cache.invalidate_key(&key);
        Ok(())
    }

    /// Register a view after validating that its definition parses and
    /// binds against the current catalog.
    pub fn create_view(&mut self, name: &str, sql: &str) -> Result<()> {
        let query = parse_query(sql)?;
        Binder::new(&self.catalog).bind_query(&query)?;
        let key = canonical_key(name);
        self.catalog.set_view(name, sql)?;
        self.cache.invalidate_key(&key);
        Ok(())
    }

    /// Drop a table or view; returns whether anything was removed. Evicts
    /// every cached result and materialization depending on it.
    pub fn drop_relation(&mut self, name: &str) -> bool {
        let key = canonical_key(name);
        let removed = self.catalog.remove(name);
        if removed {
            self.cache.invalidate_key(&key);
        }
        removed
    }

    // ---- queries -------------------------------------------------------

    /// Validate a query without executing it; returns its output schema.
    pub fn check(&self, sql: &str) -> Result<Schema> {
        let query = parse_query(sql)?;
        let plan = Binder::new(&self.catalog).bind_query(&query)?;
        Ok(plan.schema().clone())
    }

    /// Produce the physical plan (EXPLAIN). Uncorrelated subqueries are
    /// executed during planning, as in the real system's plan generation.
    /// Hot-view splices show up here exactly as they will execute
    /// (`Clustered Index Seek` with `cached: true`).
    pub fn explain(&self, sql: &str) -> Result<PhysicalPlan> {
        let normalized = cache::normalize_sql(sql);
        contain(|| self.prepare_cold(sql, normalized, &self.guard(None), true, None, self.max_dop))
            .map(|prepared| prepared.plan)
    }

    /// The degree of parallelism the optimizer would run `sql` at — the
    /// maximum `degreeOfParallelism` over the plan's exchange operators,
    /// 1 for serial plans and for queries that fail to plan.
    pub fn plan_dop(&self, sql: &str) -> usize {
        self.explain(sql).map(|p| p.max_parallelism()).unwrap_or(1)
    }

    /// Run a query end to end.
    pub fn run(&self, sql: &str) -> Result<QueryOutput> {
        self.run_guarded(sql, &self.guard(None), self.max_dop)
    }

    /// Run a query end to end, polling `token` as rows are processed.
    /// When the token trips, execution unwinds within ~a few thousand
    /// rows with the token's error ([`Error::Timeout`] or
    /// [`Error::Cancelled`]).
    pub fn run_with_cancel(&self, sql: &str, token: CancellationToken) -> Result<QueryOutput> {
        self.run_guarded(sql, &self.guard(Some(token)), self.max_dop)
    }

    /// Parse, bind, optimize, and plan `sql`, consulting the plan cache
    /// (keyed by normalized SQL, catalog generation, parallelism
    /// configuration, and evaluation date). Uncorrelated subqueries are
    /// executed during planning, as in [`Engine::explain`].
    pub fn prepare(&self, sql: &str) -> Result<Arc<PreparedQuery>> {
        self.prepare_guarded(sql, &self.guard(None), self.max_dop)
    }

    /// Plan `sql` bypassing the plan cache and hot-view splicing — always
    /// a cold bind against the live catalog (tests compare this against
    /// the cached path).
    pub fn prepare_uncached(&self, sql: &str) -> Result<PreparedQuery> {
        let normalized = cache::normalize_sql(sql);
        contain(|| self.prepare_cold(sql, normalized, &self.guard(None), false, None, self.max_dop))
    }

    /// Execute a previously [`Engine::prepare`]d plan, polling `token`.
    /// The catalog must be the one the query was prepared against (the
    /// service prepares and executes on the same immutable snapshot).
    /// Serves the result cache when it holds current rows for the plan.
    pub fn run_prepared_with_cancel(
        &self,
        prepared: &PreparedQuery,
        token: CancellationToken,
    ) -> Result<QueryOutput> {
        let guard = self.guard(Some(token));
        self.execute_prepared(prepared, &guard, Instant::now())
    }

    /// Degraded execution for the service's retry of a memory-killed
    /// query: serial (DOP 1 — no morsel materialization, no parallel
    /// build duplication) with every cache level bypassed (no result
    /// store, no hot-view splices), under a fresh memory budget. If even
    /// this minimal footprint exceeds the budget, the query's answer
    /// genuinely does not fit and the error stands.
    pub fn run_degraded_with_cancel(
        &self,
        sql: &str,
        token: CancellationToken,
    ) -> Result<QueryOutput> {
        let started = Instant::now();
        let guard = self.guard(Some(token));
        let normalized = cache::normalize_sql(sql);
        let prepared = contain(|| self.prepare_cold(sql, normalized, &guard, false, None, 1))?;
        self.execute_uncached(prepared, &guard, started)
    }

    /// The first `limit` rows of `sql`, for previews: the query is
    /// planned under a `TOP limit`, which the planner pushes into the
    /// scans wherever nothing between drops or reorders rows, so a
    /// preview of a wrapper view reads `limit` rows however large the
    /// table. A preview is the service's bookkeeping, not a user's query:
    /// it is not stored in the plan or result cache and does not count
    /// toward hot-view materialization (pinned hot views are still read).
    pub fn run_head(&self, sql: &str, limit: u64) -> Result<QueryOutput> {
        let started = Instant::now();
        let guard = self.guard(None);
        let normalized = cache::normalize_sql(sql);
        let prepared = contain(|| {
            self.prepare_cold(sql, normalized, &guard, true, Some(limit), self.max_dop)
        })?;
        self.execute_uncached(prepared, &guard, started)
    }

    /// Execute a plan with every result-side cache effect off: nothing
    /// looked up, nothing stored, no view heat.
    fn execute_uncached(
        &self,
        prepared: PreparedQuery,
        guard: &ExecGuard,
        started: Instant,
    ) -> Result<QueryOutput> {
        let rows = contain(|| {
            let rows = self.execute_plan(&prepared, guard)?;
            guard.charge(cache::rows_bytes(&rows))?;
            Ok(rows)
        })?;
        Ok(QueryOutput {
            schema: prepared.schema,
            rows,
            plan: prepared.plan,
            elapsed_micros: started.elapsed().as_micros() as u64,
            cache_hit: false,
            deps: prepared.deps,
            spill_bytes: guard.spill_bytes(),
        })
    }

    /// Run a query at a fixed degree of parallelism, overriding the
    /// engine's `max_dop` for this call (the cost threshold still
    /// applies; pair with [`Engine::set_parallelism_cost_threshold`] to
    /// force parallel plans).
    pub fn run_with_dop(&self, sql: &str, dop: usize) -> Result<QueryOutput> {
        self.run_guarded(sql, &self.guard(None), dop)
    }

    fn plan_key(&self, normalized_sql: &str, max_dop: usize) -> PlanKey {
        PlanKey {
            sql: normalized_sql.to_string(),
            catalog_gen: self.catalog.generation(),
            max_dop,
            threshold_bits: self.parallel_threshold.to_bits(),
            current_date: self.ctx.current_date,
            vectorized: self.vectorized,
        }
    }

    fn prepare_guarded(
        &self,
        sql: &str,
        guard: &ExecGuard,
        max_dop: usize,
    ) -> Result<Arc<PreparedQuery>> {
        let normalized = cache::normalize_sql(sql);
        let key = self.plan_key(&normalized, max_dop);
        if let Some(plan) = self.cache.lookup_plan(&key) {
            return Ok(plan);
        }
        // Planning executes uncorrelated subqueries, so it sits under the
        // same containment barrier as execution; a panicking plan is a
        // failed query, and nothing is stored in the plan cache.
        let prepared = Arc::new(contain(|| {
            self.prepare_cold(sql, normalized, guard, true, None, max_dop)
        })?);
        self.cache.store_plan(key, Arc::clone(&prepared));
        Ok(prepared)
    }

    /// The planning pipeline, written once: `explain`, `prepare`,
    /// `run_head`, the degraded retry and hot-view materialization all
    /// plan through here (DESIGN §4.12 lists what each passes). `splice`
    /// controls whether pinned hot-view materializations replace view
    /// expansions; `head` plans the query under a `TOP head`; `max_dop`
    /// caps the plan's parallelism (1 = serial).
    fn prepare_cold(
        &self,
        sql: &str,
        normalized_sql: String,
        guard: &ExecGuard,
        splice: bool,
        head: Option<u64>,
        max_dop: usize,
    ) -> Result<PreparedQuery> {
        let statement = parse_statement(sql)?;
        let query = match statement {
            Statement::Select(q) => q,
            Statement::Unsupported(kind) => {
                return Err(Error::Permission(format!(
                    "{kind} statements are not allowed: SQLShare datasets are \
                     read-only; create a new dataset (view) instead"
                )))
            }
        };
        let mut binder = if splice {
            Binder::with_cache(&self.catalog, &self.cache)
        } else {
            Binder::new(&self.catalog)
        };
        let logical = binder.bind_query(&query)?;
        let deps = binder
            .into_deps()
            .into_iter()
            .map(|k| {
                let g = self.catalog.generation_of(&k);
                (k, g)
            })
            .collect();
        let schema = logical.schema().clone();
        let mut logical = optimize(logical);
        if let Some(quantity) = head {
            logical = LogicalPlan::Top {
                input: Box::new(logical),
                quantity,
                percent: false,
            };
        }
        let plan = plan_physical_with(&logical, &self.catalog, &self.ctx, guard)?;
        let mut plan = parallelize(plan, max_dop, self.parallel_threshold);
        if self.vectorized {
            crate::vexec::annotate_batch_mode(&mut plan);
        }
        let fingerprint = cache::fingerprint(
            &normalized_sql,
            max_dop,
            self.parallel_threshold.to_bits(),
            self.ctx.current_date,
        );
        Ok(PreparedQuery {
            schema,
            plan,
            deps,
            fingerprint,
            normalized_sql,
        })
    }

    /// Execute a prepared plan through the result cache: serve cached
    /// rows on a hit; on a miss execute, cache the result, and advance
    /// the hot-view counters (materializing views that just crossed the
    /// threshold).
    fn execute_prepared(
        &self,
        prepared: &PreparedQuery,
        guard: &ExecGuard,
        started: Instant,
    ) -> Result<QueryOutput> {
        let key = prepared.result_key();
        if let Some((schema, rows)) = self.cache.lookup_result(&key) {
            // A hit still signals view popularity: repeated identical
            // queries must heat their views like distinct ones do, so
            // future (uncached) queries over the view get the splice.
            self.note_view_hits(prepared);
            return Ok(QueryOutput {
                schema,
                rows: rows.as_ref().clone(),
                plan: prepared.plan.clone(),
                elapsed_micros: started.elapsed().as_micros() as u64,
                cache_hit: true,
                deps: prepared.deps.clone(),
                spill_bytes: 0,
            });
        }
        let rows = contain(|| {
            let rows = self.execute_plan(prepared, guard)?;
            // Result assembly: the gathered output is the query's last
            // allocation; charge it before it can reach the cache.
            guard.charge(cache::rows_bytes(&rows))?;
            // Chaos checkpoint for the insertion that follows. A fault
            // here fails the query with *nothing* stored — partial or
            // failed results never enter the cache.
            guard.fault(FaultSite::CacheInsert)?;
            Ok(rows)
        })?;
        self.cache.store_result(key, prepared.schema.clone(), &rows);
        self.note_view_hits(prepared);
        Ok(QueryOutput {
            schema: prepared.schema.clone(),
            rows,
            plan: prepared.plan.clone(),
            elapsed_micros: started.elapsed().as_micros() as u64,
            cache_hit: false,
            deps: prepared.deps.clone(),
            spill_bytes: guard.spill_bytes(),
        })
    }

    /// Advance the hot-view counter of every view this execution read;
    /// materialize the ones that just crossed the threshold.
    fn note_view_hits(&self, prepared: &PreparedQuery) {
        if !self.cache.results_enabled() {
            return;
        }
        for (key, _) in &prepared.deps {
            if self.catalog.view(key).is_none() {
                continue;
            }
            if self.cache.note_view_hit(key) {
                self.materialize_view(key);
            }
        }
    }

    /// Pin a hot view's result for splicing into downstream plans. Runs
    /// the view on this engine's own executor *serially*, so the pinned
    /// rows are the canonical serial answer (parallel floating-point
    /// merge order must not leak into every downstream consumer).
    /// Trivial wrapper views (a bare scan after optimization) and results
    /// over the cache budget are marked rejected instead, so they are
    /// costed once, not per execution.
    fn materialize_view(&self, key: &str) {
        let Some(view) = self.catalog.view(key) else {
            return;
        };
        let sql = view.sql.clone();
        let outcome = contain(|| -> Result<Option<MaterializedView>> {
            let guard = self.guard(None);
            let normalized = cache::normalize_sql(&sql);
            let prepared = self.prepare_cold(&sql, normalized, &guard, false, None, 1)?;
            if matches!(prepared.plan.op, PhysOp::Scan { .. }) {
                return Ok(None);
            }
            let batch = if self.vectorized {
                crate::vexec::exec_node(&prepared.plan, &self.catalog, &self.ctx, &guard)?
            } else {
                let rows = exec::execute(&prepared.plan, &self.catalog, &self.ctx, &guard)?;
                Batch::from_rows(&rows, &prepared.schema.types())
            };
            if cache::rows_bytes(&batch.to_rows()) > self.cache.result_budget() {
                return Ok(None);
            }
            Ok(Some(MaterializedView {
                batch: Arc::new(batch),
                schema: prepared.schema,
                deps: prepared.deps,
            }))
        });
        match outcome {
            Ok(Some(mat)) => self.cache.store_materialized(key, mat),
            // Transient failures (a contained panic, memory pressure, a
            // tripped token — injected or real) must not poison the
            // view's standing: a *partial* materialization is dropped on
            // the floor, never pinned, and the next threshold crossing
            // retries cleanly.
            Err(
                Error::Internal(_)
                | Error::ResourceExhausted(_)
                | Error::Cancelled(_)
                | Error::Timeout(_),
            ) => {}
            // Not worth pinning (trivial or oversized) or unable to
            // evaluate (a deterministic runtime error would just recur)
            // — don't re-attempt until the view changes.
            Ok(None) | Err(_) => self.cache.mark_view_rejected(key),
        }
    }

    fn run_guarded(&self, sql: &str, guard: &ExecGuard, max_dop: usize) -> Result<QueryOutput> {
        let started = Instant::now();
        let prepared = self.prepare_guarded(sql, guard, max_dop)?;
        self.execute_prepared(&prepared, guard, started)
    }
}
