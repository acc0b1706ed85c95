//! Multi-level query cache: plan cache, versioned result cache, and
//! hot-view materialization.
//!
//! The paper's workload analysis (§5) shows heavy per-dataset query
//! repetition and deep view-on-view chains re-expanded on every
//! reference; the only reuse mechanism SQLShare offered users was manual
//! snapshot materialization (§3.2). This module automates all three
//! levels of reuse:
//!
//! 1. **Plan cache** — normalized SQL + catalog generation →
//!    `Arc<PreparedQuery>`; repeat submissions skip parse/bind/optimize.
//! 2. **Result cache** — keyed by the plan fingerprint plus the
//!    *generations* of every relation the plan depends on (recorded at
//!    bind time). Any catalog mutation bumps the touched key's
//!    generation, so entries over mutated relations become unreachable
//!    without evicting unrelated tenants' entries. Values live in an LRU
//!    bounded by a byte budget ([`DEFAULT_RESULT_CACHE_MB`] unless the
//!    engine is told otherwise; `0` disables the result cache and hot
//!    views).
//! 3. **Hot-view materialization** — a non-trivial view referenced by
//!    ≥ [`DEFAULT_HOT_VIEW_THRESHOLD`] executed queries gets its result
//!    pinned; the binder splices it into downstream plans as a base-scan
//!    (`Clustered Index Seek` with `cached: true` in EXPLAIN) — the
//!    paper's snapshot semantics, automated.
//!
//! Correctness never depends on *active* invalidation: generations make
//! stale entries unreachable by construction. Explicit invalidation (see
//! [`QueryCache::invalidate_key`]) only reclaims memory early and feeds
//! the invalidation counters.

use crate::schema::Schema;
use crate::value::{Row, Value};
use crate::vector::Batch;
use sqlshare_common::hash::Fnv64;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex};

/// Default result-cache budget in MiB.
pub const DEFAULT_RESULT_CACHE_MB: usize = 64;

/// Default hot-view materialization threshold (executions referencing a
/// view before its result is pinned).
pub const DEFAULT_HOT_VIEW_THRESHOLD: u64 = 3;

/// Upper bound on plan-cache entries. Plans are small relative to
/// results; a simple count cap with LRU eviction suffices.
const PLAN_CACHE_CAPACITY: usize = 512;

/// Key of a cached prepared plan. Everything that can change the plan or
/// the values baked into it at plan time is part of the key: the catalog
/// generation (DDL changes binding), the parallelism configuration (it
/// changes the physical plan), and the evaluation date (GETDATE and
/// plan-time subquery execution bake values into the plan).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PlanKey {
    pub sql: String,
    pub catalog_gen: u64,
    pub max_dop: usize,
    pub threshold_bits: u64,
    pub current_date: i32,
    /// The executor the plan was annotated for (`batchMode` marks differ
    /// between the vectorized engine and the row oracle).
    pub vectorized: bool,
}

/// Key of a cached result: the plan fingerprint, the normalized SQL (kept
/// verbatim so a fingerprint collision can never serve wrong rows), and
/// the generation of every relation the plan reads.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ResultKey {
    pub fingerprint: u64,
    pub sql: String,
    /// Sorted `(canonical key, generation)` pairs.
    pub deps: Vec<(String, u64)>,
}

/// A pinned hot-view result, spliced into downstream plans as a
/// base-scan.
#[derive(Debug)]
pub struct MaterializedView {
    /// The view's bound output schema (pre-requalification).
    pub schema: Schema,
    /// The result, one column per schema column.
    pub batch: Arc<Batch>,
    /// Dependencies of the view's own expansion, with the generations
    /// they were materialized at.
    pub deps: Vec<(String, u64)>,
}

struct CachedResult {
    schema: Schema,
    rows: Arc<Vec<Row>>,
    bytes: usize,
    last_used: u64,
}

struct CachedPlan {
    plan: Arc<crate::engine::PreparedQuery>,
    last_used: u64,
}

/// Counter snapshot for stats endpoints and benchmarks.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct CacheStats {
    pub plan_hits: u64,
    pub plan_misses: u64,
    pub result_hits: u64,
    pub result_misses: u64,
    pub evictions: u64,
    pub invalidations: u64,
    pub materializations: u64,
    pub plan_entries: usize,
    pub result_entries: usize,
    pub result_bytes: usize,
    pub materialized_views: usize,
    /// Executions counted toward hot-view materialization and not yet
    /// spent on one, summed over all views.
    pub view_hits: u64,
}

#[derive(Default)]
struct CacheInner {
    plans: HashMap<PlanKey, CachedPlan>,
    results: HashMap<ResultKey, CachedResult>,
    result_bytes: usize,
    materialized: HashMap<String, Arc<MaterializedView>>,
    /// Executions that referenced each view since its last
    /// (re)materialization or invalidation.
    view_hits: HashMap<String, u64>,
    /// Views judged not worth pinning (trivial single-scan wrappers, or
    /// results over budget) — skipped until the view itself changes.
    rejected: HashSet<String>,
    tick: u64,
    plan_hits: u64,
    plan_misses: u64,
    result_hits: u64,
    result_misses: u64,
    evictions: u64,
    invalidations: u64,
    materializations: u64,
}

/// The shared cache, one per engine lineage (engine clones — service
/// snapshots — share it via `Arc`, so results stored by one snapshot are
/// visible to all and invalidation lands everywhere).
pub struct QueryCache {
    inner: Mutex<CacheInner>,
    /// Result-cache byte budget; 0 disables the result cache and
    /// hot-view materialization.
    result_budget: usize,
    /// Executions referencing a view before it is materialized.
    hot_view_threshold: u64,
    /// When false, the plan cache is off too (differential tests compare
    /// fully cold executions).
    plan_cache_enabled: bool,
}

impl std::fmt::Debug for QueryCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryCache")
            .field("result_budget", &self.result_budget)
            .field("hot_view_threshold", &self.hot_view_threshold)
            .field("plan_cache_enabled", &self.plan_cache_enabled)
            .finish_non_exhaustive()
    }
}

/// [`DEFAULT_RESULT_CACHE_MB`] of results, hot views pinned after
/// [`DEFAULT_HOT_VIEW_THRESHOLD`] executions.
impl Default for QueryCache {
    fn default() -> Self {
        Self::with_config(DEFAULT_RESULT_CACHE_MB, DEFAULT_HOT_VIEW_THRESHOLD)
    }
}

impl QueryCache {
    /// Cache with an explicit result budget (MiB) and hot-view threshold.
    pub fn with_config(result_mb: usize, hot_view_threshold: u64) -> Self {
        QueryCache {
            inner: Mutex::new(CacheInner::default()),
            result_budget: result_mb.saturating_mul(1024 * 1024),
            hot_view_threshold: hot_view_threshold.max(1),
            plan_cache_enabled: true,
        }
    }

    /// A cache with every level disabled (cold-execution reference).
    pub fn disabled() -> Self {
        QueryCache {
            inner: Mutex::new(CacheInner::default()),
            result_budget: 0,
            hot_view_threshold: u64::MAX,
            plan_cache_enabled: false,
        }
    }

    /// A cold cache with this one's configuration.
    pub fn emptied(&self) -> Self {
        QueryCache {
            inner: Mutex::new(CacheInner::default()),
            ..*self
        }
    }

    /// Whether the result cache (and hot-view materialization) is on.
    pub fn results_enabled(&self) -> bool {
        self.result_budget > 0
    }

    /// The result-cache byte budget (0 = disabled).
    pub fn result_budget(&self) -> usize {
        self.result_budget
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, CacheInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Look up a prepared plan; counts a hit or miss.
    pub fn lookup_plan(&self, key: &PlanKey) -> Option<Arc<crate::engine::PreparedQuery>> {
        if !self.plan_cache_enabled {
            return None;
        }
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        match inner.plans.get_mut(key) {
            Some(entry) => {
                entry.last_used = tick;
                let plan = entry.plan.clone();
                inner.plan_hits += 1;
                Some(plan)
            }
            None => {
                inner.plan_misses += 1;
                None
            }
        }
    }

    /// Store a prepared plan, evicting the least-recently-used entry when
    /// over capacity.
    pub fn store_plan(&self, key: PlanKey, plan: Arc<crate::engine::PreparedQuery>) {
        if !self.plan_cache_enabled {
            return;
        }
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        inner.plans.insert(key, CachedPlan { plan, last_used: tick });
        while inner.plans.len() > PLAN_CACHE_CAPACITY {
            let Some(lru) = inner
                .plans
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            inner.plans.remove(&lru);
            inner.evictions += 1;
        }
    }

    /// Look up a cached result; counts a hit or miss.
    pub fn lookup_result(&self, key: &ResultKey) -> Option<(Schema, Arc<Vec<Row>>)> {
        if self.result_budget == 0 {
            return None;
        }
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        match inner.results.get_mut(key) {
            Some(entry) => {
                entry.last_used = tick;
                let out = (entry.schema.clone(), entry.rows.clone());
                inner.result_hits += 1;
                Some(out)
            }
            None => {
                inner.result_misses += 1;
                None
            }
        }
    }

    /// Store a result, evicting least-recently-used entries until the
    /// byte budget holds. Results larger than the whole budget are not
    /// cached.
    pub fn store_result(&self, key: ResultKey, schema: Schema, rows: &[Row]) {
        if self.result_budget == 0 {
            return;
        }
        let bytes = rows_bytes(rows);
        if bytes > self.result_budget {
            return;
        }
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(old) = inner.results.insert(
            key,
            CachedResult {
                schema,
                rows: Arc::new(rows.to_vec()),
                bytes,
                last_used: tick,
            },
        ) {
            inner.result_bytes -= old.bytes;
        }
        inner.result_bytes += bytes;
        while inner.result_bytes > self.result_budget {
            let Some(lru) = inner
                .results
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            if let Some(evicted) = inner.results.remove(&lru) {
                inner.result_bytes -= evicted.bytes;
                inner.evictions += 1;
            }
        }
    }

    /// Record that an executed query referenced `view_key`; returns true
    /// when the view just crossed the hot threshold and has no current
    /// materialization (the caller should materialize it).
    pub fn note_view_hit(&self, view_key: &str) -> bool {
        if self.result_budget == 0 {
            return false;
        }
        let mut inner = self.lock();
        if inner.rejected.contains(view_key) {
            return false;
        }
        let hits = inner.view_hits.entry(view_key.to_string()).or_insert(0);
        *hits += 1;
        *hits >= self.hot_view_threshold && !inner.materialized.contains_key(view_key)
    }

    /// Mark a view as not worth materializing (trivial wrapper over a
    /// single scan, or result larger than the budget). The mark sticks
    /// until the view is invalidated — so a hot trivial view is costed
    /// once, not on every execution.
    pub fn mark_view_rejected(&self, view_key: &str) {
        let mut inner = self.lock();
        inner.view_hits.remove(view_key);
        inner.rejected.insert(view_key.to_string());
    }

    /// Pin a materialized view result.
    pub fn store_materialized(&self, view_key: &str, view: MaterializedView) {
        if self.result_budget == 0 {
            return;
        }
        let mut inner = self.lock();
        inner.materializations += 1;
        inner.materialized.insert(view_key.to_string(), Arc::new(view));
    }

    /// The pinned result for `view_key` if it is still current: every
    /// dependency generation must match the live catalog. A stale pin is
    /// dropped (and the view's hit counter reset, so it must re-earn
    /// materialization against the new contents).
    pub fn materialized(
        &self,
        view_key: &str,
        catalog: &crate::catalog::Catalog,
    ) -> Option<Arc<MaterializedView>> {
        if self.result_budget == 0 {
            return None;
        }
        let mut inner = self.lock();
        let current = match inner.materialized.get(view_key) {
            Some(m) => m
                .deps
                .iter()
                .all(|(k, g)| catalog.generation_of(k) == *g),
            None => return None,
        };
        if current {
            return inner.materialized.get(view_key).cloned();
        }
        inner.materialized.remove(view_key);
        inner.view_hits.remove(view_key);
        None
    }

    /// Evict everything depending on the canonical key `key`: cached
    /// results, materializations, and hot-view counters. Generations
    /// already make these entries unreachable; eviction reclaims memory
    /// immediately and feeds the invalidation counters. Entries that do
    /// NOT depend on `key` are untouched — one tenant's upload no longer
    /// discards everyone else's cache.
    pub fn invalidate_key(&self, key: &str) {
        let mut inner = self.lock();
        let stale: Vec<ResultKey> = inner
            .results
            .keys()
            .filter(|rk| rk.deps.iter().any(|(k, _)| k == key))
            .cloned()
            .collect();
        for rk in stale {
            if let Some(e) = inner.results.remove(&rk) {
                inner.result_bytes -= e.bytes;
                inner.invalidations += 1;
            }
        }
        let stale_mats: Vec<String> = inner
            .materialized
            .iter()
            .filter(|(mk, m)| {
                mk.as_str() == key || m.deps.iter().any(|(k, _)| k == key)
            })
            .map(|(mk, _)| mk.clone())
            .collect();
        for mk in stale_mats {
            inner.materialized.remove(&mk);
            inner.view_hits.remove(&mk);
            inner.invalidations += 1;
        }
        inner.view_hits.remove(key);
        inner.rejected.remove(key);
    }

    /// Counter + occupancy snapshot.
    pub fn stats(&self) -> CacheStats {
        let inner = self.lock();
        CacheStats {
            plan_hits: inner.plan_hits,
            plan_misses: inner.plan_misses,
            result_hits: inner.result_hits,
            result_misses: inner.result_misses,
            evictions: inner.evictions,
            invalidations: inner.invalidations,
            materializations: inner.materializations,
            plan_entries: inner.plans.len(),
            result_entries: inner.results.len(),
            result_bytes: inner.result_bytes,
            materialized_views: inner.materialized.len(),
            view_hits: inner.view_hits.values().sum(),
        }
    }
}

/// Estimated heap footprint of a result set.
pub fn rows_bytes(rows: &[Row]) -> usize {
    rows.iter()
        .map(|r| {
            24 + r
                .iter()
                .map(|v| match v {
                    Value::Text(s) => 24 + s.len(),
                    _ => 16,
                })
                .sum::<usize>()
        })
        .sum()
}

/// Normalize SQL for cache keying: collapse runs of whitespace to one
/// space and strip comments, without touching quoted regions (string
/// literals, bracket/double-quote identifiers). No case folding — two
/// spellings that differ in case may reference different things inside
/// quoted identifiers, and the service already canonicalizes queries.
pub fn normalize_sql(sql: &str) -> String {
    let mut out = String::with_capacity(sql.len());
    let bytes = sql.as_bytes();
    let mut i = 0;
    let mut pending_space = false;
    let push = |out: &mut String, pending: &mut bool, c: char| {
        if *pending && !out.is_empty() {
            out.push(' ');
        }
        *pending = false;
        out.push(c);
    };
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            '\'' | '"' | '`' => {
                // Quoted region: copy verbatim through the closing quote;
                // a doubled quote is an escape.
                push(&mut out, &mut pending_space, c);
                i += 1;
                while i < bytes.len() {
                    let q = bytes[i] as char;
                    out.push(q);
                    i += 1;
                    if q == c {
                        if i < bytes.len() && bytes[i] as char == c {
                            out.push(c);
                            i += 1;
                        } else {
                            break;
                        }
                    }
                }
            }
            '[' => {
                push(&mut out, &mut pending_space, c);
                i += 1;
                while i < bytes.len() {
                    let q = bytes[i] as char;
                    out.push(q);
                    i += 1;
                    if q == ']' {
                        break;
                    }
                }
            }
            '-' if i + 1 < bytes.len() && bytes[i + 1] == b'-' => {
                // Line comment: skip to end of line, acts as whitespace.
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
                pending_space = true;
            }
            '/' if i + 1 < bytes.len() && bytes[i + 1] == b'*' => {
                i += 2;
                while i + 1 < bytes.len() && !(bytes[i] == b'*' && bytes[i + 1] == b'/') {
                    i += 1;
                }
                i = (i + 2).min(bytes.len());
                pending_space = true;
            }
            _ if c.is_ascii_whitespace() => {
                pending_space = true;
                i += 1;
            }
            _ => {
                // Multi-byte UTF-8: copy the full char.
                let ch_len = utf8_len(bytes[i]);
                if ch_len == 1 {
                    push(&mut out, &mut pending_space, c);
                    i += 1;
                } else {
                    let end = (i + ch_len).min(bytes.len());
                    if pending_space && !out.is_empty() {
                        out.push(' ');
                    }
                    pending_space = false;
                    out.push_str(std::str::from_utf8(&bytes[i..end]).unwrap_or(""));
                    i = end;
                }
            }
        }
    }
    out
}

fn utf8_len(b: u8) -> usize {
    match b {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

/// Stable fingerprint over everything that determines a result: the
/// normalized SQL and the execution configuration (DOP and threshold
/// change morsel merge order for floating-point aggregation; the date
/// changes GETDATE and plan-time subqueries).
pub fn fingerprint(normalized_sql: &str, max_dop: usize, threshold_bits: u64, current_date: i32) -> u64 {
    let mut h = Fnv64::new();
    h.write_str(normalized_sql)
        .write_u64(max_dop as u64)
        .write_u64(threshold_bits)
        .write_u64(current_date as u32 as u64);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;

    #[test]
    fn normalize_collapses_whitespace_outside_quotes() {
        assert_eq!(
            normalize_sql("SELECT   x\n FROM\tt"),
            "SELECT x FROM t"
        );
        assert_eq!(
            normalize_sql("SELECT 'a  b' FROM t"),
            "SELECT 'a  b' FROM t"
        );
        assert_eq!(
            normalize_sql("SELECT [my  col] FROM t"),
            "SELECT [my  col] FROM t"
        );
        assert_eq!(
            normalize_sql("SELECT 'it''s  ok' FROM t"),
            "SELECT 'it''s  ok' FROM t"
        );
    }

    #[test]
    fn normalize_strips_comments() {
        assert_eq!(
            normalize_sql("SELECT x -- trailing\nFROM t"),
            "SELECT x FROM t"
        );
        assert_eq!(
            normalize_sql("SELECT /* inline */ x FROM t"),
            "SELECT x FROM t"
        );
        // A comment marker inside a string is literal text.
        assert_eq!(
            normalize_sql("SELECT '--not a comment' FROM t"),
            "SELECT '--not a comment' FROM t"
        );
    }

    #[test]
    fn result_cache_respects_byte_budget_with_lru_eviction() {
        let cache = QueryCache::with_config(1, 3); // 1 MiB
        let wide_row: Row = vec![Value::Text("x".repeat(1024))];
        let rows: Vec<Row> = (0..300).map(|_| wide_row.clone()).collect();
        // Each entry is ~300 KiB; the fourth insert must evict the LRU.
        for i in 0..4u64 {
            let key = ResultKey {
                fingerprint: i,
                sql: format!("q{i}"),
                deps: vec![("t".into(), 1)],
            };
            cache.store_result(key, Schema::new(vec![]), &rows);
        }
        let stats = cache.stats();
        assert!(stats.evictions >= 1, "expected LRU eviction: {stats:?}");
        assert!(stats.result_bytes <= 1024 * 1024);
        // The most recent entry survived.
        assert!(cache
            .lookup_result(&ResultKey {
                fingerprint: 3,
                sql: "q3".into(),
                deps: vec![("t".into(), 1)],
            })
            .is_some());
    }

    #[test]
    fn invalidate_key_evicts_only_dependents() {
        let cache = QueryCache::with_config(4, 3);
        let mk = |fp: u64, dep: &str| ResultKey {
            fingerprint: fp,
            sql: format!("q{fp}"),
            deps: vec![(dep.to_string(), 1)],
        };
        cache.store_result(mk(1, "alice.data"), Schema::new(vec![]), &[vec![Value::Int(1)]]);
        cache.store_result(mk(2, "bob.data"), Schema::new(vec![]), &[vec![Value::Int(2)]]);
        cache.invalidate_key("alice.data");
        assert!(cache.lookup_result(&mk(1, "alice.data")).is_none());
        assert!(
            cache.lookup_result(&mk(2, "bob.data")).is_some(),
            "unrelated entry must survive"
        );
        assert_eq!(cache.stats().invalidations, 1);
    }

    #[test]
    fn disabled_cache_stores_nothing() {
        let cache = QueryCache::with_config(0, 3);
        let key = ResultKey {
            fingerprint: 1,
            sql: "q".into(),
            deps: vec![],
        };
        cache.store_result(key.clone(), Schema::new(vec![]), &[vec![Value::Int(1)]]);
        assert!(cache.lookup_result(&key).is_none());
        assert!(!cache.note_view_hit("v"));
    }
}
