//! Per-layer metrics. The layer walk (pass B) drives ops in-process
//! against a twin service, one span per public call; a few calls that
//! no workload op isolates (a no-op scheduler job, a bare WAL append, a
//! forced snapshot) are timed directly. Everything here is measured
//! from outside the program; spans inside it are a later change.

use crate::ops::{Action, Op, Req};
use crate::stats;
use crate::trace::Tracer;
use sqlshare_common::cancel::CancellationToken;
use sqlshare_common::json::{self, Json};
use sqlshare_core::rest::{self, Method, Request};
use sqlshare_core::SqlShare;
use sqlshare_engine::Engine;
use sqlshare_scheduler::{JobDisposition, Scheduler, SchedulerConfig, SubmitOptions};
use sqlshare_storage::{FsyncPolicy, Wal};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::mpsc;
use std::time::{Duration, Instant};

// Span names of the layer walk: the public function each one times.
pub const DISPATCH_READ: &str = "core::rest::dispatch_read";
pub const DISPATCH: &str = "core::rest::dispatch";
pub const WAIT_FOR_JOB: &str = "core::SqlShare::wait_for_job";
pub const RUN_QUERY: &str = "core::SqlShare::run_query";
pub const UPLOAD: &str = "core::SqlShare::upload";
pub const ENCODE: &str = "common::Json::to_string";
pub const JSON_PARSE: &str = "common::json::parse";
pub const PARSE: &str = "sql::parse_query";
pub const PREPARE: &str = "engine::Engine::prepare";
pub const PREPARE_COLD: &str = "engine::Engine::prepare_uncached";
pub const EXECUTE: &str = "engine::Engine::run_prepared_with_cancel";
pub const EXECUTE_HIT: &str = "engine::Engine::run_prepared_with_cancel(result cached)";
pub const INGEST_TEXT: &str = "ingest::ingest_text";
pub const WAL_APPEND: &str = "storage::Wal::append";

/// Every per-layer metric, with its unit. `BENCHMARK.json` lists the
/// same names; a traced run prints all of them on every workload, 0
/// where the workload does not reach the layer.
pub const METRICS: [(&str, &str); 53] = [
    ("server.ready_rtt_p50_us", "us"),
    ("server.http_overhead_p50_us", "us"),
    ("server.bytes_per_op", "bytes"),
    ("server.shed_count", "count"),
    ("server.reconnects", "count"),
    ("core.dispatch_preview_p50_us", "us"),
    ("core.dispatch_list_p50_us", "us"),
    ("core.dispatch_mutation_p50_us", "us"),
    ("core.run_query_overhead_p50_us", "us"),
    ("core.upload_p50_ms", "ms"),
    ("core.upload_over_ingest_ratio", "ratio"),
    ("core.recover_s", "s"),
    ("core.recover_replayed_records", "count"),
    ("scheduler.dispatch_p50_us", "us"),
    ("scheduler.queue_wait_p50_us", "us"),
    ("scheduler.queue_wait_tail_us", "us"),
    ("scheduler.rejected", "count"),
    ("sql.parse_p50_us", "us"),
    ("engine.prepare_cold_p50_us", "us"),
    ("engine.prepare_cached_p50_us", "us"),
    ("engine.plan_cache_hit_ratio", "ratio"),
    ("engine.exec_scan_agg_p50_ms", "ms"),
    ("engine.exec_group_agg_p50_ms", "ms"),
    ("engine.exec_join_agg_p50_ms", "ms"),
    ("engine.exec_topk_p50_ms", "ms"),
    ("engine.exec_point_p50_us", "us"),
    ("engine.exec_join_agg_dop1_p50_ms", "ms"),
    ("engine.exec_group_agg_dop1_p50_ms", "ms"),
    ("engine.scan_rows_per_s", "1/s"),
    ("engine.result_cache_hit_ratio", "ratio"),
    ("engine.result_cache_hit_p50_us", "us"),
    ("engine.hot_view_splices", "count"),
    ("engine.spill_bytes", "bytes"),
    ("engine.degraded_retries", "count"),
    ("ingest.ingest_text_p50_ms", "ms"),
    ("ingest.mb_per_s", "MB/s"),
    ("storage.wal_append_p50_us", "us"),
    ("storage.fsync_p50_us", "us"),
    ("storage.wal_bytes_per_user_byte", "ratio"),
    ("storage.snapshot_write_p50_ms", "ms"),
    ("storage.snapshot_bytes_per_user_byte", "ratio"),
    ("storage.snapshot_time_share", "ratio"),
    ("storage.disk_bytes_per_live_byte", "ratio"),
    ("storage.mutations", "count"),
    ("storage.snapshots", "count"),
    ("common.json_encode_mb_per_s", "MB/s"),
    ("common.json_parse_mb_per_s", "MB/s"),
    ("proc.cpu_ms_per_op", "ms"),
    ("proc.ctx_switches_per_op", "count"),
    ("proc.threads_peak", "count"),
    ("proc.calib_ms", "ms"),
    ("trace.attributed_share", "ratio"),
    ("trace.overhead_share", "ratio"),
];

/// Per-layer metric values by name, all starting at 0.
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn new() -> Layers {
        Layers(METRICS.iter().map(|(name, _)| (*name, 0.0)).collect())
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("'{name}' is not a per-layer metric"));
        *slot = if value.is_finite() { value } else { 0.0 };
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0[name]
    }
}

pub fn p50(values: &[f64]) -> f64 {
    stats::percentile(&stats::sorted(values.to_vec()), 0.5)
}

/// A generated request as the REST layer takes it.
pub fn request_of(req: &Req) -> Request {
    let method = Method::parse(req.method).expect("benchmark ops use GET, POST and DELETE");
    let body = if req.body.is_empty() {
        Json::Null
    } else {
        json::parse(&req.body).expect("generated bodies are JSON")
    };
    Request {
        method,
        path: req.path.clone(),
        body,
    }
}

/// A read op as the server's worker runs it: dispatch under `&`, then
/// encode the body.
pub fn walk_read(twin: &SqlShare, idx: u32, op: &Op, tracer: &mut Tracer) {
    let Action::One(req) = &op.action else {
        panic!("read ops are single requests");
    };
    let root = tracer.reserve();
    let start = tracer.now_us();
    let request = Request::get(req.path.as_str());
    let response = tracer.span(root, idx, DISPATCH_READ, false, || {
        rest::dispatch_read(twin, &request)
    });
    assert!(
        response.status < 300,
        "layer walk: {} answered {}",
        req.path,
        response.status
    );
    black_box(tracer.span(root, idx, ENCODE, false, || response.body.to_string()));
    tracer.record_as(root, idx, "op", start);
}

/// A mutation op (one or two requests) as the server's worker runs it:
/// parse the body, dispatch under `&mut`, encode the answer.
pub fn walk_mutation(twin: &mut SqlShare, idx: u32, op: &Op, tracer: &mut Tracer) {
    let root = tracer.reserve();
    let start = tracer.now_us();
    let mut one = |req: &Req, tracer: &mut Tracer| {
        let request = tracer.span(root, idx, JSON_PARSE, false, || request_of(req));
        let response = tracer.span(root, idx, DISPATCH, false, || {
            rest::dispatch(twin, &request)
        });
        assert!(
            response.status < 300,
            "layer walk: {} answered {}",
            req.path,
            response.status
        );
        black_box(tracer.span(root, idx, ENCODE, false, || response.body.to_string()));
    };
    match &op.action {
        Action::One(a) => one(a, tracer),
        Action::Two(a, b) => {
            one(a, tracer);
            one(b, tracer);
        }
        Action::Query(_) => panic!("queries are walked by walk_query"),
    }
    tracer.record_as(root, idx, "op", start);
}

/// An engine clone with every cache level off: what a plan miss and a
/// result miss cost, however often the SQL ran before.
pub fn cold_engine(twin: &SqlShare) -> Engine {
    let mut engine = twin.engine().clone();
    engine.disable_cache();
    engine
}

/// Query turnaround on the twin. Children of the root, in order, are
/// what the server's workers do for the three requests: dispatch the
/// submit, wait for the job, dispatch the results, encode them. Then,
/// as replayed children, the public calls those steps are made of —
/// `parse_query`, `Engine::prepare` (cached or cold, whichever the
/// submit met), `Engine::run_prepared_with_cancel` (executed or served
/// from the result cache, whichever the job met) — and, as a root of
/// its own, the synchronous `SqlShare::run_query` over the same SQL
/// with its own replayed children, from which its overhead (permission
/// check, qualification, log push) is read.
pub fn walk_query(twin: &SqlShare, cold: &Engine, idx: u32, op: &Op, tracer: &mut Tracer) {
    let Action::Query(submit) = &op.action else {
        panic!("walk_query takes query ops");
    };
    let request = request_of(submit);
    let user = request
        .body
        .get("user")
        .and_then(Json::as_str)
        .expect("query ops name a user");
    let sql = request
        .body
        .get("sql")
        .and_then(Json::as_str)
        .expect("query ops carry SQL");

    let root = tracer.reserve();
    let start = tracer.now_us();
    let before = twin.cache_stats();
    let (submitted, submit_span) = tracer.span_id(root, idx, DISPATCH_READ, false, || {
        rest::dispatch_read(twin, &request)
    });
    let plan_hit = twin.cache_stats().plan_hits > before.plan_hits;
    let id = submitted
        .body
        .get("id")
        .and_then(Json::as_f64)
        .expect("submit answers an id") as u64;
    let (status, wait_span) = tracer.span_id(root, idx, WAIT_FOR_JOB, false, || {
        twin.wait_for_job(id, Duration::from_secs(60))
    });
    assert!(
        matches!(status, Ok(sqlshare_core::JobStatus::Complete)),
        "layer walk: query {id} ended {status:?}: {sql}"
    );
    let results = Request::get(format!("/api/queries/{id}/results"));
    let response = tracer.span(root, idx, DISPATCH_READ, false, || {
        rest::dispatch_read(twin, &results)
    });
    let result_hit = matches!(response.body.get("cacheHit"), Some(Json::Bool(true)));
    black_box(tracer.span(root, idx, ENCODE, false, || response.body.to_string()));
    tracer.record_as(root, idx, "op", start);

    // Replayed: what the submit and the job were made of.
    let canonical = twin
        .canonicalize(user, sql)
        .expect("query qualified at submit");
    tracer.span(submit_span, idx, PARSE, true, || {
        black_box(sqlshare_sql::parse_query(sql)).is_ok()
    });
    let cold_plan = tracer
        .span(
            if plan_hit { 0 } else { submit_span },
            idx,
            PREPARE_COLD,
            true,
            || cold.prepare_uncached(&canonical),
        )
        .expect("query planned at submit");
    let cached_plan = tracer
        .span(
            if plan_hit { submit_span } else { 0 },
            idx,
            PREPARE,
            true,
            || twin.engine().prepare(&canonical),
        )
        .expect("query planned at submit");
    // A result miss is re-executed on the cache-less clone; a hit is
    // served again from the twin's cache.
    tracer.span(
        if result_hit { 0 } else { wait_span },
        idx,
        EXECUTE,
        true,
        || black_box(cold.run_prepared_with_cancel(&cold_plan, CancellationToken::new())).is_ok(),
    );
    let serve = |tracer: &mut Tracer, parent| {
        tracer.span(parent, idx, EXECUTE_HIT, true, || {
            black_box(
                twin.engine()
                    .run_prepared_with_cancel(&cached_plan, CancellationToken::new()),
            )
            .is_ok()
        })
    };
    serve(tracer, if result_hit { wait_span } else { 0 });

    // The synchronous path, now that plan and result are cached: what
    // is left after parse, cached prepare and cache hit is core's own.
    let (ran, sync_span) = tracer.span_id(0, idx, RUN_QUERY, false, || {
        twin.run_query(user, sql).is_ok()
    });
    assert!(ran, "layer walk: run_query failed: {sql}");
    tracer.span(sync_span, idx, PARSE, true, || {
        black_box(sqlshare_sql::parse_query(sql)).is_ok()
    });
    tracer
        .span(sync_span, idx, PREPARE, true, || {
            twin.engine().prepare(&canonical)
        })
        .expect("query planned at submit");
    serve(tracer, sync_span);
}

// ---- calls timed directly -----------------------------------------------------

/// `Scheduler::submit` of a no-op job until the job starts, on an idle
/// scheduler with the default configuration (µs, median).
pub fn scheduler_dispatch_p50_us() -> f64 {
    let scheduler = Scheduler::new(SchedulerConfig::default());
    let (tx, rx) = mpsc::channel::<Instant>();
    let mut waits = Vec::new();
    for _ in 0..300 {
        let tx = tx.clone();
        let submitted = Instant::now();
        scheduler
            .submit("bench", SubmitOptions::default(), move |_ctx| {
                let _ = tx.send(Instant::now());
                JobDisposition::Completed
            })
            .expect("idle scheduler admits a job");
        let started = rx.recv().expect("no-op job ran");
        waits.push(started.duration_since(submitted).as_secs_f64() * 1e6);
        scheduler.wait_idle(Duration::from_secs(5));
    }
    p50(&waits)
}

/// `Wal::append` of a `record_bytes` record with fsync on every record,
/// and `Wal::sync` alone, on a scratch log in `dir` (µs, medians).
pub fn wal_costs(dir: &Path, record_bytes: usize) -> (f64, f64) {
    let path = dir.join("scratch-wal.log");
    let _ = std::fs::remove_file(&path);
    let payload = vec![b'x'; record_bytes.max(1)];
    let mut appends = Vec::new();
    let mut syncs = Vec::new();
    {
        let mut wal = Wal::open(&path, FsyncPolicy::Always).expect("open scratch wal");
        for _ in 0..100 {
            let t0 = Instant::now();
            wal.append(&payload).expect("scratch wal append");
            appends.push(t0.elapsed().as_secs_f64() * 1e6);
        }
    }
    let _ = std::fs::remove_file(&path);
    {
        // Written but not yet flushed, so that the flush has work to do.
        let mut wal = Wal::open(&path, FsyncPolicy::Off).expect("open scratch wal");
        for _ in 0..100 {
            wal.append(&payload).expect("scratch wal append");
            let t0 = Instant::now();
            wal.sync().expect("scratch wal sync");
            syncs.push(t0.elapsed().as_secs_f64() * 1e6);
        }
    }
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(dir.join("scratch-wal.log.gen"));
    (p50(&appends), p50(&syncs))
}

/// `force_snapshot` on a durable twin (ms, median of five) and the size
/// of the snapshot file it leaves.
pub fn snapshot_cost(twin: &mut SqlShare, dir: &Path) -> (f64, u64) {
    let mut times = Vec::new();
    for _ in 0..5 {
        let t0 = Instant::now();
        twin.force_snapshot()
            .expect("force_snapshot on the durable twin");
        times.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    let newest = std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter(|e| {
                    let name = e.file_name();
                    let name = name.to_string_lossy();
                    name.starts_with("snapshot-") && name.ends_with(".json")
                })
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .max()
                .unwrap_or(0)
        })
        .unwrap_or(0);
    (p50(&times), newest)
}

/// `json::parse` and `Json::to_string` throughput over `bodies` (MB/s
/// of JSON text); 0 when there is nothing to measure.
pub fn json_throughput(bodies: &[&[u8]]) -> (f64, f64) {
    let texts: Vec<&str> = bodies
        .iter()
        .filter_map(|b| std::str::from_utf8(b).ok())
        .collect();
    let bytes: usize = texts.iter().map(|t| t.len()).sum();
    if bytes == 0 {
        return (0.0, 0.0);
    }
    // Enough repetitions to read about 32 MB each way.
    let reps = (32_000_000 / bytes).clamp(1, 2000);
    let t0 = Instant::now();
    let mut docs = Vec::new();
    for _ in 0..reps {
        docs = texts.iter().filter_map(|t| json::parse(t).ok()).collect();
        black_box(&docs);
    }
    let parse_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    for _ in 0..reps {
        for doc in &docs {
            black_box(doc.to_string());
        }
    }
    let encode_s = t0.elapsed().as_secs_f64();
    let mb = (bytes * reps) as f64 / 1e6;
    (mb / parse_s.max(1e-9), mb / encode_s.max(1e-9))
}
