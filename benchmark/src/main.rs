//! The repo benchmark. One command per workload:
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload browse|adhoc|replay|ingest --seed N --seconds S --trace 0|1
//! ```
//!
//! starts the real epoll server in-process, drives it over loopback
//! keep-alive HTTP with a fixed, seed-derived op list, checks the
//! answers, prints every metric by name and unit and, as the last line
//! of standard output, one JSON object. `--trace 1` is a separate run
//! that gives the per-layer metrics. See `benchmark/README.md`.

mod aa;
mod http;
mod layers;
mod ops;
mod procfs;
mod rng;
mod stats;
mod trace;
mod workloads;

use layers::Layers;
use ops::{drive, Action, Pass};
use sqlshare_core::rest;
use sqlshare_server::{HttpConfig, ServerHandle};
use std::path::PathBuf;
use std::time::Instant;
use workloads::{Check, Workload};

/// Where the benchmark writes: data directories and the span files.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Complete set-ups per timed run; `setup_s` is their median.
const SETUPS: usize = 3;
/// The traced run replays this fraction of the op list, three times:
/// untraced, traced, and as the in-process layer walk.
const TRACE_FRACTION: usize = 5;
/// `--quick` divides the op count by this.
const QUICK_DIVISOR: usize = 50;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub quick: bool,
    pub aa: Option<usize>,
}

fn usage() -> ! {
    eprintln!(
        "usage: --workload <{}> --seed <n> --seconds <n> --trace <0|1> [--quick] [--aa <runs>]",
        workloads::NAMES.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 24,
        trace: false,
        quick: false,
        aa: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => args.workload = value(),
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => args.trace = value() == "1",
            "--aa" => args.aa = Some(value().parse().unwrap_or_else(|_| usage())),
            "--quick" => args.quick = true,
            _ => usage(),
        }
    }
    let known = workloads::NAMES.contains(&args.workload.as_str());
    if !(known || args.aa.is_some() && args.workload.is_empty()) || args.seconds == 0 {
        usage();
    }
    args
}

/// The fixed op count of a run: whole segments.
fn op_count(args: &Args) -> usize {
    let sizing = workloads::sizing(&args.workload);
    let divisor = if args.quick { QUICK_DIVISOR } else { 1 };
    let full = sizing.ops_per_budget_second * args.seconds as f64 / divisor as f64;
    let segments = (full / sizing.segment_ops as f64).round().max(1.0) as usize;
    segments * sizing.segment_ops
}

fn print_header(args: &Args, workload: &dyn Workload) {
    let cores = workloads::client_threads();
    println!(
        "workload {} seed {} seconds {} trace {} quick {}",
        args.workload, args.seed, args.seconds, args.trace as u8, args.quick
    );
    println!(
        "closed loop: {} client thread(s) on {cores} core(s), {} ops, primary op kind '{}'",
        workload.clients(),
        workload.ops().len(),
        workload.kinds()[workload.primary() as usize]
    );
    println!("inputs_digest {:016x}", workload.inputs_digest());
    // Every SQLSHARE_* variable was removed: these are the defaults.
    println!("http {:?}", HttpConfig::default());
    println!("scheduler {:?}", sqlshare_core::SchedulerConfig::default());
    let engine = sqlshare_engine::Engine::new();
    println!(
        "engine max_dop {} vectorized {} result_cache_bytes {}",
        engine.max_dop(),
        engine.vectorized(),
        engine.cache().result_budget()
    );
    for line in workload.describe() {
        println!("{line}");
    }
}

fn print_kinds(workload: &dyn Workload, pass: &Pass) {
    for (k, name) in workload.kinds().iter().enumerate() {
        let lat = pass.latencies_ms(workload.ops(), k as u8);
        if lat.is_empty() {
            continue;
        }
        let tail = stats::tail(&lat);
        println!(
            "  kind {name:<10} n {:>7}  p50 {:>9.3} ms  p{} {:>9.3} ms  max {:>9.3} ms",
            lat.len(),
            stats::percentile(&lat, 0.5),
            tail.pct,
            tail.value,
            lat.last().copied().unwrap_or(0.0)
        );
    }
}

fn print_checks(checks: &[Check]) -> bool {
    for check in checks {
        println!(
            "check [{}] {}",
            if check.ok { "ok" } else { "FAILED" },
            check.what
        );
    }
    checks.iter().all(|c| c.ok)
}

/// The last line of standard output.
fn print_result(correct: bool, attempted: usize, failed: u64, metrics: &[(&str, f64, &str)]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

/// The timed run: tracing off, the five end-to-end metrics.
///
/// A slow spell of the host lasts from a fraction of a second to
/// minutes and only ever makes the program slower. So the timed phase
/// is cut into segments of equal work, throughput and latency are taken
/// per segment, and the run reports the quartile on the undisturbed
/// side: the upper quartile of the segments' throughputs, the lower
/// quartile of their median and tail latencies. A regression of the
/// program moves every segment and with it the quartile; a slow spell
/// moves only the segments it covers.
fn run_timed(args: &Args, process_start: Instant) {
    let n_ops = op_count(args);
    let segment_ops = workloads::sizing(&args.workload).segment_ops;
    let mut workload = workloads::make(&args.workload, args.seed, n_ops);
    let server = workload.start();
    let mut setups = vec![process_start.elapsed().as_secs_f64()];
    print_header(args, workload.as_ref());
    println!(
        "proc.calib_ms {:.1} ms (fixed spin; compare across runs)",
        procfs::calib_ms()
    );

    let n = workload.ops().len();
    let pass = drive(
        server.addr(),
        workload.ops(),
        0..n,
        workload.clients(),
        None,
    );
    // Before the checks and the other set-ups: the oracle, the reopened
    // twin and a second copy of the inputs are the benchmark's memory,
    // not the program's.
    let rss_peak_mb = procfs::rss_peak_mb();
    let failed = pass.failed();
    println!(
        "timed phase: {:.2} s wall, ops attempted {n}, ops failed {failed}, {:.3} ops/s overall",
        pass.wall_s,
        pass.ops_per_s()
    );
    print_kinds(workload.as_ref(), &pass);
    let primary = workload.kinds()[workload.primary() as usize];
    let segments = pass.segments(workload.ops(), workload.primary(), segment_ops);
    let samples: usize = segments.iter().map(|s| s.latencies_ms.len()).sum();
    // The tail percentile is taken per segment, so a segment's samples
    // must support it: at least ten beyond it in every segment, or p90.
    let fewest = segments
        .iter()
        .map(|s| s.latencies_ms.len())
        .min()
        .unwrap_or(0);
    let pct = stats::tail_pct(fewest);
    let rates: Vec<f64> = segments.iter().map(|s| s.ops_per_s).collect();
    let latency_at = |p: f64| -> Vec<f64> {
        segments
            .iter()
            .map(|s| stats::percentile(&s.latencies_ms, p))
            .collect()
    };
    let (p50s, tails) = (latency_at(0.5), latency_at(f64::from(pct) / 100.0));
    println!(
        "segments: {} of {segment_ops} ops, {samples} '{primary}' samples, at least {fewest} a \
         segment: p{pct} has {} beyond it in each",
        segments.len(),
        stats::beyond(fewest, pct)
    );
    println!("  ops/s per segment       {rates:.1?}");
    println!("  p50 ms per segment      {p50s:.3?}");
    println!("  p{pct} ms per segment      {tails:.3?}");
    let [_, _, ops_per_s] = stats::quartiles(&rates);
    let [p50_ms, _, _] = stats::quartiles(&p50s);
    let [tail_ms, _, _] = stats::quartiles(&tails);

    let checks = workload.verify(server, &pass);
    workload.cleanup();
    drop(workload);
    let correct = print_checks(&checks);

    // `setup_s` is the median of several complete set-ups. The first ran
    // from process start to the first timed op; the others run now, so
    // that what they leave in the allocator does not count towards the
    // peak RSS read above.
    for _ in 1..SETUPS {
        let started = Instant::now();
        let mut again = workloads::make(&args.workload, args.seed, n_ops);
        let server = again.start();
        setups.push(started.elapsed().as_secs_f64());
        server.shutdown();
        again.cleanup();
    }
    let setup_s = stats::median(&setups);

    println!(
        "setup_s          {setup_s:.4} s   (median of {} set-ups: {setups:.3?})",
        setups.len()
    );
    println!(
        "ops_per_s        {ops_per_s:.3} 1/s (ops of every kind; upper quartile of {} segments)",
        segments.len()
    );
    println!(
        "primary_p50_ms   {p50_ms:.4} ms  ('{primary}'; lower quartile of the segments' medians)"
    );
    println!(
        "primary_tail_ms  {tail_ms:.4} ms  ('{primary}' p{pct}; lower quartile of the segments' p{pct})"
    );
    println!("rss_peak_mb      {rss_peak_mb:.2} MiB (VmHWM when the timed phase ended)");
    print_result(
        correct,
        n,
        failed,
        &[
            ("setup_s", setup_s, "s"),
            ("ops_per_s", ops_per_s, "1/s"),
            ("primary_p50_ms", p50_ms, "ms"),
            ("primary_tail_ms", tail_ms, "ms"),
            ("rss_peak_mb", rss_peak_mb, "MiB"),
        ],
    );
}

/// Read the counters of the live service into `layers` after the
/// passes; returns its last LSN and what `/api/ready` costs in-process
/// (dispatch and encode; µs, median).
fn read_service(server: &ServerHandle, layers: &mut Layers) -> (u64, f64) {
    server.with_service(|service| {
        let cache = service.cache_stats();
        let ratio = |hits: u64, misses: u64| hits as f64 / (hits + misses).max(1) as f64;
        layers.set(
            "engine.plan_cache_hit_ratio",
            ratio(cache.plan_hits, cache.plan_misses),
        );
        layers.set(
            "engine.result_cache_hit_ratio",
            ratio(cache.result_hits, cache.result_misses),
        );
        let totals = service.scheduler_stats().totals;
        layers.set("scheduler.rejected", totals.rejected as f64);
        layers.set("engine.degraded_retries", totals.degraded_retries as f64);
        let log = service.log();
        let entries = log.entries();
        let waits = stats::sorted(
            entries
                .iter()
                .filter(|e| e.queue_wait_micros > 0)
                .map(|e| e.queue_wait_micros as f64)
                .collect(),
        );
        layers.set(
            "scheduler.queue_wait_p50_us",
            stats::percentile(&waits, 0.5),
        );
        layers.set("scheduler.queue_wait_tail_us", stats::tail(&waits).value);
        let spill: u64 = entries.iter().map(|e| e.spill_bytes).sum();
        layers.set("engine.spill_bytes", spill as f64);
        let splices: usize = entries
            .iter()
            .filter_map(|e| e.plan_json.as_ref())
            .map(|plan| plan.to_string().matches("\"cached\":true").count())
            .sum();
        layers.set("engine.hot_view_splices", splices as f64);
        let ready = rest::Request::get("/api/ready");
        let ready_times: Vec<f64> = (0..300)
            .map(|_| {
                let t0 = Instant::now();
                std::hint::black_box(rest::dispatch_read(service, &ready).body.to_string());
                t0.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        (service.last_lsn(), layers::p50(&ready_times))
    })
}

/// The traced run: an untraced and a traced pass over HTTP, the layer
/// walk on a twin, the calls timed directly; the per-layer metrics.
fn run_traced(args: &Args) {
    let mut workload = workloads::make(&args.workload, args.seed, op_count(args));
    let server = workload.start();
    print_header(args, workload.as_ref());
    let mut layers = Layers::new();
    layers.set("proc.calib_ms", procfs::calib_ms());

    // Whole rounds (adhoc) and steps (ingest) only: one op of each kind.
    let kinds = workload.kinds();
    let m = (workload.ops().len() / TRACE_FRACTION / kinds.len()).max(1) * kinds.len();
    let clients = workload.clients();
    let primary = workload.primary();
    let kind_of = |name: &str| kinds.iter().position(|k| *k == name).map(|k| k as u8);

    let wal_path = server.with_service(|s| s.wal_path());
    let generation = || {
        wal_path
            .as_deref()
            .map_or(0, sqlshare_storage::wal_generation)
    };
    let untraced = drive(server.addr(), workload.ops(), 0..m, clients, None);
    let (lsn_before, generation_before) = (server.with_service(|s| s.last_lsn()), generation());
    let epoch = Instant::now();
    let traced = drive(
        server.addr(),
        workload.ops(),
        m..2 * m,
        clients,
        Some(epoch),
    );
    let (lsn_after, ready_inproc_us) = read_service(&server, &mut layers);
    layers.set("storage.mutations", (lsn_after - lsn_before) as f64);
    layers.set(
        "storage.snapshots",
        (generation() - generation_before) as f64,
    );
    println!(
        "pass U (untraced, ops 0..{m}): {:.2} s, {:.1} ops/s, failed {}",
        untraced.wall_s,
        untraced.ops_per_s(),
        untraced.failed()
    );
    println!(
        "pass A (traced, ops {m}..{}): {:.2} s, {:.1} ops/s, failed {}",
        2 * m,
        traced.wall_s,
        traced.ops_per_s(),
        traced.failed()
    );
    print_kinds(workload.as_ref(), &traced);

    // The front end alone: GET /api/ready over HTTP, one client.
    let mut client = http::Client::new(server.addr());
    let ready_rtts: Vec<f64> = (0..1000)
        .map(|_| {
            let t0 = Instant::now();
            let ok = client.get("/api/ready").is_ok_and(|r| r.ok());
            assert!(ok, "GET /api/ready failed");
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    let ready_rtt = layers::p50(&ready_rtts);
    let frontend_us = (ready_rtt - ready_inproc_us).max(0.0);
    workload.pass_metrics(&traced, &mut layers);
    let failed = untraced.failed() + traced.failed();
    // The checks see both passes: they left one state behind.
    let checks = workload.verify(server, &untraced.joined(&traced));

    // Pass B: the layer walk.
    let mut tracer = trace::Tracer::new(epoch, 'B', 63 << 26);
    let walk_started = Instant::now();
    workload.walk(m..2 * m, &mut tracer, &mut layers);
    println!(
        "pass B (layer walk, ops {m}..{}): {:.2} s",
        2 * m,
        walk_started.elapsed().as_secs_f64()
    );
    let spans = tracer.spans;
    let ops = workload.ops();
    let of_kind = |name: &str, kind: Option<u8>| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name && kind.is_none_or(|k| ops[s.op as usize].kind == k))
            .map(trace::Span::micros)
            .collect()
    };
    let p50_us =
        |pass: &Pass, kind: u8| stats::percentile(&pass.latencies_ms(ops, kind), 0.5) * 1e3;

    let p50_of = |name: &str, kind: Option<u8>| layers::p50(&of_kind(name, kind));

    // Medians of walked spans: every op kind, then one op kind (µs ÷ scale).
    for (metric, span) in [
        ("sql.parse_p50_us", layers::PARSE),
        ("engine.prepare_cold_p50_us", layers::PREPARE_COLD),
        ("engine.prepare_cached_p50_us", layers::PREPARE),
        ("engine.result_cache_hit_p50_us", layers::EXECUTE_HIT),
    ] {
        layers.set(metric, p50_of(span, None));
    }
    for (metric, span, kind, scale) in [
        (
            "core.dispatch_preview_p50_us",
            layers::DISPATCH_READ,
            "preview",
            1.0,
        ),
        (
            "core.dispatch_list_p50_us",
            layers::DISPATCH_READ,
            "list",
            1.0,
        ),
        (
            "core.dispatch_mutation_p50_us",
            layers::DISPATCH,
            "toggle",
            1.0,
        ),
        (
            "engine.exec_scan_agg_p50_ms",
            layers::EXECUTE,
            "scan_agg",
            1e3,
        ),
        (
            "engine.exec_group_agg_p50_ms",
            layers::EXECUTE,
            "group_agg",
            1e3,
        ),
        (
            "engine.exec_join_agg_p50_ms",
            layers::EXECUTE,
            "join_agg",
            1e3,
        ),
        ("engine.exec_topk_p50_ms", layers::EXECUTE, "topk", 1e3),
        ("engine.exec_point_p50_us", layers::EXECUTE, "point", 1.0),
    ] {
        if let Some(kind) = kind_of(kind) {
            layers.set(metric, p50_of(span, Some(kind)) / scale);
        }
    }
    let scan_ms = layers.get("engine.exec_scan_agg_p50_ms");
    if scan_ms > 0.0 {
        let rows = workloads::adhoc::FACT_ROWS as f64;
        layers.set("engine.scan_rows_per_s", rows / (scan_ms / 1e3));
    }
    let run_query_overhead: Vec<f64> = trace::self_times(&spans)
        .filter(|(s, _)| s.name == layers::RUN_QUERY)
        .map(|(_, own)| own)
        .collect();
    layers.set(
        "core.run_query_overhead_p50_us",
        layers::p50(&run_query_overhead),
    );
    let (upload_us, ingest_us) = (
        p50_of(layers::UPLOAD, None),
        p50_of(layers::INGEST_TEXT, None),
    );
    layers.set("core.upload_p50_ms", upload_us / 1e3);
    if ingest_us > 0.0 {
        layers.set("core.upload_over_ingest_ratio", upload_us / ingest_us);
    }
    layers.set(
        "scheduler.dispatch_p50_us",
        layers::scheduler_dispatch_p50_us(),
    );

    // server
    layers.set("server.ready_rtt_p50_us", ready_rtt);
    if let Some(preview) = kind_of("preview") {
        let over_http = p50_us(&traced, preview);
        layers.set(
            "server.http_overhead_p50_us",
            over_http - p50_of("op", Some(preview)),
        );
    }
    let n_traced = traced.recs.len().max(1) as f64;
    layers.set("server.bytes_per_op", traced.bytes_read as f64 / n_traced);
    layers.set("server.shed_count", (untraced.sheds + traced.sheds) as f64);
    layers.set(
        "server.reconnects",
        traced.connects.saturating_sub(clients as u64) as f64,
    );
    // storage: a bare append and a bare flush, durable workloads only.
    // The record is as large as the primary op's request if that op is a
    // mutation (ingest's upload), else as the walked mutations' requests.
    if wal_path.is_some() {
        let mutation_body = |op: &ops::Op| match &op.action {
            Action::One(r) | Action::Two(r, _) if r.method == "POST" => Some(r.body.len() as f64),
            _ => None,
        };
        let walked = &ops[m..2 * m];
        let mut sizes: Vec<f64> = walked
            .iter()
            .filter(|op| op.kind == primary)
            .filter_map(mutation_body)
            .collect();
        if sizes.is_empty() {
            sizes = walked.iter().filter_map(mutation_body).collect();
        }
        let record = layers::p50(&sizes) as usize;
        let (append_us, fsync_us) = layers::wal_costs(&out_dir(), record);
        println!("storage: scratch WAL record of {record} bytes (median request body of the walked mutations)");
        layers.set("storage.wal_append_p50_us", append_us);
        layers.set("storage.fsync_p50_us", fsync_us);
    }
    // common: the bodies this run saw.
    let responses: Vec<&[u8]> = traced
        .samples
        .iter()
        .map(|(_, b)| b.as_slice())
        .take(400)
        .collect();
    let requests: Vec<&[u8]> = ops[m..2 * m]
        .iter()
        .filter_map(|op| match &op.action {
            Action::One(r) | Action::Two(r, _) | Action::Query(r) if !r.body.is_empty() => {
                Some(r.body.as_bytes())
            }
            _ => None,
        })
        .take(400)
        .collect();
    layers.set(
        "common.json_encode_mb_per_s",
        layers::json_throughput(&responses).1,
    );
    layers.set(
        "common.json_parse_mb_per_s",
        layers::json_throughput(&requests).0,
    );
    // proc
    layers.set("proc.cpu_ms_per_op", traced.cpu_ms / n_traced);
    layers.set(
        "proc.ctx_switches_per_op",
        traced.ctx_switches as f64 / n_traced,
    );
    layers.set("proc.threads_peak", traced.threads_peak as f64);
    // trace: what the walk and the front-end probe account for, of the
    // primary op kind's latency over HTTP.
    let requests_per_op = match ops
        .iter()
        .find(|op| op.kind == primary)
        .map(|op| &op.action)
    {
        Some(Action::Query(_)) => 3.0, // submit, the last poll, results
        Some(Action::Two(..)) => 2.0,
        _ => 1.0,
    };
    let walked_us = p50_of("op", Some(primary));
    let http_us = p50_us(&traced, primary);
    layers.set(
        "trace.attributed_share",
        (walked_us + requests_per_op * frontend_us) / http_us.max(1e-9),
    );
    layers.set(
        "trace.overhead_share",
        1.0 - traced.ops_per_s() / untraced.ops_per_s().max(1e-9),
    );
    println!(
        "attribution of '{}': {http_us:.1} us over HTTP = {walked_us:.1} us walked in-process + \
         {requests_per_op} x {frontend_us:.1} us front end (ready rtt {ready_rtt:.1} - in-process {:.1}) + unattributed",
        kinds[primary as usize], ready_inproc_us
    );
    print_self_times(&spans, ops, primary);

    let mut all = traced.spans;
    all.extend(spans);
    let path = out_dir().join(format!("trace-{}.jsonl", args.workload));
    let kind_by_op: Vec<u8> = ops.iter().map(|op| op.kind).collect();
    match trace::write_jsonl(&path, kinds, &kind_by_op, &all) {
        Ok(()) => println!("wrote {} spans to {}", all.len(), path.display()),
        Err(e) => println!("could not write {}: {e}", path.display()),
    }
    workload.cleanup();
    let correct = print_checks(&checks);

    let metrics: Vec<(&str, f64, &str)> = layers::METRICS
        .iter()
        .map(|(name, unit)| (*name, layers.get(name), *unit))
        .collect();
    for (name, value, unit) in &metrics {
        println!("{name:<40} {value:>16.4} {unit}");
    }
    print_result(correct, 2 * m, failed, &metrics);
}

/// Median self time per layer of the walked ops of the primary kind: a
/// span's duration minus its children's, summed per op by the crate the
/// span's name starts with.
fn print_self_times(spans: &[trace::Span], ops: &[ops::Op], primary: u8) {
    use std::collections::BTreeMap;
    let mut per_op: BTreeMap<u32, BTreeMap<&str, f64>> = BTreeMap::new();
    for (s, own) in trace::self_times(spans) {
        if s.name != "op" && ops[s.op as usize].kind == primary {
            let layer = s.name.split("::").next().unwrap_or(s.name);
            *per_op.entry(s.op).or_default().entry(layer).or_default() += own;
        }
    }
    let mut by_layer: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for layer_times in per_op.values() {
        for (layer, t) in layer_times {
            by_layer.entry(layer).or_default().push(*t);
        }
    }
    for (layer, times) in by_layer {
        println!(
            "  layer self time {layer:<10} p50 {:>10.1} us per op ({} ops)",
            layers::p50(&times),
            times.len()
        );
    }
}

fn main() {
    let process_start = Instant::now();
    // Stray configuration is a noise source: the program under test
    // reads some twenty-five SQLSHARE_* variables. Remove them all
    // before anything is constructed.
    for (name, _) in std::env::vars_os() {
        if name.to_string_lossy().starts_with("SQLSHARE_") {
            std::env::remove_var(&name);
        }
    }
    let args = parse_args();
    match procfs::pin_to_one_cpu() {
        Some((cpu, allowed)) => println!("cpu: pinned to CPU {cpu} ({allowed} allowed)"),
        None => println!("cpu: could not pin; using every allowed CPU"),
    }
    // Stopped and joined when `main` returns. An A/A parent only waits
    // for its runs, which spin for themselves.
    let spinner = args.aa.is_none().then(procfs::IdleSpinner::start).flatten();
    println!(
        "cpu: idle-priority spinner {}",
        if spinner.is_some() { "on" } else { "off" }
    );
    // A run that printed its result exits 0: wrong answers and failed
    // ops are in the result line, for whoever reads it to judge.
    match args.aa {
        Some(runs) => {
            if !aa::run(&args, runs) {
                std::process::exit(1);
            }
        }
        None if args.trace => run_traced(&args),
        None => run_timed(&args, process_start),
    }
}
