//! The four workloads. Each one generates its inputs from the seed,
//! builds and starts the service (set-up and warm-up), and afterwards
//! checks what the service answered.

pub mod adhoc;
pub mod browse;
pub mod ingest;
pub mod replay;

use crate::layers::Layers;
use crate::ops::{Op, Pass, Req};
use crate::rng::XorShift;
use crate::trace::Tracer;
use sqlshare_common::json::Json;
use sqlshare_core::{rest, DurableOptions, FsyncPolicy, SqlShare};
use sqlshare_server::{HttpConfig, Server, ServerHandle};
use sqlshare_wlgen::{sqlshare::generate, GeneratorConfig};
use std::ops::Range;
use std::path::PathBuf;

pub const NAMES: [&str; 4] = ["browse", "adhoc", "replay", "ingest"];

/// One correctness check and whether it held.
pub struct Check {
    pub what: String,
    pub ok: bool,
}

impl Check {
    pub fn new(what: impl Into<String>, ok: bool) -> Check {
        Check {
            what: what.into(),
            ok,
        }
    }
}

pub trait Workload {
    fn kinds(&self) -> &'static [&'static str];
    /// The op kind whose latency is reported: one kind, so that the
    /// population is unimodal.
    fn primary(&self) -> u8;
    /// Closed-loop client threads.
    fn clients(&self) -> usize;
    fn ops(&self) -> &[Op];
    fn inputs_digest(&self) -> u64;
    /// Lines describing the configuration in effect.
    fn describe(&self) -> Vec<String>;
    /// Build the service from the inputs, start the server and warm up.
    fn start(&mut self) -> ServerHandle;
    /// Check the answers of a pass; shuts the server down. Durable
    /// workloads reopen their directory here.
    fn verify(&mut self, server: ServerHandle, pass: &Pass) -> Vec<Check>;
    /// The layer walk: drive `ops[range]` in-process against a twin
    /// service built from the same inputs, one span per public call.
    fn walk(&mut self, range: Range<usize>, tracer: &mut Tracer, layers: &mut Layers);
    /// Per-layer metrics only this workload can read off a pass.
    fn pass_metrics(&self, _pass: &Pass, _layers: &mut Layers) {}
    /// Remove what the workload left on disk.
    fn cleanup(&mut self) {}
}

/// How a workload is sized.
pub struct Sizing {
    /// Ops per second of `--seconds`, so that the timed phase takes
    /// about `--seconds` at the commit that defined the benchmark. The
    /// op count, not the duration, is what a run fixes: a faster program
    /// finishes sooner and a slower one later.
    pub ops_per_budget_second: f64,
    /// Ops per segment. The end-to-end metrics are quartiles over
    /// segments, so every segment must hold the same work: whole rounds
    /// (`adhoc`), whole cycles of the mix with one snapshot each
    /// (`replay`), 64 steps = 320 mutations = five snapshots (`ingest`).
    pub segment_ops: usize,
}

pub fn sizing(name: &str) -> Sizing {
    let (ops_per_budget_second, segment_ops) = match name {
        "browse" => (8000.0, 4000),
        "adhoc" => (60.0, 20 * adhoc::SHAPES.len()),
        "replay" => (1100.0, replay::CYCLE_OPS),
        _ => (85.0, ingest::SEGMENT_STEPS * ingest::KINDS.len()),
    };
    Sizing {
        ops_per_budget_second,
        segment_ops,
    }
}

pub fn make(name: &str, seed: u64, n_ops: usize) -> Box<dyn Workload> {
    match name {
        "browse" => Box::new(browse::Browse::generate(seed, n_ops)),
        "adhoc" => Box::new(adhoc::Adhoc::generate(seed, n_ops)),
        "replay" => Box::new(replay::Replay::generate(seed, n_ops)),
        "ingest" => Box::new(ingest::Ingest::generate(seed, n_ops)),
        other => panic!("unknown workload '{other}'"),
    }
}

pub fn client_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn start_server(service: SqlShare) -> ServerHandle {
    Server::start(service, "127.0.0.1:0", HttpConfig::default()).expect("bind loopback server")
}

// ---- the corpus shared by `browse` and `replay` ---------------------------

/// The wlgen corpus is generated from a fixed seed: its size swings by
/// a factor of several between generator seeds (twelve users drawn from
/// four personas), and runs with different `--seed`s must do the same
/// amount of work. `--seed` decides which ops run and in what order.
const CORPUS: GeneratorConfig = GeneratorConfig {
    seed: 42,
    scale: 0.02,
};

pub struct Corpus {
    pub service: SqlShare,
    /// `(owner, name)` of every dataset whose preview and download
    /// answer 200 for its owner.
    pub datasets: Vec<(String, String)>,
}

pub fn corpus() -> Corpus {
    let service = generate(&CORPUS).service;
    let names: Vec<(String, String)> = service
        .datasets()
        .map(|d| (d.name.owner.clone(), d.name.name.clone()))
        .collect();
    let datasets = names
        .into_iter()
        .filter(|(owner, name)| {
            [preview_path(owner, name), download_path(owner, name)]
                .into_iter()
                .all(|path| rest::dispatch_read(&service, &rest::Request::get(path)).status == 200)
        })
        .collect();
    Corpus { service, datasets }
}

pub fn preview_path(owner: &str, name: &str) -> String {
    format!("/api/datasets/{owner}/{name}?user={owner}")
}

pub fn download_path(owner: &str, name: &str) -> String {
    format!("/api/datasets/{owner}/{name}/download?user={owner}")
}

/// Kinds shared by `browse` and `replay`, in this order.
pub const READ_KINDS: [&str; 4] = ["preview", "list", "stats", "download"];
pub const PREVIEW: u8 = 0;
pub const LIST: u8 = 1;
pub const STATS: u8 = 2;
pub const DOWNLOAD: u8 = 3;

/// `n` web-UI reads in exact proportion — 60% dataset preview, 15%
/// dataset list, 20% service statistics, 5% full download — visiting the
/// datasets round-robin in a seeded order. The caller shuffles.
pub fn read_ops(n: usize, datasets: &[(String, String)], rng: &mut XorShift) -> Vec<Op> {
    let mut order: Vec<usize> = (0..datasets.len()).collect();
    rng.shuffle(&mut order);
    let mut next = 0usize;
    let mut dataset = || {
        let (owner, name) = &datasets[order[next % order.len()]];
        next += 1;
        (owner.as_str(), name.as_str())
    };
    let previews = n * 60 / 100;
    let lists = n * 15 / 100;
    let stats = n * 20 / 100;
    let mut ops = Vec::with_capacity(n);
    for i in 0..n {
        let (kind, path) = if i < previews {
            let (owner, name) = dataset();
            (PREVIEW, preview_path(owner, name))
        } else if i < previews + lists {
            (LIST, "/api/datasets".to_string())
        } else if i < previews + lists + stats {
            let path = ["/api/ready", "/api/scheduler", "/api/cache"][i % 3];
            (STATS, path.to_string())
        } else {
            let (owner, name) = dataset();
            (DOWNLOAD, download_path(owner, name))
        };
        ops.push(Op {
            kind,
            action: crate::ops::Action::One(Req::get(path)),
            keep: false,
        });
    }
    ops
}

// ---- durable services ------------------------------------------------------

/// A fresh data directory inside the checkout (the benchmark reads and
/// writes nowhere else), named after the process so that concurrent
/// runs do not share one.
pub fn data_dir(label: &str) -> PathBuf {
    let dir = crate::out_dir().join(format!("data-{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create data directory");
    dir
}

/// fsync on every journaled record, snapshot cadence at its default.
pub fn durable_options(dir: &std::path::Path) -> DurableOptions {
    DurableOptions::new(dir).fsync(FsyncPolicy::Always)
}

pub fn describe_durable(dir: &std::path::Path) -> String {
    let o = durable_options(dir);
    format!(
        "durable: dir {} fsync {:?} snapshot_every {}",
        dir.display(),
        o.fsync,
        o.snapshot_every
    )
}

/// Total size of the regular files in `dir`.
pub fn dir_bytes(dir: &std::path::Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Close a durable service's twin check: after the server is gone,
/// reopen the directory and compare the canonical durable state.
pub fn reopen_check(
    dir: &std::path::Path,
    digest_before: u64,
    checks: &mut Vec<Check>,
) -> Option<SqlShare> {
    match SqlShare::open(durable_options(dir)) {
        Ok(reopened) => {
            checks.push(Check::new(
                "reopened directory has the durable digest the server ended with",
                reopened.durable_digest() == digest_before,
            ));
            Some(reopened)
        }
        Err(e) => {
            checks.push(Check::new(format!("reopen data directory: {e}"), false));
            None
        }
    }
}

/// Counts the bytes a durable twin journals, read off the size of its
/// `wal.log` around each mutation.
pub struct WalMeter {
    wal: PathBuf,
    pub bytes: u64,
}

impl WalMeter {
    pub fn new(dir: &std::path::Path) -> WalMeter {
        WalMeter {
            wal: dir.join("wal.log"),
            bytes: 0,
        }
    }

    pub fn measure(&mut self, mutation: impl FnOnce()) {
        let len = |wal: &PathBuf| std::fs::metadata(wal).map_or(0, |m| m.len());
        let before = len(&self.wal);
        mutation();
        let after = len(&self.wal);
        // A shorter log means a snapshot truncated it in between.
        self.bytes += if after >= before {
            after - before
        } else {
            after
        };
    }
}

/// After a durable layer walk: close the twin, time its recovery, then
/// what a forced snapshot costs and how much disk the directory takes,
/// per byte of live CSV.
pub fn restart_and_space_metrics(
    twin: SqlShare,
    dir: &std::path::Path,
    live_csv_bytes: f64,
    layers: &mut Layers,
) {
    drop(twin);
    let t0 = std::time::Instant::now();
    let mut reopened = SqlShare::open(durable_options(dir)).expect("reopen the twin's directory");
    layers.set("core.recover_s", t0.elapsed().as_secs_f64());
    let report = reopened.recovery_report().unwrap_or_default();
    layers.set(
        "core.recover_replayed_records",
        report.replayed_records as f64,
    );
    layers.set(
        "storage.disk_bytes_per_live_byte",
        dir_bytes(dir) as f64 / live_csv_bytes,
    );
    let (snapshot_ms, snapshot_bytes) = crate::layers::snapshot_cost(&mut reopened, dir);
    layers.set("storage.snapshot_write_p50_ms", snapshot_ms);
    layers.set(
        "storage.snapshot_bytes_per_user_byte",
        snapshot_bytes as f64 / live_csv_bytes,
    );
}

pub fn json_body(pairs: &[(&'static str, &str)]) -> String {
    Json::object(pairs.iter().map(|(k, v)| (*k, Json::str(*v)))).to_string()
}
