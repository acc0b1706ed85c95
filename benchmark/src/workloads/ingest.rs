//! `ingest`: the write path against a durable service, one client.
//! `ingest`, `core::persist` and `storage` (WAL append, fsync, a
//! full-state snapshot every 64 mutations) do nearly all the work and
//! `engine` none. Each step uploads one messy CSV, appends a batch to it
//! and deletes the oldest dataset with its batch, so the live set — and
//! with it the snapshot size — stays level. Every 64 steps upload the
//! same 64 tables and cross five snapshots: segments of equal work.

use super::{
    data_dir, describe_durable, durable_options, json_body, reopen_check,
    restart_and_space_metrics, start_server, Check, WalMeter, Workload,
};
use crate::http::Client;
use crate::layers::{self, Layers};
use crate::ops::{exec, Action, Op, Pass, Req};
use crate::rng::{Digest, XorShift};
use crate::trace::Tracer;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sqlshare_common::json::{self, Json};
use sqlshare_core::{rest, DatasetName, SqlShare};
use sqlshare_ingest::{ingest_text, IngestOptions};
use sqlshare_server::ServerHandle;
use sqlshare_storage::{FsyncPolicy, Wal};
use sqlshare_wlgen::tables::{generate_csv, Dirtiness};
use std::hint::black_box;
use std::ops::Range;
use std::path::PathBuf;

const USER: &str = "bench";
pub const KINDS: [&str; 3] = ["upload", "append", "delete"];
pub const UPLOAD: u8 = 0;
/// Datasets (each with its appended batch) live at any time.
pub const LIVE: usize = 50;
const CSV_COLUMNS: usize = 8;
const CSV_ROWS: usize = 900;
const BATCH_ROWS: usize = 100;
/// Mutations between snapshots (`DurableOptions::new`'s default).
const SNAPSHOT_EVERY: u64 = 64;
/// Steps per segment: 64 steps are 320 mutations and five snapshots.
pub const SEGMENT_STEPS: usize = 64;
/// Generator seed of the table pool.
const TABLE_SEED: u64 = 42;
// The fill takes its tables from one shuffle of the pool.
const _: () = assert!(LIVE <= SEGMENT_STEPS);

pub struct Ingest {
    /// Uploads and appends that fill the service before the timed phase.
    fill: Vec<Op>,
    ops: Vec<Op>,
    digest: u64,
    /// CSV bytes `(dataset, batch)` per generated table, by number.
    table_bytes: Vec<(u64, u64)>,
    /// Rows the server acknowledged for the fill's dataset uploads.
    fill_rows: Vec<Option<u64>>,
    dir: Option<PathBuf>,
    twin_dir: Option<PathBuf>,
}

fn dataset(j: usize) -> String {
    format!("d{j:05}")
}

fn batch(j: usize) -> String {
    format!("b{j:05}")
}

fn upload_req(name: &str, content: &str) -> Req {
    Req::post(
        "/api/datasets",
        json_body(&[("user", USER), ("name", name), ("content", content)]),
    )
}

/// Upload table `j`'s batch and append it to table `j`.
fn append_op(j: usize, batch_csv: &str) -> Op {
    Op {
        kind: 1,
        action: Action::Two(
            upload_req(&batch(j), batch_csv),
            Req::post(
                format!("/api/datasets/{USER}/{}/append", dataset(j)),
                json_body(&[
                    ("user", USER),
                    ("sourceOwner", USER),
                    ("sourceName", &batch(j)),
                ]),
            ),
        ),
        keep: false,
    }
}

fn delete_req(name: &str) -> Req {
    Req::delete(
        format!("/api/datasets/{USER}/{name}"),
        json_body(&[("user", USER)]),
    )
}

/// The `rows` field of an upload's answer.
fn acknowledged_rows(body: &[u8]) -> Option<u64> {
    let doc = json::parse(std::str::from_utf8(body).ok()?).ok()?;
    doc.get("rows")?.as_f64().map(|n| n as u64)
}

impl Ingest {
    pub fn generate(seed: u64, n_ops: usize) -> Ingest {
        let steps = (n_ops / KINDS.len()).max(1);
        // The tables, from a fixed generator seed (wlgen's generator
        // draws from the workspace's StdRng): a table's columns decide
        // what its upload costs, by a factor of two between tables, so
        // every segment and every `--seed` uploads the same tables.
        let mut table_rng = StdRng::seed_from_u64(TABLE_SEED);
        let pool: Vec<(String, String)> = (0..SEGMENT_STEPS)
            .map(|_| {
                let table =
                    generate_csv(&mut table_rng, CSV_COLUMNS, CSV_ROWS, &Dirtiness::default());
                // The batch: the table's own header (if it has one) and
                // its first rows, so that the append meets the same columns.
                let lines = BATCH_ROWS + usize::from(table.has_header);
                let batch_csv: String = table
                    .content
                    .lines()
                    .take(lines)
                    .flat_map(|l| [l, "\n"])
                    .collect();
                (table.content, batch_csv)
            })
            .collect();
        // `--seed` decides the order: the fill takes the first tables of
        // one shuffle of the pool, every 64 timed steps a whole one.
        let mut rng = XorShift::new(seed, 1);
        let mut order: Vec<usize> = Vec::with_capacity(LIVE + steps);
        while order.len() < LIVE + steps {
            let mut shuffled: Vec<usize> = (0..pool.len()).collect();
            rng.shuffle(&mut shuffled);
            let take = if order.is_empty() { LIVE } else { pool.len() };
            order.extend(shuffled.into_iter().take(take));
        }
        order.truncate(LIVE + steps);

        let mut digest = Digest::new();
        let mut table_bytes = Vec::with_capacity(LIVE + steps);
        let mut fill = Vec::with_capacity(LIVE * 2);
        let mut ops = Vec::with_capacity(steps * KINDS.len());
        for (j, &table) in order.iter().enumerate() {
            let (content, batch_csv) = &pool[table];
            digest.str(content);
            digest.str(batch_csv);
            table_bytes.push((content.len() as u64, batch_csv.len() as u64));
            let upload = Op {
                kind: UPLOAD,
                action: Action::One(upload_req(&dataset(j), content)),
                keep: true,
            };
            if j < LIVE {
                fill.push(upload);
                fill.push(append_op(j, batch_csv));
            } else {
                ops.push(upload);
                ops.push(append_op(j, batch_csv));
                ops.push(Op {
                    kind: 2,
                    action: Action::Two(
                        delete_req(&dataset(j - LIVE)),
                        delete_req(&batch(j - LIVE)),
                    ),
                    keep: false,
                });
            }
        }
        fill.iter()
            .chain(&ops)
            .for_each(|op| op.digest(&mut digest));
        Ingest {
            fill,
            ops,
            digest: digest.finish(),
            table_bytes,
            fill_rows: Vec::new(),
            dir: None,
            twin_dir: None,
        }
    }

    /// CSV bytes of the tables live after `steps` steps.
    fn live_bytes(&self, steps: usize) -> u64 {
        self.table_bytes[steps..steps + LIVE]
            .iter()
            .map(|(d, b)| d + b)
            .sum()
    }

    /// Mutations the service has journaled before timed op `idx`: the
    /// user, the fill, and the ops before it.
    fn mutations_before(&self, idx: usize) -> u64 {
        let of = |op: &Op| match op.action {
            Action::One(_) => 1,
            _ => 2,
        };
        1 + self.fill.iter().map(of).sum::<u64>() + self.ops[..idx].iter().map(of).sum::<u64>()
    }

    /// Share of a pass's wall time spent in ops that crossed a snapshot,
    /// beyond what the median op of their kind takes.
    fn snapshot_time_share(&self, pass: &Pass) -> f64 {
        let medians: Vec<f64> = (0..KINDS.len() as u8)
            .map(|k| crate::stats::percentile(&pass.latencies_ms(&self.ops, k), 0.5))
            .collect();
        let mut excess_ms = 0.0;
        for rec in pass.recs.iter().filter(|r| r.ok) {
            let idx = rec.op as usize;
            let before = self.mutations_before(idx);
            let after = self.mutations_before(idx + 1);
            if after / SNAPSHOT_EVERY > before / SNAPSHOT_EVERY {
                let median = medians[self.ops[idx].kind as usize];
                excess_ms += (rec.nanos as f64 / 1e6 - median).max(0.0);
            }
        }
        excess_ms / 1e3 / pass.wall_s.max(1e-9)
    }
}

/// One upload as the server's worker runs it, with the public calls it
/// is made of replayed as its children: `ingest_text` over the same
/// content, and a `Wal::append` of a record of the same size with fsync
/// on every record.
fn walk_upload(twin: &mut SqlShare, scratch: &mut Wal, idx: u32, op: &Op, tracer: &mut Tracer) {
    let Action::One(req) = &op.action else {
        panic!("uploads are single requests");
    };
    let root = tracer.reserve();
    let start = tracer.now_us();
    let body = tracer
        .span(root, idx, layers::JSON_PARSE, false, || {
            json::parse(&req.body)
        })
        .expect("generated body");
    let field = |name: &str| body.get(name).and_then(Json::as_str).expect("upload field");
    let (name, content) = (field("name"), field("content"));
    let options = IngestOptions::default();
    let (uploaded, upload_span) = tracer.span_id(root, idx, layers::UPLOAD, false, || {
        twin.upload(USER, name, content, &options)
    });
    uploaded.expect("layer walk: upload");
    tracer.record_as(root, idx, "op", start);

    tracer.span(upload_span, idx, layers::INGEST_TEXT, true, || {
        black_box(ingest_text(name, content, &options)).is_ok()
    });
    if scratch.offset() > 8 << 20 {
        scratch.reset().expect("reset scratch wal");
    }
    tracer.span(upload_span, idx, layers::WAL_APPEND, true, || {
        scratch
            .append(req.body.as_bytes())
            .expect("scratch wal append")
    });
}

impl Workload for Ingest {
    fn kinds(&self) -> &'static [&'static str] {
        &KINDS
    }

    fn primary(&self) -> u8 {
        UPLOAD
    }

    fn clients(&self) -> usize {
        1
    }

    fn ops(&self) -> &[Op] {
        &self.ops
    }

    fn inputs_digest(&self) -> u64 {
        self.digest
    }

    fn describe(&self) -> Vec<String> {
        let mut lines = vec![format!(
            "{LIVE} datasets live, each {CSV_COLUMNS} columns x {CSV_ROWS} rows (default Dirtiness) \
             with a {BATCH_ROWS}-row batch appended; {} steps of upload, append, delete",
            self.ops.len() / KINDS.len()
        )];
        if let Some(dir) = &self.dir {
            lines.push(describe_durable(dir));
        }
        lines
    }

    fn start(&mut self) -> ServerHandle {
        let dir = data_dir("ingest");
        let service = SqlShare::open(durable_options(&dir)).expect("open data directory");
        self.dir = Some(dir);
        let server = start_server(service);
        let mut client = Client::new(server.addr());
        let user = json_body(&[("username", USER), ("email", "bench@example.org")]);
        let registered = client
            .request("POST", "/api/users", &user)
            .expect("register user");
        assert!(
            registered.ok(),
            "register user answered {}",
            registered.status
        );
        // The fill is the warm-up: the same requests as the timed phase.
        self.fill_rows.clear();
        for (i, op) in self.fill.iter().enumerate() {
            let out = exec(&mut client, i as u32, op, None);
            assert!(out.ok, "fill op {i} failed");
            if op.kind == UPLOAD {
                self.fill_rows.push(acknowledged_rows(&out.body));
            }
        }
        server
    }

    fn verify(&mut self, server: ServerHandle, pass: &Pass) -> Vec<Check> {
        let digest = server.with_service(SqlShare::durable_digest);
        server.shutdown();
        let dir = self.dir.clone().expect("started");
        let mut checks = Vec::new();
        let Some(reopened) = reopen_check(&dir, digest, &mut checks) else {
            return checks;
        };
        // Rows acknowledged per table number: the fill's, then the pass's.
        let mut acked: Vec<Option<u64>> = self.fill_rows.clone();
        acked.resize(self.table_bytes.len(), None);
        for (idx, body) in &pass.samples {
            let ok = pass.recs.iter().any(|r| r.op == *idx && r.ok);
            acked[LIVE + *idx as usize / KINDS.len()] = acknowledged_rows(body).filter(|_| ok);
        }
        let deleted: Vec<usize> = pass
            .recs
            .iter()
            .filter(|r| r.ok && self.ops[r.op as usize].kind == 2)
            .map(|r| r.op as usize / KINDS.len())
            .collect();
        let rows_of = |j: usize| reopened.table_row_count(&format!("{USER}.{}$base", dataset(j)));
        let (mut live, mut intact) = (0, 0);
        for (j, rows) in acked.iter().enumerate() {
            if let (Some(rows), false) = (rows, deleted.contains(&j)) {
                live += 1;
                intact += usize::from(rows_of(j) == Some(*rows as usize));
            }
        }
        let gone = deleted
            .iter()
            .filter(|&&j| {
                reopened
                    .dataset(&DatasetName::new(USER, dataset(j)))
                    .is_none()
            })
            .count();
        checks.push(Check::new(
            format!("{intact} of {live} acknowledged, undeleted uploads present after reopen with the acknowledged row count"),
            intact == live && live > 0,
        ));
        checks.push(Check::new(
            format!(
                "{gone} of {} deleted datasets absent after reopen",
                deleted.len()
            ),
            gone == deleted.len(),
        ));
        checks
    }

    fn walk(&mut self, range: Range<usize>, tracer: &mut Tracer, layers: &mut Layers) {
        let dir = data_dir("ingest-twin");
        self.twin_dir = Some(dir.clone());
        let mut twin = SqlShare::open(durable_options(&dir)).expect("open twin directory");
        twin.register_user(USER, "bench@example.org")
            .expect("fresh user");
        // Bring the twin to the state the walked ops start from.
        let apply = |twin: &mut SqlShare, req: &Req| {
            let answer = rest::dispatch(twin, &layers::request_of(req));
            assert!(answer.status < 300, "twin: {} failed", req.path);
        };
        for op in self.fill.iter().chain(&self.ops[..range.start]) {
            match &op.action {
                Action::One(a) => apply(&mut twin, a),
                Action::Two(a, b) => {
                    apply(&mut twin, a);
                    apply(&mut twin, b);
                }
                Action::Query(_) => unreachable!("ingest has no queries"),
            }
        }

        let scratch_path = dir.join("scratch-wal.log");
        let mut scratch = Wal::open(&scratch_path, FsyncPolicy::Always).expect("open scratch wal");
        let mut wal = WalMeter::new(&dir);
        let mut user_bytes = 0u64;
        for i in range.clone() {
            let op = &self.ops[i];
            wal.measure(|| {
                if op.kind == UPLOAD {
                    walk_upload(&mut twin, &mut scratch, i as u32, op, tracer);
                } else {
                    layers::walk_mutation(&mut twin, i as u32, op, tracer);
                }
            });
            let (dataset_csv, batch_csv) = self.table_bytes[LIVE + i / KINDS.len()];
            user_bytes += [dataset_csv, batch_csv, 0][op.kind as usize];
        }
        drop(scratch);
        let _ = std::fs::remove_file(&scratch_path);
        let _ = std::fs::remove_file(dir.join("scratch-wal.log.gen"));

        let ingest_ms =
            layers::p50(&crate::trace::durations(&tracer.spans, layers::INGEST_TEXT)) / 1e3;
        let csv_bytes: Vec<f64> = self.table_bytes.iter().map(|(d, _)| *d as f64).collect();
        layers.set("ingest.ingest_text_p50_ms", ingest_ms);
        layers.set(
            "ingest.mb_per_s",
            layers::p50(&csv_bytes) / 1e6 / (ingest_ms / 1e3).max(1e-9),
        );
        layers.set(
            "storage.wal_bytes_per_user_byte",
            wal.bytes as f64 / (user_bytes as f64).max(1.0),
        );
        let live = self.live_bytes(range.end / KINDS.len()) as f64;
        restart_and_space_metrics(twin, &dir, live, layers);
    }

    fn pass_metrics(&self, pass: &Pass, layers: &mut Layers) {
        layers.set(
            "storage.snapshot_time_share",
            self.snapshot_time_share(pass),
        );
    }

    fn cleanup(&mut self) {
        for dir in [self.dir.take(), self.twin_dir.take()]
            .into_iter()
            .flatten()
        {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}
