//! `replay`: the paper-shaped mix against a durable service, in cycles
//! of equal work. Every layer does a little; repeated SQL hits the
//! result cache, appends and toggles invalidate it, every query is
//! appended to `querylog.jsonl`, and reads wait behind the write lock
//! while a snapshot is written (on the benchmark's one CPU they never
//! run beside a writer). It uses `storage` and `core` the opposite way
//! from `ingest`: a write-path gain that costs reads shows here.

use super::{
    corpus, data_dir, describe_durable, durable_options, json_body, read_ops, reopen_check,
    restart_and_space_metrics, start_server, Check, WalMeter, Workload, READ_KINDS,
};
use crate::http::Client;
use crate::layers::{self, Layers};
use crate::ops::{exec, Action, Op, Pass, Req};
use crate::rng::{Digest, XorShift};
use crate::trace::Tracer;
use sqlshare_common::json::Json;
use sqlshare_core::{DatasetKind, DatasetName, SqlShare, Visibility};
use sqlshare_ingest::{ingest_text, IngestOptions};
use sqlshare_server::ServerHandle;
use std::collections::BTreeMap;
use std::ops::Range;
use std::path::PathBuf;

pub const KINDS: [&str; 7] = [
    READ_KINDS[0],
    READ_KINDS[1],
    READ_KINDS[2],
    READ_KINDS[3],
    "query",
    "toggle",
    "append",
];
pub const QUERY: u8 = 4;
const TOGGLE: u8 = 5;
const APPEND: u8 = 6;

/// Ops in one cycle of the mix: 82% reads, 15% queries, 2% visibility
/// toggles, 1% appends.
pub const CYCLE_OPS: usize = 1600;
const CYCLE_QUERIES: usize = CYCLE_OPS * 15 / 100;
const CYCLE_TOGGLES: usize = CYCLE_OPS * 2 / 100;
/// Two mutations each (upload the batch, append it): with the toggles,
/// 64 mutations a cycle, the default `snapshot_every`.
const CYCLE_APPENDS: usize = CYCLE_OPS / 100;

const WARMUP_READS: usize = 1000;
/// Data rows in an appended batch.
const BATCH_ROWS: usize = 10;

pub struct Replay {
    /// The corpus as one snapshot document, installed into each durable
    /// service this workload opens.
    state: Json,
    warmup: Vec<Op>,
    ops: Vec<Op>,
    digest: u64,
    /// `(op index, owner, batch name)` of every append op.
    batches: Vec<(usize, String, String)>,
    /// CSV bytes of the corpus's uploaded datasets.
    corpus_csv_bytes: u64,
    summary: String,
    dir: Option<PathBuf>,
    twin_dir: Option<PathBuf>,
}

/// Header and first rows of a dataset's CSV, if uploading them infers
/// the very column types the dataset has: then `UNION ALL` changes no
/// column's type and no query over the target changes its meaning.
fn batch_for(service: &SqlShare, owner: &str, name: &str) -> Option<String> {
    let dn = DatasetName::new(owner, name);
    let dataset = service.dataset(&dn)?;
    if dataset.kind != DatasetKind::Uploaded {
        return None;
    }
    let schema = &dataset.preview.as_ref()?.schema;
    if schema.len() < 2 {
        return None; // delimiter inference needs two columns
    }
    let csv = service.download(owner, &dn).ok()?;
    let lines: Vec<&str> = csv.lines().take(BATCH_ROWS + 1).collect();
    if lines.len() < BATCH_ROWS + 1 {
        return None;
    }
    let content = lines.join("\n") + "\n";
    let (table, report) = ingest_text("batch", &content, &IngestOptions::default()).ok()?;
    let same_types = table.schema.len() == schema.len()
        && table
            .schema
            .columns
            .iter()
            .zip(&schema.columns)
            .all(|(a, b)| a.ty == b.ty);
    (report.header_used && report.rows == BATCH_ROWS && same_types).then_some(content)
}

impl Replay {
    pub fn generate(seed: u64, n_ops: usize) -> Replay {
        let corpus = corpus();
        let service = &corpus.service;

        // Query pool: every SQL text of the corpus log that still runs,
        // with as many tickets as the log repeated it.
        let mut weights: BTreeMap<(String, String), usize> = BTreeMap::new();
        for entry in service
            .log()
            .entries()
            .iter()
            .filter(|e| e.outcome.is_success())
        {
            *weights
                .entry((entry.user.clone(), entry.sql.clone()))
                .or_insert(0) += 1;
        }
        let pool: Vec<((String, String), usize)> = weights
            .into_iter()
            .filter(|((user, sql), _)| service.run_query(user, sql).is_ok())
            .collect();
        let tickets: usize = pool.iter().map(|(_, w)| w).sum();
        assert!(tickets > 0, "corpus log has no runnable query");

        let users: Vec<String> = service.users().map(|u| u.username.clone()).collect();
        let public: Vec<&(String, String)> = corpus
            .datasets
            .iter()
            .filter(|(o, n)| service.visibility(&DatasetName::new(o, n)) == Visibility::Public)
            .collect();
        let mut targets: Vec<(&(String, String), String)> = corpus
            .datasets
            .iter()
            .filter_map(|ds| batch_for(service, &ds.0, &ds.1).map(|content| (ds, content)))
            .collect();
        assert!(
            !public.is_empty() && !targets.is_empty(),
            "corpus has nothing to toggle or append to"
        );
        let corpus_csv_bytes = service
            .datasets()
            .filter(|d| d.kind == DatasetKind::Uploaded)
            .filter_map(|d| service.download(&d.name.owner, &d.name).ok())
            .map(|csv| csv.len() as u64)
            .sum();

        // The queries of a cycle: every third ticket or so of the pool,
        // taken at even steps through it in its sorted order — the same
        // for every cycle and every seed, so that every cycle and every
        // run does the same query work; `--seed` decides the order.
        let all_tickets: Vec<&(String, String)> = pool
            .iter()
            .flat_map(|(query, weight)| std::iter::repeat_n(query, *weight))
            .collect();
        let query_op = |(user, sql): &(String, String)| Op {
            kind: QUERY,
            action: Action::Query(Req::post(
                "/api/queries",
                json_body(&[("user", user), ("sql", sql)]),
            )),
            keep: false,
        };
        let cycle_queries: Vec<&(String, String)> = (0..CYCLE_QUERIES)
            .map(|i| all_tickets[i * tickets / CYCLE_QUERIES])
            .collect();

        let mut rng = XorShift::new(seed, 1);
        rng.shuffle(&mut targets);
        // A toggle flips a public dataset between `public` and "shared
        // with every user": the stored state changes, nobody loses
        // access, so no query of the pool starts to fail.
        let everyone = Json::Array(users.iter().map(|u| Json::str(u.clone())).collect());
        let toggle_op = |i: usize| {
            let (owner, name) = public[i % public.len()];
            let visibility = if (i / public.len()).is_multiple_of(2) {
                everyone.clone()
            } else {
                Json::str("public")
            };
            let body = Json::object([
                ("user", Json::str(owner.clone())),
                ("visibility", visibility),
            ]);
            Op {
                kind: TOGGLE,
                action: Action::One(Req::post(
                    format!("/api/datasets/{owner}/{name}/permissions"),
                    body.to_string(),
                )),
                keep: false,
            }
        };
        let append_op = |i: usize| {
            let ((owner, name), content) = &targets[i % targets.len()];
            let batch = format!("rb{i}");
            Op {
                kind: APPEND,
                action: Action::Two(
                    Req::post(
                        "/api/datasets",
                        json_body(&[("user", owner), ("name", &batch), ("content", content)]),
                    ),
                    Req::post(
                        format!("/api/datasets/{owner}/{name}/append"),
                        json_body(&[
                            ("user", owner),
                            ("sourceOwner", owner),
                            ("sourceName", &batch),
                        ]),
                    ),
                ),
                keep: false,
            }
        };
        // Every cycle: the reads and the queries in a seeded order, and
        // between them, at even steps, toggle, toggle, append, ...: 48
        // ops that journal 64 records, so that every cycle crosses
        // exactly one snapshot.
        let cycles = (n_ops / CYCLE_OPS).max(1);
        let mutating = CYCLE_TOGGLES + CYCLE_APPENDS;
        let mut ops = Vec::with_capacity(cycles * CYCLE_OPS);
        let (mut toggles, mut appends) = (0, 0);
        for _ in 0..cycles {
            let n_read = CYCLE_OPS - CYCLE_QUERIES - mutating;
            let mut others = read_ops(n_read, &corpus.datasets, &mut rng);
            others.extend(cycle_queries.iter().map(|q| query_op(q)));
            rng.shuffle(&mut others);
            let mut others = others.into_iter();
            for m in 0..mutating {
                let take = (m + 1) * (CYCLE_OPS - mutating) / mutating
                    - m * (CYCLE_OPS - mutating) / mutating;
                ops.extend(others.by_ref().take(take));
                if m % 3 == 2 {
                    ops.push(append_op(appends));
                    appends += 1;
                } else {
                    ops.push(toggle_op(toggles));
                    toggles += 1;
                }
            }
        }
        for (i, op) in ops.iter_mut().enumerate() {
            // Bodies for the JSON throughput probe of the traced run.
            op.keep =
                i % 101 == 0 && matches!(op.kind, super::PREVIEW | super::LIST | super::DOWNLOAD);
        }
        let batches = ops
            .iter()
            .enumerate()
            .filter_map(|(i, op)| match &op.action {
                Action::Two(upload, _) if op.kind == APPEND => {
                    let body = sqlshare_common::json::parse(&upload.body).ok()?;
                    Some((
                        i,
                        body.get("user")?.as_str()?.to_string(),
                        body.get("name")?.as_str()?.to_string(),
                    ))
                }
                _ => None,
            })
            .collect();

        let mut warm_rng = XorShift::new(seed, 2);
        let mut warmup = read_ops(WARMUP_READS, &corpus.datasets, &mut warm_rng);
        warm_rng.shuffle(&mut warmup);
        // Every query of the cycle once, so that the timed phase starts
        // with the plans and results cached that its later cycles find.
        warmup.extend(cycle_queries.iter().map(|q| query_op(q)));
        let mut digest = Digest::new();
        warmup
            .iter()
            .chain(&ops)
            .for_each(|op| op.digest(&mut digest));
        let summary = format!(
            "corpus: wlgen sqlshare seed 42 scale 0.02, {} datasets served, {} distinct SQL texts \
             ({tickets} tickets, {CYCLE_QUERIES} of them in every cycle of {CYCLE_OPS} ops), {} public \
             datasets toggled, {} append targets; {cycles} cycles",
            corpus.datasets.len(),
            pool.len(),
            public.len(),
            targets.len()
        );
        Replay {
            state: service.replication_snapshot(),
            warmup,
            ops,
            digest: digest.finish(),
            batches,
            corpus_csv_bytes,
            summary,
            dir: None,
            twin_dir: None,
        }
    }

    /// A durable service holding the corpus, in a fresh directory.
    fn durable(&self, label: &str) -> (SqlShare, PathBuf) {
        let dir = data_dir(label);
        let mut service = SqlShare::open(durable_options(&dir)).expect("open data directory");
        service
            .install_replica_snapshot(&self.state)
            .expect("install corpus state");
        (service, dir)
    }

    /// CSV bytes a pass added with its appends.
    fn appended_bytes(&self, range: Range<usize>) -> u64 {
        range
            .filter_map(|i| match &self.ops[i].action {
                Action::Two(upload, _) => Some(upload.body.len() as u64),
                _ => None,
            })
            .sum()
    }
}

impl Workload for Replay {
    fn kinds(&self) -> &'static [&'static str] {
        &KINDS
    }

    fn primary(&self) -> u8 {
        QUERY
    }

    fn clients(&self) -> usize {
        super::client_threads()
    }

    fn ops(&self) -> &[Op] {
        &self.ops
    }

    fn inputs_digest(&self) -> u64 {
        self.digest
    }

    fn describe(&self) -> Vec<String> {
        let mut lines = vec![self.summary.clone()];
        if let Some(dir) = &self.dir {
            lines.push(describe_durable(dir));
        }
        lines
    }

    fn start(&mut self) -> ServerHandle {
        let (service, dir) = self.durable("replay");
        self.dir = Some(dir);
        let server = start_server(service);
        let mut client = Client::new(server.addr());
        for (i, op) in self.warmup.iter().enumerate() {
            assert!(
                exec(&mut client, i as u32, op, None).ok,
                "warm-up read failed"
            );
        }
        server
    }

    fn verify(&mut self, server: ServerHandle, pass: &Pass) -> Vec<Check> {
        let digest = server.with_service(SqlShare::durable_digest);
        server.shutdown();
        let dir = self.dir.clone().expect("started");
        let mut checks = Vec::new();
        if let Some(reopened) = reopen_check(&dir, digest, &mut checks) {
            let acknowledged: Vec<&(usize, String, String)> = self
                .batches
                .iter()
                .filter(|(i, _, _)| pass.recs.iter().any(|r| r.op as usize == *i && r.ok))
                .collect();
            let present = acknowledged
                .iter()
                .filter(|(_, owner, batch)| {
                    reopened.table_row_count(&format!("{owner}.{batch}$base")) == Some(BATCH_ROWS)
                })
                .count();
            checks.push(Check::new(
                format!(
                    "{present} of {} acknowledged batch uploads present after reopen with {BATCH_ROWS} rows",
                    acknowledged.len()
                ),
                present == acknowledged.len(),
            ));
        }
        checks
    }

    fn walk(&mut self, range: Range<usize>, tracer: &mut Tracer, layers: &mut Layers) {
        let (mut twin, dir) = self.durable("replay-twin");
        self.twin_dir = Some(dir.clone());
        let mut wal = WalMeter::new(&dir);
        let mut cold = None;
        for i in range.clone() {
            let op = &self.ops[i];
            match &op.action {
                Action::Query(_) => {
                    let cold = cold.get_or_insert_with(|| layers::cold_engine(&twin));
                    layers::walk_query(&twin, cold, i as u32, op, tracer);
                }
                Action::One(_) if op.kind < QUERY => layers::walk_read(&twin, i as u32, op, tracer),
                _ => {
                    wal.measure(|| layers::walk_mutation(&mut twin, i as u32, op, tracer));
                    cold = None; // the catalog moved
                }
            }
        }
        let appended = self.appended_bytes(range);
        layers.set(
            "storage.wal_bytes_per_user_byte",
            wal.bytes as f64 / (appended as f64).max(1.0),
        );
        let live = (self.corpus_csv_bytes + appended) as f64;
        restart_and_space_metrics(twin, &dir, live, layers);
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
