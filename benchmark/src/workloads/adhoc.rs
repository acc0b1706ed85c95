//! `adhoc`: query turnaround over an uploaded 60,000-row table, one
//! client. `engine` does nearly all the work (on the benchmark's one
//! CPU: its parallel plans run on one thread), `server` and `storage`
//! almost none; every query carries a fresh constant, so plans may be
//! reused but the result cache never hits.

use super::{json_body, start_server, Check, Workload};
use crate::http::Client;
use crate::layers::{self, Layers};
use crate::ops::{exec, Action, Op, Pass, Req};
use crate::rng::{Digest, XorShift};
use crate::trace::Tracer;
use sqlshare_common::json::{self, Json};
use sqlshare_core::SqlShare;
use sqlshare_ingest::IngestOptions;
use sqlshare_server::ServerHandle;
use std::fmt::Write as _;
use std::ops::Range;
use std::time::Instant;

const USER: &str = "bench";
pub const FACT_ROWS: usize = 60_000;
const DIM_ROWS: usize = 8_000;

/// The five shapes of a round, in the order they run.
pub const SHAPES: [&str; 5] = ["scan_agg", "group_agg", "join_agg", "topk", "point"];
pub const JOIN_AGG: u8 = 2;
const TOPK: u8 = 3;

/// Every this-many-th query (and the whole first round) is checked
/// against the row engine.
const ORACLE_EVERY: usize = 50;

pub struct Adhoc {
    facts: String,
    dim: String,
    warmup: Vec<Op>,
    ops: Vec<Op>,
    digest: u64,
}

/// The SQL of instance number `serial` of a shape. The constant moves
/// with the serial, so no two instances of a run share a text, and so
/// little that every instance does the same work.
fn sql(shape: u8, serial: usize, jitter: u64, point_offset: usize) -> String {
    let c = 10.0 + serial as f64 * 1e-4 + (jitter % 1000) as f64 * 1e-8;
    match shape {
        0 => format!("SELECT COUNT(*) AS n, SUM(v) AS s FROM bench.facts WHERE v > {c:.8}"),
        1 => format!(
            "SELECT y, COUNT(*) AS n, AVG(v) AS a FROM bench.facts WHERE v > {c:.8} GROUP BY y"
        ),
        2 => format!(
            "SELECT d.cat, COUNT(*) AS n, SUM(f.v) AS s FROM bench.facts f \
             JOIN bench.dim d ON f.g = d.k WHERE f.v > {c:.8} GROUP BY d.cat"
        ),
        3 => format!("SELECT TOP 10 k, v FROM bench.facts WHERE v < {c:.8} ORDER BY v DESC, k"),
        // 7919 is coprime with the row count: every serial its own key,
        // from wherever the run starts.
        _ => format!(
            "SELECT k, g, v, pad FROM bench.facts WHERE k = {}",
            (serial * 7919 + point_offset) % FACT_ROWS
        ),
    }
}

fn rounds(
    n_rounds: usize,
    first_serial: usize,
    point_offset: usize,
    rng: &mut XorShift,
) -> Vec<Op> {
    let mut ops = Vec::with_capacity(n_rounds * SHAPES.len());
    for round in 0..n_rounds {
        let jitter = rng.next();
        for shape in 0..SHAPES.len() as u8 {
            let text = sql(shape, first_serial + round, jitter, point_offset);
            let body = json_body(&[("user", USER), ("sql", &text)]);
            ops.push(Op {
                kind: shape,
                action: Action::Query(Req::post("/api/queries", body)),
                keep: false,
            });
        }
    }
    ops
}

impl Adhoc {
    pub fn generate(seed: u64, n_ops: usize) -> Adhoc {
        let mut rng = XorShift::new(seed, 1);
        let mut facts = String::with_capacity(FACT_ROWS * 40);
        facts.push_str("k,g,v,y,pad\n");
        for k in 0..FACT_ROWS {
            let r = rng.next();
            let _ = writeln!(
                facts,
                "{k},{},{}.{:03},{},p{:011x}",
                r % DIM_ROWS as u64,
                (r >> 16) % 100,
                (r >> 24) % 1000,
                1990 + (r >> 36) % 30,
                r >> 20
            );
        }
        let mut dim = String::with_capacity(DIM_ROWS * 24);
        dim.push_str("k,cat,w\n");
        for k in 0..DIM_ROWS {
            let r = rng.next();
            let _ = writeln!(
                dim,
                "{k},c{:02},{}.{:02}",
                r % 40,
                (r >> 8) % 10,
                (r >> 16) % 100
            );
        }

        let mut op_rng = XorShift::new(seed, 2);
        let point_offset = op_rng.below(FACT_ROWS);
        let warmup = rounds(1, 0, point_offset, &mut op_rng);
        let n_rounds = n_ops.div_ceil(SHAPES.len()).max(1);
        let mut ops = rounds(n_rounds, 1, point_offset, &mut op_rng);
        for (i, op) in ops.iter_mut().enumerate() {
            op.keep = i < SHAPES.len() || i % ORACLE_EVERY == 0;
        }
        let mut digest = Digest::new();
        digest.str(&facts);
        digest.str(&dim);
        warmup
            .iter()
            .chain(&ops)
            .for_each(|op| op.digest(&mut digest));
        Adhoc {
            facts,
            dim,
            warmup,
            ops,
            digest: digest.finish(),
        }
    }

    fn service(&self) -> SqlShare {
        let mut service = SqlShare::new();
        service
            .register_user(USER, "bench@example.org")
            .expect("fresh user");
        let options = IngestOptions::default();
        let (_, facts) = service
            .upload(USER, "facts", &self.facts, &options)
            .expect("upload facts");
        let (_, dim) = service
            .upload(USER, "dim", &self.dim, &options)
            .expect("upload dim");
        assert_eq!(
            (facts.rows, dim.rows),
            (FACT_ROWS, DIM_ROWS),
            "header row detected"
        );
        service
    }

    fn sql_of(&self, idx: usize) -> String {
        let Action::Query(req) = &self.ops[idx].action else {
            unreachable!("adhoc ops are queries");
        };
        let body = json::parse(&req.body).expect("generated body");
        body.get("sql")
            .and_then(Json::as_str)
            .expect("sql field")
            .to_string()
    }
}

/// Rows of a results body, each cell as the text the REST layer sent.
fn body_rows(body: &[u8]) -> Option<Vec<Vec<String>>> {
    let doc = json::parse(std::str::from_utf8(body).ok()?).ok()?;
    doc.get("rows")?
        .as_array()?
        .iter()
        .map(|row| {
            row.as_array()?
                .iter()
                .map(|cell| cell.as_str().map(str::to_string))
                .collect()
        })
        .collect()
}

/// Equal as text, or both numbers within a relative 1e-9: the parallel
/// and vectorized engines add floats in another order than the oracle.
fn cells_match(a: &str, b: &str) -> bool {
    if a == b {
        return true;
    }
    match (a.parse::<f64>(), b.parse::<f64>()) {
        (Ok(x), Ok(y)) => (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0),
        _ => false,
    }
}

impl Workload for Adhoc {
    fn kinds(&self) -> &'static [&'static str] {
        &SHAPES
    }

    fn primary(&self) -> u8 {
        JOIN_AGG
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
        vec![format!(
            "tables: bench.facts {FACT_ROWS} rows ({} bytes of CSV), bench.dim {DIM_ROWS} rows; \
             ephemeral service; status polled every {:?}",
            self.facts.len(),
            crate::ops::POLL_INTERVAL
        )]
    }

    fn start(&mut self) -> ServerHandle {
        let server = start_server(self.service());
        let mut client = Client::new(server.addr());
        for (i, op) in self.warmup.iter().enumerate() {
            assert!(
                exec(&mut client, i as u32, op, None).ok,
                "warm-up query failed"
            );
        }
        server
    }

    fn verify(&mut self, server: ServerHandle, pass: &Pass) -> Vec<Check> {
        // The oracle: the row interpreter, serial, nothing cached.
        let (mut oracle, result_hits) =
            server.with_service(|s| (s.engine().clone(), s.cache_stats().result_hits));
        server.shutdown();
        oracle.set_vectorized(false);
        oracle.set_max_dop(1);
        oracle.disable_cache();
        let started = Instant::now();
        let mut wrong = Vec::new();
        for (idx, body) in &pass.samples {
            let idx = *idx as usize;
            let text = self.sql_of(idx);
            let expect: Option<Vec<Vec<String>>> = oracle.run(&text).ok().map(|out| {
                out.rows
                    .iter()
                    .map(|row| row.iter().map(|v| v.to_text()).collect())
                    .collect()
            });
            let (Some(mut expect), Some(mut got)) = (expect, body_rows(body)) else {
                wrong.push(idx);
                continue;
            };
            if self.ops[idx].kind != TOPK {
                expect.sort();
                got.sort();
            }
            let same = expect.len() == got.len()
                && !expect.is_empty()
                && expect.iter().zip(&got).all(|(e, g)| {
                    e.len() == g.len() && e.iter().zip(g).all(|(a, b)| cells_match(a, b))
                });
            if !same {
                wrong.push(idx);
            }
        }
        vec![
            Check::new(
                format!(
                    "{} sampled results (first round and every {ORACLE_EVERY}th query) equal the \
                     row-engine oracle at DOP 1 ({:.1} s); mismatching ops: {wrong:?}",
                    pass.samples.len(),
                    started.elapsed().as_secs_f64()
                ),
                wrong.is_empty() && !pass.samples.is_empty(),
            ),
            Check::new(
                format!("result cache never hit ({result_hits} hits): every constant is fresh"),
                result_hits == 0,
            ),
        ]
    }

    fn walk(&mut self, range: Range<usize>, tracer: &mut Tracer, layers: &mut Layers) {
        let twin = self.service();
        let cold = layers::cold_engine(&twin);
        for i in range.clone() {
            layers::walk_query(&twin, &cold, i as u32, &self.ops[i], tracer);
        }
        // The two shapes the parallel executor spreads over cores, serial.
        for (shape, metric) in [
            (1u8, "engine.exec_group_agg_dop1_p50_ms"),
            (JOIN_AGG, "engine.exec_join_agg_dop1_p50_ms"),
        ] {
            let times: Vec<f64> = range
                .clone()
                .filter(|&i| self.ops[i].kind == shape)
                .take(9)
                .map(|i| {
                    let text = self.sql_of(i);
                    let t0 = Instant::now();
                    cold.run_with_dop(&text, 1).expect("serial run");
                    t0.elapsed().as_secs_f64() * 1e3
                })
                .collect();
            layers.set(metric, layers::p50(&times));
        }
        // What the set-up pays for the upload: ingest of the facts CSV.
        let t0 = Instant::now();
        sqlshare_ingest::ingest_text("facts", &self.facts, &IngestOptions::default())
            .expect("ingest facts");
        let ingest_s = t0.elapsed().as_secs_f64();
        layers.set("ingest.ingest_text_p50_ms", ingest_s * 1e3);
        layers.set(
            "ingest.mb_per_s",
            self.facts.len() as f64 / 1e6 / ingest_s.max(1e-9),
        );
    }
}
