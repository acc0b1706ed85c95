//! `browse`: read-only web-UI traffic against an ephemeral service that
//! holds the wlgen SQLShare corpus. `server`, `core::rest` dispatch and
//! `common::json` do nearly all the work, `engine` and `storage` none.

use super::{corpus, read_ops, start_server, Check, Corpus, Workload, DOWNLOAD, READ_KINDS, STATS};
use crate::http::Client;
use crate::layers::{self, Layers};
use crate::ops::{exec, Action, Op, Pass};
use crate::rng::{Digest, XorShift};
use crate::trace::Tracer;
use sqlshare_core::rest;
use sqlshare_server::ServerHandle;
use std::ops::Range;

/// Reads replayed before the timed phase (not timed, not counted).
const WARMUP_READS: usize = 2000;
/// Every this-many-th op keeps its body for the byte-equality check.
const SAMPLE_EVERY: usize = 101;

pub struct Browse {
    corpus: Option<Corpus>,
    warmup: Vec<Op>,
    ops: Vec<Op>,
    digest: u64,
    datasets: usize,
}

impl Browse {
    pub fn generate(seed: u64, n_ops: usize) -> Browse {
        let corpus = corpus();
        let mut rng = XorShift::new(seed, 1);
        let mut ops = read_ops(n_ops, &corpus.datasets, &mut rng);
        rng.shuffle(&mut ops);
        for (i, op) in ops.iter_mut().enumerate() {
            // Statistics bodies change with every request; the others
            // are a pure function of the corpus.
            op.keep = i % SAMPLE_EVERY == 0 && op.kind != STATS;
        }
        let mut warm_rng = XorShift::new(seed, 2);
        let mut warmup = read_ops(WARMUP_READS, &corpus.datasets, &mut warm_rng);
        warm_rng.shuffle(&mut warmup);
        let mut digest = Digest::new();
        warmup
            .iter()
            .chain(&ops)
            .for_each(|op| op.digest(&mut digest));
        Browse {
            datasets: corpus.datasets.len(),
            corpus: Some(corpus),
            warmup,
            ops,
            digest: digest.finish(),
        }
    }
}

impl Workload for Browse {
    fn kinds(&self) -> &'static [&'static str] {
        &READ_KINDS
    }

    fn primary(&self) -> u8 {
        super::PREVIEW
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
        vec![format!(
            "corpus: wlgen sqlshare seed 42 scale 0.02, {} datasets served; ephemeral service (no data directory)",
            self.datasets
        )]
    }

    fn start(&mut self) -> ServerHandle {
        let corpus = self.corpus.take().unwrap_or_else(corpus);
        let server = start_server(corpus.service);
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
        let mismatches = server.with_service(|service| {
            pass.samples
                .iter()
                .filter(|(idx, body)| {
                    let Action::One(req) = &self.ops[*idx as usize].action else {
                        return true;
                    };
                    let expect =
                        rest::dispatch_read(service, &rest::Request::get(req.path.as_str()));
                    expect.body.to_string().as_bytes() != body.as_slice()
                })
                .count()
        });
        let downloads = pass
            .samples
            .iter()
            .filter(|(idx, _)| self.ops[*idx as usize].kind == DOWNLOAD)
            .count();
        server.shutdown();
        vec![Check::new(
            format!(
                "{} sampled bodies ({downloads} downloads) byte-equal to in-process rest::dispatch_read",
                pass.samples.len()
            ),
            mismatches == 0 && !pass.samples.is_empty(),
        )]
    }

    fn walk(&mut self, range: Range<usize>, tracer: &mut Tracer, _layers: &mut Layers) {
        let twin = corpus().service;
        for i in range {
            layers::walk_read(&twin, i as u32, &self.ops[i], tracer);
        }
    }
}
