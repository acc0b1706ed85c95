//! Ops, the executor that runs one op over HTTP, and the closed-loop
//! driver: every client sends its next op only after the previous one
//! was answered, as a SQLShare user waits for the page or the result.

use crate::http::Client;
use crate::procfs;
use crate::rng::Digest;
use crate::trace::{Span, Tracer};
use std::net::SocketAddr;
use std::ops::Range;
use std::sync::Barrier;
use std::time::{Duration, Instant};

pub struct Req {
    pub method: &'static str,
    pub path: String,
    /// Empty means no body.
    pub body: String,
}

impl Req {
    pub fn get(path: impl Into<String>) -> Req {
        Req {
            method: "GET",
            path: path.into(),
            body: String::new(),
        }
    }

    pub fn post(path: impl Into<String>, body: String) -> Req {
        Req {
            method: "POST",
            path: path.into(),
            body,
        }
    }

    pub fn delete(path: impl Into<String>, body: String) -> Req {
        Req {
            method: "DELETE",
            path: path.into(),
            body,
        }
    }
}

pub enum Action {
    One(Req),
    /// Two requests that make one user action (upload a batch, then
    /// append it); the second is sent only if the first succeeded.
    Two(Req, Req),
    /// Query turnaround: submit, poll the status every
    /// [`POLL_INTERVAL`] until it is terminal, fetch the results.
    Query(Req),
}

/// Fixed, so that the wait a poll adds does not depend on the run.
pub const POLL_INTERVAL: Duration = Duration::from_millis(1);

pub struct Op {
    /// Index into the workload's kind names.
    pub kind: u8,
    pub action: Action,
    /// Keep the (last) response body for the correctness checks.
    pub keep: bool,
}

impl Op {
    pub fn digest(&self, d: &mut Digest) {
        d.bytes(&[self.kind]);
        let mut req = |r: &Req| {
            d.str(r.method);
            d.str(&r.path);
            d.str(&r.body);
        };
        match &self.action {
            Action::One(a) | Action::Query(a) => req(a),
            Action::Two(a, b) => {
                req(a);
                req(b);
            }
        }
    }
}

pub struct Outcome {
    pub ok: bool,
    /// Body of the last response received.
    pub body: Vec<u8>,
}

/// The number after `"id":` in a submit answer.
fn job_id(body: &[u8]) -> Option<u64> {
    let text = std::str::from_utf8(body).ok()?;
    let rest = &text[text.find("\"id\"")? + 4..];
    let digits: String = rest
        .chars()
        .skip_while(|c| !c.is_ascii_digit())
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

fn send(client: &mut Client, req: &Req) -> Outcome {
    match client.request(req.method, &req.path, &req.body) {
        Ok(resp) => Outcome {
            ok: resp.ok(),
            body: resp.body,
        },
        Err(_) => Outcome {
            ok: false,
            body: Vec::new(),
        },
    }
}

/// Run one op. With a tracer, record a client-side root span and, for
/// queries, the `submit` / `poll_wait` / `fetch_results` children.
pub fn exec(client: &mut Client, idx: u32, op: &Op, mut tracer: Option<&mut Tracer>) -> Outcome {
    let root = tracer.as_deref_mut().map(|t| (t.reserve(), t.now_us()));
    let outcome = match &op.action {
        Action::One(req) => send(client, req),
        Action::Two(first, second) => {
            let a = send(client, first);
            if a.ok {
                send(client, second)
            } else {
                a
            }
        }
        Action::Query(submit) => {
            let parent = root.map_or(0, |(id, _)| id);
            let phase = |t: &mut Option<&mut Tracer>, name, start| {
                if let Some(t) = t.as_deref_mut() {
                    t.record(parent, idx, name, start, false);
                }
            };
            let start = tracer.as_deref().map_or(0, Tracer::now_us);
            let submitted = send(client, submit);
            phase(&mut tracer, "submit", start);
            match job_id(&submitted.body).filter(|_| submitted.ok) {
                None => Outcome {
                    ok: false,
                    ..submitted
                },
                Some(id) => {
                    let start = tracer.as_deref().map_or(0, Tracer::now_us);
                    let status_path = format!("/api/queries/{id}");
                    let deadline = Instant::now() + Duration::from_secs(60);
                    let complete = loop {
                        let poll = send(client, &Req::get(status_path.as_str()));
                        if !poll.ok || Instant::now() > deadline {
                            break false;
                        }
                        let body = String::from_utf8_lossy(&poll.body);
                        if body.contains("\"complete\"") {
                            break true;
                        }
                        if !body.contains("\"queued\"") && !body.contains("\"running\"") {
                            break false; // failed, timeout or cancelled
                        }
                        std::thread::sleep(POLL_INTERVAL);
                    };
                    phase(&mut tracer, "poll_wait", start);
                    if complete {
                        let start = tracer.as_deref().map_or(0, Tracer::now_us);
                        let results = send(client, &Req::get(format!("{status_path}/results")));
                        phase(&mut tracer, "fetch_results", start);
                        results
                    } else {
                        Outcome {
                            ok: false,
                            body: Vec::new(),
                        }
                    }
                }
            }
        }
    };
    if let (Some(t), Some((id, start))) = (tracer, root) {
        t.record_as(id, idx, "op", start);
    }
    outcome
}

/// One timed op.
#[derive(Clone, Copy)]
pub struct Rec {
    pub op: u32,
    pub nanos: u64,
    /// When the answer arrived, in nanoseconds since the pass began.
    pub end: u64,
    pub ok: bool,
}

/// One of the equal-work segments of a pass.
pub struct Segment {
    pub ops_per_s: f64,
    pub latencies_ms: Vec<f64>,
}

/// What one pass over a range of ops measured.
pub struct Pass {
    pub wall_s: f64,
    /// When the clients were released, on the clock of [`Rec::end`].
    pub begin: u64,
    /// In op order.
    pub recs: Vec<Rec>,
    /// Kept response bodies, by op index.
    pub samples: Vec<(u32, Vec<u8>)>,
    pub bytes_read: u64,
    pub connects: u64,
    pub sheds: u64,
    pub cpu_ms: f64,
    pub ctx_switches: u64,
    pub threads_peak: u64,
    pub spans: Vec<Span>,
}

impl Pass {
    /// The ops and kept bodies of two passes as one, for the checks.
    pub fn joined(&self, other: &Pass) -> Pass {
        Pass {
            wall_s: self.wall_s + other.wall_s,
            begin: self.begin,
            recs: [self.recs.as_slice(), &other.recs].concat(),
            samples: [self.samples.as_slice(), &other.samples].concat(),
            bytes_read: self.bytes_read + other.bytes_read,
            connects: self.connects + other.connects,
            sheds: self.sheds + other.sheds,
            cpu_ms: self.cpu_ms + other.cpu_ms,
            ctx_switches: self.ctx_switches + other.ctx_switches,
            threads_peak: self.threads_peak.max(other.threads_peak),
            spans: Vec::new(),
        }
    }

    pub fn failed(&self) -> u64 {
        self.recs.iter().filter(|r| !r.ok).count() as u64
    }

    pub fn ops_per_s(&self) -> f64 {
        self.recs.len() as f64 / self.wall_s.max(1e-9)
    }

    /// The pass cut, in the order the answers arrived, into consecutive
    /// segments of `segment_ops` ops each (a shorter rest is left out):
    /// per segment, ops of every kind per second of its wall time and
    /// the ascending latencies (ms) of its successful ops of `kind`.
    pub fn segments(&self, ops: &[Op], kind: u8, segment_ops: usize) -> Vec<Segment> {
        let mut by_end: Vec<&Rec> = self.recs.iter().collect();
        by_end.sort_by_key(|r| r.end);
        let mut previous_end = self.begin;
        by_end
            .chunks_exact(segment_ops.max(1))
            .map(|chunk| {
                let end = chunk[chunk.len() - 1].end;
                let wall_s = end.saturating_sub(previous_end) as f64 / 1e9;
                previous_end = end;
                Segment {
                    ops_per_s: chunk.len() as f64 / wall_s.max(1e-9),
                    latencies_ms: crate::stats::sorted(
                        chunk
                            .iter()
                            .filter(|r| r.ok && ops[r.op as usize].kind == kind)
                            .map(|r| r.nanos as f64 / 1e6)
                            .collect(),
                    ),
                }
            })
            .collect()
    }

    /// Latencies (ms, ascending) of the successful ops of one kind.
    pub fn latencies_ms(&self, ops: &[Op], kind: u8) -> Vec<f64> {
        crate::stats::sorted(
            self.recs
                .iter()
                .filter(|r| r.ok && ops[r.op as usize].kind == kind)
                .map(|r| r.nanos as f64 / 1e6)
                .collect(),
        )
    }
}

/// Replay `ops[range]` from `clients` threads, client `i` taking the
/// `i`-th contiguous slice. Returns when every client is done.
pub fn drive(
    addr: SocketAddr,
    ops: &[Op],
    range: Range<usize>,
    clients: usize,
    trace: Option<Instant>,
) -> Pass {
    let clients = clients.max(1);
    let barrier = Barrier::new(clients + 1);
    let len = range.len();
    let usage_before = procfs::usage();
    let mut threads_peak = procfs::threads();
    let epoch = Instant::now();
    let mut started = epoch;
    let results = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let slice = range.start + c * len / clients..range.start + (c + 1) * len / clients;
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut client = Client::new(addr);
                    let mut tracer =
                        trace.map(|epoch| Tracer::new(epoch, 'A', (c as u32 + 1) << 26));
                    let mut recs = Vec::with_capacity(slice.len());
                    let mut samples = Vec::new();
                    barrier.wait();
                    for i in slice {
                        let op = &ops[i];
                        let t0 = Instant::now();
                        let out = exec(&mut client, i as u32, op, tracer.as_mut());
                        let nanos = t0.elapsed().as_nanos() as u64;
                        recs.push(Rec {
                            op: i as u32,
                            nanos,
                            end: epoch.elapsed().as_nanos() as u64,
                            ok: out.ok,
                        });
                        if op.keep {
                            samples.push((i as u32, out.body));
                        }
                    }
                    (
                        recs,
                        samples,
                        client,
                        tracer.map_or(Vec::new(), |t| t.spans),
                    )
                })
            })
            .collect();
        barrier.wait();
        started = Instant::now();
        // The traced pass also samples the thread count; the timed
        // pass leaves the cores to the clients and the server.
        if trace.is_some() {
            while handles.iter().any(|h| !h.is_finished()) {
                threads_peak = threads_peak.max(procfs::threads());
                std::thread::sleep(Duration::from_millis(20));
            }
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect::<Vec<_>>()
    });
    let wall_s = started.elapsed().as_secs_f64();
    let usage_after = procfs::usage();
    threads_peak = threads_peak.max(procfs::threads());

    let mut pass = Pass {
        wall_s,
        begin: started.duration_since(epoch).as_nanos() as u64,
        recs: Vec::with_capacity(len),
        samples: Vec::new(),
        bytes_read: 0,
        connects: 0,
        sheds: 0,
        cpu_ms: usage_after.cpu_ms - usage_before.cpu_ms,
        ctx_switches: usage_after.ctx_switches - usage_before.ctx_switches,
        threads_peak,
        spans: Vec::new(),
    };
    for (recs, samples, client, spans) in results {
        pass.recs.extend(recs);
        pass.samples.extend(samples);
        pass.bytes_read += client.bytes_read;
        pass.connects += client.connects;
        pass.sheds += client.sheds;
        pass.spans.extend(spans);
    }
    pass
}
