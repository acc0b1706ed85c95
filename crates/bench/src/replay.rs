//! SkyServer-style HTTP load replay (Singh & Gray, MSR TR-2006-190:
//! the SkyServer traffic study this descends from sustained ~7M
//! queries/month at peak — a front end is only "production" if you can
//! measure it under offered load).
//!
//! The harness replays a repetition-weighted, mixed read/write/submit
//! request stream derived from a wlgen corpus against any HTTP endpoint
//! speaking the SQLShare REST interface, at stepped offered
//! concurrency, and reports status-class counts. `tests/http_throughput.rs` runs it against the
//! server in CI; served throughput and latency are measured by the
//! repository benchmark (`benchmark/`).

use sqlshare_common::json::{self, Json};
use sqlshare_core::SqlShare;
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One replayable request.
#[derive(Debug, Clone)]
pub enum ReplayOp {
    Get(String),
    /// Path + JSON body.
    Post(String, String),
}

/// A minimal keep-alive HTTP/1.1 client: one connection, pipelining
/// unused (request/response lockstep), chunked and Content-Length
/// framed responses both understood, transparent reconnect when the
/// server closes (the reconnect counter is part of the measurement).
pub struct HttpClient {
    addr: SocketAddr,
    stream: Option<BufReader<TcpStream>>,
    pub reconnects: u64,
    pub bytes_read: u64,
}

/// A decoded response.
#[derive(Debug)]
pub struct HttpResponse {
    pub status: u16,
    pub body: Vec<u8>,
    /// Parsed `Retry-After` header, when the server sent one (it does
    /// on every 429/503).
    pub retry_after: Option<u64>,
}

impl HttpClient {
    pub fn new(addr: SocketAddr) -> HttpClient {
        HttpClient {
            addr,
            stream: None,
            reconnects: 0,
            bytes_read: 0,
        }
    }

    fn ensure_connected(&mut self) -> io::Result<()> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_read_timeout(Some(Duration::from_secs(30)))?;
            stream.set_nodelay(true)?;
            self.stream = Some(BufReader::new(stream));
            self.reconnects += 1;
        }
        Ok(())
    }

    /// Issue one request, reconnecting (once) if a reused connection
    /// turns out to be dead.
    pub fn request(&mut self, op: &ReplayOp) -> io::Result<HttpResponse> {
        let had_stream = self.stream.is_some();
        match self.try_request(op) {
            Ok(r) => Ok(r),
            Err(e) if had_stream => {
                // Keep-alive connection died under us (idle reap,
                // server restart): one fresh attempt.
                let _ = e;
                self.stream = None;
                self.try_request(op)
            }
            Err(e) => Err(e),
        }
    }

    fn try_request(&mut self, op: &ReplayOp) -> io::Result<HttpResponse> {
        self.ensure_connected()?;
        let reader = self.stream.as_mut().expect("just connected");
        let raw = match op {
            ReplayOp::Get(path) => {
                format!("GET {path} HTTP/1.1\r\nhost: bench\r\n\r\n").into_bytes()
            }
            ReplayOp::Post(path, body) => format!(
                "POST {path} HTTP/1.1\r\nhost: bench\r\ncontent-length: {}\r\n\r\n{body}",
                body.len()
            )
            .into_bytes(),
        };
        reader.get_mut().write_all(&raw)?;

        // Status line.
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        self.bytes_read += line.len() as u64;
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or(io::ErrorKind::InvalidData)?;

        // Headers.
        let mut content_length: Option<usize> = None;
        let mut chunked = false;
        let mut close = false;
        let mut retry_after = None;
        loop {
            let mut header = String::new();
            if reader.read_line(&mut header)? == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            self.bytes_read += header.len() as u64;
            let header = header.trim();
            if header.is_empty() {
                break;
            }
            let lower = header.to_ascii_lowercase();
            if let Some(v) = lower.strip_prefix("content-length:") {
                content_length = v.trim().parse().ok();
            } else if lower.starts_with("transfer-encoding:") && lower.contains("chunked") {
                chunked = true;
            } else if lower.starts_with("connection:") && lower.contains("close") {
                close = true;
            } else if let Some(v) = lower.strip_prefix("retry-after:") {
                retry_after = v.trim().parse().ok();
            }
        }

        // Body.
        let mut body = Vec::new();
        if chunked {
            loop {
                let mut size_line = String::new();
                if reader.read_line(&mut size_line)? == 0 {
                    return Err(io::ErrorKind::UnexpectedEof.into());
                }
                self.bytes_read += size_line.len() as u64;
                let size = usize::from_str_radix(size_line.trim(), 16)
                    .map_err(|_| io::ErrorKind::InvalidData)?;
                let mut chunk = vec![0u8; size + 2]; // data + CRLF
                reader.read_exact(&mut chunk)?;
                self.bytes_read += chunk.len() as u64;
                if size == 0 {
                    break;
                }
                chunk.truncate(size);
                body.extend_from_slice(&chunk);
            }
        } else if let Some(n) = content_length {
            body.resize(n, 0);
            reader.read_exact(&mut body)?;
            self.bytes_read += n as u64;
        }

        if close {
            self.stream = None;
        }
        Ok(HttpResponse {
            status,
            body,
            retry_after,
        })
    }
}

/// A replay client that follows the primary across failover: it sends
/// to one node until that node dies (connection error) or refuses
/// writes (503 — a standby's `read-only` rejection frames as 503 +
/// `Retry-After`), then probes every configured endpoint's
/// `GET /api/ready` for `role == "primary"` and retries there. Probing
/// repeats for `probe_rounds` rounds because promotion takes a lease
/// lapse to trigger — the cluster legitimately has no primary for a
/// few heartbeats.
pub struct FailoverClient {
    endpoints: Vec<SocketAddr>,
    active: usize,
    client: HttpClient,
    rng: XorShift,
    /// Times the client switched to a different node.
    pub failovers: u64,
    /// Reconnects/bytes accumulated across discarded clients.
    pub reconnects: u64,
    pub bytes_read: u64,
    /// Probe rounds before giving up on finding a primary.
    pub probe_rounds: usize,
    /// Pause between probe rounds (jittered ±50%).
    pub probe_pause: Duration,
}

impl FailoverClient {
    pub fn new(endpoints: Vec<SocketAddr>) -> FailoverClient {
        assert!(!endpoints.is_empty(), "need at least one endpoint");
        FailoverClient {
            client: HttpClient::new(endpoints[0]),
            endpoints,
            active: 0,
            rng: XorShift::new(0xFA11_0E4D),
            failovers: 0,
            reconnects: 0,
            bytes_read: 0,
            probe_rounds: 120,
            probe_pause: Duration::from_millis(50),
        }
    }

    /// The node requests currently go to.
    pub fn active_addr(&self) -> SocketAddr {
        self.endpoints[self.active]
    }

    fn probe_role(addr: SocketAddr) -> Option<String> {
        let mut probe = HttpClient::new(addr);
        let resp = probe.request(&ReplayOp::Get("/api/ready".into())).ok()?;
        let doc = json::parse(&String::from_utf8_lossy(&resp.body)).ok()?;
        Some(doc.get("role")?.as_str()?.to_string())
    }

    fn switch_to(&mut self, idx: usize) {
        self.reconnects += self.client.reconnects;
        self.bytes_read += self.client.bytes_read;
        if idx != self.active {
            self.failovers += 1;
        }
        self.active = idx;
        self.client = HttpClient::new(self.endpoints[idx]);
    }

    /// Issue one request, retargeting to whichever node reports itself
    /// primary when the active one is gone or read-only.
    pub fn request(&mut self, op: &ReplayOp) -> io::Result<HttpResponse> {
        let mut last: io::Result<HttpResponse> = self.client.request(op);
        for _ in 0..self.probe_rounds {
            match &last {
                Ok(resp) if resp.status != 503 => return last,
                _ => {}
            }
            if let Some(idx) = (0..self.endpoints.len())
                .find(|&i| Self::probe_role(self.endpoints[i]).as_deref() == Some("primary"))
            {
                let moved = idx != self.active;
                self.switch_to(idx);
                last = self.client.request(op);
                if moved {
                    continue; // judge the retry on the new node
                }
            }
            let base = self.probe_pause.as_millis().max(2) as u64;
            let jitter = base / 2 + self.rng.below(base as usize / 2 + 1) as u64;
            std::thread::sleep(Duration::from_millis(jitter));
        }
        last
    }
}

/// How a replay client reacts to a shed (`429`/`503` + `Retry-After`).
///
/// The server's hint is honored with capped exponential backoff: the
/// first retry sleeps roughly the hinted duration (clamped to `cap`),
/// each subsequent retry doubles it (still clamped), and a
/// deterministic jitter in [50%, 100%] of the computed delay keeps
/// staggered clients from re-converging on the same instant.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Backoff-and-retry attempts per request before the shed is
    /// reported as the final status.
    pub max_retries: u32,
    /// Ceiling on any single backoff sleep (the hint is in whole
    /// seconds; a benchmark cannot sleep that long per shed).
    pub cap: Duration,
}

impl RetryPolicy {
    /// Honor `Retry-After` (the default): up to 3 retries, 100 ms cap.
    pub fn obedient() -> RetryPolicy {
        RetryPolicy {
            max_retries: 3,
            cap: Duration::from_millis(100),
        }
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::obedient()
    }
}

/// Backoff before retry number `attempt` (0-based) given the server's
/// `Retry-After` hint in seconds. Deterministic given the rng state.
fn backoff_delay(hint_secs: u64, attempt: u32, policy: RetryPolicy, rng: &mut XorShift) -> Duration {
    let cap_ms = policy.cap.as_millis() as u64;
    if cap_ms == 0 {
        return Duration::ZERO;
    }
    let hint_ms = hint_secs.saturating_mul(1000).clamp(1, cap_ms);
    let exp_ms = hint_ms.saturating_mul(1 << attempt.min(10)).min(cap_ms);
    let half = (exp_ms / 2).max(1);
    let jittered = half + rng.below(half as usize + 1) as u64;
    Duration::from_millis(jittered)
}

/// Deterministic xorshift64* — the workload must be reproducible and
/// the harness keeps zero dependencies, shims included.
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> XorShift {
        XorShift(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// Mix ratios for [`build_workload`], in percent of total requests.
#[derive(Debug, Clone, Copy)]
pub struct MixSpec {
    /// `POST /api/queries` submissions (repetition-weighted SQL).
    pub submit_pct: usize,
    /// Catalog mutations (`POST .../permissions` visibility toggles).
    pub mutate_pct: usize,
    /// Full-CSV downloads (large streamed bodies).
    pub download_pct: usize,
}

impl MixSpec {
    /// The read-heavy keep-alive mix the acceptance bar is measured on.
    pub fn read_heavy() -> MixSpec {
        MixSpec {
            submit_pct: 10,
            mutate_pct: 3,
            download_pct: 2,
        }
    }

    /// Pure reads — for asserting a clean server emits no 429s at all.
    pub fn read_only() -> MixSpec {
        MixSpec {
            submit_pct: 0,
            mutate_pct: 0,
            download_pct: 0,
        }
    }
}

/// Derive a replay stream from a corpus service: previews and listings
/// over its real datasets, query submissions re-running its query log
/// weighted by how often each SQL text actually repeated (the paper's
/// workloads are heavy-tailed — replay should be too), visibility
/// toggles as the mutation traffic, and occasional full downloads.
pub fn build_workload(service: &SqlShare, total: usize, mix: MixSpec, seed: u64) -> Vec<ReplayOp> {
    let mut rng = XorShift::new(seed);

    // Datasets the replay may touch, keyed so preview/download always
    // pass the owner as the acting user (never a 403).
    let datasets: Vec<(String, String)> = service
        .datasets()
        .map(|d| (d.name.owner.clone(), d.name.name.clone()))
        .collect();
    assert!(!datasets.is_empty(), "corpus has no datasets to replay");

    // Repetition-weighted submission pool: each successful log entry
    // contributes one ticket, so SQL that ran 40 times in the corpus is
    // 40x as likely to be replayed — and lands in the result cache.
    let log = service.log();
    let mut sql_weight: HashMap<(String, String), usize> = HashMap::new();
    for entry in log.entries().iter().filter(|e| e.outcome.is_success()) {
        *sql_weight
            .entry((entry.user.clone(), entry.sql.clone()))
            .or_insert(0) += 1;
    }
    drop(log);
    let mut submit_pool: Vec<(String, String, usize)> = sql_weight
        .into_iter()
        .map(|((user, sql), w)| (user, sql, w))
        .collect();
    submit_pool.sort(); // deterministic order before weighted sampling
    let total_weight: usize = submit_pool.iter().map(|(_, _, w)| w).sum();

    let pick_submit = |rng: &mut XorShift| -> ReplayOp {
        let mut ticket = rng.below(total_weight.max(1));
        for (user, sql, w) in &submit_pool {
            if ticket < *w {
                let body = Json::object([
                    ("user", Json::str(user.clone())),
                    ("sql", Json::str(sql.clone())),
                ]);
                return ReplayOp::Post("/api/queries".into(), body.to_string());
            }
            ticket -= w;
        }
        ReplayOp::Get("/api/ready".into())
    };

    let mut ops = Vec::with_capacity(total);
    for _ in 0..total {
        let roll = rng.below(100);
        let op = if roll < mix.submit_pct && total_weight > 0 {
            pick_submit(&mut rng)
        } else if roll < mix.submit_pct + mix.mutate_pct {
            let (owner, name) = &datasets[rng.below(datasets.len())];
            let body = Json::object([
                ("user", Json::str(owner.clone())),
                ("visibility", Json::str("public")),
            ]);
            ReplayOp::Post(
                format!("/api/datasets/{owner}/{name}/permissions"),
                body.to_string(),
            )
        } else if roll < mix.submit_pct + mix.mutate_pct + mix.download_pct {
            let (owner, name) = &datasets[rng.below(datasets.len())];
            ReplayOp::Get(format!("/api/datasets/{owner}/{name}/download?user={owner}"))
        } else {
            // Read rotation: listings, previews, service stats.
            match rng.below(5) {
                0 => ReplayOp::Get("/api/datasets".into()),
                1 => ReplayOp::Get("/api/cache".into()),
                2 => ReplayOp::Get("/api/scheduler".into()),
                _ => {
                    let (owner, name) = &datasets[rng.below(datasets.len())];
                    ReplayOp::Get(format!("/api/datasets/{owner}/{name}?user={owner}"))
                }
            }
        };
        ops.push(op);
    }
    ops
}

/// What one replay step observed: requests issued and how each ended
/// (its final status, after any `Retry-After` backoff). Timings are the
/// repository benchmark's job (`benchmark/`), not this harness's.
#[derive(Debug, Clone, Default)]
pub struct StepStats {
    pub requests: u64,
    pub count_2xx: u64,
    pub count_429: u64,
    pub count_other_4xx: u64,
    pub count_5xx: u64,
    pub io_errors: u64,
}

/// Replay `ops` against `addr` from `concurrency` client threads, each
/// issuing `requests_per_client` requests round-robin from a staggered
/// starting offset, honoring `Retry-After` with the default
/// [`RetryPolicy`].
pub fn run_step(
    addr: SocketAddr,
    ops: &[ReplayOp],
    concurrency: usize,
    requests_per_client: usize,
) -> StepStats {
    assert!(!ops.is_empty());
    let policy = RetryPolicy::default();
    let per_client: Vec<StepStats> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..concurrency)
            .map(|i| {
                scope.spawn(move || {
                    let mut client = HttpClient::new(addr);
                    let mut rng =
                        XorShift::new(0xB0FF ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                    let mut stats = StepStats::default();
                    let start = (i * ops.len()) / concurrency.max(1);
                    for k in 0..requests_per_client {
                        let op = &ops[(start + k) % ops.len()];
                        let mut attempt = 0u32;
                        loop {
                            match client.request(op) {
                                Ok(resp) => {
                                    let hint = resp.retry_after.filter(|_| {
                                        matches!(resp.status, 429 | 503)
                                            && attempt < policy.max_retries
                                    });
                                    if let Some(hint) = hint {
                                        std::thread::sleep(backoff_delay(
                                            hint, attempt, policy, &mut rng,
                                        ));
                                        attempt += 1;
                                        continue;
                                    }
                                    match resp.status {
                                        200..=299 => stats.count_2xx += 1,
                                        429 => stats.count_429 += 1,
                                        400..=499 => stats.count_other_4xx += 1,
                                        _ => stats.count_5xx += 1,
                                    }
                                }
                                Err(_) => {
                                    stats.io_errors += 1;
                                    client.stream = None;
                                }
                            }
                            break;
                        }
                    }
                    stats
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let mut total = StepStats {
        requests: (concurrency * requests_per_client) as u64,
        ..StepStats::default()
    };
    for c in per_client {
        total.count_2xx += c.count_2xx;
        total.count_429 += c.count_429;
        total.count_other_4xx += c.count_other_4xx;
        total.count_5xx += c.count_5xx;
        total.io_errors += c.io_errors;
    }
    total
}

/// Nearest-rank percentile over an ascending-sorted slice.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&[7], 0.5), 7);
        assert_eq!(percentile(&[], 0.5), 0);
    }

    #[test]
    fn workload_mix_respects_ratios_and_is_deterministic() {
        let mut service = SqlShare::new();
        service.register_user("ada", "a@uw.edu").unwrap();
        service
            .upload("ada", "tides", "a,b\n1,2\n3,4\n", &Default::default())
            .unwrap();
        service.run_query("ada", "SELECT a FROM ada.tides").unwrap();
        service.run_query("ada", "SELECT a FROM ada.tides").unwrap();

        let mix = MixSpec::read_heavy();
        let ops = build_workload(&service, 1000, mix, 7);
        let ops2 = build_workload(&service, 1000, mix, 7);
        assert_eq!(ops.len(), 1000);
        let render = |ops: &[ReplayOp]| -> Vec<String> {
            ops.iter()
                .map(|op| match op {
                    ReplayOp::Get(p) => format!("GET {p}"),
                    ReplayOp::Post(p, b) => format!("POST {p} {b}"),
                })
                .collect()
        };
        assert_eq!(render(&ops), render(&ops2), "workload must be deterministic");

        let submits = ops
            .iter()
            .filter(|op| matches!(op, ReplayOp::Post(p, _) if p == "/api/queries"))
            .count();
        assert!(
            (50..=160).contains(&submits),
            "~10% submissions expected, got {submits}"
        );
        let read_only = build_workload(&service, 500, MixSpec::read_only(), 7);
        assert!(read_only
            .iter()
            .all(|op| matches!(op, ReplayOp::Get(_))));
    }
}
