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
//! repository benchmark (`benchmark/`). Needs `http.rs` declared beside
//! it as `mod http`.

use super::http::{HttpClient, ReplayOp, XorShift};
use sqlshare_common::json::Json;
use sqlshare_core::SqlShare;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::time::Duration;

/// Backoff-and-retry attempts per request after a shed (`429`/`503` +
/// `Retry-After`) before the shed is reported as the final status.
const MAX_RETRIES: u32 = 3;
/// Ceiling on any single backoff sleep (the hint is in whole seconds; a
/// replay cannot sleep that long per shed).
const BACKOFF_CAP: Duration = Duration::from_millis(100);

/// Backoff before retry number `attempt` (0-based) given the server's
/// `Retry-After` hint in seconds. The hint is honored with capped
/// exponential backoff: the first retry sleeps roughly the hinted
/// duration (clamped to [`BACKOFF_CAP`]), each subsequent retry doubles
/// it (still clamped), and a deterministic jitter in [50%, 100%] of the
/// computed delay keeps staggered clients from re-converging on the same
/// instant. Deterministic given the rng state.
fn backoff_delay(hint_secs: u64, attempt: u32, rng: &mut XorShift) -> Duration {
    let cap_ms = BACKOFF_CAP.as_millis() as u64;
    let hint_ms = hint_secs.saturating_mul(1000).clamp(1, cap_ms);
    let exp_ms = hint_ms.saturating_mul(1 << attempt.min(10)).min(cap_ms);
    let half = (exp_ms / 2).max(1);
    let jittered = half + rng.below(half as usize + 1) as u64;
    Duration::from_millis(jittered)
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
/// starting offset, honoring `Retry-After` up to [`MAX_RETRIES`] times
/// per request.
pub fn run_step(
    addr: SocketAddr,
    ops: &[ReplayOp],
    concurrency: usize,
    requests_per_client: usize,
) -> StepStats {
    assert!(!ops.is_empty());
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
                                        matches!(resp.status, 429 | 503) && attempt < MAX_RETRIES
                                    });
                                    if let Some(hint) = hint {
                                        std::thread::sleep(backoff_delay(hint, attempt, &mut rng));
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
                                Err(_) => stats.io_errors += 1,
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

/// Nearest-rank percentile over an ascending-sorted slice; `p` is a
/// fraction in (0, 1] (`0.99`, not `99.0`).
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(
        p > 0.0 && p <= 1.0,
        "percentile takes a fraction in (0, 1], got {p}"
    );
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}
