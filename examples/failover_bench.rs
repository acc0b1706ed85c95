//! Kill-primary failover bench: zero acknowledged-write loss, measured.
//!
//! Boots a primary/standby pair over throwaway data directories with
//! quorum acks (`SQLSHARE_REPL_ACK=quorum` semantics: a mutation is
//! acknowledged only after the standby confirms its LSN). A serial
//! driver uploads datasets through the failover-aware replay client,
//! kills the primary server halfway through, waits for the standby to
//! promote itself on the lapsed lease, and finishes the run against
//! the survivor. Every upload the driver saw acknowledged must then be
//! readable on the survivor — that is the zero-loss claim in bench
//! form (the randomized mid-ack kills live in
//! `tests/failover_differential.rs`).
//!
//!     cargo run --release -p sqlshare-server --example failover_bench
//!
//! `SQLSHARE_FAILOVER_OPS` overrides the op count (default 120).

#[allow(dead_code)]
#[path = "../tests/support/http.rs"]
mod http;
#[allow(dead_code)]
#[path = "../tests/support/replay.rs"]
mod replay;

use http::{FailoverClient, ReplayOp};
use replay::percentile;
use sqlshare_core::{AckMode, DurableOptions, FsyncPolicy, SqlShare};
use sqlshare_server::{HttpConfig, Server};
use std::time::{Duration, Instant};

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "sqlshare-failover-bench-{}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn main() {
    let ops: usize = std::env::var("SQLSHARE_FAILOVER_OPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(120);
    let heartbeat = Duration::from_millis(20);

    let dir_a = temp_dir("primary");
    let dir_b = temp_dir("standby");

    // Primary: quorum acks — uploads only return once the standby has
    // the record. The ack timeout is generous because the bench cares
    // about loss, not tail latency.
    let mut primary_svc = SqlShare::open(
        DurableOptions::new(&dir_a)
            .fsync(FsyncPolicy::Off)
            .snapshot_every(u64::MAX),
    )
    .expect("open primary");
    primary_svc
        .register_user("ada", "ada@example.org")
        .expect("register user");
    let mut primary_cfg = HttpConfig::default();
    primary_cfg.repl.ack = AckMode::Quorum;
    primary_cfg.repl.quorum = 1;
    primary_cfg.repl.ack_timeout = Duration::from_secs(10);
    primary_cfg.repl.heartbeat = heartbeat;
    let primary = Server::start(primary_svc, "127.0.0.1:0", primary_cfg).expect("bind primary");
    let primary_addr = primary.addr();

    // Standby: follows the primary, promotes itself when the lease
    // lapses (three missed heartbeats).
    let standby_svc = SqlShare::open(
        DurableOptions::new(&dir_b)
            .fsync(FsyncPolicy::Off)
            .snapshot_every(u64::MAX),
    )
    .expect("open standby");
    let mut standby_cfg = HttpConfig::default();
    standby_cfg.repl.primary = Some(primary_addr.to_string());
    standby_cfg.repl.heartbeat = heartbeat;
    standby_cfg.repl.lease_misses = 3;
    let standby = Server::start(standby_svc, "127.0.0.1:0", standby_cfg).expect("bind standby");
    let standby_addr = standby.addr();

    eprintln!("primary {primary_addr}, standby {standby_addr}, {ops} quorum-acked uploads");

    let mut client = FailoverClient::new(vec![primary_addr, standby_addr]);
    let mut acked: Vec<String> = Vec::new();
    let mut ack_micros: Vec<u64> = Vec::new();
    let kill_at = ops / 2;
    let mut primary_handle = Some(primary);
    let started = Instant::now();
    for i in 0..ops {
        if i == kill_at {
            eprintln!("  killing primary after {i} acked uploads...");
            primary_handle.take().unwrap().shutdown();
        }
        let name = format!("run_{i:04}");
        let body = format!(
            r#"{{"user":"ada","name":"{name}","content":"a,b\n{i},{}\n"}}"#,
            i * 2
        );
        let op = ReplayOp::Post("/api/datasets".into(), body);
        let t0 = Instant::now();
        match client.request(&op) {
            Ok(resp) if resp.status < 300 => {
                ack_micros.push(t0.elapsed().as_micros() as u64);
                acked.push(name);
            }
            Ok(resp) => eprintln!("  upload {name} not acked: status {}", resp.status),
            Err(e) => eprintln!("  upload {name} not acked: {e}"),
        }
    }
    let elapsed = started.elapsed();

    // The zero-loss audit: every acknowledged upload must be readable
    // on the survivor.
    let mut missing = 0usize;
    for name in &acked {
        let op = ReplayOp::Get(format!("/api/datasets/ada/{name}?user=ada"));
        match client.request(&op) {
            Ok(resp) if resp.status == 200 => {}
            other => {
                missing += 1;
                eprintln!("  ACKED BUT MISSING on survivor: {name} ({other:?})");
            }
        }
    }

    let mut sorted = ack_micros.clone();
    sorted.sort_unstable();
    let p50 = percentile(&sorted, 0.50);
    let p99 = percentile(&sorted, 0.99);
    eprintln!(
        "acked {}/{} uploads in {:.2}s (quorum ack p50 {p50}us, p99 {p99}us), \
         {} failover(s), survivor at {}",
        acked.len(),
        ops,
        elapsed.as_secs_f64(),
        client.failovers,
        client.active_addr()
    );
    standby.shutdown();
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);

    assert_eq!(missing, 0, "{missing} acknowledged uploads lost in failover");
    assert!(client.failovers >= 1, "client never failed over");
    assert!(
        acked.len() > kill_at,
        "no uploads succeeded after the failover"
    );
    eprintln!("zero acknowledged-write loss: PASS");
}
