//! CI smoke for the replay harness + non-blocking server over real
//! sockets, in well under a minute. Gated behind
//! `SQLSHARE_THROUGHPUT_SMOKE=1` (the CI throughput leg); served
//! throughput and latency are measured by `benchmark/`. The unit tests
//! of `support/replay.rs` live here too, ungated, so they run once.

#[allow(dead_code)]
#[path = "support/http.rs"]
mod http;
#[allow(dead_code)]
#[path = "support/replay.rs"]
mod replay;

use http::ReplayOp;
use replay::{build_workload, percentile, run_step, MixSpec};
use sqlshare_core::SqlShare;
use sqlshare_server::{HttpConfig, Server};

fn gated() -> bool {
    std::env::var("SQLSHARE_THROUGHPUT_SMOKE").as_deref() == Ok("1")
}

fn smoke_service() -> SqlShare {
    let mut s = SqlShare::new();
    s.register_user("ada", "ada@uw.edu").unwrap();
    let mut csv = String::from("x,y\n");
    for i in 0..500 {
        csv.push_str(&format!("{},{}\n", i, i % 13));
    }
    s.upload("ada", "numbers", &csv, &Default::default()).unwrap();
    s.run_query("ada", "SELECT x FROM ada.numbers").unwrap();
    s.run_query("ada", "SELECT x FROM ada.numbers").unwrap();
    s
}

/// Unloaded (offered load well inside every limit): zero 5xx, zero
/// 429s, zero dropped requests on the read-only mix.
#[test]
fn smoke_unloaded_read_replay_is_clean() {
    if !gated() {
        return;
    }
    let server = Server::start(smoke_service(), "127.0.0.1:0", HttpConfig::default())
        .expect("bind server");
    let ops = server.with_service(|s| build_workload(s, 256, MixSpec::read_only(), 11));
    let stats = run_step(server.addr(), &ops, 4, 64);
    server.shutdown();
    assert_eq!(stats.io_errors, 0, "unloaded replay must not drop requests");
    assert_eq!(stats.count_5xx, 0, "unloaded replay must not 5xx");
    assert_eq!(stats.count_429, 0, "read-only replay under capacity must not shed");
    assert_eq!(stats.count_2xx, stats.requests);
}

/// Mixed traffic stays 5xx-free even with submissions and mutations in
/// the stream (the scheduler may legitimately 429 a submission burst).
#[test]
fn smoke_mixed_replay_has_no_server_errors() {
    if !gated() {
        return;
    }
    let server = Server::start(smoke_service(), "127.0.0.1:0", HttpConfig::default())
        .expect("bind server");
    let ops = server.with_service(|s| build_workload(s, 256, MixSpec::read_heavy(), 11));
    let stats = run_step(server.addr(), &ops, 4, 64);
    server.shutdown();
    assert_eq!(stats.io_errors, 0);
    assert_eq!(stats.count_5xx, 0, "mixed replay must not 5xx");
}

/// Past the admission limit the excess turns into 429s — and still no
/// 5xx or connection drops.
#[test]
fn smoke_past_admission_limit_sheds_as_429() {
    if !gated() {
        return;
    }
    let config = HttpConfig {
        max_inflight: 2,
        workers: 2,
        ..HttpConfig::default()
    };
    let server = Server::start(smoke_service(), "127.0.0.1:0", config).expect("bind server");
    // Downloads are slow enough to hold worker slots; 16 offered against
    // an in-flight cap of 2 must trip admission control.
    let ops = vec![ReplayOp::Get(
        "/api/datasets/ada/numbers/download?user=ada".into(),
    )];
    let stats = run_step(server.addr(), &ops, 16, 32);
    server.shutdown();
    assert_eq!(stats.io_errors, 0);
    assert_eq!(stats.count_5xx, 0, "overload must shed as 429, never 5xx");
    assert!(
        stats.count_429 > 0,
        "offered load past the in-flight cap must produce 429s"
    );
    assert!(stats.count_2xx > 0, "some requests must still be served");
}

#[test]
fn percentile_nearest_rank() {
    let v: Vec<u64> = (1..=100).collect();
    assert_eq!(percentile(&v, 0.50), 50);
    assert_eq!(percentile(&v, 0.99), 99);
    assert_eq!(percentile(&v, 1.0), 100);
    assert_eq!(percentile(&[7], 0.5), 7);
    assert_eq!(percentile(&[], 0.5), 0);
    // A percent where a fraction belongs fails loudly instead of
    // answering the maximum.
    assert!(std::panic::catch_unwind(|| percentile(&v, 50.0)).is_err());
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
