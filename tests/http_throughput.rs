//! CI smoke for the replay harness + non-blocking server over real
//! sockets, in well under a minute. Gated behind
//! `SQLSHARE_THROUGHPUT_SMOKE=1` (the CI throughput leg); served
//! throughput and latency are measured by `benchmark/`.

use sqlshare_bench::replay::{build_workload, run_step, MixSpec};
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
    let ops = vec![sqlshare_bench::replay::ReplayOp::Get(
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
