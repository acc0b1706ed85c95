//! The SQLShare HTTP front end (§3.3/§3.4 of the paper: "the front-end
//! UI is in no way a privileged application; it operates the REST
//! interface like any other client").
//!
//! ```sh
//! cargo run --release --example rest_server
//! # in another terminal:
//! curl -s -X POST localhost:7878/api/users \
//!   -d '{"username":"ada","email":"ada@uw.edu"}'
//! curl -s -X POST localhost:7878/api/datasets \
//!   -d '{"user":"ada","name":"tides","content":"station,level\n1,2.4\n2,3.1\n"}'
//! curl -s -X POST localhost:7878/api/queries \
//!   -d '{"user":"ada","sql":"SELECT * FROM ada.tides"}'
//! curl -s localhost:7878/api/queries/1/results
//! ```
//!
//! This runs the non-blocking `sqlshare-server` front end: epoll
//! readiness loops, HTTP/1.1 keep-alive + pipelining, chunked streaming
//! of large result sets, and admission control that degrades to
//! 429 + `Retry-After` under overload.
//!
//! This binary is where deployment configuration enters: the
//! `SQLSHARE_*` environment is parsed once by
//! `sqlshare_server::config::Config::from_env` (the README lists every
//! variable; a malformed value or an unknown `SQLSHARE_*` name stops
//! the start-up, naming the variable) and printed. Set
//! `SQLSHARE_DATA_DIR=/some/path` to run durably: mutations are
//! journaled to a write-ahead log and the catalog is recovered from the
//! latest snapshot + WAL tail on restart. Without it the service is
//! ephemeral.

use sqlshare_server::config::Config;
use sqlshare_server::Server;

fn main() -> std::io::Result<()> {
    let addr = std::env::args().nth(1).unwrap_or_else(|| "127.0.0.1:7878".to_string());
    let config = match Config::from_env() {
        Ok(config) => config,
        Err(e) => {
            eprintln!("configuration refused: {e}");
            std::process::exit(2);
        }
    };
    println!("{config:#?}");

    let service = match config.open_service() {
        Ok(s) => {
            if let Some(report) = s.recovery_report() {
                println!(
                    "recovered durable state: snapshot lsn {}, {} replayed, {} truncated bytes",
                    report.snapshot_lsn, report.replayed_records, report.truncated_wal_bytes
                );
                if report.snapshot_candidates_skipped > 0 {
                    eprintln!(
                        "warning: {} corrupt snapshot candidate(s) skipped during recovery \
                         (the WAL still covered the gap; state is complete) — \
                         restore or remove them before they are the only copy",
                        report.snapshot_candidates_skipped
                    );
                }
            }
            s
        }
        Err(e) => {
            eprintln!("failed to open the service: {e}");
            std::process::exit(1);
        }
    };

    let server = Server::start(service, &addr, config.http)?;
    println!("SQLShare REST listening on http://{}", server.addr());
    println!("try: curl -s http://{}/api/datasets", server.addr());
    loop {
        std::thread::park();
    }
}
