//! Integration tests for the non-blocking HTTP front end, over real
//! sockets: keep-alive reuse, pipelining, protocol-error handling that
//! doesn't kill the connection (or does, when framing is lost),
//! concurrent readers making progress under a running mutation, the
//! lock-split concurrency acceptance bar, admission-control shedding,
//! and graceful shutdown draining in-flight requests.

#[allow(dead_code)]
#[path = "support/http.rs"]
mod http;

use http::{HttpClient, HttpResponse, ReplayOp};
use sqlshare_common::json::{self, Json};
use sqlshare_core::SqlShare;
use sqlshare_server::{HttpConfig, Server, ServerHandle};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// A small service: one user, one plain dataset, one derived view whose
/// download does real work.
fn seeded_service(rows: usize) -> SqlShare {
    let mut s = SqlShare::new();
    s.register_user("ada", "ada@uw.edu").unwrap();
    let mut csv = String::from("x,y\n");
    for i in 0..rows {
        csv.push_str(&format!("{},{}\n", i, (i * 7) % 100));
    }
    s.upload("ada", "numbers", &csv, &Default::default()).unwrap();
    s
}

fn start(service: SqlShare, config: HttpConfig) -> ServerHandle {
    Server::start(service, "127.0.0.1:0", config).expect("bind server")
}

fn get(client: &mut HttpClient, path: &str) -> HttpResponse {
    client.request(&ReplayOp::Get(path.into())).expect("request")
}

fn post(client: &mut HttpClient, path: &str, body: String) -> HttpResponse {
    client.request(&ReplayOp::Post(path.into(), body)).expect("request")
}

#[test]
fn keep_alive_reuses_one_connection() {
    let server = start(seeded_service(10), HttpConfig::default());
    let mut client = HttpClient::new(server.addr());
    for _ in 0..20 {
        let resp = get(&mut client, "/api/ready");
        assert_eq!(resp.status, 200);
    }
    assert_eq!(client.reconnects, 1, "20 requests must share one connection");
    assert_eq!(server.stats().accepted.load(std::sync::atomic::Ordering::Relaxed), 1);
    // Responses are compact JSON on the wire: no pretty-print newlines.
    let resp = get(&mut client, "/api/datasets");
    let text = String::from_utf8(resp.body).unwrap();
    assert!(!text.contains('\n'), "wire payloads must be compact: {text:?}");
    server.shutdown();
}

#[test]
fn pipelined_requests_answered_in_order() {
    let server = start(seeded_service(10), HttpConfig::default());
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // Three requests in one write, no waiting: responses must come back
    // complete and in order.
    stream
        .write_all(
            b"GET /api/ready HTTP/1.1\r\n\r\n\
              GET /api/datasets HTTP/1.1\r\n\r\n\
              GET /api/nope HTTP/1.1\r\nconnection: close\r\n\r\n",
        )
        .unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    let text = String::from_utf8_lossy(&raw);
    assert_eq!(
        text.matches("HTTP/1.1 ").count(),
        3,
        "three responses expected: {text}"
    );
    assert_eq!(text.matches("HTTP/1.1 200").count(), 2, "{text}");
    assert_eq!(text.matches("HTTP/1.1 404").count(), 1, "{text}");
    let ready_at = text.find("\"ready\":true").expect("ready body");
    let list_at = text.find("\"owner\":\"ada\"").expect("datasets body");
    let nope_at = text.find("no route").expect("404 body");
    assert!(ready_at < list_at && list_at < nope_at, "order preserved");
    server.shutdown();
}

#[test]
fn bad_json_body_is_400_and_connection_survives() {
    let server = start(seeded_service(10), HttpConfig::default());
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let garbage = b"{not json";
    stream
        .write_all(
            format!(
                "POST /api/queries HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
                garbage.len()
            )
            .as_bytes(),
        )
        .unwrap();
    stream.write_all(garbage).unwrap();
    let first = read_one_response(&mut stream);
    assert!(first.starts_with("HTTP/1.1 400"), "{first}");
    // Framing was intact, so the same connection keeps working.
    stream
        .write_all(b"GET /api/ready HTTP/1.1\r\n\r\n")
        .unwrap();
    let second = read_one_response(&mut stream);
    assert!(second.starts_with("HTTP/1.1 200"), "{second}");
    server.shutdown();
}

/// Hostile nesting: a request body nested deeper than the JSON
/// decoder's cap, and queries whose parse trees would be deeper than the
/// SQL parser's bound. Each is refused with a 4xx and the server keeps
/// serving; a decoder without a bound overflows its thread's stack,
/// which aborts the whole process.
#[test]
fn hostile_nesting_is_4xx_and_server_survives() {
    let server = start(seeded_service(10), HttpConfig::default());
    let mut client = HttpClient::new(server.addr());

    let nested_body = "[".repeat(100_000);
    assert_eq!(post(&mut client, "/api/queries", nested_body).status, 400);

    for sql in [
        format!("SELECT 1 WHERE {}1 = 1", "NOT ".repeat(20_000)),
        format!("SELECT 1{}", " UNION ALL SELECT 1".repeat(500)),
    ] {
        // A submitted query that does not parse still gets an id; its
        // job is failed and its results answer 400.
        let body = Json::object([("user", Json::str("ada")), ("sql", Json::str(sql.clone()))]);
        let submitted = post(&mut client, "/api/queries", body.to_string());
        assert_eq!(submitted.status, 201);
        let submitted = json::parse(std::str::from_utf8(&submitted.body).unwrap()).unwrap();
        let id = submitted.get("id").and_then(Json::as_f64).expect("query id");
        let results = get(&mut client, &format!("/api/queries/{id}/results"));
        assert_eq!(results.status, 400);
        // Saving it as a view is refused at once.
        let view = Json::object([
            ("user", Json::str("ada")),
            ("name", Json::str("deep")),
            ("sql", Json::str(sql)),
        ]);
        assert_eq!(post(&mut client, "/api/views", view.to_string()).status, 400);
    }

    assert_eq!(get(&mut client, "/api/ready").status, 200);
    server.shutdown();
}

#[test]
fn malformed_content_length_is_400_and_closes() {
    let server = start(seeded_service(10), HttpConfig::default());
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(b"POST /api/queries HTTP/1.1\r\ncontent-length: banana\r\n\r\n")
        .unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap(); // server closes after responding
    let text = String::from_utf8_lossy(&raw);
    assert!(text.starts_with("HTTP/1.1 400"), "{text}");
    assert!(text.contains("connection: close"));
    // The server itself is fine.
    let mut client = HttpClient::new(server.addr());
    assert_eq!(get(&mut client, "/api/ready").status, 200);
    server.shutdown();
}

#[test]
fn oversized_body_is_413_not_truncated() {
    let config = HttpConfig {
        max_body: 64 * 1024,
        ..HttpConfig::default()
    };
    let server = start(seeded_service(10), config);
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // Announce a body over the cap; the refusal must arrive without the
    // server reading (or ingesting a prefix of) the payload.
    stream
        .write_all(b"POST /api/datasets HTTP/1.1\r\ncontent-length: 1000000\r\n\r\n")
        .unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    let text = String::from_utf8_lossy(&raw);
    assert!(text.starts_with("HTTP/1.1 413"), "{text}");
    // No dataset materialized from a truncated prefix.
    server.with_service(|s| {
        assert_eq!(s.datasets().count(), 1, "only the seeded dataset exists");
    });
    server.shutdown();
}

#[test]
fn concurrent_readers_progress_while_mutation_runs() {
    let server = start(seeded_service(10), HttpConfig::default());
    let addr = server.addr();
    let readers: Vec<_> = (0..4)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client = HttpClient::new(addr);
                let mut ok = 0;
                for _ in 0..50 {
                    if get(&mut client, "/api/datasets").status == 200 {
                        ok += 1;
                    }
                }
                ok
            })
        })
        .collect();
    // A chunky upload holds the write lock repeatedly in the middle of
    // the read traffic.
    let mut csv = String::from("a,b,c\n");
    for i in 0..30_000 {
        csv.push_str(&format!("{i},{},{}\n", i % 17, i % 23));
    }
    let mut writer = HttpClient::new(addr);
    let body = sqlshare_common::json::Json::object([
        ("user", sqlshare_common::json::Json::str("ada")),
        ("name", sqlshare_common::json::Json::str("bulk")),
        ("content", sqlshare_common::json::Json::str(csv)),
    ]);
    let resp = writer
        .request(&ReplayOp::Post("/api/datasets".into(), body.to_string()))
        .expect("upload");
    assert_eq!(resp.status, 201, "{:?}", String::from_utf8_lossy(&resp.body));
    for r in readers {
        assert_eq!(r.join().unwrap(), 50, "every reader finished every read");
    }
    server.shutdown();
}

/// The lock-split acceptance bar: N parallel reads must come in
/// measurably under N x the serial latency — before the split, every
/// read serialized on the global service mutex.
#[test]
fn parallel_reads_do_not_serialize() {
    let server = start(seeded_service(100), HttpConfig::default());
    let addr = server.addr();
    // Cheap cached reads: the win to prove is that the fixed per-request
    // cost (parse, lock, dispatch handoffs) overlaps across connections
    // instead of serializing on one global mutex — so the probe must be
    // dominated by that fixed cost, not by payload CPU.
    let path = "/api/datasets";
    const N: usize = 4; // concurrent clients
    const M: usize = 100; // cached reads each

    // On a single core the requests' CPU work cannot overlap — only the
    // per-request handoff overhead amortizes — so the required margin
    // scales with the machine. Before the lock split, both shapes of
    // this test sat at parallel ≈ serial (or worse) regardless of cores.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let required = if cores >= 4 { 0.75 } else { 0.92 };

    let mut attempts = Vec::new();
    for _ in 0..3 {
        // Serial baseline: one warmed connection, N x M requests back
        // to back — N x M x (serial latency).
        let mut client = HttpClient::new(addr);
        for _ in 0..10 {
            assert_eq!(get(&mut client, path).status, 200);
        }
        let serial_start = Instant::now();
        for _ in 0..N * M {
            assert_eq!(get(&mut client, path).status, 200);
        }
        let serial = serial_start.elapsed();

        // The same total work split across N warmed connections running
        // at once; the clock starts at a barrier after every client's
        // warmup.
        let barrier = std::sync::Barrier::new(N + 1);
        let parallel = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..N)
                .map(|_| {
                    let barrier = &barrier;
                    scope.spawn(move || {
                        let mut client = HttpClient::new(addr);
                        for _ in 0..3 {
                            assert_eq!(get(&mut client, path).status, 200);
                        }
                        barrier.wait();
                        for _ in 0..M {
                            assert_eq!(get(&mut client, path).status, 200);
                        }
                    })
                })
                .collect();
            barrier.wait();
            let t0 = Instant::now();
            for h in handles {
                h.join().unwrap();
            }
            t0.elapsed()
        });
        attempts.push((parallel, serial));
        if parallel < serial.mul_f64(required) {
            server.shutdown();
            return;
        }
    }
    panic!(
        "{N} parallel readers must finish in < {required} x the serial \
         wall-clock for {} requests on {cores} core(s); attempts: {attempts:?}",
        N * M
    );
}

#[test]
fn inflight_cap_sheds_with_429_and_retry_after() {
    let config = HttpConfig {
        max_inflight: 1,
        workers: 1,
        ..HttpConfig::default()
    };
    let server = start(seeded_service(4000), config);
    let addr = server.addr();
    // Slow-ish downloads through one worker slot: overflow must shed as
    // 429 + Retry-After without any 5xx.
    let handles: Vec<_> = (0..8)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client = HttpClient::new(addr);
                let mut shed = 0;
                let mut served = 0;
                for _ in 0..10 {
                    let resp = client
                        .request(&ReplayOp::Get(
                            "/api/datasets/ada/numbers/download?user=ada".into(),
                        ))
                        .expect("request");
                    match resp.status {
                        200 => served += 1,
                        429 => {
                            assert!(
                                resp.retry_after.is_some(),
                                "429 must carry Retry-After"
                            );
                            shed += 1;
                        }
                        other => panic!("unexpected status {other}"),
                    }
                }
                (served, shed)
            })
        })
        .collect();
    let (mut served, mut shed) = (0, 0);
    for h in handles {
        let (ok, s) = h.join().unwrap();
        served += ok;
        shed += s;
    }
    assert!(served > 0, "some requests must get through");
    assert!(shed > 0, "8 clients against 1 slot must trip the in-flight cap");
    server.shutdown();
}

#[test]
fn graceful_shutdown_drains_in_flight_requests() {
    let server = start(seeded_service(4000), HttpConfig::default());
    let addr = server.addr();
    let worker = std::thread::spawn(move || {
        let mut client = HttpClient::new(addr);
        client
            .request(&ReplayOp::Get(
                "/api/datasets/ada/numbers/download?user=ada".into(),
            ))
            .expect("in-flight request must complete through shutdown")
    });
    // Let the request reach a dispatch worker, then shut down under it.
    std::thread::sleep(Duration::from_millis(15));
    server.shutdown();
    let resp = worker.join().unwrap();
    assert_eq!(resp.status, 200);
    let text = String::from_utf8(resp.body).unwrap();
    assert!(
        text.contains("\"csv\""),
        "drained response must be complete, got {} bytes",
        text.len()
    );
    // And the port actually closed.
    assert!(TcpStream::connect(addr).is_err() || {
        // Accept loop may take a beat to vanish from the backlog; a
        // connected socket that gets no service counts as closed too.
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_millis(200))).unwrap();
        let _ = s.write_all(b"GET /api/ready HTTP/1.1\r\n\r\n");
        let mut buf = [0u8; 1];
        matches!(s.read(&mut buf), Ok(0) | Err(_))
    });
}

#[test]
fn chunked_download_roundtrips() {
    // A dataset big enough that its download body crosses the chunked
    // threshold; the replay client decodes the chunked framing back to
    // the exact payload.
    let server = start(seeded_service(20_000), HttpConfig::default());
    let mut client = HttpClient::new(server.addr());
    let resp = get(&mut client, "/api/datasets/ada/numbers/download?user=ada");
    assert_eq!(resp.status, 200);
    assert!(
        resp.body.len() > 64 * 1024,
        "expected a chunked-sized body, got {}",
        resp.body.len()
    );
    let text = String::from_utf8(resp.body).unwrap();
    let parsed = sqlshare_common::json::parse(&text).expect("valid JSON body");
    let csv = parsed.get("csv").unwrap().as_str().unwrap();
    assert_eq!(csv.lines().count(), 20_001, "header + every row");
    // Keep-alive survives a chunked response.
    assert_eq!(get(&mut client, "/api/ready").status, 200);
    assert_eq!(client.reconnects, 1);
    server.shutdown();
}

fn read_one_response(stream: &mut TcpStream) -> String {
    // Reads headers + Content-Length body of one response (test-sized).
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        let n = stream.read(&mut chunk).expect("read response");
        assert!(n > 0, "connection closed mid-response");
        buf.extend_from_slice(&chunk[..n]);
        let text = String::from_utf8_lossy(&buf);
        if let Some(head_end) = text.find("\r\n\r\n") {
            let content_length: usize = text[..head_end]
                .lines()
                .find_map(|l| {
                    l.to_ascii_lowercase()
                        .strip_prefix("content-length:")
                        .map(|v| v.trim().parse().unwrap())
                })
                .unwrap_or(0);
            if buf.len() >= head_end + 4 + content_length {
                return String::from_utf8_lossy(&buf[..head_end + 4 + content_length])
                    .into_owned();
            }
        }
    }
}
