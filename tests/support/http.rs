//! The HTTP test clients: a keep-alive HTTP/1.1 client for the SQLShare
//! REST interface and a failover-aware client that follows the primary
//! across a replication pair. Shared by the socket-level test files and
//! `examples/failover_bench.rs` through `#[path]`, like `modes.rs` and
//! `fsync.rs`.

use sqlshare_common::json;
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
    /// turns out to be dead. A connection that failed is never reused:
    /// it may hold part of a response.
    pub fn request(&mut self, op: &ReplayOp) -> io::Result<HttpResponse> {
        let had_stream = self.stream.is_some();
        let mut result = self.try_request(op);
        if result.is_err() && had_stream {
            // Keep-alive connection died under us (idle reap, server
            // restart): one fresh attempt.
            self.stream = None;
            result = self.try_request(op);
        }
        if result.is_err() {
            self.stream = None;
        }
        result
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
                let size = usize::from_str_radix(size_line.trim(), 16)
                    .map_err(|_| io::ErrorKind::InvalidData)?;
                let mut chunk = vec![0u8; size + 2]; // data + CRLF
                reader.read_exact(&mut chunk)?;
                if size == 0 {
                    break;
                }
                chunk.truncate(size);
                body.extend_from_slice(&chunk);
            }
        } else if let Some(n) = content_length {
            body.resize(n, 0);
            reader.read_exact(&mut body)?;
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

/// Probe rounds before [`FailoverClient`] gives up on finding a primary.
const PROBE_ROUNDS: usize = 120;
/// Pause between probe rounds (jittered ±50%).
const PROBE_PAUSE: Duration = Duration::from_millis(50);

/// A replay client that follows the primary across failover: it sends
/// to one node until that node dies (connection error) or refuses
/// writes (503 — a standby's `read-only` rejection frames as 503 +
/// `Retry-After`), then probes every configured endpoint's
/// `GET /api/ready` for `role == "primary"` and retries there. Probing
/// repeats for [`PROBE_ROUNDS`] rounds because promotion takes a lease
/// lapse to trigger — the cluster legitimately has no primary for a
/// few heartbeats.
pub struct FailoverClient {
    endpoints: Vec<SocketAddr>,
    active: usize,
    client: HttpClient,
    rng: XorShift,
    /// Times the client switched to a different node.
    pub failovers: u64,
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
        for _ in 0..PROBE_ROUNDS {
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
            let base = PROBE_PAUSE.as_millis() as u64;
            let jitter = base / 2 + self.rng.below(base as usize / 2 + 1) as u64;
            std::thread::sleep(Duration::from_millis(jitter));
        }
        last
    }
}

/// Deterministic xorshift64* — the workload must be reproducible and
/// the harness keeps zero dependencies, shims included.
pub struct XorShift(u64);

impl XorShift {
    pub fn new(seed: u64) -> XorShift {
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

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}
