//! Server-side replication plumbing: the ack hub quorum commits wait
//! on, a tiny blocking HTTP client, and the standby driver thread.
//!
//! Replication is pull-based. A standby polls its primary's
//! `GET /api/repl/wal?from=<offset>` every `SQLSHARE_REPL_HEARTBEAT_MS`;
//! the poll doubles as the lease heartbeat. The primary answers straight
//! off the WAL *file* via [`sqlshare_storage::read_tail`] — no service
//! lock — so a mutation holding the write lock never stalls the stream
//! that confirms the commits before it. A quorum commit waits for its
//! acks after releasing the write lock, but on its worker thread, so
//! acks (`POST /api/repl/ack`) are absorbed by the event loops: with
//! every worker waiting on a quorum, an ack queued to the pool would
//! wait out `SQLSHARE_REPL_ACK_TIMEOUT_MS`.

use crate::Shared;
use sqlshare_common::json::{self, Json};
use sqlshare_core::{ReplApply, Role};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Most records one `GET /api/repl/wal` or `/api/repl/querylog` answer
/// carries; a standby that receives a full WAL batch polls again
/// immediately.
pub(crate) const WAL_BATCH_LIMIT: usize = 256;

/// Confirmed-LSN tracking per standby. Commit-side `wait_for` blocks on
/// the condvar; ack-side `record_ack` advances a standby's high-water
/// mark and wakes waiters. Lock ordering is trivial: nothing is ever
/// held while calling out.
#[derive(Debug, Default)]
pub struct ReplHub {
    acks: Mutex<HashMap<String, u64>>,
    advanced: Condvar,
}

impl ReplHub {
    /// Standby `who` has durably applied everything up to `lsn`.
    pub fn record_ack(&self, who: &str, lsn: u64) {
        let mut acks = self.acks.lock().unwrap_or_else(|e| e.into_inner());
        let entry = acks.entry(who.to_string()).or_insert(0);
        if lsn > *entry {
            *entry = lsn;
            self.advanced.notify_all();
        }
    }

    /// How many standbys have confirmed `lsn`.
    pub fn confirmations(&self, lsn: u64) -> usize {
        self.acks
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .values()
            .filter(|&&acked| acked >= lsn)
            .count()
    }

    /// Block until `quorum` standbys confirm `lsn` or `timeout` lapses.
    pub fn wait_for(&self, lsn: u64, quorum: usize, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut acks = self.acks.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            let confirmed = acks.values().filter(|&&acked| acked >= lsn).count();
            if confirmed >= quorum {
                return true;
            }
            let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                return false;
            };
            let (guard, _) = self
                .advanced
                .wait_timeout(acks, left)
                .unwrap_or_else(|e| e.into_inner());
            acks = guard;
        }
    }
}

/// One blocking HTTP/1.1 request with connect/read/write timeouts.
/// Returns (status, body). Small bodies only — replication control
/// traffic and WAL batches.
pub(crate) fn http_call(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
    timeout: Duration,
) -> io::Result<(u16, String)> {
    let sock = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "unresolvable address"))?;
    let mut stream = TcpStream::connect_timeout(&sock, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    let body = body.unwrap_or("");
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes())?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let text = String::from_utf8_lossy(&raw);
    let mut head_and_rest = text.splitn(2, "\r\n\r\n");
    let head = head_and_rest.next().unwrap_or("");
    let rest = head_and_rest.next().unwrap_or("");
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
    let body = if head
        .to_ascii_lowercase()
        .contains("transfer-encoding: chunked")
    {
        decode_chunked(rest)
    } else {
        rest.to_string()
    };
    Ok((status, body))
}

/// Minimal chunked-body decoder (the connection is `close`, so the full
/// stream is already in hand).
fn decode_chunked(mut rest: &str) -> String {
    let mut out = String::new();
    while let Some(eol) = rest.find("\r\n") {
        let Ok(size) = usize::from_str_radix(rest[..eol].trim(), 16) else {
            break;
        };
        if size == 0 {
            break;
        }
        let start = eol + 2;
        if rest.len() < start + size {
            break;
        }
        out.push_str(&rest[start..start + size]);
        rest = rest[start + size..].trim_start_matches("\r\n");
    }
    out
}

/// The standby driver: poll the primary's WAL tail, apply records
/// through the recovery path, ack the applied LSN, and promote when the
/// lease lapses. Runs until server shutdown (or until this node becomes
/// the primary).
pub(crate) fn standby_loop(shared: Arc<Shared>, primary: String, self_id: String) {
    let cfg = shared.config.repl.clone();
    let io_timeout = cfg.heartbeat.max(Duration::from_millis(100));
    let mut cursor = Cursor::default();
    let mut log_cursor: u64 = 0;
    let mut misses: u32 = 0;
    while !shared.shutdown.load(Ordering::SeqCst) {
        if shared
            .service
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .role()
            == Role::Primary
        {
            return; // promoted (possibly via the REST endpoint)
        }
        match poll_once(&shared, &primary, &self_id, &mut cursor, io_timeout) {
            Ok(PollOutcome::Applied { full }) => {
                misses = 0;
                // The query log rides along: best-effort (it is not
                // ack-gated), but a promoted standby then carries the
                // corpus and the clock position the primary had.
                if let Ok(c) = poll_querylog(&shared, &primary, log_cursor, io_timeout) {
                    log_cursor = c;
                }
                if full {
                    continue; // more waiting — skip the heartbeat sleep
                }
            }
            Ok(PollOutcome::NeedSnapshot) => {
                misses = 0;
                match catch_up_from_snapshot(&shared, &primary, io_timeout) {
                    Ok(lsn) => {
                        // The reseed discarded any local (possibly
                        // divergent) tail: the stream restarts from the
                        // head of the primary's current WAL file, and
                        // only the snapshot's LSN is verified upstream
                        // history — ack it so quorum commits at or
                        // below it unblock.
                        cursor = Cursor {
                            offset: 0,
                            generation: None,
                            verified: lsn,
                        };
                        send_ack(&primary, &self_id, lsn, io_timeout);
                        continue;
                    }
                    Err(e) => eprintln!("standby: snapshot catch-up failed: {e}"),
                }
            }
            Ok(PollOutcome::UpstreamStale) => {
                // The node we follow carries an older lease than ours:
                // it is a deposed primary that came back. Fence it.
                let epoch = shared
                    .service
                    .read()
                    .unwrap_or_else(|e| e.into_inner())
                    .epoch();
                let body = Json::object([("epoch", Json::num(epoch as f64))]).to_string();
                let _ = http_call(&primary, "POST", "/api/repl/demote", Some(&body), io_timeout);
                misses = 0;
            }
            Ok(PollOutcome::Stalled) => {
                // A record failed to apply for a local, non-fencing
                // reason (e.g. a storage error). The primary is alive —
                // this must not count toward the lease, and it is no
                // grounds to demote anyone. Retry the same batch next
                // heartbeat.
                misses = 0;
            }
            Err(_) => {
                misses += 1;
                if misses >= cfg.lease_misses {
                    let mut service =
                        shared.service.write().unwrap_or_else(|e| e.into_inner());
                    if service.role() == Role::Standby {
                        let epoch = service.promote();
                        shared.repl_epoch.store(epoch, Ordering::Relaxed);
                        eprintln!(
                            "standby: primary lease lapsed after {misses} missed heartbeats; \
                             promoted to primary at epoch {epoch}"
                        );
                    }
                    return;
                }
            }
        }
        std::thread::sleep(cfg.heartbeat);
    }
}

/// Where the standby stands in the primary's WAL stream.
#[derive(Debug, Default)]
struct Cursor {
    /// Byte offset of the next poll.
    offset: u64,
    /// WAL reset generation the offset belongs to; `None` until the
    /// first poll (or after a reseed) adopts the upstream's value. A
    /// mismatch on a later poll means the file was truncated and
    /// regrown behind us — the offset points into dead history even if
    /// the file is long enough to read.
    generation: Option<u64>,
    /// Highest LSN verified against upstream history: the max record
    /// LSN received from the primary and either applied or already
    /// present locally. This — never the local last LSN — is what gets
    /// acked, so a rejoined node with a longer (divergent) local WAL
    /// cannot vouch for writes it never saw.
    verified: u64,
}

enum PollOutcome {
    Applied { full: bool },
    NeedSnapshot,
    UpstreamStale,
    Stalled,
}

fn send_ack(primary: &str, self_id: &str, lsn: u64, timeout: Duration) {
    if lsn == 0 {
        return;
    }
    let ack = Json::object([
        ("standby", Json::str(self_id.to_string())),
        ("lsn", Json::num(lsn as f64)),
    ])
    .to_string();
    let _ = http_call(primary, "POST", "/api/repl/ack", Some(&ack), timeout);
}

fn poll_once(
    shared: &Shared,
    primary: &str,
    self_id: &str,
    cursor: &mut Cursor,
    timeout: Duration,
) -> io::Result<PollOutcome> {
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
    let (status, body) = http_call(
        primary,
        "GET",
        &format!("/api/repl/wal?from={}", cursor.offset),
        None,
        timeout,
    )?;
    if status != 200 {
        return Err(bad("wal poll rejected"));
    }
    let doc = json::parse(&body).map_err(|e| bad(&e.to_string()))?;
    let upstream_epoch = doc.get("epoch").and_then(Json::as_f64).unwrap_or(0.0) as u64;
    let last_lsn = doc.get("lastLsn").and_then(Json::as_f64).unwrap_or(0.0) as u64;
    let generation = doc.get("generation").and_then(Json::as_f64).unwrap_or(0.0) as u64;
    if doc.get("reset").and_then(|j| match j {
        Json::Bool(b) => Some(*b),
        _ => None,
    }) == Some(true)
    {
        return Ok(PollOutcome::NeedSnapshot);
    }
    if cursor.generation.is_some_and(|g| g != generation) {
        // Truncate-and-regrow within one heartbeat: the length check on
        // the primary cannot see it, but the generation counter can.
        return Ok(PollOutcome::NeedSnapshot);
    }
    let records = doc
        .get("records")
        .and_then(Json::as_array)
        .ok_or_else(|| bad("missing records"))?;
    let new_offset = doc
        .get("end")
        .and_then(Json::as_f64)
        .ok_or_else(|| bad("missing end"))? as u64;

    let mut verified = cursor.verified;
    let full = records.len() >= WAL_BATCH_LIMIT;
    {
        let mut service = shared.service.write().unwrap_or_else(|e| e.into_inner());
        if upstream_epoch < service.epoch() {
            return Ok(PollOutcome::UpstreamStale);
        }
        for record in records {
            let lsn = record.get("lsn").and_then(Json::as_f64).unwrap_or(0.0) as u64;
            match service.apply_replicated(record) {
                Ok(ReplApply::Applied | ReplApply::Duplicate) => {
                    verified = verified.max(lsn);
                }
                Ok(ReplApply::Diverged) => {
                    eprintln!(
                        "standby: local WAL tail diverges from upstream at lsn {lsn}; \
                         reseeding from snapshot"
                    );
                    return Ok(PollOutcome::NeedSnapshot);
                }
                Err(e) if e.kind() == "read-only" => {
                    // Fencing: the record carries a lease older than
                    // ours, so the node we polled is a deposed primary.
                    eprintln!("standby: refusing replicated record: {e}");
                    return Ok(PollOutcome::UpstreamStale);
                }
                Err(e) => {
                    eprintln!("standby: failed to apply replicated record: {e}");
                    return Ok(PollOutcome::Stalled);
                }
            }
        }
        // Adopt the primary's lease epoch even when no record carries
        // it yet: if this standby promotes before the primary journals
        // anything at its current epoch, the promotion must still fence
        // the old primary (`demote` takes the max, so this never moves
        // the epoch backwards). Skipped while a multi-batch catch-up is
        // in flight — adopting a newer epoch before the older-epoch
        // batches behind it have been applied would fence our own
        // stream.
        if !full {
            service.demote(upstream_epoch);
        }
        service.note_primary_lsn(last_lsn);
        shared.repl_epoch.store(service.epoch(), Ordering::Relaxed);
    }
    cursor.offset = new_offset;
    cursor.generation = Some(generation);
    cursor.verified = verified;
    send_ack(primary, self_id, verified, timeout);
    Ok(PollOutcome::Applied { full })
}

/// Pull the primary's query-log tail and apply each entry. Returns the
/// advanced cursor; any failure leaves the cursor unchanged (the WAL
/// poll, not this, is the lease heartbeat).
fn poll_querylog(
    shared: &Shared,
    primary: &str,
    cursor: u64,
    timeout: Duration,
) -> io::Result<u64> {
    let (status, body) = http_call(
        primary,
        "GET",
        &format!("/api/repl/querylog?from={cursor}"),
        None,
        timeout,
    )?;
    if status != 200 {
        return Ok(cursor); // e.g. an ephemeral primary: nothing to pull
    }
    let doc = json::parse(&body)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    if matches!(doc.get("reset"), Some(Json::Bool(true))) {
        return Ok(0);
    }
    let Some(entries) = doc.get("records").and_then(Json::as_array) else {
        return Ok(cursor);
    };
    let end = doc.get("end").and_then(Json::as_f64).unwrap_or(cursor as f64) as u64;
    if !entries.is_empty() {
        let mut service = shared.service.write().unwrap_or_else(|e| e.into_inner());
        for entry in entries {
            if let Err(e) = service.apply_replicated_query_entry(entry) {
                eprintln!("standby: refusing replicated query-log entry: {e}");
                return Ok(cursor);
            }
        }
    }
    Ok(end)
}

/// Fetch and install the primary's snapshot; returns the installed LSN.
fn catch_up_from_snapshot(
    shared: &Shared,
    primary: &str,
    timeout: Duration,
) -> io::Result<u64> {
    let bad = |what: String| io::Error::new(io::ErrorKind::InvalidData, what);
    let (status, body) = http_call(primary, "GET", "/api/repl/snapshot", None, timeout)?;
    if status != 200 {
        return Err(bad(format!("snapshot fetch rejected: {status}")));
    }
    let doc = json::parse(&body).map_err(|e| bad(e.to_string()))?;
    let mut service = shared.service.write().unwrap_or_else(|e| e.into_inner());
    service
        .install_replica_snapshot(&doc)
        .map_err(|e| bad(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hub_quorum_counts_distinct_standbys() {
        let hub = ReplHub::default();
        assert_eq!(hub.confirmations(1), 0);
        hub.record_ack("a", 3);
        hub.record_ack("a", 2); // regressions are ignored
        hub.record_ack("b", 1);
        assert_eq!(hub.confirmations(1), 2);
        assert_eq!(hub.confirmations(3), 1);
        assert!(hub.wait_for(3, 1, Duration::from_millis(10)));
        assert!(!hub.wait_for(3, 2, Duration::from_millis(10)));
    }

    #[test]
    fn hub_wait_wakes_on_ack() {
        let hub = Arc::new(ReplHub::default());
        let waiter = Arc::clone(&hub);
        let t = std::thread::spawn(move || waiter.wait_for(5, 1, Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(20));
        hub.record_ack("s1", 5);
        assert!(t.join().unwrap());
    }

    #[test]
    fn chunked_decoder_handles_multiple_chunks() {
        assert_eq!(decode_chunked("3\r\nabc\r\n2\r\nde\r\n0\r\n\r\n"), "abcde");
        assert_eq!(decode_chunked("0\r\n\r\n"), "");
    }
}
