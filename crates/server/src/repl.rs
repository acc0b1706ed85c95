//! Server-side replication plumbing: the ack hub quorum commits wait
//! on, a tiny blocking HTTP/1.0 client, and the standby driver thread.
//!
//! Replication is pull-based. A standby polls its primary's
//! `GET /api/repl/wal?from=<offset>` every `SQLSHARE_REPL_HEARTBEAT_MS`;
//! the poll doubles as the lease heartbeat. The primary answers straight
//! off the WAL *file* via [`sqlshare_storage::read_tail`] — no service
//! lock — with a header frame and the file's own record frames, which
//! the standby checks and decodes as recovery does ([`decode_body`]). A
//! quorum commit waits for its acks after releasing the write lock, but
//! on its worker thread, so acks (`POST /api/repl/ack`) are absorbed by
//! the event loops: with every worker waiting on a quorum, an ack queued
//! to the pool would wait out `SQLSHARE_REPL_ACK_TIMEOUT_MS`.

use crate::Shared;
use sqlshare_common::json::Json;
use sqlshare_common::{Error, Result};
use sqlshare_core::{FrameReader, ReplApply, Role};
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

/// One blocking HTTP/1.0 request with connect/read/write timeouts.
/// Returns (status, body): the bytes its `Content-Length` counts, never
/// chunked for an HTTP/1.0 peer; a body cut short is an I/O error.
pub(crate) fn http_call(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
    timeout: Duration,
) -> io::Result<(u16, Vec<u8>)> {
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
    let sock = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "unresolvable address"))?;
    let mut stream = TcpStream::connect_timeout(&sock, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    let body = body.unwrap_or("");
    let request = format!(
        "{method} {path} HTTP/1.0\r\nHost: {addr}\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes())?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| bad("response head cut short"))?;
    let head = std::str::from_utf8(&raw[..head_end]).map_err(|_| bad("response head not text"))?;
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let length: usize = head
        .to_ascii_lowercase()
        .split("\r\ncontent-length:")
        .nth(1)
        .and_then(|rest| rest.lines().next()?.trim().parse().ok())
        .ok_or_else(|| bad("no content-length"))?;
    let mut body = raw.split_off(head_end + 4);
    if body.len() < length {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "body cut short",
        ));
    }
    body.truncate(length);
    Ok((status, body))
}

/// A `/api/repl/*` body of frames: the first one's JSON (a tail's header
/// or the snapshot document), the payloads after it and the bytes they
/// take. A body cut short or failing a checksum is `Error::Corrupt`.
pub fn decode_body(body: &[u8]) -> Result<(Json, Vec<Vec<u8>>, u64)> {
    let corrupt = |what: String| Error::Corrupt(format!("replication body: {what}"));
    let mut reader = FrameReader::new(body, body.len() as u64);
    let first = reader
        .next_frame()?
        .ok_or_else(|| corrupt("no first frame".into()))?;
    let first = crate::json_body(first).map_err(corrupt)?;
    let header_len = reader.offset();
    let mut payloads = Vec::new();
    while let Some(payload) = reader.next_frame()? {
        payloads.push(payload.to_vec());
    }
    Ok((first, payloads, body.len() as u64 - header_len))
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
                // The body failed its checksum, or a record failed to
                // apply for a local, non-fencing reason (e.g. a storage
                // error). The primary is alive — this must not count
                // toward the lease, and it is no grounds to demote
                // anyone. Retry the same batch next heartbeat.
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
    let (status, body) = http_call(
        primary,
        "GET",
        &format!("/api/repl/wal?from={}", cursor.offset),
        None,
        timeout,
    )?;
    if status != 200 {
        return Err(io::Error::other("wal poll rejected"));
    }
    // The primary answered: a body that does not decode is no missed
    // heartbeat, and no grounds to promote.
    let (header, records, shipped) = match decode_body(&body) {
        Ok(decoded) => decoded,
        Err(e) => {
            eprintln!("standby: refusing a wal poll's body: {e}");
            return Ok(PollOutcome::Stalled);
        }
    };
    let number = |key: &str| header.get(key).and_then(Json::as_f64).unwrap_or(0.0) as u64;
    let (upstream_epoch, generation) = (number("epoch"), number("generation"));
    if matches!(header.get("reset"), Some(Json::Bool(true))) {
        return Ok(PollOutcome::NeedSnapshot);
    }
    if cursor.generation.is_some_and(|g| g != generation) {
        // Truncate-and-regrow within one heartbeat: the length check on
        // the primary cannot see it, but the generation counter can.
        return Ok(PollOutcome::NeedSnapshot);
    }

    let mut verified = cursor.verified;
    let mut last_lsn = 0;
    let full = records.len() >= WAL_BATCH_LIMIT;
    {
        let mut service = shared.service.write().unwrap_or_else(|e| e.into_inner());
        if upstream_epoch < service.epoch() {
            return Ok(PollOutcome::UpstreamStale);
        }
        for record in &records {
            match service.apply_replicated(record) {
                Ok((lsn, ReplApply::Applied | ReplApply::Duplicate)) => {
                    verified = verified.max(lsn);
                    last_lsn = lsn;
                }
                Ok((lsn, ReplApply::Diverged)) => {
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
    cursor.offset += shipped;
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
    let (header, entries, shipped) = decode_body(&body)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    if matches!(header.get("reset"), Some(Json::Bool(true))) {
        return Ok(0);
    }
    if !entries.is_empty() {
        let mut service = shared.service.write().unwrap_or_else(|e| e.into_inner());
        for entry in &entries {
            if let Err(e) = service.apply_replicated_query_entry(entry) {
                eprintln!("standby: refusing replicated query-log entry: {e}");
                return Ok(cursor);
            }
        }
    }
    Ok(cursor + shipped)
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
    let (doc, rest, _) = decode_body(&body).map_err(|e| bad(e.to_string()))?;
    if !rest.is_empty() {
        return Err(bad("snapshot body is not one frame".into()));
    }
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
}
