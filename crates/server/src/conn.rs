//! Per-connection state: an append-only read buffer feeding the
//! incremental parser, and an ordered outbox of staged responses
//! drained by write readiness.
//!
//! The outbox is what makes pipelining and backpressure work. Responses
//! are queued in request order and written front-to-first; when the
//! socket stops accepting bytes the connection simply parks until the
//! event loop sees `EPOLLOUT`, with large bodies held as raw JSON and
//! chunk-framed lazily so a slow reader costs one stage buffer, not a
//! second full copy of the payload.

use crate::http::{encode_head, parse_request, ParseOutcome, ParsedRequest, CONTINUE_RESPONSE};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::TcpStream;

/// Bodies above this are sent with chunked transfer encoding (HTTP/1.1
/// peers only) so the write path streams from a bounded stage buffer.
pub const CHUNK_THRESHOLD: usize = 64 * 1024;
/// Bytes of body framed per chunk.
pub const CHUNK_SIZE: usize = 32 * 1024;
/// Parsed-but-undispatched requests a single connection may pile up
/// before the loop stops reading from it (pipelining backpressure: the
/// kernel socket buffer fills and TCP pushes back on the client).
pub const MAX_PIPELINED: usize = 32;

/// One staged response (or interim message) awaiting transmission.
#[derive(Debug)]
pub enum Payload {
    /// Head + body concatenated; `off` tracks how much is on the wire.
    Whole { bytes: Vec<u8>, off: usize },
    /// Chunked framing produced incrementally: `stage` holds the bytes
    /// currently being written (head, then one chunk frame at a time),
    /// `pos` how much of `body` has been framed so far.
    Chunked {
        stage: Vec<u8>,
        off: usize,
        body: Vec<u8>,
        pos: usize,
        terminated: bool,
    },
}

impl Payload {
    /// Frame a response. Large bodies to HTTP/1.1 peers go chunked;
    /// everything else is Content-Length framed in one buffer.
    pub fn response(
        status: u16,
        content_type: &str,
        body: Vec<u8>,
        keep_alive: bool,
        http11: bool,
        retry_after: Option<u64>,
    ) -> Payload {
        let chunked = http11 && body.len() > CHUNK_THRESHOLD;
        let length = (!chunked).then_some(body.len());
        let mut head = encode_head(status, content_type, length, keep_alive, retry_after);
        if chunked {
            return Payload::Chunked {
                stage: head,
                off: 0,
                body,
                pos: 0,
                terminated: false,
            };
        }
        head.extend_from_slice(&body);
        Payload::Whole {
            bytes: head,
            off: 0,
        }
    }

    /// Pre-encoded bytes (the `100 Continue` interim response).
    pub fn raw(bytes: &[u8]) -> Payload {
        Payload::Whole {
            bytes: bytes.to_vec(),
            off: 0,
        }
    }

    /// Write as much as the socket will take. `Ok(true)` when the whole
    /// payload is on the wire.
    fn write_step(&mut self, stream: &mut TcpStream) -> io::Result<bool> {
        loop {
            match self {
                Payload::Whole { bytes, off } => {
                    if *off == bytes.len() {
                        return Ok(true);
                    }
                    let n = stream.write(&bytes[*off..])?;
                    if n == 0 {
                        return Err(io::ErrorKind::WriteZero.into());
                    }
                    *off += n;
                }
                Payload::Chunked {
                    stage,
                    off,
                    body,
                    pos,
                    terminated,
                } => {
                    if *off == stage.len() {
                        // Stage drained: frame the next chunk, the
                        // terminator, or finish.
                        if *pos < body.len() {
                            let end = (*pos + CHUNK_SIZE).min(body.len());
                            let mut next = format!("{:x}\r\n", end - *pos).into_bytes();
                            next.extend_from_slice(&body[*pos..end]);
                            next.extend_from_slice(b"\r\n");
                            *pos = end;
                            *stage = next;
                            *off = 0;
                        } else if !*terminated {
                            *stage = b"0\r\n\r\n".to_vec();
                            *off = 0;
                            *terminated = true;
                        } else {
                            return Ok(true);
                        }
                    }
                    let n = stream.write(&stage[*off..])?;
                    if n == 0 {
                        return Err(io::ErrorKind::WriteZero.into());
                    }
                    *off += n;
                }
            }
        }
    }
}

/// What reading from a connection produced.
#[derive(Debug)]
pub enum ConnEvent {
    /// A complete request, ready to dispatch (or queue behind one).
    Request(ParsedRequest),
    /// A protocol violation to answer with `status`; `recoverable`
    /// means framing survived and the connection may keep serving.
    Bad {
        status: u16,
        message: &'static str,
        recoverable: bool,
    },
    /// Peer closed its write half (or the socket died).
    Eof,
}

/// Result of flushing the outbox.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushState {
    /// Outbox empty, all bytes on the wire.
    Idle,
    /// Socket full; wait for `EPOLLOUT`.
    Blocked,
    /// Peer is gone; drop the connection.
    Closed,
}

/// Per-connection state owned by exactly one event loop.
pub struct Conn {
    pub stream: TcpStream,
    /// Guards against fd-reuse races: completions carry the generation
    /// they were dispatched under and are dropped on mismatch.
    pub generation: u64,
    read_buf: Vec<u8>,
    /// Requests parsed but waiting their turn (one dispatch in flight
    /// per connection keeps pipelined responses in order).
    pub pending: VecDeque<ParsedRequest>,
    pub dispatch_in_flight: bool,
    outbox: VecDeque<Payload>,
    /// Stop reading; close once the outbox drains.
    pub close_after_flush: bool,
    /// Peer half-closed; serve what's queued, accept nothing new.
    pub read_closed: bool,
    /// Epoll interest currently registered for this fd.
    pub interest: u32,
    continue_sent: bool,
}

impl Conn {
    pub fn new(stream: TcpStream, generation: u64) -> Conn {
        Conn {
            stream,
            generation,
            read_buf: Vec::new(),
            pending: VecDeque::new(),
            dispatch_in_flight: false,
            outbox: VecDeque::new(),
            close_after_flush: false,
            read_closed: false,
            interest: 0,
            continue_sent: false,
        }
    }

    /// Drain the socket into the read buffer and parse every complete
    /// request out of it. Stops early when the pipeline backlog hits
    /// [`MAX_PIPELINED`] — level-triggered epoll re-delivers readiness
    /// once the backlog drains.
    pub fn on_readable(&mut self, max_body: usize) -> Vec<ConnEvent> {
        let mut events = Vec::new();
        if self.read_closed || self.close_after_flush {
            return events;
        }
        let mut chunk = [0u8; 16 * 1024];
        'read: loop {
            if self.pending.len() + events.len() >= MAX_PIPELINED {
                break;
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    events.push(ConnEvent::Eof);
                    break;
                }
                Ok(n) => self.read_buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    events.push(ConnEvent::Eof);
                    break;
                }
            }
            loop {
                match parse_request(&self.read_buf, max_body) {
                    ParseOutcome::Incomplete { send_continue } => {
                        if send_continue && !self.continue_sent {
                            self.outbox.push_back(Payload::raw(CONTINUE_RESPONSE));
                            self.continue_sent = true;
                        }
                        break;
                    }
                    ParseOutcome::Request(req, consumed) => {
                        self.read_buf.drain(..consumed);
                        self.continue_sent = false;
                        events.push(ConnEvent::Request(req));
                        if self.pending.len() + events.len() >= MAX_PIPELINED {
                            break;
                        }
                    }
                    ParseOutcome::Bad {
                        status,
                        message,
                        recoverable,
                        consumed,
                    } => {
                        self.read_buf.drain(..consumed);
                        events.push(ConnEvent::Bad {
                            status,
                            message,
                            recoverable,
                        });
                        // Framing is suspect (or gone): stop consuming
                        // input either way; the loop decides whether
                        // the connection survives.
                        break 'read;
                    }
                }
            }
        }
        events
    }

    /// Queue a staged response for in-order transmission.
    pub fn enqueue(&mut self, payload: Payload) {
        self.outbox.push_back(payload);
    }

    /// Push queued bytes at the socket until it blocks or empties.
    pub fn flush(&mut self) -> FlushState {
        loop {
            let Some(front) = self.outbox.front_mut() else {
                return FlushState::Idle;
            };
            match front.write_step(&mut self.stream) {
                Ok(true) => {
                    self.outbox.pop_front();
                }
                Ok(false) => unreachable!("write_step only returns true"),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return FlushState::Blocked,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return FlushState::Closed,
            }
        }
    }

    /// Nothing queued, nothing running, nothing buffered: safe to
    /// close without cutting off a response.
    pub fn is_drained(&self) -> bool {
        !self.dispatch_in_flight && self.outbox.is_empty() && self.pending.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::JSON;

    #[test]
    fn whole_payload_frames_content_length() {
        let p = Payload::response(200, JSON, b"{}".to_vec(), true, true, None);
        match p {
            Payload::Whole { bytes, .. } => {
                let text = String::from_utf8(bytes).unwrap();
                assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
                assert!(text.contains("content-length: 2\r\n"));
                assert!(text.ends_with("\r\n\r\n{}"));
            }
            other => panic!("expected Whole, got {:?}", other),
        }
    }

    #[test]
    fn large_http11_body_goes_chunked() {
        let body = vec![b'x'; CHUNK_THRESHOLD + 1];
        match Payload::response(200, JSON, body.clone(), true, true, None) {
            Payload::Chunked { stage, .. } => {
                let head = String::from_utf8(stage).unwrap();
                assert!(head.contains("transfer-encoding: chunked\r\n"));
            }
            other => panic!("expected Chunked, got {:?}", other),
        }
        // HTTP/1.0 peers never see chunked framing.
        match Payload::response(200, JSON, body, false, false, None) {
            Payload::Whole { .. } => {}
            other => panic!("expected Whole for HTTP/1.0, got {:?}", other),
        }
    }
}
