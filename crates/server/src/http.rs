//! Incremental HTTP/1.1 request parsing and response framing.
//!
//! The parser is a pure function over a byte buffer: the event loop
//! appends whatever the socket yields and re-runs [`parse_request`]
//! until it returns [`ParseOutcome::Incomplete`]. Nothing here blocks
//! and nothing assumes a request arrives in one read — a request line
//! split across ten TCP segments parses the same as one that arrives
//! whole.

/// Hard cap on the request head (request line + headers). Anything
/// bigger is either a client bug or an attack; no SQLShare route needs
/// long headers.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Result of attempting to parse one request off the front of a
/// connection's read buffer.
#[derive(Debug)]
pub enum ParseOutcome {
    /// Not enough bytes yet. `send_continue` is set when a complete
    /// head carried `Expect: 100-continue` and the body has not fully
    /// arrived — the caller should emit an interim `100 Continue` once.
    Incomplete { send_continue: bool },
    /// A complete request; `consumed` bytes of the buffer belong to it.
    Request(ParsedRequest, usize),
    /// Protocol violation. `recoverable` means request framing is
    /// intact (we know where this request ends), so after responding
    /// with `status` the connection may keep serving; otherwise the
    /// caller must respond and close.
    Bad {
        status: u16,
        message: &'static str,
        recoverable: bool,
        consumed: usize,
    },
}

/// A fully framed request, decoded but not yet interpreted: the body
/// is raw bytes (JSON parsing happens on a worker thread, not on the
/// event loop).
#[derive(Debug)]
pub struct ParsedRequest {
    pub method: String,
    pub path: String,
    pub body: Vec<u8>,
    /// Whether the client allows connection reuse (HTTP/1.1 default,
    /// or an explicit `Connection: keep-alive` on 1.0).
    pub keep_alive: bool,
    /// HTTP/1.1 peers may receive chunked responses; 1.0 peers never.
    pub http11: bool,
}

/// Attempt to parse one request from the front of `buf`.
pub fn parse_request(buf: &[u8], max_body: usize) -> ParseOutcome {
    let head_end = match find_head_end(buf) {
        Some(end) => end,
        None => {
            if buf.len() > MAX_HEAD_BYTES {
                return ParseOutcome::Bad {
                    status: 431,
                    message: "request head exceeds 16 KiB",
                    recoverable: false,
                    consumed: 0,
                };
            }
            return ParseOutcome::Incomplete {
                send_continue: false,
            };
        }
    };
    if head_end > MAX_HEAD_BYTES {
        return ParseOutcome::Bad {
            status: 431,
            message: "request head exceeds 16 KiB",
            recoverable: false,
            consumed: 0,
        };
    }
    // A head that is not UTF-8 is refused, not rewritten: a path read
    // lossily would name a resource nobody asked for.
    let Ok(head) = std::str::from_utf8(&buf[..head_end]) else {
        return ParseOutcome::Bad {
            status: 400,
            message: "request head is not UTF-8",
            recoverable: false,
            consumed: 0,
        };
    };
    let mut lines = head.split('\n').map(|l| l.trim_end_matches('\r'));

    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let method = match parts.next() {
        Some(m) if !m.is_empty() => m.to_string(),
        _ => {
            return ParseOutcome::Bad {
                status: 400,
                message: "malformed request line",
                recoverable: false,
                consumed: 0,
            }
        }
    };
    let path = match parts.next() {
        Some(p) => p.to_string(),
        None => {
            return ParseOutcome::Bad {
                status: 400,
                message: "malformed request line",
                recoverable: false,
                consumed: 0,
            }
        }
    };
    let http11 = match parts.next() {
        None | Some("HTTP/1.1") => parts.next().is_none(),
        Some("HTTP/1.0") => false,
        Some(_) => {
            return ParseOutcome::Bad {
                status: 505,
                message: "unsupported HTTP version",
                recoverable: false,
                consumed: 0,
            }
        }
    };

    let mut content_length: Option<usize> = None;
    let mut keep_alive = http11;
    let mut expect_continue = false;
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = match line.split_once(':') {
            // Whitespace before the colon is refused (RFC 9112 §5.1): a
            // peer that trims it and one that does not would read two
            // different headers.
            Some((n, v)) if !n.ends_with([' ', '\t']) => (n.trim_start(), v.trim()),
            // A header line with no colon: framing of the *next*
            // request is still known, but trusting the rest of this
            // head is not worth it.
            _ => {
                return ParseOutcome::Bad {
                    status: 400,
                    message: "malformed header line",
                    recoverable: false,
                    consumed: 0,
                }
            }
        };
        if name.eq_ignore_ascii_case("content-length") {
            // Digits only, and a repeated header must repeat the value
            // (RFC 9110 §8.6): anything else is how a request is
            // smuggled past a proxy that frames it differently. Body
            // length unknown -> framing is lost; must close.
            let parsed = Some(value)
                .filter(|v| v.bytes().all(|b| b.is_ascii_digit()))
                .and_then(|v| v.parse::<usize>().ok());
            match (parsed, content_length) {
                (Some(n), None) => content_length = Some(n),
                (Some(n), Some(seen)) if n == seen => {}
                _ => {
                    return ParseOutcome::Bad {
                        status: 400,
                        message: "malformed Content-Length header",
                        recoverable: false,
                        consumed: 0,
                    }
                }
            }
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            // We never advertise request-chunking support and decoding
            // it buys nothing for a JSON API.
            return ParseOutcome::Bad {
                status: 501,
                message: "chunked request bodies are not supported",
                recoverable: false,
                consumed: 0,
            };
        } else if name.eq_ignore_ascii_case("connection") {
            let v = value.to_ascii_lowercase();
            if v.split(',').any(|t| t.trim() == "close") {
                keep_alive = false;
            } else if v.split(',').any(|t| t.trim() == "keep-alive") {
                keep_alive = true;
            }
        } else if name.eq_ignore_ascii_case("expect")
            && value.eq_ignore_ascii_case("100-continue")
        {
            expect_continue = true;
        }
    }

    let content_length = content_length.unwrap_or(0);
    if content_length > max_body {
        // Refusing up front (instead of the old demo's silent
        // `min(4 MiB)` truncation) means the client finds out its
        // upload was too big rather than ingesting a prefix of it.
        return ParseOutcome::Bad {
            status: 413,
            message: "request body exceeds the configured size limit",
            recoverable: false,
            consumed: 0,
        };
    }

    let total = head_end + content_length;
    if buf.len() < total {
        return ParseOutcome::Incomplete {
            send_continue: expect_continue,
        };
    }

    ParseOutcome::Request(
        ParsedRequest {
            method,
            path,
            body: buf[head_end..total].to_vec(),
            keep_alive,
            http11,
        },
        total,
    )
}

/// Find the end of the head: the byte index just past the first blank
/// line. Accepts both CRLF and bare-LF line endings.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    let mut i = 0;
    while i < buf.len() {
        if buf[i] == b'\n' {
            if i + 2 < buf.len() && buf[i + 1] == b'\r' && buf[i + 2] == b'\n' {
                return Some(i + 3);
            }
            if i + 1 < buf.len() && buf[i + 1] == b'\n' {
                return Some(i + 2);
            }
        }
        i += 1;
    }
    None
}

pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        202 => "Accepted",
        400 => "Bad Request",
        403 => "Forbidden",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        505 => "HTTP Version Not Supported",
        _ => "Status",
    }
}

/// The content type of every answer but a body of record frames.
pub const JSON: &str = "application/json";
/// The content type of the replication routes' bodies of record frames.
pub const FRAMES: &str = "application/octet-stream";

/// Serialize a response head. `content_length` of `None` selects
/// chunked transfer encoding (HTTP/1.1 only — callers gate on the
/// request version).
pub fn encode_head(
    status: u16,
    content_type: &str,
    content_length: Option<usize>,
    keep_alive: bool,
    retry_after: Option<u64>,
) -> Vec<u8> {
    let reason = reason_phrase(status);
    let mut head = format!("HTTP/1.1 {status} {reason}\r\ncontent-type: {content_type}\r\n");
    match content_length {
        Some(n) => head.push_str(&format!("content-length: {}\r\n", n)),
        None => head.push_str("transfer-encoding: chunked\r\n"),
    }
    if let Some(secs) = retry_after {
        head.push_str(&format!("retry-after: {}\r\n", secs));
    }
    head.push_str(if keep_alive {
        "connection: keep-alive\r\n\r\n"
    } else {
        "connection: close\r\n\r\n"
    });
    head.into_bytes()
}

/// The interim response for `Expect: 100-continue`.
pub const CONTINUE_RESPONSE: &[u8] = b"HTTP/1.1 100 Continue\r\n\r\n";

#[cfg(test)]
mod tests {
    use super::*;

    const MAX: usize = 4 * 1024 * 1024;

    fn parse_ok(raw: &[u8]) -> (ParsedRequest, usize) {
        match parse_request(raw, MAX) {
            ParseOutcome::Request(req, consumed) => (req, consumed),
            other => panic!("expected complete request, got {:?}", other),
        }
    }

    #[test]
    fn parses_simple_get() {
        let raw = b"GET /api/ready HTTP/1.1\r\nhost: x\r\n\r\n";
        let (req, consumed) = parse_ok(raw);
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/api/ready");
        assert!(req.keep_alive);
        assert!(req.http11);
        assert!(req.body.is_empty());
        assert_eq!(consumed, raw.len());
    }

    #[test]
    fn parses_body_by_content_length() {
        let raw = b"POST /api/queries HTTP/1.1\r\ncontent-length: 7\r\n\r\n{\"a\":1}extra";
        let (req, consumed) = parse_ok(raw);
        assert_eq!(req.body, b"{\"a\":1}");
        assert_eq!(consumed, raw.len() - 5);
    }

    #[test]
    fn incremental_delivery_stays_incomplete_until_body_arrives() {
        let raw = b"POST /x HTTP/1.1\r\ncontent-length: 4\r\n\r\nabcd";
        for cut in 0..raw.len() {
            match parse_request(&raw[..cut], MAX) {
                ParseOutcome::Incomplete { .. } => {}
                other => panic!("prefix of {} bytes parsed as {:?}", cut, other),
            }
        }
        let (req, _) = parse_ok(raw);
        assert_eq!(req.body, b"abcd");
    }

    #[test]
    fn pipelined_requests_consume_exactly_one() {
        let raw = b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n";
        let (req, consumed) = parse_ok(raw);
        assert_eq!(req.path, "/a");
        let (req2, _) = parse_ok(&raw[consumed..]);
        assert_eq!(req2.path, "/b");
    }

    #[test]
    fn http10_defaults_to_close() {
        let (req, _) = parse_ok(b"GET / HTTP/1.0\r\n\r\n");
        assert!(!req.keep_alive);
        assert!(!req.http11);
        let (req, _) = parse_ok(b"GET / HTTP/1.0\r\nconnection: keep-alive\r\n\r\n");
        assert!(req.keep_alive);
    }

    #[test]
    fn connection_close_is_honoured() {
        let (req, _) = parse_ok(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(!req.keep_alive);
    }

    fn assert_fatal_400(raw: &[u8]) {
        let outcome = parse_request(raw, MAX);
        let fatal = matches!(outcome, ParseOutcome::Bad { status: 400, recoverable: false, .. });
        assert!(fatal, "{} parsed as {outcome:?}", raw.escape_ascii());
    }

    #[test]
    fn malformed_content_length_is_400_and_fatal() {
        assert_fatal_400(b"POST / HTTP/1.1\r\ncontent-length: banana\r\n\r\n");
    }

    #[test]
    fn conflicting_content_lengths_are_400_and_fatal() {
        assert_fatal_400(b"POST / HTTP/1.1\r\ncontent-length: 4\r\nContent-Length: 5\r\n\r\nabcde");
        assert_fatal_400(b"POST / HTTP/1.1\r\ncontent-length: 5\r\ncontent-length: 4\r\n\r\nabcde");
        // The same value twice frames the body one way only.
        let raw = b"POST / HTTP/1.1\r\ncontent-length: 4\r\ncontent-length: 4\r\n\r\nabcd";
        assert_eq!(parse_ok(raw).0.body, b"abcd");
    }

    #[test]
    fn a_signed_content_length_is_400_and_fatal() {
        assert_fatal_400(b"POST / HTTP/1.1\r\ncontent-length: +4\r\n\r\nabcd");
        assert_fatal_400(b"POST / HTTP/1.1\r\ncontent-length: -0\r\n\r\n");
        assert_fatal_400(b"POST / HTTP/1.1\r\ncontent-length: \r\n\r\n");
    }

    #[test]
    fn whitespace_before_the_colon_is_400_and_fatal() {
        assert_fatal_400(b"POST / HTTP/1.1\r\nContent-Length : 4\r\n\r\nabcd");
        assert_fatal_400(b"POST / HTTP/1.1\r\nContent-Length\t: 4\r\n\r\nabcd");
    }

    #[test]
    fn oversized_body_is_413() {
        match parse_request(b"POST / HTTP/1.1\r\ncontent-length: 100\r\n\r\n", 64) {
            ParseOutcome::Bad { status, .. } => assert_eq!(status, 413),
            other => panic!("expected Bad, got {:?}", other),
        }
    }

    #[test]
    fn oversized_head_is_431() {
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        raw.extend(std::iter::repeat_n(b'a', MAX_HEAD_BYTES + 1));
        match parse_request(&raw, MAX) {
            ParseOutcome::Bad { status, .. } => assert_eq!(status, 431),
            other => panic!("expected Bad, got {:?}", other),
        }
    }

    #[test]
    fn expect_continue_is_flagged_while_body_pending() {
        let raw = b"POST / HTTP/1.1\r\nexpect: 100-continue\r\ncontent-length: 4\r\n\r\n";
        match parse_request(raw, MAX) {
            ParseOutcome::Incomplete { send_continue } => assert!(send_continue),
            other => panic!("expected Incomplete, got {:?}", other),
        }
    }

    #[test]
    fn bare_lf_line_endings_parse() {
        let (req, _) = parse_ok(b"GET /api/ready HTTP/1.1\nhost: x\n\n");
        assert_eq!(req.path, "/api/ready");
    }

    #[test]
    fn chunked_request_body_is_rejected() {
        let raw = b"POST / HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n";
        match parse_request(raw, MAX) {
            ParseOutcome::Bad { status, .. } => assert_eq!(status, 501),
            other => panic!("expected Bad, got {:?}", other),
        }
    }

    #[test]
    fn head_encodes_retry_after() {
        let head = String::from_utf8(encode_head(429, JSON, Some(2), true, Some(7))).unwrap();
        assert!(head.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(head.contains("content-type: application/json\r\n"));
        assert!(head.contains("retry-after: 7\r\n"));
        assert!(head.contains("content-length: 2\r\n"));
        assert!(head.ends_with("connection: keep-alive\r\n\r\n"));
    }
}
