//! Byte-level properties of `http::parse_request`, the first decoder a
//! socket's bytes meet: hostile input never panics or over-consumes,
//! and a valid pipelined stream decodes the same however the network
//! splits it.

use proptest::prelude::*;
use sqlshare_server::http::{parse_request, ParseOutcome};

/// What a request decodes to: method, path, body, keep-alive, HTTP/1.1.
type Decoded = (String, String, Vec<u8>, bool, bool);

/// Input fragments: arbitrary bytes, numbers, and the tokens the
/// parser branches on.
fn fragment() -> BoxedStrategy<Vec<u8>> {
    let token = prop_oneof![
        Just("GET / HTTP/1.1"),
        Just("POST /x HTTP/1.0"),
        Just(" HTTP/2"),
        Just("\r\n"),
        Just("\n"),
        Just("\r\n\r\n"),
        Just(":"),
        Just(" "),
        Just("content-length: "),
        Just("Content-Length : "),
        Just("content-length: +"),
        Just("transfer-encoding: chunked"),
        Just("connection: close"),
        Just("expect: 100-continue"),
    ];
    prop_oneof![
        prop::collection::vec(any::<u8>(), 0..16),
        token.prop_map(|t: &str| t.as_bytes().to_vec()),
        (0u64..100_000).prop_map(|n| n.to_string().into_bytes()),
    ]
}

/// One valid request: its bytes and what it must decode to.
fn request() -> impl Strategy<Value = (Vec<u8>, Decoded)> {
    (
        prop_oneof![Just("GET"), Just("POST"), Just("DELETE")],
        "/[a-z0-9]{0,8}",
        any::<bool>(),
        any::<bool>(),
        0u8..3,
        prop::collection::vec(any::<u8>(), 0..48),
    )
        .prop_map(|(method, path, http11, crlf, connection, body)| {
            let eol = if crlf { "\r\n" } else { "\n" };
            let version = if http11 { "HTTP/1.1" } else { "HTTP/1.0" };
            let mut head = format!("{method} {path} {version}{eol}host: x{eol}");
            let keep_alive = match connection {
                0 => http11,
                1 => {
                    head.push_str(&format!("Connection: close{eol}"));
                    false
                }
                _ => {
                    head.push_str(&format!("connection: keep-alive{eol}"));
                    true
                }
            };
            if !body.is_empty() || method == "POST" {
                head.push_str(&format!("content-length: {}{eol}", body.len()));
            }
            head.push_str(eol);
            let mut bytes = head.into_bytes();
            bytes.extend_from_slice(&body);
            (bytes, (method.to_string(), path, body, keep_alive, http11))
        })
}

/// Hostile input: a valid pipelined stream (possibly empty) with
/// fragments spliced in at arbitrary points, so that random bytes land
/// in every part of a request and not only before its request line.
fn hostile() -> impl Strategy<Value = Vec<u8>> {
    (
        prop::collection::vec(request(), 0..3),
        prop::collection::vec((any::<usize>(), fragment()), 0..8),
    )
        .prop_map(|(requests, splices)| {
            let mut buf: Vec<u8> = requests.into_iter().flat_map(|(bytes, _)| bytes).collect();
            for (at, bytes) in splices {
                let at = at % (buf.len() + 1);
                buf.splice(at..at, bytes);
            }
            buf
        })
}

/// Feed `chunks` the way a connection does: append each, then parse
/// requests off the front until the parser needs more bytes. A refusal
/// ends the stream, as it closes the connection.
fn feed<'a>(chunks: impl IntoIterator<Item = &'a [u8]>) -> Vec<Decoded> {
    let mut buf = Vec::new();
    let mut out = Vec::new();
    for chunk in chunks {
        buf.extend_from_slice(chunk);
        loop {
            match parse_request(&buf, 1 << 16) {
                ParseOutcome::Request(req, consumed) => {
                    out.push((req.method, req.path, req.body, req.keep_alive, req.http11));
                    buf.drain(..consumed);
                }
                ParseOutcome::Incomplete { .. } => break,
                ParseOutcome::Bad { .. } => return out,
            }
        }
    }
    out
}

proptest! {
    #[test]
    fn arbitrary_bytes_never_panic_or_over_consume(
        buf in hostile(),
        max_body in 0usize..128,
    ) {
        // Every prefix, as the event loop re-parses a growing buffer.
        for end in 0..=buf.len() {
            let consumed = match parse_request(&buf[..end], max_body) {
                ParseOutcome::Request(_, consumed) | ParseOutcome::Bad { consumed, .. } => consumed,
                ParseOutcome::Incomplete { .. } => 0,
            };
            prop_assert!(consumed <= end, "consumed {consumed} of {end} bytes");
        }
    }

    #[test]
    fn a_pipelined_stream_decodes_the_same_however_it_is_split(
        requests in prop::collection::vec(request(), 1..6),
        cuts in prop::collection::vec(any::<usize>(), 0..8),
    ) {
        let stream: Vec<u8> = requests.iter().flat_map(|(bytes, _)| bytes.iter().copied()).collect();
        let want: Vec<Decoded> = requests.into_iter().map(|(_, decoded)| decoded).collect();
        prop_assert_eq!(feed([stream.as_slice()]), want.clone());

        let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c % (stream.len() + 1)).collect();
        cuts.sort_unstable();
        let mut from = 0;
        let mut chunks = Vec::new();
        for cut in cuts.into_iter().chain([stream.len()]) {
            chunks.push(&stream[from..cut]);
            from = cut;
        }
        prop_assert_eq!(feed(chunks), want);
    }
}

/// A head that is not UTF-8 is refused, not read lossily into a path
/// that names a resource nobody asked for.
#[test]
fn a_head_that_is_not_utf8_is_400_and_fatal() {
    match parse_request(b"GET /api/datasets/ada/caf\xe9 HTTP/1.1\r\n\r\n", 1 << 20) {
        ParseOutcome::Bad {
            status: 400,
            recoverable: false,
            ..
        } => {}
        other => panic!("parsed as {other:?}"),
    }
}
