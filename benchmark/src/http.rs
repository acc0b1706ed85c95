//! A minimal keep-alive HTTP/1.1 client: one connection, one request
//! in flight, `content-length` and chunked responses, one transparent
//! reconnect when a reused connection turns out to be dead.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

pub struct Client {
    addr: SocketAddr,
    stream: Option<BufReader<TcpStream>>,
    line: String,
    /// Connections opened (the first one included).
    pub connects: u64,
    /// Response bytes read, framing included.
    pub bytes_read: u64,
    /// 429 / 503 answers seen: the server shedding load.
    pub sheds: u64,
}

pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
}

impl Response {
    pub fn ok(&self) -> bool {
        (200..300).contains(&self.status)
    }
}

impl Client {
    pub fn new(addr: SocketAddr) -> Client {
        Client {
            addr,
            stream: None,
            line: String::new(),
            connects: 0,
            bytes_read: 0,
            sheds: 0,
        }
    }

    /// `body` empty means no body.
    pub fn request(&mut self, method: &str, path: &str, body: &str) -> io::Result<Response> {
        let reused = self.stream.is_some();
        match self.try_request(method, path, body) {
            Err(_) if reused => {
                self.stream = None;
                self.try_request(method, path, body)
            }
            other => other,
        }
    }

    pub fn get(&mut self, path: &str) -> io::Result<Response> {
        self.request("GET", path, "")
    }

    fn read_line(&mut self) -> io::Result<&str> {
        let reader = self.stream.as_mut().expect("connected");
        self.line.clear();
        if reader.read_line(&mut self.line)? == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        self.bytes_read += self.line.len() as u64;
        Ok(self.line.trim_end())
    }

    fn try_request(&mut self, method: &str, path: &str, body: &str) -> io::Result<Response> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_read_timeout(Some(Duration::from_secs(60)))?;
            stream.set_nodelay(true)?;
            self.stream = Some(BufReader::with_capacity(64 * 1024, stream));
            self.connects += 1;
        }
        let mut raw = Vec::with_capacity(128 + path.len() + body.len());
        write!(raw, "{method} {path} HTTP/1.1\r\nhost: bench\r\n")?;
        if !body.is_empty() {
            write!(raw, "content-length: {}\r\n", body.len())?;
        }
        raw.extend_from_slice(b"\r\n");
        raw.extend_from_slice(body.as_bytes());
        self.stream
            .as_mut()
            .expect("connected")
            .get_mut()
            .write_all(&raw)?;

        let status: u16 = self
            .read_line()?
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or(io::ErrorKind::InvalidData)?;
        let mut content_length = None;
        let mut chunked = false;
        let mut close = false;
        loop {
            let header = self.read_line()?;
            if header.is_empty() {
                break;
            }
            let Some((name, value)) = header.split_once(':') else {
                continue;
            };
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.parse::<usize>().ok();
            } else if name.eq_ignore_ascii_case("transfer-encoding") {
                chunked = value.eq_ignore_ascii_case("chunked");
            } else if name.eq_ignore_ascii_case("connection") {
                close = value.eq_ignore_ascii_case("close");
            }
        }

        let mut body = Vec::new();
        if chunked {
            loop {
                let size = usize::from_str_radix(self.read_line()?, 16)
                    .map_err(|_| io::ErrorKind::InvalidData)?;
                let at = body.len();
                body.resize(at + size + 2, 0); // data + CRLF
                self.stream
                    .as_mut()
                    .expect("connected")
                    .read_exact(&mut body[at..])?;
                self.bytes_read += (size + 2) as u64;
                body.truncate(at + size);
                if size == 0 {
                    break;
                }
            }
        } else if let Some(n) = content_length {
            body.resize(n, 0);
            self.stream
                .as_mut()
                .expect("connected")
                .read_exact(&mut body)?;
            self.bytes_read += n as u64;
        }
        if close {
            self.stream = None;
        }
        if matches!(status, 429 | 503) {
            self.sheds += 1;
        }
        Ok(Response { status, body })
    }
}
