//! A minimal HTTP/1.1 subset — exactly what the experiment API needs
//! and nothing more: one request per connection (`Connection: close`),
//! `Content-Length` bodies, no chunked encoding, no keep-alive, no TLS.
//! Hand-rolled over `std::net` so the service stays registry-free.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::{Duration, Instant};

/// Bodies above this size are rejected before buffering (an experiment
/// spec is a few KiB; anything near this bound is not a spec).
pub const MAX_BODY: usize = 4 * 1024 * 1024;
/// The longest request line or header line accepted, newline included.
/// Longer lines are rejected after reading at most this many bytes, so a
/// peer that never sends a newline cannot grow a connection's buffer.
pub const MAX_LINE: usize = 8 * 1024;
const MAX_HEADERS: usize = 64;
/// The whole request — request line, headers and body — must arrive
/// within this, so a peer trickling bytes cannot hold a connection
/// thread for longer.
const REQUEST_DEADLINE: Duration = Duration::from_secs(10);

/// One parsed request. Header names are lowercased at parse time, so
/// lookups are case-insensitive the way HTTP requires.
#[derive(Clone, Debug, Default)]
pub struct Request {
    /// `GET`, `POST`, … (uppercased by the peer per HTTP).
    pub method: String,
    /// The request target, e.g. `/v1/runs/0xabc…/result`.
    pub path: String,
    /// `(lowercased-name, value)` pairs in arrival order.
    pub headers: Vec<(String, String)>,
    /// The body (empty without a `Content-Length`).
    pub body: String,
}

impl Request {
    /// The first value of `name` (lowercase), if present.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }
}

/// Reads one request from `stream`. The whole request has one 10 s
/// deadline, so neither a stalled nor a trickling peer can pin a
/// connection thread.
pub fn read_request(stream: &mut TcpStream) -> Result<Request, String> {
    read_request_within(stream, REQUEST_DEADLINE)
}

/// [`read_request`] with the deadline `limit` from now.
fn read_request_within(stream: &TcpStream, limit: Duration) -> Result<Request, String> {
    let mut reader = BufReader::new(Deadline { stream, at: Instant::now() + limit });
    let mut line = String::new();
    read_line(&mut reader, &mut line, "request line")?;
    let mut parts = line.split_whitespace();
    let (method, path) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v)) if v.starts_with("HTTP/1.") => {
            (m.to_string(), p.to_string())
        }
        _ => return Err(format!("malformed request line {:?}", line.trim_end())),
    };
    let mut req = Request { method, path, ..Request::default() };
    loop {
        line.clear();
        read_line(&mut reader, &mut line, "header line")?;
        let trimmed = line.trim_end_matches(['\r', '\n']);
        if trimmed.is_empty() {
            break;
        }
        if req.headers.len() >= MAX_HEADERS {
            return Err("too many request headers".to_string());
        }
        let (name, value) =
            trimmed.split_once(':').ok_or_else(|| format!("malformed header {trimmed:?}"))?;
        req.headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    if let Some(len) = req.header("content-length") {
        let len: usize =
            len.parse().map_err(|_| format!("malformed content-length {len:?}"))?;
        if len > MAX_BODY {
            return Err(format!("request body of {len} bytes exceeds the {MAX_BODY} cap"));
        }
        let mut body = vec![0u8; len];
        reader.read_exact(&mut body).map_err(|e| format!("reading body: {e}"))?;
        req.body = String::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    }
    Ok(req)
}

/// A socket reader with one deadline over all its reads: before each
/// read the socket's timeout is set to the time left, and once none is
/// left every read fails with [`io::ErrorKind::TimedOut`].
struct Deadline<'a> {
    stream: &'a TcpStream,
    at: Instant,
}

impl Read for Deadline<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let left = self.at.saturating_duration_since(Instant::now());
        let timed_out = || io::Error::new(io::ErrorKind::TimedOut, "request deadline passed");
        if left.is_zero() {
            return Err(timed_out());
        }
        self.stream.set_read_timeout(Some(left))?;
        let mut stream = self.stream;
        stream.read(buf).map_err(|e| match e.kind() {
            // The timeout was the time left: the deadline has passed.
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => timed_out(),
            _ => e,
        })
    }
}

/// Appends one line (at most [`MAX_LINE`] bytes) from `reader` to
/// `line`; a longer line is an error naming `what`.
fn read_line(reader: &mut impl BufRead, line: &mut String, what: &str) -> Result<(), String> {
    let cap = MAX_LINE as u64;
    reader.take(cap).read_line(line).map_err(|e| format!("reading {what}: {e}"))?;
    if line.len() >= MAX_LINE && !line.ends_with('\n') {
        return Err(format!("{what} exceeds the {MAX_LINE}-byte cap"));
    }
    Ok(())
}

fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        401 => "Unauthorized",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        429 => "Too Many Requests",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// Writes one complete response and leaves the connection to be closed
/// (every exchange is single-shot).
pub fn write_response(stream: &mut TcpStream, status: u16, body: &str) -> Result<(), String> {
    let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
    let head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        status_text(status),
        body.len(),
    );
    stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(body.as_bytes()))
        .and_then(|()| stream.flush())
        .map_err(|e| format!("writing response: {e}"))
}

/// Drains what the peer is still sending after a rejected request, with
/// our write half shut down: at most [`MAX_BODY`] bytes for at most two
/// seconds. Closing a socket that still holds unread input resets the
/// connection, which can destroy the error reply before the peer reads
/// it.
pub(crate) fn drain(stream: &mut TcpStream) {
    let _ = stream.shutdown(Shutdown::Write);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let deadline = Instant::now() + Duration::from_secs(2);
    let mut buf = [0u8; 8192];
    let mut left = MAX_BODY;
    while left > 0 && Instant::now() < deadline {
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => left = left.saturating_sub(n),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// Sends `raw` to a fresh loopback connection and parses it with
    /// [`read_request`].
    fn parse(raw: Vec<u8>) -> Result<Request, String> {
        // The server may stop reading early; a failed write is fine.
        let send = move |stream: &mut TcpStream| {
            let _ = stream.write_all(&raw);
        };
        exchange(send, REQUEST_DEADLINE)
    }

    /// Runs `client` on a fresh loopback connection and parses what it
    /// sends with a request deadline of `limit`.
    fn exchange(
        client: impl FnOnce(&mut TcpStream) + Send + 'static,
        limit: Duration,
    ) -> Result<Request, String> {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let client = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).expect("connect");
            client(&mut stream);
            stream
        });
        let (stream, _) = listener.accept().expect("accept");
        let req = read_request_within(&stream, limit);
        // Closing unblocks a client still writing what was never read.
        drop(stream);
        drop(client.join().expect("client"));
        req
    }

    #[test]
    fn a_trickling_request_hits_the_total_deadline() {
        let limit = Duration::from_millis(300);
        // One byte every 20 ms never trips a per-read timeout, but the
        // request as a whole misses its deadline.
        let trickle = |stream: &mut TcpStream| {
            let _ = stream.write_all(b"GET / HTTP/1.1\r\n");
            for _ in 0..100 {
                if stream.write_all(b"x").is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        };
        let start = Instant::now();
        let err = exchange(trickle, limit).unwrap_err();
        let waited = start.elapsed();
        assert!(err.contains("reading header line: request deadline passed"), "{err}");
        assert!(waited >= limit && waited < Duration::from_secs(1), "{waited:?}");

        // A request that arrives in time still parses under the short
        // deadline, body included.
        let prompt = |stream: &mut TcpStream| {
            let _ = stream.write_all(b"POST /v1/runs HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}");
        };
        let req = exchange(prompt, limit).expect("parses");
        assert_eq!((req.method.as_str(), req.body.as_str()), ("POST", "{}"));
    }

    #[test]
    fn lines_are_capped() {
        let ok = parse(b"GET /v1/runs HTTP/1.1\r\nHost: x\r\n\r\n".to_vec()).expect("parses");
        assert_eq!((ok.method.as_str(), ok.path.as_str()), ("GET", "/v1/runs"));
        assert_eq!(ok.header("host"), Some("x"));

        // A header line of exactly the cap (newline included) still parses.
        let value = "v".repeat(MAX_LINE - "X-Long: \r\n".len());
        let raw = format!("GET / HTTP/1.1\r\nX-Long: {value}\r\n\r\n");
        let req = parse(raw.into_bytes()).expect("a line at the cap parses");
        assert_eq!(req.header("x-long").map(str::len), Some(value.len()));

        // One byte over, with or without a newline, is refused.
        let raw = format!("GET / HTTP/1.1\r\nX-Long: {value}v\r\n\r\n");
        let err = parse(raw.into_bytes()).unwrap_err();
        assert!(err.contains("header line exceeds the 8192-byte cap"), "{err}");
        let mut raw = b"GET /".to_vec();
        raw.extend(std::iter::repeat_n(b'a', 1 << 20));
        let err = parse(raw).unwrap_err();
        assert!(err.contains("request line exceeds the 8192-byte cap"), "{err}");
    }
}
