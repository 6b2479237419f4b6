//! Just enough HTTP/1.1 to serve queries: a bounded request-head
//! reader, a request-line parser, and a response writer.
//!
//! The workspace is dependency-free by policy, so this is hand-rolled
//! over [`std::net::TcpStream`] — but *bounded* hand-rolled: the
//! request line and header block both have hard byte ceilings, so a
//! client dribbling an endless line cannot grow server memory, and
//! every malformed shape maps to a typed [`RecvError`] the server turns
//! into a 4xx instead of a panic.

#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Longest accepted request line (method + target + version). Beyond
/// this the request is refused with `414 URI Too Long`.
pub const MAX_REQUEST_LINE: usize = 4096;
/// Longest accepted request head (request line + all headers). Beyond
/// this the request is refused with `431 Request Header Fields Too
/// Large`.
pub const MAX_HEAD_BYTES: usize = 16384;

/// A parsed request line. Headers are read (and bounded) but not
/// retained: every endpoint this server has is driven by the target
/// alone, and the response always closes the connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The method token, verbatim (`GET`, `POST`, ...).
    pub method: String,
    /// The request target, verbatim (`/query?area=...`).
    pub target: String,
}

impl Request {
    /// The target's path, without the query string.
    pub fn path(&self) -> &str {
        match self.target.split_once('?') {
            Some((path, _)) => path,
            None => &self.target,
        }
    }

    /// The raw query string (empty when absent).
    pub fn query(&self) -> &str {
        match self.target.split_once('?') {
            Some((_, q)) => q,
            None => "",
        }
    }

    /// `key=value` pairs of the query string, in order, undecoded (the
    /// query grammar here is floats, integers, and commas — nothing
    /// that needs percent-encoding).
    pub fn query_pairs(&self) -> Vec<(&str, &str)> {
        self.query()
            .split('&')
            .filter(|p| !p.is_empty())
            .map(|p| match p.split_once('=') {
                Some((k, v)) => (k, v),
                None => (p, ""),
            })
            .collect()
    }
}

/// Why a request head could not be read. Each variant maps to one
/// response the server sends (or, for disconnects, to none).
#[derive(Debug)]
pub enum RecvError {
    /// Clean EOF or reset before a full head arrived.
    Disconnected,
    /// The head did not arrive within the read timeout (→ 408).
    TimedOut,
    /// The request line exceeded [`MAX_REQUEST_LINE`] (→ 414).
    LineTooLong,
    /// The head exceeded [`MAX_HEAD_BYTES`] (→ 431).
    HeadTooLarge,
    /// The request line did not parse (→ 400).
    BadRequest(String),
    /// Any other transport error.
    Io(std::io::Error),
}

impl std::fmt::Display for RecvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecvError::Disconnected => write!(f, "client disconnected before a full request"),
            RecvError::TimedOut => write!(f, "timed out reading the request"),
            RecvError::LineTooLong => write!(f, "request line over {MAX_REQUEST_LINE} bytes"),
            RecvError::HeadTooLarge => write!(f, "request head over {MAX_HEAD_BYTES} bytes"),
            RecvError::BadRequest(why) => write!(f, "bad request: {why}"),
            RecvError::Io(e) => write!(f, "transport error: {e}"),
        }
    }
}

/// Read one request head (everything through the blank line) off the
/// stream and parse its request line. Split and partial reads are fine:
/// the reader accumulates until the head terminator, a limit, the
/// `timeout`, or EOF.
///
/// `timeout` bounds the whole head, not one read, so a client sending a
/// byte at a time cannot hold the connection past it. The caller sets
/// it as the stream's read timeout beforehand, which bounds the first
/// read; each later read gets what is left of it.
///
/// # Errors
/// A typed [`RecvError`]; see each variant for the response it maps to.
pub fn read_request(stream: &mut TcpStream, timeout: Duration) -> Result<Request, RecvError> {
    let deadline = Instant::now() + timeout;
    let mut head: Vec<u8> = Vec::with_capacity(256);
    let mut chunk = [0u8; 1024];
    // bounded: every pass reads at least one byte or returns, so the
    // head cap ends it within MAX_HEAD_BYTES bytes, and the deadline
    // within `timeout`.
    loop {
        if find_head_end(&head).is_some() {
            break;
        }
        if head.len() >= MAX_HEAD_BYTES {
            return Err(RecvError::HeadTooLarge);
        }
        // An over-long *first* line is diagnosed before the head cap so
        // the client hears 414, not 431.
        if !head.contains(&b'\n') && head.len() >= MAX_REQUEST_LINE {
            return Err(RecvError::LineTooLong);
        }
        if !head.is_empty() {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(RecvError::TimedOut);
            }
            stream.set_read_timeout(Some(left)).map_err(RecvError::Io)?;
        }
        let n = match stream.read(&mut chunk) {
            Ok(0) => return Err(RecvError::Disconnected),
            Ok(n) => n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                return Err(RecvError::TimedOut)
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::ConnectionReset
                    || e.kind() == std::io::ErrorKind::ConnectionAborted
                    || e.kind() == std::io::ErrorKind::BrokenPipe =>
            {
                return Err(RecvError::Disconnected)
            }
            Err(e) => return Err(RecvError::Io(e)),
        };
        head.extend_from_slice(chunk.get(..n).unwrap_or_default());
    }
    let line_end = head
        .iter()
        .position(|&b| b == b'\n')
        .ok_or(RecvError::Disconnected)?;
    let line = String::from_utf8_lossy(head.get(..line_end).unwrap_or_default());
    let line = line.trim_end_matches('\r');
    if line.len() > MAX_REQUEST_LINE {
        return Err(RecvError::LineTooLong);
    }
    parse_request_line(line)
}

/// Position just past the `\r\n\r\n` (or lenient `\n\n`) head
/// terminator, when present.
fn find_head_end(head: &[u8]) -> Option<usize> {
    head.windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|at| at + 4)
        .or_else(|| head.windows(2).position(|w| w == b"\n\n").map(|at| at + 2))
}

/// Parse `METHOD SP target SP HTTP/1.x` into a [`Request`].
fn parse_request_line(line: &str) -> Result<Request, RecvError> {
    let mut parts = line.split(' ').filter(|p| !p.is_empty());
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) => (m, t, v),
        _ => {
            return Err(RecvError::BadRequest(format!(
                "request line is not `METHOD target HTTP/1.x`: {line:?}"
            )))
        }
    };
    if !version.starts_with("HTTP/1.") {
        return Err(RecvError::BadRequest(format!(
            "unsupported protocol version {version:?}"
        )));
    }
    if !target.starts_with('/') {
        return Err(RecvError::BadRequest(format!(
            "request target must start with '/': {target:?}"
        )));
    }
    Ok(Request {
        method: method.to_string(),
        target: target.to_string(),
    })
}

/// A response ready to serialize: status, extra headers, body.
/// `Connection: close`, `Content-Length`, and a plain-text content type
/// are always written; one request per connection keeps the server's
/// state machine trivial and the measured latency honest.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Extra headers beyond the always-written set.
    pub headers: Vec<(String, String)>,
    /// Response body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Self {
            status,
            headers: Vec::new(),
            body: body.into().into_bytes(),
        }
    }

    /// Add a header.
    #[must_use]
    pub fn header(mut self, name: &str, value: impl std::fmt::Display) -> Self {
        self.headers.push((name.to_string(), value.to_string()));
        self
    }

    /// Serialize head + body to bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = String::with_capacity(128 + self.headers.len() * 32);
        out.push_str("HTTP/1.1 ");
        out.push_str(&self.status.to_string());
        out.push(' ');
        out.push_str(status_reason(self.status));
        out.push_str("\r\nConnection: close\r\nContent-Type: text/plain; charset=utf-8\r\n");
        out.push_str("Content-Length: ");
        out.push_str(&self.body.len().to_string());
        out.push_str("\r\n");
        for (name, value) in &self.headers {
            out.push_str(name);
            out.push_str(": ");
            out.push_str(value);
            out.push_str("\r\n");
        }
        out.push_str("\r\n");
        let mut bytes = out.into_bytes();
        bytes.extend_from_slice(&self.body);
        bytes
    }

    /// Write the response to the stream.
    ///
    /// # Errors
    /// The transport error; the caller decides whether a failed write
    /// is a disconnect to count or a fault to surface.
    pub fn write_to(&self, stream: &mut TcpStream) -> std::io::Result<()> {
        stream.write_all(&self.to_bytes())?;
        stream.flush()
    }
}

/// The reason phrase for every status this server sends.
pub fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        414 => "URI Too Long",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_line_parses_and_splits_target() {
        let r = parse_request_line("GET /query?area=0,0,1,1&time=5 HTTP/1.1").unwrap();
        assert_eq!(r.method, "GET");
        assert_eq!(r.path(), "/query");
        assert_eq!(r.query_pairs(), vec![("area", "0,0,1,1"), ("time", "5")]);
        let r = parse_request_line("GET /healthz HTTP/1.0").unwrap();
        assert_eq!(r.path(), "/healthz");
        assert_eq!(r.query(), "");
        assert!(r.query_pairs().is_empty());
    }

    #[test]
    fn bad_request_lines_are_typed() {
        for line in [
            "",
            "GET",
            "GET /x",
            "GET /x HTTP/1.1 extra",
            "GET /x FTP/1.0",
            "GET x HTTP/1.1",
        ] {
            assert!(
                matches!(parse_request_line(line), Err(RecvError::BadRequest(_))),
                "{line:?}"
            );
        }
    }

    #[test]
    fn head_end_accepts_crlf_and_lenient_lf() {
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n\r\n"), Some(18));
        assert_eq!(find_head_end(b"GET / HTTP/1.1\n\n"), Some(16));
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n"), None);
    }

    #[test]
    fn response_serializes_with_length_and_close() {
        let bytes = Response::text(503, "full\n")
            .header("Retry-After", 1)
            .to_bytes();
        let text = String::from_utf8(bytes).unwrap();
        assert!(
            text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"),
            "{text}"
        );
        assert!(text.contains("Connection: close\r\n"), "{text}");
        assert!(text.contains("Content-Length: 5\r\n"), "{text}");
        assert!(text.contains("Retry-After: 1\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\nfull\n"), "{text}");
    }
}
