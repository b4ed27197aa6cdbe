//! Minimal HTTP/1.1 framing over `std::net` streams.
//!
//! The service speaks a deliberately small subset: `Content-Length`
//! bodies only (no chunked encoding), but with real HTTP/1.1
//! **keep-alive**: a connection carries any number of sequential
//! requests (pipelining included — requests are answered strictly in
//! order), and either side can end it with `Connection: close`. Both the
//! server and the bundled client use these helpers, so the two ends
//! agree by construction.
//!
//! Byte budgets are enforced *per request*: each request may pull at
//! most [`MAX_HEAD`] + [`MAX_BODY`] fresh bytes off the socket
//! (responses get the larger [`MAX_RESPONSE_BODY`]), so a peer streaming
//! endless header lines — or endless pipelined garbage — exhausts its
//! allowance instead of the process heap.

use std::io::{self, BufRead, BufReader, Read, Take, Write};

/// Largest accepted request body (1 MiB) — inline programs are small.
pub const MAX_BODY: usize = 1 << 20;

/// Largest accepted *response* body (256 MiB). Results and profile
/// images can legitimately dwarf any request — a profile at hundreds of
/// ranks is tens of MiB — so the client's bound is separate from (and
/// far above) the server's request cap.
pub const MAX_RESPONSE_BODY: usize = 256 << 20;

/// Largest accepted head (request/status line + headers, 16 KiB).
pub const MAX_HEAD: usize = 16 << 10;

/// Error message of a declared body over the budget. The server's
/// connection loop matches on it exactly to classify the failure as
/// `body_too_large` (vs. generic `malformed_request`), so it is a
/// named constant rather than a literal that could silently drift.
pub const ERR_BODY_TOO_LARGE: &str = "body too large";

/// A parsed request head plus body.
#[derive(Debug, Clone)]
pub struct Request {
    /// `GET`, `POST`, ...
    pub method: String,
    /// Request target, e.g. `/jobs/abc/result`.
    pub path: String,
    /// Decoded body.
    pub body: String,
    /// Whether the peer wants the connection kept open afterwards
    /// (HTTP/1.1 defaults to yes, HTTP/1.0 to no, `Connection:`
    /// overrides either way).
    pub keep_alive: bool,
}

fn invalid(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// Parsed `Connection`/`Content-Length` headers of one message, plus
/// every header verbatim (the `/v1` protocol carries routing metadata —
/// `Allow`, `Location`, `Retry-After` — that clients and tests inspect).
struct Head {
    content_length: usize,
    /// `Some(true)` = keep-alive, `Some(false)` = close, `None` = unset.
    connection: Option<bool>,
    /// `(name, value)` pairs in wire order.
    headers: Vec<(String, String)>,
}

/// A fully parsed response: status, headers, body, keep-alive.
#[derive(Debug, Clone)]
pub struct HttpResponse {
    /// Status code.
    pub code: u16,
    /// Header `(name, value)` pairs in wire order.
    pub headers: Vec<(String, String)>,
    /// Raw body bytes.
    pub body: Vec<u8>,
    /// Whether the server will keep the connection open.
    pub keep_alive: bool,
}

impl HttpResponse {
    /// First header with the given name (case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// Reads a sequence of responses (and, in tests, requests) off one
/// stream, renewing the per-message byte budget between messages.
#[derive(Debug)]
pub struct MessageReader<S: Read> {
    reader: BufReader<Take<S>>,
}

impl<S: Read> MessageReader<S> {
    /// Wrap a stream. No bytes are read until the first message is
    /// requested.
    pub fn new(stream: S) -> MessageReader<S> {
        MessageReader {
            reader: BufReader::new(stream.take(0)),
        }
    }

    /// Grant the next message its byte budget. Bytes already buffered
    /// (a pipelined next request) were paid for by the previous grant.
    fn grant(&mut self, budget: usize) {
        self.reader.get_mut().set_limit(budget as u64);
    }

    /// Read one request. `Ok(None)` on clean end-of-stream (the peer
    /// closed between requests); errors on malformed or truncated input.
    /// The blocking reference the incremental [`RequestBuffer`] is
    /// tested against.
    #[cfg(test)]
    pub fn next_request(&mut self) -> io::Result<Option<Request>> {
        self.grant(MAX_HEAD + MAX_BODY);
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Ok(None);
        }
        let (method, path, default_keep_alive) = parse_request_line(&line)?;
        let head = read_headers(&mut self.reader, MAX_BODY, line.len())?;
        let body = read_body(&mut self.reader, head.content_length)?;
        let body = String::from_utf8(body).map_err(|_| invalid("body is not UTF-8"))?;
        Ok(Some(Request {
            method,
            path,
            body,
            keep_alive: head.connection.unwrap_or(default_keep_alive),
        }))
    }

    /// Read one response: `(status, body, keep_alive)`.
    pub fn next_response(&mut self) -> io::Result<(u16, Vec<u8>, bool)> {
        let response = self.next_response_full()?;
        Ok((response.code, response.body, response.keep_alive))
    }

    /// Read one response with its headers.
    pub fn next_response_full(&mut self) -> io::Result<HttpResponse> {
        self.grant(MAX_HEAD + MAX_RESPONSE_BODY);
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(invalid("connection closed before response"));
        }
        let code: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| invalid("bad status line"))?;
        let head = read_headers(&mut self.reader, MAX_RESPONSE_BODY, line.len())?;
        let body = read_body(&mut self.reader, head.content_length)?;
        Ok(HttpResponse {
            code,
            keep_alive: head.connection.unwrap_or(true),
            headers: head.headers,
            body,
        })
    }
}

/// Parse a request line into `(method, path, default_keep_alive)`.
/// Shared by the blocking [`MessageReader`] and the incremental
/// [`RequestBuffer`] so both ends of the daemon accept exactly the same
/// request grammar.
fn parse_request_line(line: &str) -> io::Result<(String, String, bool)> {
    let mut parts = line.split_whitespace();
    let method = parts.next().ok_or_else(|| invalid("empty request line"))?;
    let path = parts
        .next()
        .ok_or_else(|| invalid("missing request path"))?;
    let version = parts.next().unwrap_or("");
    if !version.starts_with("HTTP/1.") {
        return Err(invalid("unsupported HTTP version"));
    }
    Ok((method.to_string(), path.to_string(), version == "HTTP/1.1"))
}

/// Incremental request parser for nonblocking connections: bytes are
/// [`fed`](RequestBuffer::feed) in whatever fragments the socket
/// yields, and [`try_next`](RequestBuffer::try_next) hands back each
/// complete request in order (`Ok(None)` = need more bytes).
///
/// It enforces the same per-request budgets as [`MessageReader`] —
/// heads at most [`MAX_HEAD`] bytes, declared bodies at most
/// [`MAX_BODY`] (rejected with [`ERR_BODY_TOO_LARGE`] verbatim, so the
/// server's error classification keeps working) — and accepts the same
/// grammar, because the head is parsed by the same helpers once it is
/// fully buffered. Pipelined requests simply stay in the buffer until
/// their turn.
#[derive(Debug, Default)]
pub struct RequestBuffer {
    buf: Vec<u8>,
}

impl RequestBuffer {
    /// Empty buffer.
    pub fn new() -> RequestBuffer {
        RequestBuffer::default()
    }

    /// Append freshly read bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed by a complete request.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing is buffered (a clean point to close at EOF).
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Position one past the head's terminating blank line, if the full
    /// head has arrived. The head ends at the first empty line — a bare
    /// `\n` or a `\r\n` — matching the line-based blocking parser.
    fn head_end(&self) -> Option<usize> {
        let buf = &self.buf;
        // A head that opens with its own blank line (empty request
        // line) terminates immediately; the parse then rejects it.
        if buf.starts_with(b"\n") {
            return Some(1);
        }
        if buf.starts_with(b"\r\n") {
            return Some(2);
        }
        let mut i = 0;
        while let Some(rel) = buf[i..].iter().position(|&b| b == b'\n') {
            let after = i + rel + 1;
            if buf[after..].starts_with(b"\n") {
                return Some(after + 1);
            }
            if buf[after..].starts_with(b"\r\n") {
                return Some(after + 2);
            }
            i = after;
        }
        None
    }

    /// Parse the next complete request out of the buffer, if one has
    /// fully arrived. Errors are sticky protocol violations (oversized
    /// head/body, bad framing) — the connection should answer `400` and
    /// close, exactly as with [`MessageReader`] failures.
    pub fn try_next(&mut self) -> io::Result<Option<Request>> {
        let Some(head_len) = self.head_end() else {
            // No terminator yet: any head this prefix could grow into
            // is already over budget once the prefix itself is.
            if self.buf.len() > MAX_HEAD {
                return Err(invalid("header section too large"));
            }
            return Ok(None);
        };
        if head_len > MAX_HEAD {
            return Err(invalid("header section too large"));
        }
        // The head is complete, so the line-based helpers parse it from
        // the slice without ever hitting a premature EOF.
        let mut head_slice = &self.buf[..head_len];
        let mut line = String::new();
        head_slice.read_line(&mut line)?;
        let (method, path, default_keep_alive) = parse_request_line(&line)?;
        let head = read_headers(&mut head_slice, MAX_BODY, line.len())?;
        let total = head_len + head.content_length;
        if self.buf.len() < total {
            return Ok(None);
        }
        let body = String::from_utf8(self.buf[head_len..total].to_vec())
            .map_err(|_| invalid("body is not UTF-8"))?;
        self.buf.drain(..total);
        Ok(Some(Request {
            method,
            path,
            body,
            keep_alive: head.connection.unwrap_or(default_keep_alive),
        }))
    }
}

/// Read headers until the blank line, rejecting bodies above `max_body`
/// and heads above [`MAX_HEAD`] (`consumed` counts the already-read
/// request/status line against the head budget).
fn read_headers<R: BufRead>(reader: &mut R, max_body: usize, consumed: usize) -> io::Result<Head> {
    let mut head = Head {
        content_length: 0,
        connection: None,
        headers: Vec::new(),
    };
    let mut head_bytes = consumed;
    loop {
        let mut line = String::new();
        let n = reader.read_line(&mut line)?;
        if n == 0 {
            return Err(invalid("connection closed mid-headers"));
        }
        head_bytes += n;
        if head_bytes > MAX_HEAD {
            return Err(invalid("header section too large"));
        }
        let line = line.trim_end();
        if line.is_empty() {
            return Ok(head);
        }
        if let Some((name, value)) = line.split_once(':') {
            let value = value.trim();
            head.headers.push((name.to_string(), value.to_string()));
            if name.eq_ignore_ascii_case("content-length") {
                head.content_length = value.parse().map_err(|_| invalid("bad Content-Length"))?;
                if head.content_length > max_body {
                    return Err(invalid(ERR_BODY_TOO_LARGE));
                }
            } else if name.eq_ignore_ascii_case("connection") {
                if value.eq_ignore_ascii_case("close") {
                    head.connection = Some(false);
                } else if value.eq_ignore_ascii_case("keep-alive") {
                    head.connection = Some(true);
                }
            }
        }
    }
}

fn read_body<R: BufRead>(reader: &mut R, len: usize) -> io::Result<Vec<u8>> {
    let mut body = vec![0u8; len];
    reader.read_exact(&mut body)?;
    Ok(body)
}

/// Read one request from a one-shot stream. The daemon parses
/// incrementally ([`RequestBuffer`]); this blocking reader is what that
/// parser is tested against.
#[cfg(test)]
pub fn read_request<S: Read>(stream: S) -> io::Result<Request> {
    MessageReader::new(stream)
        .next_request()?
        .ok_or_else(|| invalid("connection closed before request"))
}

/// Standard reason phrases for the codes the service uses.
pub fn status_text(code: u16) -> &'static str {
    match code {
        200 => "OK",
        308 => "Permanent Redirect",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// Write one complete response and flush: the blocking reference
/// [`render_response_into`] is tested against. `keep_alive` picks the
/// `Connection:` header.
#[cfg(test)]
pub fn write_response_conn<S: Write>(
    stream: S,
    code: u16,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
) -> io::Result<()> {
    write_response_headers(stream, code, content_type, &[], body, keep_alive)
}

/// [`write_response_conn`] with extra response headers (`Allow:` on a
/// 405, `Location:` on a 308).
#[cfg(test)]
pub fn write_response_headers<S: Write>(
    mut stream: S,
    code: u16,
    content_type: &str,
    extra_headers: &[(&str, String)],
    body: &[u8],
    keep_alive: bool,
) -> io::Result<()> {
    let mut message = Vec::with_capacity(160 + body.len());
    render_response_into(
        &mut message,
        code,
        content_type,
        extra_headers,
        body,
        keep_alive,
    );
    stream.write_all(&message)?;
    stream.flush()
}

/// Render one complete response — head and body contiguous — into
/// `out`, the event loop's per-connection output buffer. `keep_alive`
/// picks the `Connection:` header — the server echoes the client's
/// wish except when it is about to close (shutdown, protocol error).
///
/// Head and body go out as **one** write (and a batch of pipelined
/// responses still leaves in one write): a head segment followed by a
/// tiny body segment would trip the Nagle/delayed-ACK interaction on a
/// keep-alive connection (tens of milliseconds per exchange), which
/// would dwarf every cached-path saving this service exists to provide.
pub fn render_response_into(
    out: &mut Vec<u8>,
    code: u16,
    content_type: &str,
    extra_headers: &[(&str, String)],
    body: &[u8],
    keep_alive: bool,
) {
    // Writes into a Vec cannot fail.
    let _ = write!(
        out,
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        code,
        status_text(code),
        content_type,
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    for (name, value) in extra_headers {
        let _ = write!(out, "{name}: {value}\r\n");
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(body);
}

/// [`write_response_conn`] closing the connection (one-shot paths).
#[cfg(test)]
pub fn write_response<S: Write>(
    stream: S,
    code: u16,
    content_type: &str,
    body: &[u8],
) -> io::Result<()> {
    write_response_conn(stream, code, content_type, body, false)
}

/// Parse a response (client side): returns `(status, body)`.
pub fn read_response<S: Read>(stream: S) -> io::Result<(u16, Vec<u8>)> {
    let (code, body, _keep_alive) = MessageReader::new(stream).next_response()?;
    Ok((code, body))
}

/// Write a request (client side). `keep_alive` picks the `Connection:`
/// header. One write per message, for the same Nagle reason as
/// [`render_response_into`].
pub fn write_request_conn<S: Write>(
    mut stream: S,
    method: &str,
    path: &str,
    body: &[u8],
    keep_alive: bool,
) -> io::Result<()> {
    let mut message = Vec::with_capacity(128 + body.len());
    write!(
        message,
        "{method} {path} HTTP/1.1\r\nHost: scalana\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    )?;
    message.extend_from_slice(body);
    stream.write_all(&message)?;
    stream.flush()
}

/// [`write_request_conn`] closing after one exchange.
pub fn write_request<S: Write>(stream: S, method: &str, path: &str, body: &[u8]) -> io::Result<()> {
    write_request_conn(stream, method, path, body, false)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trip() {
        let mut wire = Vec::new();
        write_request(&mut wire, "POST", "/jobs", b"{\"app\":\"CG\"}").unwrap();
        let req = read_request(&wire[..]).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/jobs");
        assert_eq!(req.body, "{\"app\":\"CG\"}");
        assert!(!req.keep_alive, "write_request closes");
    }

    #[test]
    fn response_round_trip() {
        let mut wire = Vec::new();
        write_response(&mut wire, 404, "application/json", b"{\"error\":\"nope\"}").unwrap();
        let (code, body) = read_response(&wire[..]).unwrap();
        assert_eq!(code, 404);
        assert_eq!(body, b"{\"error\":\"nope\"}");
    }

    #[test]
    fn pipelined_requests_parse_in_order_with_renewed_budgets() {
        let mut wire = Vec::new();
        write_request_conn(&mut wire, "GET", "/stats", b"", true).unwrap();
        write_request_conn(&mut wire, "POST", "/jobs", b"{\"app\":\"CG\"}", true).unwrap();
        write_request_conn(&mut wire, "GET", "/healthz", b"", false).unwrap();
        let mut reader = MessageReader::new(&wire[..]);
        let first = reader.next_request().unwrap().unwrap();
        assert_eq!((first.method.as_str(), first.keep_alive), ("GET", true));
        let second = reader.next_request().unwrap().unwrap();
        assert_eq!(second.body, "{\"app\":\"CG\"}");
        assert!(second.keep_alive);
        let third = reader.next_request().unwrap().unwrap();
        assert_eq!(third.path, "/healthz");
        assert!(!third.keep_alive, "explicit close honored");
        assert!(reader.next_request().unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn keep_alive_defaults_follow_http_version() {
        let req = read_request(&b"GET /x HTTP/1.1\r\n\r\n"[..]).unwrap();
        assert!(req.keep_alive, "1.1 defaults to keep-alive");
        let req = read_request(&b"GET /x HTTP/1.0\r\n\r\n"[..]).unwrap();
        assert!(!req.keep_alive, "1.0 defaults to close");
        let req = read_request(&b"GET /x HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n"[..]).unwrap();
        assert!(req.keep_alive, "header overrides the version default");
    }

    #[test]
    fn rejects_oversized_and_malformed() {
        let wire = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        assert!(read_request(wire.as_bytes()).is_err());
        assert!(read_request(&b"NOT-HTTP\r\n\r\n"[..]).is_err());
        assert!(read_request(&b"GET /x SPDY/3\r\n\r\n"[..]).is_err());
        // Truncated body.
        let wire = b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc";
        assert!(read_request(&wire[..]).is_err());
    }

    #[test]
    fn responses_above_the_request_cap_are_readable() {
        // Results / profile images can exceed MAX_BODY; the client's
        // budget is separate.
        let big = vec![b'x'; MAX_BODY + 1];
        let mut wire = Vec::new();
        write_response(&mut wire, 200, "application/octet-stream", &big).unwrap();
        let (code, body) = read_response(&wire[..]).unwrap();
        assert_eq!(code, 200);
        assert_eq!(body.len(), MAX_BODY + 1);
    }

    #[test]
    fn unbounded_header_streams_are_rejected() {
        // A peer streaming endless headers must hit a bound, not grow
        // the heap until the read timeout.
        let mut wire = b"POST / HTTP/1.1\r\n".to_vec();
        for _ in 0..4096 {
            wire.extend_from_slice(b"X-Spam: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n");
        }
        assert!(read_request(&wire[..]).is_err());
    }

    #[test]
    fn budget_renews_per_request_not_per_connection() {
        // Two near-head-limit requests back to back: a per-connection
        // budget would starve the second, a per-request budget admits
        // both and still rejects a single oversized head.
        let filler = "X-Pad: ".to_string() + &"a".repeat(8 << 10) + "\r\n";
        let one = format!("GET /a HTTP/1.1\r\n{filler}\r\n");
        let wire = format!("{one}{one}");
        let mut reader = MessageReader::new(wire.as_bytes());
        assert_eq!(reader.next_request().unwrap().unwrap().path, "/a");
        assert_eq!(reader.next_request().unwrap().unwrap().path, "/a");
    }

    #[test]
    fn extra_headers_are_written_and_read_back() {
        let mut wire = Vec::new();
        write_response_headers(
            &mut wire,
            405,
            "application/json",
            &[("Allow", "GET, POST".to_string())],
            b"{}",
            true,
        )
        .unwrap();
        let response = MessageReader::new(&wire[..]).next_response_full().unwrap();
        assert_eq!(response.code, 405);
        assert_eq!(response.header("allow"), Some("GET, POST"));
        assert_eq!(response.header("ALLOW"), Some("GET, POST"));
        assert!(response.header("location").is_none());
        assert!(response.keep_alive);
        assert_eq!(response.body, b"{}");
    }

    #[test]
    fn headers_are_case_insensitive() {
        let wire = b"POST / HTTP/1.0\r\ncOnTeNt-LeNgTh: 2\r\nX-Other: 1\r\n\r\nok";
        let req = read_request(&wire[..]).unwrap();
        assert_eq!(req.body, "ok");
    }

    #[test]
    fn request_buffer_parses_across_arbitrary_fragments() {
        let mut wire = Vec::new();
        write_request_conn(&mut wire, "POST", "/jobs", b"{\"app\":\"CG\"}", true).unwrap();
        // Feed one byte at a time: a request must appear exactly once,
        // at the final byte, never early and never corrupted.
        let mut parser = RequestBuffer::new();
        for (i, byte) in wire.iter().enumerate() {
            parser.feed(std::slice::from_ref(byte));
            let parsed = parser.try_next().unwrap();
            if i + 1 < wire.len() {
                assert!(parsed.is_none(), "complete request after {} bytes", i + 1);
            } else {
                let req = parsed.expect("request at final byte");
                assert_eq!(req.method, "POST");
                assert_eq!(req.path, "/jobs");
                assert_eq!(req.body, "{\"app\":\"CG\"}");
                assert!(req.keep_alive);
            }
        }
        assert!(parser.is_empty());
        assert!(parser.try_next().unwrap().is_none());
    }

    #[test]
    fn request_buffer_yields_pipelined_requests_in_order() {
        let mut wire = Vec::new();
        write_request_conn(&mut wire, "GET", "/stats", b"", true).unwrap();
        write_request_conn(&mut wire, "POST", "/jobs", b"{\"app\":\"CG\"}", true).unwrap();
        write_request_conn(&mut wire, "GET", "/healthz", b"", false).unwrap();
        let mut parser = RequestBuffer::new();
        parser.feed(&wire);
        assert_eq!(parser.try_next().unwrap().unwrap().path, "/stats");
        let second = parser.try_next().unwrap().unwrap();
        assert_eq!(second.body, "{\"app\":\"CG\"}");
        let third = parser.try_next().unwrap().unwrap();
        assert_eq!(third.path, "/healthz");
        assert!(!third.keep_alive, "explicit close honored");
        assert!(parser.try_next().unwrap().is_none());
        assert!(parser.is_empty());
    }

    #[test]
    fn request_buffer_enforces_the_message_reader_budgets() {
        // Declared body over budget: the exact ERR_BODY_TOO_LARGE
        // message, so the server's 400 classification holds.
        let mut parser = RequestBuffer::new();
        parser.feed(
            format!(
                "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
                MAX_BODY + 1
            )
            .as_bytes(),
        );
        assert_eq!(
            parser.try_next().unwrap_err().to_string(),
            ERR_BODY_TOO_LARGE
        );

        // Endless header stream: rejected once the head budget is
        // exhausted, even though no terminator ever arrives.
        let mut parser = RequestBuffer::new();
        parser.feed(b"GET / HTTP/1.1\r\n");
        let mut rejected = false;
        for _ in 0..4096 {
            parser.feed(b"X-Spam: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n");
            if let Err(e) = parser.try_next() {
                assert!(e.to_string().contains("header section too large"), "{e}");
                rejected = true;
                break;
            }
        }
        assert!(rejected, "oversized head must be rejected");

        // A complete head over MAX_HEAD is rejected too.
        let mut parser = RequestBuffer::new();
        let filler = "X-Pad: ".to_string() + &"a".repeat(MAX_HEAD) + "\r\n";
        parser.feed(format!("GET /a HTTP/1.1\r\n{filler}\r\n").as_bytes());
        assert!(parser.try_next().is_err());

        // Two near-limit requests back to back: the budget is per
        // request, exactly like MessageReader's.
        let mut parser = RequestBuffer::new();
        let filler = "X-Pad: ".to_string() + &"a".repeat(8 << 10) + "\r\n";
        let one = format!("GET /a HTTP/1.1\r\n{filler}\r\n");
        parser.feed(format!("{one}{one}").as_bytes());
        assert_eq!(parser.try_next().unwrap().unwrap().path, "/a");
        assert_eq!(parser.try_next().unwrap().unwrap().path, "/a");
    }

    #[test]
    fn request_buffer_rejects_the_same_garbage_as_message_reader() {
        for wire in [
            &b"NOT-HTTP\r\n\r\n"[..],
            &b"GET /x SPDY/3\r\n\r\n"[..],
            &b"\r\n\r\n"[..],
        ] {
            let mut parser = RequestBuffer::new();
            parser.feed(wire);
            let incremental = parser.try_next().err().map(|e| e.to_string());
            let blocking = read_request(wire).err().map(|e| e.to_string());
            assert_eq!(incremental, blocking, "wire {wire:?}");
            assert!(incremental.is_some(), "wire {wire:?} must be rejected");
        }
    }

    #[test]
    fn render_response_into_matches_the_blocking_writer() {
        let mut written = Vec::new();
        write_response_headers(
            &mut written,
            200,
            "application/json",
            &[("Retry-After", "1".to_string())],
            b"{\"ok\":true}",
            true,
        )
        .unwrap();
        let mut rendered = Vec::new();
        render_response_into(
            &mut rendered,
            200,
            "application/json",
            &[("Retry-After", "1".to_string())],
            b"{\"ok\":true}",
            true,
        );
        assert_eq!(written, rendered);
    }
}
