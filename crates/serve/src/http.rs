//! Minimal, offline-safe HTTP/1.1 over `std::net` — just enough wire
//! protocol for the sweep service.
//!
//! The workspace builds with no registry dependencies, so this module
//! hand-rolls the small HTTP subset `ctcp serve` and `ctcp client`
//! speak to each other, mirroring the hand-rolled JSON codec in
//! `ctcp-telemetry`:
//!
//! * request parsing (request line, headers, `Content-Length` body);
//! * fixed-length responses ([`write_response`]);
//! * `Transfer-Encoding: chunked` responses ([`ChunkedWriter`]), used
//!   to stream one NDJSON progress event per chunk while a batch runs;
//! * a blocking client ([`request`]) that decodes both response kinds
//!   and surfaces each chunk to a callback as it arrives.
//!
//! Connections are one-shot: one request, one response, close. That
//! keeps the parser honest (no keep-alive bookkeeping) and matches the
//! CLI client, which opens a fresh connection per command.

use ctcp_telemetry::failpoint;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// Longest accepted request line or header line, and the most headers
/// one request may carry — crude bounds so a garbage peer cannot make
/// the daemon buffer unbounded input.
const MAX_LINE: usize = 16 * 1024;
const MAX_HEADERS: usize = 64;
/// Largest accepted request body (sweep descriptions are tiny).
const MAX_BODY: usize = 1024 * 1024;

/// One parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    /// The method verb, upper-cased as received (`GET`, `POST`).
    pub method: String,
    /// The request target (`/sweep`).
    pub path: String,
    /// Header name/value pairs, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// The body, exactly `Content-Length` bytes (empty without one).
    pub body: Vec<u8>,
}

impl Request {
    /// The value of header `name` (ASCII case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8, or `None` if it is not valid UTF-8.
    pub fn body_str(&self) -> Option<&str> {
        std::str::from_utf8(&self.body).ok()
    }
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// Reads one CRLF- (or LF-) terminated line, without its terminator.
fn read_line(r: &mut impl BufRead) -> io::Result<Option<String>> {
    let mut line = String::new();
    let n = r.take(MAX_LINE as u64 + 1).read_line(&mut line)?;
    if n == 0 {
        return Ok(None);
    }
    if n > MAX_LINE {
        return Err(bad("http line too long"));
    }
    while line.ends_with('\n') || line.ends_with('\r') {
        line.pop();
    }
    Ok(Some(line))
}

/// Parses one request from `r`. Returns `Ok(None)` on a clean EOF
/// before any bytes (the peer connected and left).
///
/// # Errors
///
/// I/O errors propagate; malformed requests and requests exceeding the
/// size bounds surface as [`io::ErrorKind::InvalidData`].
pub fn read_request(r: &mut impl BufRead) -> io::Result<Option<Request>> {
    let Some(start) = read_line(r)? else {
        return Ok(None);
    };
    let mut parts = start.split_whitespace();
    let method = parts.next().ok_or_else(|| bad("empty request line"))?;
    let path = parts
        .next()
        .ok_or_else(|| bad("request line has no target"))?;
    let version = parts
        .next()
        .ok_or_else(|| bad("request line has no version"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(bad("unsupported http version"));
    }
    let mut headers = Vec::new();
    loop {
        let line = read_line(r)?.ok_or_else(|| bad("eof inside headers"))?;
        if line.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(bad("too many headers"));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| bad("malformed header"))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    let len: usize = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .map(|(_, v)| v.parse().map_err(|_| bad("bad content-length")))
        .transpose()?
        .unwrap_or(0);
    if len > MAX_BODY {
        return Err(bad("body too large"));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    Ok(Some(Request {
        method: method.to_string(),
        path: path.to_string(),
        headers,
        body,
    }))
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Writes one complete fixed-length response and flushes.
///
/// # Errors
///
/// Propagates write failures (typically: the peer hung up).
pub fn write_response(
    w: &mut impl Write,
    status: u16,
    content_type: &str,
    body: &[u8],
) -> io::Result<()> {
    write_response_with(w, status, content_type, &[], body)
}

/// [`write_response`] with extra response headers (e.g. `Retry-After`
/// on a `503` so clients know how long to back off).
///
/// # Errors
///
/// Propagates write failures (typically: the peer hung up).
pub fn write_response_with(
    w: &mut impl Write,
    status: u16,
    content_type: &str,
    extra: &[(&str, &str)],
    body: &[u8],
) -> io::Result<()> {
    write!(
        w,
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n",
        reason(status),
        body.len()
    )?;
    for (name, value) in extra {
        write!(w, "{name}: {value}\r\n")?;
    }
    w.write_all(b"\r\n")?;
    w.write_all(body)?;
    w.flush()
}

/// A streaming `Transfer-Encoding: chunked` response. Each
/// [`chunk`](ChunkedWriter::chunk) is framed and flushed individually,
/// so the peer sees every progress event the moment it is produced;
/// [`finish`](ChunkedWriter::finish) writes the terminating frame.
pub struct ChunkedWriter<W: Write> {
    w: W,
    /// Chunks sent so far — the reference point for the
    /// `serve-disconnect=N` fail point, which severs the stream after
    /// this writer's `N`th chunk.
    sent: u64,
}

impl<W: Write> ChunkedWriter<W> {
    /// Writes the response head and returns the chunk writer.
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn start(mut w: W, status: u16, content_type: &str) -> io::Result<ChunkedWriter<W>> {
        write!(
            w,
            "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\n\
             Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n",
            reason(status)
        )?;
        w.flush()?;
        Ok(ChunkedWriter { w, sent: 0 })
    }

    /// Sends `bytes` as one chunk and flushes. Empty input is skipped —
    /// a zero-length chunk would terminate the stream.
    ///
    /// Three socket-level fail points are wired here for chaos tests:
    /// `serve-partial-write` (one-shot: half the frame, then an error),
    /// `serve-disconnect=N` (one-shot: error after this writer's `N`th
    /// chunk), and `serve-slow-reader=ms` (sleeps per chunk, modelling
    /// a stalled reader draining the socket slowly).
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn chunk(&mut self, bytes: &[u8]) -> io::Result<()> {
        if bytes.is_empty() {
            return Ok(());
        }
        if let Some(ms) = failpoint::arg("serve-slow-reader") {
            let ms: u64 = ms.parse().unwrap_or(100);
            std::thread::sleep(std::time::Duration::from_millis(ms));
        }
        if let Some(n) = failpoint::arg("serve-disconnect") {
            let n: u64 = n.parse().unwrap_or(1);
            if self.sent >= n && failpoint::take("serve-disconnect").is_some() {
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionReset,
                    "peer disconnected (fail point)",
                ));
            }
        }
        if failpoint::take("serve-partial-write").is_some() {
            // Model a crash mid-frame: half the payload reaches the
            // wire, then the write "fails". The peer sees a torn chunk
            // it cannot complete.
            let mut frame = format!("{:x}\r\n", bytes.len()).into_bytes();
            frame.extend_from_slice(bytes);
            self.w.write_all(&frame[..frame.len() / 2])?;
            self.w.flush()?;
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "partial write (fail point)",
            ));
        }
        write!(self.w, "{:x}\r\n", bytes.len())?;
        self.w.write_all(bytes)?;
        self.w.write_all(b"\r\n")?;
        self.w.flush()?;
        self.sent += 1;
        Ok(())
    }

    /// Terminates the stream.
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn finish(mut self) -> io::Result<()> {
        self.w.write_all(b"0\r\n\r\n")?;
        self.w.flush()
    }
}

/// A decoded client-side response.
#[derive(Debug)]
pub struct Response {
    /// The status code from the status line.
    pub status: u16,
    /// Header name/value pairs, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// The full body — for chunked responses, all chunks concatenated.
    pub body: Vec<u8>,
}

impl Response {
    /// The value of header `name` (ASCII case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// Reads the `len` bytes a peer announced, into a buffer that grows
/// only with the bytes that actually arrive: a size line or a
/// `Content-Length` is a claim, not an allocation request.
fn read_announced(r: &mut impl Read, len: u64) -> io::Result<Vec<u8>> {
    let mut buf = Vec::new();
    r.by_ref().take(len).read_to_end(&mut buf)?;
    if (buf.len() as u64) < len {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "response ended before its announced length",
        ));
    }
    Ok(buf)
}

/// Performs one blocking request against `addr` and decodes the
/// response. For chunked responses, `on_chunk` observes each chunk as
/// it arrives (the service sends one NDJSON event per chunk), before
/// the same bytes are appended to the returned body. A response is
/// held to the bounds a request is: at most `MAX_HEADERS` headers of
/// at most `MAX_LINE` bytes each, and a body buffered only as it
/// arrives, whatever length the peer announces.
///
/// # Errors
///
/// Connection failures, I/O errors, and malformed responses (as
/// [`io::ErrorKind::InvalidData`]); a body that ends before its
/// announced length is [`io::ErrorKind::UnexpectedEof`].
pub fn request(
    addr: &str,
    method: &str,
    path: &str,
    body: &[u8],
    on_chunk: &mut dyn FnMut(&[u8]),
) -> io::Result<Response> {
    let stream = TcpStream::connect(addr)?;
    let mut w = stream.try_clone()?;
    write!(
        w,
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )?;
    w.write_all(body)?;
    w.flush()?;

    let mut r = BufReader::new(stream);
    let status_line = read_line(&mut r)?.ok_or_else(|| bad("empty response"))?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let mut chunked = false;
    let mut content_length: Option<u64> = None;
    let mut headers = Vec::new();
    loop {
        let line = read_line(&mut r)?.ok_or_else(|| bad("eof inside headers"))?;
        if line.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(bad("too many headers"));
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(bad("malformed header"));
        };
        let (name, value) = (name.trim().to_ascii_lowercase(), value.trim());
        if name == "transfer-encoding" && value.eq_ignore_ascii_case("chunked") {
            chunked = true;
        }
        if name == "content-length" {
            content_length = Some(value.parse().map_err(|_| bad("bad content-length"))?);
        }
        headers.push((name, value.to_string()));
    }

    let mut full = Vec::new();
    if chunked {
        loop {
            let size_line = read_line(&mut r)?.ok_or_else(|| bad("eof inside chunks"))?;
            let size_hex = size_line.split(';').next().unwrap_or("").trim();
            let size = u64::from_str_radix(size_hex, 16).map_err(|_| bad("bad chunk size"))?;
            if size == 0 {
                // Trailer section: skip to the blank line.
                while !read_line(&mut r)?
                    .ok_or_else(|| bad("eof in trailers"))?
                    .is_empty()
                {}
                break;
            }
            let chunk = read_announced(&mut r, size)?;
            let mut crlf = [0u8; 2];
            r.read_exact(&mut crlf)?;
            on_chunk(&chunk);
            full.extend_from_slice(&chunk);
        }
    } else if let Some(len) = content_length {
        full = read_announced(&mut r, len)?;
    } else {
        r.read_to_end(&mut full)?;
    }
    Ok(Response {
        status,
        headers,
        body: full,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn parses_a_request_with_body() {
        let raw = b"POST /sweep HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nbody";
        let req = read_request(&mut Cursor::new(&raw[..])).unwrap().unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/sweep");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.header("HOST"), Some("x"));
        assert_eq!(req.body_str(), Some("body"));
    }

    #[test]
    fn clean_eof_is_none_and_garbage_is_invalid_data() {
        assert!(read_request(&mut Cursor::new(&b""[..])).unwrap().is_none());
        let err = read_request(&mut Cursor::new(&b"not http\r\n\r\n"[..])).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn fixed_response_round_trips_headers_and_body() {
        let mut out = Vec::new();
        write_response(&mut out, 404, "text/plain", b"nope").unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 404 Not Found\r\n"));
        assert!(text.contains("Content-Length: 4\r\n"));
        assert!(text.ends_with("\r\n\r\nnope"));
    }

    #[test]
    fn chunked_writer_frames_and_terminates() {
        let _g = crate::testutil::fail_points_held();
        let mut out = Vec::new();
        let mut w = ChunkedWriter::start(&mut out, 200, "application/x-ndjson").unwrap();
        w.chunk(b"hello\n").unwrap();
        w.chunk(b"").unwrap(); // skipped, not a terminator
        w.chunk(b"world\n").unwrap();
        w.finish().unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Transfer-Encoding: chunked\r\n"));
        assert!(text.ends_with("6\r\nhello\n\r\n6\r\nworld\n\r\n0\r\n\r\n"));
    }

    #[test]
    fn extra_headers_ride_the_fixed_response() {
        let mut out = Vec::new();
        write_response_with(
            &mut out,
            503,
            "application/json",
            &[("Retry-After", "2")],
            b"{}",
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("Retry-After: 2\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }

    /// A loopback peer that reads one request head, answers it with
    /// `response` and closes.
    fn peer_answering(response: Vec<u8>) -> (String, std::thread::JoinHandle<()>) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let peer = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut r = BufReader::new(s.try_clone().unwrap());
            while read_line(&mut r).unwrap().is_some_and(|l| !l.is_empty()) {}
            s.write_all(&response).unwrap();
        });
        (addr, peer)
    }

    #[test]
    fn a_hostile_response_is_an_error_not_an_abort() {
        // 2^48 - 1 bytes announced, three sent: allocating the claim
        // would abort the whole process.
        for response in [
            "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nffffffffffff\r\nabc",
            "HTTP/1.1 200 OK\r\nContent-Length: 281474976710655\r\n\r\nabc",
        ] {
            let (addr, peer) = peer_answering(response.as_bytes().to_vec());
            let mut chunks = 0;
            let err = request(&addr, "GET", "/status", b"", &mut |_| chunks += 1).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{response:?}");
            assert_eq!(chunks, 0, "no chunk completed");
            peer.join().unwrap();
        }
        let flood = format!(
            "HTTP/1.1 200 OK\r\n{}\r\n",
            "X-Pad: 1\r\n".repeat(MAX_HEADERS + 1)
        );
        let (addr, peer) = peer_answering(flood.into_bytes());
        let err = request(&addr, "GET", "/status", b"", &mut |_| {}).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        peer.join().unwrap();
    }

    #[test]
    fn partial_write_fail_point_tears_one_chunk_then_disarms() {
        let _g = crate::testutil::fail_points_held();
        failpoint::set(Some("serve-partial-write"));
        let mut out = Vec::new();
        let mut w = ChunkedWriter::start(&mut out, 200, "application/x-ndjson").unwrap();
        let err = w.chunk(b"hello world\n").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
        // Half the frame reached the wire; a later chunk (e.g. after a
        // client's re-POST, on a fresh writer) goes through untorn.
        w.chunk(b"again\n").unwrap();
        failpoint::set(None);
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("again\n"));
        assert!(!text.contains("hello world\n"), "first chunk was torn");
    }

    #[test]
    fn disconnect_fail_point_severs_after_n_chunks() {
        let _g = crate::testutil::fail_points_held();
        failpoint::set(Some("serve-disconnect=2"));
        let mut out = Vec::new();
        let mut w = ChunkedWriter::start(&mut out, 200, "application/x-ndjson").unwrap();
        w.chunk(b"one\n").unwrap();
        w.chunk(b"two\n").unwrap();
        let err = w.chunk(b"three\n").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
        // One-shot: the next chunk on the same writer goes through.
        w.chunk(b"three\n").unwrap();
        failpoint::set(None);
    }
}
