//! The load generator's side of the sweep service protocol: one
//! HTTP/1.1 request per connection (the service's own client in
//! `ctcp_serve::http`), with every NDJSON event of a chunked response
//! time-stamped as its chunk arrives.

use ctcp_serve::http;
use ctcp_telemetry::json::Value;
use std::io;
use std::time::{Duration, Instant};

/// Reassembles NDJSON lines from chunks whose boundaries need not fall
/// on line ends.
#[derive(Default)]
pub struct LineSplitter {
    pending: Vec<u8>,
}

impl LineSplitter {
    /// Buffers `chunk` and returns every line it completed, without the
    /// terminator.
    pub fn push(&mut self, chunk: &[u8]) -> Vec<String> {
        self.pending.extend_from_slice(chunk);
        let mut lines = Vec::new();
        while let Some(nl) = self.pending.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.pending.drain(..=nl).collect();
            lines.push(String::from_utf8_lossy(&line[..nl]).trim_end().to_string());
        }
        lines
    }

    /// Whether a partial line is still buffered (a torn stream).
    pub fn torn(&self) -> bool {
        !self.pending.is_empty()
    }
}

/// One completed exchange.
pub struct Reply {
    /// HTTP status.
    pub status: u16,
    /// Time from the call to the end of the response.
    pub latency: Duration,
    /// Response body size in bytes.
    pub bytes: usize,
    /// The streamed events with their arrival time since the call.
    pub events: Vec<(Duration, Value)>,
    /// The whole body, for document (non-streamed) responses.
    pub body: Vec<u8>,
    /// Lines that did not parse as JSON, or a torn final line.
    pub bad_lines: usize,
}

impl Reply {
    /// The first event of kind `kind`.
    pub fn event(&self, kind: &str) -> Option<&(Duration, Value)> {
        self.events
            .iter()
            .find(|(_, v)| v.get("event").and_then(Value::as_str) == Some(kind))
    }

    /// Every event of kind `kind`.
    pub fn all(&self, kind: &str) -> impl Iterator<Item = &(Duration, Value)> + '_ {
        let kind = kind.to_string();
        self.events
            .iter()
            .filter(move |(_, v)| v.get("event").and_then(Value::as_str) == Some(kind.as_str()))
    }
}

/// Sends one request to `addr` and collects the reply.
///
/// # Errors
///
/// Connection failures and malformed HTTP.
pub fn exchange(addr: &str, method: &str, path: &str, body: &[u8]) -> io::Result<Reply> {
    let t0 = Instant::now();
    let mut split = LineSplitter::default();
    let mut events = Vec::new();
    let mut bad_lines = 0;
    let resp = http::request(addr, method, path, body, &mut |chunk| {
        let at = t0.elapsed();
        for line in split.push(chunk) {
            match Value::parse(&line) {
                Ok(v) => events.push((at, v)),
                Err(_) => bad_lines += 1,
            }
        }
    })?;
    let latency = t0.elapsed();
    if split.torn() {
        bad_lines += 1;
    }
    Ok(Reply {
        status: resp.status,
        latency,
        bytes: resp.body.len(),
        events,
        body: resp.body,
        bad_lines,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpListener;

    /// A `POST /sweep` response recorded from `ctcp serve --jobs 2` for
    /// gzip,twolf × fdrt at 4 clusters, 20k instructions, `csv: true`.
    const RECORDED: &[u8] = include_bytes!("../testdata/sweep_response.http");

    #[test]
    fn splitter_handles_lines_across_chunks() {
        let mut s = LineSplitter::default();
        assert!(s.push(b"{\"a\":1}\n{\"b\"").len() == 1);
        assert!(s.torn());
        assert_eq!(s.push(b":2}\n"), vec!["{\"b\":2}".to_string()]);
        assert!(!s.torn());
    }

    #[test]
    fn recorded_daemon_response_decodes_into_events() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            // Read the request head before answering, as the daemon does.
            let mut buf = [0u8; 4096];
            let mut seen = Vec::new();
            while !seen.windows(4).any(|w| w == b"\r\n\r\n") {
                let n = conn.read(&mut buf).unwrap();
                assert!(n > 0, "client closed before sending a request");
                seen.extend_from_slice(&buf[..n]);
            }
            conn.write_all(RECORDED).unwrap();
        });
        let reply = exchange(&addr, "POST", "/sweep", b"{}").unwrap();
        server.join().unwrap();
        assert_eq!(reply.status, 200);
        assert_eq!(reply.bad_lines, 0);
        let kinds: Vec<&str> = reply
            .events
            .iter()
            .map(|(_, v)| v.get("event").and_then(Value::as_str).unwrap())
            .collect();
        assert_eq!(
            kinds,
            [
                "accepted",
                "batch_start",
                "progress",
                "progress",
                "progress",
                "progress",
                "result"
            ]
        );
        let (_, result) = reply.event("result").unwrap();
        assert_eq!(result.get("exit_code").and_then(Value::as_u64), Some(0));
        assert_eq!(result.get("simulated").and_then(Value::as_u64), Some(4));
        let output = result.get("output").and_then(Value::as_str).unwrap();
        assert!(output.starts_with("bench,clusters,topology,strategy,ipc,speedup\n"));
        assert_eq!(output.lines().count(), 3);
        assert_eq!(reply.all("progress").count(), 4);
    }
}
