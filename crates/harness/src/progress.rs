//! The terminal's view of batch progress.
//!
//! The harness does not know who is watching a batch: a human at a
//! terminal wants a rewriting stderr status line, while the sweep
//! service (`ctcp-serve`) streams each finished cell to the requesting
//! client instead. [`ProgressSink`] (from `ctcp-telemetry`) is that
//! seam; [`StderrProgress`] is the default implementation and
//! preserves the historical CLI output byte for byte; forced off, it
//! discards everything.

use ctcp_telemetry::ProgressSink;
use std::io::{IsTerminal, Write};
use std::time::{Duration, Instant};

/// Live batch progress on stderr — the historical harness behaviour.
///
/// The reporter rewrites a single status line (`\r`, no newline) as
/// jobs complete, showing completed/total, the running jobs/sec rate,
/// the wall time of the job that just finished, and an ETA. It is
/// enabled by default only when stderr is a terminal, so piped and
/// logged runs stay clean; tables on stdout are never touched.
pub struct StderrProgress {
    /// `None` auto-detects at batch start (on iff stderr is a terminal).
    forced: Option<bool>,
    enabled: bool,
    total: usize,
    start: Instant,
    /// Width of the previously drawn line, so shorter updates blank it.
    drawn: usize,
}

impl StderrProgress {
    /// `forced: None` auto-detects (on iff stderr is a terminal).
    pub fn new(forced: Option<bool>) -> StderrProgress {
        StderrProgress {
            forced,
            enabled: false,
            total: 0,
            start: Instant::now(),
            drawn: 0,
        }
    }
}

impl ProgressSink for StderrProgress {
    fn batch_start(&mut self, total: usize) {
        self.enabled = self
            .forced
            .unwrap_or_else(|| std::io::stderr().is_terminal())
            && total > 0;
        self.total = total;
        self.start = Instant::now();
        self.drawn = 0;
    }

    fn cell_done(&mut self, done: usize, workload: &str, took: Duration) {
        if !self.enabled {
            return;
        }
        let elapsed = self.start.elapsed().as_secs_f64();
        let rate = done as f64 / elapsed.max(1e-9);
        let eta = (self.total - done) as f64 / rate.max(1e-9);
        let line = format!(
            "[{done}/{total}] {rate:.1} jobs/s | {workload} {took:.2}s | eta {eta:.0}s",
            total = self.total,
            took = took.as_secs_f64(),
        );
        let pad = self.drawn.saturating_sub(line.len());
        self.drawn = line.len();
        let mut err = std::io::stderr().lock();
        let _ = write!(err, "\r{line}{:pad$}", "");
        let _ = err.flush();
    }

    fn batch_end(&mut self) {
        if self.enabled && self.drawn > 0 {
            let mut err = std::io::stderr().lock();
            let _ = writeln!(err);
            let _ = err.flush();
        }
        self.drawn = 0;
    }
}
