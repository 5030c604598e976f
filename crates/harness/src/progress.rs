//! Per-cell progress reporting, routed through a sink trait.
//!
//! The harness does not know who is watching a batch: a human at a
//! terminal wants a rewriting stderr status line, while the sweep
//! service (`ctcp-serve`) wants each finished cell forwarded to the
//! requesting client instead of landing on the daemon's own stderr.
//! [`ProgressSink`] is that seam; [`StderrProgress`] is the default
//! implementation and preserves the historical CLI output byte for
//! byte, and [`NullProgress`] discards everything.

use std::io::{IsTerminal, Write};
use std::time::{Duration, Instant};

/// Observer of one batch's execution, called on the submitting thread
/// only (never concurrently). A batch is bracketed by
/// [`batch_start`](ProgressSink::batch_start) and
/// [`batch_end`](ProgressSink::batch_end); every *simulated* cell (not
/// store hits, not coalesced duplicates) produces one
/// [`cell_done_on`](ProgressSink::cell_done_on) in completion order.
pub trait ProgressSink {
    /// A batch of `total` to-be-simulated cells is starting.
    fn batch_start(&mut self, total: usize);
    /// Cell number `done` (1-based, in completion order) named
    /// `workload` finished after `took` of wall time.
    fn cell_done(&mut self, done: usize, workload: &str, took: Duration);
    /// Like [`cell_done`](ProgressSink::cell_done), but additionally
    /// names the scheduler pool worker that ran the cell. The harness
    /// calls only this; the default forwards to `cell_done`, so sinks
    /// that do not care about lane attribution (the stderr reporter,
    /// tests) need not override it. The serve
    /// event sink overrides it to stamp a `worker` field into the
    /// streamed progress event, which the daemon turns into per-worker
    /// span lanes for `GET /trace/<token>`.
    fn cell_done_on(&mut self, done: usize, workload: &str, took: Duration, worker: usize) {
        let _ = worker;
        self.cell_done(done, workload, took);
    }
    /// The batch finished; flush any partial output.
    fn batch_end(&mut self);
}

/// A sink that discards every report.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullProgress;

impl ProgressSink for NullProgress {
    fn batch_start(&mut self, _total: usize) {}
    fn cell_done(&mut self, _done: usize, _workload: &str, _took: Duration) {}
    fn batch_end(&mut self) {}
}

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
