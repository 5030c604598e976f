//! The progress seam between whoever runs a batch of cells and whoever
//! watches it.
//!
//! The harness reports each simulated cell through [`ProgressSink`],
//! whichever command's batch it runs. A terminal wants a rewriting
//! stderr status line (the harness's `StderrProgress`), while the sweep
//! service implements the sink once for its running request: each
//! `cell_done_on` updates the request's `/status` row, records its span
//! on its worker's lane and streams its NDJSON line to the client.
//! The trait lives here, at the bottom of the workspace, so the
//! harness and the service share it without depending on each other.

use std::time::Duration;

/// Observer of one batch's execution, called on the submitting thread
/// only (never concurrently). A batch is bracketed by
/// [`batch_start`](ProgressSink::batch_start) and
/// [`batch_end`](ProgressSink::batch_end); every *simulated* cell (not
/// store hits, not coalesced duplicates) produces one
/// [`cell_done_on`](ProgressSink::cell_done_on) in completion order.
pub trait ProgressSink {
    /// A batch of `total` to-be-simulated cells is starting: they were
    /// just handed to the workers that will run them.
    fn batch_start(&mut self, total: usize);
    /// Cell number `done` (1-based, in completion order) named
    /// `workload` finished after `took` of wall time. Called only by
    /// the default [`cell_done_on`](ProgressSink::cell_done_on), for
    /// sinks that do not care which worker ran a cell (the stderr
    /// reporter); the default does nothing.
    fn cell_done(&mut self, _done: usize, _workload: &str, _took: Duration) {}
    /// Cell number `done` named `workload` finished after `took` of
    /// wall time on scheduler pool worker `worker`. The harness calls
    /// only this; the default forwards to `cell_done`. The service
    /// overrides it to put the cell's span on its worker's lane in
    /// `GET /trace/<token>` and a `worker` field in the streamed
    /// `progress` line.
    fn cell_done_on(&mut self, done: usize, workload: &str, took: Duration, worker: usize) {
        let _ = worker;
        self.cell_done(done, workload, took);
    }
    /// The batch finished; flush any partial output.
    fn batch_end(&mut self);
}
