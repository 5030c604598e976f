//! # ctcp-serve — the resident sweep service
//!
//! A one-shot `ctcp sweep` pays full process startup for every grid
//! and holds its warm memoized cache for exactly one invocation. This
//! crate turns the harness into a *service*: a long-running daemon
//! (`ctcp serve --addr 127.0.0.1:PORT`) that accepts sweep and analyze
//! requests over a hand-rolled, offline-safe HTTP/1.1 + JSON protocol,
//! runs them through one shared execution backend, streams per-cell
//! progress back as chunked NDJSON, and lets every connected client
//! share the same warm result cache backed by the result store in
//! `ctcp-harness`. Requests are served *concurrently*: each
//! admitted batch runs headless on a thread of its own, recording its
//! events into a registry that every client stream reads, the handler
//! is `&self + Sync`, and the CLI backend interleaves all in-flight
//! batches cell-by-cell on one fair scheduler — so a two-cell analyze
//! never waits behind a ninety-six-cell sweep, a fully-memoized request
//! is answered from the store while the pool is busy, and a client
//! that reads slowly (or not at all) slows only its own stream.
//!
//! The crate deliberately depends on nothing but `std::net` and
//! `ctcp-telemetry` (for the JSON value, logs, spans, the rolling
//! series and the progress trait). Every number the daemon reports
//! about itself is one row of the metrics registry in `exposition.rs`,
//! which renders `/status`, `/metrics` and the drained [`Snapshot`].
//! The simulator side plugs in through the [`Handler`] trait — the CLI
//! implements it by building a per-request `Harness` over its shared
//! worker pool and result store, and tests implement it with mocks — so
//! the wire layer, queueing, counters and drain logic are all testable
//! without running a single simulation. A handler reports its batch
//! through the same `ProgressSink` the harness reports into, and the
//! service implements that sink once: each `cell_done_on` updates the
//! request's `/status` row and spans and renders the request's
//! `progress` line, so progress takes one typed path from the worker
//! pool to the wire.
//!
//! See [`http`] for the wire protocol and [`service`] for routing,
//! admission, disconnect and graceful-drain contracts; DESIGN.md §7f
//! and §7h in the repository root document both, and §7i documents
//! crash recovery (worker supervision, read-only degradation, and the
//! client's re-`POST` after a cut stream or a restarted daemon).
//! `spans.rs` keeps the request spans `GET /trace/<token>` renders
//! (§7j).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod exposition;
pub mod http;
pub mod service;
mod spans;

pub use exposition::Snapshot;
pub use service::{
    resume_token, Handler, HandlerError, HandlerStats, RequestKind, RunResult, Service,
};

#[cfg(test)]
pub(crate) mod testutil {
    use std::sync::{Mutex, MutexGuard, PoisonError};

    static FAILPOINT_LOCK: Mutex<()> = Mutex::new(());

    /// Fail-point state is process-global and the `serve-*` points sit
    /// on every socket and chunk writer, so unit tests that arm points
    /// *or* bind a `Service` serialise behind one lock. A failed test
    /// must not fail every later one, hence the poison recovery.
    pub(crate) fn fail_points_held() -> MutexGuard<'static, ()> {
        FAILPOINT_LOCK
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }
}
