//! Pipeline telemetry for the CTCP simulator.
//!
//! This crate is the observability layer every other crate reports
//! into, and it sits at the bottom of the workspace dependency graph
//! (it depends on nothing). The pieces:
//!
//! - [`Recorder`]: the one sink the pipeline reports into, through four
//!   hooks ([`Recorder::counter`], [`Recorder::observe`],
//!   [`Recorder::fetch_group`], [`Recorder::retire_attrib`]) that feed
//!   the two pieces below. A simulation holds an
//!   `Option<Rc<Recorder>>`; without one every hook site is a single
//!   `None` check.
//! - [`Metrics`]: a closed registry of typed [`Counter`]s and
//!   fixed-bucket [`Histogram`]s ([`Hist`]) — array-indexed, no hashing
//!   or allocation on the hot path.
//! - [`EventRing`]: a preallocated overwrite-oldest ring of pipeline
//!   [`SpanEvent`]s, fed from per-instruction [`InstAttrib`] records
//!   with an interval-sampling mode for long runs.
//! - [`attrib`]: per-instruction lifecycle records ([`InstAttrib`]),
//!   the retirement-driven [`CpiStack`], and the critical-path walker
//!   over [`CritLink`]s behind `ctcp analyze`.
//! - Exporters: [`chrome_trace`] renders `about://tracing`-loadable
//!   JSON (checked by [`validate_chrome_trace`]), [`metrics_line`]
//!   renders one JSONL metrics record per job.
//! - [`json`]: the workspace's hand-rolled JSON value (the build is
//!   fully offline; there is no serde).
//! - [`failpoint`]: named fault-injection sites (`CTCP_FAIL_POINT`)
//!   used by the crash-injection tests and the verify smoke.
//! - [`log`]: structured leveled JSON logging (`CTCP_LOG`), one
//!   record per line on stderr or a chosen file, with a small
//!   in-memory ring of recent warnings for the service's log tail.
//! - [`series`]: the service's fixed-size ring time-series — one
//!   slot per second for the last two minutes, so `/status` and
//!   `/metrics` can report true rolling rates and percentiles.
//! - [`ReqSpan`] / [`request_trace`]: request-scoped service spans
//!   (admit → queued → cell runs → stream) exported per request as a
//!   Chrome trace via `GET /trace/<token>`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attrib;
pub mod chrome;
pub mod event;
pub mod failpoint;
pub mod json;
pub mod log;
pub mod metrics;
pub mod recorder;
pub mod series;

pub use attrib::{
    AttribReport, CpiStack, CritEdge, CritLink, CriticalSummary, InstAttrib, RetireSlotKind,
    SrcAttrib, SrcKind, DEFAULT_TOP_EDGES,
};
pub use chrome::{
    chrome_trace, chrome_trace_with_flows, request_trace, validate_chrome_trace,
    ChromeTraceSummary, ReqSpan,
};
pub use event::{EventRing, FlowEvent, PipeStage, SpanEvent, FETCH_LANE};
pub use metrics::{metrics_line, Counter, Hist, Histogram, Metrics, HIST_BUCKETS};
pub use recorder::{Recorder, RecorderConfig};
pub use series::{SeriesRing, SeriesWindow, SERIES_SECONDS};
