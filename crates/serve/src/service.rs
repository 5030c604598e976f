//! The resident sweep service: accept loop, request routing, admission
//! control, crash-safe request registry, counters, and graceful drain.
//!
//! The service itself knows nothing about simulators. It owns a
//! [`Handler`] — the CLI plugs in one wrapping the shared cell
//! scheduler and warm result store from `ctcp-harness` — and routes
//! HTTP requests at it:
//!
//! | request           | behaviour                                          |
//! |-------------------|----------------------------------------------------|
//! | `POST /sweep`     | runs a sweep, streaming NDJSON progress chunks     |
//! | `POST /analyze`   | same, for an attribution analysis                  |
//! | `POST /resume`    | re-attaches to a live or finished batch by token   |
//! | `GET /status`     | in-flight work, pool utilization, latency, counters|
//! | `POST /shutdown`  | begins a graceful drain                            |
//!
//! Batches run *concurrently*: every connection gets its own thread,
//! and the handler is shared by reference (`&self`, `Send + Sync`)
//! rather than serialised behind a mutex. Interleaving is the
//! handler's business — the CLI handler feeds all requests into one
//! fair cell scheduler — while the service handles the wire side of
//! concurrency and of *crash safety*:
//!
//! * **admission**: a handler may refuse a batch before streaming
//!   anything ([`HandlerError::Saturated`] when the queue is over its
//!   bound, [`HandlerError::Unavailable`] while the result store is
//!   degraded to read-only); the service answers with a clean `503`, a
//!   typed JSON body, and a `Retry-After` header so clients can tell
//!   "try later" from a failed run.
//! * **idempotency and resume**: every batch is keyed by a *resume
//!   token* — a hash of the raw wire body ([`resume_token`]) — and its
//!   full event stream is kept in an in-memory registry. The first
//!   chunk of every stream is an `accepted` handshake carrying the
//!   token and the daemon's run id; a client that loses its connection
//!   re-attaches with `POST /resume {"token","have","run"}` and
//!   receives only the events it has not yet seen (all of them when
//!   the run id changed — i.e. the daemon restarted). An identical
//!   `POST /sweep` while the original is still running attaches to the
//!   live batch instead of running it twice.
//! * **disconnects detach, not cancel**: a broken client stream no
//!   longer abandons the batch — it keeps running headless, every
//!   finished cell memoizes, and the registry retains the stream for
//!   the client's reconnect.
//! * **replay**: after a crash, the CLI re-submits journaled
//!   unfinished requests through [`Service::replay`], which runs them
//!   headless — by the time clients reconnect, their tokens resolve.
//! * **drain**: `/shutdown` stops the accept loop, every in-flight
//!   connection thread and replay thread is joined, and then the
//!   handler is [quiesced](Handler::quiesce) so its worker pool runs
//!   every admitted cell to completion before the daemon exits.

use crate::http;
use ctcp_telemetry::json::Value;
use ctcp_telemetry::series::{bucket_lower_ms, bucket_upper_ms, latency_bucket};
use ctcp_telemetry::{
    failpoint, log, request_trace, Counter, Histogram, Metrics, ReqSpan, SeriesRing, HIST_BUCKETS,
    SERIES_SECONDS,
};
use std::collections::HashMap;
use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

/// What kind of batch a request asked for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestKind {
    /// A strategy × benchmark sweep (`POST /sweep`).
    Sweep,
    /// A per-strategy attribution analysis (`POST /analyze`).
    Analyze,
}

impl RequestKind {
    /// The wire/journal name of this kind.
    pub fn as_str(self) -> &'static str {
        match self {
            RequestKind::Sweep => "sweep",
            RequestKind::Analyze => "analyze",
        }
    }

    /// The inverse of [`as_str`](RequestKind::as_str) — used when
    /// replaying journaled requests.
    pub fn parse(s: &str) -> Option<RequestKind> {
        match s {
            "sweep" => Some(RequestKind::Sweep),
            "analyze" => Some(RequestKind::Analyze),
            _ => None,
        }
    }
}

/// The resume token of a batch: FNV-1a 64 over the request kind and
/// the *raw* wire body. Identical request bytes — from the same client
/// retrying, or a different client asking the same question — map to
/// the same token, which is what makes admission idempotent and crash
/// recovery possible: the journal records the same token the service
/// derives, so a replayed request answers the original token.
pub fn resume_token(kind: RequestKind, raw_body: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in kind.as_str().bytes().chain([b':']).chain(raw_body.bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// This daemon incarnation's id, sent in the `accepted` handshake. A
/// resuming client echoes it back; a mismatch means the daemon
/// restarted in between, so the client's event count is meaningless
/// and the stream restarts from the beginning.
fn run_id() -> u64 {
    u64::from(std::process::id())
}

/// What one handled batch produced.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The rendered output, byte-identical to the one-shot CLI's.
    pub output: String,
    /// The exit code the one-shot CLI would have returned.
    pub exit_code: i32,
    /// Cells answered from the warm shared cache.
    pub cache_hits: u64,
    /// Cells actually simulated.
    pub simulated: u64,
    /// Queued cells dropped before they ran (drain).
    pub cancelled: u64,
}

/// Why a handler refused to run a batch at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HandlerError {
    /// Admission control: the shared queue is over its configured
    /// bound. Nothing was streamed; the service answers `503` with
    /// these numbers in a typed JSON body.
    Saturated {
        /// Cells already queued when the request arrived.
        queued: usize,
        /// Cells this request wanted to add.
        wanted: usize,
        /// The configured queue bound.
        limit: usize,
    },
    /// The backend is degraded — typically the result store went
    /// read-only after a write failure — and new batches would run
    /// without memoizing. The service answers `503` with a
    /// `Retry-After` header; the store re-probes the disk on its own
    /// and admission recovers when it does.
    Unavailable {
        /// How long, in seconds, the client should wait before
        /// retrying.
        retry_after_secs: u64,
    },
}

impl HandlerError {
    /// The `Retry-After` value, in seconds, for the `503` response.
    fn retry_after_secs(self) -> u64 {
        match self {
            HandlerError::Saturated { .. } => 1,
            HandlerError::Unavailable { retry_after_secs } => retry_after_secs.max(1),
        }
    }

    /// The `error` field of the typed `503` body.
    fn name(self) -> &'static str {
        match self {
            HandlerError::Saturated { .. } => "saturated",
            HandlerError::Unavailable { .. } => "unavailable",
        }
    }
}

impl std::fmt::Display for HandlerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HandlerError::Saturated {
                queued,
                wanted,
                limit,
            } => write!(
                f,
                "saturated: {queued} cells queued + {wanted} requested > limit {limit}"
            ),
            HandlerError::Unavailable { retry_after_secs } => write!(
                f,
                "unavailable: result store is read-only after a write failure; \
                 retry in {retry_after_secs}s"
            ),
        }
    }
}

/// A point-in-time snapshot of the handler's execution backend,
/// surfaced verbatim by `/status`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct HandlerStats {
    /// Resident worker threads in the shared pool.
    pub workers: usize,
    /// Cells queued and not yet picked up by a worker.
    pub queued_cells: usize,
    /// Cells currently executing on a worker.
    pub running_cells: usize,
    /// Queued cells dropped before running, cumulative.
    pub cancelled_cells: u64,
    /// Worker threads respawned after a panic, cumulative.
    pub respawns: u64,
    /// Cells quarantined after repeated worker panics, cumulative.
    pub poisoned: u64,
    /// True while the result store is degraded to read-only.
    pub read_only: bool,
}

/// The execution backend behind the service — implemented by the CLI
/// around the shared cell scheduler, mocked in tests.
///
/// `run` takes `&self` and the trait requires `Send + Sync`: the
/// service calls it from many connection threads at once, so
/// implementations own their interior synchronisation (the CLI handler
/// builds a fresh per-request harness around shared `Clone` handles).
pub trait Handler: Send + Sync {
    /// Runs the batch described by `body` (a parsed JSON object),
    /// emitting progress events through `progress` as cells finish.
    /// `token` is the batch's resume token — a journaling handler
    /// records it so the request can be replayed after a crash.
    ///
    /// The callback's return value reports whether a client is still
    /// attached; the service keeps detached batches running (their
    /// events are retained for resume), so handlers should treat
    /// `false` as advisory, not as a cancellation order.
    /// A malformed body should come back as an `Ok` result with a
    /// non-zero `exit_code` and the parse error as `output`; `Err` is
    /// reserved for refusing to run at all.
    ///
    /// # Errors
    ///
    /// [`HandlerError::Saturated`] when admission control refuses the
    /// batch, [`HandlerError::Unavailable`] while the backend is
    /// degraded — both guaranteed to happen before any progress is
    /// emitted.
    fn run(
        &self,
        kind: RequestKind,
        body: &Value,
        token: &str,
        progress: &mut dyn FnMut(&Value) -> bool,
    ) -> Result<RunResult, HandlerError>;

    /// A live snapshot of the execution backend for `/status`.
    fn stats(&self) -> HandlerStats {
        HandlerStats::default()
    }

    /// Backend-specific operator gauges as a flat JSON object —
    /// numbers, or arrays of numbers for per-shard breakdowns. The CLI
    /// handler reports journal size/compactions and per-shard store
    /// entry counts here; the service folds them into `/status` and
    /// `/metrics` without knowing their names.
    fn gauges(&self) -> Value {
        Value::Obj(Vec::new())
    }

    /// Quiesces the backend at the end of a drain: stop admitting,
    /// run every already-admitted cell to completion, release workers.
    /// Called once, after all connection threads have been joined.
    fn quiesce(&self) {}
}

/// Counter totals for one service lifetime, reported when the drain
/// completes.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ServiceSummary {
    /// Requests accepted (all routes).
    pub requests: u64,
    /// Batch requests that overlapped another in-flight batch (the
    /// concurrency the shared scheduler interleaved).
    pub queued: u64,
    /// Sweep cells answered from the warm shared cache.
    pub cache_hits: u64,
    /// Batch requests refused by admission control (`503`).
    pub rejected: u64,
    /// Queued cells dropped before they ran.
    pub cancelled_cells: u64,
    /// Journaled requests replayed headless after a restart.
    pub journal_replayed: u64,
    /// Streams re-attached to an existing batch (`/resume`, or an
    /// idempotent duplicate `POST` joining a live run).
    pub resumed_streams: u64,
    /// Worker threads respawned after a panic.
    pub respawns: u64,
    /// Cells quarantined after repeated worker panics.
    pub poisoned: u64,
}

/// One admitted batch's replayable state: every event line it has
/// emitted (progress and the final result), and whether it finished.
/// Readers — the owning connection, `/resume` attachments, duplicate
/// `POST`s — stream the log and park on the condvar for more.
struct RequestEntry {
    state: Mutex<EntryState>,
    grew: Condvar,
    /// The request kind, for the `/status` request table.
    kind: RequestKind,
    /// Admission time, for request age reporting.
    created: Instant,
}

struct EntryState {
    /// Rendered NDJSON lines, in emission order, `\n`-terminated.
    events: Vec<String>,
    /// Set once, after the final `result` (or `error`) line.
    done: bool,
    /// Progress watermark parsed off the batch's progress events, for
    /// the `/status` request table (`0/0` until the first event).
    cells_done: u64,
    cells_total: u64,
}

impl RequestEntry {
    fn new(kind: RequestKind) -> RequestEntry {
        RequestEntry {
            state: Mutex::new(EntryState {
                events: Vec::new(),
                done: false,
                cells_done: 0,
                cells_total: 0,
            }),
            grew: Condvar::new(),
            kind,
            created: Instant::now(),
        }
    }

    fn push(&self, line: String) {
        relock(&self.state).events.push(line);
        self.grew.notify_all();
    }

    fn note_progress(&self, done: u64, total: u64) {
        let mut st = relock(&self.state);
        st.cells_done = st.cells_done.max(done);
        st.cells_total = st.cells_total.max(total);
    }

    fn finish(&self) {
        relock(&self.state).done = true;
        self.grew.notify_all();
    }

    fn is_done(&self) -> bool {
        relock(&self.state).done
    }

    /// Blocks until there are events past index `from` (or the entry
    /// is done), then returns them along with the done flag.
    fn wait_past(&self, from: usize) -> (Vec<String>, bool) {
        let mut st = relock(&self.state);
        loop {
            if st.events.len() > from || st.done {
                let at = from.min(st.events.len());
                return (st.events[at..].to_vec(), st.done);
            }
            st = self
                .grew
                .wait(st)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }
}

/// Spans kept per shard; old spans are overwritten, newest win.
const SPAN_RING_CAP: usize = 2048;

/// Span-ring shards. Cell spans shard by worker lane, so concurrent
/// workers rarely contend on one mutex — the "lock-cheap per-worker
/// ring" the observability layer promises.
const SPAN_SHARDS: usize = 8;

/// The service lane request spans render on (admit / queued / run).
const LANE_SERVICE: u64 = 0;
/// The lane client stream/drain spans render on.
const LANE_STREAM: u64 = 1;
/// Worker `w`'s cell spans render on `LANE_WORKERS + w`.
const LANE_WORKERS: u64 = 2;

/// A fixed-capacity overwrite-oldest ring of `(token, span)` pairs.
struct SpanRing {
    buf: Vec<(String, ReqSpan)>,
    next: usize,
}

impl SpanRing {
    fn new() -> SpanRing {
        SpanRing {
            buf: Vec::new(),
            next: 0,
        }
    }

    fn push(&mut self, token: &str, span: ReqSpan) {
        if self.buf.len() < SPAN_RING_CAP {
            self.buf.push((token.to_string(), span));
        } else {
            self.buf[self.next] = (token.to_string(), span);
            self.next = (self.next + 1) % SPAN_RING_CAP;
        }
    }
}

struct Inner {
    handler: Box<dyn Handler>,
    metrics: Mutex<Metrics>,
    /// Completed-batch latency, bucketed as `log2(ms + 1)` so the
    /// fixed 33-bucket histogram spans sub-millisecond cache hits to
    /// multi-hour sweeps.
    latency: Mutex<Histogram>,
    /// Sum of raw batch latencies in ms — the exact `_sum` the
    /// Prometheus histogram exposition wants (the [`Histogram`]'s own
    /// `sum` accumulates bucket indices, not milliseconds).
    latency_sum_ms: AtomicU64,
    /// The last two minutes at one-second resolution, for rolling
    /// rates and windowed percentiles in `/status` and `/metrics`.
    series: Mutex<SeriesRing>,
    /// Request-scoped spans, sharded by lane; `GET /trace/<token>`
    /// filters and exports them as a Chrome trace.
    spans: Vec<Mutex<SpanRing>>,
    /// Time base for span timestamps and series slots.
    epoch: Instant,
    /// `CTCP_SLOW_CELL_MS` override for the slow-cell log threshold;
    /// `None` = rolling p99 × 3.
    slow_cell_ms: Option<u64>,
    /// Every batch this incarnation has admitted, live and finished,
    /// keyed by resume token. Finished entries are kept so a client
    /// that reconnects after its batch completed still gets the full
    /// stream; the map is bounded by requests-per-daemon-lifetime.
    registry: Mutex<HashMap<String, Arc<RequestEntry>>>,
    /// Headless replay threads started by [`Service::replay`], joined
    /// during the drain so no journaled batch is ever abandoned twice.
    replays: Mutex<Vec<std::thread::JoinHandle<()>>>,
    /// Batch requests currently being handled (admitted or not-yet-
    /// admitted; excludes `/status` and `/shutdown`).
    in_flight: AtomicUsize,
    /// Set by `/shutdown`; the accept loop stops taking connections.
    draining: AtomicBool,
    addr: SocketAddr,
}

/// Mutex access that survives a poisoned lock: a panicking batch must
/// not wedge the whole daemon.
fn relock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl Inner {
    /// Microseconds since daemon start — the span time base.
    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Whole seconds since daemon start — the series slot clock.
    fn now_sec(&self) -> u64 {
        self.epoch.elapsed().as_secs()
    }

    /// Records one request span under its correlation token.
    fn record_span(&self, token: &str, span: ReqSpan) {
        let shard = (span.lane as usize) % self.spans.len();
        relock(&self.spans[shard]).push(token, span);
    }

    /// Every retained span of `token`, in recording order per shard.
    fn spans_for(&self, token: &str) -> Vec<ReqSpan> {
        let mut out = Vec::new();
        for shard in &self.spans {
            let ring = relock(shard);
            out.extend(
                ring.buf
                    .iter()
                    .filter(|(t, _)| t == token)
                    .map(|(_, s)| s.clone()),
            );
        }
        out
    }

    /// The slow-cell threshold in ms: the configured override, else
    /// rolling p99 × 3 once the last two minutes hold enough samples
    /// to make a percentile meaningful.
    fn slow_cell_threshold_ms(&self, now_sec: u64) -> u64 {
        if let Some(ms) = self.slow_cell_ms {
            return ms;
        }
        let w = relock(&self.series).window(now_sec, SERIES_SECONDS as u64);
        if w.cell_lat.total < 20 {
            return u64::MAX;
        }
        w.cell_percentile_ms(99.0).saturating_mul(3).max(1)
    }
}

/// A bound, not-yet-running sweep service.
pub struct Service {
    listener: TcpListener,
    inner: Arc<Inner>,
}

impl Service {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and
    /// wires `handler` behind it. The listener is live — connections
    /// queue in the OS backlog — but nothing is served until
    /// [`run`](Service::run).
    ///
    /// # Errors
    ///
    /// Bind failures (address in use, permission).
    pub fn bind(addr: &str, handler: Box<dyn Handler>) -> io::Result<Service> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(Service {
            listener,
            inner: Arc::new(Inner {
                handler,
                metrics: Mutex::new(Metrics::new()),
                latency: Mutex::new(Histogram::default()),
                latency_sum_ms: AtomicU64::new(0),
                series: Mutex::new(SeriesRing::new(SERIES_SECONDS)),
                spans: (0..SPAN_SHARDS)
                    .map(|_| Mutex::new(SpanRing::new()))
                    .collect(),
                epoch: Instant::now(),
                slow_cell_ms: std::env::var("CTCP_SLOW_CELL_MS")
                    .ok()
                    .and_then(|s| s.parse().ok()),
                registry: Mutex::new(HashMap::new()),
                replays: Mutex::new(Vec::new()),
                in_flight: AtomicUsize::new(0),
                draining: AtomicBool::new(false),
                addr,
            }),
        })
    }

    /// The bound address — the actual port when bound to port 0.
    pub fn local_addr(&self) -> SocketAddr {
        self.inner.addr
    }

    /// Re-runs a journaled request headless — no socket, events into
    /// the registry — so a client that reconnects after a daemon crash
    /// finds its token live (or finished) instead of unknown. Called
    /// by the CLI before [`run`](Service::run) for every unfinished
    /// request the journal replays. Returns `false` (and does nothing)
    /// when the body no longer parses or the token is already
    /// registered.
    pub fn replay(&self, kind: RequestKind, raw_body: &str) -> bool {
        let Ok(body) = Value::parse(raw_body) else {
            return false;
        };
        let token = resume_token(kind, raw_body);
        let entry = Arc::new(RequestEntry::new(kind));
        {
            let mut reg = relock(&self.inner.registry);
            if reg.contains_key(&token) {
                return false;
            }
            reg.insert(token.clone(), Arc::clone(&entry));
        }
        relock(&self.inner.metrics).add(Counter::ServeJournalReplayed, 1);
        let inner = Arc::clone(&self.inner);
        let handle = std::thread::spawn(move || {
            let _ = execute_entry(&inner, kind, &body, &token, &entry, None);
        });
        relock(&self.inner.replays).push(handle);
        true
    }

    /// Serves until a `/shutdown` request, then drains: the accept
    /// loop stops, every in-flight connection thread and replay thread
    /// is joined (their batches run to completion), the handler is
    /// quiesced, and the counter totals are returned.
    ///
    /// # Errors
    ///
    /// Fatal accept-loop failures only; per-connection errors (a peer
    /// hanging up mid-stream) are contained in that connection's
    /// thread.
    pub fn run(self) -> io::Result<ServiceSummary> {
        let mut workers: Vec<std::thread::JoinHandle<()>> = Vec::new();
        // `serve-accept-storm=N` drops the first N connections on the
        // floor — the reconnect-herd chaos the client backoff absorbs.
        let mut storm_dropped: u64 = 0;
        loop {
            let (stream, _) = match self.listener.accept() {
                Ok(conn) => conn,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            if self.inner.draining.load(Ordering::Acquire) {
                break;
            }
            if let Some(n) = failpoint::arg("serve-accept-storm") {
                if storm_dropped < n.parse().unwrap_or(0) {
                    storm_dropped += 1;
                    drop(stream);
                    continue;
                }
            }
            let inner = Arc::clone(&self.inner);
            workers.push(std::thread::spawn(move || {
                let _ = handle_connection(stream, &inner);
            }));
            // Reap finished threads so a long-lived daemon does not
            // accumulate one handle per connection ever served.
            let (done, running) = workers.into_iter().partition(|w| w.is_finished());
            workers = running;
            for w in done {
                let _ = w.join();
            }
        }
        // Graceful drain: in-flight batches finish (and memoize) even
        // though no new connections are accepted — then the handler's
        // own pool is quiesced, so no admitted cell is ever lost.
        for w in workers {
            let _ = w.join();
        }
        for r in std::mem::take(&mut *relock(&self.inner.replays)) {
            let _ = r.join();
        }
        let hs = self.inner.handler.stats();
        self.inner.handler.quiesce();
        let m = relock(&self.inner.metrics);
        Ok(ServiceSummary {
            requests: m.get(Counter::ServeRequests),
            queued: m.get(Counter::ServeQueued),
            cache_hits: m.get(Counter::ServeCacheHits),
            rejected: m.get(Counter::ServeRejected),
            cancelled_cells: m.get(Counter::ServeCancelledCells),
            journal_replayed: m.get(Counter::ServeJournalReplayed),
            resumed_streams: m.get(Counter::ServeResumedStreams),
            respawns: hs.respawns,
            poisoned: hs.poisoned,
        })
    }
}

fn handle_connection(stream: TcpStream, inner: &Inner) -> io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut out = stream;
    let req = match http::read_request(&mut reader) {
        Ok(Some(req)) => req,
        Ok(None) => return Ok(()), // connected and left
        Err(e) if e.kind() == io::ErrorKind::InvalidData => {
            return http::write_response(&mut out, 400, "text/plain", e.to_string().as_bytes());
        }
        Err(e) => return Err(e),
    };
    relock(&inner.metrics).add(Counter::ServeRequests, 1);
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/sweep") => run_batch(RequestKind::Sweep, &req, &mut out, inner),
        ("POST", "/analyze") => run_batch(RequestKind::Analyze, &req, &mut out, inner),
        ("POST", "/resume") => resume(&req, &mut out, inner),
        ("GET", "/status") => status(&mut out, inner),
        ("GET", "/metrics") => metrics_export(&mut out, inner),
        ("GET", path) if path.strip_prefix("/trace/").is_some_and(|t| !t.is_empty()) => {
            let token = path["/trace/".len()..].to_string();
            trace_export(&token, &mut out, inner)
        }
        ("POST", "/shutdown") => shutdown(&mut out, inner),
        _ => http::write_response(&mut out, 404, "text/plain", b"unknown route"),
    }
}

/// Decrements the in-flight gauge however the batch ends (result,
/// rejection, panic in the handler, broken pipe).
struct InFlight<'a>(&'a AtomicUsize);

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The first chunk of every batch stream: the resume handshake. Not
/// recorded in the entry log — each attachment gets its own, and
/// clients count delivered events from the line after it.
fn accepted_line(token: &str) -> String {
    let mut line = Value::Obj(vec![
        ("event".into(), Value::str("accepted")),
        ("token".into(), Value::str(token)),
        ("run".into(), Value::u64(run_id())),
    ])
    .render();
    line.push('\n');
    line
}

/// Runs the batch through the handler on the current thread, recording
/// every event line (and the final `result` line) in `entry`, and
/// mirroring each to `sink` while it keeps accepting them — `sink`
/// returning `false` detaches the stream but never stops the batch.
/// Refusals remove the entry from the registry (a later retry runs
/// fresh) and mark it done with a terminal `error` line so attached
/// streams end instead of hanging; a panicking handler yields a
/// terminal `result` line with exit code 70 and the daemon survives.
fn execute_entry(
    inner: &Inner,
    kind: RequestKind,
    body: &Value,
    token: &str,
    entry: &RequestEntry,
    mut sink: Option<&mut dyn FnMut(&str) -> bool>,
) -> Result<(), HandlerError> {
    fn emit(
        entry: &RequestEntry,
        line: String,
        sink: &mut Option<&mut dyn FnMut(&str) -> bool>,
        attached: &mut bool,
    ) {
        entry.push(line.clone());
        if *attached {
            if let Some(s) = sink.as_mut() {
                *attached = s(&line);
            }
        }
    }

    let started = Instant::now();
    let started_us = inner.now_us();
    log::info(
        "serve",
        "request admitted",
        &[
            ("token", Value::str(token)),
            ("kind", Value::str(kind.as_str())),
        ],
    );
    inner.record_span(
        token,
        ReqSpan {
            name: "admit".into(),
            lane: LANE_SERVICE,
            lane_name: "service".into(),
            ts_us: started_us,
            dur_us: 0,
            args: vec![
                ("token".into(), Value::str(token)),
                ("kind".into(), Value::str(kind.as_str())),
            ],
        },
    );
    let mut attached = true;
    let mut first_event_us: Option<u64> = None;
    let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
        inner.handler.run(kind, body, token, &mut |event| {
            let now_us = inner.now_us();
            first_event_us.get_or_insert(now_us);
            observe_progress_event(inner, token, entry, event, now_us);
            let mut line = event.render();
            line.push('\n');
            emit(entry, line, &mut sink, &mut attached);
            true
        })
    }));
    let result = match outcome {
        Ok(Ok(result)) => result,
        Ok(Err(refusal)) => {
            relock(&inner.metrics).add(Counter::ServeRejected, 1);
            relock(&inner.registry).remove(token);
            log::warn(
                "serve",
                "request refused",
                &[
                    ("token", Value::str(token)),
                    ("error", Value::str(refusal.name())),
                    ("message", Value::str(&refusal.to_string())),
                ],
            );
            let mut line = Value::Obj(vec![
                ("event".into(), Value::str("error")),
                ("error".into(), Value::str(refusal.name())),
                ("message".into(), Value::str(&refusal.to_string())),
            ])
            .render();
            line.push('\n');
            entry.push(line);
            entry.finish();
            return Err(refusal);
        }
        Err(_) => {
            // The handler panicked mid-batch. The daemon survives; the
            // batch gets a terminal result so no stream hangs on it.
            log::error(
                "serve",
                "handler panicked mid-batch",
                &[("token", Value::str(token))],
            );
            RunResult {
                output: "internal error: batch panicked".into(),
                exit_code: 70,
                cache_hits: 0,
                simulated: 0,
                cancelled: 0,
            }
        }
    };

    {
        let mut m = relock(&inner.metrics);
        m.add(Counter::ServeCacheHits, result.cache_hits);
        m.add(Counter::ServeCancelledCells, result.cancelled);
    }
    let ms = started.elapsed().as_millis() as u64;
    relock(&inner.latency).observe(latency_bucket(ms));
    inner.latency_sum_ms.fetch_add(ms, Ordering::Relaxed);
    relock(&inner.series).record_request(inner.now_sec(), ms);
    // The wait between admission and the first progress event is the
    // best queue-time proxy the wire has: the handler emits nothing
    // until a first cell completes.
    if let Some(first) = first_event_us {
        inner.record_span(
            token,
            ReqSpan {
                name: "queued".into(),
                lane: LANE_SERVICE,
                lane_name: "service".into(),
                ts_us: started_us,
                dur_us: first.saturating_sub(started_us),
                args: vec![("token".into(), Value::str(token))],
            },
        );
    }
    inner.record_span(
        token,
        ReqSpan {
            name: format!("run {}", kind.as_str()),
            lane: LANE_SERVICE,
            lane_name: "service".into(),
            ts_us: started_us,
            dur_us: inner.now_us().saturating_sub(started_us),
            args: vec![
                ("token".into(), Value::str(token)),
                (
                    "exit_code".into(),
                    Value::u64(result.exit_code.unsigned_abs().into()),
                ),
                ("cache_hits".into(), Value::u64(result.cache_hits)),
                ("simulated".into(), Value::u64(result.simulated)),
            ],
        },
    );
    log::info(
        "serve",
        "request finished",
        &[
            ("token", Value::str(token)),
            ("kind", Value::str(kind.as_str())),
            ("took_ms", Value::u64(ms)),
            (
                "exit_code",
                Value::u64(result.exit_code.unsigned_abs().into()),
            ),
            ("cache_hits", Value::u64(result.cache_hits)),
            ("simulated", Value::u64(result.simulated)),
            ("cancelled", Value::u64(result.cancelled)),
        ],
    );

    let mut line = Value::Obj(vec![
        ("event".into(), Value::str("result")),
        (
            "exit_code".into(),
            Value::u64(result.exit_code.unsigned_abs().into()),
        ),
        ("cache_hits".into(), Value::u64(result.cache_hits)),
        ("simulated".into(), Value::u64(result.simulated)),
        ("cancelled".into(), Value::u64(result.cancelled)),
        ("output".into(), Value::str(&result.output)),
    ])
    .render();
    line.push('\n');
    emit(entry, line, &mut sink, &mut attached);
    entry.finish();
    Ok(())
}

/// Observes one handler progress event before it is streamed: updates
/// the entry's progress watermark for the `/status` request table,
/// records a per-worker cell span, feeds the series ring, and logs a
/// structured record when the cell exceeded the slow-cell threshold.
/// Non-`progress` events pass through untouched.
fn observe_progress_event(
    inner: &Inner,
    token: &str,
    entry: &RequestEntry,
    event: &Value,
    now_us: u64,
) {
    if event.get("event").and_then(Value::as_str) != Some("progress") {
        return;
    }
    let done = event.get("done").and_then(Value::as_u64).unwrap_or(0);
    let total = event.get("total").and_then(Value::as_u64).unwrap_or(0);
    entry.note_progress(done, total);
    let workload = event
        .get("workload")
        .and_then(Value::as_str)
        .unwrap_or("cell");
    let took_s = event.get("took_s").and_then(Value::as_f64).unwrap_or(0.0);
    let worker = event.get("worker").and_then(Value::as_u64).unwrap_or(0);
    let took_us = (took_s * 1e6) as u64;
    let took_ms = (took_s * 1e3) as u64;
    inner.record_span(
        token,
        ReqSpan {
            name: format!("cell {workload}"),
            lane: LANE_WORKERS + worker,
            lane_name: format!("worker {worker}"),
            ts_us: now_us.saturating_sub(took_us),
            dur_us: took_us,
            args: vec![
                ("token".into(), Value::str(token)),
                ("workload".into(), Value::str(workload)),
                ("done".into(), Value::u64(done)),
                ("total".into(), Value::u64(total)),
            ],
        },
    );
    let now_sec = inner.now_sec();
    relock(&inner.series).record_cell(now_sec, took_ms);
    let threshold = inner.slow_cell_threshold_ms(now_sec);
    if took_ms > threshold {
        // PipelineDiagnostic-style context: what ran, where, for whom,
        // and what the pool looked like while it was slow.
        let hs = inner.handler.stats();
        log::warn(
            "serve",
            "slow cell",
            &[
                ("token", Value::str(token)),
                ("workload", Value::str(workload)),
                ("took_ms", Value::u64(took_ms)),
                ("threshold_ms", Value::u64(threshold)),
                ("worker", Value::u64(worker)),
                ("cell", Value::u64(done)),
                ("of", Value::u64(total)),
                ("queued_cells", Value::u64(hs.queued_cells as u64)),
                ("running_cells", Value::u64(hs.running_cells as u64)),
            ],
        );
    } else if log::enabled(log::Level::Debug) {
        log::debug(
            "serve",
            "cell finished",
            &[
                ("token", Value::str(token)),
                ("workload", Value::str(workload)),
                ("took_ms", Value::u64(took_ms)),
                ("worker", Value::u64(worker)),
            ],
        );
    }
}

fn run_batch(
    kind: RequestKind,
    req: &http::Request,
    out: &mut TcpStream,
    inner: &Inner,
) -> io::Result<()> {
    let Some(raw) = req.body_str() else {
        return http::write_response(out, 400, "text/plain", b"body is not valid JSON");
    };
    let Ok(body) = Value::parse(raw) else {
        return http::write_response(out, 400, "text/plain", b"body is not valid JSON");
    };
    let token = resume_token(kind, raw);

    // Idempotent admission: an identical request already running (same
    // kind, same raw body, so same token) is attached to, not re-run.
    // Finished entries do not capture duplicates — re-asking a settled
    // question runs fresh (and answers warm from the store anyway).
    let entry = {
        let mut reg = relock(&inner.registry);
        match reg.get(&token) {
            Some(live) if !live.is_done() => {
                let live = Arc::clone(live);
                drop(reg);
                relock(&inner.metrics).add(Counter::ServeResumedStreams, 1);
                return stream_entry(out, &live, &token, 0, inner);
            }
            _ => {
                let entry = Arc::new(RequestEntry::new(kind));
                reg.insert(token.clone(), Arc::clone(&entry));
                entry
            }
        }
    };

    if inner.in_flight.fetch_add(1, Ordering::SeqCst) > 0 {
        // Another batch is already running: this one rides the shared
        // pool concurrently instead of waiting its turn.
        relock(&inner.metrics).add(Counter::ServeQueued, 1);
    }
    let _gauge = InFlight(&inner.in_flight);

    // The chunked stream starts lazily, on the first event: a batch
    // refused by admission control streams nothing, so it can still
    // be answered with a clean fixed-length 503. The first chunk of a
    // started stream is the `accepted` resume handshake.
    let mut writer: Option<http::ChunkedWriter<TcpStream>> = None;
    let mut stream_started_us: Option<u64> = None;
    let mut sent = 0usize;
    let refusal = {
        let mut sink = |line: &str| -> bool {
            let w = match writer.as_mut() {
                Some(w) => w,
                None => match out
                    .try_clone()
                    .and_then(|s| http::ChunkedWriter::start(s, 200, "application/x-ndjson"))
                {
                    Ok(mut w) => {
                        stream_started_us = Some(inner.now_us());
                        if w.chunk(accepted_line(&token).as_bytes()).is_err() {
                            return false;
                        }
                        writer.insert(w)
                    }
                    Err(_) => return false,
                },
            };
            // A failed write detaches this client; the batch keeps
            // running and the registry keeps its stream for a resume.
            let ok = w.chunk(line.as_bytes()).is_ok();
            sent += usize::from(ok);
            ok
        };
        execute_entry(inner, kind, &body, &token, &entry, Some(&mut sink))
    };

    if let Err(e) = refusal {
        debug_assert!(writer.is_none(), "admission precedes streaming");
        let retry_after = e.retry_after_secs().to_string();
        let mut fields = vec![
            ("error".into(), Value::str(e.name())),
            ("message".into(), Value::str(&e.to_string())),
        ];
        if let HandlerError::Saturated {
            queued,
            wanted,
            limit,
        } = e
        {
            fields.push(("queued".into(), Value::u64(queued as u64)));
            fields.push(("wanted".into(), Value::u64(wanted as u64)));
            fields.push(("limit".into(), Value::u64(limit as u64)));
        }
        let body = Value::Obj(fields).render();
        return http::write_response_with(
            out,
            503,
            "application/json",
            &[("Retry-After", &retry_after)],
            body.as_bytes(),
        );
    }
    match writer {
        Some(w) => {
            // The live client's stream gets the same span the
            // attach/resume path records, so every delivered stream —
            // original or re-attached — shows on the streams lane.
            let ts_us = stream_started_us.unwrap_or_else(|| inner.now_us());
            inner.record_span(
                &token,
                ReqSpan {
                    name: "stream".into(),
                    lane: LANE_STREAM,
                    lane_name: "streams".into(),
                    ts_us,
                    dur_us: inner.now_us().saturating_sub(ts_us),
                    args: vec![
                        ("token".into(), Value::str(&token)),
                        ("from".into(), Value::u64(0)),
                        ("events".into(), Value::u64(sent as u64)),
                    ],
                },
            );
            w.finish()
        }
        // The client detached before the stream ever started (or the
        // start itself failed); nothing left to say on this socket.
        None => Ok(()),
    }
}

/// Streams `entry` to `out` from event index `from`: the `accepted`
/// handshake, every already-recorded event past `from`, then live
/// events as the batch emits them, until the entry is done.
fn stream_entry(
    out: &mut TcpStream,
    entry: &RequestEntry,
    token: &str,
    from: usize,
    inner: &Inner,
) -> io::Result<()> {
    let stream_start_us = inner.now_us();
    let mut w = http::ChunkedWriter::start(out.try_clone()?, 200, "application/x-ndjson")?;
    w.chunk(accepted_line(token).as_bytes())?;
    let mut at = from;
    loop {
        let (events, done) = entry.wait_past(at);
        for line in &events {
            w.chunk(line.as_bytes())?;
        }
        at += events.len();
        if done {
            break;
        }
    }
    let sent = at - from;
    inner.record_span(
        token,
        ReqSpan {
            name: "stream".into(),
            lane: LANE_STREAM,
            lane_name: "streams".into(),
            ts_us: stream_start_us,
            dur_us: inner.now_us().saturating_sub(stream_start_us),
            args: vec![
                ("token".into(), Value::str(token)),
                ("from".into(), Value::u64(from as u64)),
                ("events".into(), Value::u64(sent as u64)),
            ],
        },
    );
    w.finish()
}

/// `POST /resume {"token": "...", "have": N, "run": R}` — re-attaches
/// to a batch by resume token, skipping the `N` events the client
/// already received from daemon incarnation `R` (all events are
/// re-sent when `R` is not this incarnation). Unknown tokens get a
/// typed `404` — the client falls back to re-POSTing the original
/// request.
fn resume(req: &http::Request, out: &mut TcpStream, inner: &Inner) -> io::Result<()> {
    let body = match req.body_str().map(Value::parse) {
        Some(Ok(v)) => v,
        _ => return http::write_response(out, 400, "text/plain", b"body is not valid JSON"),
    };
    let Some(token) = body.get("token").and_then(Value::as_str).map(String::from) else {
        return http::write_response(out, 400, "text/plain", b"resume body needs a token");
    };
    let have = body.get("have").and_then(Value::as_u64).unwrap_or(0) as usize;
    let run = body.get("run").and_then(Value::as_u64).unwrap_or(0);
    let entry = relock(&inner.registry).get(&token).map(Arc::clone);
    let Some(entry) = entry else {
        let body = Value::Obj(vec![
            ("error".into(), Value::str("unknown-token")),
            ("token".into(), Value::str(&token)),
        ])
        .render();
        return http::write_response(out, 404, "application/json", body.as_bytes());
    };
    let from = if run == run_id() { have } else { 0 };
    relock(&inner.metrics).add(Counter::ServeResumedStreams, 1);
    log::info(
        "serve",
        "stream resumed",
        &[
            ("token", Value::str(&token)),
            ("from", Value::u64(from as u64)),
        ],
    );
    stream_entry(out, &entry, &token, from, inner)
}

/// The explicit `[lower, upper]` bucket bounds of the latency
/// histogram as a JSON array of `{le, count}` objects (non-cumulative
/// counts, one entry per populated bucket). The unbounded last bucket
/// reports `"+Inf"` — the same upper bounds `/metrics` exposes, so the
/// percentiles in `/status` are finally interpretable.
fn latency_buckets_value(lat: &Histogram) -> Value {
    let mut buckets = Vec::new();
    for (i, &c) in lat.counts.iter().enumerate() {
        if c == 0 {
            continue;
        }
        let le = bucket_upper_ms(i as u64);
        let le = if le == u64::MAX {
            Value::str("+Inf")
        } else {
            Value::u64(le)
        };
        buckets.push(Value::Obj(vec![
            ("le".into(), le),
            ("count".into(), Value::u64(c)),
        ]));
    }
    Value::Arr(buckets)
}

fn status(out: &mut TcpStream, inner: &Inner) -> io::Result<()> {
    // Nothing here waits on a batch: the gauges are atomics, the
    // handler snapshot reads its scheduler's atomics, and the
    // mutexes are only ever held for micro-ops.
    let hs = inner.handler.stats();
    let in_flight = inner.in_flight.load(Ordering::SeqCst) as u64;
    let utilization = if hs.workers == 0 {
        0.0
    } else {
        hs.running_cells as f64 / hs.workers as f64
    };
    let lat = relock(&inner.latency).clone();
    // Rolling one-minute window off the series ring: true rates, not
    // lifetime averages.
    let win = relock(&inner.series).window(inner.now_sec(), 60);
    // Live (unfinished) requests, oldest first, for `ctcp top`'s table.
    let mut requests: Vec<(u64, Value)> = relock(&inner.registry)
        .iter()
        .filter(|(_, e)| !e.is_done())
        .map(|(token, e)| {
            let st = relock(&e.state);
            let age_s = e.created.elapsed().as_secs();
            (
                age_s,
                Value::Obj(vec![
                    ("token".into(), Value::str(token)),
                    ("kind".into(), Value::str(e.kind.as_str())),
                    ("age_s".into(), Value::u64(age_s)),
                    ("cells_done".into(), Value::u64(st.cells_done)),
                    ("cells_total".into(), Value::u64(st.cells_total)),
                ]),
            )
        })
        .collect();
    requests.sort_by_key(|(age, _)| std::cmp::Reverse(*age));
    let requests: Vec<Value> = requests.into_iter().map(|(_, v)| v).take(64).collect();
    let m = relock(&inner.metrics);
    let mut counters: Vec<(String, Value)> = [
        Counter::ServeRequests,
        Counter::ServeQueued,
        Counter::ServeCacheHits,
        Counter::ServeRejected,
        Counter::ServeCancelledCells,
        Counter::ServeJournalReplayed,
        Counter::ServeResumedStreams,
    ]
    .iter()
    .map(|&c| (c.name().to_string(), Value::u64(m.get(c))))
    .collect();
    // The supervision counters live in the handler's scheduler, not in
    // the service's metrics — surfaced here under their Counter names
    // so `/status` is the one place to read robustness state.
    counters.push((
        Counter::ServeWorkerRespawns.name().to_string(),
        Value::u64(hs.respawns),
    ));
    counters.push((
        Counter::ServeCellsPoisoned.name().to_string(),
        Value::u64(hs.poisoned),
    ));
    let body = Value::Obj(vec![
        ("status".into(), Value::str("ok")),
        ("in_flight".into(), Value::u64(in_flight)),
        ("workers".into(), Value::u64(hs.workers as u64)),
        ("queued_cells".into(), Value::u64(hs.queued_cells as u64)),
        ("running_cells".into(), Value::u64(hs.running_cells as u64)),
        ("worker_utilization".into(), Value::f64(utilization)),
        ("cancelled_cells".into(), Value::u64(hs.cancelled_cells)),
        ("store_read_only".into(), Value::Bool(hs.read_only)),
        (
            "latency_ms".into(),
            Value::Obj(vec![
                ("samples".into(), Value::u64(lat.total)),
                (
                    "p50".into(),
                    Value::u64(bucket_lower_ms(lat.percentile(50.0))),
                ),
                (
                    "p95".into(),
                    Value::u64(bucket_lower_ms(lat.percentile(95.0))),
                ),
                (
                    "p99".into(),
                    Value::u64(bucket_lower_ms(lat.percentile(99.0))),
                ),
                ("buckets".into(), latency_buckets_value(&lat)),
            ]),
        ),
        (
            "rolling".into(),
            Value::Obj(vec![
                ("window_s".into(), Value::u64(win.seconds)),
                ("cells".into(), Value::u64(win.cells)),
                ("requests".into(), Value::u64(win.requests)),
                ("cells_per_sec".into(), Value::f64(win.cells_per_sec())),
                ("p95_ms".into(), Value::u64(win.req_percentile_ms(95.0))),
                ("p99_ms".into(), Value::u64(win.req_percentile_ms(99.0))),
                (
                    "cell_p95_ms".into(),
                    Value::u64(win.cell_percentile_ms(95.0)),
                ),
            ]),
        ),
        ("requests".into(), Value::Arr(requests)),
        ("gauges".into(), inner.handler.gauges()),
        ("recent_logs".into(), Value::Arr(log::recent())),
        ("counters".into(), Value::Obj(counters)),
    ])
    .render();
    drop(m);
    http::write_response(out, 200, "application/json", body.as_bytes())
}

/// `GET /trace/<token>` — one request's recorded spans as a Chrome
/// trace-event JSON document (load in `about://tracing` or Perfetto).
/// Tokens with no retained spans — unknown, or aged out of the span
/// rings — get a typed `404`.
fn trace_export(token: &str, out: &mut TcpStream, inner: &Inner) -> io::Result<()> {
    let spans = inner.spans_for(token);
    if spans.is_empty() {
        let body = Value::Obj(vec![
            ("error".into(), Value::str("unknown-token")),
            ("token".into(), Value::str(token)),
        ])
        .render();
        return http::write_response(out, 404, "application/json", body.as_bytes());
    }
    let text = request_trace(&spans);
    http::write_response(out, 200, "application/json", text.as_bytes())
}

/// Writes one Prometheus metric family: `# HELP` / `# TYPE` header
/// plus the sample lines.
fn prom_family(out: &mut String, name: &str, kind: &str, help: &str, lines: &[String]) {
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
    for l in lines {
        out.push_str(l);
        out.push('\n');
    }
}

/// Renders a float the exposition format accepts (no exponent needed
/// at our magnitudes; integers stay integral).
fn prom_num(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v}")
    }
}

/// `GET /metrics` — the service's counters, gauges and the request
/// latency histogram in Prometheus text exposition format, every name
/// prefixed `ctcp_`. Counters come from the same [`Metrics`] snapshot
/// `/status` reads (the two scheduler-owned supervision counters are
/// patched in from the handler, as in `/status`); gauges add the
/// handler's backend numbers (journal size, per-shard store entries)
/// and the rolling one-minute series.
fn metrics_export(out: &mut TcpStream, inner: &Inner) -> io::Result<()> {
    let hs = inner.handler.stats();
    let in_flight = inner.in_flight.load(Ordering::SeqCst) as u64;
    let utilization = if hs.workers == 0 {
        0.0
    } else {
        hs.running_cells as f64 / hs.workers as f64
    };
    let lat = relock(&inner.latency).clone();
    let lat_sum_ms = inner.latency_sum_ms.load(Ordering::Relaxed);
    let win = relock(&inner.series).window(inner.now_sec(), 60);
    let snapshot = relock(&inner.metrics).clone();

    let mut text = String::new();
    for c in Counter::ALL {
        // The supervision counters are owned by the handler's
        // scheduler; the service-side slots for them are always zero.
        let v = match c {
            Counter::ServeWorkerRespawns => hs.respawns,
            Counter::ServeCellsPoisoned => hs.poisoned,
            _ => snapshot.get(c),
        };
        let name = format!("ctcp_{}_total", c.name());
        prom_family(
            &mut text,
            &name,
            "counter",
            &format!("Cumulative {} count.", c.name()),
            &[format!("{name} {v}")],
        );
    }

    let gauges: Vec<(&str, &str, f64)> = vec![
        (
            "ctcp_workers",
            "Resident pool worker threads.",
            hs.workers as f64,
        ),
        (
            "ctcp_queue_depth",
            "Cells queued, not yet running.",
            hs.queued_cells as f64,
        ),
        (
            "ctcp_running_cells",
            "Cells executing right now.",
            hs.running_cells as f64,
        ),
        (
            "ctcp_in_flight_requests",
            "Batch requests currently being handled.",
            in_flight as f64,
        ),
        (
            "ctcp_worker_utilization",
            "Running cells over pool size.",
            utilization,
        ),
        (
            "ctcp_store_read_only",
            "1 while the result store is degraded to read-only.",
            f64::from(u8::from(hs.read_only)),
        ),
        (
            "ctcp_cells_per_sec_1m",
            "Cell completions per second over the last minute.",
            win.cells_per_sec(),
        ),
        (
            "ctcp_requests_1m",
            "Requests completed in the last minute.",
            win.requests as f64,
        ),
        (
            "ctcp_request_p95_ms_1m",
            "Request latency p95 over the last minute (bucket lower bound).",
            win.req_percentile_ms(95.0) as f64,
        ),
        (
            "ctcp_cell_p95_ms_1m",
            "Cell latency p95 over the last minute (bucket lower bound).",
            win.cell_percentile_ms(95.0) as f64,
        ),
    ];
    for (name, help, v) in gauges {
        prom_family(
            &mut text,
            name,
            "gauge",
            help,
            &[format!("{name} {}", prom_num(v))],
        );
    }

    // Backend gauges the handler owns: journal size/compactions,
    // per-shard store entries. Arrays become one labelled sample per
    // element.
    if let Value::Obj(fields) = inner.handler.gauges() {
        for (key, val) in &fields {
            let name = format!("ctcp_{key}");
            match val {
                Value::Arr(items) => {
                    let lines: Vec<String> = items
                        .iter()
                        .enumerate()
                        .filter_map(|(i, v)| {
                            v.as_f64()
                                .map(|f| format!("{name}{{shard=\"{i}\"}} {}", prom_num(f)))
                        })
                        .collect();
                    prom_family(
                        &mut text,
                        &name,
                        "gauge",
                        &format!("Backend gauge {key}."),
                        &lines,
                    );
                }
                v => {
                    if let Some(f) = v.as_f64() {
                        prom_family(
                            &mut text,
                            &name,
                            "gauge",
                            &format!("Backend gauge {key}."),
                            &[format!("{name} {}", prom_num(f))],
                        );
                    }
                }
            }
        }
    }

    // The request latency histogram with explicit, cumulative bucket
    // upper bounds — `le` for log2 bucket i is `2^(i+1) - 2` ms.
    let mut lines = Vec::with_capacity(HIST_BUCKETS + 2);
    let mut cum = 0u64;
    for (i, &c) in lat.counts.iter().enumerate() {
        cum += c;
        let le = bucket_upper_ms(i as u64);
        if le == u64::MAX {
            lines.push(format!(
                "ctcp_request_latency_ms_bucket{{le=\"+Inf\"}} {cum}"
            ));
        } else {
            lines.push(format!(
                "ctcp_request_latency_ms_bucket{{le=\"{le}\"}} {cum}"
            ));
        }
    }
    lines.push(format!("ctcp_request_latency_ms_sum {lat_sum_ms}"));
    lines.push(format!("ctcp_request_latency_ms_count {}", lat.total));
    prom_family(
        &mut text,
        "ctcp_request_latency_ms",
        "histogram",
        "Completed-batch wall latency in milliseconds.",
        &lines,
    );

    http::write_response(out, 200, "text/plain; version=0.0.4", text.as_bytes())
}

fn shutdown(out: &mut TcpStream, inner: &Inner) -> io::Result<()> {
    http::write_response(out, 200, "application/json", b"{\"draining\":true}")?;
    inner.draining.store(true, Ordering::Release);
    // The accept loop is blocked in accept(); poke it awake so it can
    // observe the flag and begin the drain.
    let _ = TcpStream::connect(inner.addr);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// A handler that "runs" a two-cell batch instantly, echoing the
    /// request back and reporting one cache hit per prior run of the
    /// same body — enough to exercise streaming, concurrency and
    /// drain.
    struct MockHandler {
        seen: Mutex<Vec<String>>,
        quiesced: Arc<AtomicBool>,
    }

    impl MockHandler {
        fn new() -> (MockHandler, Arc<AtomicBool>) {
            let quiesced = Arc::new(AtomicBool::new(false));
            (
                MockHandler {
                    seen: Mutex::new(Vec::new()),
                    quiesced: Arc::clone(&quiesced),
                },
                quiesced,
            )
        }
    }

    impl Handler for MockHandler {
        fn run(
            &self,
            kind: RequestKind,
            body: &Value,
            _token: &str,
            progress: &mut dyn FnMut(&Value) -> bool,
        ) -> Result<RunResult, HandlerError> {
            let rendered = body.render();
            let hits = {
                let mut seen = self.seen.lock().unwrap();
                let hits = seen.iter().filter(|b| **b == rendered).count() as u64;
                seen.push(rendered.clone());
                hits
            };
            for done in 1..=2u64 {
                progress(&Value::Obj(vec![
                    ("event".into(), Value::str("progress")),
                    ("done".into(), Value::u64(done)),
                    ("total".into(), Value::u64(2)),
                ]));
            }
            Ok(RunResult {
                output: format!("{kind:?}: {rendered}"),
                exit_code: 0,
                cache_hits: hits * 2,
                simulated: 2 - hits.min(2),
                cancelled: 0,
            })
        }

        fn stats(&self) -> HandlerStats {
            HandlerStats {
                workers: 2,
                ..HandlerStats::default()
            }
        }

        fn quiesce(&self) {
            self.quiesced.store(true, Ordering::SeqCst);
        }
    }

    fn start_service() -> (
        String,
        std::thread::JoinHandle<ServiceSummary>,
        Arc<AtomicBool>,
    ) {
        let (handler, quiesced) = MockHandler::new();
        let svc = Service::bind("127.0.0.1:0", Box::new(handler)).expect("bind ephemeral port");
        let addr = svc.local_addr().to_string();
        let worker = std::thread::spawn(move || svc.run().expect("service run"));
        (addr, worker, quiesced)
    }

    fn parse_events(body: &[u8]) -> Vec<Value> {
        std::str::from_utf8(body)
            .unwrap()
            .lines()
            .map(|l| Value::parse(l).expect("each line is JSON"))
            .collect()
    }

    #[test]
    fn sweep_streams_handshake_progress_then_result() {
        let _g = crate::testutil::fail_points_held();
        let (addr, worker, quiesced) = start_service();
        let mut chunks = 0usize;
        let resp = http::request(&addr, "POST", "/sweep", b"{\"grid\":1}", &mut |_| {
            chunks += 1
        })
        .unwrap();
        assert_eq!(resp.status, 200);
        assert!(chunks >= 4, "handshake + 2 progress + 1 result");
        let events = parse_events(&resp.body);
        assert_eq!(events.len(), 4);
        assert_eq!(events[0].get("event").unwrap().as_str(), Some("accepted"));
        assert_eq!(
            events[0].get("token").unwrap().as_str(),
            Some(resume_token(RequestKind::Sweep, "{\"grid\":1}").as_str())
        );
        assert_eq!(events[0].get("run").unwrap().as_u64(), Some(run_id()));
        assert_eq!(events[1].get("event").unwrap().as_str(), Some("progress"));
        let result = &events[3];
        assert_eq!(result.get("event").unwrap().as_str(), Some("result"));
        assert_eq!(result.get("exit_code").unwrap().as_u64(), Some(0));
        assert_eq!(
            result.get("output").unwrap().as_str(),
            Some("Sweep: {\"grid\":1}")
        );

        // Same body again after the first finished: the batch re-runs
        // (finished entries don't capture duplicates), the handler
        // reports its cells as cache hits and the service accounts
        // them.
        let resp = http::request(&addr, "POST", "/sweep", b"{\"grid\":1}", &mut |_| {}).unwrap();
        let events = parse_events(&resp.body);
        assert_eq!(events[3].get("cache_hits").unwrap().as_u64(), Some(2));

        let resp = http::request(&addr, "POST", "/shutdown", b"", &mut |_| {}).unwrap();
        assert_eq!(resp.status, 200);
        let summary = worker.join().unwrap();
        assert_eq!(summary.requests, 3);
        assert_eq!(summary.cache_hits, 2);
        assert_eq!(summary.rejected, 0);
        assert!(quiesced.load(Ordering::SeqCst), "drain quiesces the pool");
    }

    #[test]
    fn status_reports_pool_latency_and_unknown_routes_404() {
        let _g = crate::testutil::fail_points_held();
        let (addr, worker, _q) = start_service();
        let resp = http::request(&addr, "POST", "/analyze", b"{}", &mut |_| {}).unwrap();
        assert_eq!(resp.status, 200);
        let resp = http::request(&addr, "GET", "/status", b"", &mut |_| {}).unwrap();
        assert_eq!(resp.status, 200);
        let v = Value::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        assert_eq!(v.get("status").unwrap().as_str(), Some("ok"));
        assert_eq!(v.get("in_flight").unwrap().as_u64(), Some(0));
        assert_eq!(v.get("workers").unwrap().as_u64(), Some(2));
        assert_eq!(v.get("queued_cells").unwrap().as_u64(), Some(0));
        assert!(matches!(v.get("store_read_only"), Some(Value::Bool(false))));
        let lat = v.get("latency_ms").unwrap();
        assert_eq!(lat.get("samples").unwrap().as_u64(), Some(1));
        assert!(lat.get("p50").unwrap().as_u64().is_some());
        let counters = v.get("counters").unwrap();
        assert_eq!(
            counters.get("serve_requests").unwrap().as_u64(),
            Some(2),
            "the status request itself is counted"
        );
        assert_eq!(counters.get("serve_rejected").unwrap().as_u64(), Some(0));
        assert_eq!(
            counters.get("serve_journal_replayed").unwrap().as_u64(),
            Some(0)
        );
        assert_eq!(
            counters.get("serve_resumed_streams").unwrap().as_u64(),
            Some(0)
        );
        assert_eq!(
            counters.get("serve_worker_respawns").unwrap().as_u64(),
            Some(0)
        );
        assert_eq!(
            counters.get("serve_cells_poisoned").unwrap().as_u64(),
            Some(0)
        );
        let resp = http::request(&addr, "GET", "/nope", b"", &mut |_| {}).unwrap();
        assert_eq!(resp.status, 404);
        let resp = http::request(&addr, "POST", "/sweep", b"not json", &mut |_| {}).unwrap();
        assert_eq!(resp.status, 400);
        http::request(&addr, "POST", "/shutdown", b"", &mut |_| {}).unwrap();
        worker.join().unwrap();
    }

    #[test]
    fn shutdown_drains_and_stops_accepting() {
        let _g = crate::testutil::fail_points_held();
        let (addr, worker, quiesced) = start_service();
        let resp = http::request(&addr, "POST", "/shutdown", b"", &mut |_| {}).unwrap();
        assert_eq!(resp.status, 200);
        let summary = worker.join().unwrap();
        assert_eq!(summary.requests, 1);
        assert!(quiesced.load(Ordering::SeqCst));
        // The listener is gone: a fresh connection is refused (or at
        // best connects to nothing and sees EOF/reset).
        assert!(http::request(&addr, "GET", "/status", b"", &mut |_| {}).is_err());
    }

    /// A handler whose `run` blocks until `n` requests are inside it
    /// simultaneously — proof the service stopped serialising batches.
    struct RendezvousHandler {
        inside: Mutex<usize>,
        all_in: Condvar,
        n: usize,
    }

    impl Handler for RendezvousHandler {
        fn run(
            &self,
            _kind: RequestKind,
            _body: &Value,
            _token: &str,
            _progress: &mut dyn FnMut(&Value) -> bool,
        ) -> Result<RunResult, HandlerError> {
            let mut inside = self.inside.lock().unwrap();
            *inside += 1;
            if *inside >= self.n {
                self.all_in.notify_all();
            }
            while *inside < self.n {
                let (guard, timeout) = self
                    .all_in
                    .wait_timeout(inside, Duration::from_secs(10))
                    .unwrap();
                inside = guard;
                assert!(
                    !timeout.timed_out(),
                    "batches serialised: peers never arrived"
                );
            }
            drop(inside);
            Ok(RunResult {
                output: "met".into(),
                exit_code: 0,
                cache_hits: 0,
                simulated: 1,
                cancelled: 0,
            })
        }
    }

    #[test]
    fn overlapping_batches_run_concurrently() {
        let _g = crate::testutil::fail_points_held();
        let svc = Service::bind(
            "127.0.0.1:0",
            Box::new(RendezvousHandler {
                inside: Mutex::new(0),
                all_in: Condvar::new(),
                n: 3,
            }),
        )
        .unwrap();
        let addr = svc.local_addr().to_string();
        let worker = std::thread::spawn(move || svc.run().expect("service run"));
        // Identical bodies would attach to one run now, so each client
        // asks a distinct question.
        let clients: Vec<_> = (0..3)
            .map(|i| {
                let addr = addr.clone();
                std::thread::spawn(move || {
                    let body = format!("{{\"grid\":{i}}}");
                    http::request(&addr, "POST", "/sweep", body.as_bytes(), &mut |_| {}).unwrap()
                })
            })
            .collect();
        for c in clients {
            let resp = c.join().unwrap();
            assert_eq!(resp.status, 200);
            let events = parse_events(&resp.body);
            assert_eq!(
                events.last().unwrap().get("output").unwrap().as_str(),
                Some("met")
            );
        }
        http::request(&addr, "POST", "/shutdown", b"", &mut |_| {}).unwrap();
        let summary = worker.join().unwrap();
        // All three batches overlapped, so at least two of them saw
        // another batch already in flight when they were admitted.
        assert!(summary.queued >= 2, "queued = {}", summary.queued);
    }

    /// A handler that always refuses: the wire side of admission.
    struct RefusingHandler(HandlerError);

    impl Handler for RefusingHandler {
        fn run(
            &self,
            _kind: RequestKind,
            _body: &Value,
            _token: &str,
            _progress: &mut dyn FnMut(&Value) -> bool,
        ) -> Result<RunResult, HandlerError> {
            Err(self.0)
        }
    }

    #[test]
    fn saturated_batches_get_a_typed_503_with_retry_after() {
        let _g = crate::testutil::fail_points_held();
        let svc = Service::bind(
            "127.0.0.1:0",
            Box::new(RefusingHandler(HandlerError::Saturated {
                queued: 7,
                wanted: 3,
                limit: 8,
            })),
        )
        .unwrap();
        let addr = svc.local_addr().to_string();
        let worker = std::thread::spawn(move || svc.run().expect("service run"));
        let resp = http::request(&addr, "POST", "/sweep", b"{}", &mut |_| {}).unwrap();
        assert_eq!(resp.status, 503);
        assert_eq!(resp.header("retry-after"), Some("1"));
        let v = Value::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        assert_eq!(v.get("error").unwrap().as_str(), Some("saturated"));
        assert_eq!(v.get("queued").unwrap().as_u64(), Some(7));
        assert_eq!(v.get("wanted").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("limit").unwrap().as_u64(), Some(8));
        // The refusal is visible both live and in the drain summary.
        let resp = http::request(&addr, "GET", "/status", b"", &mut |_| {}).unwrap();
        let v = Value::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        assert_eq!(
            v.get("counters")
                .unwrap()
                .get("serve_rejected")
                .unwrap()
                .as_u64(),
            Some(1)
        );
        http::request(&addr, "POST", "/shutdown", b"", &mut |_| {}).unwrap();
        let summary = worker.join().unwrap();
        assert_eq!(summary.rejected, 1);
    }

    #[test]
    fn degraded_store_gets_a_503_with_its_retry_hint() {
        let _g = crate::testutil::fail_points_held();
        let svc = Service::bind(
            "127.0.0.1:0",
            Box::new(RefusingHandler(HandlerError::Unavailable {
                retry_after_secs: 2,
            })),
        )
        .unwrap();
        let addr = svc.local_addr().to_string();
        let worker = std::thread::spawn(move || svc.run().expect("service run"));
        let resp = http::request(&addr, "POST", "/sweep", b"{}", &mut |_| {}).unwrap();
        assert_eq!(resp.status, 503);
        assert_eq!(resp.header("retry-after"), Some("2"));
        let v = Value::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        assert_eq!(v.get("error").unwrap().as_str(), Some("unavailable"));
        assert!(v
            .get("message")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("read-only"));
        http::request(&addr, "POST", "/shutdown", b"", &mut |_| {}).unwrap();
        let summary = worker.join().unwrap();
        assert_eq!(summary.rejected, 1);
    }

    /// A handler that emits `total` events with a small delay — long
    /// enough for a client to vanish mid-stream and resume.
    struct TalkativeHandler {
        total: u64,
    }

    impl Handler for TalkativeHandler {
        fn run(
            &self,
            _kind: RequestKind,
            _body: &Value,
            _token: &str,
            progress: &mut dyn FnMut(&Value) -> bool,
        ) -> Result<RunResult, HandlerError> {
            for done in 1..=self.total {
                progress(&Value::Obj(vec![
                    ("event".into(), Value::str("progress")),
                    ("done".into(), Value::u64(done)),
                    ("total".into(), Value::u64(self.total)),
                ]));
                std::thread::sleep(Duration::from_millis(5));
            }
            Ok(RunResult {
                output: "complete".into(),
                exit_code: 0,
                cache_hits: 0,
                simulated: self.total,
                cancelled: 0,
            })
        }
    }

    #[test]
    fn disconnect_detaches_and_resume_replays_the_full_stream() {
        let _g = crate::testutil::fail_points_held();
        use std::io::Write;
        let svc = Service::bind("127.0.0.1:0", Box::new(TalkativeHandler { total: 10 })).unwrap();
        let addr = svc.local_addr().to_string();
        let worker = std::thread::spawn(move || svc.run().expect("service run"));
        {
            // Raw client: send the request, then vanish mid-stream.
            let mut s = TcpStream::connect(&addr).unwrap();
            write!(
                s,
                "POST /sweep HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\n\r\n{{}}"
            )
            .unwrap();
            s.flush().unwrap();
            std::thread::sleep(Duration::from_millis(15));
        } // drop = RST/FIN while the handler is still emitting

        // The batch keeps running server-side (detach, not cancel); a
        // resume with the right token replays everything — including
        // the result the disconnected client never saw. `run: 0` can
        // never match a live incarnation, so `have` is ignored.
        let token = resume_token(RequestKind::Sweep, "{}");
        let resume = format!("{{\"token\":\"{token}\",\"have\":3,\"run\":0}}");
        let resp = http::request(&addr, "POST", "/resume", resume.as_bytes(), &mut |_| {}).unwrap();
        assert_eq!(resp.status, 200);
        let events = parse_events(&resp.body);
        assert_eq!(events[0].get("event").unwrap().as_str(), Some("accepted"));
        let result = events.last().unwrap();
        assert_eq!(result.get("event").unwrap().as_str(), Some("result"));
        assert_eq!(result.get("output").unwrap().as_str(), Some("complete"));
        assert_eq!(result.get("simulated").unwrap().as_u64(), Some(10));
        assert_eq!(
            events.len(),
            12,
            "handshake + all 10 progress + result, nothing skipped"
        );

        // A matching run id honours `have`: only the tail is re-sent.
        let resume = format!("{{\"token\":\"{token}\",\"have\":8,\"run\":{}}}", run_id());
        let resp = http::request(&addr, "POST", "/resume", resume.as_bytes(), &mut |_| {}).unwrap();
        let events = parse_events(&resp.body);
        assert_eq!(events.len(), 4, "handshake + progress 9, 10 + result");

        // Unknown tokens are a typed 404.
        let resp = http::request(
            &addr,
            "POST",
            "/resume",
            b"{\"token\":\"ffffffffffffffff\",\"have\":0,\"run\":0}",
            &mut |_| {},
        )
        .unwrap();
        assert_eq!(resp.status, 404);
        let v = Value::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        assert_eq!(v.get("error").unwrap().as_str(), Some("unknown-token"));

        http::request(&addr, "POST", "/shutdown", b"", &mut |_| {}).unwrap();
        let summary = worker.join().unwrap();
        assert_eq!(summary.resumed_streams, 2);
        assert_eq!(summary.cancelled_cells, 0, "detach is not cancellation");
    }

    #[test]
    fn identical_live_posts_attach_to_one_run() {
        let _g = crate::testutil::fail_points_held();
        let svc = Service::bind("127.0.0.1:0", Box::new(TalkativeHandler { total: 30 })).unwrap();
        let addr = svc.local_addr().to_string();
        let worker = std::thread::spawn(move || svc.run().expect("service run"));
        let owner = {
            let addr = addr.clone();
            std::thread::spawn(move || {
                http::request(&addr, "POST", "/sweep", b"{\"grid\":9}", &mut |_| {}).unwrap()
            })
        };
        std::thread::sleep(Duration::from_millis(30));
        // Same wire body while the first is still running: one batch,
        // two streams.
        let twin = http::request(&addr, "POST", "/sweep", b"{\"grid\":9}", &mut |_| {}).unwrap();
        let first = owner.join().unwrap();
        for resp in [&first, &twin] {
            let events = parse_events(&resp.body);
            let result = events.last().unwrap();
            assert_eq!(result.get("event").unwrap().as_str(), Some("result"));
            assert_eq!(result.get("simulated").unwrap().as_u64(), Some(30));
        }
        http::request(&addr, "POST", "/shutdown", b"", &mut |_| {}).unwrap();
        let summary = worker.join().unwrap();
        assert_eq!(summary.resumed_streams, 1, "the twin attached");
        assert_eq!(summary.queued, 0, "only one batch actually ran");
    }

    #[test]
    fn replay_runs_headless_and_resolves_the_token() {
        let _g = crate::testutil::fail_points_held();
        let (handler, _q) = MockHandler::new();
        let svc = Service::bind("127.0.0.1:0", Box::new(handler)).unwrap();
        assert!(svc.replay(RequestKind::Sweep, "{\"grid\":7}"));
        assert!(
            !svc.replay(RequestKind::Sweep, "{\"grid\":7}"),
            "a token replays once"
        );
        assert!(!svc.replay(RequestKind::Sweep, "not json"));
        let addr = svc.local_addr().to_string();
        let worker = std::thread::spawn(move || svc.run().expect("service run"));
        let token = resume_token(RequestKind::Sweep, "{\"grid\":7}");
        let resume = format!("{{\"token\":\"{token}\",\"have\":0,\"run\":0}}");
        let resp = http::request(&addr, "POST", "/resume", resume.as_bytes(), &mut |_| {}).unwrap();
        assert_eq!(resp.status, 200);
        let events = parse_events(&resp.body);
        let result = events.last().unwrap();
        assert_eq!(result.get("event").unwrap().as_str(), Some("result"));
        assert_eq!(
            result.get("output").unwrap().as_str(),
            Some("Sweep: {\"grid\":7}")
        );
        http::request(&addr, "POST", "/shutdown", b"", &mut |_| {}).unwrap();
        let summary = worker.join().unwrap();
        assert_eq!(summary.journal_replayed, 1);
        assert_eq!(summary.resumed_streams, 1);
    }

    /// Minimal Prometheus text-exposition parser for the round-trip
    /// test: `name{labels} value` / `name value` samples keyed by the
    /// full series name (labels included), comments and TYPE/HELP
    /// headers collected separately.
    fn parse_prom(text: &str) -> (Vec<(String, f64)>, Vec<String>) {
        let mut samples = Vec::new();
        let mut typed = Vec::new();
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                typed.push(rest.to_string());
                continue;
            }
            if line.starts_with('#') || line.trim().is_empty() {
                continue;
            }
            let (series, value) = line.rsplit_once(' ').expect("sample has a value");
            let v: f64 = value.parse().expect("numeric sample value");
            if let Some(brace) = series.find('{') {
                assert!(series.ends_with('}'), "label set closes: {series}");
                let name = &series[..brace];
                assert!(
                    name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
                    "metric name is [a-zA-Z0-9_]: {name}"
                );
            } else {
                assert!(
                    series
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || c == '_'),
                    "metric name is [a-zA-Z0-9_]: {series}"
                );
            }
            samples.push((series.to_string(), v));
        }
        (samples, typed)
    }

    fn prom_get(samples: &[(String, f64)], name: &str) -> f64 {
        samples
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("missing sample {name}"))
            .1
    }

    #[test]
    fn metrics_exposition_parses_matches_status_and_stays_monotone() {
        let _g = crate::testutil::fail_points_held();
        let (addr, worker, _q) = start_service();
        http::request(&addr, "POST", "/sweep", b"{\"grid\":5}", &mut |_| {}).unwrap();
        let scrape = |addr: &str| {
            let resp = http::request(addr, "GET", "/metrics", b"", &mut |_| {}).unwrap();
            assert_eq!(resp.status, 200);
            assert!(resp
                .header("content-type")
                .is_some_and(|ct| ct.starts_with("text/plain")));
            String::from_utf8(resp.body).unwrap()
        };
        let first = scrape(&addr);
        let (samples, typed) = parse_prom(&first);
        // Every declared family has at least one sample, and the
        // histogram is declared as one.
        assert!(typed
            .iter()
            .any(|t| t == "ctcp_request_latency_ms histogram"));
        assert!(typed
            .iter()
            .any(|t| t == "ctcp_serve_requests_total counter"));
        assert!(typed.iter().any(|t| t == "ctcp_workers gauge"));

        // Counters agree with /status (modulo the /status request
        // itself, so compare against a snapshot taken right after).
        let resp = http::request(&addr, "GET", "/status", b"", &mut |_| {}).unwrap();
        let v = Value::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        let status_requests = v
            .get("counters")
            .unwrap()
            .get("serve_requests")
            .unwrap()
            .as_u64()
            .unwrap();
        let prom_requests = prom_get(&samples, "ctcp_serve_requests_total") as u64;
        // /metrics saw: sweep + itself. /status saw those plus itself.
        assert_eq!(prom_requests + 1, status_requests);
        assert_eq!(prom_get(&samples, "ctcp_workers"), 2.0);
        assert_eq!(prom_get(&samples, "ctcp_store_read_only"), 0.0);

        // Histogram invariants: cumulative buckets end at +Inf == _count,
        // explicit finite le bounds are strictly increasing.
        let mut les: Vec<(f64, f64)> = Vec::new();
        let mut inf = None;
        for (name, v) in &samples {
            if let Some(rest) = name.strip_prefix("ctcp_request_latency_ms_bucket{le=\"") {
                let le = rest.trim_end_matches("\"}");
                if le == "+Inf" {
                    inf = Some(*v);
                } else {
                    les.push((le.parse::<f64>().unwrap(), *v));
                }
            }
        }
        let count = prom_get(&samples, "ctcp_request_latency_ms_count");
        assert_eq!(count, 1.0, "one completed batch observed");
        assert_eq!(inf, Some(count), "+Inf bucket equals _count");
        for w in les.windows(2) {
            assert!(w[0].0 < w[1].0, "le bounds increase");
            assert!(w[0].1 <= w[1].1, "bucket counts are cumulative");
        }
        // The same explicit bounds show up in /status's latency_ms.
        let buckets = v.get("latency_ms").unwrap().get("buckets").unwrap();
        match buckets {
            Value::Arr(items) => {
                assert!(!items.is_empty(), "one observed sample => one bucket");
                for b in items {
                    assert!(b.get("le").is_some() && b.get("count").is_some());
                }
            }
            other => panic!("buckets is an array, got {other:?}"),
        }

        // A second scrape after more work: counters only go up.
        http::request(&addr, "POST", "/sweep", b"{\"grid\":6}", &mut |_| {}).unwrap();
        let (second, _) = parse_prom(&scrape(&addr));
        for (name, v) in &samples {
            if name.ends_with("_total") || name.contains("_bucket{") || name.ends_with("_count") {
                let after = prom_get(&second, name);
                assert!(after >= *v, "{name} went backwards: {v} -> {after}");
            }
        }
        assert!(
            prom_get(&second, "ctcp_serve_requests_total") > prom_requests as f64,
            "request counter advanced"
        );

        http::request(&addr, "POST", "/shutdown", b"", &mut |_| {}).unwrap();
        worker.join().unwrap();
    }

    /// Splits a Chrome trace document (a bare event array, the format
    /// `validate_chrome_trace` checks) into its complete (`X`) events
    /// and checks per-lane monotonicity: within one `tid`, spans never
    /// overlap.
    fn lanes_of(trace: &Value) -> Vec<(u64, Vec<Value>)> {
        let events = trace.as_arr().expect("trace root is an array").to_vec();
        let mut lanes: Vec<(u64, Vec<Value>)> = Vec::new();
        for ev in events {
            if ev.get("ph").and_then(Value::as_str) != Some("X") {
                continue;
            }
            let tid = ev.get("tid").unwrap().as_u64().unwrap();
            match lanes.iter_mut().find(|(t, _)| *t == tid) {
                Some((_, v)) => v.push(ev),
                None => lanes.push((tid, vec![ev])),
            }
        }
        for (tid, spans) in &lanes {
            let mut end = 0u64;
            for sp in spans {
                let ts = sp.get("ts").unwrap().as_u64().unwrap();
                let dur = sp.get("dur").unwrap().as_u64().unwrap();
                assert!(ts >= end, "lane {tid} overlaps: ts {ts} < end {end}");
                assert!(dur >= 1, "spans are visible");
                end = ts + dur;
            }
        }
        lanes
    }

    #[test]
    fn trace_export_has_one_admit_span_and_a_cell_span_per_progress() {
        let _g = crate::testutil::fail_points_held();
        let (addr, worker, _q) = start_service();
        http::request(&addr, "POST", "/sweep", b"{\"grid\":3}", &mut |_| {}).unwrap();
        let token = resume_token(RequestKind::Sweep, "{\"grid\":3}");
        let resp =
            http::request(&addr, "GET", &format!("/trace/{token}"), b"", &mut |_| {}).unwrap();
        assert_eq!(resp.status, 200);
        let text = std::str::from_utf8(&resp.body).unwrap();
        // The export is a loadable Chrome trace by the same validator
        // the simulator's own pipeline traces pass through.
        let summary = ctcp_telemetry::validate_chrome_trace(text).expect("valid chrome trace");
        assert!(summary.spans >= 4 && summary.lanes >= 3);
        let trace = Value::parse(text).unwrap();
        let lanes = lanes_of(&trace);
        let all: Vec<&Value> = lanes.iter().flat_map(|(_, v)| v).collect();
        let named = |n: &str| {
            all.iter()
                .filter(|e| e.get("name").and_then(Value::as_str) == Some(n))
                .count()
        };
        assert_eq!(named("admit"), 1, "exactly one admit span");
        assert_eq!(named("cell cell"), 2, "one span per progress event");
        assert_eq!(named("run sweep"), 1);
        assert_eq!(named("stream"), 1);
        // MockHandler events carry no worker id, so all cells land on
        // worker lane 0 — still a real lane distinct from service's.
        assert!(lanes.iter().any(|(tid, _)| *tid == LANE_SERVICE));
        assert!(lanes.iter().any(|(tid, _)| *tid == LANE_WORKERS));

        // Unknown tokens 404 with a typed body.
        let resp =
            http::request(&addr, "GET", "/trace/ffffffffffffffff", b"", &mut |_| {}).unwrap();
        assert_eq!(resp.status, 404);
        let v = Value::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        assert_eq!(v.get("error").unwrap().as_str(), Some("unknown-token"));

        http::request(&addr, "POST", "/shutdown", b"", &mut |_| {}).unwrap();
        worker.join().unwrap();
    }

    #[test]
    fn trace_survives_disconnect_and_counts_both_streams() {
        let _g = crate::testutil::fail_points_held();
        use std::io::Write;
        let svc = Service::bind("127.0.0.1:0", Box::new(TalkativeHandler { total: 6 })).unwrap();
        let addr = svc.local_addr().to_string();
        let worker = std::thread::spawn(move || svc.run().expect("service run"));
        {
            let mut s = TcpStream::connect(&addr).unwrap();
            write!(
                s,
                "POST /sweep HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\n\r\n{{}}"
            )
            .unwrap();
            s.flush().unwrap();
            std::thread::sleep(Duration::from_millis(12));
        } // client vanishes mid-stream; the batch keeps running

        let token = resume_token(RequestKind::Sweep, "{}");
        let resume = format!("{{\"token\":\"{token}\",\"have\":0,\"run\":0}}");
        let resp = http::request(&addr, "POST", "/resume", resume.as_bytes(), &mut |_| {}).unwrap();
        assert_eq!(resp.status, 200);

        let resp =
            http::request(&addr, "GET", &format!("/trace/{token}"), b"", &mut |_| {}).unwrap();
        assert_eq!(resp.status, 200);
        let trace = Value::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        let lanes = lanes_of(&trace);
        let all: Vec<&Value> = lanes.iter().flat_map(|(_, v)| v).collect();
        let named = |n: &str| {
            all.iter()
                .filter(|e| e.get("name").and_then(Value::as_str) == Some(n))
                .count()
        };
        assert_eq!(named("admit"), 1, "disconnect does not re-admit");
        assert_eq!(named("cell cell"), 6, "every cell kept its span");
        assert_eq!(
            named("stream"),
            2,
            "both delivery attempts traced: the aborted partial and the resumed replay"
        );
        assert!(
            lanes.iter().any(|(tid, _)| *tid == LANE_STREAM),
            "stream spans live on their own lane"
        );

        http::request(&addr, "POST", "/shutdown", b"", &mut |_| {}).unwrap();
        worker.join().unwrap();
    }

    /// One cell, reported as having taken 250ms — far over the 1ms
    /// override threshold.
    struct SlowCellHandler;

    impl Handler for SlowCellHandler {
        fn run(
            &self,
            _kind: RequestKind,
            _body: &Value,
            _token: &str,
            progress: &mut dyn FnMut(&Value) -> bool,
        ) -> Result<RunResult, HandlerError> {
            progress(&Value::Obj(vec![
                ("event".into(), Value::str("progress")),
                ("done".into(), Value::u64(1)),
                ("total".into(), Value::u64(1)),
                ("workload".into(), Value::str("slowpoke-gzip")),
                ("took_s".into(), Value::f64(0.25)),
                ("worker".into(), Value::u64(1)),
            ]));
            Ok(RunResult {
                output: "done".into(),
                exit_code: 0,
                cache_hits: 0,
                simulated: 1,
                cancelled: 0,
            })
        }
    }

    #[test]
    fn slow_cells_trip_the_warn_log_under_the_threshold_override() {
        let _g = crate::testutil::fail_points_held();
        // The env override is read once, at bind; scoped tightly so
        // concurrently-binding tests are unaffected (their cells all
        // report 0ms, which no threshold flags).
        std::env::set_var("CTCP_SLOW_CELL_MS", "1");
        let svc = Service::bind("127.0.0.1:0", Box::new(SlowCellHandler)).unwrap();
        std::env::remove_var("CTCP_SLOW_CELL_MS");
        let addr = svc.local_addr().to_string();
        let worker = std::thread::spawn(move || svc.run().expect("service run"));
        let resp = http::request(&addr, "POST", "/sweep", b"{}", &mut |_| {}).unwrap();
        assert_eq!(resp.status, 200);
        let slow = log::recent()
            .into_iter()
            .find(|r| r.get("msg").and_then(Value::as_str) == Some("slow cell"))
            .expect("a 'slow cell' warn record");
        assert_eq!(
            slow.get("workload").and_then(Value::as_str),
            Some("slowpoke-gzip")
        );
        assert_eq!(slow.get("took_ms").and_then(Value::as_u64), Some(250));
        assert_eq!(slow.get("threshold_ms").and_then(Value::as_u64), Some(1));
        assert_eq!(slow.get("worker").and_then(Value::as_u64), Some(1));
        // The offending cell's span still landed on its worker's lane.
        let token = resume_token(RequestKind::Sweep, "{}");
        let resp =
            http::request(&addr, "GET", &format!("/trace/{token}"), b"", &mut |_| {}).unwrap();
        assert_eq!(resp.status, 200);
        let trace = Value::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        assert!(lanes_of(&trace)
            .iter()
            .any(|(tid, spans)| *tid == LANE_WORKERS + 1 && !spans.is_empty()));
        http::request(&addr, "POST", "/shutdown", b"", &mut |_| {}).unwrap();
        worker.join().unwrap();
    }

    #[test]
    fn accept_storm_fail_point_drops_then_serves() {
        let _g = crate::testutil::fail_points_held();
        failpoint::set(Some("serve-accept-storm=2"));
        let (addr, worker, _q) = start_service();
        // The first two connections are dropped on the floor; a
        // persistent client's later attempt lands.
        let mut failures = 0;
        let resp = loop {
            match http::request(&addr, "GET", "/status", b"", &mut |_| {}) {
                Ok(resp) => break resp,
                Err(_) => {
                    failures += 1;
                    assert!(failures <= 10, "storm never cleared");
                }
            }
        };
        assert_eq!(resp.status, 200);
        assert!(failures >= 1, "the storm dropped at least one attempt");
        failpoint::set(None);
        http::request(&addr, "POST", "/shutdown", b"", &mut |_| {}).unwrap();
        worker.join().unwrap();
    }
}
