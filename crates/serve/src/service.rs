//! The resident sweep service: accept loop, request routing, admission
//! control, the live-request registry, and graceful drain. The
//! numbers it reports about itself are declared in `exposition.rs`.
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
//! | `GET /status`     | in-flight work, pool utilization, latency, counters|
//! | `POST /shutdown`  | begins a graceful drain                            |
//!
//! Batches run *concurrently*: every admitted batch runs headless on a
//! thread of its own, and the handler is shared by reference (`&self`,
//! `Send + Sync`) rather than serialised behind a mutex. Interleaving
//! is the handler's business — the CLI handler feeds all requests into
//! one fair cell scheduler — while the service handles the wire side
//! of concurrency and of reconnects:
//!
//! * **admission**: a handler may refuse a batch before streaming
//!   anything ([`HandlerError::Saturated`] when the queue is over its
//!   bound, [`HandlerError::Unavailable`] while the result store is
//!   degraded to read-only); the service answers with a clean `503`, a
//!   typed JSON body, and a `Retry-After` header so clients can tell
//!   "try later" from a failed run.
//! * **one delivery path**: every running batch is keyed by a *resume
//!   token* — a hash of the raw wire body ([`resume_token`]) — and
//!   records its full event stream into an in-memory registry entry.
//!   Every stream reads that entry from its first event: the admitting
//!   `POST`, and an identical `POST` that attaches while the batch runs
//!   (it is never run twice at once). The entry leaves the registry
//!   when its batch finishes, so an identical `POST` after that runs
//!   the batch again, answered from the result store. The first chunk
//!   of every stream is an `accepted` handshake carrying the token and
//!   the daemon's run id.
//! * **disconnects detach**: no client sits on the batch's thread, so a
//!   reader that stalls or leaves paces only its own stream — the
//!   batch finishes and every cell memoizes, so the client's re-`POST`
//!   finds the batch still running or its cells in the store.
//! * **drain**: `/shutdown` stops the accept loop, every connection
//!   thread and then every batch thread is joined, and then the
//!   handler is [quiesced](Handler::quiesce) so its worker pool runs
//!   every admitted cell to completion before the daemon exits.

use crate::exposition::{Registry, Slot, Snapshot, ROLLING_WINDOW_S};
use crate::http;
use crate::spans::{SpanKind, SpanRing};
use ctcp_telemetry::json::Value;
use ctcp_telemetry::{failpoint, log, request_trace, ProgressSink, SeriesRing, SERIES_SECONDS};
use std::collections::HashMap;
use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// What kind of batch a request asked for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestKind {
    /// A strategy × benchmark sweep (`POST /sweep`).
    Sweep,
    /// A per-strategy attribution analysis (`POST /analyze`).
    Analyze,
}

impl RequestKind {
    /// The wire name of this kind.
    pub fn as_str(self) -> &'static str {
        match self {
            RequestKind::Sweep => "sweep",
            RequestKind::Analyze => "analyze",
        }
    }
}

/// The resume token of a batch: FNV-1a 64 over the request kind and
/// the *raw* wire body. Identical request bytes — from the same client
/// re-posting after a cut, or a different client asking the same
/// question — map to the same token, which is what lets an identical
/// `POST` attach to the running batch instead of running it twice.
pub fn resume_token(kind: RequestKind, raw_body: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in kind.as_str().bytes().chain([b':']).chain(raw_body.bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// This daemon incarnation's id, sent in the `accepted` handshake. A
/// re-posting client compares it with the run its earlier stream
/// named: a mismatch means the daemon restarted in between, so the
/// client's event count is meaningless and it prints from the top.
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
    /// Worker threads respawned after a panic, cumulative.
    pub respawns: u64,
    /// Cells quarantined after repeated worker panics, cumulative.
    pub poisoned: u64,
    /// Warmup checkpoints the pool captured, cumulative.
    pub checkpoint_captures: u64,
    /// Warmed cells that found their checkpoint already captured,
    /// cumulative.
    pub checkpoint_hits: u64,
    /// Bytes of warmup checkpoints the pool holds now.
    pub checkpoint_bytes: u64,
    /// True while the result store is degraded to read-only.
    pub read_only: bool,
    /// Reports in the result store's index now.
    pub store_entries: u64,
}

/// The execution backend behind the service — implemented by the CLI
/// around the shared cell scheduler, mocked in tests.
///
/// `run` takes `&self` and the trait requires `Send + Sync`: the
/// service calls it from many batch threads at once, so
/// implementations own their interior synchronisation (the CLI handler
/// builds a fresh per-request harness around shared `Clone` handles).
pub trait Handler: Send + Sync {
    /// Runs the batch described by `body` (a parsed JSON object),
    /// reporting through `progress`: `batch_start` once its cells are
    /// handed to the workers that run them, then one timed
    /// `cell_done_on` per simulated cell, naming the pool worker that
    /// ran it.
    ///
    /// The sink is the service's own: each call updates the request's
    /// `/status` row, records its spans and appends the NDJSON line the
    /// request's streams deliver. No client sits on the batch's
    /// thread, so a call never blocks on a socket.
    /// A malformed body should come back as an `Ok` result with a
    /// non-zero `exit_code` and the parse error as `output`; `Err` is
    /// reserved for refusing to run at all.
    ///
    /// # Errors
    ///
    /// [`HandlerError::Saturated`] when admission control refuses the
    /// batch, [`HandlerError::Unavailable`] while the backend is
    /// degraded — both guaranteed to happen before any progress is
    /// reported.
    fn run(
        &self,
        kind: RequestKind,
        body: &Value,
        progress: &mut dyn ProgressSink,
    ) -> Result<RunResult, HandlerError>;

    /// A live snapshot of the execution backend for `/status` and
    /// `/metrics`.
    fn stats(&self) -> HandlerStats {
        HandlerStats::default()
    }

    /// Quiesces the backend at the end of a drain: stop admitting,
    /// run every already-admitted cell to completion, release workers.
    /// Called once, after all connection and batch threads have been
    /// joined.
    fn quiesce(&self) {}
}

/// One running batch's replayable state: every event line it has
/// emitted (progress and the final result), and whether it finished.
/// Readers — the admitting `POST` and identical `POST`s that attach
/// while it runs — stream the log and park on the condvar for more.
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
    /// Set, before the terminal `error` line, when the handler refused
    /// the batch; the admitting `POST` answers it with a `503`.
    refusal: Option<HandlerError>,
    /// Progress watermark for the `/status` request table: the total
    /// from `batch_start`, the count from each finished cell.
    cells_done: u64,
    cells_total: u64,
}

impl RequestEntry {
    fn new(kind: RequestKind) -> RequestEntry {
        RequestEntry {
            state: Mutex::new(EntryState {
                events: Vec::new(),
                done: false,
                refusal: None,
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

    /// Records the terminal `result` or `error` line and marks the
    /// entry done, waking its readers once.
    fn finish(&self, line: String) {
        let mut st = relock(&self.state);
        st.events.push(line);
        st.done = true;
        drop(st);
        self.grew.notify_all();
    }

    /// Blocks until there are events past index `from` (or the entry
    /// is done), then returns the locked state.
    fn settled(&self, from: usize) -> MutexGuard<'_, EntryState> {
        self.grew
            .wait_while(relock(&self.state), |st| {
                st.events.len() <= from && !st.done
            })
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Blocks until there are events past index `from` (or the entry
    /// is done), then returns them along with the done flag.
    fn wait_past(&self, from: usize) -> (Vec<String>, bool) {
        let st = self.settled(from);
        let at = from.min(st.events.len());
        (st.events[at..].to_vec(), st.done)
    }
}

struct Inner {
    handler: Box<dyn Handler>,
    metrics: Registry,
    /// The last two minutes at one-second resolution, for rolling
    /// rates and windowed percentiles in `/status` and `/metrics`.
    series: Mutex<SeriesRing>,
    /// Request-scoped spans, recorded by batch and connection threads
    /// only; `GET /trace/<token>` rebuilds one token's as a Chrome trace.
    spans: Mutex<SpanRing>,
    /// Time base for span timestamps and series slots.
    epoch: Instant,
    /// A fixed slow-cell log threshold; `None` = rolling p99 × 3. Unit
    /// tests set it.
    slow_cell_ms: Option<u64>,
    /// Every running batch, keyed by resume token. A batch's entry
    /// leaves under this lock as the batch settles (its terminal line
    /// recorded), so every entry here is live: an identical `POST`
    /// attaches to it, and one that comes later runs the batch again,
    /// answered from the store.
    registry: Mutex<HashMap<String, Arc<RequestEntry>>>,
    /// Unjoined batch threads; finished ones are reaped as batches
    /// start, and the drain joins the rest so no admitted batch is
    /// abandoned.
    batches: Mutex<Vec<std::thread::JoinHandle<()>>>,
    /// Set by `/shutdown`; the accept loop stops taking connections.
    draining: AtomicBool,
    addr: SocketAddr,
}

/// Mutex access that survives a poisoned lock: a panicking batch must
/// not wedge the whole daemon.
pub(crate) fn relock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
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

    /// Every registry row, read now.
    fn snapshot(&self) -> Snapshot {
        let window = relock(&self.series).window(self.now_sec(), ROLLING_WINDOW_S);
        self.metrics.snapshot(&self.handler.stats(), &window)
    }

    /// Records one request span under its correlation token.
    fn record_span(&self, token: &str, ts_us: u64, dur_us: u64, kind: SpanKind<&str>) {
        relock(&self.spans).push(token, ts_us, dur_us, kind);
    }

    /// The slow-cell threshold in ms: the fixed one if set, else
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

/// How long a socket read or write may wait on the client. A client
/// that connects and goes silent, or stops reading a streamed
/// response, is dropped after this long, so it can pin a connection
/// thread — and hold up a graceful drain, which joins that thread — no
/// longer.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// A bound, not-yet-running sweep service.
pub struct Service {
    listener: TcpListener,
    inner: Arc<Inner>,
    /// [`IO_TIMEOUT`]; unit tests shorten it.
    io_timeout: Duration,
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
                metrics: Registry::new(),
                series: Mutex::new(SeriesRing::new(SERIES_SECONDS)),
                spans: Mutex::new(SpanRing::new()),
                epoch: Instant::now(),
                slow_cell_ms: None,
                registry: Mutex::new(HashMap::new()),
                batches: Mutex::new(Vec::new()),
                draining: AtomicBool::new(false),
                addr,
            }),
            io_timeout: IO_TIMEOUT,
        })
    }

    /// The bound address — the actual port when bound to port 0.
    pub fn local_addr(&self) -> SocketAddr {
        self.inner.addr
    }

    /// Serves until a `/shutdown` request, then drains: the accept
    /// loop stops, every connection thread and then every batch thread
    /// is joined (their batches run to completion), the handler is
    /// quiesced, and the final snapshot of the metrics registry is
    /// returned.
    ///
    /// # Errors
    ///
    /// Fatal accept-loop failures only; per-connection errors (a peer
    /// hanging up mid-stream) are contained in that connection's
    /// thread.
    pub fn run(self) -> io::Result<Snapshot> {
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
            let io_timeout = self.io_timeout;
            workers.push(std::thread::spawn(move || {
                let _ = handle_connection(stream, io_timeout, &inner);
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
        // own pool is quiesced, so no admitted cell is ever lost. Only
        // connection threads start batches, so after they are joined
        // the batch list is final.
        for w in workers {
            let _ = w.join();
        }
        let batches = std::mem::take(&mut *relock(&self.inner.batches));
        for b in batches {
            let _ = b.join();
        }
        let last = self.inner.snapshot();
        self.inner.handler.quiesce();
        Ok(last)
    }
}

fn handle_connection(
    stream: TcpStream,
    io_timeout: Duration,
    inner: &Arc<Inner>,
) -> io::Result<()> {
    stream.set_read_timeout(Some(io_timeout))?;
    stream.set_write_timeout(Some(io_timeout))?;
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
    inner.metrics.add(Slot::Requests, 1);
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/sweep") => run_batch(RequestKind::Sweep, &req, &mut out, inner),
        ("POST", "/analyze") => run_batch(RequestKind::Analyze, &req, &mut out, inner),
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
/// refusal, panic in the handler).
struct InFlight<'a>(&'a Registry);

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        self.0.sub(Slot::InFlight, 1);
    }
}

/// One NDJSON event line, `\n`-terminated.
fn event_line(event: &Value) -> String {
    let mut line = event.render();
    line.push('\n');
    line
}

/// The first chunk of every batch stream: the handshake. Not recorded
/// in the entry log — each stream gets its own, and clients count
/// delivered events from the line after it.
fn accepted_line(token: &str) -> String {
    event_line(&Value::Obj(vec![
        ("event".into(), Value::str("accepted")),
        ("token".into(), Value::str(token)),
        ("run".into(), Value::u64(run_id())),
    ]))
}

/// Starts `entry`'s batch on a thread of its own. No client sits on
/// that thread, so a reader that stalls or leaves never holds the
/// batch up. Finished batch threads are reaped here, the way the
/// accept loop reaps connection threads: an unjoined thread keeps its
/// stack resident.
fn start_entry(
    inner: &Arc<Inner>,
    kind: RequestKind,
    body: Value,
    token: String,
    entry: Arc<RequestEntry>,
) {
    let batch = {
        let inner = Arc::clone(inner);
        std::thread::spawn(move || execute_entry(&inner, kind, &body, &token, &entry))
    };
    let finished: Vec<_> = {
        let mut batches = relock(&inner.batches);
        let (finished, running) = std::mem::take(&mut *batches)
            .into_iter()
            .partition(|b| b.is_finished());
        *batches = running;
        batches.push(batch);
        finished
    };
    for b in finished {
        let _ = b.join();
    }
}

/// Runs the batch through the handler, recording every event line (and
/// the final `result` line) in `entry`. The in-flight gauge covers the
/// run and drops before the terminal line, so a client that has read
/// its result never sees the batch still in flight. A refusal ends the
/// entry with the refusal and a terminal `error` line, so the admitting
/// `POST` can answer `503` and attached streams end instead of
/// hanging; a panicking handler yields a terminal `result` line with
/// exit code 70 and the daemon survives. Either way the entry leaves
/// the registry as it settles.
fn execute_entry(
    inner: &Inner,
    kind: RequestKind,
    body: &Value,
    token: &str,
    entry: &RequestEntry,
) {
    if inner.metrics.add(Slot::InFlight, 1) > 0 {
        // Another batch is already running: this one rides the shared
        // pool concurrently instead of waiting its turn.
        inner.metrics.add(Slot::Queued, 1);
    }
    let gauge = InFlight(&inner.metrics);
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
    inner.record_span(token, started_us, 0, SpanKind::Admit { kind });
    let mut sink = RequestSink {
        inner,
        token,
        entry,
        total: 0,
        submitted_us: started_us,
        first_cell_us: None,
    };
    let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
        inner.handler.run(kind, body, &mut sink)
    }));
    let result = match outcome {
        Ok(Ok(result)) => result,
        Ok(Err(refusal)) => {
            inner.metrics.add(Slot::Rejected, 1);
            log::warn(
                "serve",
                "request refused",
                &[
                    ("token", Value::str(token)),
                    ("error", Value::str(refusal.name())),
                    ("message", Value::str(&refusal.to_string())),
                ],
            );
            drop(gauge);
            relock(&entry.state).refusal = Some(refusal);
            let line = event_line(&Value::Obj(vec![
                ("event".into(), Value::str("error")),
                ("error".into(), Value::str(refusal.name())),
                ("message".into(), Value::str(&refusal.to_string())),
            ]));
            settle(inner, token, entry, line);
            return;
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
            }
        }
    };

    inner.metrics.add(Slot::CacheHits, result.cache_hits);
    let ms = started.elapsed().as_millis() as u64;
    inner.metrics.observe_latency(ms);
    relock(&inner.series).record_request(inner.now_sec(), ms);
    // Queue time: from the batch's submission to the start of its
    // first simulated cell. A worker may pick a cell up before
    // `batch_start` is reported, so the span never ends past it.
    if let Some(first) = sink.first_cell_us {
        let from = sink.submitted_us.min(first);
        inner.record_span(token, from, first - from, SpanKind::Queued);
    }
    // `run` follows `queued` on the service lane: from the first cell's
    // start, or from admission when no cell was simulated.
    let run_from = sink.first_cell_us.unwrap_or(started_us);
    let ran = inner.now_us().saturating_sub(run_from);
    let run = SpanKind::Run {
        kind,
        exit_code: result.exit_code.unsigned_abs(),
        cache_hits: result.cache_hits,
        simulated: result.simulated,
    };
    inner.record_span(token, run_from, ran, run);
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
        ],
    );

    drop(gauge);
    let line = event_line(&Value::Obj(vec![
        ("event".into(), Value::str("result")),
        (
            "exit_code".into(),
            Value::u64(result.exit_code.unsigned_abs().into()),
        ),
        ("cache_hits".into(), Value::u64(result.cache_hits)),
        ("simulated".into(), Value::u64(result.simulated)),
        ("output".into(), Value::str(&result.output)),
    ]));
    settle(inner, token, entry, line);
}

/// Records `entry`'s terminal line and removes it from the registry
/// under one registry lock, so a client that has read that line finds
/// the batch gone, and its next identical `POST` runs the batch again.
fn settle(inner: &Inner, token: &str, entry: &RequestEntry, line: String) {
    let mut registry = relock(&inner.registry);
    registry.remove(token);
    entry.finish(line);
}

/// The service's [`ProgressSink`] for one running request, and the
/// one place its `batch_start` and `progress` lines are rendered. Each
/// call updates the entry's `/status` row and appends the line its
/// streams deliver; each cell also records its span, feeds the series
/// ring and may trip the slow-cell log.
struct RequestSink<'a> {
    inner: &'a Inner,
    token: &'a str,
    entry: &'a RequestEntry,
    /// The batch's cell count, from `batch_start`.
    total: usize,
    /// When the batch's cells were submitted: its `batch_start`, else
    /// its admission.
    submitted_us: u64,
    /// When the earliest simulated cell started: a cell's completion
    /// instant minus its wall time. Cells on other workers can finish
    /// out of start order.
    first_cell_us: Option<u64>,
}

impl ProgressSink for RequestSink<'_> {
    fn batch_start(&mut self, total: usize) {
        self.total = total;
        self.submitted_us = self.inner.now_us();
        self.entry.note_progress(0, total as u64);
        self.entry.push(event_line(&Value::Obj(vec![
            ("event".into(), Value::str("batch_start")),
            ("total".into(), Value::u64(total as u64)),
        ])));
    }

    /// One finished cell, on pool worker `worker`'s lane.
    fn cell_done_on(&mut self, done: usize, workload: &str, took: Duration, worker: usize) {
        let (inner, token) = (self.inner, self.token);
        let now_us = inner.now_us();
        let took_us = took.as_micros() as u64;
        let started_us = now_us.saturating_sub(took_us);
        self.first_cell_us = Some(self.first_cell_us.map_or(started_us, |f| f.min(started_us)));
        let (done, total) = (done as u64, self.total as u64);
        self.entry.note_progress(done, total);
        let worker = worker as u64;
        let cell = SpanKind::Cell {
            worker,
            label: workload,
            done,
            total,
        };
        inner.record_span(token, started_us, took_us, cell);
        let took_ms = took.as_millis() as u64;
        let now_sec = inner.now_sec();
        relock(&inner.series).record_cell(now_sec, took_ms);
        let threshold = inner.slow_cell_threshold_ms(now_sec);
        if took_ms > threshold {
            // PipelineDiagnostic-style context: what ran, where, for
            // whom, and what the pool looked like while it was slow.
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
        self.entry.push(event_line(&Value::Obj(vec![
            ("event".into(), Value::str("progress")),
            ("done".into(), Value::u64(done)),
            ("total".into(), Value::u64(total)),
            ("workload".into(), Value::str(workload)),
            ("took_s".into(), Value::f64(took.as_secs_f64())),
            ("worker".into(), Value::u64(worker)),
        ])));
    }

    fn batch_end(&mut self) {}
}

fn run_batch(
    kind: RequestKind,
    req: &http::Request,
    out: &mut TcpStream,
    inner: &Arc<Inner>,
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
    // A settled batch has left the registry, so re-asking it runs
    // fresh, and answers warm from the store.
    let entry = {
        let mut reg = relock(&inner.registry);
        if let Some(live) = reg.get(&token).map(Arc::clone) {
            drop(reg);
            inner.metrics.add(Slot::ResumedStreams, 1);
            return stream_entry(out, &live, &token, inner);
        }
        let entry = Arc::new(RequestEntry::new(kind));
        reg.insert(token.clone(), Arc::clone(&entry));
        entry
    };
    start_entry(inner, kind, body, token.clone(), Arc::clone(&entry));

    // Admission precedes the batch's first event, so a refused batch
    // has streamed nothing and gets a clean fixed-length 503.
    let refusal = entry.settled(0).refusal;
    if let Some(e) = refusal {
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
    stream_entry(out, &entry, &token, inner)
}

/// Streams `entry` to `out`: the `accepted` handshake, every event
/// already recorded, then live events as the batch records them, until
/// the entry is done. Every attempt records a `stream` span on the
/// streams lane, one the client cut short included.
fn stream_entry(
    out: &mut TcpStream,
    entry: &RequestEntry,
    token: &str,
    inner: &Inner,
) -> io::Result<()> {
    let stream_start_us = inner.now_us();
    let mut at = 0;
    let delivered = (|| -> io::Result<()> {
        let mut w = http::ChunkedWriter::start(out.try_clone()?, 200, "application/x-ndjson")?;
        w.chunk(accepted_line(token).as_bytes())?;
        loop {
            let (events, done) = entry.wait_past(at);
            for line in &events {
                w.chunk(line.as_bytes())?;
                at += 1;
            }
            if done {
                return w.finish();
            }
        }
    })();
    let streamed = inner.now_us().saturating_sub(stream_start_us);
    let sent = SpanKind::Stream { events: at as u64 };
    inner.record_span(token, stream_start_us, streamed, sent);
    delivered
}

/// `GET /status`: the registry's rows, the lifetime latency
/// percentiles, the live-request table and the recent warn/error tail
/// as one JSON document.
fn status(out: &mut TcpStream, inner: &Inner) -> io::Result<()> {
    // Nothing here waits on a batch: the registry slots are atomics,
    // the handler snapshot reads its scheduler's atomics, and the
    // mutexes are only ever held for micro-ops.
    let mut doc = vec![("status".into(), Value::str("ok"))];
    doc.extend(inner.snapshot().status_fields());
    doc.push(("latency_ms".into(), inner.metrics.latency_status()));
    doc.push(("requests".into(), Value::Arr(live_requests(inner))));
    doc.push(("recent_logs".into(), Value::Arr(log::recent())));
    let body = Value::Obj(doc).render();
    http::write_response(out, 200, "application/json", body.as_bytes())
}

/// The registry's requests, all live, oldest first and at most 64, for
/// `ctcp top`'s table.
fn live_requests(inner: &Inner) -> Vec<Value> {
    let mut requests: Vec<(u64, Value)> = relock(&inner.registry)
        .iter()
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
    requests.into_iter().map(|(_, v)| v).take(64).collect()
}

/// `GET /trace/<token>` — one request's recorded spans as a Chrome
/// trace-event JSON document (load in `about://tracing` or Perfetto).
/// Tokens with no retained spans — unknown, or aged out of the span
/// ring — get a typed `404`.
fn trace_export(token: &str, out: &mut TcpStream, inner: &Inner) -> io::Result<()> {
    let spans = relock(&inner.spans).spans_for(token);
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

/// `GET /metrics` — the registry and the request latency histogram in
/// Prometheus text exposition format.
fn metrics_export(out: &mut TcpStream, inner: &Inner) -> io::Result<()> {
    let text = inner.metrics.prometheus(&inner.snapshot());
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
    use crate::spans::{LANE_SERVICE, LANE_STREAM, LANE_WORKERS};

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
            progress: &mut dyn ProgressSink,
        ) -> Result<RunResult, HandlerError> {
            let rendered = body.render();
            let hits = {
                let mut seen = self.seen.lock().unwrap();
                let hits = seen.iter().filter(|b| **b == rendered).count() as u64;
                seen.push(rendered.clone());
                hits
            };
            for done in 1..=2 {
                progress.cell_done_on(done, "cell", Duration::ZERO, 0);
            }
            Ok(RunResult {
                output: format!("{kind:?}: {rendered}"),
                exit_code: 0,
                cache_hits: hits * 2,
                simulated: 2 - hits.min(2),
            })
        }

        fn stats(&self) -> HandlerStats {
            HandlerStats {
                workers: 2,
                store_entries: 7,
                ..HandlerStats::default()
            }
        }

        fn quiesce(&self) {
            self.quiesced.store(true, Ordering::SeqCst);
        }
    }

    fn start_service() -> (String, std::thread::JoinHandle<Snapshot>, Arc<AtomicBool>) {
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
        assert_eq!(summary.count("counters.serve_requests"), 3);
        assert_eq!(summary.count("counters.serve_cache_hits"), 2);
        assert_eq!(summary.count("counters.serve_rejected"), 0);
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
        assert_eq!(resp.body, b"unknown route");
        let resp = http::request(&addr, "POST", "/sweep", b"not json", &mut |_| {}).unwrap();
        assert_eq!(resp.status, 400);
        http::request(&addr, "POST", "/shutdown", b"", &mut |_| {}).unwrap();
        worker.join().unwrap();
    }

    #[test]
    fn a_nesting_bomb_gets_a_400_and_the_daemon_keeps_serving() {
        let _g = crate::testutil::fail_points_held();
        let (addr, worker, _q) = start_service();
        // 64 KiB of `[` would overflow a connection thread's stack and
        // abort the process without the parser's depth cap.
        let bomb = vec![b'['; 64 << 10];
        for path in ["/sweep", "/analyze"] {
            let resp = http::request(&addr, "POST", path, &bomb, &mut |_| {}).unwrap();
            assert_eq!(resp.status, 400, "{path}");
        }
        let resp = http::request(&addr, "GET", "/status", b"", &mut |_| {}).unwrap();
        assert_eq!(resp.status, 200);
        http::request(&addr, "POST", "/shutdown", b"", &mut |_| {}).unwrap();
        worker.join().unwrap();
    }

    #[test]
    fn a_silent_client_cannot_hold_up_the_drain() {
        let _g = crate::testutil::fail_points_held();
        let timeout = Duration::from_millis(300);
        let (handler, quiesced) = MockHandler::new();
        let mut svc = Service::bind("127.0.0.1:0", Box::new(handler)).unwrap();
        svc.io_timeout = timeout;
        let addr = svc.local_addr().to_string();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || {
            let _ = done_tx.send(svc.run().expect("service run"));
        });
        // Connects, then says nothing and stays open.
        let started = Instant::now();
        let silent = TcpStream::connect(&addr).unwrap();
        let resp = http::request(&addr, "POST", "/shutdown", b"", &mut |_| {}).unwrap();
        assert_eq!(resp.status, 200);
        // A channel rather than a join, so a hung drain fails the test
        // instead of hanging it.
        let summary = done_rx
            .recv_timeout(timeout + Duration::from_secs(5))
            .expect("the drain waited on the silent connection");
        worker.join().unwrap();
        assert!(
            started.elapsed() >= timeout,
            "the drain ended before the timeout"
        );
        assert_eq!(
            summary.count("counters.serve_requests"),
            1,
            "only /shutdown was a request"
        );
        assert!(quiesced.load(Ordering::SeqCst));
        drop(silent);
    }

    /// 256 progress events of 64 KiB each (the workload label is the
    /// padding): far more than a loopback peer that never reads can
    /// absorb (a few MB).
    struct FloodHandler;

    impl Handler for FloodHandler {
        fn run(
            &self,
            _kind: RequestKind,
            _body: &Value,
            progress: &mut dyn ProgressSink,
        ) -> Result<RunResult, HandlerError> {
            let pad = "x".repeat(64 << 10);
            for done in 1..=256 {
                progress.cell_done_on(done, &pad, Duration::ZERO, 0);
            }
            Ok(RunResult {
                output: "flooded".into(),
                exit_code: 0,
                cache_hits: 0,
                simulated: 256,
            })
        }
    }

    #[test]
    fn a_client_that_stops_reading_holds_up_neither_its_batch_nor_the_drain() {
        let _g = crate::testutil::fail_points_held();
        use std::io::Write;
        let timeout = Duration::from_millis(300);
        let mut svc = Service::bind("127.0.0.1:0", Box::new(FloodHandler)).unwrap();
        svc.io_timeout = timeout;
        let addr = svc.local_addr().to_string();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || {
            let _ = done_tx.send(svc.run().expect("service run"));
        });
        // Posts, then never reads and never closes.
        let mut stalled = TcpStream::connect(&addr).unwrap();
        write!(
            stalled,
            "POST /sweep HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\n\r\n{{}}"
        )
        .unwrap();
        stalled.flush().unwrap();
        // The batch still finishes: its latency sample lands.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let resp = http::request(&addr, "GET", "/status", b"", &mut |_| {}).unwrap();
            let v = Value::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
            let samples = v.get("latency_ms").unwrap().get("samples").unwrap();
            if samples.as_u64() == Some(1) {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "the stalled reader held up its batch"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
        // And the drain only waits out the write timeout.
        let resp = http::request(&addr, "POST", "/shutdown", b"", &mut |_| {}).unwrap();
        assert_eq!(resp.status, 200);
        done_rx
            .recv_timeout(timeout + Duration::from_secs(5))
            .expect("the stalled reader held up the drain");
        worker.join().unwrap();
        drop(stalled);
    }

    #[test]
    fn shutdown_drains_and_stops_accepting() {
        let _g = crate::testutil::fail_points_held();
        let (addr, worker, quiesced) = start_service();
        let resp = http::request(&addr, "POST", "/shutdown", b"", &mut |_| {}).unwrap();
        assert_eq!(resp.status, 200);
        let summary = worker.join().unwrap();
        assert_eq!(summary.count("counters.serve_requests"), 1);
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
            _progress: &mut dyn ProgressSink,
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
        assert!(
            summary.count("counters.serve_queued") >= 2,
            "queued = {}",
            summary.count("counters.serve_queued")
        );
    }

    /// A handler that always refuses: the wire side of admission.
    struct RefusingHandler(HandlerError);

    impl Handler for RefusingHandler {
        fn run(
            &self,
            _kind: RequestKind,
            _body: &Value,
            _progress: &mut dyn ProgressSink,
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
        assert_eq!(summary.count("counters.serve_rejected"), 1);
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
        assert_eq!(summary.count("counters.serve_rejected"), 1);
    }

    /// A handler that emits `total` events with a small delay — long
    /// enough for an identical `POST` to arrive while it runs.
    struct TalkativeHandler {
        total: u64,
    }

    impl Handler for TalkativeHandler {
        fn run(
            &self,
            _kind: RequestKind,
            _body: &Value,
            progress: &mut dyn ProgressSink,
        ) -> Result<RunResult, HandlerError> {
            for done in 1..=self.total {
                progress.cell_done_on(done as usize, "cell", Duration::ZERO, 0);
                std::thread::sleep(Duration::from_millis(5));
            }
            Ok(RunResult {
                output: "complete".into(),
                exit_code: 0,
                cache_hits: 0,
                simulated: self.total,
            })
        }
    }

    /// Reports `total` cells, the rest only after a release once `held`
    /// are reported: a client can vanish and re-POST while it runs.
    struct GatedHandler {
        total: usize,
        held: usize,
        gate: Mutex<std::sync::mpsc::Receiver<()>>,
    }

    impl Handler for GatedHandler {
        fn run(
            &self,
            _kind: RequestKind,
            _body: &Value,
            progress: &mut dyn ProgressSink,
        ) -> Result<RunResult, HandlerError> {
            let gate = self.gate.lock().unwrap();
            for done in 1..=self.total {
                if done == self.held + 1 {
                    let _ = gate.recv();
                }
                progress.cell_done_on(done, "cell", Duration::ZERO, 0);
            }
            Ok(RunResult {
                output: "complete".into(),
                exit_code: 0,
                cache_hits: 0,
                simulated: self.total as u64,
            })
        }
    }

    /// Posts `body` to `/sweep` on a raw socket, reads until the
    /// `accepted` handshake arrives, then vanishes. Returns the
    /// handshake line.
    fn post_and_vanish(addr: &str, body: &[u8]) -> String {
        use std::io::{Read, Write};
        let mut s = TcpStream::connect(addr).unwrap();
        let head = format!(
            "POST /sweep HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        s.write_all(head.as_bytes()).unwrap();
        s.write_all(body).unwrap();
        let mut got = Vec::new();
        let mut buf = [0u8; 256];
        loop {
            let text = String::from_utf8_lossy(&got);
            if let Some(line) = text.lines().find(|l| l.contains("\"accepted\"")) {
                return line.to_string();
            }
            let n = s.read(&mut buf).unwrap();
            assert!(n > 0, "the stream ended before its handshake");
            got.extend_from_slice(&buf[..n]);
        }
    }

    /// Polls `/status` until `done` holds of it, for at most 10 s.
    fn await_status(addr: &str, what: &str, done: impl Fn(&Value) -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let resp = http::request(addr, "GET", "/status", b"", &mut |_| {}).unwrap();
            let v = Value::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
            if done(&v) {
                return;
            }
            assert!(Instant::now() < deadline, "waited 10 s for {what}");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Starts a [`GatedHandler`] service, cuts a `POST` of `{}` after
    /// its handshake, and re-POSTs the same body while the batch is
    /// held: the re-POST's response, the batch's `/trace`, and the
    /// service's summary.
    fn re_post_while_held(total: usize, held: usize) -> (http::Response, Value, Snapshot) {
        let (release, gate) = std::sync::mpsc::channel();
        let handler = GatedHandler {
            total,
            held,
            gate: Mutex::new(gate),
        };
        let svc = Service::bind("127.0.0.1:0", Box::new(handler)).unwrap();
        let addr = svc.local_addr().to_string();
        let worker = std::thread::spawn(move || svc.run().expect("service run"));
        post_and_vanish(&addr, b"{}");
        let twin = {
            let addr = addr.clone();
            std::thread::spawn(move || {
                http::request(&addr, "POST", "/sweep", b"{}", &mut |_| {}).unwrap()
            })
        };
        await_status(&addr, "the re-POST to attach", |v| {
            let resumed = v
                .get("counters")
                .and_then(|c| c.get("serve_resumed_streams"));
            resumed.and_then(Value::as_u64) == Some(1)
        });
        release.send(()).unwrap();
        let resp = twin.join().unwrap();
        let path = format!("/trace/{}", resume_token(RequestKind::Sweep, "{}"));
        let trace = http::request(&addr, "GET", &path, b"", &mut |_| {}).unwrap();
        assert_eq!(trace.status, 200);
        let trace = Value::parse(std::str::from_utf8(&trace.body).unwrap()).unwrap();
        http::request(&addr, "POST", "/shutdown", b"", &mut |_| {}).unwrap();
        (resp, trace, worker.join().unwrap())
    }

    #[test]
    fn disconnect_detaches_and_a_re_post_replays_the_full_stream() {
        let _g = crate::testutil::fail_points_held();
        // The batch keeps running server-side (detach, not cancel); the
        // same body, posted while it runs, attaches and gets everything
        // from the top, including the result the vanished client never
        // saw.
        let (resp, _, summary) = re_post_while_held(10, 3);
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
        assert_eq!(summary.count("counters.serve_resumed_streams"), 1);
        assert_eq!(summary.count("rolling.requests"), 1, "the batch ran once");
    }

    #[test]
    fn a_settled_batch_leaves_the_registry_and_a_re_post_runs_it_again() {
        let _g = crate::testutil::fail_points_held();
        let (handler, _q) = MockHandler::new();
        let svc = Service::bind("127.0.0.1:0", Box::new(handler)).unwrap();
        let inner = Arc::clone(&svc.inner);
        let addr = svc.local_addr().to_string();
        let worker = std::thread::spawn(move || svc.run().expect("service run"));
        let body = b"{\"grid\":4}";
        // The first client leaves after the handshake; its batch runs on
        // headless, settles and leaves the registry.
        let handshake = post_and_vanish(&addr, body);
        await_status(&addr, "no live request", |v| {
            v.get("requests")
                .and_then(Value::as_arr)
                .is_some_and(|r| r.is_empty())
        });
        assert!(relock(&inner.registry).is_empty());
        // The re-POST has nothing to attach to: the batch runs again,
        // and the mock answers both cells from its "store".
        let resp = http::request(&addr, "POST", "/sweep", body, &mut |_| {}).unwrap();
        assert!(relock(&inner.registry).is_empty());
        let text = String::from_utf8(resp.body).unwrap();
        assert_eq!(text.lines().next(), Some(handshake.as_str()));
        let events = parse_events(text.as_bytes());
        let result = events.last().unwrap();
        assert_eq!(
            result.get("output").unwrap().as_str(),
            Some("Sweep: {\"grid\":4}")
        );
        assert_eq!(result.get("cache_hits").unwrap().as_u64(), Some(2));
        http::request(&addr, "POST", "/shutdown", b"", &mut |_| {}).unwrap();
        let summary = worker.join().unwrap();
        assert_eq!(
            summary.count("rolling.requests"),
            2,
            "the handler ran twice"
        );
        assert_eq!(summary.count("counters.serve_resumed_streams"), 0);
        assert_eq!(summary.count("counters.serve_cache_hits"), 2);
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
        assert_eq!(
            summary.count("counters.serve_resumed_streams"),
            1,
            "the twin attached"
        );
        assert_eq!(
            summary.count("counters.serve_queued"),
            0,
            "only one batch actually ran"
        );
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

        // Every registry row /metrics exports agrees with /status,
        // modulo the /status request itself: /metrics saw the sweep and
        // itself, /status those plus itself.
        let resp = http::request(&addr, "GET", "/status", b"", &mut |_| {}).unwrap();
        let v = Value::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        let status_at = |key: &str| -> f64 {
            let found = key
                .split('.')
                .try_fold(&v, |doc, k| doc.get(k))
                .unwrap_or_else(|| panic!("/status lacks {key}"));
            match found {
                Value::Bool(b) => f64::from(u8::from(*b)),
                n => n.as_f64().expect("numeric /status value"),
            }
        };
        let mut counters = 0;
        for row in &crate::exposition::ROWS {
            let Some(family) = row.family else { continue };
            let lag = f64::from(u8::from(family == "ctcp_serve_requests_total"));
            assert_eq!(
                prom_get(&samples, family) + lag,
                status_at(row.key),
                "{family}"
            );
            if row.kind == crate::exposition::COUNTER {
                assert!(typed.contains(&format!("{family} counter")), "{family}");
                counters += 1;
            }
        }
        assert_eq!(counters, 9, "the nine serve_* counters");
        assert_eq!(prom_get(&samples, "ctcp_workers"), 2.0);
        assert_eq!(prom_get(&samples, "ctcp_store_read_only"), 0.0);
        assert_eq!(prom_get(&samples, "ctcp_store_entries"), 7.0);
        // Nothing else is exported: every family is a registry row or
        // the latency histogram.
        for t in &typed {
            let family = t.split(' ').next().unwrap();
            assert!(
                crate::exposition::ROWS
                    .iter()
                    .any(|r| r.family == Some(family))
                    || family == "ctcp_request_latency_ms",
                "unexpected /metrics family {family}"
            );
        }
        let prom_requests = prom_get(&samples, "ctcp_serve_requests_total") as u64;

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
    fn trace_tokens_match_as_strings_not_numbers() {
        let _g = crate::testutil::fail_points_held();
        let (addr, worker, _q) = start_service();
        // A body whose token starts with a zero and holds a letter, so
        // both misspellings differ from it.
        let (body, token) = (0..)
            .map(|i| format!("{{\"grid\":{i}}}"))
            .map(|b| {
                let t = resume_token(RequestKind::Sweep, &b);
                (b, t)
            })
            .find(|(_, t)| t.starts_with('0') && t.bytes().any(|c| c.is_ascii_alphabetic()))
            .unwrap();
        http::request(&addr, "POST", "/sweep", body.as_bytes(), &mut |_| {}).unwrap();
        let trace = |t: &str| {
            http::request(&addr, "GET", &format!("/trace/{t}"), b"", &mut |_| {}).unwrap()
        };
        assert_eq!(trace(&token).status, 200);
        for spelling in [
            token.trim_start_matches('0').to_string(),
            token.to_uppercase(),
        ] {
            let resp = trace(&spelling);
            assert_eq!(resp.status, 404, "{spelling}");
            let v = Value::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
            assert_eq!(v.get("error").unwrap().as_str(), Some("unknown-token"));
            assert_eq!(v.get("token").unwrap().as_str(), Some(spelling.as_str()));
        }
        http::request(&addr, "POST", "/shutdown", b"", &mut |_| {}).unwrap();
        worker.join().unwrap();
    }

    #[test]
    fn trace_survives_disconnect_and_counts_both_streams() {
        let _g = crate::testutil::fail_points_held();
        let (_, trace, _) = re_post_while_held(6, 3);
        let lanes = lanes_of(&trace);
        let all: Vec<&Value> = lanes.iter().flat_map(|(_, v)| v).collect();
        let named = |n: &str| {
            all.iter()
                .filter(|e| e.get("name").and_then(Value::as_str) == Some(n))
                .count()
        };
        assert_eq!(
            named("admit"),
            1,
            "the re-POST attached, it did not re-admit"
        );
        assert_eq!(named("cell cell"), 6, "every cell kept its span");
        assert_eq!(
            named("stream"),
            2,
            "both delivery attempts traced: the aborted partial and the re-POST's"
        );
        assert!(
            lanes.iter().any(|(tid, _)| *tid == LANE_STREAM),
            "stream spans live on their own lane"
        );
    }

    /// One cell, reported as having taken 250ms — far over the 1ms
    /// override threshold.
    struct SlowCellHandler;

    impl Handler for SlowCellHandler {
        fn run(
            &self,
            _kind: RequestKind,
            _body: &Value,
            progress: &mut dyn ProgressSink,
        ) -> Result<RunResult, HandlerError> {
            progress.batch_start(1);
            progress.cell_done_on(1, "slowpoke-gzip", Duration::from_millis(250), 1);
            Ok(RunResult {
                output: "done".into(),
                exit_code: 0,
                cache_hits: 0,
                simulated: 1,
            })
        }
    }

    #[test]
    fn slow_cells_trip_the_warn_log_under_the_threshold_override() {
        let _g = crate::testutil::fail_points_held();
        let mut svc = Service::bind("127.0.0.1:0", Box::new(SlowCellHandler)).unwrap();
        Arc::get_mut(&mut svc.inner)
            .expect("nothing shares the service before it runs")
            .slow_cell_ms = Some(1);
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
    fn the_sink_renders_progress_lines_byte_for_byte() {
        let _g = crate::testutil::fail_points_held();
        let (handler, _q) = MockHandler::new();
        let svc = Service::bind("127.0.0.1:0", Box::new(handler)).unwrap();
        let entry = RequestEntry::new(RequestKind::Sweep);
        let mut sink = RequestSink {
            inner: &svc.inner,
            token: "0c0ffee123456789",
            entry: &entry,
            total: 0,
            submitted_us: 0,
            first_cell_us: None,
        };
        sink.batch_start(3);
        sink.cell_done_on(1, "gzip", Duration::from_millis(250), 0);
        sink.cell_done_on(2, "twolf", Duration::from_nanos(1_234_567_891), 1);
        sink.cell_done_on(3, "mcf", Duration::from_micros(20), 0);
        // Sweep and analyze streams are a contract: these are the lines
        // a daemon streamed for these calls, field order and number
        // spelling included.
        let golden = [
            "{\"event\":\"batch_start\",\"total\":3}\n",
            "{\"event\":\"progress\",\"done\":1,\"total\":3,\"workload\":\"gzip\",\"took_s\":0.25,\"worker\":0}\n",
            "{\"event\":\"progress\",\"done\":2,\"total\":3,\"workload\":\"twolf\",\"took_s\":1.234567891,\"worker\":1}\n",
            "{\"event\":\"progress\",\"done\":3,\"total\":3,\"workload\":\"mcf\",\"took_s\":2e-5,\"worker\":0}\n",
        ];
        assert_eq!(relock(&entry.state).events, golden);
    }

    /// Submits the body's `cells` cells, waits 60 ms for a worker,
    /// then reports cell `n` as having run for `20 * n` ms on worker
    /// `n - 1`, so a later cell started earlier.
    struct QueuedCellHandler;

    impl Handler for QueuedCellHandler {
        fn run(
            &self,
            _kind: RequestKind,
            body: &Value,
            progress: &mut dyn ProgressSink,
        ) -> Result<RunResult, HandlerError> {
            let cells = body.get("cells").and_then(Value::as_u64).unwrap_or(0) as usize;
            progress.batch_start(cells);
            std::thread::sleep(Duration::from_millis(60));
            for n in 1..=cells {
                let took = Duration::from_millis(20 * n as u64);
                progress.cell_done_on(n, "gzip", took, n - 1);
            }
            progress.batch_end();
            Ok(RunResult {
                output: "done".into(),
                exit_code: 0,
                cache_hits: 0,
                simulated: cells as u64,
            })
        }
    }

    #[test]
    fn queued_runs_from_batch_start_to_the_first_cell_start() {
        let _g = crate::testutil::fail_points_held();
        let svc = Service::bind("127.0.0.1:0", Box::new(QueuedCellHandler)).unwrap();
        let addr = svc.local_addr().to_string();
        let worker = std::thread::spawn(move || svc.run().expect("service run"));
        // The `queued` span and the earliest cell start, as `/trace`
        // renders them.
        let trace_of = |body: &str| {
            http::request(&addr, "POST", "/sweep", body.as_bytes(), &mut |_| {}).unwrap();
            let token = resume_token(RequestKind::Sweep, body);
            let path = format!("/trace/{token}");
            let resp = http::request(&addr, "GET", &path, b"", &mut |_| {}).unwrap();
            let trace = Value::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
            let spans: Vec<Value> = lanes_of(&trace).into_iter().flat_map(|l| l.1).collect();
            let at = |e: &Value, k: &str| e.get(k).unwrap().as_u64().unwrap();
            let name = |e: &&Value| e.get("name").and_then(Value::as_str).unwrap().to_string();
            let queued = spans.iter().find(|e| name(e) == "queued");
            let cells = spans.iter().filter(|e| name(e).starts_with("cell "));
            let queued = queued.map(|e| (at(e, "ts"), at(e, "dur")));
            (queued, cells.map(|e| at(e, "ts")).min())
        };
        let (Some((ts, dur)), Some(first_cell)) = trace_of("{\"cells\":1}") else {
            panic!("no queued or cell span");
        };
        // The 60 ms wait, less scheduling slack.
        assert!(dur >= 35_000, "queued {dur} us");
        assert!(ts + dur <= first_cell);
        // It ends at the earliest start, not the first completion.
        let (Some((ts, dur)), Some(first_cell)) = trace_of("{\"cells\":2}") else {
            panic!("no queued or cell span");
        };
        assert!(ts + dur <= first_cell, "{ts} + {dur} > {first_cell}");
        // A request that simulated no cell has no queue time.
        assert_eq!(trace_of("{\"cells\":0}"), (None, None));
        http::request(&addr, "POST", "/shutdown", b"", &mut |_| {}).unwrap();
        worker.join().unwrap();
    }

    /// Announces a five-cell batch, then reports one cell per release
    /// and finishes on the next.
    struct HeldBatch(Mutex<std::sync::mpsc::Receiver<()>>);

    impl Handler for HeldBatch {
        fn run(
            &self,
            _kind: RequestKind,
            _body: &Value,
            progress: &mut dyn ProgressSink,
        ) -> Result<RunResult, HandlerError> {
            let held = self.0.lock().unwrap();
            progress.batch_start(5);
            let _ = held.recv();
            progress.cell_done_on(1, "gzip", Duration::from_millis(1), 0);
            let _ = held.recv();
            Ok(RunResult {
                output: "held".into(),
                exit_code: 0,
                cache_hits: 0,
                simulated: 1,
            })
        }
    }

    #[test]
    fn status_learns_a_request_size_from_batch_start() {
        let _g = crate::testutil::fail_points_held();
        let (release, held) = std::sync::mpsc::channel();
        let svc = Service::bind("127.0.0.1:0", Box::new(HeldBatch(Mutex::new(held)))).unwrap();
        let addr = svc.local_addr().to_string();
        let worker = std::thread::spawn(move || svc.run().expect("service run"));
        let client = {
            let addr = addr.clone();
            std::thread::spawn(move || {
                http::request(&addr, "POST", "/sweep", b"{}", &mut |_| {}).unwrap()
            })
        };
        let wait_for = |want: (u64, u64)| {
            let deadline = Instant::now() + Duration::from_secs(10);
            loop {
                let resp = http::request(&addr, "GET", "/status", b"", &mut |_| {}).unwrap();
                let v = Value::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
                let rows = v.get("requests").unwrap().as_arr().unwrap().to_vec();
                let got = rows.first().map(|row| {
                    let field = |k: &str| row.get(k).unwrap().as_u64().unwrap();
                    (field("cells_done"), field("cells_total"))
                });
                if got == Some(want) {
                    return;
                }
                assert!(Instant::now() < deadline, "want {want:?}, read {got:?}");
                std::thread::sleep(Duration::from_millis(5));
            }
        };
        // Before its first cell finishes the request shows its size.
        wait_for((0, 5));
        // And each finished cell advances it.
        release.send(()).unwrap();
        wait_for((1, 5));
        release.send(()).unwrap();
        let events = parse_events(&client.join().unwrap().body);
        assert_eq!(events.len(), 4, "handshake, batch_start, progress, result");
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
