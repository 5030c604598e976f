//! The resident sweep service: accept loop, request routing, admission
//! control, crash-safe request registry, and graceful drain. The
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
//! | `POST /resume`    | re-attaches to a live or finished batch by token   |
//! | `GET /status`     | in-flight work, pool utilization, latency, counters|
//! | `POST /shutdown`  | begins a graceful drain                            |
//!
//! Batches run *concurrently*: every admitted batch runs headless on a
//! thread of its own, and the handler is shared by reference (`&self`,
//! `Send + Sync`) rather than serialised behind a mutex. Interleaving
//! is the handler's business — the CLI handler feeds all requests into
//! one fair cell scheduler — while the service handles the wire side
//! of concurrency and of *crash safety*:
//!
//! * **admission**: a handler may refuse a batch before streaming
//!   anything ([`HandlerError::Saturated`] when the queue is over its
//!   bound, [`HandlerError::Unavailable`] while the result store is
//!   degraded to read-only); the service answers with a clean `503`, a
//!   typed JSON body, and a `Retry-After` header so clients can tell
//!   "try later" from a failed run.
//! * **one delivery path**: every batch is keyed by a *resume token* —
//!   a hash of the raw wire body ([`resume_token`]) — and records its
//!   full event stream into an in-memory registry entry. Every stream
//!   reads that entry: the admitting `POST`, an identical `POST` that
//!   attaches while the batch runs (it is never run twice), and
//!   `POST /resume {"token","have","run"}`, which skips the events the
//!   client already has (none when the run id changed — i.e. the
//!   daemon restarted). The first chunk of every stream is an
//!   `accepted` handshake carrying the token and the daemon's run id.
//! * **disconnects detach**: no client sits on the batch's thread, so a
//!   reader that stalls or leaves paces only its own stream — the
//!   batch finishes, every cell memoizes, and the entry keeps the
//!   stream for the client's reconnect.
//! * **replay**: after a crash, the CLI re-submits journaled
//!   unfinished requests through [`Service::replay`], which starts them
//!   before any client connects — by the time clients reconnect, their
//!   tokens resolve.
//! * **drain**: `/shutdown` stops the accept loop, every connection
//!   thread and then every batch thread is joined, and then the
//!   handler is [quiesced](Handler::quiesce) so its worker pool runs
//!   every admitted cell to completion before the daemon exits.

use crate::exposition::{Registry, Slot, Snapshot, ROLLING_WINDOW_S};
use crate::http;
use crate::spans::{SpanKind, SpanRing};
use ctcp_telemetry::json::Value;
use ctcp_telemetry::{failpoint, log, request_trace, SeriesRing, SERIES_SECONDS};
use std::collections::{HashMap, VecDeque};
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
    /// Bytes in the request journal now.
    pub journal_bytes: u64,
    /// Journal compactions since the journal was opened, the open-time
    /// rewrite included.
    pub journal_compactions: u64,
    /// Journaled requests admitted and not yet finished.
    pub journal_live_requests: u64,
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
    /// emitting progress events through `progress` as cells finish.
    /// `token` is the batch's resume token — a journaling handler
    /// records it so the request can be replayed after a crash.
    ///
    /// The callback only records the event in the batch's registry
    /// entry: no client sits on the batch's thread, so it never blocks
    /// on a socket and has nothing to report back.
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
        progress: &mut dyn FnMut(&Value),
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

/// One admitted batch's replayable state: every event line it has
/// emitted (progress and the final result), and whether it finished.
/// Readers — the admitting `POST`, duplicate `POST`s, `/resume`
/// attachments — stream the log and park on the condvar for more.
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

    fn is_done(&self) -> bool {
        relock(&self.state).done
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

/// Finished requests the registry keeps for a late reader; beyond
/// them the oldest finished request is forgotten first.
const FINISHED_KEPT: usize = 256;

/// The request registry: every live batch and the newest
/// [`FINISHED_KEPT`] finished ones, keyed by resume token.
#[derive(Default)]
struct Requests {
    by_token: HashMap<String, Arc<RequestEntry>>,
    /// Finished entries, oldest first.
    finished: VecDeque<(String, Arc<RequestEntry>)>,
}

impl Requests {
    /// Registers a new run of `token`, replacing its finished one.
    fn admit(&mut self, token: String, entry: Arc<RequestEntry>) {
        if let Some(old) = self.by_token.insert(token, entry) {
            self.finished.retain(|(_, e)| !Arc::ptr_eq(e, &old));
        }
    }

    /// Forgets `token` if it still names `entry`, not a newer run's.
    fn forget(&mut self, token: &str, entry: &Arc<RequestEntry>) {
        if self
            .by_token
            .get(token)
            .is_some_and(|e| Arc::ptr_eq(e, entry))
        {
            self.by_token.remove(token);
        }
    }

    /// Files a finished entry, forgetting the oldest beyond the bound.
    fn retire(&mut self, token: &str, entry: &Arc<RequestEntry>) {
        self.finished
            .push_back((token.to_string(), Arc::clone(entry)));
        while self.finished.len() > FINISHED_KEPT {
            if let Some((token, entry)) = self.finished.pop_front() {
                self.forget(&token, &entry);
            }
        }
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
    /// Every live batch this incarnation has admitted and the newest
    /// [`FINISHED_KEPT`] finished ones. Finished entries are kept so a
    /// client that reconnects after its batch completed still gets the
    /// full stream; one that comes back later gets `404 unknown-token`
    /// and re-POSTs, and `/status` scans a bounded map.
    registry: Mutex<Requests>,
    /// Unjoined batch threads, live `POST`s and journal replays alike;
    /// finished ones are reaped as batches start, and the drain joins
    /// the rest so no admitted batch is abandoned.
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
                registry: Mutex::new(Requests::default()),
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

    /// Re-runs a journaled request before any client asks for it, so a
    /// client that reconnects after a daemon crash finds its token live
    /// (or finished) instead of unknown. Called by the CLI before
    /// [`run`](Service::run) for every unfinished request the journal
    /// replays. Returns `false` (and does nothing) when the body no
    /// longer parses or the token is already registered.
    pub fn replay(&self, kind: RequestKind, raw_body: &str) -> bool {
        let Ok(body) = Value::parse(raw_body) else {
            return false;
        };
        let token = resume_token(kind, raw_body);
        let entry = Arc::new(RequestEntry::new(kind));
        {
            let mut reg = relock(&self.inner.registry);
            if reg.by_token.contains_key(&token) {
                return false;
            }
            reg.admit(token.clone(), Arc::clone(&entry));
        }
        self.inner.metrics.add(Slot::JournalReplayed, 1);
        start_entry(&self.inner, kind, body, token, entry);
        true
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
        // own pool is quiesced, so no admitted cell is ever lost. Once
        // `run` is serving, only connection threads start batches, so
        // after they are joined the batch list is final.
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

/// The first chunk of every batch stream: the resume handshake. Not
/// recorded in the entry log — each attachment gets its own, and
/// clients count delivered events from the line after it.
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
/// its result never sees the batch still in flight. A refusal removes
/// the entry from the registry (a later retry runs fresh) and ends it
/// with the refusal and a terminal `error` line, so the admitting
/// `POST` can answer `503` and attached streams end instead of
/// hanging; a panicking handler yields a terminal `result` line with
/// exit code 70 and the daemon survives.
fn execute_entry(
    inner: &Inner,
    kind: RequestKind,
    body: &Value,
    token: &str,
    entry: &Arc<RequestEntry>,
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
    let mut first_event_us: Option<u64> = None;
    let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
        inner.handler.run(kind, body, token, &mut |event| {
            let now_us = inner.now_us();
            first_event_us.get_or_insert(now_us);
            observe_progress_event(inner, token, entry, event, now_us);
            entry.push(event_line(event));
        })
    }));
    let result = match outcome {
        Ok(Ok(result)) => result,
        Ok(Err(refusal)) => {
            inner.metrics.add(Slot::Rejected, 1);
            relock(&inner.registry).forget(token, entry);
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
            entry.finish(event_line(&Value::Obj(vec![
                ("event".into(), Value::str("error")),
                ("error".into(), Value::str(refusal.name())),
                ("message".into(), Value::str(&refusal.to_string())),
            ])));
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
    // The wait between admission and the first progress event is the
    // best queue-time proxy the wire has: the handler emits nothing
    // until a first cell completes.
    if let Some(first) = first_event_us {
        let waited = first.saturating_sub(started_us);
        inner.record_span(token, started_us, waited, SpanKind::Queued);
    }
    let ran = inner.now_us().saturating_sub(started_us);
    let run = SpanKind::Run {
        kind,
        exit_code: result.exit_code.unsigned_abs(),
        cache_hits: result.cache_hits,
        simulated: result.simulated,
    };
    inner.record_span(token, started_us, ran, run);
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
    // Finished and filed under one registry lock, so a client that has
    // read the result finds the registry already bounded.
    let mut requests = relock(&inner.registry);
    entry.finish(line);
    requests.retire(token, entry);
}

/// Observes one handler progress event before it is recorded: updates
/// the entry's progress watermark for the `/status` request table,
/// records a per-worker cell span, and — for an event that carries the
/// cell's `took_s` — feeds the series ring and logs a structured record
/// when the cell exceeded the slow-cell threshold. Analyze's
/// per-strategy events carry no time; counting them as 0 ms cells
/// would drag the rolling cell percentiles and the threshold down.
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
    let took_s = event.get("took_s").and_then(Value::as_f64);
    let worker = event.get("worker").and_then(Value::as_u64).unwrap_or(0);
    let took_us = (took_s.unwrap_or(0.0) * 1e6) as u64;
    let cell = SpanKind::Cell {
        worker,
        label: workload,
        done,
        total,
    };
    inner.record_span(token, now_us.saturating_sub(took_us), took_us, cell);
    let Some(took_s) = took_s else {
        return;
    };
    let took_ms = (took_s * 1e3) as u64;
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
    // Finished entries do not capture duplicates — re-asking a settled
    // question runs fresh (and answers warm from the store anyway).
    let entry = {
        let mut reg = relock(&inner.registry);
        match reg.by_token.get(&token) {
            Some(live) if !live.is_done() => {
                let live = Arc::clone(live);
                drop(reg);
                inner.metrics.add(Slot::ResumedStreams, 1);
                return stream_entry(out, &live, &token, 0, inner);
            }
            _ => {
                let entry = Arc::new(RequestEntry::new(kind));
                reg.admit(token.clone(), Arc::clone(&entry));
                entry
            }
        }
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
    stream_entry(out, &entry, &token, 0, inner)
}

/// Streams `entry` to `out` from event index `from`: the `accepted`
/// handshake, every already-recorded event past `from`, then live
/// events as the batch records them, until the entry is done. Every
/// attempt records a `stream` span on the streams lane, one the client
/// cut short included.
fn stream_entry(
    out: &mut TcpStream,
    entry: &RequestEntry,
    token: &str,
    from: usize,
    inner: &Inner,
) -> io::Result<()> {
    let stream_start_us = inner.now_us();
    let mut at = from;
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
    let sent = SpanKind::Stream {
        from: from as u64,
        events: (at - from) as u64,
    };
    inner.record_span(token, stream_start_us, streamed, sent);
    delivered
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
    let entry = relock(&inner.registry).by_token.get(&token).map(Arc::clone);
    let Some(entry) = entry else {
        let body = Value::Obj(vec![
            ("error".into(), Value::str("unknown-token")),
            ("token".into(), Value::str(&token)),
        ])
        .render();
        return http::write_response(out, 404, "application/json", body.as_bytes());
    };
    let from = if run == run_id() { have } else { 0 };
    inner.metrics.add(Slot::ResumedStreams, 1);
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

/// Live (unfinished) requests, oldest first and at most 64, for
/// `ctcp top`'s table.
fn live_requests(inner: &Inner) -> Vec<Value> {
    let mut requests: Vec<(u64, Value)> = relock(&inner.registry)
        .by_token
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
            _token: &str,
            progress: &mut dyn FnMut(&Value),
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
            })
        }

        fn stats(&self) -> HandlerStats {
            HandlerStats {
                workers: 2,
                journal_bytes: 2048,
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
    fn a_nesting_bomb_gets_a_400_and_the_daemon_keeps_serving() {
        let _g = crate::testutil::fail_points_held();
        let (addr, worker, _q) = start_service();
        // 64 KiB of `[` would overflow a connection thread's stack and
        // abort the process without the parser's depth cap.
        let bomb = vec![b'['; 64 << 10];
        for path in ["/sweep", "/resume"] {
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

    /// 256 progress events of 64 KiB each: far more than a loopback
    /// peer that never reads can absorb (a few MB).
    struct FloodHandler;

    impl Handler for FloodHandler {
        fn run(
            &self,
            _kind: RequestKind,
            _body: &Value,
            _token: &str,
            progress: &mut dyn FnMut(&Value),
        ) -> Result<RunResult, HandlerError> {
            let pad = "x".repeat(64 << 10);
            for done in 1..=256u64 {
                progress(&Value::Obj(vec![
                    ("event".into(), Value::str("progress")),
                    ("done".into(), Value::u64(done)),
                    ("total".into(), Value::u64(256)),
                    ("pad".into(), Value::str(&pad)),
                ]));
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
            _token: &str,
            _progress: &mut dyn FnMut(&Value),
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
            _token: &str,
            _progress: &mut dyn FnMut(&Value),
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
            progress: &mut dyn FnMut(&Value),
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
        assert_eq!(summary.count("counters.serve_resumed_streams"), 2);
    }

    #[test]
    fn the_registry_forgets_the_oldest_finished_requests_first() {
        let _g = crate::testutil::fail_points_held();
        let (handler, _q) = MockHandler::new();
        let svc = Service::bind("127.0.0.1:0", Box::new(handler)).unwrap();
        let inner = Arc::clone(&svc.inner);
        let addr = svc.local_addr().to_string();
        let worker = std::thread::spawn(move || svc.run().expect("service run"));
        let bodies: Vec<String> = (0..FINISHED_KEPT + 8)
            .map(|i| format!("{{\"grid\":{i}}}"))
            .collect();
        for body in &bodies {
            let resp =
                http::request(&addr, "POST", "/sweep", body.as_bytes(), &mut |_| {}).unwrap();
            assert_eq!(resp.status, 200);
        }
        {
            let reg = relock(&inner.registry);
            assert_eq!(reg.by_token.len(), FINISHED_KEPT);
            assert_eq!(reg.finished.len(), FINISHED_KEPT);
        }
        let resume = |body: &str| {
            let token = resume_token(RequestKind::Sweep, body);
            let req = format!("{{\"token\":\"{token}\",\"have\":0,\"run\":0}}");
            http::request(&addr, "POST", "/resume", req.as_bytes(), &mut |_| {}).unwrap()
        };
        let oldest = resume(&bodies[0]);
        assert_eq!(oldest.status, 404);
        let v = Value::parse(std::str::from_utf8(&oldest.body).unwrap()).unwrap();
        assert_eq!(v.get("error").unwrap().as_str(), Some("unknown-token"));
        let newest = resume(bodies.last().unwrap());
        assert_eq!(newest.status, 200);
        let events = parse_events(&newest.body);
        assert_eq!(events.len(), 4, "handshake + 2 progress + result");
        assert_eq!(
            events[3].get("output").unwrap().as_str(),
            Some(format!("Sweep: {}", bodies.last().unwrap()).as_str())
        );

        // Re-running a finished request replaces its entry: the kept
        // entries are still the newest distinct ones, and forgetting
        // the replaced run leaves the token to the newer one.
        let newest = bodies.last().unwrap();
        let token = resume_token(RequestKind::Sweep, newest);
        let replaced = Arc::clone(&relock(&inner.registry).by_token[&token]);
        http::request(&addr, "POST", "/sweep", newest.as_bytes(), &mut |_| {}).unwrap();
        http::request(&addr, "POST", "/shutdown", b"", &mut |_| {}).unwrap();
        worker.join().unwrap();
        let mut reg = relock(&inner.registry);
        reg.forget(&token, &replaced);
        assert!(!Arc::ptr_eq(&reg.by_token[&token], &replaced));
        assert_eq!(reg.by_token.len(), FINISHED_KEPT);
        assert_eq!(reg.finished.len(), FINISHED_KEPT);
        assert!(reg
            .finished
            .iter()
            .all(|(t, e)| Arc::ptr_eq(e, &reg.by_token[t])));
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
        assert_eq!(summary.count("counters.serve_journal_replayed"), 1);
        assert_eq!(summary.count("counters.serve_resumed_streams"), 1);
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
        assert_eq!(counters, 10, "the ten serve_* counters");
        assert_eq!(prom_get(&samples, "ctcp_workers"), 2.0);
        assert_eq!(prom_get(&samples, "ctcp_store_read_only"), 0.0);
        assert_eq!(prom_get(&samples, "ctcp_journal_bytes"), 2048.0);
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
            progress: &mut dyn FnMut(&Value),
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
    fn untimed_progress_events_advance_requests_but_not_the_cell_window() {
        let _g = crate::testutil::fail_points_held();
        let (handler, _q) = MockHandler::new();
        let svc = Service::bind("127.0.0.1:0", Box::new(handler)).unwrap();
        // An untimed event still moves its request's progress.
        let entry = RequestEntry::new(RequestKind::Analyze);
        let event = Value::Obj(vec![
            ("event".into(), Value::str("progress")),
            ("done".into(), Value::u64(1)),
            ("total".into(), Value::u64(3)),
        ]);
        observe_progress_event(&svc.inner, "t", &entry, &event, 0);
        let st = relock(&entry.state);
        assert_eq!((st.cells_done, st.cells_total), (1, 3));
        drop(st);
        // A batch of them — MockHandler's two events carry no `took_s` —
        // adds no cells to the rolling window.
        let addr = svc.local_addr().to_string();
        let worker = std::thread::spawn(move || svc.run().expect("service run"));
        http::request(&addr, "POST", "/analyze", b"{}", &mut |_| {}).unwrap();
        let resp = http::request(&addr, "GET", "/status", b"", &mut |_| {}).unwrap();
        let v = Value::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        let rolling = v.get("rolling").unwrap();
        assert_eq!(rolling.get("cells").unwrap().as_u64(), Some(0));
        assert_eq!(rolling.get("requests").unwrap().as_u64(), Some(1));
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
