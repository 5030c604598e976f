//! Cell-level scheduler: one resident worker pool serving the
//! simulation cells of many concurrent requests fairly. Every
//! [`Harness`](crate::Harness) batch runs here — a one-shot sweep on a
//! pool of its own, the sweep service on one shared by every request.
//!
//! The sweep service used to serialise whole batches behind a handler
//! mutex: one long sweep blocked every other client. This module
//! inverts that. A [`CellScheduler`] owns a fixed pool of resident
//! worker threads fed by a *fair* queue of cells: each in-flight
//! request keeps its own FIFO of pending cells, and a round-robin ring
//! over request ids hands workers **one cell per request per turn** —
//! so a small sweep is never starved behind a 96-cell one; it waits
//! for at most one cell per request ahead of it in the ring.
//!
//! Results are routed back to the submitting request over a private
//! channel (one per submission), so every request collects its own
//! cells — store writes, metrics lines and progress events stay on the
//! submitting thread, and final outputs remain byte-identical to
//! building each simulation directly.
//!
//! Workers recycle engine storage across cells: each keeps one
//! [`BatchRunner`] for its whole life, whatever programs its cells
//! run. Warmup checkpoints belong to the pool: one [`CheckpointCache`]
//! serves every worker, request and batch, so each `(program, warmup)`
//! is fast-forwarded once per pool, however the fair ring interleaves
//! requests over different programs.
//!
//! Admission control is a bound on the *queued* (not running) cell
//! count: [`CellScheduler::submit`] atomically rejects a request whose
//! cells would push the queue past the limit, returning [`Saturated`]
//! so the service can answer 503 before streaming anything. An
//! admitted cell always runs: [`CellScheduler::shutdown`] stops
//! admissions, lets workers drain every queued cell, and joins them.

use crate::{run_cell, Job, JobError};
use ctcp_sim::{BatchRunner, CheckpointCache};
use std::collections::{HashMap, VecDeque};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Worker panics tolerated on one cell key before the supervisor
/// quarantines it: later pickups short-circuit to
/// [`JobError::CellPoisoned`] instead of burning another worker. Two
/// means one organic attempt plus one retry — a deterministic
/// crasher trips it within a single default-retry request, which
/// still reports the panic itself.
pub(crate) const POISON_PANICS: u32 = 2;

/// One unit of scheduled work: a cell of some request's batch,
/// self-contained (the job is owned) so it can outlive the submitting
/// scope.
pub(crate) struct Cell {
    /// The cell's position in the submitter's job list, echoed back in
    /// [`CellDone`] so results land in the right slot.
    pub index: usize,
    /// The job to run.
    pub job: Job,
    /// The job's content key, computed once by the submitter.
    pub key: u64,
    /// Whether a metrics recorder rides along.
    pub with_metrics: bool,
    /// Critical-path edges an attributed cell keeps; `None` collects
    /// no attribution.
    pub attrib: Option<usize>,
    /// Transient-failure retry budget.
    pub retries: u32,
}

/// A worker's report back to the submitter: one cell ran to completion
/// (success or typed failure).
pub(crate) struct CellDone {
    /// `Cell::index` of the finished cell.
    pub index: usize,
    /// The run's outcome. Boxed: a `SimReport` is large, and the
    /// channel stores its messages inline.
    pub result: Box<Result<(ctcp_sim::SimReport, Option<String>), JobError>>,
    /// Retries actually performed.
    pub retries: u32,
    /// Wall time of the final attempt, for progress display.
    pub took: Duration,
    /// Index of the pool worker that ran the cell (`0..workers`),
    /// threaded into progress events so the service can lay request
    /// spans out on per-worker lanes.
    pub worker: usize,
}

/// Admission was refused: the shared queue is at its configured bound.
/// Carries the numbers a 503 body wants to report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Saturated {
    /// Cells queued (not yet running) at the moment of rejection.
    pub queued: usize,
    /// Cells the rejected request wanted to add.
    pub wanted: usize,
    /// The configured admission limit.
    pub limit: usize,
}

impl std::fmt::Display for Saturated {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "scheduler saturated: {} cells queued + {} requested > limit {}",
            self.queued, self.wanted, self.limit
        )
    }
}

impl std::error::Error for Saturated {}

/// Point-in-time scheduler load, for `/status`.
#[derive(Debug, Default, Clone, Copy)]
pub struct SchedStats {
    /// Resident worker threads in the pool.
    pub workers: usize,
    /// Cells queued and not yet picked up by a worker.
    pub queued: usize,
    /// Cells currently executing on a worker.
    pub running: usize,
    /// Fresh-arena worker respawns after panics, cumulative (each
    /// caught panic discards the torn runner state and rebuilds).
    pub respawns: u64,
    /// Pickups refused with [`JobError::CellPoisoned`], cumulative.
    pub poisoned: u64,
    /// Warmup checkpoints the pool captured, cumulative.
    pub checkpoint_captures: u64,
    /// Warmed cells that found their checkpoint already captured,
    /// cumulative.
    pub checkpoint_hits: u64,
    /// Bytes of warmup checkpoints the pool holds now.
    pub checkpoint_bytes: u64,
}

/// One request's slice of the shared queue.
struct RequestQueue {
    cells: VecDeque<Cell>,
    tx: mpsc::Sender<CellDone>,
}

/// Mutex-protected scheduler state: per-request FIFOs plus the
/// round-robin ring that makes the pool fair. Invariant: a request id
/// is in `requests` iff it has at least one queued cell, and then it
/// appears in `ring` exactly once.
struct SchedState {
    requests: HashMap<u64, RequestQueue>,
    ring: VecDeque<u64>,
    next_request: u64,
    shutdown: bool,
}

struct SchedInner {
    state: Mutex<SchedState>,
    work: Condvar,
    workers: usize,
    max_queue: usize,
    queued: AtomicUsize,
    running: AtomicUsize,
    respawns: AtomicU64,
    poisoned: AtomicU64,
    /// Cumulative worker panics per cell key — the quarantine ledger.
    panics: Mutex<HashMap<u64, u32>>,
    /// The pool's warmup checkpoints, shared by every worker.
    checkpoints: CheckpointCache,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl SchedInner {
    fn lock(&self) -> std::sync::MutexGuard<'_, SchedState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The key's panic count when it is quarantined, else `None`.
    fn poison_of(&self, key: u64) -> Option<u32> {
        self.panics
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&key)
            .copied()
            .filter(|&c| c >= POISON_PANICS)
    }

    /// Books `n` more panics against `key`, returning the new total.
    fn note_panics(&self, key: u64, n: u32) -> u32 {
        let mut ledger = self.panics.lock().unwrap_or_else(PoisonError::into_inner);
        let count = ledger.entry(key).or_insert(0);
        *count += n;
        *count
    }

    /// Blocks for the next cell in fair order: the front request of the
    /// ring gives up one cell and rotates to the back. `None` once the
    /// scheduler is shutting down *and* the queue is dry.
    fn next_cell(&self) -> Option<(Cell, mpsc::Sender<CellDone>)> {
        let mut st = self.lock();
        loop {
            if let Some(id) = st.ring.pop_front() {
                let rq = st.requests.get_mut(&id).expect("ring entry has a queue");
                let cell = rq.cells.pop_front().expect("queued request has cells");
                let tx = rq.tx.clone();
                if rq.cells.is_empty() {
                    st.requests.remove(&id);
                } else {
                    st.ring.push_back(id);
                }
                self.queued.fetch_sub(1, Ordering::Relaxed);
                return Some((cell, tx));
            }
            if st.shutdown {
                return None;
            }
            st = self.work.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// A shared, fair, resident cell scheduler. Cloning the handle is
/// cheap (`Arc` inside); every clone feeds the same pool.
pub struct CellScheduler {
    inner: Arc<SchedInner>,
}

impl Clone for CellScheduler {
    fn clone(&self) -> CellScheduler {
        CellScheduler {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl CellScheduler {
    /// Starts a pool of `workers` resident threads (`0` = auto:
    /// available parallelism). `max_queue` bounds the queued-cell count
    /// for admission control; `0` means unbounded.
    pub fn start(workers: usize, max_queue: usize) -> CellScheduler {
        let workers = if workers > 0 {
            workers
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        };
        let inner = Arc::new(SchedInner {
            state: Mutex::new(SchedState {
                requests: HashMap::new(),
                ring: VecDeque::new(),
                next_request: 0,
                shutdown: false,
            }),
            work: Condvar::new(),
            workers,
            max_queue,
            queued: AtomicUsize::new(0),
            running: AtomicUsize::new(0),
            respawns: AtomicU64::new(0),
            poisoned: AtomicU64::new(0),
            panics: Mutex::new(HashMap::new()),
            checkpoints: CheckpointCache::new(),
            handles: Mutex::new(Vec::new()),
        });
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let inner = Arc::clone(&inner);
            // Supervised worker: `run_cell` already catches
            // per-cell panics, so this outer boundary only fires on a
            // scheduler bug — but even then the pool must not shrink,
            // so the supervisor respawns the loop instead of dying.
            handles.push(std::thread::spawn(move || loop {
                match std::panic::catch_unwind(AssertUnwindSafe(|| worker_loop(&inner, w))) {
                    Ok(()) => return,
                    Err(_) => {
                        inner.respawns.fetch_add(1, Ordering::Relaxed);
                        ctcp_telemetry::log::warn(
                            "sched",
                            "worker loop panicked; respawning",
                            &[("worker", ctcp_telemetry::json::Value::u64(w as u64))],
                        );
                    }
                }
            }));
        }
        *inner.handles.lock().unwrap_or_else(PoisonError::into_inner) = handles;
        CellScheduler { inner }
    }

    /// Atomically admits one request's cells (all or nothing) and
    /// returns the channel their results arrive on. With an admission
    /// limit configured, a request whose cells would push the queued
    /// count past it is rejected with [`Saturated`] — nothing is
    /// enqueued. A scheduler that is shutting down rejects everything
    /// (reported as saturated with the current queue numbers).
    ///
    /// The receiver yields one [`CellDone`] per cell; a `recv` error
    /// before that means every worker-side sender is gone, i.e. the
    /// pool died.
    pub(crate) fn submit(&self, cells: Vec<Cell>) -> Result<mpsc::Receiver<CellDone>, Saturated> {
        let wanted = cells.len();
        let (tx, rx) = mpsc::channel();
        {
            let mut st = self.inner.lock();
            let queued = self.inner.queued.load(Ordering::Relaxed);
            let limit = self.inner.max_queue;
            if st.shutdown || (limit > 0 && queued + wanted > limit) {
                return Err(Saturated {
                    queued,
                    wanted,
                    limit,
                });
            }
            let id = st.next_request;
            st.next_request += 1;
            // An empty batch is admissible but never enters the ring —
            // the map/ring invariant requires at least one queued cell.
            if wanted > 0 {
                self.inner.queued.fetch_add(wanted, Ordering::Relaxed);
                st.requests.insert(
                    id,
                    RequestQueue {
                        cells: cells.into(),
                        tx,
                    },
                );
                st.ring.push_back(id);
                self.inner.work.notify_all();
            }
            Ok(rx)
        }
    }

    /// Current load numbers.
    pub fn stats(&self) -> SchedStats {
        SchedStats {
            workers: self.inner.workers,
            queued: self.inner.queued.load(Ordering::Relaxed),
            running: self.inner.running.load(Ordering::Relaxed),
            respawns: self.inner.respawns.load(Ordering::Relaxed),
            poisoned: self.inner.poisoned.load(Ordering::Relaxed),
            checkpoint_captures: self.inner.checkpoints.captures(),
            checkpoint_hits: self.inner.checkpoints.hits(),
            checkpoint_bytes: self.inner.checkpoints.resident_bytes() as u64,
        }
    }

    /// Graceful drain: stops admitting new requests, lets the pool run
    /// every already-queued cell to completion, and joins the worker
    /// threads. Safe to call more than once; later calls are no-ops.
    pub fn shutdown(&self) {
        {
            let mut st = self.inner.lock();
            st.shutdown = true;
        }
        self.inner.work.notify_all();
        let handles = std::mem::take(
            &mut *self
                .inner
                .handles
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        );
        for h in handles {
            let _ = h.join();
        }
    }
}

/// The resident worker body: run cells from the fair queue on one
/// [`BatchRunner`], routing each result home, until shutdown *and* the
/// queue is dry.
fn worker_loop(inner: &SchedInner, worker: usize) {
    let mut runner = BatchRunner::new();
    while let Some(picked) = inner.next_cell() {
        run_picked(inner, worker, &mut runner, picked);
    }
}

/// Runs one picked cell on `runner` and sends its outcome home. A key
/// the panic ledger has quarantined is refused without running; the
/// request whose attempts trip the quarantine still gets its panic.
fn run_picked(
    inner: &SchedInner,
    worker: usize,
    runner: &mut BatchRunner,
    (cell, tx): (Cell, mpsc::Sender<CellDone>),
) {
    let key = cell.key;
    let t = Instant::now();
    let (result, retries) = if let Some(panics) = inner.poison_of(key) {
        inner.poisoned.fetch_add(1, Ordering::Relaxed);
        (Err(JobError::CellPoisoned { panics }), 0)
    } else {
        inner.running.fetch_add(1, Ordering::Relaxed);
        let ran = run_cell(
            runner,
            &inner.checkpoints,
            &cell.job,
            cell.with_metrics,
            cell.attrib,
            cell.retries,
        );
        inner.running.fetch_sub(1, Ordering::Relaxed);
        ran
    };
    // Supervision bookkeeping. Panics are the only transient failure,
    // so `retries` counts retried panics; each one replaced the runner
    // with a fresh arena — that rebuild is the "respawn" the counter
    // reports.
    let panics = retries + u32::from(matches!(result, Err(JobError::Panic(_))));
    if panics > 0 {
        inner
            .respawns
            .fetch_add(u64::from(panics), Ordering::Relaxed);
        let total = inner.note_panics(key, panics);
        if total >= POISON_PANICS {
            ctcp_telemetry::log::warn(
                "sched",
                "cell quarantined after repeated panics",
                &[
                    (
                        "key",
                        ctcp_telemetry::json::Value::str(&format!("{key:016x}")),
                    ),
                    (
                        "workload",
                        ctcp_telemetry::json::Value::str(&cell.job.workload),
                    ),
                    ("panics", ctcp_telemetry::json::Value::u64(u64::from(total))),
                    ("worker", ctcp_telemetry::json::Value::u64(worker as u64)),
                ],
            );
        }
    }
    let _ = tx.send(CellDone {
        index: cell.index,
        result: Box::new(result),
        retries,
        took: t.elapsed(),
        worker,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::tiny_program;
    use ctcp_sim::SimConfig;

    fn cell(index: usize, budget: u64) -> Cell {
        let config = SimConfig {
            max_insts: budget,
            ..SimConfig::default()
        };
        let job = Job::new("spin", tiny_program(), config);
        Cell {
            index,
            key: job.key(),
            job,
            with_metrics: false,
            attrib: None,
            retries: 0,
        }
    }

    /// Receives `expect` cells, asserting each succeeded.
    fn drain(rx: &mpsc::Receiver<CellDone>, expect: usize) {
        for _ in 0..expect {
            assert!(rx.recv().expect("pool alive").result.is_ok());
        }
    }

    #[test]
    fn concurrent_requests_all_complete() {
        let sched = CellScheduler::start(2, 0);
        let receivers: Vec<_> = (0..3)
            .map(|_| {
                sched
                    .submit((0..4).map(|i| cell(i, 500 + i as u64)).collect())
                    .expect("unbounded queue admits")
            })
            .collect();
        for rx in &receivers {
            drain(rx, 4);
        }
        let stats = sched.stats();
        assert_eq!((stats.queued, stats.running), (0, 0));
        sched.shutdown();
    }

    #[test]
    fn admission_limit_rejects_oversized_requests_atomically() {
        // One worker, and a first request large enough that cells are
        // still queued when the second arrives.
        let sched = CellScheduler::start(1, 4);
        let first = sched
            .submit((0..4).map(|i| cell(i, 50_000)).collect())
            .expect("fits the bound exactly");
        let refused = sched.submit(vec![cell(0, 500), cell(1, 500)]);
        match refused {
            Err(sat) => {
                assert_eq!(sat.limit, 4);
                assert_eq!(sat.wanted, 2);
                assert!(sat.queued + sat.wanted > sat.limit, "{sat}");
            }
            Ok(_) => panic!("second request must be refused while queue is full"),
        }
        drain(&first, 4);
        // Queue drained: the same request is now admissible.
        let retry = sched
            .submit(vec![cell(0, 500), cell(1, 500)])
            .expect("drained queue admits");
        drain(&retry, 2);
        sched.shutdown();
    }

    #[test]
    fn shutdown_drains_queued_cells_then_refuses() {
        let sched = CellScheduler::start(1, 0);
        let rx = sched
            .submit((0..6).map(|i| cell(i, 2_000)).collect())
            .unwrap();
        sched.shutdown();
        // Every queued cell still completed — drain means no lost work.
        drain(&rx, 6);
        assert!(sched.submit(vec![cell(0, 500)]).is_err());
    }

    #[test]
    fn repeated_panics_poison_only_the_offending_cell() {
        let _g = crate::testutil::fail_points_held();
        ctcp_telemetry::failpoint::set(Some("job-panic=crasher"));
        let sched = CellScheduler::start(1, 0);
        let crasher = || {
            let job = Job::new(
                "crasher",
                tiny_program(),
                SimConfig {
                    max_insts: 500,
                    ..SimConfig::default()
                },
            );
            Cell {
                index: 2,
                key: job.key(),
                job,
                with_metrics: false,
                attrib: None,
                retries: 1, // two panics total: exactly the poison budget
            }
        };
        let rx = sched
            .submit(vec![cell(0, 500), cell(1, 500), crasher()])
            .unwrap();
        let (mut ok, mut panicked) = (0, 0);
        for _ in 0..3 {
            let done = rx.recv().expect("pool alive");
            match *done.result {
                Ok(_) => ok += 1,
                // The request that ran the attempts sees the panic
                // itself, not the quarantine it tripped.
                Err(JobError::Panic(msg)) => {
                    assert_eq!(done.index, 2, "only the crasher panics");
                    assert!(msg.contains("fail point job-panic"), "{msg}");
                    assert_eq!(done.retries, 1);
                    panicked += 1;
                }
                Err(e) => panic!("unexpected outcome: {e}"),
            }
        }
        assert_eq!((ok, panicked), (2, 1));
        let stats = sched.stats();
        assert!(stats.respawns >= 2, "each caught panic respawns the arena");
        assert_eq!(stats.poisoned, 0, "nothing was refused yet");
        // The quarantined key now short-circuits without running.
        let rx = sched.submit(vec![crasher()]).unwrap();
        match *rx.recv().expect("pool alive").result {
            Err(JobError::CellPoisoned { panics }) => assert!(panics >= POISON_PANICS),
            other => panic!("expected a refused pickup, got {other:?}"),
        }
        assert_eq!(sched.stats().poisoned, 1);
        ctcp_telemetry::failpoint::set(None);
        sched.shutdown();
    }

    #[test]
    fn round_robin_interleaves_a_small_request_past_a_big_one() {
        // One worker, a 12-cell request submitted first, then a 2-cell
        // request. Fair interleaving must finish the small request
        // after at most a handful of big-request cells — strictly FIFO
        // scheduling would run all 12 first.
        let sched = CellScheduler::start(1, 0);
        let big = sched
            .submit((0..12).map(|i| cell(i, 20_000)).collect())
            .unwrap();
        let small = sched.submit(vec![cell(0, 1_000), cell(1, 1_000)]).unwrap();
        let mut big_done = 0usize;
        let mut small_done = 0usize;
        // Poll both receivers without blocking on the big one.
        while small_done < 2 {
            if small.try_recv().is_ok() {
                small_done += 1;
            }
            if big.try_recv().is_ok() {
                big_done += 1;
            }
            std::thread::yield_now();
        }
        assert!(
            big_done < 12,
            "small request must complete before the big one drains"
        );
        drain(&big, 12 - big_done);
        sched.shutdown();
    }
}
