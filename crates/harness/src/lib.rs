//! # ctcp-harness — parallel sweep runner for the CTCP simulator
//!
//! Experiments in this workspace are grids: benchmarks × strategies ×
//! configurations, where every cell is an independent, deterministic
//! simulation. This crate owns the execution of those grids so the
//! experiment code only *describes* cells and *renders* tables.
//!
//! ## Job model
//!
//! A [`Job`] is one cell: a workload name, a shared [`Program`], and a
//! complete [`SimConfig`] (which carries the strategy and the
//! instruction budget). [`Harness::run`] executes a batch of jobs and
//! returns one [`SimReport`] per job **in job order**, regardless of
//! how many worker threads ran them — reports are collected into slots
//! indexed by job position, so downstream table rendering is
//! byte-identical at any parallelism.
//!
//! ## Memoization
//!
//! With a [`ResultStore`] attached, each job's content key
//! ([`job_key`]: FNV-1a 64 over a format-version salt, the workload
//! name, and the full `Debug` rendering of the config) is looked up
//! before simulating; hits skip the simulator entirely, and fresh
//! results are appended to the store's JSON-lines file as they
//! complete. Duplicate keys *within* a batch are also coalesced: the
//! cell is simulated once and the report is copied to every position
//! that asked for it.
//!
//! ## Execution
//!
//! Every batch runs on a [`CellScheduler`]: the shared one attached
//! with [`Harness::with_scheduler`], or else the harness's own pool of
//! [`Harness::effective_jobs`] workers, started on the first batch with
//! cells to simulate, reused across batches and shut down on drop. At
//! `--jobs 1` the single worker runs a batch's cells in job order.
//! Workers are resident [`BatchRunner`]s: consecutive cells on one
//! worker recycle a single engine arena, and the pool's one
//! [`CheckpointCache`] captures each `(program, warmup)` fast-forward
//! once, so a sweep pays for allocation once per worker and for warmup
//! once per pool rather than once per cell. Reports are byte-identical
//! to building each simulation directly.
//!
//! ## Fault tolerance
//!
//! Every job runs behind an isolation boundary: a panic (simulator
//! bug), a typed simulation abort (watchdog trip, cycle budget) or an
//! invalid configuration fails *that job* — never the worker, never
//! the batch. [`Harness::try_run`] returns one [`JobOutcome`] per job;
//! panics are retried with linear backoff, [`DEFAULT_RETRIES`] times.
//! The infallible [`Harness::run`] keeps its historical signature by
//! panicking with the rendered [`failure_table`] — but only after the
//! whole batch has run and every successful cell is in the store.
//!
//! ## Progress
//!
//! When stderr is a terminal (or when forced on), a single rewriting
//! status line shows completed/total, jobs/sec, the wall time of the
//! last finished job, and an ETA. Tables on stdout are never touched.
//!
//! ## Example
//!
//! ```
//! use ctcp_harness::{Harness, Job};
//! use ctcp_isa::{ProgramBuilder, Reg};
//! use ctcp_sim::SimConfig;
//! use std::sync::Arc;
//!
//! let mut b = ProgramBuilder::new();
//! let top = b.here();
//! b.addi(Reg::R1, Reg::R1, 1);
//! b.jmp(top);
//! let program = Arc::new(b.build());
//!
//! let mut config = SimConfig::default();
//! config.max_insts = 2_000;
//! let jobs: Vec<Job> = (0..4)
//!     .map(|_| Job::new("spin", Arc::clone(&program), config))
//!     .collect();
//!
//! let mut harness = Harness::new().jobs(2).progress(false);
//! let reports = harness.run(&jobs);
//! assert_eq!(reports.len(), 4);
//! // All four cells share one key, so only one was simulated.
//! assert_eq!(harness.last_batch().simulated, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod journal;
mod progress;
mod sched;
mod spec;
mod store;

pub use journal::{Journal, PendingRequest, JOURNAL_FORMAT_VERSION};
pub use progress::{ProgressSink, StderrProgress};
pub use sched::{CellScheduler, Saturated, SchedStats};
pub use spec::{SpecError, SweepCell, SweepPlan, SweepSpec};
pub use store::{
    compact, crc32, gc, job_key, verify, CompactReport, GcReport, ResultStore, StoreStats,
    VerifyReport, STORE_FORMAT_VERSION,
};

use ctcp_isa::Program;
use ctcp_sim::{
    BatchError, BatchRunner, CheckpointCache, SimConfig, SimError, SimReport, Simulation,
};
use ctcp_telemetry::{
    failpoint, metrics_line, Counter, Metrics, Recorder, RecorderConfig, DEFAULT_TOP_EDGES,
};
use std::collections::HashMap;
use std::io::Write;
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Transient failures (panics) are re-attempted this many times, with
/// linear backoff, before the job is reported as
/// [`JobOutcome::Failed`]. Deterministic failures — invalid
/// configuration, watchdog trips — are never retried.
pub const DEFAULT_RETRIES: u32 = 1;

/// Linear backoff unit between re-attempts of a transient failure:
/// attempt `n` sleeps `n *` this first.
const RETRY_BACKOFF: Duration = Duration::from_millis(25);

/// One unit of work: simulate `program` under `config`.
///
/// The workload name participates in the content key and in progress
/// output; two jobs with the same name but different programs MUST
/// differ somewhere in `config` (in this workspace the workload seed
/// and parameters are part of the benchmark definition, so the name
/// uniquely determines the program).
#[derive(Clone)]
pub struct Job {
    /// Benchmark name (e.g. `"gzip"`), used for keying and display.
    pub workload: String,
    /// The program to simulate, shared across jobs without copying.
    pub program: Arc<Program>,
    /// Full simulator configuration, including strategy and budget.
    pub config: SimConfig,
}

impl Job {
    /// Builds a job.
    pub fn new(workload: impl Into<String>, program: Arc<Program>, config: SimConfig) -> Job {
        Job {
            workload: workload.into(),
            program,
            config,
        }
    }

    /// The job's content key (see [`job_key`]).
    pub fn key(&self) -> u64 {
        job_key(&self.workload, &self.config)
    }

    /// Runs the cell through a worker's resident [`BatchRunner`], so the
    /// engine arena is recycled across cells. A warmed cell resumes from
    /// the pool's checkpoint for `(program, warmup)`, which `checkpoints`
    /// captures once and shares. Every way the cell can fail surfaces
    /// as a typed [`JobError`] — an invalid configuration is a *job*
    /// defect, never grounds to panic a shared worker thread. With
    /// `with_metrics` set, a metrics-only [`Recorder`] rides along and
    /// the second element is the rendered JSONL metrics line for this
    /// run. With `with_attrib` set, the
    /// simulation attributes its cycles itself
    /// ([`SimBuilder::attrib`](ctcp_sim::SimBuilder::attrib)) and the
    /// report comes back with `attrib` attached.
    fn try_simulate_with(
        &self,
        runner: &mut BatchRunner,
        checkpoints: &CheckpointCache,
        with_metrics: bool,
        with_attrib: bool,
    ) -> Result<(SimReport, Option<String>), JobError> {
        // Fault injection: the `job-panic` fail point panics inside the
        // job body — exactly where a simulator bug would — so the
        // isolation layer can be exercised end-to-end. The optional
        // argument `workload[:strategy]` confines the blast radius to
        // one cell of a sweep.
        if failpoint::is_active("job-panic") && self.matches_fail_point() {
            panic!(
                "fail point job-panic: injected failure in {}/{}",
                self.workload,
                self.config.strategy.name()
            );
        }
        let mut builder = Simulation::builder(&self.program).config(self.config);
        if self.config.warmup_insts > 0 {
            let checkpoint = checkpoints.get_or_capture(&self.program, self.config.warmup_insts);
            builder = builder.resume_from(&checkpoint);
        }
        if with_attrib {
            builder = builder.attrib(DEFAULT_TOP_EDGES);
        }
        let recorder = with_metrics.then(|| Rc::new(Recorder::new(RecorderConfig::metrics_only())));
        if let Some(recorder) = &recorder {
            builder = builder.recorder(Rc::clone(recorder));
        }
        let report = runner.try_run(builder).map_err(|e| match e {
            BatchError::Config(c) => JobError::InvalidConfig(c.to_string()),
            BatchError::Sim(s) => JobError::Sim(s),
        })?;
        let line = recorder
            .map(|recorder| metrics_line(&self.workload, &report.strategy, &recorder.metrics()));
        Ok((report, line))
    }

    /// Whether the `job-panic` fail point's argument selects this job.
    /// No argument selects every job; `workload` or `workload:strategy`
    /// (strategy as rendered by `Strategy::name`) narrows it.
    fn matches_fail_point(&self) -> bool {
        match failpoint::arg("job-panic") {
            None => true,
            Some(arg) => {
                let (workload, strategy) = match arg.split_once(':') {
                    Some((w, s)) => (w, Some(s)),
                    None => (arg.as_str(), None),
                };
                workload == self.workload
                    && strategy.is_none_or(|s| s == self.config.strategy.name())
            }
        }
    }
}

/// Why one job could not produce a report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// The configuration failed [`SimBuilder`](ctcp_sim::SimBuilder)
    /// validation (rendered [`ConfigError`](ctcp_sim::ConfigError)).
    /// Deterministic: never retried.
    InvalidConfig(String),
    /// The simulation aborted with a typed [`SimError`] (watchdog trip
    /// or cycle-budget exhaustion). Deterministic: never retried.
    Sim(SimError),
    /// The job panicked — a simulator bug, caught at the isolation
    /// boundary so it cannot take the worker (or the batch) down.
    /// Treated as transient and retried.
    Panic(String),
    /// The scheduler's pool died before the cell's result came back,
    /// so the batch lost it. Never retried.
    Lost,
    /// The batch was refused admission by a shared scheduler's queue
    /// bound before any of its cells ran. Never retried — the caller
    /// is expected to surface the rejection (the sweep service answers
    /// 503) rather than spin.
    Saturated(Saturated),
    /// The cell was quarantined by the scheduler's supervisor: earlier
    /// attempts at its key panicked repeatedly (across retries and
    /// respawned workers), so this pickup is refused instead of burning
    /// the pool. The request whose attempts tripped the quarantine got
    /// their [`JobError::Panic`]; later ones get this. The rest of the
    /// request proceeds normally — poison is per cell, never per
    /// request. Never retried.
    CellPoisoned {
        /// Worker panics observed on this cell's key before quarantine.
        panics: u32,
    },
}

impl JobError {
    /// Whether a retry could plausibly change the outcome.
    fn is_transient(&self) -> bool {
        matches!(self, JobError::Panic(_))
    }
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::InvalidConfig(e) => write!(f, "invalid configuration: {e}"),
            JobError::Sim(e) => write!(f, "simulation aborted: {e}"),
            JobError::Panic(msg) => write!(f, "panic: {msg}"),
            JobError::Lost => write!(f, "lost: the worker pool died before the cell finished"),
            JobError::Saturated(s) => write!(f, "rejected: {s}"),
            JobError::CellPoisoned { panics } => {
                write!(f, "poisoned: cell quarantined after {panics} worker panics")
            }
        }
    }
}

impl std::error::Error for JobError {}

/// A failed job together with its identity and retry history — enough
/// to render one row of a failure table without the original `Job`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobFailure {
    /// The job's workload name.
    pub workload: String,
    /// The job's strategy, as rendered by `Strategy::name`.
    pub strategy: String,
    /// The final error, after any retries.
    pub error: JobError,
    /// Re-attempts performed before giving up (or succeeding — a
    /// failure here means none of them worked).
    pub retries: u32,
}

/// What one job of a batch came to. Slot `i` of
/// [`Harness::try_run`]'s result describes job `i`, always.
#[derive(Debug, Clone)]
pub enum JobOutcome {
    /// The job produced a report — simulated, memoized, or copied from
    /// an identical job in the same batch. Boxed so the failure
    /// variants don't pay for the report's size.
    Ok(Box<SimReport>),
    /// The job (and every retry) failed.
    Failed(JobFailure),
    /// The job was coalesced onto the identical job at index `source`,
    /// which itself failed — so this one was never attempted.
    Skipped {
        /// Index of the failed job this one was coalesced onto.
        source: usize,
    },
}

impl JobOutcome {
    /// The report, when the job produced one.
    pub fn report(&self) -> Option<&SimReport> {
        match self {
            JobOutcome::Ok(r) => Some(r.as_ref()),
            _ => None,
        }
    }

    /// The failure, when the job failed outright (not [`Skipped`]).
    ///
    /// [`Skipped`]: JobOutcome::Skipped
    pub fn failure(&self) -> Option<&JobFailure> {
        match self {
            JobOutcome::Failed(f) => Some(f),
            _ => None,
        }
    }
}

/// Renders the failure rows of a batch — one line per [`Failed`] or
/// [`Skipped`] outcome, prefixed by a `N of M jobs failed:` heading —
/// or `None` when every job succeeded. [`Harness::run`] panics with
/// this text; `ctcp sweep` prints it before exiting non-zero.
///
/// [`Failed`]: JobOutcome::Failed
/// [`Skipped`]: JobOutcome::Skipped
pub fn failure_table(outcomes: &[JobOutcome]) -> Option<String> {
    let broken = outcomes
        .iter()
        .filter(|o| !matches!(o, JobOutcome::Ok(_)))
        .count();
    if broken == 0 {
        return None;
    }
    let mut out = format!("{broken} of {} jobs failed:\n", outcomes.len());
    for (i, outcome) in outcomes.iter().enumerate() {
        match outcome {
            JobOutcome::Ok(_) => {}
            JobOutcome::Failed(f) => {
                out.push_str(&format!(
                    "  #{i} {}/{}: {} [retries: {}]\n",
                    f.workload, f.strategy, f.error, f.retries
                ));
            }
            JobOutcome::Skipped { source } => {
                out.push_str(&format!("  #{i} skipped (duplicate of failed #{source})\n"));
            }
        }
    }
    Some(out)
}

/// Runs `job` on a worker's resident [`BatchRunner`] with the retry
/// policy: a panic is caught at this `catch_unwind` boundary and
/// re-attempted up to `max_retries` times with linear backoff;
/// deterministic failures return immediately. A panic also resets the
/// runner — its arena may have been torn mid-flight — so the retry (and
/// every later cell on this worker) starts from clean state. Shared
/// checkpoints need no reset: a cell only ever reads a clone of one.
/// The second element is the number of retries performed.
fn run_cell(
    runner: &mut BatchRunner,
    checkpoints: &CheckpointCache,
    job: &Job,
    with_metrics: bool,
    with_attrib: bool,
    max_retries: u32,
) -> (Result<(SimReport, Option<String>), JobError>, u32) {
    let mut retries = 0;
    loop {
        let reborrow = &mut *runner;
        let result = match std::panic::catch_unwind(AssertUnwindSafe(move || {
            job.try_simulate_with(reborrow, checkpoints, with_metrics, with_attrib)
        })) {
            Ok(r) => r,
            Err(payload) => {
                *runner = BatchRunner::new();
                // `&*`: downcast the payload, not the box holding it.
                Err(JobError::Panic(panic_message(&*payload)))
            }
        };
        match result {
            Err(e) if e.is_transient() && retries < max_retries => {
                retries += 1;
                std::thread::sleep(RETRY_BACKOFF * retries);
            }
            result => return (result, retries),
        }
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        "non-string panic payload".into()
    }
}

/// What happened to the most recent [`Harness::run`] batch.
#[derive(Debug, Default, Clone, Copy)]
pub struct BatchStats {
    /// Jobs submitted.
    pub total: usize,
    /// Jobs answered from the result store without simulating.
    pub store_hits: usize,
    /// Jobs coalesced onto an identical job earlier in the batch.
    pub deduped: usize,
    /// Jobs actually simulated.
    pub simulated: usize,
    /// Jobs that failed after exhausting their retries.
    pub failed: usize,
    /// Jobs never attempted because the identical job they coalesced
    /// onto failed.
    pub skipped: usize,
    /// Wall time of the whole batch.
    pub wall: Duration,
}

/// A reusable batch runner: worker pool + optional memoizing store +
/// progress reporting. See the crate docs for the overall model.
pub struct Harness {
    jobs: usize,
    store: Option<ResultStore>,
    pool: Option<Pool>,
    journal: Option<(Journal, String)>,
    progress: Option<bool>,
    metrics_out: Option<PathBuf>,
    metrics_file: Option<std::fs::File>,
    attrib: bool,
    telemetry: Metrics,
    last: BatchStats,
}

/// The scheduler a harness runs its batches on.
enum Pool {
    /// Attached by [`Harness::with_scheduler`]; its owner shuts it down.
    Shared(CellScheduler),
    /// Started by the harness itself, and shut down with it.
    Own(CellScheduler),
}

impl Drop for Pool {
    fn drop(&mut self) {
        if let Pool::Own(sched) = self {
            sched.shutdown();
        }
    }
}

impl Default for Harness {
    fn default() -> Self {
        Harness::new()
    }
}

impl Harness {
    /// A harness with auto parallelism, no store, and auto progress.
    pub fn new() -> Harness {
        Harness {
            jobs: 0,
            store: None,
            pool: None,
            journal: None,
            progress: None,
            metrics_out: None,
            metrics_file: None,
            attrib: false,
            telemetry: Metrics::new(),
            last: BatchStats::default(),
        }
    }

    /// Sets the worker count of the harness's own pool. `0` means auto
    /// (available parallelism); `1` runs every job in submission order
    /// on one worker thread. A shared scheduler keeps its own width.
    pub fn jobs(mut self, n: usize) -> Harness {
        self.jobs = n;
        self
    }

    /// Attaches a result store; subsequent batches memoize through it.
    pub fn with_store(mut self, store: ResultStore) -> Harness {
        self.telemetry
            .add(Counter::StoreQuarantined, store.stats().quarantined);
        self.store = Some(store);
        self
    }

    /// Runs this harness's batches on a shared [`CellScheduler`] instead
    /// of a pool of its own. Cells are interleaved fairly with every
    /// other request feeding the same pool; results, store writes and
    /// progress still land on the calling thread in the usual order, so
    /// outputs are byte-identical. Callers that configured an admission
    /// bound on the scheduler should run batches via
    /// [`Harness::try_run_admitted`] to observe rejections as a typed
    /// [`Saturated`] instead of failed outcomes.
    pub fn with_scheduler(mut self, sched: CellScheduler) -> Harness {
        self.pool = Some(Pool::Shared(sched));
        self
    }

    /// Attaches a request [`Journal`]: every cell this harness memoizes
    /// into the store is also marked in the journal under `token`, so
    /// a daemon restart knows which cells of the journaled request were
    /// already finished. Mark failures are best-effort (the store line
    /// is the authority; a lost mark only costs a redundant store hit).
    pub fn with_journal(mut self, journal: Journal, token: impl Into<String>) -> Harness {
        self.journal = Some((journal, token.into()));
        self
    }

    /// Streams one JSONL metrics record per **simulated** job to `path`
    /// (appending across batches). Jobs answered from the result store
    /// or coalesced onto a duplicate produce no metrics line — metrics
    /// come from a live [`Recorder`] riding along with the simulation,
    /// which a memoized report does not have.
    pub fn metrics_out(mut self, path: impl Into<PathBuf>) -> Harness {
        self.metrics_out = Some(path.into());
        self
    }

    /// Turns on cycle attribution: every simulated job attributes its
    /// cycles as it runs and its report comes back
    /// with [`SimReport::attrib`](ctcp_sim::SimReport) populated (a CPI
    /// stack plus critical-path summary). Store lines written before
    /// attribution existed — or by non-attrib runs — do not satisfy an
    /// attrib batch: such hits are rejected, the cell is re-simulated,
    /// and the refreshed line (a superset) overwrites the old one, so
    /// later batches of either kind hit. Off by default: attribution
    /// costs about 5% of a cell's time. Its memory does not grow with
    /// the cell's length, because the critical-path walk streams and
    /// holds only the links a later walk can still need.
    pub fn attrib(mut self, on: bool) -> Harness {
        self.attrib = on;
        self
    }

    /// Forces progress output on or off (default: on iff stderr is a
    /// terminal).
    pub fn progress(mut self, on: bool) -> Harness {
        self.progress = Some(on);
        self
    }

    /// The worker count a batch would use right now.
    pub fn effective_jobs(&self) -> usize {
        if self.jobs > 0 {
            self.jobs
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }

    /// The scheduler batches run on: the shared one, else this
    /// harness's own pool, started on first use.
    fn scheduler(&mut self) -> &CellScheduler {
        let workers = self.effective_jobs();
        match self
            .pool
            .get_or_insert_with(|| Pool::Own(CellScheduler::start(workers, 0)))
        {
            Pool::Shared(sched) | Pool::Own(sched) => sched,
        }
    }

    /// Statistics for the most recent batch.
    pub fn last_batch(&self) -> BatchStats {
        self.last
    }

    /// Counters of the attached store, if any.
    pub fn store_stats(&self) -> Option<StoreStats> {
        self.store.as_ref().map(ResultStore::stats)
    }

    /// The harness's own telemetry: `harness_job_failures`,
    /// `harness_retries` and `store_quarantined` counters, accumulated
    /// across batches.
    pub fn telemetry(&self) -> &Metrics {
        &self.telemetry
    }

    /// Runs a batch and returns one report per job, in job order.
    ///
    /// Execution order across workers is nondeterministic, but the
    /// returned vector is not: slot `i` always holds job `i`'s report,
    /// and each simulation is itself deterministic, so the output is
    /// identical for any worker count.
    ///
    /// # Panics
    ///
    /// Panics with the rendered [`failure_table`] when any job fails —
    /// but only **after** the whole batch has run, so every successful
    /// cell has already been memoized into the store and counted.
    /// Callers that want to keep going (the sweep command does) use
    /// [`Harness::try_run`] and handle the failures as data.
    pub fn run(&mut self, jobs: &[Job]) -> Vec<SimReport> {
        let outcomes = self.try_run(jobs);
        if let Some(table) = failure_table(&outcomes) {
            panic!("{table}");
        }
        outcomes
            .into_iter()
            .map(|o| match o {
                JobOutcome::Ok(r) => *r,
                _ => unreachable!("failure_table was None"),
            })
            .collect()
    }

    /// Runs a batch with per-job fault isolation and returns one
    /// [`JobOutcome`] per job, in job order.
    ///
    /// Each job runs behind a `catch_unwind` boundary, so one wedged or
    /// crashing cell cannot take down the batch: the remaining jobs
    /// still run, successful results still reach the result store, and
    /// the failure comes back as [`JobOutcome::Failed`] carrying the
    /// [`JobError`] and retry count. Transient failures are retried
    /// [`DEFAULT_RETRIES`] times. On the all-success path the outcomes
    /// are exactly the reports [`Harness::run`] returns, in the same
    /// order.
    pub fn try_run(&mut self, jobs: &[Job]) -> Vec<JobOutcome> {
        let mut sink = StderrProgress::new(self.progress);
        self.try_run_with_progress(jobs, &mut sink)
    }

    /// [`Harness::try_run`] with per-cell progress routed to `sink`
    /// instead of the default stderr status line.
    ///
    /// The sink is called on the submitting thread only — never
    /// concurrently — once per *simulated* cell in completion order
    /// (store hits and coalesced duplicates produce no call), bracketed
    /// by [`ProgressSink::batch_start`] and [`ProgressSink::batch_end`].
    /// The sweep service uses this to forward a batch's progress to the
    /// requesting client rather than the daemon's own stderr.
    ///
    /// With a shared scheduler attached (see
    /// [`Harness::with_scheduler`]) an admission rejection is folded
    /// into the outcomes as [`JobError::Saturated`] failures; callers
    /// that want the rejection as a typed error — before anything has
    /// been streamed — use [`Harness::try_run_admitted`].
    pub fn try_run_with_progress(
        &mut self,
        jobs: &[Job],
        sink: &mut dyn ProgressSink,
    ) -> Vec<JobOutcome> {
        match self.try_run_admitted(jobs, sink) {
            Ok(outcomes) => outcomes,
            Err(sat) => jobs
                .iter()
                .map(|j| {
                    JobOutcome::Failed(JobFailure {
                        workload: j.workload.clone(),
                        strategy: j.config.strategy.name(),
                        error: JobError::Saturated(sat),
                        retries: 0,
                    })
                })
                .collect(),
        }
    }

    /// [`Harness::try_run_with_progress`] with admission control made
    /// visible: when the batch's pending cells are refused by the
    /// shared scheduler's queue bound, returns [`Saturated`] *before*
    /// any progress has been emitted through `sink`, so a service can
    /// answer 503 with a clean (unstreamed) response. Fully-memoized
    /// batches have no pending cells, never touch the scheduler, and
    /// therefore cannot be refused.
    ///
    /// # Errors
    ///
    /// [`Saturated`] only; without a shared scheduler's queue bound the
    /// call always succeeds.
    pub fn try_run_admitted(
        &mut self,
        jobs: &[Job],
        sink: &mut dyn ProgressSink,
    ) -> Result<Vec<JobOutcome>, Saturated> {
        let batch_start = Instant::now();
        let with_metrics = self.open_metrics_sink();
        let with_attrib = self.attrib;
        let keys: Vec<u64> = jobs.iter().map(Job::key).collect();
        let mut results: Vec<Option<JobOutcome>> = vec![None; jobs.len()];

        // Phase 1: answer what the store already knows. An attrib batch
        // only accepts lines that carry attribution — anything older is
        // left to re-simulate (and the fresh superset overwrites it).
        let mut store_hits = 0;
        if let Some(store) = &mut self.store {
            for (slot, &key) in results.iter_mut().zip(&keys) {
                if let Some(report) = store.get(key) {
                    if !with_attrib || report.attrib.is_some() {
                        *slot = Some(JobOutcome::Ok(Box::new(report)));
                        store_hits += 1;
                    }
                }
            }
        }

        // Phase 2: coalesce duplicate keys; simulate each key once.
        let mut first_of: HashMap<u64, usize> = HashMap::new();
        let mut pending: Vec<usize> = Vec::new();
        let mut deduped = 0;
        for (i, &key) in keys.iter().enumerate() {
            if results[i].is_some() {
                continue;
            }
            if let std::collections::hash_map::Entry::Vacant(e) = first_of.entry(key) {
                e.insert(i);
                pending.push(i);
            } else {
                deduped += 1;
            }
        }

        // Phase 3: hand the pending cells to the scheduler (the shared
        // pool, else this harness's own), which interleaves them fairly
        // with every other request feeding it. Admission happens
        // *before* the first progress event, so a refused batch streams
        // nothing; a fully memoized batch never touches (or starts) a
        // pool. Results are collected here on the submitting thread, so
        // store writes, metrics lines and progress stay single-threaded.
        let results_rx = if pending.is_empty() {
            None
        } else {
            let cells = pending
                .iter()
                .map(|&i| sched::Cell {
                    index: i,
                    job: jobs[i].clone(),
                    key: keys[i],
                    with_metrics,
                    with_attrib,
                    retries: DEFAULT_RETRIES,
                })
                .collect();
            Some(self.scheduler().submit(cells)?)
        };
        sink.batch_start(pending.len());
        let mut simulated = 0;
        if let Some(rx) = results_rx {
            while simulated < pending.len() {
                // A closed channel means the pool died; the remainder
                // fails as lost below.
                let Ok(sched::CellDone {
                    index,
                    result,
                    retries,
                    took,
                    worker,
                }) = rx.recv()
                else {
                    break;
                };
                simulated += 1;
                sink.cell_done_on(simulated, &jobs[index].workload, took, worker);
                results[index] = Some(self.collect(&jobs[index], keys[index], *result, retries));
            }
            for &i in &pending {
                if results[i].is_none() {
                    results[i] = Some(JobOutcome::Failed(JobFailure {
                        workload: jobs[i].workload.clone(),
                        strategy: jobs[i].config.strategy.name(),
                        error: JobError::Lost,
                        retries: 0,
                    }));
                }
            }
        }
        sink.batch_end();

        // Phase 4: copy coalesced outcomes into their duplicate slots.
        for (i, &key) in keys.iter().enumerate() {
            if results[i].is_none() {
                let src = first_of[&key];
                results[i] = Some(match results[src].as_ref().expect("source slot ran") {
                    JobOutcome::Ok(report) => JobOutcome::Ok(report.clone()),
                    _ => JobOutcome::Skipped { source: src },
                });
            }
        }

        let outcomes: Vec<JobOutcome> = results
            .into_iter()
            .map(|r| r.expect("every slot filled"))
            .collect();
        self.last = BatchStats {
            total: jobs.len(),
            store_hits,
            deduped,
            simulated,
            failed: outcomes
                .iter()
                .filter(|o| matches!(o, JobOutcome::Failed(_)))
                .count(),
            skipped: outcomes
                .iter()
                .filter(|o| matches!(o, JobOutcome::Skipped { .. }))
                .count(),
            wall: batch_start.elapsed(),
        };
        Ok(outcomes)
    }

    /// Books one finished attempt: store write and metrics line on
    /// success, failure telemetry otherwise. Runs on the submitting
    /// thread only.
    fn collect(
        &mut self,
        job: &Job,
        key: u64,
        result: Result<(SimReport, Option<String>), JobError>,
        retries_used: u32,
    ) -> JobOutcome {
        self.telemetry
            .add(Counter::HarnessRetries, u64::from(retries_used));
        match result {
            Ok((report, metrics)) => {
                self.record(key, &job.workload, &report);
                self.record_metrics(metrics);
                JobOutcome::Ok(Box::new(report))
            }
            Err(error) => {
                self.telemetry.add(Counter::HarnessJobFailures, 1);
                JobOutcome::Failed(JobFailure {
                    workload: job.workload.clone(),
                    strategy: job.config.strategy.name(),
                    error,
                    retries: retries_used,
                })
            }
        }
    }

    /// Opens (or keeps open) the metrics sink; returns whether metrics
    /// recording is active for this batch.
    fn open_metrics_sink(&mut self) -> bool {
        let Some(path) = &self.metrics_out else {
            return false;
        };
        if self.metrics_file.is_none() {
            match std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
            {
                Ok(f) => self.metrics_file = Some(f),
                Err(e) => {
                    eprintln!("warning: cannot open metrics file {}: {e}", path.display());
                    self.metrics_out = None;
                    return false;
                }
            }
        }
        true
    }

    fn record_metrics(&mut self, line: Option<String>) {
        let (Some(line), Some(f)) = (line, self.metrics_file.as_mut()) else {
            return;
        };
        if let Err(e) = writeln!(f, "{line}") {
            eprintln!("warning: metrics write failed: {e}");
        }
    }

    fn record(&mut self, key: u64, workload: &str, report: &SimReport) {
        if let Some(store) = &mut self.store {
            if let Err(e) = store.put(key, workload, report) {
                // A broken store must not fail the batch; warn once per
                // failure and continue unmemoized.
                eprintln!("warning: result store write failed: {e}");
            } else if let Some((journal, token)) = &self.journal {
                if let Err(e) = journal.mark_cell(token, key) {
                    eprintln!("warning: journal cell mark failed: {e}");
                }
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use ctcp_isa::{Program, ProgramBuilder, Reg};
    use ctcp_sim::{SimConfig, SimReport, Simulation};
    use std::path::PathBuf;
    use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

    /// An endless loop with a little ILP and a memory access, enough to
    /// exercise every report field; the sim's instruction budget stops it.
    pub(crate) fn tiny_program() -> Arc<Program> {
        let mut b = ProgramBuilder::new();
        b.movi(Reg::R2, 0x100);
        let top = b.here();
        b.addi(Reg::R1, Reg::R1, 1);
        b.add(Reg::R3, Reg::R1, Reg::R1);
        b.ld(Reg::R4, Reg::R2, 0);
        b.st(Reg::R3, Reg::R2, 8);
        b.jmp(top);
        Arc::new(b.build())
    }

    pub(crate) fn sample_report() -> SimReport {
        let config = SimConfig {
            max_insts: 1_000,
            ..SimConfig::default()
        };
        Simulation::builder(&tiny_program())
            .config(config)
            .build()
            .unwrap()
            .run()
    }

    static FAILPOINT_LOCK: Mutex<()> = Mutex::new(());

    /// Fail-point state is process-global and `journal-truncate` and
    /// `disk-full` sit on every journal and store append, so unit tests
    /// that arm points *or* write a journal or store serialise behind
    /// one lock. A failed test must not fail every later one, hence the
    /// poison recovery.
    pub(crate) fn fail_points_held() -> MutexGuard<'static, ()> {
        FAILPOINT_LOCK
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// A fresh per-test scratch directory under the system temp dir.
    pub(crate) fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ctcp-harness-{}-{name}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{fail_points_held, temp_dir, tiny_program};
    use ctcp_sim::Strategy;

    fn grid(budgets: &[u64]) -> Vec<Job> {
        let program = tiny_program();
        let mut jobs = Vec::new();
        for &max_insts in budgets {
            for strategy in [
                Strategy::Baseline,
                Strategy::Friendly { middle_bias: false },
                Strategy::Fdrt { pinning: true },
            ] {
                let config = SimConfig {
                    max_insts,
                    strategy,
                    ..SimConfig::default()
                };
                jobs.push(Job::new("tiny", Arc::clone(&program), config));
            }
        }
        jobs
    }

    fn render(reports: &[SimReport]) -> String {
        reports
            .iter()
            .map(|r| format!("{r:?}\n"))
            .collect::<String>()
    }

    #[test]
    fn batched_results_match_direct_simulation() {
        // Harness workers batch by default: one resident BatchRunner
        // per worker recycles the engine arena across cells, and the
        // pool shares fast-forward checkpoints. The reports must be
        // byte-identical to building each simulation directly, warmup
        // cells included.
        let program = tiny_program();
        let other = {
            let mut b = ctcp_isa::ProgramBuilder::new();
            let top = b.here();
            b.addi(ctcp_isa::Reg::R1, ctcp_isa::Reg::R1, 1);
            b.jmp(top);
            Arc::new(b.build())
        };
        let mut jobs = grid(&[800, 1_600]);
        let warmed = [
            ("tiny", &program, 500u64, 1_000u64),
            ("tiny", &program, 500, 1_200),
            ("other", &other, 500, 1_000),
            ("tiny", &program, 500, 1_400),
            ("tiny", &program, 900, 1_000),
        ];
        for (name, prog, warmup, max_insts) in warmed {
            // Three cells share (program, warmup) around a cell of
            // another program: three keys, so three captures, and the
            // cells after the switch hit the first capture again.
            let config = SimConfig {
                max_insts,
                warmup_insts: warmup,
                ..SimConfig::default()
            };
            jobs.push(Job::new(name, Arc::clone(prog), config));
        }
        let batched = Harness::new().jobs(1).progress(false).run(&jobs);
        let direct: Vec<SimReport> = jobs
            .iter()
            .map(|j| {
                Simulation::builder(&j.program)
                    .config(j.config)
                    .build()
                    .unwrap()
                    .run()
            })
            .collect();
        assert_eq!(render(&batched), render(&direct));
    }

    #[test]
    fn serial_and_parallel_results_are_identical() {
        let jobs = grid(&[800, 1_600, 2_400]);
        let serial = Harness::new().jobs(1).progress(false).run(&jobs);
        let parallel = Harness::new().jobs(8).progress(false).run(&jobs);
        assert_eq!(render(&serial), render(&parallel));
    }

    #[test]
    fn results_come_back_in_job_order() {
        let jobs = grid(&[600, 1_200]);
        let reports = Harness::new().jobs(4).progress(false).run(&jobs);
        assert_eq!(reports.len(), jobs.len());
        for (job, report) in jobs.iter().zip(&reports) {
            assert_eq!(report.strategy, job.config.strategy.name());
            assert_eq!(report.instructions, job.config.max_insts);
        }
    }

    #[test]
    fn duplicate_jobs_are_coalesced() {
        let mut jobs = grid(&[700]);
        jobs.extend(grid(&[700]));
        let mut h = Harness::new().jobs(4).progress(false);
        let reports = h.run(&jobs);
        let stats = h.last_batch();
        assert_eq!(stats.total, 6);
        assert_eq!(stats.simulated, 3);
        assert_eq!(stats.deduped, 3);
        assert_eq!(render(&reports[..3]), render(&reports[3..]));
    }

    #[test]
    fn warm_store_skips_all_simulation() {
        let _g = fail_points_held();
        let dir = temp_dir("warm-store");
        let jobs = grid(&[900, 1_800]);

        let mut cold = Harness::new()
            .jobs(2)
            .progress(false)
            .with_store(ResultStore::open(&dir).unwrap());
        let first = cold.run(&jobs);
        assert_eq!(cold.last_batch().store_hits, 0);
        assert_eq!(cold.last_batch().simulated, jobs.len());

        let mut warm = Harness::new()
            .jobs(2)
            .progress(false)
            .with_store(ResultStore::open(&dir).unwrap());
        let second = warm.run(&jobs);
        assert_eq!(warm.last_batch().store_hits, jobs.len());
        assert_eq!(warm.last_batch().simulated, 0);
        assert_eq!(render(&first), render(&second));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn metrics_out_writes_one_line_per_simulated_job() {
        let _g = fail_points_held();
        let dir = temp_dir("metrics-out");
        let path = dir.join("metrics.jsonl");
        let jobs = grid(&[500]); // three unique cells
        let mut h = Harness::new().jobs(2).progress(false).metrics_out(&path);
        let reports = h.run(&jobs);
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 3);
        // Each line parses, names the workload, and its counters
        // reconcile with the matching report.
        for line in text.lines() {
            let v = ctcp_sim::json::Value::parse(line).unwrap();
            assert_eq!(v.get("workload").unwrap().as_str().unwrap(), "tiny");
            let strategy = v.get("strategy").unwrap().as_str().unwrap();
            let report = reports
                .iter()
                .find(|r| r.strategy == strategy)
                .expect("line matches a report");
            let counters = v.get("metrics").unwrap().get("counters").unwrap();
            assert_eq!(
                counters.get("retired").unwrap().as_u64().unwrap(),
                report.metrics.engine.retired,
                "{strategy}"
            );
            assert_eq!(
                counters.get("cycles").unwrap().as_u64().unwrap(),
                report.cycles,
                "{strategy}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cached_and_coalesced_jobs_emit_no_metrics_lines() {
        let _g = fail_points_held();
        let dir = temp_dir("metrics-cached");
        let path = dir.join("metrics.jsonl");
        let store_dir = dir.join("store");
        std::fs::create_dir_all(&store_dir).unwrap();
        let mut jobs = grid(&[650]);
        jobs.extend(grid(&[650])); // duplicates coalesce
        let mut h = Harness::new()
            .jobs(2)
            .progress(false)
            .metrics_out(&path)
            .with_store(ResultStore::open(&store_dir).unwrap());
        h.run(&jobs);
        assert_eq!(
            std::fs::read_to_string(&path).unwrap().lines().count(),
            3,
            "only the three simulated cells produce lines"
        );
        // A warm second batch simulates nothing and appends nothing.
        let mut warm = Harness::new()
            .jobs(2)
            .progress(false)
            .metrics_out(&path)
            .with_store(ResultStore::open(&store_dir).unwrap());
        warm.run(&jobs);
        assert_eq!(warm.last_batch().simulated, 0);
        assert_eq!(std::fs::read_to_string(&path).unwrap().lines().count(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn attrib_batches_attach_stacks_and_reject_plain_store_lines() {
        let _g = fail_points_held();
        let dir = temp_dir("attrib-store");
        let jobs = grid(&[850]);
        let width = jobs[0].config.engine.retire_width as u64;

        // A plain batch populates the store without attribution.
        let mut plain = Harness::new()
            .jobs(1)
            .progress(false)
            .with_store(ResultStore::open(&dir).unwrap());
        let first = plain.run(&jobs);
        assert!(first.iter().all(|r| r.attrib.is_none()));
        drop(plain);

        // An attrib batch must not accept those hits: it re-simulates
        // and overwrites the lines with attribution-bearing supersets.
        let mut h = Harness::new()
            .jobs(1)
            .progress(false)
            .attrib(true)
            .with_store(ResultStore::open(&dir).unwrap());
        let reports = h.run(&jobs);
        assert_eq!(h.last_batch().store_hits, 0, "plain lines must miss");
        assert_eq!(h.last_batch().simulated, jobs.len());
        for (r, p) in reports.iter().zip(&first) {
            assert_eq!(r.cycles, p.cycles, "attribution must not perturb timing");
            let a = r.attrib.as_ref().expect("attrib batch attaches stacks");
            assert_eq!(a.stack.cycles, r.cycles);
            assert_eq!(a.stack.total(), r.cycles * width, "stack conserves");
        }
        drop(h);

        // The refreshed lines now satisfy attrib batches too.
        let mut warm = Harness::new()
            .jobs(1)
            .progress(false)
            .attrib(true)
            .with_store(ResultStore::open(&dir).unwrap());
        warm.run(&jobs);
        assert_eq!(warm.last_batch().store_hits, jobs.len());
        assert_eq!(warm.last_batch().simulated, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn invalid_config_fails_typed_and_spares_the_batch() {
        // One poisoned cell in a parallel batch: it must come back as
        // JobOutcome::Failed(InvalidConfig) — not panic a worker — and
        // every healthy cell must still produce its report.
        let mut jobs = grid(&[700]);
        let mut bad = SimConfig {
            max_insts: 700,
            ..SimConfig::default()
        };
        bad.engine.geometry.clusters = 0;
        jobs.insert(1, Job::new("tiny", tiny_program(), bad));
        let mut h = Harness::new().jobs(4).progress(false);
        let outcomes = h.try_run(&jobs);
        assert_eq!(outcomes.len(), 4);
        let failure = outcomes[1].failure().expect("bad cell fails");
        assert_eq!(
            failure.error,
            JobError::InvalidConfig("cluster geometry has zero clusters".into())
        );
        assert_eq!(failure.retries, 0, "deterministic failures never retry");
        for (i, o) in outcomes.iter().enumerate() {
            if i != 1 {
                assert!(o.report().is_some(), "healthy cell {i} still ran");
            }
        }
        assert_eq!(h.last_batch().failed, 1);
        assert_eq!(
            h.telemetry()
                .get(ctcp_telemetry::Counter::HarnessJobFailures),
            1
        );
        let table = failure_table(&outcomes).expect("table for a failed batch");
        assert!(table.starts_with("1 of 4 jobs failed:"), "{table}");
        assert!(table.contains("invalid configuration"), "{table}");
    }

    #[test]
    fn run_panics_with_the_failure_table_after_the_batch() {
        let _g = fail_points_held();
        let dir = temp_dir("run-panics-late");
        let mut jobs = grid(&[750]);
        let mut bad = SimConfig {
            max_insts: 750,
            ..SimConfig::default()
        };
        bad.engine.geometry.slots_per_cluster = 0;
        jobs.push(Job::new("tiny", tiny_program(), bad));
        let mut h = Harness::new()
            .jobs(2)
            .progress(false)
            .with_store(ResultStore::open(&dir).unwrap());
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // silence expected panic
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| h.run(&jobs)));
        std::panic::set_hook(hook);
        let payload = result.expect_err("run() must panic when a job failed");
        let msg = panic_message(&*payload);
        assert!(msg.starts_with("1 of 4 jobs failed:"), "{msg}");
        // The batch finished first: all three healthy cells were
        // memoized before the panic surfaced.
        drop(h);
        let mut warm = Harness::new()
            .jobs(1)
            .progress(false)
            .with_store(ResultStore::open(&dir).unwrap());
        warm.try_run(&grid(&[750]));
        assert_eq!(warm.last_batch().store_hits, 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn duplicates_of_a_failed_job_are_skipped() {
        let mut bad = SimConfig::default();
        bad.engine.geometry.clusters = 0;
        let jobs = [
            Job::new("tiny", tiny_program(), bad),
            Job::new("tiny", tiny_program(), bad),
        ];
        let outcomes = Harness::new().jobs(1).progress(false).try_run(&jobs);
        assert!(outcomes[0].failure().is_some());
        assert!(matches!(outcomes[1], JobOutcome::Skipped { source: 0 }));
        let table = failure_table(&outcomes).unwrap();
        assert!(
            table.contains("skipped (duplicate of failed #0)"),
            "{table}"
        );
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let mut h = Harness::new().progress(false);
        assert!(h.run(&[]).is_empty());
        assert_eq!(h.last_batch().total, 0);
    }

    #[test]
    fn jobs_zero_means_auto_parallelism() {
        assert!(Harness::new().effective_jobs() >= 1);
        assert_eq!(Harness::new().jobs(3).effective_jobs(), 3);
    }

    #[test]
    fn one_worker_reports_progress_in_job_order() {
        // `--jobs 1` is a one-worker pool draining the request FIFO, so
        // progress arrives in job order even though later cells are
        // shorter; every event goes through `cell_done_on`.
        struct Order(Vec<String>);
        impl ProgressSink for Order {
            fn batch_start(&mut self, _total: usize) {}
            fn cell_done(&mut self, _done: usize, _workload: &str, _took: Duration) {
                unreachable!("the harness reports through cell_done_on");
            }
            fn cell_done_on(&mut self, done: usize, workload: &str, _: Duration, worker: usize) {
                assert_eq!((done, worker), (self.0.len() + 1, 0));
                self.0.push(workload.to_string());
            }
            fn batch_end(&mut self) {}
        }
        let program = tiny_program();
        let names: Vec<String> = (0..8).map(|i| format!("cell{i}")).collect();
        let jobs: Vec<Job> = (0..8u64)
            .map(|i| {
                let config = SimConfig {
                    max_insts: 3_000 - 300 * i,
                    ..SimConfig::default()
                };
                Job::new(names[i as usize].as_str(), Arc::clone(&program), config)
            })
            .collect();
        let mut sink = Order(Vec::new());
        let mut h = Harness::new().jobs(1).progress(false);
        h.try_run_with_progress(&jobs, &mut sink);
        assert_eq!(sink.0, names);
    }

    #[test]
    fn own_pool_matches_shared_scheduler_byte_for_byte() {
        // A harness that owns its pool and one feeding a shared
        // scheduler, over a grid whose cells all share one warmup
        // checkpoint: identical reports.
        let mut jobs = grid(&[1_500, 2_500, 3_500]);
        for job in &mut jobs {
            job.config.warmup_insts = 600;
        }
        let mut own = Harness::new().jobs(2).progress(false);
        let expected = own.run(&jobs);
        let sched = CellScheduler::start(2, 0);
        let mut shared = Harness::new().progress(false).with_scheduler(sched.clone());
        let got = shared.run(&jobs);
        // Both workers asked for the one key; one of them captured it.
        let stats = sched.stats();
        assert_eq!(stats.checkpoint_captures, 1);
        assert_eq!(stats.checkpoint_hits, jobs.len() as u64 - 1);
        sched.shutdown();
        assert_eq!(shared.last_batch().simulated, jobs.len());
        assert_eq!(render(&expected), render(&got));
    }

    #[test]
    fn saturated_scheduler_rejects_before_anything_runs() {
        let sched = CellScheduler::start(1, 1);
        let mut h = Harness::new().progress(false).with_scheduler(sched.clone());
        let jobs = grid(&[1_000, 2_000]);
        let err = h
            .try_run_admitted(&jobs, &mut StderrProgress::new(Some(false)))
            .expect_err("6 cells > bound of 1");
        assert_eq!((err.limit, err.wanted), (1, jobs.len()));
        // The infallible wrappers fold the same rejection into typed
        // per-job failures instead.
        let outcomes = h.try_run(&jobs);
        assert!(outcomes.iter().all(|o| matches!(
            o,
            JobOutcome::Failed(f) if matches!(f.error, JobError::Saturated(_))
        )));
        sched.shutdown();
    }

    #[test]
    fn scheduled_warm_store_skips_the_queue_entirely() {
        let _g = fail_points_held();
        let dir = temp_dir("sched-warm");
        let jobs = grid(&[1_500, 2_500]);
        {
            let mut h = Harness::new()
                .jobs(1)
                .progress(false)
                .with_store(ResultStore::open(&dir).unwrap());
            h.run(&jobs);
        }
        // A scheduler whose bound admits *nothing* still answers a
        // fully-warm batch: cache hits never reach the queue.
        let sched = CellScheduler::start(1, 1);
        sched
            .submit(vec![]) // occupy nothing; just prove the pool is up
            .expect("empty submit is admissible");
        let mut h = Harness::new()
            .progress(false)
            .with_store(ResultStore::open(&dir).unwrap())
            .with_scheduler(sched.clone());
        let outcomes = h
            .try_run_admitted(&jobs, &mut StderrProgress::new(Some(false)))
            .expect("warm batch needs no admission");
        assert!(outcomes.iter().all(|o| o.report().is_some()));
        assert_eq!(h.last_batch().store_hits, jobs.len());
        assert_eq!(h.last_batch().simulated, 0);
        sched.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }
}
