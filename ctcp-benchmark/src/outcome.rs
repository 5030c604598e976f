//! What a workload run hands back for reporting: its set-up times, the
//! timed phases (untraced, and traced when asked), the isolated layer
//! replays' numbers, and the output checks.

use crate::layers::LayerCosts;
use crate::trace::Tracer;
use ctcp_sim::SimReport;
use std::sync::Arc;

/// How a run was invoked.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// Input seed.
    pub seed: u64,
    /// Seconds the run measures.
    pub seconds: f64,
    /// Run the traced phase and the isolated replays, and report per-layer
    /// metrics instead of end-to-end ones.
    pub trace: bool,
    /// Tiny sizes, for tests.
    pub smoke: bool,
}

/// Counts and samples of the sweep service that are not span timings
/// (all zero for the in-process workloads).
#[derive(Debug, Default)]
pub struct ServeStats {
    /// Worker utilization read from each `GET /status` sample.
    pub worker_util: Vec<f64>,
    /// Response body sizes, bytes, every sweep request.
    pub resp_bytes: Vec<f64>,
    /// Sweep requests completed.
    pub requests: u64,
    /// Seconds the clients ran.
    pub wall_s: f64,
    /// Cells answered from the store, summed over `result` events.
    pub cache_hits: u64,
    /// Cells simulated, summed over `result` events.
    pub simulated: u64,
}

/// One timed phase. Per-layer timings of a traced phase live in the
/// tracer's spans, not here.
#[derive(Debug, Default)]
pub struct Phase {
    /// Wall time of the phase, s.
    pub wall_s: f64,
    /// Latency of the workload's operation, scaled ms: every cell for
    /// the in-process workloads, every cold sweep request for the
    /// service.
    pub op_ms: Vec<f64>,
    /// Cells simulated.
    pub cells: u64,
    /// Simulated cells per host second.
    pub cells_per_s: f64,
    /// Timed simulated instructions per host microsecond (= M/s).
    pub sim_mips: f64,
    /// Simulated cells with their content key and host seconds (a
    /// repeated cell shares its first report): the basis for counter
    /// ratios and host-time conservation.
    pub sims: Vec<(u64, Arc<SimReport>, f64)>,
    /// Harness retries during the phase.
    pub retries: u64,
    /// Harness job failures during the phase.
    pub failures: u64,
    /// Instructions fast-forwarded by warmup checkpoints.
    pub ff_insts: u64,
    /// Warmup checkpoints captured.
    pub captures: u64,
    /// Service measurements.
    pub serve: ServeStats,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed, were refused, or returned a wrong answer.
    pub failed: u64,
    /// Calibration loop times taken during the phase, ms.
    pub loop_ms: Vec<f64>,
}

/// Everything one workload run produced.
pub struct Outcome {
    /// Seconds per set-up repetition.
    pub setup_s: Vec<f64>,
    /// Program generation time, ms per program.
    pub gen_ms: Vec<f64>,
    /// The untraced timed phase.
    pub untraced: Phase,
    /// The traced timed phase (traced runs only).
    pub traced: Option<Phase>,
    /// Peak resident set of the process doing the simulation, MB.
    pub peak_rss_mb: f64,
    /// Isolated layer replays (traced runs only).
    pub layers: Option<LayerCosts>,
    /// Spans of the traced phase and the replays.
    pub tracer: Tracer,
    /// Output-check findings, one line each, for the report.
    pub checks: Vec<String>,
    /// Checks (beyond operations) attempted.
    pub checks_attempted: u64,
    /// Checks that failed.
    pub checks_failed: u64,
}

impl Outcome {
    /// An empty outcome whose tracer records when `trace` is set.
    pub fn new(trace: bool) -> Outcome {
        Outcome {
            setup_s: Vec::new(),
            gen_ms: Vec::new(),
            untraced: Phase::default(),
            traced: None,
            peak_rss_mb: 0.0,
            layers: None,
            tracer: Tracer::new(trace),
            checks: Vec::new(),
            checks_attempted: 0,
            checks_failed: 0,
        }
    }

    /// Records one output check.
    pub fn check(&mut self, ok: bool, line: String) {
        self.checks_attempted += 1;
        if !ok {
            self.checks_failed += 1;
        }
        self.checks
            .push(format!("{} {line}", if ok { "ok  " } else { "FAIL" }));
    }
}

/// The process's peak resident set (`VmHWM`) in MB, read from
/// `/proc/<pid>/status`; 0 where procfs is unavailable.
pub fn peak_rss_mb(pid: &str) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
