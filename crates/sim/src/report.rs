//! Simulation results.
//!
//! A finished run produces a [`SimReport`]: the headline numbers
//! (strategy, cycles, instructions, IPC) plus one [`MetricsSnapshot`]
//! holding every counter the simulator accumulated. The snapshot is the
//! single source of truth — the engine, trace cache, fill unit, memory
//! system, and front end each contribute their own stats block, and all
//! derived figures (trace-cache fraction, trace size, mispredict rate)
//! are computed from it rather than carried as separate fields.

use ctcp_core::assign::FdrtStats;
use ctcp_core::{EngineStats, ForwardingStats};
use ctcp_memory::CacheStats;
use ctcp_telemetry::{AttribReport, Counter, Metrics};
use ctcp_tracecache::TraceCacheStats;

/// Every counter a finished simulation accumulated — the superset of
/// what any table or figure of the paper needs, in one place.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Instructions fetched from the trace cache.
    pub insts_from_tc: u64,
    /// Instructions fetched from the instruction cache.
    pub insts_from_icache: u64,
    /// Traces built by the fill unit.
    pub traces_built: u64,
    /// Instructions collected into traces (the fill unit idles between
    /// trace heads, so this can be less than the retired count).
    pub insts_in_traces: u64,
    /// Conditional branches fetched.
    pub cond_branches: u64,
    /// Conditional-branch mispredictions observed at fetch.
    pub cond_mispredicts: u64,
    /// Indirect-target mispredictions observed at fetch.
    pub indirect_mispredicts: u64,
    /// Forwarding statistics (Tables 2/8, Figure 4).
    pub fwd: ForwardingStats,
    /// Producer repeat rates per source, all inputs (Table 3).
    pub repeat_all: [f64; 2],
    /// Producer repeat rates per source, critical inter-trace inputs.
    pub repeat_critical_inter: [f64; 2],
    /// FDRT statistics (Figure 7, Tables 9/10), when the strategy is FDRT.
    pub fdrt: Option<FdrtStats>,
    /// Engine counters.
    pub engine: EngineStats,
    /// Trace cache statistics.
    pub trace_cache: TraceCacheStats,
    /// L1 data cache statistics.
    pub l1d: CacheStats,
    /// Instruction cache statistics.
    pub icache: CacheStats,
}

impl MetricsSnapshot {
    /// Fraction of fetched instructions supplied by the trace cache
    /// (Table 1 "% TC Instr").
    pub fn tc_inst_fraction(&self) -> f64 {
        let total = self.insts_from_tc + self.insts_from_icache;
        if total == 0 {
            0.0
        } else {
            self.insts_from_tc as f64 / total as f64
        }
    }

    /// Average instructions per fill-unit trace (Table 1 "Trace Size").
    pub fn avg_trace_size(&self) -> f64 {
        if self.traces_built == 0 {
            0.0
        } else {
            self.insts_in_traces as f64 / self.traces_built as f64
        }
    }

    /// Conditional-branch misprediction rate.
    pub fn mispredict_rate(&self) -> f64 {
        if self.cond_branches == 0 {
            0.0
        } else {
            self.cond_mispredicts as f64 / self.cond_branches as f64
        }
    }
}

/// Everything a finished simulation reports: headline numbers plus the
/// full [`MetricsSnapshot`].
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Strategy name.
    pub strategy: String,
    /// Simulated cycles.
    pub cycles: u64,
    /// Retired instructions.
    pub instructions: u64,
    /// Instructions per cycle.
    pub ipc: f64,
    /// Every accumulated counter, in one snapshot.
    pub metrics: MetricsSnapshot,
    /// Cycle attribution (CPI stack + critical-path summary), attached
    /// by attribution-enabled runs (`ctcp analyze`, `ctcp sweep
    /// --attrib`); `None` for plain runs.
    pub attrib: Option<AttribReport>,
}

impl SimReport {
    /// Fraction of fetched instructions supplied by the trace cache
    /// (Table 1 "% TC Instr").
    pub fn tc_inst_fraction(&self) -> f64 {
        self.metrics.tc_inst_fraction()
    }

    /// Average instructions per fill-unit trace (Table 1 "Trace Size").
    pub fn avg_trace_size(&self) -> f64 {
        self.metrics.avg_trace_size()
    }

    /// Conditional-branch misprediction rate.
    pub fn mispredict_rate(&self) -> f64 {
        self.metrics.mispredict_rate()
    }

    /// Speedup of `self` relative to `base` (execution-time ratio at
    /// equal instruction counts). Returns `0.0` when either run recorded
    /// no cycles — a degenerate report should read as "no speedup
    /// information", not crash a sweep.
    pub fn speedup_over(&self, base: &SimReport) -> f64 {
        if self.cycles == 0 || base.cycles == 0 {
            return 0.0;
        }
        base.cycles as f64 / self.cycles as f64
    }

    /// Cross-checks a recorder's live counters against the report's own
    /// bookkeeping (`ctcp trace --check`): both observe the same
    /// simulation through independent paths, so any divergence is a
    /// bug.
    pub fn reconcile(&self, m: &Metrics) -> Result<(), String> {
        let checks = [
            ("cycles", Counter::Cycles, self.cycles),
            ("retired", Counter::Retired, self.metrics.engine.retired),
            (
                "insts_from_tc",
                Counter::InstsFromTc,
                self.metrics.insts_from_tc,
            ),
            (
                "insts_from_icache",
                Counter::InstsFromIcache,
                self.metrics.insts_from_icache,
            ),
            (
                "traces_built",
                Counter::TracesBuilt,
                self.metrics.traces_built,
            ),
            (
                "insts_in_traces",
                Counter::InstsInTraces,
                self.metrics.insts_in_traces,
            ),
            (
                "cond_branches",
                Counter::CondBranches,
                self.metrics.cond_branches,
            ),
            (
                "cond_mispredicts",
                Counter::CondMispredicts,
                self.metrics.cond_mispredicts,
            ),
        ];
        for (name, counter, report) in checks {
            let counted = m.get(counter);
            if counted != report {
                return Err(format!(
                    "counter {name} = {counted} but the report says {report}"
                ));
            }
        }
        Ok(())
    }
}

/// Harmonic mean of a slice of speedups (the paper's average).
///
/// Returns `0.0` for an empty slice and for any slice containing a
/// non-positive or non-finite entry: the harmonic mean is only defined
/// over positive reals, and a zero entry (the [`SimReport::speedup_over`]
/// degenerate value) would otherwise poison the sum with an infinity
/// that silently renders as `0` — better to make the sentinel explicit.
pub fn harmonic_mean(xs: &[f64]) -> f64 {
    if xs.is_empty() || xs.iter().any(|x| !(x.is_finite() && *x > 0.0)) {
        return 0.0;
    }
    let denom: f64 = xs.iter().map(|x| 1.0 / x).sum();
    xs.len() as f64 / denom
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harmonic_mean_basics() {
        assert_eq!(harmonic_mean(&[]), 0.0);
        assert!((harmonic_mean(&[1.0, 1.0]) - 1.0).abs() < 1e-12);
        let hm = harmonic_mean(&[1.0, 2.0]);
        assert!((hm - 4.0 / 3.0).abs() < 1e-12);
        // Harmonic mean is dominated by the slowest member.
        assert!(harmonic_mean(&[1.0, 10.0]) < 5.5);
    }

    #[test]
    fn harmonic_mean_rejects_degenerate_inputs() {
        assert_eq!(harmonic_mean(&[1.0, 0.0]), 0.0);
        assert_eq!(harmonic_mean(&[1.0, -2.0]), 0.0);
        assert_eq!(harmonic_mean(&[1.0, f64::NAN]), 0.0);
        assert_eq!(harmonic_mean(&[1.0, f64::INFINITY]), 0.0);
    }
}

#[cfg(test)]
mod report_tests {
    use super::*;

    fn blank() -> SimReport {
        SimReport {
            strategy: "base".into(),
            cycles: 100,
            instructions: 200,
            ipc: 2.0,
            metrics: MetricsSnapshot {
                insts_from_tc: 150,
                insts_from_icache: 50,
                traces_built: 20,
                insts_in_traces: 180,
                cond_branches: 40,
                cond_mispredicts: 4,
                ..MetricsSnapshot::default()
            },
            attrib: None,
        }
    }

    #[test]
    fn derived_metrics() {
        let r = blank();
        assert_eq!(r.tc_inst_fraction(), 0.75);
        assert_eq!(r.avg_trace_size(), 9.0);
        assert_eq!(r.mispredict_rate(), 0.1);
    }

    #[test]
    fn speedup_is_a_cycle_ratio() {
        let base = blank();
        let mut fast = blank();
        fast.cycles = 80;
        assert!((fast.speedup_over(&base) - 1.25).abs() < 1e-12);
        assert!((base.speedup_over(&fast) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn speedup_with_zero_cycles_is_zero_not_a_panic() {
        let base = blank();
        let mut broken = blank();
        broken.cycles = 0;
        assert_eq!(broken.speedup_over(&base), 0.0);
        assert_eq!(base.speedup_over(&broken), 0.0);
    }

    #[test]
    fn zero_denominators_do_not_panic() {
        let mut r = blank();
        r.metrics.insts_from_tc = 0;
        r.metrics.insts_from_icache = 0;
        r.metrics.traces_built = 0;
        r.metrics.cond_branches = 0;
        assert_eq!(r.tc_inst_fraction(), 0.0);
        assert_eq!(r.avg_trace_size(), 0.0);
        assert_eq!(r.mispredict_rate(), 0.0);
    }
}
