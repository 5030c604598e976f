//! Whole-simulator configuration.

use ctcp_core::assign::{FdrtAssigner, FdrtConfig, RetireTimeStrategy, SlotFillOrder};
use ctcp_core::{EngineConfig, SteeringMode, Topology};
use ctcp_frontend::{BtbConfig, HybridConfig, ICacheConfig};
use ctcp_tracecache::{FillUnitConfig, TraceCacheConfig};

/// The cluster-assignment strategy under evaluation (§2.3, §4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Strategy {
    /// Slot-based steering of the unmodified retire order.
    Baseline,
    /// Issue-time dependency steering with `latency` extra pipeline
    /// stages (0 = the idealised variant, 4 = the realistic one; the
    /// 8-wide study uses 2).
    IssueTime {
        /// Extra steer-stage latency in cycles.
        latency: u64,
    },
    /// Friendly et al.'s retire-time reordering.
    Friendly {
        /// Bias unattached instructions toward the middle clusters (the
        /// paper's §5.3 "minor adjustment").
        middle_bias: bool,
    },
    /// The proposed feedback-directed retire-time strategy.
    Fdrt {
        /// Pin chain leaders permanently (disable for the Table 9/10
        /// ablation).
        pinning: bool,
    },
    /// FDRT with inter-trace chaining disabled: only the intra-trace
    /// heuristics of Table 5 (the paper's §5.3 ablation).
    FdrtIntraOnly,
}

impl Strategy {
    /// A short, stable name for reports.
    pub fn name(&self) -> String {
        match self {
            Strategy::Baseline => "base".into(),
            Strategy::IssueTime { latency } => format!("issue-time({latency})"),
            Strategy::Friendly { middle_bias: false } => "friendly".into(),
            Strategy::Friendly { middle_bias: true } => "friendly-mid".into(),
            Strategy::Fdrt { pinning: true } => "fdrt".into(),
            Strategy::Fdrt { pinning: false } => "fdrt-nopin".into(),
            Strategy::FdrtIntraOnly => "fdrt-intra".into(),
        }
    }

    /// How the engine steers instructions under this strategy.
    pub fn steering_mode(&self) -> SteeringMode {
        match self {
            Strategy::IssueTime { .. } => SteeringMode::IssueTime,
            _ => SteeringMode::Slot,
        }
    }

    /// The retire-time placement component of this strategy (issue-time
    /// steering keeps the identity placement in the trace cache).
    pub fn retire_time(&self) -> RetireTimeStrategy {
        match self {
            Strategy::Baseline | Strategy::IssueTime { .. } => RetireTimeStrategy::baseline(),
            Strategy::Friendly { middle_bias } => RetireTimeStrategy::friendly(if *middle_bias {
                SlotFillOrder::MiddleFirst
            } else {
                SlotFillOrder::Sequential
            }),
            Strategy::Fdrt { pinning } => RetireTimeStrategy::fdrt(FdrtAssigner::new(FdrtConfig {
                pinning: *pinning,
                chaining: true,
            })),
            Strategy::FdrtIntraOnly => RetireTimeStrategy::fdrt(FdrtAssigner::new(FdrtConfig {
                pinning: true,
                chaining: false,
            })),
        }
    }
}

/// Full simulator configuration. Defaults reproduce Table 7 with the
/// baseline strategy.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Execution engine (clusters, ROB, latencies, memory system).
    pub engine: EngineConfig,
    /// Trace cache geometry (line capacity is forced to the engine's
    /// total slot count at simulation start).
    pub trace_cache: TraceCacheConfig,
    /// Instruction cache.
    pub icache: ICacheConfig,
    /// Hybrid branch predictor tables.
    pub predictor: HybridConfig,
    /// Branch target buffer.
    pub btb: BtbConfig,
    /// Return address stack depth.
    pub ras_depth: usize,
    /// Fill unit (trace construction) parameters.
    pub fill: FillUnitConfig,
    /// Cluster assignment strategy.
    pub strategy: Strategy,
    /// Decode pipeline stages between fetch and rename.
    pub decode_stages: u64,
    /// Stop after this many retired instructions.
    pub max_insts: u64,
    /// Functionally execute (no timing) this many instructions before
    /// the timed phase begins. The report covers only the timed phase;
    /// predictors and caches start cold at the warmup boundary.
    pub warmup_insts: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            engine: EngineConfig::default(),
            trace_cache: TraceCacheConfig::default(),
            icache: ICacheConfig::default(),
            predictor: HybridConfig::default(),
            btb: BtbConfig::default(),
            ras_depth: 16,
            fill: FillUnitConfig::default(),
            strategy: Strategy::Baseline,
            decode_stages: 1,
            max_insts: 100_000,
            warmup_insts: 0,
        }
    }
}

impl SimConfig {
    /// The paper's machine with `clusters` clusters of Table 7's 4 issue
    /// slots on `topology`, under `strategy`. The front end scales with
    /// the execution core, as in the paper's 8-wide, 2-cluster machine
    /// (§5.6): rename width = retire width = issue slots, and the ROB
    /// holds 8 entries per slot. Four linear clusters are Table 7's
    /// 16/16/128 machine, i.e. [`SimConfig::default`]. Every other field
    /// keeps its default.
    pub fn machine(strategy: Strategy, clusters: u8, topology: Topology) -> SimConfig {
        let mut c = SimConfig {
            strategy,
            ..SimConfig::default()
        };
        c.engine.geometry.clusters = clusters;
        c.engine.geometry.topology = topology;
        let width = c.engine.geometry.total_slots();
        c.engine.rename_width = width;
        c.engine.retire_width = width;
        c.engine.rob_entries = 8 * width;
        c
    }

    /// Applies the issue-time steer latency implied by the strategy to
    /// the engine configuration, and aligns trace-line capacity with the
    /// cluster geometry. Called by the simulation constructor.
    pub(crate) fn normalized(mut self) -> Self {
        if let Strategy::IssueTime { latency } = self.strategy {
            self.engine.steer_latency = latency;
        }
        let slots = self.engine.geometry.total_slots();
        self.trace_cache.line_capacity = slots;
        self.fill.max_insts = slots;
        self.fill.max_blocks = self.trace_cache.max_blocks;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategy_names_are_stable() {
        assert_eq!(Strategy::Baseline.name(), "base");
        assert_eq!(Strategy::IssueTime { latency: 4 }.name(), "issue-time(4)");
        assert_eq!(Strategy::Friendly { middle_bias: false }.name(), "friendly");
        assert_eq!(Strategy::Fdrt { pinning: true }.name(), "fdrt");
        assert_eq!(Strategy::Fdrt { pinning: false }.name(), "fdrt-nopin");
    }

    #[test]
    fn table7_is_the_machine_rules_fixed_point() {
        assert_eq!(
            format!(
                "{:?}",
                SimConfig::machine(Strategy::Baseline, 4, Topology::Linear)
            ),
            format!("{:?}", SimConfig::default())
        );
    }

    #[test]
    fn the_machine_scales_the_front_end_with_the_clusters() {
        let c = SimConfig::machine(Strategy::Friendly { middle_bias: true }, 2, Topology::Ring);
        assert_eq!(c.strategy, Strategy::Friendly { middle_bias: true });
        assert_eq!(c.engine.geometry.clusters, 2);
        assert_eq!(c.engine.geometry.topology, Topology::Ring);
        assert_eq!(c.engine.rename_width, 8);
        assert_eq!(c.engine.retire_width, 8);
        assert_eq!(c.engine.rob_entries, 64);
        let wide = SimConfig::machine(Strategy::Baseline, 8, Topology::Linear);
        assert_eq!(wide.engine.rename_width, 32);
        assert_eq!(wide.engine.rob_entries, 256);
    }

    #[test]
    fn normalization_aligns_capacity_and_latency() {
        let c = SimConfig::machine(Strategy::IssueTime { latency: 4 }, 2, Topology::Linear);
        let n = c.normalized();
        assert_eq!(n.engine.steer_latency, 4);
        assert_eq!(n.trace_cache.line_capacity, 8);
        assert_eq!(n.fill.max_insts, 8);
    }

    #[test]
    fn steering_modes() {
        assert_eq!(
            Strategy::Baseline.steering_mode(),
            ctcp_core::SteeringMode::Slot
        );
        assert_eq!(
            Strategy::IssueTime { latency: 0 }.steering_mode(),
            ctcp_core::SteeringMode::IssueTime
        );
        assert_eq!(
            Strategy::Fdrt { pinning: true }.steering_mode(),
            ctcp_core::SteeringMode::Slot
        );
    }
}
