//! Fluent, validating construction of a [`Simulation`].
//!
//! [`SimBuilder`] is the front door of the simulator API — the *only*
//! construction path: it owns a [`SimConfig`], takes the machine whole
//! through [`SimBuilder::config`] (a non-default geometry comes from
//! [`SimConfig::machine`]), adds the strategy, budgets and the
//! result-neutral knobs, and *validates* the cluster geometry before
//! any state is allocated, returning a typed [`ConfigError`] instead of
//! letting a nonsensical configuration livelock the cycle loop or index
//! out of bounds deep in the engine.

use crate::checkpoint::Checkpoint;
use crate::processor::Simulation;
use crate::{SimConfig, Strategy};
use ctcp_core::EngineArena;
use ctcp_isa::Program;
use ctcp_telemetry::Recorder;
use std::rc::Rc;

/// The number of clusters the engine's fixed-size per-cluster counter
/// arrays support (see `EngineStats::executed_per_cluster`).
pub const MAX_CLUSTERS: u8 = 8;

/// A structurally invalid [`SimConfig`], rejected by
/// [`SimBuilder::build`] before the simulation is constructed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// The geometry has no clusters; nothing could execute.
    ZeroClusters,
    /// More clusters than the engine's per-cluster counter arrays hold.
    TooManyClusters {
        /// The configured cluster count.
        clusters: u8,
    },
    /// A cluster with zero issue slots; fetch groups would be empty.
    ZeroSlots,
    /// The rename width is narrower than one full fetch group, so a
    /// maximal trace-cache line could never be accepted and the cycle
    /// loop would livelock waiting for window space that never appears.
    WidthMismatch {
        /// Instructions renamed per cycle.
        rename_width: usize,
        /// Issue slots (= the widest possible fetch group).
        total_slots: usize,
    },
    /// The reorder buffer cannot hold even one full fetch group.
    RobTooSmall {
        /// Configured reorder-buffer entries.
        rob_entries: usize,
        /// Issue slots (= the widest possible fetch group).
        total_slots: usize,
    },
    /// [`SimBuilder::resume_from`] was given a checkpoint captured from
    /// a different program; resuming would simulate that program's
    /// instruction stream under this one's name.
    ForeignCheckpoint,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroClusters => write!(f, "cluster geometry has zero clusters"),
            ConfigError::TooManyClusters { clusters } => write!(
                f,
                "{clusters} clusters exceeds the engine maximum of {MAX_CLUSTERS}"
            ),
            ConfigError::ZeroSlots => write!(f, "cluster geometry has zero slots per cluster"),
            ConfigError::WidthMismatch {
                rename_width,
                total_slots,
            } => write!(
                f,
                "rename width {rename_width} is narrower than a full fetch group \
                 ({total_slots} slots); a maximal trace line could never be accepted"
            ),
            ConfigError::RobTooSmall {
                rob_entries,
                total_slots,
            } => write!(
                f,
                "reorder buffer ({rob_entries} entries) cannot hold one full \
                 fetch group ({total_slots} slots)"
            ),
            ConfigError::ForeignCheckpoint => write!(
                f,
                "the warmup checkpoint was captured from a different program"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Fluent builder for a [`Simulation`]. Obtain one from
/// [`Simulation::builder`], chain setters, then [`build`](Self::build).
///
/// ```
/// use ctcp_sim::{Simulation, Strategy};
/// use ctcp_workload::Benchmark;
///
/// let program = Benchmark::by_name("gzip").unwrap().program();
/// let report = Simulation::builder(&program)
///     .strategy(Strategy::Fdrt { pinning: true })
///     .max_insts(10_000)
///     .build()
///     .unwrap()
///     .run();
/// assert!(report.ipc > 0.1);
/// ```
pub struct SimBuilder<'p> {
    pub(crate) program: &'p Program,
    pub(crate) cfg: SimConfig,
    pub(crate) recorder: Option<Rc<Recorder>>,
    pub(crate) attrib_top_edges: Option<usize>,
    pub(crate) watchdog_stall: Option<u64>,
    pub(crate) cycle_budget: Option<u64>,
    pub(crate) arena: Option<EngineArena>,
    pub(crate) resume: Option<Checkpoint>,
}

impl<'p> SimBuilder<'p> {
    /// A builder over `program` starting from the Table 7 defaults.
    pub fn new(program: &'p Program) -> Self {
        SimBuilder {
            program,
            cfg: SimConfig::default(),
            recorder: None,
            attrib_top_edges: None,
            watchdog_stall: None,
            cycle_budget: None,
            arena: None,
            resume: None,
        }
    }

    /// Replaces the entire configuration (setters applied earlier are
    /// discarded; setters applied later refine `config`).
    pub fn config(mut self, config: SimConfig) -> Self {
        self.cfg = config;
        self
    }

    /// Sets the cluster-assignment strategy under evaluation.
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.cfg.strategy = strategy;
        self
    }

    /// Stops the simulation after `max_insts` retired instructions.
    pub fn max_insts(mut self, max_insts: u64) -> Self {
        self.cfg.max_insts = max_insts;
        self
    }

    /// Functionally executes (no timing) the first `insts` instructions
    /// before the timed phase begins — the ChampSim-style warmup /
    /// simulation split. The report covers only the timed phase;
    /// predictors and caches start cold at the warmup boundary. Part of
    /// [`SimConfig`] (unlike the result-neutral knobs below) because it
    /// changes results and so must perturb result-store cache keys.
    pub fn warmup_instructions(mut self, insts: u64) -> Self {
        self.cfg.warmup_insts = insts;
        self
    }

    /// Resumes the timed phase from a previously captured warmup
    /// [`Checkpoint`] instead of fast-forwarding again. Also adopts the
    /// checkpoint's warmup budget into the configuration, so the result
    /// (and its cache key) is identical to calling
    /// [`warmup_instructions`](Self::warmup_instructions) with the same
    /// count — the checkpoint is purely an execution shortcut. A
    /// checkpoint of another program makes [`build`](Self::build) fail
    /// with [`ConfigError::ForeignCheckpoint`]. The checkpoint itself is
    /// left as it was: the simulation runs on a clone of its state.
    pub fn resume_from(mut self, checkpoint: &Checkpoint) -> Self {
        self.cfg.warmup_insts = checkpoint.requested;
        self.resume = Some(checkpoint.clone());
        self
    }

    /// Seeds the engine with recycled arena storage. Construction-only
    /// plumbing for [`BatchRunner`](crate::BatchRunner), behaviourally
    /// inert: every arena piece is cleared before use.
    pub(crate) fn arena(mut self, arena: EngineArena) -> Self {
        self.arena = Some(arena);
        self
    }

    /// Attaches a telemetry [`Recorder`], shared by the front end and
    /// the engine, to capture counters, histograms and the pipeline
    /// event trace. Without one every hook site is a single `None`
    /// check.
    pub fn recorder(mut self, recorder: Rc<Recorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Turns on cycle attribution: the report comes back with
    /// [`SimReport::attrib`](crate::SimReport) set — the CPI stack
    /// (every retire slot of every cycle charged to one blame bucket)
    /// and the critical-path summary, keeping its `top_edges` hottest
    /// edges. The walk runs as instructions retire and holds only the
    /// critical links a later walk can still need, so its memory does
    /// not grow with the run; a [`BatchRunner`](crate::BatchRunner)
    /// recycles that storage. Like
    /// [`recorder`](Self::recorder), outside [`SimConfig`]: attribution
    /// cannot change what the simulation computes, only what it reports.
    pub fn attrib(mut self, top_edges: usize) -> Self {
        self.attrib_top_edges = Some(top_edges);
        self
    }

    /// Overrides the retire-progress watchdog threshold: a run that
    /// goes `cycles` consecutive cycles without retiring anything
    /// (while work is still pending) aborts with
    /// [`SimError`](crate::SimError)`::Livelock` from
    /// [`Simulation::try_run`]. `0` disables the watchdog. Defaults to
    /// [`DEFAULT_WATCHDOG_STALL_LIMIT`](crate::DEFAULT_WATCHDOG_STALL_LIMIT).
    /// Deliberately *not* part of [`SimConfig`]: it cannot change a
    /// healthy run's results, so it must not perturb result-store cache
    /// keys (which hash the config).
    pub fn watchdog_stall_limit(mut self, cycles: u64) -> Self {
        self.watchdog_stall = Some(cycles);
        self
    }

    /// Overrides the total cycle budget (default `max_insts * 400 +
    /// 2_000_000`): exceeding it aborts with
    /// [`SimError`](crate::SimError)`::CycleBudget`. Also outside
    /// [`SimConfig`], for the same cache-key reason as
    /// [`watchdog_stall_limit`](Self::watchdog_stall_limit).
    pub fn cycle_budget(mut self, cycles: u64) -> Self {
        self.cycle_budget = Some(cycles);
        self
    }

    /// Validates the configuration and constructs the simulation.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] the geometry violates, or
    /// [`ConfigError::ForeignCheckpoint`] if the resume checkpoint was
    /// captured from another program.
    pub fn build(self) -> Result<Simulation<'p>, ConfigError> {
        let g = &self.cfg.engine.geometry;
        if g.clusters == 0 {
            return Err(ConfigError::ZeroClusters);
        }
        if g.clusters > MAX_CLUSTERS {
            return Err(ConfigError::TooManyClusters {
                clusters: g.clusters,
            });
        }
        if g.slots_per_cluster == 0 {
            return Err(ConfigError::ZeroSlots);
        }
        let total_slots = g.total_slots();
        if self.cfg.engine.rename_width < total_slots {
            return Err(ConfigError::WidthMismatch {
                rename_width: self.cfg.engine.rename_width,
                total_slots,
            });
        }
        if self.cfg.engine.rob_entries < total_slots {
            return Err(ConfigError::RobTooSmall {
                rob_entries: self.cfg.engine.rob_entries,
                total_slots,
            });
        }
        if let Some(ck) = &self.resume {
            // Cells mostly resume from checkpoints of their own program
            // object, so the full comparison rarely runs.
            if !std::ptr::eq(&*ck.program, self.program) && *ck.program != *self.program {
                return Err(ConfigError::ForeignCheckpoint);
            }
        }
        Ok(Simulation::from_builder(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctcp_isa::{ProgramBuilder, Reg};
    use std::sync::Arc;

    fn tiny() -> Arc<Program> {
        let mut b = ProgramBuilder::new();
        b.movi(Reg::R1, 3);
        b.halt();
        Arc::new(b.build())
    }

    #[test]
    fn default_geometry_builds() {
        let p = tiny();
        assert!(Simulation::builder(&p).build().is_ok());
    }

    /// The default machine with `clusters` clusters of `slots` slots,
    /// its front end left at Table 7's 16/16/128.
    fn geometry(clusters: u8, slots: u8) -> SimConfig {
        let mut cfg = SimConfig::default();
        cfg.engine.geometry.clusters = clusters;
        cfg.engine.geometry.slots_per_cluster = slots;
        cfg
    }

    #[test]
    fn zero_clusters_rejected() {
        let p = tiny();
        let err = Simulation::builder(&p)
            .config(geometry(0, 4))
            .build()
            .err()
            .unwrap();
        assert_eq!(err, ConfigError::ZeroClusters);
    }

    #[test]
    fn too_many_clusters_rejected() {
        let p = tiny();
        // 9 clusters x 1 slot stays within the rename width, isolating
        // the cluster-count check.
        let err = Simulation::builder(&p)
            .config(geometry(9, 1))
            .build()
            .err()
            .unwrap();
        assert_eq!(err, ConfigError::TooManyClusters { clusters: 9 });
    }

    #[test]
    fn zero_slots_rejected() {
        let p = tiny();
        let err = Simulation::builder(&p)
            .config(geometry(4, 0))
            .build()
            .err()
            .unwrap();
        assert_eq!(err, ConfigError::ZeroSlots);
    }

    #[test]
    fn narrow_rename_width_rejected() {
        let p = tiny();
        let mut cfg = SimConfig::default();
        cfg.engine.rename_width = 8; // geometry default is 16 slots
        let err = Simulation::builder(&p).config(cfg).build().err().unwrap();
        assert_eq!(
            err,
            ConfigError::WidthMismatch {
                rename_width: 8,
                total_slots: 16
            }
        );
    }

    #[test]
    fn tiny_rob_rejected() {
        let p = tiny();
        let mut cfg = SimConfig::default();
        cfg.engine.rob_entries = 8;
        let err = Simulation::builder(&p).config(cfg).build().err().unwrap();
        assert_eq!(
            err,
            ConfigError::RobTooSmall {
                rob_entries: 8,
                total_slots: 16
            }
        );
    }

    #[test]
    fn errors_render_usefully() {
        let msg = ConfigError::WidthMismatch {
            rename_width: 8,
            total_slots: 16,
        }
        .to_string();
        assert!(msg.contains("rename width 8"), "{msg}");
        assert!(msg.contains("16 slots"), "{msg}");
    }

    #[test]
    fn a_checkpoint_of_another_program_is_rejected() {
        let p = tiny();
        let mut b = ProgramBuilder::new();
        b.movi(Reg::R1, 4);
        b.halt();
        let other = Arc::new(b.build());
        let err = Simulation::builder(&p)
            .resume_from(&Checkpoint::capture(&other, 1))
            .build()
            .err()
            .unwrap();
        assert_eq!(err, ConfigError::ForeignCheckpoint);
        // An equal program held elsewhere is the same program.
        let twin = tiny();
        let ck = Checkpoint::capture(&twin, 1);
        let r = Simulation::builder(&p)
            .resume_from(&ck)
            .build()
            .unwrap()
            .run();
        assert_eq!(r.instructions, 1);
    }

    #[test]
    fn setters_refine_a_replaced_config() {
        let p = tiny();
        let mut machine =
            SimConfig::machine(Strategy::Baseline, 2, crate::Topology::FullyConnected);
        machine.engine.hop_latency = 3;
        let b = Simulation::builder(&p)
            .max_insts(7)
            .config(machine)
            .strategy(Strategy::Friendly { middle_bias: false });
        assert_eq!(
            b.cfg.max_insts, machine.max_insts,
            "earlier setters are discarded"
        );
        assert_eq!(b.cfg.strategy, Strategy::Friendly { middle_bias: false });
        assert_eq!(
            format!("{:?}", b.cfg.engine),
            format!("{:?}", machine.engine)
        );
        let r = b.build().unwrap().run();
        assert_eq!(r.instructions, 2);
    }
}
