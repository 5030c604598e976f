//! Batched execution of many simulation cells on one thread.
//!
//! A sweep runs hundreds of short, independent cells. Run naively, each
//! cell pays two avoidable costs: constructing the engine's hot state
//! on a cold heap, and — when a warmup budget is set — re-executing the
//! same functional fast-forward for every strategy/geometry sharing the
//! workload. [`BatchRunner`] eliminates both. It round-trips one
//! [`EngineArena`] through consecutive cells (struct-of-arrays slabs
//! and queue storage stay allocated and cache-warm), and it memoizes
//! the most recent warmup [`Checkpoint`], reusing it whenever the next
//! cell targets the same program with the same warmup budget.
//!
//! Both optimisations are behaviourally inert: arena storage is cleared
//! (capacity kept) before each cell, and checkpoint resume is
//! bit-identical to fast-forwarding fresh. The batch-equivalence test
//! proves byte-identical reports against one-at-a-time execution across
//! every strategy.

use crate::builder::SimBuilder;
use crate::checkpoint::Checkpoint;
use crate::report::SimReport;
use crate::{ConfigError, SimError};
use ctcp_core::EngineArena;
use ctcp_isa::Program;

/// Why a batched cell failed: either its configuration never validated
/// or the simulation itself aborted.
#[derive(Debug)]
pub enum BatchError {
    /// The cell's configuration failed [`SimBuilder::build`] validation.
    Config(ConfigError),
    /// The simulation ran but aborted (watchdog or cycle budget).
    Sim(SimError),
}

impl std::fmt::Display for BatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BatchError::Config(e) => write!(f, "invalid configuration: {e}"),
            BatchError::Sim(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for BatchError {}

/// Runs a sequence of independent simulation cells with recycled engine
/// storage and memoized warmup checkpoints. One runner belongs to one
/// worker thread; results are byte-identical to building and running
/// each cell individually.
#[derive(Default)]
pub struct BatchRunner<'p> {
    arena: Option<EngineArena>,
    checkpoint: Option<(&'p Program, Checkpoint<'p>)>,
}

impl<'p> BatchRunner<'p> {
    /// An empty runner: the first cell allocates fresh, later cells
    /// recycle.
    pub fn new() -> Self {
        BatchRunner::default()
    }

    /// A runner seeded with a previously reclaimed arena, so storage
    /// recycling survives across runner instances. A resident worker
    /// whose cells reference short-lived programs cannot keep one
    /// `BatchRunner<'p>` alive across them (the memoized checkpoint
    /// borrows the program), but it can keep the owned [`EngineArena`]
    /// and thread it through a fresh runner when the program changes.
    pub fn with_arena(arena: EngineArena) -> Self {
        BatchRunner {
            arena: Some(arena),
            checkpoint: None,
        }
    }

    /// Takes the recycled arena back out of the runner (if any run
    /// completed), for donation to the next runner instance.
    pub fn take_arena(&mut self) -> Option<EngineArena> {
        self.arena.take()
    }

    /// Builds and runs one cell, reusing the previous cell's arena and
    /// (when program and warmup budget match) warmup checkpoint.
    ///
    /// # Errors
    ///
    /// [`BatchError::Config`] if the builder rejects the configuration,
    /// [`BatchError::Sim`] if the run aborts. Either way the runner
    /// stays usable for the next cell.
    pub fn try_run(&mut self, mut builder: SimBuilder<'p>) -> Result<SimReport, BatchError> {
        let warmup = builder.cfg.warmup_insts;
        if warmup > 0 && builder.resume.is_none() {
            let program = builder.program;
            let cached = self
                .checkpoint
                .as_ref()
                .is_some_and(|(p, ck)| std::ptr::eq(*p, program) && ck.requested == warmup);
            if !cached {
                self.checkpoint = Some((program, Checkpoint::capture(program, warmup)));
            }
            let (_, ck) = self.checkpoint.as_ref().expect("just ensured");
            builder = builder.resume_from(ck);
        }
        if let Some(arena) = self.arena.take() {
            builder = builder.arena(arena);
        }
        let sim = builder.build().map_err(BatchError::Config)?;
        let (result, arena) = sim.try_run_reclaiming();
        self.arena = Some(arena);
        result.map_err(BatchError::Sim)
    }
}
