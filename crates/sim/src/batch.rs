//! Batched execution of many simulation cells on one thread.
//!
//! A sweep runs hundreds of short, independent cells. Run naively, each
//! cell constructs the engine's hot state on a cold heap.
//! [`BatchRunner`] round-trips one [`EngineArena`] through consecutive
//! cells instead, so struct-of-arrays slabs and queue storage stay
//! allocated and cache-warm. Warmup checkpoints are not its business:
//! a cell that resumes from one says so on its builder, and a pool
//! shares them through one [`CheckpointCache`](crate::CheckpointCache).
//!
//! Recycling is behaviourally inert: arena storage is cleared (capacity
//! kept) before each cell. The batch-equivalence test proves
//! byte-identical reports against one-at-a-time execution across every
//! strategy.

use crate::builder::SimBuilder;
use crate::report::SimReport;
use crate::{ConfigError, SimError};
use ctcp_core::EngineArena;

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

/// Runs a sequence of independent simulation cells, of any programs,
/// with recycled engine storage. One runner belongs to one worker
/// thread for its whole life; results are byte-identical to building
/// and running each cell individually.
#[derive(Default)]
pub struct BatchRunner {
    arena: Option<EngineArena>,
}

impl BatchRunner {
    /// An empty runner: the first cell allocates fresh, later cells
    /// recycle.
    pub fn new() -> Self {
        BatchRunner::default()
    }

    /// Builds and runs one cell on the previous cell's arena.
    ///
    /// # Errors
    ///
    /// [`BatchError::Config`] if the builder rejects the configuration,
    /// [`BatchError::Sim`] if the run aborts. Either way the runner
    /// stays usable for the next cell.
    pub fn try_run(&mut self, mut builder: SimBuilder<'_>) -> Result<SimReport, BatchError> {
        if let Some(arena) = self.arena.take() {
            builder = builder.arena(arena);
        }
        let sim = builder.build().map_err(BatchError::Config)?;
        let (result, arena) = sim.try_run_reclaiming();
        self.arena = Some(arena);
        result.map_err(BatchError::Sim)
    }
}
