//! Warmup checkpoints: reusable functional fast-forward snapshots.
//!
//! Fast-forwarding a long workload to its region of interest is pure
//! functional execution — no timing state is touched — so the result
//! depends only on the program and the instruction count. A
//! [`Checkpoint`] captures that state once; every simulation resumed
//! from it (via [`SimBuilder::resume_from`](crate::SimBuilder)) starts
//! bit-identically to a simulation that fast-forwarded on its own,
//! without re-executing the warmup phase.

use crate::stream::InstStream;
use ctcp_isa::{Executor, Program};

/// The functional (architectural) state of `program` after executing
/// its first `warmup_instructions` instructions: registers, data memory
/// image, and the position in the dynamic instruction stream. Cloning
/// is cheap relative to re-execution, and resuming never mutates the
/// checkpoint, so one capture serves any number of timed runs.
#[derive(Clone)]
pub struct Checkpoint<'p> {
    /// The program it was captured from: a simulation of any other
    /// program refuses to resume from it.
    pub(crate) program: &'p Program,
    pub(crate) stream: InstStream<'p>,
    pub(crate) requested: u64,
    pub(crate) skipped: u64,
}

impl<'p> Checkpoint<'p> {
    /// Functionally executes the first `warmup_insts` instructions of
    /// `program` (fewer if the program ends first) and snapshots the
    /// resulting state. The instructions run through
    /// [`Executor::fast_forward`], which builds no per-instruction
    /// records.
    pub fn capture(program: &'p Program, warmup_insts: u64) -> Self {
        let mut stream = InstStream::new(Executor::new(program));
        let skipped = stream.fast_forward(warmup_insts);
        Checkpoint {
            program,
            stream,
            requested: warmup_insts,
            skipped,
        }
    }

    /// The warmup budget this checkpoint was captured with.
    pub fn warmup_instructions(&self) -> u64 {
        self.requested
    }

    /// How many instructions were actually skipped — less than the
    /// budget only when the program ended inside the warmup phase.
    pub fn instructions_skipped(&self) -> u64 {
        self.skipped
    }
}
