//! In-flight instruction state (ROB entries).

use crate::RsClass;
use ctcp_isa::Instruction;
use ctcp_tracecache::{ProfileFields, TcLocation};

/// Resolution state of one source operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SrcState {
    /// No register source (or the zero register).
    None,
    /// Value comes from the register file, readable at the given cycle.
    RfReady { at: u64 },
    /// Value comes from an in-flight producer that has not completed.
    Waiting { producer_seq: u64 },
    /// Producer has completed: the raw result exists at `complete` on
    /// `cluster`; consumers add forwarding latency by distance.
    Forwarded {
        producer_seq: u64,
        complete: u64,
        cluster: u8,
        /// Producer fetched in the same trace/fetch group as the consumer.
        same_trace: bool,
    },
}

/// Pipeline stage of an in-flight instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Stage {
    /// Steered, waiting to be written into a reservation station.
    AwaitDispatch { at: u64 },
    /// In a reservation station, waiting for operands / functional unit.
    InRs,
    /// Executing; result at `complete`.
    Executing { complete: u64 },
    /// Result produced; eligible to retire when it reaches the ROB head.
    Complete { at: u64 },
}

/// One in-flight instruction, from rename to retirement. Lives in the
/// engine's ROB (a `VecDeque` indexed by sequence number offset).
#[derive(Debug, Clone)]
pub(crate) struct Entry {
    pub seq: u64,
    pub pc: u64,
    pub index: u32,
    pub inst: Instruction,
    pub mem_addr: Option<u64>,
    pub taken: Option<bool>,
    /// Fetch-group id (trace identity for inter/intra-trace decisions).
    pub group: u64,
    pub from_tc: bool,
    pub tc_loc: Option<TcLocation>,
    pub profile: ProfileFields,
    /// Assigned cluster.
    pub cluster: u8,
    /// Reservation station within the cluster.
    pub rs: RsClass,
    pub srcs: [SrcState; 2],
    /// `(ready cycle, critical source)` once every source has resolved:
    /// fixed from then on, so the event scheduler computes it once (at
    /// dispatch or at the last wakeup) instead of at every issue attempt.
    pub ready: Option<(u64, Option<usize>)>,
    pub stage: Stage,
    /// The branch was mispredicted at fetch; its completion redirects the
    /// front-end.
    pub mispredicted: bool,
    /// Cycle rename accepted the instruction into the window.
    pub renamed_at: u64,
    /// Cycle the instruction entered a reservation station.
    pub dispatched_at: u64,
    /// Cycle execution began.
    pub exec_start: u64,
    /// Execution feedback being accumulated for the fill unit.
    pub feedback: ctcp_tracecache::ExecFeedback,
    /// Head of this entry's wakeup chain in the engine's
    /// [`ConsumerArena`](crate::arena::ConsumerArena): the
    /// `(consumer_seq, src_index)` registrations made at rename for each
    /// in-flight instruction still waiting on this entry's result.
    /// Completion resolves exactly these sources, so no ROB-wide
    /// broadcast is needed. `NIL` when empty; drained (nodes returned to
    /// the slab's free list) when this entry completes.
    pub cons_head: u32,
    /// Tail of the wakeup chain, so registration appends in O(1) and the
    /// drain preserves insertion order.
    pub cons_tail: u32,
}

impl Entry {
    /// Completion cycle, if complete or executing.
    pub(crate) fn complete_cycle(&self) -> Option<u64> {
        match self.stage {
            Stage::Executing { complete } => Some(complete),
            Stage::Complete { at } => Some(at),
            _ => None,
        }
    }
}
