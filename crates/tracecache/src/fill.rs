//! The fill unit: trace selection and construction from the retire
//! stream.
//!
//! Trace *selection* follows the classic scheme the paper builds on
//! (Rotenberg et al., Patel et al.): a new trace begins at a fetch
//! address — either the head of a trace-cache line being rebuilt, or a
//! fetch address that missed the trace cache while the fill unit was
//! idle. This alignment is what makes constructed traces start at PCs
//! that fetch will actually request again; free-running segmentation of
//! the retire stream would precess around loops and never hit.

use crate::{PendingInst, RawTrace};

/// How the retired instruction relates to fetch-group boundaries, which
/// drives trace selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceHead {
    /// Not the first instruction of its fetch group.
    None,
    /// First instruction of a group fetched from the trace cache: the
    /// current trace ends here and a rebuild of the line begins.
    TraceCacheLine,
    /// First instruction of a group whose fetch address missed the trace
    /// cache: starts a new trace if the fill unit is idle.
    TraceCacheMiss,
}

/// Fill unit parameters (defaults: 16-instruction, 3-basic-block traces
/// and a short install latency — the paper shows latencies up to 1000
/// cycles do not materially change results).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FillUnitConfig {
    /// Maximum instructions per trace.
    pub max_insts: usize,
    /// Maximum basic blocks (control transfers) per trace.
    pub max_blocks: usize,
    /// Cycles between trace completion and installation in the trace
    /// cache.
    pub latency: u64,
    /// Also terminate traces at backward taken branches (loop-back
    /// edges), aligning trace families with loop iterations. Without
    /// this, trace boundaries precess around loops and the same static
    /// instruction lands in several overlapping trace families, churning
    /// retire-time cluster assignments.
    pub end_at_backward_branch: bool,
}

impl Default for FillUnitConfig {
    fn default() -> Self {
        FillUnitConfig {
            max_insts: 16,
            max_blocks: 3,
            latency: 3,
            end_at_backward_branch: true,
        }
    }
}

/// Aggregate fill-unit counters, reported as one snapshot so consumers
/// do not stitch together individual accessors.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FillUnitStats {
    /// Traces finalised.
    pub traces_built: u64,
    /// Instructions accepted into traces (the unit idles between trace
    /// heads, so this can be less than retired instructions).
    pub insts_buffered: u64,
}

/// Finalised traces a caller hands back with [`FillUnit::recycle`] that
/// the unit keeps for reuse; more than one push ever emits is waste.
const SPARE_TRACES: usize = 2;

/// The traces one [`FillUnit::push`] finalised — none, one, or two (a
/// line-boundary flush plus a completion), oldest first — held inline so
/// a push allocates no list for them.
#[derive(Debug, Default)]
pub struct Finalized {
    traces: [Option<RawTrace>; 2],
}

impl Finalized {
    fn push(&mut self, trace: RawTrace) {
        let slot = self
            .traces
            .iter_mut()
            .find(|t| t.is_none())
            .expect("a push finalises at most two traces");
        *slot = Some(trace);
    }

    /// Number of traces still to be yielded.
    pub fn len(&self) -> usize {
        self.traces.iter().flatten().count()
    }

    /// True when no trace is left.
    pub fn is_empty(&self) -> bool {
        self.traces[0].is_none()
    }
}

impl Iterator for Finalized {
    type Item = RawTrace;

    fn next(&mut self) -> Option<RawTrace> {
        let first = self.traces[0].take();
        self.traces.swap(0, 1);
        first
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.len(), Some(self.len()))
    }
}

/// The fill unit buffers retiring instructions and emits finalised
/// [`RawTrace`]s. A trace ends when it holds `max_insts` instructions,
/// `max_blocks` control transfers, an indirect control transfer (whose
/// target varies), or when the retire stream crosses into a rebuilt
/// trace-cache line. Between traces the unit idles until the next trace
/// head retires.
///
/// The partial trace's buffer keeps its capacity from one trace to the
/// next, and a caller that hands finished traces back with
/// [`recycle`](Self::recycle) gets their storage refilled by the next
/// trace, so steady-state trace construction allocates nothing.
#[derive(Debug)]
pub struct FillUnit {
    config: FillUnitConfig,
    pending: Vec<PendingInst>,
    /// Recycled traces whose storage the next finalised trace reuses.
    spare: Vec<RawTrace>,
    branches: usize,
    filling: bool,
    traces_built: u64,
    insts_buffered: u64,
}

impl FillUnit {
    /// Creates an idle fill unit.
    ///
    /// # Panics
    ///
    /// Panics if `max_insts` or `max_blocks` is zero.
    pub fn new(config: FillUnitConfig) -> Self {
        assert!(config.max_insts > 0 && config.max_blocks > 0);
        FillUnit {
            config,
            pending: Vec::with_capacity(config.max_insts),
            spare: Vec::with_capacity(SPARE_TRACES),
            branches: 0,
            filling: false,
            traces_built: 0,
            insts_buffered: 0,
        }
    }

    /// Install latency configured for this fill unit.
    pub fn latency(&self) -> u64 {
        self.config.latency
    }

    /// Number of traces finalised so far.
    pub fn traces_built(&self) -> u64 {
        self.traces_built
    }

    /// Total instructions accepted into traces so far.
    pub fn insts_buffered(&self) -> u64 {
        self.insts_buffered
    }

    /// Every fill-unit counter in one snapshot.
    pub fn stats(&self) -> FillUnitStats {
        FillUnitStats {
            traces_built: self.traces_built,
            insts_buffered: self.insts_buffered,
        }
    }

    /// Instructions waiting in the partial trace.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// True while a trace is being collected.
    pub fn is_filling(&self) -> bool {
        self.filling
    }

    /// Accepts one retired instruction with its trace-head marker;
    /// returns zero, one, or two finalised traces (a line-boundary flush
    /// plus a completion).
    pub fn push(&mut self, inst: PendingInst, head: TraceHead) -> Finalized {
        let mut out = Finalized::default();
        match head {
            TraceHead::TraceCacheLine => {
                // Re-align: finish whatever was collecting, rebuild the
                // line from its head.
                if let Some(t) = self.finalize() {
                    out.push(t);
                }
                self.filling = true;
            }
            TraceHead::TraceCacheMiss => {
                if !self.filling {
                    self.filling = true;
                }
                // Already filling: the trace extends across the group
                // boundary.
            }
            TraceHead::None => {
                if !self.filling {
                    // Idle: not collected into any trace.
                    return out;
                }
            }
        }
        let is_cti = inst.inst.op.is_cti();
        let is_indirect = inst.inst.op.is_indirect();
        let is_backward_taken = self.config.end_at_backward_branch
            && inst.taken == Some(true)
            && inst.inst.op.is_conditional_branch()
            && ctcp_isa::Program::pc_of(inst.inst.imm as usize) <= inst.pc;
        self.insts_buffered += 1;
        self.pending.push(inst);
        if is_cti {
            self.branches += 1;
        }
        if self.pending.len() >= self.config.max_insts
            || self.branches >= self.config.max_blocks
            || is_indirect
            || is_backward_taken
        {
            if let Some(t) = self.finalize() {
                out.push(t);
            }
            self.filling = false;
        }
        out
    }

    /// Hands a finished trace back so the next finalised trace reuses its
    /// storage instead of allocating.
    pub fn recycle(&mut self, trace: RawTrace) {
        if self.spare.len() < SPARE_TRACES {
            self.spare.push(trace);
        }
    }

    /// Forces the partial trace out (end of simulation).
    pub fn flush(&mut self) -> Option<RawTrace> {
        let t = self.finalize();
        self.filling = false;
        t
    }

    fn finalize(&mut self) -> Option<RawTrace> {
        self.branches = 0;
        if self.pending.is_empty() {
            return None;
        }
        self.traces_built += 1;
        let mut trace = self.spare.pop().unwrap_or_else(RawTrace::empty);
        trace.refill(&self.pending);
        self.pending.clear();
        Some(trace)
    }
}

impl Default for FillUnit {
    fn default() -> Self {
        FillUnit::new(FillUnitConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExecFeedback, ProfileFields};
    use ctcp_isa::{Instruction, Opcode, Reg};

    fn pi(seq: u64, op: Opcode, taken: Option<bool>) -> PendingInst {
        let inst = match op {
            Opcode::Add => Instruction::new(op, Some(Reg::R1), Some(Reg::R2), Some(Reg::R3), 0),
            Opcode::Jr => Instruction::new(op, None, Some(Reg::R1), None, 0),
            // Forward target so the backward-taken-branch trace
            // terminator does not fire in these tests.
            _ => Instruction::new(op, None, Some(Reg::R1), Some(Reg::R2), 500),
        };
        PendingInst {
            seq,
            index: seq as u32,
            pc: 0x1000 + 4 * seq,
            inst,
            profile: ProfileFields::default(),
            tc_loc: None,
            feedback: ExecFeedback::default(),
            taken,
        }
    }

    #[test]
    fn idle_unit_drops_non_heads() {
        let mut fu = FillUnit::default();
        assert!(fu
            .push(pi(0, Opcode::Add, None), TraceHead::None)
            .is_empty());
        assert_eq!(fu.pending_len(), 0);
        assert!(!fu.is_filling());
    }

    #[test]
    fn miss_head_starts_collection_and_capacity_ends_it() {
        let mut fu = FillUnit::default();
        assert!(fu
            .push(pi(0, Opcode::Add, None), TraceHead::TraceCacheMiss)
            .is_empty());
        assert!(fu.is_filling());
        for i in 1..15 {
            assert!(fu
                .push(pi(i, Opcode::Add, None), TraceHead::None)
                .is_empty());
        }
        let out: Vec<RawTrace> = fu
            .push(pi(15, Opcode::Add, None), TraceHead::None)
            .collect();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].len(), 16);
        assert!(!fu.is_filling());
        assert_eq!(fu.traces_built(), 1);
    }

    #[test]
    fn trace_extends_across_miss_group_boundaries() {
        let mut fu = FillUnit::default();
        fu.push(pi(0, Opcode::Add, None), TraceHead::TraceCacheMiss);
        fu.push(pi(1, Opcode::Bne, Some(true)), TraceHead::None);
        // Next group also missed, but the unit keeps filling.
        assert!(fu
            .push(pi(2, Opcode::Add, None), TraceHead::TraceCacheMiss)
            .is_empty());
        assert_eq!(fu.pending_len(), 3);
    }

    #[test]
    fn tc_line_head_flushes_and_realigns() {
        let mut fu = FillUnit::default();
        fu.push(pi(0, Opcode::Add, None), TraceHead::TraceCacheMiss);
        fu.push(pi(1, Opcode::Add, None), TraceHead::None);
        // Crossing into a trace-cache group finalises the partial trace
        // and starts collecting the rebuilt line.
        let out: Vec<RawTrace> = fu
            .push(pi(2, Opcode::Add, None), TraceHead::TraceCacheLine)
            .collect();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].len(), 2);
        assert!(fu.is_filling());
        assert_eq!(fu.pending_len(), 1);
    }

    #[test]
    fn three_branches_end_a_trace() {
        let mut fu = FillUnit::default();
        fu.push(pi(0, Opcode::Add, None), TraceHead::TraceCacheMiss);
        fu.push(pi(1, Opcode::Bne, Some(true)), TraceHead::None);
        fu.push(pi(2, Opcode::Bne, Some(false)), TraceHead::None);
        let out: Vec<RawTrace> = fu
            .push(pi(3, Opcode::Bne, Some(true)), TraceHead::None)
            .collect();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].branch_count, 3);
        assert!(!fu.is_filling());
    }

    #[test]
    fn indirect_ends_a_trace() {
        let mut fu = FillUnit::default();
        fu.push(pi(0, Opcode::Add, None), TraceHead::TraceCacheMiss);
        let out: Vec<RawTrace> = fu
            .push(pi(1, Opcode::Jr, Some(true)), TraceHead::None)
            .collect();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].len(), 2);
    }

    #[test]
    fn flush_emits_partial_trace_once() {
        let mut fu = FillUnit::default();
        fu.push(pi(0, Opcode::Add, None), TraceHead::TraceCacheMiss);
        let t = fu.flush().unwrap();
        assert_eq!(t.len(), 1);
        assert!(fu.flush().is_none());
    }

    #[test]
    fn backward_taken_branch_ends_a_trace() {
        let mut fu = FillUnit::default();
        fu.push(pi(5, Opcode::Add, None), TraceHead::TraceCacheMiss);
        // Taken conditional branch whose target (instruction 0) is behind
        // its own pc: a loop-back edge.
        let mut back = pi(6, Opcode::Bne, Some(true));
        back.inst.imm = 0;
        let out: Vec<RawTrace> = fu.push(back, TraceHead::None).collect();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].len(), 2);
        assert!(!fu.is_filling());
        // The same branch not taken does not end the trace.
        let mut fu = FillUnit::default();
        fu.push(pi(5, Opcode::Add, None), TraceHead::TraceCacheMiss);
        let mut nt = pi(6, Opcode::Bne, Some(false));
        nt.inst.imm = 0;
        assert!(fu.push(nt, TraceHead::None).is_empty());
    }

    #[test]
    fn recycled_traces_are_refilled_in_place() {
        let mut fu = FillUnit::default();
        fu.push(pi(0, Opcode::Add, None), TraceHead::TraceCacheMiss);
        let first = fu
            .push(pi(1, Opcode::Jr, Some(true)), TraceHead::None)
            .next();
        let first = first.expect("the indirect jump ends the trace");
        let storage = first.insts.as_ptr();
        fu.recycle(first);
        fu.push(pi(2, Opcode::Add, None), TraceHead::TraceCacheMiss);
        let second = fu.flush().expect("partial trace");
        assert_eq!(second.insts.as_ptr(), storage, "storage was reused");
        assert_eq!(second.len(), 1);
        assert_eq!(second.insts[0].seq, 2);
        assert_eq!(second.intra_producers, vec![[None, None]]);
        assert_eq!(second.has_intra_consumer, vec![false]);
        assert_eq!(second.branch_count, 0);
    }

    #[test]
    fn a_line_boundary_can_finalise_two_traces_in_one_push() {
        let mut fu = FillUnit::default();
        fu.push(pi(0, Opcode::Add, None), TraceHead::TraceCacheMiss);
        // A rebuilt line whose first instruction is an indirect jump: the
        // partial trace is flushed and the one-instruction trace ends.
        let out = fu.push(pi(1, Opcode::Jr, Some(true)), TraceHead::TraceCacheLine);
        assert_eq!(out.len(), 2);
        let seqs: Vec<u64> = out.map(|t| t.insts[0].seq).collect();
        assert_eq!(seqs, vec![0, 1]);
    }

    #[test]
    fn branch_count_resets_between_traces() {
        let mut fu = FillUnit::default();
        fu.push(pi(0, Opcode::Bne, Some(true)), TraceHead::TraceCacheMiss);
        fu.push(pi(1, Opcode::Bne, Some(true)), TraceHead::None);
        let out = fu.push(pi(2, Opcode::Bne, Some(true)), TraceHead::None);
        assert_eq!(out.len(), 1);
        // New trace: the branch counter starts fresh.
        fu.push(pi(3, Opcode::Bne, Some(true)), TraceHead::TraceCacheMiss);
        assert!(fu.is_filling());
        assert_eq!(fu.pending_len(), 1);
    }
}
