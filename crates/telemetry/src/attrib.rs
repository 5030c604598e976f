//! Per-instruction cycle attribution.
//!
//! Four pieces live here:
//!
//! * [`InstAttrib`] — one lifecycle record per retired instruction,
//!   handed to [`Recorder::retire_attrib`]: stage cycle stamps plus, per
//!   source operand, *where the value came from* (register file,
//!   same-cluster bypass, or an inter-cluster forward). The recorder
//!   derives its pipeline spans and flow arrows from it.
//! * [`CpiStack`] — the retirement-driven cycle accounting. Every cycle
//!   the machine owns `retire_width` retire slots; each slot either
//!   retires an instruction (charged to *base*) or stalls, and the
//!   stalled slots are charged to exactly one of five blame buckets
//!   keyed by what the ROB head was waiting for.
//! * [`CritLink`] — the 16-byte record an attribution-enabled engine
//!   makes per retired instruction: its PC and how far back its
//!   last-arriving producer sits.
//! * [`CritWalker`] — a last-arriving-operand walker fed those links as
//!   instructions retire. It reports how many critical dependence
//!   edges crossed a cluster boundary, the paper's core mechanism, and
//!   holds only the links a later walk can still need, so its memory
//!   does not grow with the run. [`CriticalSummary::walk`] streams a
//!   slice through it.
//!
//! [`Recorder::retire_attrib`]: crate::Recorder::retire_attrib

use crate::json::Value;
use std::collections::HashMap;

/// Blame bucket for one cycle-slot of retire bandwidth.
///
/// Classification is by priority at the ROB head (first match wins):
/// an empty ROB is a front-end problem (*branch-mispredict* while
/// refetching after a squash, *fetch/trace-miss* otherwise); a head
/// waiting on an operand still crossing the interconnect is
/// *inter-cluster-delay*; a head executing a load is *memory*; a head
/// with ready operands that has not issued (or not dispatched) is
/// *RS/dispatch-stall*; everything else — including slots that did
/// retire an instruction — is *base*.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetireSlotKind {
    /// The slot retired an instruction, or stalled on plain in-order
    /// drain (head completing this cycle, register-file read latency).
    Base,
    /// Head waits on an operand in flight on the inter-cluster
    /// interconnect.
    InterCluster,
    /// Head has its operands but has not won a dispatch port or an
    /// issue slot (structural/RS pressure).
    RsDispatch,
    /// ROB empty because fetch could not supply instructions (icache or
    /// trace-cache miss, delivery bubble).
    FetchMiss,
    /// ROB empty because fetch is squashed awaiting a mispredicted
    /// branch redirect.
    BranchMispredict,
    /// Head is a load still executing (cache miss / MSHR queueing).
    Memory,
}

impl RetireSlotKind {
    /// Every bucket, in export order.
    pub const ALL: [RetireSlotKind; 6] = [
        RetireSlotKind::Base,
        RetireSlotKind::InterCluster,
        RetireSlotKind::RsDispatch,
        RetireSlotKind::FetchMiss,
        RetireSlotKind::BranchMispredict,
        RetireSlotKind::Memory,
    ];

    /// Number of distinct buckets.
    pub const COUNT: usize = RetireSlotKind::ALL.len();

    /// The stable snake_case name used by every exporter.
    pub fn name(self) -> &'static str {
        match self {
            RetireSlotKind::Base => "base",
            RetireSlotKind::InterCluster => "inter_cluster",
            RetireSlotKind::RsDispatch => "rs_dispatch",
            RetireSlotKind::FetchMiss => "fetch",
            RetireSlotKind::BranchMispredict => "branch_mispredict",
            RetireSlotKind::Memory => "memory",
        }
    }

    /// The bucket's slot in [`CpiStack::slots`].
    pub fn index(self) -> usize {
        // Variant order matches `ALL`, so the discriminant is the slot.
        self as usize
    }
}

/// Where a source operand's value came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SrcKind {
    /// The instruction has no register source in this slot.
    #[default]
    Absent,
    /// Read from the register file (producer already retired or value
    /// architectural at rename).
    RegFile,
    /// Bypassed from a producer on the *same* cluster (zero hops).
    Bypass,
    /// Forwarded from a producer on *another* cluster across the
    /// interconnect.
    Forward,
}

impl SrcKind {
    /// The stable snake_case name used by every exporter.
    pub fn name(self) -> &'static str {
        match self {
            SrcKind::Absent => "absent",
            SrcKind::RegFile => "reg_file",
            SrcKind::Bypass => "bypass",
            SrcKind::Forward => "forward",
        }
    }
}

/// Provenance of one source operand of a retired instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SrcAttrib {
    /// How the value reached the consumer.
    pub kind: SrcKind,
    /// Cluster the producer executed on (meaningful for
    /// `Bypass`/`Forward`).
    pub producer_cluster: u8,
    /// Cycle the producer's result completed (0 when not applicable).
    pub complete: u64,
    /// Cycle the value became usable at the consumer's cluster.
    pub arrival: u64,
}

/// One retired instruction's lifecycle, as handed to
/// [`Recorder::retire_attrib`](crate::Recorder::retire_attrib).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstAttrib {
    /// Global dynamic sequence number (dense, program order).
    pub seq: u64,
    /// Program counter.
    pub pc: u64,
    /// Cluster the instruction executed on.
    pub cluster: u8,
    /// Cycle rename accepted the instruction into the window.
    pub renamed_at: u64,
    /// Cycle the instruction won a dispatch port into its RS.
    pub dispatched_at: u64,
    /// Cycle execution began (issue).
    pub exec_start: u64,
    /// Cycle the result completed.
    pub complete_at: u64,
    /// Cycle the instruction retired.
    pub retired_at: u64,
    /// Provenance of each source operand.
    pub srcs: [SrcAttrib; 2],
}

/// The retirement-driven CPI stack: every cycle-slot of retire
/// bandwidth charged to exactly one [`RetireSlotKind`], so the slots
/// always sum to `cycles * retire_width`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CpiStack {
    /// Slot counts indexed by [`RetireSlotKind::index`].
    pub slots: [u64; RetireSlotKind::COUNT],
    /// Cycles accounted (one [`charge`](CpiStack::charge) call each).
    pub cycles: u64,
}

impl CpiStack {
    /// Accounts one cycle: `retired` slots to *base* and `stalled`
    /// slots to `stall`.
    pub fn charge(&mut self, retired: u64, stalled: u64, stall: RetireSlotKind) {
        self.slots[RetireSlotKind::Base.index()] += retired;
        self.slots[stall.index()] += stalled;
        self.cycles += 1;
    }

    /// Accounts `cycles` cycles that retired nothing, charging all
    /// `width` slots of each to `stall`: the same as that many
    /// [`charge`](CpiStack::charge)`(0, width, stall)` calls.
    pub fn charge_idle(&mut self, cycles: u64, width: u64, stall: RetireSlotKind) {
        self.slots[stall.index()] += cycles * width;
        self.cycles += cycles;
    }

    /// Sum of every slot — must equal `cycles * retire_width`.
    pub fn total(&self) -> u64 {
        self.slots.iter().sum()
    }

    /// The count charged to `kind`.
    pub fn get(&self, kind: RetireSlotKind) -> u64 {
        self.slots[kind.index()]
    }

    /// Fraction of all slots charged to `kind` (0.0 when empty).
    pub fn fraction(&self, kind: RetireSlotKind) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.get(kind) as f64 / total as f64
        }
    }

    /// Renders the stack as `{"cycles": n, "slots": {name: n, ...}}`.
    pub fn to_value(&self) -> Value {
        let slots = RetireSlotKind::ALL
            .iter()
            .map(|&k| (k.name().to_string(), Value::u64(self.get(k))))
            .collect();
        Value::Obj(vec![
            ("cycles".into(), Value::u64(self.cycles)),
            ("slots".into(), Value::Obj(slots)),
        ])
    }

    /// Parses [`CpiStack::to_value`] output.
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing or malformed field.
    pub fn from_value(v: &Value) -> Result<CpiStack, String> {
        let cycles = v
            .get("cycles")
            .and_then(Value::as_u64)
            .ok_or("cpi stack: missing cycles")?;
        let slots_obj = v.get("slots").ok_or("cpi stack: missing slots")?;
        let mut slots = [0u64; RetireSlotKind::COUNT];
        for k in RetireSlotKind::ALL {
            slots[k.index()] = slots_obj
                .get(k.name())
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("cpi stack: missing slot {}", k.name()))?;
        }
        Ok(CpiStack { slots, cycles })
    }
}

/// Critical-path edges a summary keeps unless the caller asks for
/// another count (`ctcp analyze --top`, `SimBuilder::attrib`).
pub const DEFAULT_TOP_EDGES: usize = 8;

/// One retired instruction's step on the last-arriving-operand path:
/// what an attribution-enabled engine hands a [`CritWalker`] per
/// retired instruction, in retirement order. 16 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CritLink {
    /// Program counter.
    pub pc: u64,
    /// How many retired instructions back the producer of the critical
    /// (last-arriving) operand sits, when that value was bypassed or
    /// forwarded from an in-window producer; 0 when the instruction
    /// heads a chain (register-file operand, or no operand at all).
    pub back: u32,
    /// Interconnect hops the critical value crossed (0 = same cluster).
    pub hops: u8,
}

/// One aggregated critical-path dependence edge (producer PC →
/// consumer PC) and how often the walker crossed it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CritEdge {
    /// Producer's program counter.
    pub from_pc: u64,
    /// Consumer's program counter.
    pub to_pc: u64,
    /// Interconnect hops between the two clusters (0 = same cluster).
    pub hops: u8,
    /// Dynamic traversals of this edge.
    pub count: u64,
}

/// What the critical-path walker found.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CriticalSummary {
    /// Dynamic dependence edges walked.
    pub edges: u64,
    /// Of those, edges whose value crossed a cluster boundary.
    pub cross_cluster: u64,
    /// The hottest static edges, by dynamic count (descending).
    pub top: Vec<CritEdge>,
}

impl CriticalSummary {
    /// Walks the last-arriving-operand critical path backwards through
    /// `links`, one per retired instruction in retirement order, by
    /// streaming them through a [`CritWalker`] whose window is the
    /// largest `back` plus one.
    pub fn walk(links: &[CritLink], top_n: usize) -> CriticalSummary {
        let window = links.iter().map(|l| l.back as usize + 1).max();
        let mut walker = CritWalker::new(window.unwrap_or(1), CritWalker::default());
        for &link in links {
            walker.push(link);
        }
        walker.finish(top_n)
    }

    /// Fraction of critical edges that crossed clusters (0.0 when the
    /// walk found no edges).
    pub fn cross_fraction(&self) -> f64 {
        if self.edges == 0 {
            0.0
        } else {
            self.cross_cluster as f64 / self.edges as f64
        }
    }

    /// Renders the summary as JSON.
    pub fn to_value(&self) -> Value {
        let top = self
            .top
            .iter()
            .map(|e| {
                Value::Obj(vec![
                    ("from_pc".into(), Value::u64(e.from_pc)),
                    ("to_pc".into(), Value::u64(e.to_pc)),
                    ("hops".into(), Value::u64(u64::from(e.hops))),
                    ("count".into(), Value::u64(e.count)),
                ])
            })
            .collect();
        Value::Obj(vec![
            ("edges".into(), Value::u64(self.edges)),
            ("cross_cluster".into(), Value::u64(self.cross_cluster)),
            ("top".into(), Value::Arr(top)),
        ])
    }

    /// Parses [`CriticalSummary::to_value`] output.
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing or malformed field.
    pub fn from_value(v: &Value) -> Result<CriticalSummary, String> {
        let edges = v
            .get("edges")
            .and_then(Value::as_u64)
            .ok_or("critical summary: missing edges")?;
        let cross_cluster = v
            .get("cross_cluster")
            .and_then(Value::as_u64)
            .ok_or("critical summary: missing cross_cluster")?;
        let raw = v
            .get("top")
            .and_then(Value::as_arr)
            .ok_or("critical summary: missing top")?;
        let mut top = Vec::with_capacity(raw.len());
        for (i, e) in raw.iter().enumerate() {
            let field = |name: &str| {
                e.get(name)
                    .and_then(Value::as_u64)
                    .ok_or_else(|| format!("critical summary: edge {i} missing {name}"))
            };
            top.push(CritEdge {
                from_pc: field("from_pc")?,
                to_pc: field("to_pc")?,
                hops: field("hops")? as u8,
                count: field("count")?,
            });
        }
        Ok(CriticalSummary {
            edges,
            cross_cluster,
            top,
        })
    }
}

/// Pushes between meeting searches, in windows: searches sweep the held
/// links, so this keeps their cost to a few steps per link while the
/// walker holds only a few windows.
const SEARCH_WINDOWS: usize = 4;

/// The last-arriving-operand critical-path walker, fed one
/// [`CritLink`] per retired instruction as the instructions retire.
///
/// The walk it reports starts from the last retired instruction and
/// steps `back` links to the critical producer whenever the
/// instruction has one, counting one dependence edge per step. When
/// the chain breaks — the head of a dependence chain reads the
/// register file, has no critical source, or names a producer before
/// the first link — the walk resumes from the instruction just before
/// it, so the whole run decomposes into chain segments. The `top_n`
/// hottest static edges are kept, by dynamic count (descending), ties
/// broken by producer PC, consumer PC, then hops.
///
/// The walker does not wait for the last instruction. Every link fixes
/// its walk successor (`p - back` or `p - 1`), and `back < window`, so
/// a walk that starts at or after position `n` passes through one of
/// the last `window` links before `n`. Every `4 × window` pushes (or
/// once the held links have doubled, whichever is later) the walker
/// sweeps a bitmap from the newest link down to find the newest
/// position `m` that the walks from the last `window` links all pass
/// through. Every later walk, the final one included, passes through
/// `m` too: the walker counts the edges from `m` down, drops the links
/// below it, and [`finish`](CritWalker::finish) only walks from the
/// last link down to the last such meeting point. The counted edges
/// are the same multiset the whole walk finds, so the summary is too.
/// Walks that never meet (say two interleaved chains that never read
/// the register file) commit nothing, and the walker then holds every
/// link, as a whole-run walk would; the schedule keeps the searches'
/// cost linear in the run.
#[derive(Debug, Default)]
pub struct CritWalker {
    /// Every pushed link's `back` is below this.
    window: usize,
    /// The held links, at positions `first..first + links.len()`.
    links: Vec<CritLink>,
    /// Position of `links[0]`. Every walk from a held link passes
    /// through it, and the walk below it, with the edge it starts, is
    /// already counted. Position 0 qualifies: every walk ends there,
    /// and it starts no edge.
    first: u64,
    /// Pushes left before the next meeting search.
    until_search: usize,
    /// Scratch for the meeting search: one bit per held link.
    marks: Vec<u64>,
    /// Dynamic count per static edge `(from_pc, to_pc, hops)`.
    counts: HashMap<(u64, u64, u8), u64>,
    edges: u64,
    cross_cluster: u64,
}

impl CritWalker {
    /// An empty walker for links whose `back` stays below `window`,
    /// built in `recycled`'s storage: its contents are cleared and its
    /// capacity kept, so a walker handed from run to run stops
    /// allocating once it has grown.
    pub fn new(window: usize, recycled: CritWalker) -> CritWalker {
        let CritWalker {
            mut links,
            mut marks,
            mut counts,
            ..
        } = recycled;
        links.clear();
        marks.clear();
        counts.clear();
        CritWalker {
            window,
            links,
            first: 0,
            until_search: window.saturating_mul(SEARCH_WINDOWS),
            marks,
            counts,
            edges: 0,
            cross_cluster: 0,
        }
    }

    /// Appends the next retired instruction's link.
    ///
    /// # Panics
    ///
    /// If `link.back` is not below the window: the walk's successors
    /// would no longer stay within it, and neither would the meeting
    /// points the walker commits.
    #[inline]
    pub fn push(&mut self, link: CritLink) {
        assert!(
            (link.back as usize) < self.window,
            "critical link reaches {} back, beyond the walker's window of {}",
            link.back,
            self.window
        );
        self.links.push(link);
        self.until_search -= 1;
        if self.until_search == 0 {
            self.advance();
        }
    }

    /// Commits the walk below the newest meeting point and schedules
    /// the next search. Kept out of line so that `push` stays small
    /// enough to inline into the engine's retire loop. With the search
    /// inside it, `push` was a cross-crate call per retired
    /// instruction, and the `attrib` benchmark workload simulated
    /// about 3% slower.
    #[inline(never)]
    fn advance(&mut self) {
        let m = self.meeting_point();
        if m > 0 {
            self.count_walk(m);
            self.links.drain(..m);
            self.first += m as u64;
        }
        self.until_search = self
            .window
            .saturating_mul(SEARCH_WINDOWS)
            .max(self.links.len());
    }

    /// The summary of every link pushed since the walker was built or
    /// last finished, keeping the `top_n` hottest edges. The walker is
    /// empty again afterwards, storage kept.
    pub fn finish(&mut self, top_n: usize) -> CriticalSummary {
        if let Some(last) = self.links.len().checked_sub(1) {
            self.count_walk(last);
        }
        let mut top: Vec<CritEdge> = self
            .counts
            .drain()
            .map(|((from_pc, to_pc, hops), count)| CritEdge {
                from_pc,
                to_pc,
                hops,
                count,
            })
            .collect();
        top.sort_unstable_by(|a, b| {
            b.count
                .cmp(&a.count)
                .then(a.from_pc.cmp(&b.from_pc))
                .then(a.to_pc.cmp(&b.to_pc))
                .then(a.hops.cmp(&b.hops))
        });
        top.truncate(top_n);
        let summary = CriticalSummary {
            edges: self.edges,
            cross_cluster: self.cross_cluster,
            top,
        };
        *self = CritWalker::new(self.window, std::mem::take(self));
        summary
    }

    /// Where the walk goes from held link `i`, and whether that step is
    /// a dependence edge. Only called on links whose walk passes
    /// through `links[0]`, so the successor is held.
    fn step(&self, i: usize) -> (usize, bool) {
        let back = self.links[i].back as usize;
        if back > 0 && back as u64 <= self.first + i as u64 {
            (i - back, true)
        } else {
            (i - 1, false)
        }
    }

    /// The newest held link that the walks from the last `window` held
    /// links all pass through. A sweep from the newest link down moves
    /// each marked walk front to its successor, and the first front
    /// reached while it is the only one is the meeting point. The
    /// sweep stops at `links[0]` at the latest, which every walk from
    /// a held link passes through.
    fn meeting_point(&mut self) -> usize {
        let n = self.links.len();
        self.marks.clear();
        self.marks.resize(n.div_ceil(64), 0);
        let lo = n.saturating_sub(self.window);
        for i in lo..n {
            self.marks[i / 64] |= 1 << (i % 64);
        }
        let mut fronts = n - lo;
        let mut i = n;
        loop {
            i -= 1;
            if self.marks[i / 64] & (1 << (i % 64)) == 0 {
                continue;
            }
            if fronts == 1 {
                return i;
            }
            let (next, _) = self.step(i);
            let word = &mut self.marks[next / 64];
            let bit = 1 << (next % 64);
            if *word & bit == 0 {
                *word |= bit;
            } else {
                fronts -= 1;
            }
        }
    }

    /// Counts the edges of the walk from held link `i` down to
    /// `links[0]`, whose own edge is already counted.
    fn count_walk(&mut self, mut i: usize) {
        while i > 0 {
            let (next, edge) = self.step(i);
            if edge {
                let (producer, consumer) = (self.links[next], self.links[i]);
                self.edges += 1;
                if consumer.hops > 0 {
                    self.cross_cluster += 1;
                }
                *self
                    .counts
                    .entry((producer.pc, consumer.pc, consumer.hops))
                    .or_insert(0) += 1;
            }
            i = next;
        }
    }
}

/// A run's full attribution result: the CPI stack plus the critical-
/// path summary. Attached to a `SimReport` by attribution-enabled runs
/// and persisted through the harness result store.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AttribReport {
    /// The retirement-driven CPI stack.
    pub stack: CpiStack,
    /// The last-arriving-operand critical-path summary.
    pub critical: CriticalSummary,
}

impl AttribReport {
    /// Renders the report as JSON.
    pub fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("stack".into(), self.stack.to_value()),
            ("critical".into(), self.critical.to_value()),
        ])
    }

    /// Parses [`AttribReport::to_value`] output.
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing or malformed field.
    pub fn from_value(v: &Value) -> Result<AttribReport, String> {
        Ok(AttribReport {
            stack: CpiStack::from_value(v.get("stack").ok_or("attrib: missing stack")?)?,
            critical: CriticalSummary::from_value(
                v.get("critical").ok_or("attrib: missing critical")?,
            )?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link(pc: u64, back: u32, hops: u8) -> CritLink {
        CritLink { pc, back, hops }
    }

    #[test]
    fn stack_charges_and_conserves() {
        let mut s = CpiStack::default();
        s.charge(3, 13, RetireSlotKind::InterCluster);
        s.charge(16, 0, RetireSlotKind::Base);
        s.charge(0, 16, RetireSlotKind::Memory);
        assert_eq!(s.cycles, 3);
        assert_eq!(s.total(), 48);
        assert_eq!(s.get(RetireSlotKind::Base), 19);
        assert_eq!(s.get(RetireSlotKind::InterCluster), 13);
        assert_eq!(s.get(RetireSlotKind::Memory), 16);
        assert!((s.fraction(RetireSlotKind::Memory) - 16.0 / 48.0).abs() < 1e-12);
    }

    #[test]
    fn idle_charge_equals_repeated_stalled_cycles() {
        let mut one_by_one = CpiStack::default();
        for _ in 0..5 {
            one_by_one.charge(0, 16, RetireSlotKind::Memory);
        }
        let mut at_once = CpiStack::default();
        at_once.charge_idle(5, 16, RetireSlotKind::Memory);
        assert_eq!(at_once, one_by_one);
    }

    #[test]
    fn stack_json_round_trips() {
        let mut s = CpiStack::default();
        s.charge(5, 11, RetireSlotKind::FetchMiss);
        let back = CpiStack::from_value(&s.to_value()).unwrap();
        assert_eq!(back, s);
        assert!(CpiStack::from_value(&Value::Obj(vec![])).is_err());
    }

    #[test]
    fn walker_follows_chains_and_counts_crossings() {
        // 0 -> 1 (cross, 2 hops) -> 2 (same cluster) ; 3 independent.
        let links = [
            link(0x100, 0, 0),
            link(0x104, 1, 2),
            link(0x108, 1, 0),
            link(0x10c, 0, 0),
        ];
        let s = CriticalSummary::walk(&links, 8);
        assert_eq!(s.edges, 2);
        assert_eq!(s.cross_cluster, 1);
        assert!((s.cross_fraction() - 0.5).abs() < 1e-12);
        assert_eq!(s.top.len(), 2);
        // Deterministic order: equal counts break ties by from_pc.
        assert_eq!(s.top[0].from_pc, 0x100);
        assert_eq!(s.top[1].from_pc, 0x104);
    }

    #[test]
    fn walker_covers_segments_and_skips_the_jumped_over_span() {
        // 4 -> 2 -> 0 is one chain; 3 and 1 lie inside it, so the walk
        // (which resumes only before a chain head) never visits them.
        let links = [
            link(0x40, 0, 0),
            link(0x44, 1, 1),
            link(0x48, 2, 1),
            link(0x4c, 1, 0),
            link(0x50, 2, 0),
        ];
        let s = CriticalSummary::walk(&links, 8);
        assert_eq!(s.edges, 2);
        assert_eq!(s.cross_cluster, 1);
        let pairs: Vec<(u64, u64, u8)> =
            s.top.iter().map(|e| (e.from_pc, e.to_pc, e.hops)).collect();
        assert_eq!(pairs, vec![(0x40, 0x48, 1), (0x48, 0x50, 0)]);
        // Equal counts and PCs fall back to hops, and top_n truncates.
        let same = [
            link(0x40, 0, 0),
            link(0x44, 1, 2),
            link(0x40, 0, 0),
            link(0x44, 1, 1),
        ];
        let s = CriticalSummary::walk(&same, 1);
        assert_eq!(s.edges, 2);
        assert_eq!(s.top.len(), 1);
        assert_eq!(s.top[0].hops, 1);
    }

    #[test]
    fn walker_handles_empty_and_out_of_range_producers() {
        assert_eq!(CriticalSummary::walk(&[], 4), CriticalSummary::default());
        // A producer further back than the first link: no edge, the
        // walk restarts.
        let links = [link(0x100, 0, 0), link(0x104, 99, 1)];
        let s = CriticalSummary::walk(&links, 4);
        assert_eq!(s.edges, 0);
        assert_eq!(s.cross_cluster, 0);
    }

    #[test]
    fn a_link_is_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<CritLink>(), 16);
    }

    #[test]
    fn attribution_report_json_round_trips() {
        let mut r = AttribReport::default();
        r.stack.charge(4, 12, RetireSlotKind::BranchMispredict);
        r.critical = CriticalSummary {
            edges: 10,
            cross_cluster: 3,
            top: vec![CritEdge {
                from_pc: 0x40,
                to_pc: 0x44,
                hops: 1,
                count: 7,
            }],
        };
        let text = r.to_value().render();
        let back = AttribReport::from_value(&Value::parse(&text).unwrap()).unwrap();
        assert_eq!(back, r);
    }
}
