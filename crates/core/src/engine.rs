//! The clustered out-of-order execution engine.
//!
//! Scheduling is event-driven: completions live in a calendar queue
//! (popped exactly when due), wakeups traverse per-producer consumer
//! lists built at rename, selectable instructions sit in per-RS ready
//! queues keyed by their operand-arrival cycle, loads behind an
//! unresolved store address are parked until it resolves, and a tick
//! that changes nothing names the next cycle that can
//! ([`Engine::next_event`]) so the caller may skip the quiet ones.

use crate::arena::{ConsumerArena, EngineArena, NIL};
use crate::entry::{Entry, SrcState, Stage};
use crate::fu::FuPool;
use crate::geometry::GeometryTables;
use crate::rob::Rob;
use crate::sched::{CompletionWheel, Stations, RS_PER_CLUSTER};
use crate::{EngineConfig, ForwardingStats, ProducerHistory, RsClass};
use ctcp_isa::Instruction;
use ctcp_memory::{AccessKind, CacheStats, DataMemory, StoreForward};
use ctcp_telemetry::{
    Counter, CritLink, CritWalker, CriticalSummary, Hist, InstAttrib, Recorder, RetireSlotKind,
    SrcAttrib, SrcKind,
};
use ctcp_tracecache::{ExecFeedback, ProducerInfo, ProfileFields, TcLocation};
use std::collections::VecDeque;
use std::rc::Rc;

/// One instruction delivered by the front-end, already renamed into a
/// fetch-group slot. `slot` determines the cluster under slot-based
/// steering; issue-time steering ignores it.
#[derive(Debug, Clone, Copy)]
pub struct FetchedInst {
    /// Global dynamic sequence number (dense, program order).
    pub seq: u64,
    /// Static PC.
    pub pc: u64,
    /// Static instruction index.
    pub index: u32,
    /// The instruction.
    pub inst: Instruction,
    /// Effective address for memory operations.
    pub mem_addr: Option<u64>,
    /// Dynamic direction for control transfers.
    pub taken: Option<bool>,
    /// Physical issue slot within the fetch group.
    pub slot: u8,
    /// Fetch-group (trace) id.
    pub group: u64,
    /// Fetched from the trace cache (vs the instruction cache).
    pub from_tc: bool,
    /// Trace cache location, when fetched from a resident line.
    pub tc_loc: Option<TcLocation>,
    /// Profile fields carried from the trace cache.
    pub profile: ProfileFields,
    /// The front-end mispredicted this branch; completion redirects fetch.
    pub mispredicted: bool,
}

/// A retired instruction, carrying everything the fill unit and the
/// statistics machinery need.
#[derive(Debug, Clone, Copy)]
pub struct RetiredInst {
    /// Global dynamic sequence number.
    pub seq: u64,
    /// Static PC.
    pub pc: u64,
    /// Static instruction index.
    pub index: u32,
    /// The instruction.
    pub inst: Instruction,
    /// Effective address for memory operations.
    pub mem_addr: Option<u64>,
    /// Dynamic direction for control transfers.
    pub taken: Option<bool>,
    /// Fetch-group (trace) id.
    pub group: u64,
    /// Fetched from the trace cache.
    pub from_tc: bool,
    /// Trace cache location the instruction was fetched from.
    pub tc_loc: Option<TcLocation>,
    /// Profile fields as fetched.
    pub profile: ProfileFields,
    /// Cluster the instruction executed on.
    pub cluster: u8,
    /// Execution feedback (critical input, forwarding producers).
    pub feedback: ExecFeedback,
    /// Cycle at which the instruction retired.
    pub retire_cycle: u64,
}

/// What one engine cycle produced.
#[derive(Debug, Default)]
pub struct TickResult {
    /// Instructions retired this cycle, in program order.
    pub retired: Vec<RetiredInst>,
    /// Sequence numbers of mispredicted branches that resolved this
    /// cycle (the front-end may resume fetching the following cycle).
    pub redirects: Vec<u64>,
}

/// Aggregate engine counters.
#[derive(Debug, Default, Clone, Copy)]
pub struct EngineStats {
    /// Instructions retired.
    pub retired: u64,
    /// Loads executed.
    pub loads: u64,
    /// Stores executed.
    pub stores: u64,
    /// Store-to-load forwards.
    pub store_forwards: u64,
    /// Cycles on which dispatch stalled for a full reservation station.
    pub rs_full_stalls: u64,
    /// Mispredicted branches resolved.
    pub redirects: u64,
    /// Instructions executed per cluster (up to 8 clusters).
    pub executed_per_cluster: [u64; 8],
    /// Total cycles instructions spent waiting in reservation stations.
    pub sum_rs_wait: u64,
    /// Total cycles between completion and retirement.
    pub sum_complete_to_retire: u64,
    /// Total cycles between rename and dispatch.
    pub sum_dispatch_wait: u64,
    /// RS-wait cycles per functional-unit type.
    pub rs_wait_by_fu: [u64; 7],
    /// Executed instructions per functional-unit type.
    pub count_by_fu: [u64; 7],
}

/// One-shot snapshot of every statistic the engine owns: the aggregate
/// counters, the forwarding profile, the producer-repetition rates, and
/// the data-memory cache statistics. [`Engine::metrics`] is the single
/// source of truth consumers derive reports from — there is no need to
/// stitch together per-subsystem accessors.
#[derive(Debug, Clone, Copy)]
pub struct EngineMetrics {
    /// Aggregate engine counters.
    pub stats: EngineStats,
    /// Forwarding statistics (Tables 2/8, Figure 4).
    pub fwd: ForwardingStats,
    /// Producer repeat rates per source, all inputs (Table 3).
    pub repeat_all: [f64; 2],
    /// Producer repeat rates per source, critical inter-trace inputs.
    pub repeat_critical_inter: [f64; 2],
    /// L1 data cache statistics.
    pub l1d: CacheStats,
}

/// How the engine picks a cluster for each instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SteeringMode {
    /// Slot-based: cluster = slot / slots_per_cluster (baseline and all
    /// retire-time strategies).
    Slot,
    /// Issue-time dependency steering with `EngineConfig::steer_latency`
    /// extra pipeline stages.
    IssueTime,
}

/// A producer that just completed, as seen by the consumers it wakes.
struct Completed {
    seq: u64,
    at: u64,
    cluster: u8,
    group: u64,
}

/// The [`Stations`] index of reservation station `rs` of `cluster`.
fn station(cluster: usize, rs: RsClass) -> usize {
    cluster * RS_PER_CLUSTER + rs.index()
}

/// The outcome of one issue attempt.
enum Issue {
    /// Execution began; the caller removes the entry from its station.
    Began,
    /// A load behind an older store whose address is still unknown:
    /// nothing changes for it until that store executes.
    BehindStore,
    /// Not this cycle: operands still in flight, no free functional
    /// unit, or a full store buffer.
    Wait,
}

struct ClusterState {
    /// `(dispatch_at, seq)` in program order, so a head that is not yet
    /// due is recognised without a ROB lookup.
    dispatch_q: VecDeque<(u64, u64)>,
    /// Station residency (incremented at dispatch, decremented at
    /// issue): the single source every occupancy read — dispatch
    /// back-pressure, routing, diagnostics, and the `rs_occupancy`
    /// histogram — samples.
    station_occ: [usize; 5],
    fus: FuPool,
}

impl ClusterState {
    /// A cluster built from recycled queue storage (cleared here); the
    /// arena's pools run dry harmlessly — missing pieces are allocated
    /// fresh.
    fn from_arena(arena: &mut EngineArena) -> Self {
        let mut dispatch_q = arena.dispatch_qs.pop().unwrap_or_default();
        dispatch_q.clear();
        ClusterState {
            dispatch_q,
            station_occ: [0; 5],
            fus: FuPool::new(),
        }
    }

    /// Returns the cluster's queue storage to the arena's pools.
    fn into_arena(self, arena: &mut EngineArena) {
        arena.dispatch_qs.push(self.dispatch_q);
    }
}

/// The clustered out-of-order engine: rename → steer → dispatch →
/// select/execute → complete → retire, with distance-proportional
/// inter-cluster operand forwarding.
pub struct Engine {
    cfg: EngineConfig,
    mode: SteeringMode,
    rob: Rob,
    rat: [Option<u64>; ctcp_isa::Reg::NUM],
    clusters: Vec<ClusterState>,
    /// Neighbour lists and middle order for issue-time steering.
    tables: GeometryTables,
    mem: DataMemory,
    /// Stores whose address is not yet known, ascending: renamed in
    /// program order (pushed at the back), removed as they execute.
    unresolved_stores: VecDeque<u64>,
    stats: EngineStats,
    fwd: ForwardingStats,
    history: ProducerHistory,
    /// The attached telemetry sink, if any: without one every hook
    /// site is a single `None` check.
    recorder: Option<Rc<Recorder>>,
    /// Calendar queue of `(complete_cycle, seq)` execution completions.
    wheel: CompletionWheel,
    /// Every reservation station's ready/pending queues behind their
    /// bitmasks.
    stations: Stations,
    /// Station residents (ascending seq) that are loads behind an older
    /// store whose address is unknown. They leave their ready lists
    /// until that store executes instead of failing an issue attempt
    /// every cycle.
    parked: Vec<u64>,
    /// The cycle of the last tick if it changed no state.
    quiet_at: Option<u64>,
    /// Dispatch stalls on a full station the last tick counted: what
    /// every skipped quiet cycle after it counts too.
    quiet_stalls: u64,
    /// Scratch for the wheel's per-cycle drain (reused every tick).
    scratch_events: Vec<(u64, u64)>,
    /// Struct-of-arrays slab holding every entry's wakeup chain; entries
    /// carry `cons_head`/`cons_tail` handles into it.
    consumers: ConsumerArena,
    /// Scratch for one producer's drained wakeup chain (reused every
    /// completion).
    scratch_wakes: Vec<(u64, u8)>,
    /// Scratch for issue-time steering's per-group cluster counts.
    steer_counts: Vec<u32>,
    /// The critical-path walk, fed one [`CritLink`] per retired
    /// instruction while `record_links` is set (see
    /// [`Engine::record_links`]).
    walker: CritWalker,
    record_links: bool,
}

impl Engine {
    /// Creates an empty engine.
    pub fn new(cfg: EngineConfig, mode: SteeringMode) -> Self {
        Engine::with_arena(cfg, mode, EngineArena::default())
    }

    /// Creates an empty engine out of recycled storage. Behaviourally
    /// identical to [`Engine::new`]: every piece of the arena is cleared
    /// before use (capacities are kept), so no state can leak from the
    /// previous run. Harvest the storage back with
    /// [`Engine::into_arena`] when the run ends.
    pub fn with_arena(cfg: EngineConfig, mode: SteeringMode, mut arena: EngineArena) -> Self {
        let n = cfg.geometry.clusters as usize;
        let clusters = (0..n)
            .map(|_| ClusterState::from_arena(&mut arena))
            .collect();
        let EngineArena {
            entries,
            mut consumers,
            wheel_slots,
            mut events,
            mut wakes,
            mut steer_counts,
            queues,
            mut parked,
            walker,
            ..
        } = arena;
        consumers.clear();
        parked.clear();
        events.clear();
        wakes.clear();
        steer_counts.clear();
        Engine {
            mem: DataMemory::new(cfg.memory),
            cfg,
            mode,
            rob: Rob::from_storage(entries, cfg.rob_entries),
            rat: [None; ctcp_isa::Reg::NUM],
            clusters,
            tables: GeometryTables::new(cfg.geometry),
            unresolved_stores: VecDeque::new(),
            stats: EngineStats::default(),
            fwd: ForwardingStats::default(),
            history: ProducerHistory::default(),
            recorder: None,
            wheel: CompletionWheel::from_slots(wheel_slots),
            stations: Stations::from_queues(n, queues),
            parked,
            quiet_at: None,
            quiet_stalls: 0,
            scratch_events: events,
            consumers,
            scratch_wakes: wakes,
            steer_counts,
            walker: CritWalker::new(cfg.rob_entries, walker),
            record_links: false,
        }
    }

    /// Tears the engine down to its recyclable storage so the next
    /// [`Engine::with_arena`] construction starts with warm, already-
    /// grown allocations instead of a cold heap.
    pub fn into_arena(self) -> EngineArena {
        let mut arena = EngineArena {
            entries: self.rob.into_storage(),
            consumers: self.consumers,
            wheel_slots: self.wheel.into_slots(),
            events: self.scratch_events,
            wakes: self.scratch_wakes,
            steer_counts: self.steer_counts,
            queues: self.stations.into_queues(),
            parked: self.parked,
            walker: self.walker,
            ..EngineArena::default()
        };
        for c in self.clusters {
            c.into_arena(&mut arena);
        }
        arena
    }

    /// Attaches a telemetry [`Recorder`]. Without one (the default)
    /// every hook site is a single `None` check.
    pub fn set_recorder(&mut self, recorder: Rc<Recorder>) {
        self.recorder = Some(recorder);
    }

    /// Turns on critical-link recording for cycle attribution: from now
    /// on every retired instruction hands one 16-byte [`CritLink`] (its
    /// PC, the distance back to the producer of its last-arriving
    /// operand, and the hops that value crossed) to a streaming
    /// [`CritWalker`] whose window is the ROB size. The walker holds
    /// only the links a later walk can still need, in storage the arena
    /// recycles, so attribution's memory does not grow with the run.
    pub fn record_links(&mut self) {
        self.record_links = true;
    }

    /// Finishes the critical-path walk over every instruction retired
    /// since [`Engine::record_links`], keeping the `top_n` hottest
    /// edges (an empty summary if it was never called). The walker
    /// starts over afterwards.
    pub fn critical_summary(&mut self, top_n: usize) -> CriticalSummary {
        self.walker.finish(top_n)
    }

    /// The configuration in use.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Aggregate counters.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Forwarding statistics (Tables 2/8, Figure 4).
    pub fn forwarding_stats(&self) -> &ForwardingStats {
        &self.fwd
    }

    /// Everything the engine measured, in one snapshot. Derive reports
    /// from this instead of combining the individual accessors.
    pub fn metrics(&self) -> EngineMetrics {
        EngineMetrics {
            stats: self.stats,
            fwd: self.fwd,
            repeat_all: [
                self.history.repeat_rate_all(0),
                self.history.repeat_rate_all(1),
            ],
            repeat_critical_inter: [
                self.history.repeat_rate_critical_inter(0),
                self.history.repeat_rate_critical_inter(1),
            ],
            l1d: self.mem.l1_stats(),
        }
    }

    /// The data memory system (for cache statistics).
    pub fn memory(&self) -> &DataMemory {
        &self.mem
    }

    /// Number of in-flight instructions.
    pub fn in_flight(&self) -> usize {
        self.rob.len()
    }

    /// Snapshots the macroscopic pipeline state at cycle `now` — what
    /// the retire-progress watchdog dumps when it aborts a wedged run.
    pub fn diagnostic(&self, now: u64) -> crate::PipelineDiagnostic {
        let head = self.rob.front();
        crate::PipelineDiagnostic {
            cycle: now,
            retired: self.stats.retired,
            in_flight: self.rob.len(),
            head_seq: head.map(|e| e.seq),
            head_stage: head.map(|e| format!("{:?}", e.stage)),
            head_cluster: head.map(|e| e.cluster),
            clusters: (0..self.clusters.len())
                .map(|ci| crate::ClusterOccupancy {
                    dispatch: self.clusters[ci].dispatch_q.len(),
                    stations: (0..5).map(|rsi| self.station_len(ci, rsi)).sum(),
                })
                .collect(),
        }
    }

    /// True if a fetch group of `n` instructions can be accepted now.
    pub fn can_accept(&self, n: usize) -> bool {
        n <= self.cfg.rename_width && self.rob.len() + n <= self.cfg.rob_entries
    }

    #[inline]
    fn entry(&self, seq: u64) -> Option<&Entry> {
        self.rob.get(seq)
    }

    #[inline]
    fn entry_mut(&mut self, seq: u64) -> Option<&mut Entry> {
        self.rob.get_mut(seq)
    }

    /// Renames and steers one fetch group at cycle `now`. Call
    /// [`Engine::can_accept`] first.
    ///
    /// # Panics
    ///
    /// Panics if the group exceeds rename width or ROB capacity, or if
    /// sequence numbers are not dense and increasing.
    pub fn accept(&mut self, group: &[FetchedInst], now: u64) {
        assert!(self.can_accept(group.len()), "caller must check can_accept");
        self.quiet_at = None;
        // Issue-time steering balances within the cycle's group.
        let mut cycle_counts = std::mem::take(&mut self.steer_counts);
        cycle_counts.clear();
        cycle_counts.resize(self.cfg.geometry.clusters as usize, 0);
        let slots_per = u32::from(self.cfg.geometry.slots_per_cluster);
        for f in group {
            let expected = self.rob.next_seq();
            assert_eq!(f.seq, expected, "sequence numbers must be dense");
            let srcs = self.resolve_sources(&f.inst, f.group, now);
            // Register this consumer on each still-executing producer's
            // wakeup list; completion resolves exactly these sources
            // instead of broadcasting over the ROB.
            for (i, s) in srcs.iter().enumerate() {
                if let SrcState::Waiting { producer_seq } = *s {
                    let p = self
                        .rob
                        .get_mut(producer_seq)
                        .expect("RAT points at in-ROB producer");
                    self.consumers
                        .append(&mut p.cons_head, &mut p.cons_tail, f.seq, i as u8);
                }
            }
            let cluster = match self.mode {
                SteeringMode::Slot => self.cfg.geometry.cluster_of_slot(f.slot),
                SteeringMode::IssueTime => {
                    self.steer_issue_time(&srcs, &mut cycle_counts, slots_per)
                }
            };
            let rs = self.route_rs(cluster, f.inst.class());
            let dispatch_at = now
                + 1
                + if self.mode == SteeringMode::IssueTime {
                    self.cfg.steer_latency
                } else {
                    0
                };
            if f.inst.op.is_store() {
                self.unresolved_stores.push_back(f.seq);
            }
            let entry = Entry {
                seq: f.seq,
                pc: f.pc,
                index: f.index,
                inst: f.inst,
                mem_addr: f.mem_addr,
                taken: f.taken,
                group: f.group,
                from_tc: f.from_tc,
                tc_loc: f.tc_loc,
                profile: f.profile,
                cluster,
                rs,
                srcs,
                ready: None,
                stage: Stage::AwaitDispatch { at: dispatch_at },
                mispredicted: f.mispredicted,
                renamed_at: now,
                dispatched_at: 0,
                exec_start: 0,
                feedback: ExecFeedback::default(),
                cons_head: NIL,
                cons_tail: NIL,
            };
            if let Some(d) = f.inst.dest {
                self.rat[d.index()] = Some(f.seq);
            }
            self.clusters[cluster as usize]
                .dispatch_q
                .push_back((dispatch_at, f.seq));
            self.rob.push_back(entry);
        }
        self.steer_counts = cycle_counts;
    }

    fn resolve_sources(&self, inst: &Instruction, group: u64, now: u64) -> [SrcState; 2] {
        let mut srcs = [SrcState::None, SrcState::None];
        for (i, reg) in [inst.dep_src1(), inst.dep_src2()].into_iter().enumerate() {
            let Some(r) = reg else { continue };
            srcs[i] = match self.rat[r.index()] {
                None => SrcState::RfReady {
                    at: now + self.cfg.rf_latency,
                },
                Some(pseq) => {
                    let p = self.entry(pseq).expect("RAT points at in-ROB producer");
                    match p.complete_cycle() {
                        // Producer already wrote back: the consumer's
                        // rename-stage register-file access returns the
                        // value — no distance-based forwarding.
                        Some(c) if c <= now => SrcState::RfReady {
                            at: now + self.cfg.rf_latency,
                        },
                        // Producer still executing: the value arrives via
                        // the (distance-dependent) forwarding network.
                        Some(c) => SrcState::Forwarded {
                            producer_seq: pseq,
                            complete: c,
                            cluster: p.cluster,
                            same_trace: p.group == group,
                        },
                        None => SrcState::Waiting { producer_seq: pseq },
                    }
                }
            };
        }
        srcs
    }

    /// Issue-time steering: send the instruction to the cluster where its
    /// latest-arriving (most critical) input is generated, subject to
    /// ≤ slots_per_cluster per cycle, falling back to the other producer,
    /// a neighbour, and finally the least-loaded cluster.
    fn steer_issue_time(&self, srcs: &[SrcState; 2], counts: &mut [u32], slots_per: u32) -> u8 {
        // (cluster, expected completion). A producer that has not begun
        // executing ranks above any executing one, ordered among its
        // peers by its opcode's execution latency — the steering
        // hardware's cheap criticality estimate.
        let mut producers = [(0u8, 0u64); 2];
        let mut np = 0;
        for s in srcs {
            let pc = match s {
                SrcState::Waiting { producer_seq } => self.entry(*producer_seq).map(|e| {
                    let estimate = e
                        .complete_cycle()
                        .unwrap_or(u64::MAX / 2 + EngineConfig::opcode_latency(e.inst.op).exec);
                    (e.cluster, estimate)
                }),
                SrcState::Forwarded {
                    cluster, complete, ..
                } => Some((*cluster, *complete)),
                _ => None,
            };
            if let Some(p) = pc {
                producers[np] = p;
                np += 1;
            }
        }
        // Latest-completing producer first: that input is the one worth
        // being next to (stable on ties, like the old sort).
        if np == 2 && producers[1].1 > producers[0].1 {
            producers.swap(0, 1);
        }
        let mut candidates = [0u8; 8];
        let mut nc = 0;
        for &(c, _) in &producers[..np] {
            if !candidates[..nc].contains(&c) {
                candidates[nc] = c;
                nc += 1;
            }
        }
        if nc > 0 {
            for &nb in self.tables.neighbors(candidates[0]) {
                if nc < candidates.len() && !candidates[..nc].contains(&nb) {
                    candidates[nc] = nb;
                    nc += 1;
                }
            }
        }
        for &c in &candidates[..nc] {
            if counts[c as usize] < slots_per {
                counts[c as usize] += 1;
                return c;
            }
        }
        // Balance: least-loaded this cycle, most central first on ties.
        let c = self
            .tables
            .middle_order()
            .iter()
            .copied()
            .min_by_key(|&c| counts[c as usize])
            .expect("at least one cluster");
        counts[c as usize] += 1;
        c
    }

    /// Occupancy of one reservation station: the residency counter kept
    /// at dispatch and issue.
    #[inline]
    fn station_len(&self, ci: usize, rsi: usize) -> usize {
        self.clusters[ci].station_occ[rsi]
    }

    fn route_rs(&self, cluster: u8, class: ctcp_isa::OpClass) -> RsClass {
        let ci = cluster as usize;
        let balance = self.station_len(ci, RsClass::Simple1.index())
            < self.station_len(ci, RsClass::Simple0.index());
        RsClass::route(class, balance)
    }

    /// Advances the back-end by one cycle, allocating a fresh
    /// [`TickResult`]. Prefer [`Engine::tick_into`] on hot paths.
    pub fn tick(&mut self, now: u64) -> TickResult {
        let mut out = TickResult::default();
        self.tick_into(now, &mut out);
        out
    }

    /// Advances the back-end by one cycle, reusing the caller's buffers:
    /// `out` is cleared and refilled, so a caller that holds one
    /// `TickResult` across cycles pays no per-cycle allocation.
    pub fn tick_into(&mut self, now: u64, out: &mut TickResult) {
        out.retired.clear();
        out.redirects.clear();
        let stalls = self.stats.rs_full_stalls;
        let dispatched = self.dispatch(now);
        // Complete (and wake consumers) before select so that a result
        // produced at cycle `now` can be consumed intra-cluster at `now` —
        // the paper's "same cycle as instruction dispatch" forwarding.
        let completed = self.complete(now, &mut out.redirects);
        let issued = self.select(now);
        self.retire_into(now, &mut out.retired);
        let drained = self.mem.drain_stores(2);
        let changed = dispatched + completed + issued + out.retired.len() + drained;
        self.quiet_at = (changed == 0).then_some(now);
        self.quiet_stalls = self.stats.rs_full_stalls - stalls;
        if let Some(rec) = &self.recorder {
            rec.counter(Counter::Cycles, 1);
            let mshrs = self.mem.mshr_in_use(now) as u64;
            rec.observe(Hist::MshrOccupancy, mshrs);
            let lq = self.mem.load_queue_len() as u64;
            rec.observe(Hist::LoadQueueOccupancy, lq);
            for ci in 0..self.clusters.len() {
                let occ = (0..5).map(|rsi| self.station_len(ci, rsi)).sum::<usize>();
                rec.observe(Hist::RsOccupancy, occ as u64);
            }
        }
    }

    /// After a tick that changed no state (nothing dispatched, issued,
    /// completed, retired or drained to the cache), the earliest cycle
    /// at which a tick can change state again: the next completion on
    /// the wheel, the earliest pending operand arrival, the next
    /// dispatch-queue head that falls due, or, on a cluster with
    /// selectable entries, the next functional unit that frees up;
    /// `u64::MAX` when none of these is scheduled. Every tick before
    /// that cycle would be just as quiet, so a caller may skip those
    /// cycles and charge them with [`Engine::skip_quiet`].
    ///
    /// `None` after a tick that did something and after
    /// [`Engine::accept`].
    pub fn next_event(&self) -> Option<u64> {
        let now = self.quiet_at?;
        let mut next = self.stations.next_arrival();
        if let Some(at) = self.wheel.next_due() {
            next = next.min(at);
        }
        for (ci, c) in self.clusters.iter().enumerate() {
            if let Some(&(at, _)) = c.dispatch_q.front() {
                if at > now {
                    next = next.min(at);
                }
            }
            if self.stations.cluster_has_ready(ci) {
                if let Some(free) = c.fus.next_free(now) {
                    next = next.min(free);
                }
            }
        }
        Some(next)
    }

    /// Charges `cycles` skipped cycles after a quiet tick what each
    /// would have counted had it been ticked: the dispatch stalls on a
    /// full reservation station that the quiet tick counted.
    pub fn skip_quiet(&mut self, cycles: u64) {
        debug_assert!(
            self.quiet_at.is_some(),
            "only the cycles after a quiet tick can be skipped"
        );
        self.stats.rs_full_stalls += cycles * self.quiet_stalls;
    }

    /// Moves due dispatch-queue heads into their stations; returns how
    /// many moved.
    fn dispatch(&mut self, now: u64) -> usize {
        let mut total = 0;
        for ci in 0..self.clusters.len() {
            let mut dispatched = 0;
            let mut port_use = [0usize; 5];
            while dispatched < self.cfg.dispatch_per_cluster {
                let Some(&(at, seq)) = self.clusters[ci].dispatch_q.front() else {
                    break;
                };
                if at > now {
                    break;
                }
                let entry = self.entry(seq).expect("queued entries are in ROB");
                debug_assert_eq!(entry.stage, Stage::AwaitDispatch { at });
                let rs = entry.rs;
                let is_load = entry.inst.op.is_load();
                if self.station_len(ci, rs.index()) >= self.cfg.rs_entries
                    || port_use[rs.index()] >= self.cfg.rs_write_ports
                {
                    self.stats.rs_full_stalls += 1;
                    break;
                }
                if is_load {
                    let oldest = self.is_oldest(seq);
                    if !self.mem.load_queue().admits(oldest) {
                        break;
                    }
                    self.mem.load_queue().insert(seq);
                }
                port_use[rs.index()] += 1;
                self.clusters[ci].dispatch_q.pop_front();
                let at_wait = now - at;
                self.stats.sum_dispatch_wait += at_wait;
                let e = self.entry_mut(seq).expect("in ROB");
                e.stage = Stage::InRs;
                e.dispatched_at = now;
                self.clusters[ci].station_occ[rs.index()] += 1;
                // If every operand is already resolved, the ready cycle
                // is final: file it now. Otherwise the last producer's
                // wakeup will file it.
                if let Some(at) = self.settle_readiness(seq) {
                    self.stations.file(station(ci, rs), at, seq, now);
                }
                dispatched += 1;
            }
            total += dispatched;
        }
        total
    }

    /// Computes the operand-arrival cycle of `src` for a consumer on
    /// `cluster`, applying the latency-override knobs. Returns `None`
    /// while the producer is incomplete.
    fn arrival(&self, src: &SrcState, cluster: u8) -> Option<u64> {
        match *src {
            SrcState::None => Some(0),
            SrcState::RfReady { at } => Some(at),
            SrcState::Waiting { .. } => None,
            SrcState::Forwarded {
                complete,
                cluster: pc,
                same_trace,
                ..
            } => {
                let ov = &self.cfg.overrides;
                let mut lat = self.cfg.forward_latency(pc, cluster);
                if ov.no_forward_latency
                    || (ov.no_intra_trace_latency && same_trace)
                    || (ov.no_inter_trace_latency && !same_trace)
                {
                    lat = 0;
                }
                Some(complete + lat)
            }
        }
    }

    /// Ready cycle and critical-source index for an entry, honouring the
    /// "no critical forwarding latency" idealisation.
    fn readiness(&self, e: &Entry) -> Option<(u64, Option<usize>)> {
        let a0 = self.arrival(&e.srcs[0], e.cluster)?;
        let a1 = self.arrival(&e.srcs[1], e.cluster)?;
        let has0 = !matches!(e.srcs[0], SrcState::None);
        let has1 = !matches!(e.srcs[1], SrcState::None);
        let critical = match (has0, has1) {
            (false, false) => None,
            (true, false) => Some(0),
            (false, true) => Some(1),
            (true, true) => Some(if a1 > a0 { 1 } else { 0 }),
        };
        let mut ready = a0.max(a1);
        if self.cfg.overrides.no_critical_forward_latency {
            if let Some(ci) = critical {
                if let SrcState::Forwarded { complete, .. } = e.srcs[ci] {
                    let other = if ci == 0 { a1 } else { a0 };
                    ready = other.max(complete);
                }
            }
        }
        Some((ready, critical))
    }

    /// Fixes `seq`'s readiness once its last source has resolved: the
    /// ready cycle and critical source cannot change after that, so they
    /// are computed here once and issue reads the cached pair. Returns
    /// the ready cycle, or `None` while a source still waits on its
    /// producer.
    fn settle_readiness(&mut self, seq: u64) -> Option<u64> {
        let e = self.entry(seq).expect("in ROB");
        if e.srcs.iter().any(|s| matches!(s, SrcState::Waiting { .. })) {
            return None;
        }
        let ready = self.readiness(e).expect("no waiting sources");
        self.entry_mut(seq).expect("in ROB").ready = Some(ready);
        Some(ready.0)
    }

    /// True when `seq` is the oldest instruction in flight.
    #[inline]
    fn is_oldest(&self, seq: u64) -> bool {
        self.rob.front().is_some_and(|e| e.seq == seq)
    }

    /// Issue checks for `seq`, which must sit in a reservation station
    /// of cluster `ci` with its readiness settled.
    fn try_issue(&mut self, seq: u64, now: u64, min_unresolved: Option<u64>, ci: usize) -> Issue {
        let e = self.entry(seq).expect("RS entries are in ROB");
        debug_assert!(matches!(e.stage, Stage::InRs));
        let (ready, critical) = e.ready.expect("filed entries have settled");
        if ready > now {
            return Issue::Wait;
        }
        let op = e.inst.op;
        // No speculative disambiguation: loads wait for all older store
        // addresses.
        if op.is_load() && min_unresolved.is_some_and(|ms| ms < seq) {
            return Issue::BehindStore;
        }
        if op.is_store() {
            let oldest = self.is_oldest(seq);
            if !self.mem.store_buffer().admits(oldest) {
                return Issue::Wait;
            }
        }
        let lat = EngineConfig::opcode_latency(op);
        if !self.clusters[ci]
            .fus
            .try_claim(op.fu_type(), now, lat.issue)
        {
            return Issue::Wait;
        }
        self.begin_execution(seq, now, lat.exec, critical);
        Issue::Began
    }

    /// Select: refiles the parked loads a store's address freed,
    /// promotes due arrivals, and visits only the stations whose ready
    /// bit is set, in cluster-then-station order and each station in
    /// program order. Non-issuers stay via in-place compaction instead
    /// of O(n) `retain` removals, except a load behind an unresolved
    /// older store address, which is parked. Returns how many issued.
    fn select(&mut self, now: u64) -> usize {
        let min_unresolved = self.unresolved_stores.front().copied();
        self.refile_parked(min_unresolved, now);
        self.stations.promote_due(now);
        let mut issued = [0u32; 8];
        let mut mask = self.stations.ready_mask();
        while mask != 0 {
            let station = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            let (ci, rsi) = (station / RS_PER_CLUSTER, station % RS_PER_CLUSTER);
            let mut ready = self.stations.take_ready(station);
            let mut keep = 0;
            for i in 0..ready.len() {
                let seq = ready[i];
                match self.try_issue(seq, now, min_unresolved, ci) {
                    Issue::Began => {
                        issued[ci.min(7)] += 1;
                        self.clusters[ci].station_occ[rsi] -= 1;
                    }
                    Issue::BehindStore => {
                        let at = self.parked.partition_point(|&s| s < seq);
                        self.parked.insert(at, seq);
                    }
                    Issue::Wait => {
                        ready[keep] = seq;
                        keep += 1;
                    }
                }
            }
            ready.truncate(keep);
            self.stations.put_ready(station, ready);
        }
        self.observe_issue(&issued)
    }

    /// Files every parked load that no older unresolved store address
    /// blocks any more back in its ready list. The list is in sequence
    /// order, so the loads older than the oldest unresolved store are a
    /// prefix; stores rename in order, so none can block them again.
    fn refile_parked(&mut self, min_unresolved: Option<u64>, now: u64) {
        let free = match min_unresolved {
            Some(ms) => self.parked.partition_point(|&s| s < ms),
            None => self.parked.len(),
        };
        for i in 0..free {
            let seq = self.parked[i];
            let e = self.entry(seq).expect("parked loads are in the ROB");
            let (ready_at, _) = e.ready.expect("parked loads have settled");
            let station = station(usize::from(e.cluster), e.rs);
            self.stations.file(station, ready_at, seq, now);
        }
        self.parked.drain(..free);
    }

    /// Samples the per-cluster issue histogram; returns the total issued.
    fn observe_issue(&mut self, issued: &[u32; 8]) -> usize {
        if let Some(rec) = &self.recorder {
            for ci in 0..self.clusters.len() {
                let n = u64::from(issued[ci.min(7)]);
                rec.observe(Hist::ClusterIssueOccupancy, n);
            }
        }
        issued.iter().map(|&n| n as usize).sum()
    }

    fn begin_execution(&mut self, seq: u64, now: u64, exec_lat: u64, critical: Option<usize>) {
        // Record forwarding statistics and execution feedback first.
        self.record_forwarding(seq, critical);
        let (cluster, op, addr) = {
            let e = self.entry(seq).expect("in ROB");
            (e.cluster as usize, e.inst.op, e.mem_addr)
        };
        self.stats.executed_per_cluster[cluster.min(7)] += 1;
        let complete = if op.is_load() {
            self.stats.loads += 1;
            let addr = addr.expect("loads carry an address");
            match self.mem.store_buffer().check_load(seq, addr) {
                StoreForward::Forwarded { .. } => {
                    self.stats.store_forwards += 1;
                    now + 2 // AGU + buffer forward
                }
                StoreForward::None => self.mem.access(AccessKind::Load, addr, now + 1).ready_cycle,
            }
        } else if op.is_store() {
            self.stats.stores += 1;
            let addr = addr.expect("stores carry an address");
            if let Ok(i) = self.unresolved_stores.binary_search(&seq) {
                self.unresolved_stores.remove(i);
            }
            self.mem.store_buffer().insert(seq, addr);
            self.mem.access(AccessKind::Store, addr, now + 1);
            now + 1 // address + data captured in the buffer
        } else {
            now + exec_lat
        };
        // Every completion cycle the memory system can produce is
        // strictly in the future, so the wheel never misses one.
        debug_assert!(complete > now);
        self.wheel.schedule(complete, seq);
        let e = self.entry_mut(seq).expect("in ROB");
        e.stage = Stage::Executing { complete };
        e.exec_start = now;
        let wait = now - e.dispatched_at;
        let fu = e.inst.op.fu_type().index();
        self.stats.sum_rs_wait += wait;
        self.stats.rs_wait_by_fu[fu] += wait;
        self.stats.count_by_fu[fu] += 1;
    }

    /// Builds [`ExecFeedback`] and updates forwarding statistics as `seq`
    /// begins execution.
    fn record_forwarding(&mut self, seq: u64, critical: Option<usize>) {
        let e = self.entry(seq).expect("in ROB");
        let consumer_index = e.index;
        let consumer_cluster = e.cluster;
        let has_input = e.srcs.iter().any(|s| !matches!(s, SrcState::None));
        let critical_forwarded =
            critical.is_some_and(|c| matches!(e.srcs[c], SrcState::Forwarded { .. }));

        // Gather producer info for each forwarded source.
        let mut producers: [Option<ProducerInfo>; 2] = [None, None];
        for (i, s) in e.srcs.iter().enumerate() {
            if let SrcState::Forwarded {
                producer_seq,
                cluster,
                same_trace,
                ..
            } = *s
            {
                // Producer may have retired; fall back to minimal info.
                let (ppc, role, chain, loc) = match self.entry(producer_seq) {
                    Some(p) => (p.pc, p.profile.role, p.profile.chain_cluster, p.tc_loc),
                    None => (0, ctcp_tracecache::ChainRole::None, None, None),
                };
                producers[i] = Some(ProducerInfo {
                    pc: ppc,
                    cluster,
                    same_trace,
                    role,
                    chain_cluster: chain,
                    tc_location: loc,
                });
            }
        }

        if has_input {
            self.fwd.insts_with_inputs += 1;
            match (critical, critical_forwarded) {
                (Some(0), true) => self.fwd.crit_from_rs1 += 1,
                (Some(1), true) => self.fwd.crit_from_rs2 += 1,
                (Some(_), false) => self.fwd.crit_from_rf += 1,
                _ => {}
            }
        }
        for (i, p) in producers.iter().enumerate() {
            let Some(p) = p else { continue };
            if p.pc == 0 {
                // Retired producer with no recoverable identity: count the
                // forward but skip history.
                self.fwd.forwarded_inputs += 1;
            } else {
                self.fwd.forwarded_inputs += 1;
                self.history
                    .record(consumer_index, i, p.pc, critical == Some(i), !p.same_trace);
            }
            if critical == Some(i) {
                self.fwd.forwarded_critical += 1;
                if !p.same_trace {
                    self.fwd.critical_inter_trace += 1;
                }
                let d = self.cfg.geometry.distance(p.cluster, consumer_cluster);
                if d == 0 {
                    self.fwd.critical_intra_cluster += 1;
                }
                self.fwd.critical_distance_sum += u64::from(d);
                if let Some(rec) = &self.recorder {
                    let lat = self.cfg.forward_latency(p.cluster, consumer_cluster);
                    rec.observe(Hist::ForwardLatency, lat);
                }
            }
        }

        let e = self.entry_mut(seq).expect("in ROB");
        e.feedback = ExecFeedback {
            executed_cluster: consumer_cluster,
            src_producers: producers,
            critical_src: critical.map(|c| c as u8),
            critical_forwarded,
        };
    }

    /// Complete: pop exactly the instructions finishing in
    /// `(last_tick, now]` from the wheel and wake only their registered
    /// consumers. Returns how many completed.
    fn complete(&mut self, now: u64, redirects: &mut Vec<u64>) -> usize {
        let mut events = std::mem::take(&mut self.scratch_events);
        let mut wakes = std::mem::take(&mut self.scratch_wakes);
        events.clear();
        self.wheel.drain_into(now, &mut events);
        let mut woken = 0u64;
        for &(at, seq) in &events {
            let e = self
                .rob
                .get_mut(seq)
                .expect("completing entries are in ROB");
            debug_assert!(matches!(e.stage, Stage::Executing { complete } if complete == at));
            e.stage = Stage::Complete { at };
            let (pcluster, pgroup) = (e.cluster, e.group);
            if e.mispredicted {
                redirects.push(seq);
                self.stats.redirects += 1;
            }
            let producer = Completed {
                seq,
                at,
                cluster: pcluster,
                group: pgroup,
            };
            let chain = e.cons_head;
            e.cons_head = NIL;
            e.cons_tail = NIL;
            wakes.clear();
            self.consumers.drain_into(chain, &mut wakes);
            for &(cseq, si) in &wakes {
                self.wake(cseq, usize::from(si), &producer, now);
            }
            woken += wakes.len() as u64;
        }
        // The wheel surfaces one cycle's completions in issue order;
        // redirects are reported in program order.
        redirects.sort_unstable();
        let completed = events.len();
        self.note_completions(completed as u64, woken);
        self.scratch_events = events;
        self.scratch_wakes = wakes;
        completed
    }

    /// Resolves consumer `cseq`'s source `si` against `producer`, and
    /// files the consumer in its ready queue if that was its last
    /// outstanding operand.
    fn wake(&mut self, cseq: u64, si: usize, producer: &Completed, now: u64) {
        let c = self
            .rob
            .get_mut(cseq)
            .expect("registered consumers cannot retire before their producer");
        debug_assert!(
            matches!(c.srcs[si], SrcState::Waiting { producer_seq } if producer_seq == producer.seq)
        );
        c.srcs[si] = SrcState::Forwarded {
            producer_seq: producer.seq,
            complete: producer.at,
            cluster: producer.cluster,
            same_trace: c.group == producer.group,
        };
        let in_rs = matches!(c.stage, Stage::InRs);
        let resolved = !c.srcs.iter().any(|s| matches!(s, SrcState::Waiting { .. }));
        if !(in_rs && resolved) {
            // Not dispatched yet (dispatch files it) or still waiting on
            // another producer (that wakeup files it).
            return;
        }
        let station = station(usize::from(c.cluster), c.rs);
        let ready_at = self.settle_readiness(cseq).expect("all sources resolved");
        self.stations.file(station, ready_at, cseq, now);
    }

    fn note_completions(&mut self, completions: u64, woken: u64) {
        if let Some(rec) = &self.recorder {
            if completions > 0 {
                rec.counter(Counter::SchedCompletions, completions);
            }
            if woken > 0 {
                rec.counter(Counter::SchedWakeups, woken);
            }
        }
    }

    /// Builds the attribution record for a retiring entry: stage stamps
    /// plus per-source operand provenance (register file vs same-cluster
    /// bypass vs inter-cluster forward). Recorder-on path only.
    fn attrib_of(&self, e: &Entry, complete_at: u64, now: u64) -> InstAttrib {
        let mut srcs = [SrcAttrib::default(); 2];
        for (i, s) in e.srcs.iter().enumerate() {
            srcs[i] = match *s {
                SrcState::None => SrcAttrib::default(),
                SrcState::RfReady { at } => SrcAttrib {
                    kind: SrcKind::RegFile,
                    arrival: at,
                    ..SrcAttrib::default()
                },
                // Unreachable at retire (producers are older and must
                // have completed), kept total for safety.
                SrcState::Waiting { .. } => SrcAttrib {
                    kind: SrcKind::RegFile,
                    ..SrcAttrib::default()
                },
                SrcState::Forwarded {
                    complete, cluster, ..
                } => SrcAttrib {
                    kind: if self.cfg.geometry.distance(cluster, e.cluster) == 0 {
                        SrcKind::Bypass
                    } else {
                        SrcKind::Forward
                    },
                    producer_cluster: cluster,
                    complete,
                    arrival: self.arrival(s, e.cluster).unwrap_or(complete),
                },
            };
        }
        InstAttrib {
            seq: e.seq,
            pc: e.pc,
            cluster: e.cluster,
            renamed_at: e.renamed_at,
            dispatched_at: e.dispatched_at,
            exec_start: e.exec_start,
            complete_at,
            retired_at: now,
            srcs,
        }
    }

    /// The critical link of a retiring entry: a step back to the
    /// producer of its last-arriving operand when that value was
    /// bypassed or forwarded, none (`back == 0`) when it was read from
    /// the register file.
    fn link_of(&self, e: &Entry) -> CritLink {
        let mut link = CritLink {
            pc: e.pc,
            ..CritLink::default()
        };
        if let Some(c) = e.feedback.critical_src {
            if let SrcState::Forwarded {
                producer_seq,
                cluster,
                ..
            } = e.srcs[usize::from(c)]
            {
                // Producers are in flight when their consumer renames,
                // so the distance stays below the ROB size: the
                // critical-path walker's window.
                link.back = u32::try_from(e.seq - producer_seq).expect("producer within the ROB");
                link.hops = self.cfg.geometry.distance(cluster, e.cluster);
            }
        }
        link
    }

    /// Classifies what the ROB head is waiting on at cycle `now` — the
    /// blame bucket for a retire slot that went unused this cycle.
    /// Returns `None` when the ROB is empty (the caller distinguishes
    /// the front-end causes: mispredict squash vs fetch starvation).
    ///
    /// Priority order (first match wins): an undispatched head is
    /// RS/dispatch pressure; a head in a station waiting on a critical
    /// operand still crossing the interconnect is inter-cluster delay;
    /// a head executing a load is memory; a head with arrived operands
    /// that has not issued is RS/dispatch (structural) pressure;
    /// everything else is base in-order drain. A station resident's
    /// readiness is the pair settled when its last operand resolved.
    pub fn head_blame(&self, now: u64) -> Option<RetireSlotKind> {
        let head = self.rob.front()?;
        Some(match head.stage {
            Stage::AwaitDispatch { .. } => RetireSlotKind::RsDispatch,
            Stage::Complete { .. } => RetireSlotKind::Base,
            Stage::Executing { .. } => {
                if head.inst.op.is_load() {
                    RetireSlotKind::Memory
                } else {
                    RetireSlotKind::Base
                }
            }
            Stage::InRs => match head.ready {
                Some((ready, critical)) if ready > now => {
                    let in_transit = critical.map(|c| head.srcs[c]).is_some_and(|s| {
                        matches!(s, SrcState::Forwarded { cluster, .. }
                            if self.cfg.geometry.distance(cluster, head.cluster) > 0)
                    });
                    if in_transit {
                        RetireSlotKind::InterCluster
                    } else {
                        RetireSlotKind::Base
                    }
                }
                // Operands arrived (or a source is still unresolved,
                // which cannot happen at the head): structural pressure.
                _ => RetireSlotKind::RsDispatch,
            },
        })
    }

    fn retire_into(&mut self, now: u64, retired: &mut Vec<RetiredInst>) {
        while retired.len() < self.cfg.retire_width {
            let Some(head) = self.rob.front() else { break };
            let Stage::Complete { at } = head.stage else {
                break;
            };
            if at > now {
                break;
            }
            let e = self.rob.pop_front().expect("checked front");
            if let Stage::Complete { at } = e.stage {
                self.stats.sum_complete_to_retire += now - at;
                if let Some(rec) = &self.recorder {
                    rec.counter(Counter::Retired, 1);
                    rec.retire_attrib(&self.attrib_of(&e, at, now));
                }
            }
            if self.record_links {
                let link = self.link_of(&e);
                self.walker.push(link);
            }
            if let Some(d) = e.inst.dest {
                if self.rat[d.index()] == Some(e.seq) {
                    self.rat[d.index()] = None;
                }
            }
            if e.inst.op.is_store() {
                self.mem.store_buffer().mark_retired(e.seq);
            }
            if e.inst.op.is_load() {
                self.mem.load_queue().remove(e.seq);
            }
            self.stats.retired += 1;
            retired.push(RetiredInst {
                seq: e.seq,
                pc: e.pc,
                index: e.index,
                inst: e.inst,
                mem_addr: e.mem_addr,
                taken: e.taken,
                group: e.group,
                from_tc: e.from_tc,
                tc_loc: e.tc_loc,
                profile: e.profile,
                cluster: e.cluster,
                feedback: e.feedback,
                retire_cycle: now,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctcp_isa::{Opcode, Reg};

    fn cfg() -> EngineConfig {
        EngineConfig::default()
    }

    fn fetched(seq: u64, inst: Instruction, slot: u8) -> FetchedInst {
        FetchedInst {
            seq,
            pc: 0x1000 + seq * 4,
            index: seq as u32,
            inst,
            mem_addr: None,
            taken: None,
            slot,
            group: 0,
            from_tc: false,
            tc_loc: None,
            profile: ProfileFields::default(),
            mispredicted: false,
        }
    }

    fn add(d: Reg, a: Reg, b: Reg) -> Instruction {
        Instruction::new(Opcode::Add, Some(d), Some(a), Some(b), 0)
    }

    fn run_until_drained(engine: &mut Engine, start: u64) -> (Vec<RetiredInst>, u64) {
        let mut retired = Vec::new();
        let mut now = start;
        for _ in 0..10_000 {
            let r = engine.tick(now);
            retired.extend(r.retired);
            now += 1;
            if engine.in_flight() == 0 {
                break;
            }
        }
        (retired, now)
    }

    /// Runs the fetch groups through an engine, accepting each as soon
    /// as it fits, until it drains, and checks an FNV-1a digest of every
    /// cycle's `TickResult` and the final `stats()` and
    /// `forwarding_stats()` against `want`. The digests were recorded
    /// while a second, scan-per-cycle scheduler still cross-checked this
    /// one cycle for cycle. Returns the retired stream.
    fn assert_schedule(
        cfg: EngineConfig,
        mode: SteeringMode,
        groups: &[Vec<FetchedInst>],
        want: u64,
    ) -> Vec<RetiredInst> {
        let fnv = |h: u64, text: String| {
            text.bytes().fold(h, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            })
        };
        let mut engine = Engine::new(cfg, mode);
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        let mut gi = 0;
        let mut retired = Vec::new();
        for now in 0..50_000u64 {
            if gi < groups.len() && engine.can_accept(groups[gi].len()) {
                engine.accept(&groups[gi], now);
                gi += 1;
            }
            let r = engine.tick(now);
            digest = fnv(digest, format!("{r:?}"));
            retired.extend(r.retired);
            if gi == groups.len() && engine.in_flight() == 0 {
                break;
            }
        }
        assert_eq!(engine.in_flight(), 0, "engine did not drain");
        digest = fnv(digest, format!("{:?}", engine.stats()));
        digest = fnv(digest, format!("{:?}", engine.forwarding_stats()));
        assert_eq!(
            digest, want,
            "schedule digest {digest:#018x} differs from the recorded one"
        );
        retired
    }

    #[test]
    fn single_instruction_flows_through() {
        let mut e = Engine::new(cfg(), SteeringMode::Slot);
        e.accept(&[fetched(0, add(Reg::R1, Reg::R2, Reg::R3), 0)], 0);
        let (retired, _) = run_until_drained(&mut e, 1);
        assert_eq!(retired.len(), 1);
        assert_eq!(retired[0].seq, 0);
        assert_eq!(retired[0].cluster, 0);
        assert_eq!(e.stats().retired, 1);
    }

    #[test]
    fn slot_steering_maps_slots_to_clusters() {
        let mut e = Engine::new(cfg(), SteeringMode::Slot);
        let group: Vec<FetchedInst> = (0..16)
            .map(|i| fetched(i, add(Reg::int(i as u8 % 8), Reg::R9, Reg::R10), i as u8))
            .collect();
        e.accept(&group, 0);
        let (retired, _) = run_until_drained(&mut e, 1);
        assert_eq!(retired.len(), 16);
        for r in &retired {
            assert_eq!(u64::from(r.cluster), r.seq / 4);
        }
    }

    #[test]
    fn retirement_is_in_program_order() {
        let mut e = Engine::new(cfg(), SteeringMode::Slot);
        // A slow op first (divide), then fast dependent-free adds.
        let mut group = vec![fetched(
            0,
            Instruction::new(Opcode::Div, Some(Reg::R1), Some(Reg::R2), Some(Reg::R3), 0),
            0,
        )];
        for i in 1..8 {
            group.push(fetched(
                i,
                add(Reg::int(10 + i as u8), Reg::R9, Reg::R9),
                i as u8,
            ));
        }
        e.accept(&group, 0);
        let (retired, _) = run_until_drained(&mut e, 1);
        let seqs: Vec<u64> = retired.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn dependent_instruction_waits_for_producer() {
        let mut e = Engine::new(cfg(), SteeringMode::Slot);
        // producer on cluster 0 (slot 0); consumer on cluster 3 (slot 12).
        let group = vec![
            fetched(0, add(Reg::R1, Reg::R9, Reg::R9), 0),
            fetched(1, add(Reg::R2, Reg::R1, Reg::R9), 12),
        ];
        e.accept(&group, 0);
        let (retired, _) = run_until_drained(&mut e, 1);
        assert_eq!(retired.len(), 2);
        let fb = retired[1].feedback;
        assert_eq!(fb.critical_src, Some(0));
        assert!(fb.critical_forwarded);
        let p = fb.src_producers[0].unwrap();
        assert_eq!(p.cluster, 0);
        // Distance 3 on a linear interconnect.
        assert_eq!(e.forwarding_stats().critical_distance_sum, 3);
        assert_eq!(e.forwarding_stats().critical_intra_cluster, 0);
    }

    #[test]
    fn same_cluster_forwarding_is_faster_than_cross_cluster() {
        let run = |consumer_slot: u8| -> u64 {
            let mut e = Engine::new(cfg(), SteeringMode::Slot);
            let group = vec![
                fetched(0, add(Reg::R1, Reg::R9, Reg::R9), 0),
                fetched(1, add(Reg::R2, Reg::R1, Reg::R9), consumer_slot),
            ];
            e.accept(&group, 0);
            let (retired, _) = run_until_drained(&mut e, 1);
            retired[1].retire_cycle
        };
        let same = run(1); // same cluster
        let far = run(12); // 3 hops away
        assert!(far >= same + 6, "far={far} same={same}");
    }

    #[test]
    fn issue_time_steers_to_producer_cluster() {
        let mut c = cfg();
        c.steer_latency = 0;
        let mut e = Engine::new(c, SteeringMode::IssueTime);
        // Producer then consumer: consumer should land on the producer's
        // cluster regardless of slots.
        let group = vec![
            fetched(0, add(Reg::R1, Reg::R9, Reg::R9), 0),
            fetched(1, add(Reg::R2, Reg::R1, Reg::R9), 15),
        ];
        e.accept(&group, 0);
        let (retired, _) = run_until_drained(&mut e, 1);
        assert_eq!(retired[0].cluster, retired[1].cluster);
    }

    #[test]
    fn issue_time_respects_per_cluster_limit() {
        let mut e = Engine::new(cfg(), SteeringMode::IssueTime);
        // 16 independent instructions: must spread 4 per cluster.
        let group: Vec<FetchedInst> = (0..16)
            .map(|i| fetched(i, add(Reg::int((i % 8) as u8), Reg::R9, Reg::R10), 0))
            .collect();
        e.accept(&group, 0);
        let (retired, _) = run_until_drained(&mut e, 1);
        let mut counts = [0; 4];
        for r in &retired {
            counts[r.cluster as usize] += 1;
        }
        assert_eq!(counts, [4, 4, 4, 4]);
    }

    #[test]
    fn store_load_forwarding_hits_buffer() {
        let mut e = Engine::new(cfg(), SteeringMode::Slot);
        let st = Instruction::new(Opcode::St, None, Some(Reg::R1), Some(Reg::R2), 0);
        let ld = Instruction::new(Opcode::Ld, Some(Reg::R3), Some(Reg::R1), None, 0);
        let mut g0 = fetched(0, st, 0);
        g0.mem_addr = Some(0x9000);
        let mut g1 = fetched(1, ld, 1);
        g1.mem_addr = Some(0x9000);
        e.accept(&[g0, g1], 0);
        let (retired, _) = run_until_drained(&mut e, 1);
        assert_eq!(retired.len(), 2);
        assert_eq!(e.stats().store_forwards, 1);
    }

    #[test]
    fn load_waits_for_unresolved_older_store_address() {
        // Store whose address operand is produced late (div), followed by
        // a load: the load must not complete before the store resolves.
        let mut e = Engine::new(cfg(), SteeringMode::Slot);
        let div = Instruction::new(Opcode::Div, Some(Reg::R1), Some(Reg::R2), Some(Reg::R3), 0);
        let st = Instruction::new(Opcode::St, None, Some(Reg::R1), Some(Reg::R4), 0);
        let ld = Instruction::new(Opcode::Ld, Some(Reg::R5), Some(Reg::R6), None, 0);
        let mut s = fetched(1, st, 1);
        s.mem_addr = Some(0x5000);
        let mut l = fetched(2, ld, 2);
        l.mem_addr = Some(0x6000);
        e.accept(&[fetched(0, div, 0), s, l], 0);
        let (retired, _) = run_until_drained(&mut e, 1);
        // div takes 20 cycles; the load, though independent, retires after
        // the store resolves -> all in order anyway; check the load's
        // retire is not absurdly early by checking total cycles > 20.
        assert!(retired[2].retire_cycle > 20);
    }

    #[test]
    fn loads_wait_on_older_unresolved_store_across_clusters() {
        // The store's address is produced late (div) on cluster 0;
        // younger loads sit on clusters 1..3 with their own (disjoint)
        // addresses. Without speculative disambiguation none of them may
        // begin execution until the store's address resolves.
        let div = Instruction::new(Opcode::Div, Some(Reg::R1), Some(Reg::R2), Some(Reg::R3), 0);
        let st = Instruction::new(Opcode::St, None, Some(Reg::R1), Some(Reg::R4), 0);
        let mut s = fetched(1, st, 1);
        s.mem_addr = Some(0x5000);
        let mut group = vec![fetched(0, div, 0), s];
        for i in 0..3u64 {
            let ld = Instruction::new(
                Opcode::Ld,
                Some(Reg::int(5 + i as u8)),
                Some(Reg::R9),
                None,
                0,
            );
            let mut l = fetched(2 + i, ld, (4 * (i + 1)) as u8); // clusters 1, 2, 3
            l.mem_addr = Some(0x6000 + 0x100 * i);
            group.push(l);
        }
        let retired = assert_schedule(cfg(), SteeringMode::Slot, &[group], 0x1b76_8c3f_1916_6979);
        assert_eq!(retired.len(), 5);
        // The div (latency 20) gates the store; every load must retire
        // after the store's address resolved, despite disjoint addresses
        // and free load ports on their clusters.
        let store_retire = retired[1].retire_cycle;
        for r in &retired[2..] {
            assert!(r.cluster >= 1, "loads sit on remote clusters");
            assert!(
                r.retire_cycle >= store_retire && r.retire_cycle > 20,
                "load seq {} retired at {} before the store resolved",
                r.seq,
                r.retire_cycle
            );
        }
    }

    #[test]
    fn parked_loads_leave_select_and_their_list_is_recycled() {
        // A divide feeds a store's address; three younger loads with
        // ready operands park behind it instead of retrying each cycle.
        let div = Instruction::new(Opcode::Div, Some(Reg::R1), Some(Reg::R2), Some(Reg::R3), 0);
        let st = Instruction::new(Opcode::St, None, Some(Reg::R1), Some(Reg::R4), 0);
        let mut group = vec![fetched(0, div, 0), fetched(1, st, 1)];
        group[1].mem_addr = Some(0x5000);
        for i in 0..3u64 {
            let ld = Instruction::new(
                Opcode::Ld,
                Some(Reg::int(5 + i as u8)),
                Some(Reg::R9),
                None,
                0,
            );
            let mut l = fetched(2 + i, ld, (4 * (i + 1)) as u8);
            l.mem_addr = Some(0x6000 + 0x100 * i);
            group.push(l);
        }
        let mut e = Engine::new(cfg(), SteeringMode::Slot);
        e.accept(&group, 0);
        for now in 1..10 {
            e.tick(now);
        }
        assert_eq!(e.parked, vec![2, 3, 4]);
        assert_eq!(
            e.stations.ready_mask(),
            0,
            "parked loads are off the ready lists"
        );
        let arena = e.into_arena();
        assert!(arena.parked.capacity() >= 3);
        let e = Engine::with_arena(cfg(), SteeringMode::Slot, arena);
        assert!(e.parked.is_empty() && e.parked.capacity() >= 3);
    }

    #[test]
    fn cross_cluster_chains_keep_their_schedule() {
        // Mixed-latency dependency chains spanning clusters, several
        // groups deep, under slot steering.
        let mut groups = Vec::new();
        let mut seq = 0u64;
        for g in 0..6u64 {
            let mut group = Vec::new();
            for i in 0..8u64 {
                let slot = ((i * 3 + g) % 16) as u8;
                let inst = match i % 4 {
                    0 => Instruction::new(
                        Opcode::Div,
                        Some(Reg::int((i % 8) as u8)),
                        Some(Reg::R9),
                        Some(Reg::R10),
                        0,
                    ),
                    1 => Instruction::new(
                        Opcode::Mul,
                        Some(Reg::int((i % 8) as u8)),
                        Some(Reg::int(((i + 3) % 8) as u8)),
                        Some(Reg::R9),
                        0,
                    ),
                    _ => add(
                        Reg::int((i % 8) as u8),
                        Reg::int(((i + 1) % 8) as u8),
                        Reg::int(((i + 5) % 8) as u8),
                    ),
                };
                let mut f = fetched(seq, inst, slot);
                f.group = g;
                group.push(f);
                seq += 1;
            }
            groups.push(group);
        }
        assert_schedule(cfg(), SteeringMode::Slot, &groups, 0x4350_f74e_3af8_ad6a);
        assert_schedule(
            cfg(),
            SteeringMode::IssueTime,
            &groups,
            0x4031_d04e_d0fd_5ba4,
        );
    }

    #[test]
    fn random_mix_keeps_its_schedule() {
        // Deterministic LCG-generated soup of ALU ops, loads, stores and
        // branches across many fetch groups, run under both steering
        // modes. This is the broadest engine-level schedule net; the
        // root package's oracle suite covers full benchmarks.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut rnd = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut groups = Vec::new();
        let mut seq = 0u64;
        for g in 0..40u64 {
            let n = 1 + (rnd() % 16);
            let mut group = Vec::new();
            for _ in 0..n {
                let d = Reg::int((rnd() % 8) as u8);
                let a = Reg::int((rnd() % 12) as u8);
                let b = Reg::int((rnd() % 12) as u8);
                let slot = (seq % 16) as u8;
                let mut f = match rnd() % 10 {
                    0 => fetched(
                        seq,
                        Instruction::new(Opcode::Div, Some(d), Some(a), Some(b), 0),
                        slot,
                    ),
                    1 | 2 => {
                        let mut f = fetched(
                            seq,
                            Instruction::new(Opcode::Ld, Some(d), Some(a), None, 0),
                            slot,
                        );
                        f.mem_addr = Some((rnd() % 0x4000) * 8);
                        f
                    }
                    3 => {
                        let mut f = fetched(
                            seq,
                            Instruction::new(Opcode::St, None, Some(a), Some(b), 0),
                            slot,
                        );
                        f.mem_addr = Some((rnd() % 0x4000) * 8);
                        f
                    }
                    4 => {
                        let mut f = fetched(
                            seq,
                            Instruction::new(Opcode::Bne, None, Some(a), Some(b), 0),
                            slot,
                        );
                        f.taken = Some(rnd() % 2 == 0);
                        f.mispredicted = rnd() % 4 == 0;
                        f
                    }
                    5 => fetched(
                        seq,
                        Instruction::new(Opcode::Mul, Some(d), Some(a), Some(b), 0),
                        slot,
                    ),
                    _ => fetched(seq, add(d, a, b), slot),
                };
                f.group = g;
                group.push(f);
                seq += 1;
            }
            groups.push(group);
        }
        assert_schedule(cfg(), SteeringMode::Slot, &groups, 0xb5b8_16c6_145c_470a);
        assert_schedule(
            cfg(),
            SteeringMode::IssueTime,
            &groups,
            0x864d_a729_359d_5022,
        );
    }

    #[test]
    fn mispredicted_branch_reports_redirect() {
        let mut e = Engine::new(cfg(), SteeringMode::Slot);
        let br = Instruction::new(Opcode::Bne, None, Some(Reg::R1), Some(Reg::R2), 0);
        let mut f = fetched(0, br, 0);
        f.mispredicted = true;
        f.taken = Some(true);
        e.accept(&[f], 0);
        let mut redirected = false;
        for now in 1..=100 {
            let r = e.tick(now);
            if !r.redirects.is_empty() {
                assert_eq!(r.redirects, vec![0]);
                redirected = true;
            }
            if e.in_flight() == 0 {
                break;
            }
        }
        assert!(redirected);
        assert_eq!(e.stats().redirects, 1);
    }

    #[test]
    fn rob_capacity_gates_accept() {
        let mut c = cfg();
        c.rob_entries = 8;
        let e = Engine::new(c, SteeringMode::Slot);
        assert!(e.can_accept(8));
        assert!(!e.can_accept(9));
    }

    #[test]
    fn rf_latency_delays_first_use() {
        // With rf_latency = 2, an instruction renamed at cycle 0 cannot
        // execute before cycle 2.
        let mut e = Engine::new(cfg(), SteeringMode::Slot);
        e.accept(&[fetched(0, add(Reg::R1, Reg::R2, Reg::R3), 0)], 0);
        let (retired, _) = run_until_drained(&mut e, 1);
        // execute at >= 2, complete >= 3, retire >= 3.
        assert!(retired[0].retire_cycle >= 3);
    }

    #[test]
    fn no_forward_latency_override_speeds_up_cross_cluster() {
        let run = |ov: LatencyOverrides| -> u64 {
            let mut c = cfg();
            c.overrides = ov;
            let mut e = Engine::new(c, SteeringMode::Slot);
            let group = vec![
                fetched(0, add(Reg::R1, Reg::R9, Reg::R9), 0),
                fetched(1, add(Reg::R2, Reg::R1, Reg::R9), 12),
            ];
            e.accept(&group, 0);
            let (retired, _) = run_until_drained(&mut e, 1);
            retired[1].retire_cycle
        };
        use crate::LatencyOverrides;
        let base = run(LatencyOverrides::default());
        let ideal = run(LatencyOverrides {
            no_forward_latency: true,
            ..Default::default()
        });
        let crit = run(LatencyOverrides {
            no_critical_forward_latency: true,
            ..Default::default()
        });
        assert!(ideal < base);
        assert_eq!(crit, ideal, "single forwarded input is the critical one");
    }

    #[test]
    fn latency_overrides_keep_their_schedule() {
        use crate::LatencyOverrides;
        for (ov, want) in [
            (
                LatencyOverrides {
                    no_forward_latency: true,
                    ..Default::default()
                },
                0x4edc_b507_cc38_2ebb,
            ),
            (
                LatencyOverrides {
                    no_intra_trace_latency: true,
                    ..Default::default()
                },
                0x3942_a940_2c9d_d764,
            ),
            (
                LatencyOverrides {
                    no_inter_trace_latency: true,
                    ..Default::default()
                },
                0xb159_0b89_3ac8_7dc5,
            ),
            (
                LatencyOverrides {
                    no_critical_forward_latency: true,
                    ..Default::default()
                },
                0x0c9f_4cd8_592b_1642,
            ),
        ] {
            let mut c = cfg();
            c.overrides = ov;
            let mut groups = Vec::new();
            for g in 0..4u64 {
                let group: Vec<FetchedInst> = (0..8u64)
                    .map(|i| {
                        let seq = g * 8 + i;
                        let mut f = fetched(
                            seq,
                            add(
                                Reg::int((seq % 8) as u8),
                                Reg::int(((seq + 2) % 8) as u8),
                                Reg::int(((seq + 5) % 10) as u8),
                            ),
                            ((seq * 5) % 16) as u8,
                        );
                        f.group = g;
                        f
                    })
                    .collect();
                groups.push(group);
            }
            assert_schedule(c, SteeringMode::Slot, &groups, want);
        }
    }
}
