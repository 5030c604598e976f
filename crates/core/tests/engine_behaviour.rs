//! Behavioural tests of the execution engine: functional-unit blocking,
//! memory ordering, interconnect shapes, steering corner cases, and the
//! contract behind skipping quiet cycles.

use ctcp_core::{
    ClusterGeometry, Engine, EngineConfig, FetchedInst, RetiredInst, SteeringMode, Topology,
};
use ctcp_isa::{Instruction, Opcode, Reg};
use ctcp_telemetry::{Counter, Hist, Recorder, RecorderConfig};
use ctcp_tracecache::ProfileFields;
use std::rc::Rc;

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

fn drain(engine: &mut Engine, start: u64) -> (Vec<ctcp_core::RetiredInst>, u64) {
    let mut retired = Vec::new();
    let mut now = start;
    for _ in 0..100_000 {
        let r = engine.tick(now);
        retired.extend(r.retired);
        now += 1;
        if engine.in_flight() == 0 {
            break;
        }
    }
    (retired, now)
}

fn alu(d: Reg, a: Reg, b: Reg) -> Instruction {
    Instruction::new(Opcode::Add, Some(d), Some(a), Some(b), 0)
}

#[test]
fn divide_blocks_its_unit_but_not_the_cluster() {
    // Two divides on the same cluster serialise on the single CPX unit;
    // an independent add on the same cluster proceeds immediately.
    let mut e = Engine::new(EngineConfig::default(), SteeringMode::Slot);
    let div = |seq, d: u8| {
        fetched(
            seq,
            Instruction::new(
                Opcode::Div,
                Some(Reg::int(d)),
                Some(Reg::R9),
                Some(Reg::R10),
                0,
            ),
            0,
        )
    };
    let group = vec![
        div(0, 1),
        div(1, 2),
        fetched(2, alu(Reg::R3, Reg::R9, Reg::R10), 1),
    ];
    e.accept(&group, 0);
    let (retired, _) = drain(&mut e, 1);
    // The add completes long before the second divide.
    let t_add = retired.iter().find(|r| r.seq == 2).unwrap().retire_cycle;
    let t_div2 = retired.iter().find(|r| r.seq == 1).unwrap().retire_cycle;
    // In-order retire: both retire when div1 does, but div1's completion
    // dominates; check instead via cycle count: two 20-cycle blocking
    // divides need ~40 cycles end to end.
    assert!(t_div2 >= 40, "second divide retired at {t_div2}");
    assert!(t_add <= t_div2);
}

#[test]
fn ring_topology_shortens_end_to_end_forwarding() {
    let run = |topology: Topology| -> u64 {
        let mut cfg = EngineConfig::default();
        cfg.geometry.topology = topology;
        let mut e = Engine::new(cfg, SteeringMode::Slot);
        // Producer on cluster 0, consumer on cluster 3.
        let group = vec![
            fetched(0, alu(Reg::R1, Reg::R9, Reg::R10), 0),
            fetched(1, alu(Reg::R2, Reg::R1, Reg::R10), 12),
        ];
        e.accept(&group, 0);
        let (retired, _) = drain(&mut e, 1);
        retired[1].retire_cycle
    };
    let linear = run(Topology::Linear);
    let ring = run(Topology::Ring);
    // Linear distance 3 (6 cycles), ring distance 1 (2 cycles).
    assert!(ring + 4 <= linear, "ring {ring} vs linear {linear}");
}

#[test]
fn loads_wait_for_older_store_addresses() {
    // Store 0's address depends on a long divide; the younger load to a
    // *different* address must still wait (no speculative
    // disambiguation).
    let mut e = Engine::new(EngineConfig::default(), SteeringMode::Slot);
    let div = Instruction::new(Opcode::Div, Some(Reg::R1), Some(Reg::R2), Some(Reg::R3), 0);
    let st = Instruction::new(Opcode::St, None, Some(Reg::R1), Some(Reg::R4), 0);
    let ld = Instruction::new(Opcode::Ld, Some(Reg::R5), Some(Reg::R6), None, 0);
    let mut fst = fetched(1, st, 4);
    fst.mem_addr = Some(0x1000);
    let mut fld = fetched(2, ld, 8);
    fld.mem_addr = Some(0x2000);
    e.accept(&[fetched(0, div, 0), fst, fld], 0);
    let (retired, _) = drain(&mut e, 1);
    // The load completes only after the divide (20 cycles) resolves the
    // store's address, even though its own address register was ready.
    assert!(retired[2].retire_cycle > 20);
}

#[test]
fn independent_loads_pipeline_through_one_mem_unit() {
    // Four independent loads on one cluster: the single MEM unit issues
    // one per cycle, so completion is staggered but far better than
    // serial cache latencies.
    let mut e = Engine::new(EngineConfig::default(), SteeringMode::Slot);
    let mut group = Vec::new();
    for i in 0..4u64 {
        let ld = Instruction::new(
            Opcode::Ld,
            Some(Reg::int(1 + i as u8)),
            Some(Reg::R9),
            None,
            0,
        );
        let mut f = fetched(i, ld, 0);
        f.mem_addr = Some(0x4000 + i * 8);
        group.push(f);
    }
    e.accept(&group, 0);
    let (retired, cycles) = drain(&mut e, 1);
    assert_eq!(retired.len(), 4);
    // Cold TLB (31) + L1 miss path (~75) dominates; pipelining means the
    // whole group finishes well under 4 full serial accesses.
    assert!(cycles < 160, "took {cycles} cycles");
}

#[test]
fn issue_time_balances_when_no_producers_exist() {
    let mut e = Engine::new(EngineConfig::default(), SteeringMode::IssueTime);
    let group: Vec<FetchedInst> = (0..16)
        .map(|i| fetched(i, alu(Reg::int((i % 8) as u8), Reg::R20, Reg::R21), 0))
        .collect();
    e.accept(&group, 0);
    let (retired, _) = drain(&mut e, 1);
    let mut counts = [0usize; 4];
    for r in &retired {
        counts[r.cluster as usize] += 1;
    }
    assert_eq!(counts.iter().sum::<usize>(), 16);
    assert!(counts.iter().all(|&c| c == 4), "unbalanced: {counts:?}");
}

#[test]
fn issue_time_follows_the_late_producer() {
    // Consumer with two producers: a fast add (slot 0 -> cluster 0) and a
    // slow divide (slot 4 -> cluster 1). Steering should chase the
    // divide, the critical input.
    let mut e = Engine::new(EngineConfig::default(), SteeringMode::IssueTime);
    e.accept(
        &[
            fetched(0, alu(Reg::R1, Reg::R9, Reg::R10), 0),
            fetched(
                1,
                Instruction::new(Opcode::Div, Some(Reg::R2), Some(Reg::R9), Some(Reg::R10), 0),
                0,
            ),
        ],
        0,
    );
    // Let both steer; then send the consumer next cycle.
    e.tick(1);
    e.accept(&[fetched(2, alu(Reg::R3, Reg::R1, Reg::R2), 0)], 1);
    let div_cluster = {
        // Drain and inspect.
        let (retired, _) = drain(&mut e, 2);
        let div = retired.iter().find(|r| r.seq == 1).unwrap().cluster;
        let consumer = retired.iter().find(|r| r.seq == 2).unwrap().cluster;
        assert_eq!(consumer, div, "consumer should land with the slow producer");
        div
    };
    let _ = div_cluster;
}

#[test]
fn eight_cluster_geometry_works_end_to_end() {
    let cfg = EngineConfig {
        geometry: ClusterGeometry {
            clusters: 8,
            slots_per_cluster: 2,
            topology: Topology::Linear,
        },
        ..EngineConfig::default()
    };
    let mut e = Engine::new(cfg, SteeringMode::Slot);
    let group: Vec<FetchedInst> = (0..16)
        .map(|i| fetched(i, alu(Reg::int((i % 8) as u8), Reg::R20, Reg::R21), i as u8))
        .collect();
    e.accept(&group, 0);
    let (retired, _) = drain(&mut e, 1);
    assert_eq!(retired.len(), 16);
    for r in &retired {
        assert_eq!(u64::from(r.cluster), r.seq / 2);
    }
}

#[test]
fn fp_ops_use_fp_units_with_table7_latencies() {
    // A chain fsqrt -> fadd: 24-cycle sqrt then 2-cycle add.
    let mut e = Engine::new(EngineConfig::default(), SteeringMode::Slot);
    let sqrt = Instruction::new(Opcode::FSqrt, Some(Reg::fp(1)), Some(Reg::fp(0)), None, 0);
    let fadd = Instruction::new(
        Opcode::FAdd,
        Some(Reg::fp(2)),
        Some(Reg::fp(1)),
        Some(Reg::fp(0)),
        0,
    );
    e.accept(&[fetched(0, sqrt, 0), fetched(1, fadd, 1)], 0);
    let (retired, _) = drain(&mut e, 1);
    // RF ready at 2, sqrt completes ~26, fadd at ~28 (same cluster).
    let t = retired[1].retire_cycle;
    assert!((26..40).contains(&t), "fadd retired at {t}");
}

#[test]
fn store_forwarding_beats_the_cache() {
    let run = |forwarded: bool| -> u64 {
        let mut e = Engine::new(EngineConfig::default(), SteeringMode::Slot);
        let st = Instruction::new(Opcode::St, None, Some(Reg::R1), Some(Reg::R2), 0);
        let ld = Instruction::new(Opcode::Ld, Some(Reg::R3), Some(Reg::R1), None, 0);
        let mut fst = fetched(0, st, 0);
        fst.mem_addr = Some(0x7000);
        let mut fld = fetched(1, ld, 1);
        fld.mem_addr = Some(if forwarded { 0x7000 } else { 0x9000 });
        e.accept(&[fst, fld], 0);
        let (retired, _) = drain(&mut e, 1);
        retired[1].retire_cycle
    };
    let hit = run(true);
    let miss = run(false);
    assert!(hit < miss, "forwarded load {hit} vs cache load {miss}");
}

#[test]
fn wide_dependent_chain_is_execution_serial() {
    // A 32-long chain through one register must take >= 32 execute
    // cycles regardless of the 16-wide front end.
    let mut e = Engine::new(EngineConfig::default(), SteeringMode::Slot);
    let mut seq = 0u64;
    let mut now = 0u64;
    while seq < 32 {
        let mut group = Vec::new();
        for s in 0..16 {
            if seq >= 32 {
                break;
            }
            group.push(fetched(seq, alu(Reg::R1, Reg::R1, Reg::R2), s));
            seq += 1;
        }
        while !e.can_accept(group.len()) {
            e.tick(now);
            now += 1;
        }
        e.accept(&group, now);
    }
    let (_, end) = drain(&mut e, now + 1);
    assert!(end >= 32, "chain of 32 finished in {end} cycles");
}

/// Fetch groups that keep every kind of delay in play: divides that
/// back up cluster 0's one complex unit until its station fills, stores
/// whose address waits on a divide with younger loads to other words
/// parked behind them, stores that retire together and drain over two
/// cycles, a load forwarding from an older store, cold misses, and
/// mispredicted branches.
fn delay_mix() -> Vec<Vec<FetchedInst>> {
    let div = |d: u8, a: u8| {
        Instruction::new(
            Opcode::Div,
            Some(Reg::int(d)),
            Some(Reg::int(a)),
            Some(Reg::R9),
            0,
        )
    };
    let mut groups = Vec::new();
    let mut seq = 0u64;
    for g in 0..48u64 {
        let mut group = Vec::new();
        let mut push = |inst: Instruction, slot: u8, addr: Option<u64>, mispredicted: bool| {
            let mut f = fetched(seq, inst, slot);
            f.group = g;
            f.mem_addr = addr;
            if mispredicted {
                f.mispredicted = true;
                f.taken = Some(g % 8 == 3);
            }
            group.push(f);
            seq += 1;
        };
        let line = 0x10_0000 + g * 0x1040;
        match g % 4 {
            // A divide chain, two deep, and an independent divide, all
            // on cluster 0: its one complex unit falls behind until its
            // station fills and dispatch stalls.
            0 => {
                push(div(1, 1), 0, None, false);
                push(div(2, 1), 1, None, false);
                push(div(13, 9), 2, None, false);
                push(alu(Reg::R3, Reg::R2, Reg::R9), 3, None, false);
            }
            // A store whose address waits on a divide; loads to other
            // words on three clusters park behind it.
            1 => {
                push(div(4, 9), 0, None, false);
                let st = Instruction::new(Opcode::St, None, Some(Reg::R4), Some(Reg::R5), 0);
                push(st, 1, Some(line), false);
                for c in 1..4u8 {
                    let ld =
                        Instruction::new(Opcode::Ld, Some(Reg::int(5 + c)), Some(Reg::R9), None, 0);
                    push(ld, 4 * c, Some(line + 0x100 * u64::from(c)), false);
                }
            }
            // Four stores that retire together and drain over two
            // cycles, store-to-load forwarding, then a dependent add.
            2 => {
                for k in 0..4u8 {
                    let st = Instruction::new(Opcode::St, None, Some(Reg::R9), Some(Reg::R3), 0);
                    push(st, 4 + k, Some(0x7000 + 8 * u64::from(k)), false);
                }
                let ld = Instruction::new(Opcode::Ld, Some(Reg::R10), Some(Reg::R9), None, 0);
                push(ld, 8, Some(0x7000), false);
                push(alu(Reg::R11, Reg::R10, Reg::R10), 9, None, false);
            }
            // A cold miss feeding a mispredicted branch.
            _ => {
                let ld = Instruction::new(Opcode::Ld, Some(Reg::R12), Some(Reg::R9), None, 0);
                push(ld, 12, Some(line + 0x800), false);
                let br = Instruction::new(Opcode::Bne, None, Some(Reg::R12), Some(Reg::R9), 0);
                push(br, 13, None, true);
            }
        }
        groups.push(group);
    }
    groups
}

/// What a tick changes when it dispatches, issues, completes, retires
/// or drains anything: the completions and retirements the recorder
/// counts, the issues its per-cluster histogram sums, per-cluster
/// dispatch-queue and station occupancy, the ROB head, the L1D's
/// accesses (retired stores drain into it), and the engine's counters
/// (bar the full-station dispatch stalls, which a quiet cycle still
/// counts).
fn observable(e: &Engine, rec: &Recorder) -> String {
    let m = rec.metrics();
    let mut stats = e.stats();
    stats.rs_full_stalls = 0;
    format!(
        "{} {} {} {:?} {:?} {stats:?}",
        m.get(Counter::SchedCompletions),
        m.get(Counter::Retired),
        m.hist(Hist::ClusterIssueOccupancy).sum,
        e.diagnostic(0),
        e.memory().l1_stats(),
    )
}

/// Cycles between the arrivals of consecutive [`delay_mix`] groups.
const ARRIVAL_GAP: u64 = 12;

/// Feeds [`delay_mix`] into an engine, group `g` once cycle
/// `g * ARRIVAL_GAP` has come and the ROB has room, and runs it dry.
/// After each tick that names a next event, the cycles up to that event
/// (or up to the next arrival, whichever is first) form a quiet span.
/// With `skip`, a span's cycles are not ticked but charged with
/// [`Engine::skip_quiet`]. Without, every cycle is ticked and checked
/// against the skip contract: each tick inside a span changes nothing
/// and counts the same dispatch stalls as the tick that named it.
/// Returns the retired stream, the final engine counters, how many
/// cycles the spans covered, and how many cycles the run took.
fn run_checking_spans(skip: bool) -> (Vec<RetiredInst>, String, u64, u64) {
    let groups = delay_mix();
    let rec = Rc::new(Recorder::new(RecorderConfig::metrics_only()));
    let mut e = Engine::new(EngineConfig::default(), SteeringMode::Slot);
    e.set_recorder(Rc::clone(&rec));
    let mut retired = Vec::new();
    let (mut gi, mut now, mut covered) = (0, 0u64, 0u64);
    // (end of the span, stalls per cycle, state after the naming tick)
    let mut span: Option<(u64, u64, String)> = None;
    while gi < groups.len() || e.in_flight() > 0 {
        now += 1;
        assert!(now < 100_000, "the engine did not drain");
        if span.as_ref().is_some_and(|(end, ..)| now >= *end) {
            span = None;
        }
        let arrival = gi as u64 * ARRIVAL_GAP;
        if gi < groups.len() && now >= arrival && e.can_accept(groups[gi].len()) {
            assert!(span.is_none(), "an arrival inside a span");
            e.accept(&groups[gi], now);
            gi += 1;
        }
        let stalls = e.stats().rs_full_stalls;
        let out = e.tick(now);
        let stalled = e.stats().rs_full_stalls - stalls;
        if let Some((end, per_cycle, before)) = &span {
            covered += 1;
            assert!(
                out.retired.is_empty() && out.redirects.is_empty(),
                "cycle {now} retired or redirected inside the quiet span to {end}"
            );
            assert_eq!(
                &observable(&e, &rec),
                before,
                "cycle {now} changed state inside the quiet span to {end}"
            );
            assert_eq!(stalled, *per_cycle, "cycle {now} stalled differently");
            assert!(e.next_event().is_some(), "cycle {now}'s tick was not quiet");
            continue;
        }
        retired.extend(out.retired);
        let Some(next) = e.next_event() else {
            continue;
        };
        assert!(next > now, "cycle {now} named the past ({next})");
        // The feeder is an event source of its own, like a front end: a
        // group that has arrived waits only for ROB room, which only a
        // retirement makes.
        let mut end = next;
        if gi < groups.len() {
            let arrival = gi as u64 * ARRIVAL_GAP;
            if arrival > now {
                end = end.min(arrival);
            } else if e.can_accept(groups[gi].len()) {
                end = now + 1;
            }
        }
        if end > now + 1 {
            if skip {
                let land = end.min(100_000) - 1;
                covered += land - now;
                e.skip_quiet(land - now);
                now = land;
            } else {
                span = Some((end, stalled, observable(&e, &rec)));
            }
        }
    }
    let counters = format!("{:?} {:?}", e.stats(), e.metrics());
    (retired, counters, covered, now)
}

#[test]
fn ticks_before_a_named_next_event_are_quiet() {
    let (ticked, ticked_counters, covered, cycles) = run_checking_spans(false);
    assert_eq!(ticked.len(), 48 / 4 * (4 + 5 + 6 + 2));
    assert!(
        !ticked_counters.contains("rs_full_stalls: 0,"),
        "dispatch never stalled on a full station: {ticked_counters}"
    );
    assert!(
        covered * 4 > cycles,
        "named spans covered only {covered} of {cycles} cycles: the contract went unexercised"
    );
    // Skipping the named spans instead of ticking them retires the same
    // instructions on the same cycles and ends with the same counters.
    let (skipped, skipped_counters, skipped_covered, skipped_cycles) = run_checking_spans(true);
    assert_eq!((skipped_covered, skipped_cycles), (covered, cycles));
    assert_eq!(format!("{skipped:?}"), format!("{ticked:?}"));
    assert_eq!(skipped_counters, ticked_counters);
}

/// Two `op` memory operations, the older on cluster 1 and the younger on
/// cluster 0: both dispatch and become ready together, and dispatch and
/// select visit cluster 0 first, so the younger one claims its memory
/// structure ahead of the older.
fn older_on_cluster_1(op: Opcode) -> [FetchedInst; 2] {
    let dest = op.is_load().then_some(Reg::R3);
    let inst = Instruction::new(op, dest, Some(Reg::R1), Some(Reg::R2), 0);
    let mut older = fetched(0, inst, 4);
    older.mem_addr = Some(0x1000);
    let mut younger = fetched(1, inst, 0);
    younger.mem_addr = Some(0x2000);
    [older, younger]
}

#[test]
fn a_full_store_buffer_admits_the_oldest_store() {
    // The younger store takes the only store-buffer entry; it can
    // neither retire nor drain before the older one, which finds the
    // buffer full.
    let mut cfg = EngineConfig::default();
    cfg.memory.store_buffer_entries = 1;
    let mut e = Engine::new(cfg, SteeringMode::Slot);
    e.accept(&older_on_cluster_1(Opcode::St), 0);
    let (retired, _) = drain(&mut e, 1);
    assert_eq!(e.in_flight(), 0, "wedged on the full store buffer");
    assert_eq!(retired.iter().map(|r| r.seq).collect::<Vec<_>>(), [0, 1]);
}

#[test]
fn a_full_load_queue_admits_the_oldest_load() {
    // The younger load takes the only load-queue entry at dispatch and
    // holds it until it retires, which it cannot do before the older
    // load, which finds the queue full.
    let mut cfg = EngineConfig::default();
    cfg.memory.load_queue_entries = 1;
    let mut e = Engine::new(cfg, SteeringMode::Slot);
    e.accept(&older_on_cluster_1(Opcode::Ld), 0);
    let (retired, _) = drain(&mut e, 1);
    assert_eq!(e.in_flight(), 0, "wedged on the full load queue");
    assert_eq!(retired.iter().map(|r| r.seq).collect::<Vec<_>>(), [0, 1]);
}
