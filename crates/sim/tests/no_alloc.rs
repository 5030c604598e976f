//! Whole-simulation allocation audit: once every queue, pool and
//! scratch buffer has grown to its high-water mark, `Simulation::step`
//! — fetch, deliver, execute, retire, fill, place, install — performs
//! no heap allocation at all, and cycle attribution's heap does not
//! grow with the run: the streaming critical-path walker holds only
//! the links a later walk can still need, in storage a `BatchRunner`
//! recycles.
//!
//! Each check runs the same program for two run lengths and compares
//! what the current thread allocated from `build` to the report. The
//! simulation is deterministic, so the shorter run is an exact prefix
//! of the longer one: construction, warm-up growth and the report cost
//! the same in both, and the difference is what the extra retired
//! instructions cost.

use ctcp_isa::{Program, ProgramBuilder, Reg};
use ctcp_sim::{BatchRunner, SimConfig, Simulation, Strategy};
use ctcp_telemetry::DEFAULT_TOP_EDGES;
use ctcp_workload::Benchmark;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations (and reallocations) made by this thread. Per-thread,
    /// so tests running in parallel do not count each other's work.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread has allocated, reallocations counting their
    /// growth.
    static ALLOCATED: Cell<u64> = const { Cell::new(0) };
    /// Heap bytes this thread holds live (its allocations minus its
    /// frees), and the highest that has reached since the last reset.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

struct CountingAlloc;

/// Books one allocation or reallocation that changed this thread's
/// live heap by `delta` bytes.
fn count(delta: i64) {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = ALLOCATED.try_with(|c| c.set(c.get() + delta.max(0) as u64));
    grow(delta);
}

fn grow(delta: i64) {
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + delta);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

// SAFETY: delegates verbatim to `System`; the counters have no effect
// on the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        grow(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const STRATEGIES: [Strategy; 8] = [
    Strategy::Baseline,
    Strategy::IssueTime { latency: 0 },
    Strategy::IssueTime { latency: 4 },
    Strategy::Friendly { middle_bias: false },
    Strategy::Friendly { middle_bias: true },
    Strategy::Fdrt { pinning: true },
    Strategy::Fdrt { pinning: false },
    Strategy::FdrtIntraOnly,
];

/// Allocations made building, running and reporting one simulation.
fn allocs(program: &Program, cfg: SimConfig) -> (u64, u64) {
    let before = ALLOCS.with(Cell::get);
    let report = Simulation::builder(program)
        .config(cfg)
        .build()
        .expect("valid config")
        .run();
    let n = ALLOCS.with(Cell::get) - before;
    (n, report.instructions)
}

/// Extra allocations of the longer run over the shorter one, and the
/// extra instructions it retired.
fn extra(program: &Program, mut cfg: SimConfig, short: u64, long: u64) -> (u64, u64) {
    cfg.max_insts = short;
    let (a_short, i_short) = allocs(program, cfg);
    cfg.max_insts = long;
    let (a_long, i_long) = allocs(program, cfg);
    assert_eq!(i_short, short, "short run must reach its budget");
    assert_eq!(i_long, long, "long run must reach its budget");
    (a_long.saturating_sub(a_short), i_long - i_short)
}

/// A loop that touches every part of the machine: loads and stores to a
/// small array (store-to-load forwarding, the store buffer drain, the
/// load queue), a call and return (the return-address stack), an
/// integer divide (long completion latency) and a loop-back branch.
fn loop_program() -> Program {
    let mut b = ProgramBuilder::new();
    b.movi(Reg::R1, 0);
    b.movi(Reg::R2, 10_000_000);
    b.movi(Reg::R6, 0x10_000);
    b.movi(Reg::R9, 3);
    let func = b.label();
    let top = b.here();
    b.andi(Reg::R7, Reg::R1, 63);
    b.slli(Reg::R7, Reg::R7, 3);
    b.add(Reg::R8, Reg::R6, Reg::R7);
    b.ld(Reg::R3, Reg::R8, 0);
    b.addi(Reg::R3, Reg::R3, 1);
    b.st(Reg::R3, Reg::R8, 0);
    b.call(func);
    b.addi(Reg::R1, Reg::R1, 1);
    b.blt(Reg::R1, Reg::R2, top);
    b.halt();
    b.bind(func);
    b.add(Reg::R4, Reg::R3, Reg::R3);
    b.div(Reg::R5, Reg::R4, Reg::R9);
    b.xor(Reg::R4, Reg::R5, Reg::R1);
    b.ret();
    b.build()
}

#[test]
fn steady_state_loop_does_not_allocate() {
    let program = loop_program();
    for clusters in [2u8, 4] {
        for strategy in STRATEGIES {
            let mut cfg = SimConfig {
                strategy,
                ..SimConfig::default()
            };
            cfg.engine.geometry.clusters = clusters;
            let (allocs, insts) = extra(&program, cfg, 20_000, 40_000);
            assert_eq!(
                allocs,
                0,
                "{clusters} clusters, {}: {allocs} allocations over {insts} \
                 steady-state instructions",
                strategy.name()
            );
        }
    }
}

#[test]
fn benchmarks_allocate_almost_nothing_per_instruction() {
    for bench in ["gzip", "twolf"] {
        let program = Benchmark::by_name(bench)
            .expect("suite benchmark")
            .program();
        for strategy in [Strategy::Baseline, Strategy::Fdrt { pinning: true }] {
            let cfg = SimConfig {
                strategy,
                ..SimConfig::default()
            };
            let (allocs, insts) = extra(&program, cfg, 100_000, 300_000);
            let per_inst = allocs as f64 / insts as f64;
            assert!(
                per_inst < 0.01,
                "{bench}/{}: {allocs} allocations over {insts} extra instructions \
                 ({per_inst:.4} per instruction)",
                strategy.name()
            );
        }
    }
}

/// Peak live heap, above what was live when it began, of building,
/// running and reporting one simulation, with attribution on or off.
fn peak_bytes(program: &Program, cfg: SimConfig, attrib: bool) -> i64 {
    let base = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(base));
    let mut builder = Simulation::builder(program).config(cfg);
    if attrib {
        builder = builder.attrib(DEFAULT_TOP_EDGES);
    }
    let report = builder.build().expect("valid config").run();
    assert_eq!(report.attrib.is_some(), attrib);
    assert_eq!(
        report.instructions, cfg.max_insts,
        "run must reach its budget"
    );
    PEAK.with(Cell::get) - base
}

/// The two run lengths the attribution checks compare.
const SHORT: u64 = 100_000;
const LONG: u64 = 300_000;

#[test]
fn attribution_heap_does_not_grow_with_run_length() {
    for bench in ["gzip", "twolf"] {
        let program = Benchmark::by_name(bench)
            .expect("suite benchmark")
            .program();
        for strategy in [Strategy::Baseline, Strategy::Fdrt { pinning: true }] {
            let peaks = |max_insts: u64| {
                let cfg = SimConfig {
                    strategy,
                    max_insts,
                    ..SimConfig::default()
                };
                (
                    peak_bytes(&program, cfg, true),
                    peak_bytes(&program, cfg, false),
                )
            };
            let (on_short, off_short) = peaks(SHORT);
            let (on_long, off_long) = peaks(LONG);
            // What attribution adds on top of the bare run, and how much
            // more of it the longer run needs: a whole-run link buffer
            // would need 16 bytes per instruction.
            let added = (on_long - off_long) - (on_short - off_short);
            let per_inst = added as f64 / (LONG - SHORT) as f64;
            assert!(
                per_inst <= 0.25,
                "{bench}/{}: attribution adds {added} heap bytes over {} extra \
                 instructions ({per_inst:.3} per instruction)",
                strategy.name(),
                LONG - SHORT
            );
        }
    }
}

#[test]
fn a_recycled_runner_attributes_without_growing_allocations() {
    // A runner whose arena already holds a long cell's link buffer
    // runs a second attribution cell: what that cell allocates must
    // not grow with its length.
    for bench in ["gzip", "twolf"] {
        let program = Benchmark::by_name(bench)
            .expect("suite benchmark")
            .program();
        let second_cell = |max_insts: u64| {
            let cell = |max_insts: u64| {
                Simulation::builder(&program)
                    .strategy(Strategy::Fdrt { pinning: true })
                    .max_insts(max_insts)
                    .attrib(DEFAULT_TOP_EDGES)
            };
            let mut runner = BatchRunner::new();
            runner.try_run(cell(LONG)).expect("first cell runs");
            let (allocs, bytes) = (ALLOCS.with(Cell::get), ALLOCATED.with(Cell::get));
            let report = runner.try_run(cell(max_insts)).expect("second cell runs");
            assert!(report.attrib.is_some());
            (
                ALLOCS.with(Cell::get) - allocs,
                ALLOCATED.with(Cell::get) - bytes,
            )
        };
        let (allocs_short, bytes_short) = second_cell(SHORT);
        let (allocs_long, bytes_long) = second_cell(LONG);
        let extra = bytes_long.saturating_sub(bytes_short);
        let per_inst = extra as f64 / (LONG - SHORT) as f64;
        assert!(
            per_inst < 0.5,
            "{bench}: the second cell allocates {bytes_short} B in {allocs_short} \
             allocations at {SHORT} instructions and {bytes_long} B in {allocs_long} \
             at {LONG} ({per_inst:.3} B per extra instruction)"
        );
    }
}
