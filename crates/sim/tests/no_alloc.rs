//! Whole-simulation allocation audit: once every queue, pool and
//! scratch buffer has grown to its high-water mark, `Simulation::step`
//! — fetch, deliver, execute, retire, fill, place, install — performs
//! no heap allocation at all.
//!
//! Each check runs the same program for two run lengths and compares
//! the allocations the current thread made from `build` to the report.
//! The simulation is deterministic, so the shorter run is an exact
//! prefix of the longer one: construction, warm-up growth and the report
//! cost the same in both, and the difference is what the extra retired
//! instructions cost.

use ctcp_isa::{Program, ProgramBuilder, Reg};
use ctcp_sim::{SimConfig, Simulation, Strategy};
use ctcp_workload::Benchmark;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations (and reallocations) made by this thread. Per-thread,
    /// so tests running in parallel do not count each other's work.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

fn count() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: delegates verbatim to `System`; the counter has no effect on
// the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
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
