//! Steady-state allocation audit for the event-driven scheduler: after
//! a warmup period (which grows every scratch buffer, queue, and pool
//! to its high-water mark), `tick_into` — dispatch, complete, select,
//! retire — must perform zero heap allocations per cycle, including
//! while loads are parked behind unresolved store addresses.

use ctcp_core::{Engine, EngineConfig, FetchedInst, SteeringMode, TickResult};
use ctcp_isa::{Instruction, Opcode, Reg};
use ctcp_tracecache::ProfileFields;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations (and reallocations) made by this thread. Per-thread,
    /// so tests running in parallel do not count each other's work.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// This thread's allocation count so far.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Counts every allocation (and reallocation) passing through the
/// global allocator; frees are not interesting here.
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

fn group_of_16(base_seq: u64, group: u64) -> [FetchedInst; 16] {
    std::array::from_fn(|i| {
        let seq = base_seq + i as u64;
        // Dense read-after-write traffic: each dest register is consumed
        // by the next couple of instructions, so producer wakeup lists
        // (and the ready queues they feed) are exercised every cycle.
        let inst = Instruction::new(
            Opcode::Add,
            Some(Reg::int((i % 8) as u8)),
            Some(Reg::int(((i + 1) % 8) as u8)),
            Some(Reg::int(((i + 3) % 8) as u8)),
            0,
        );
        FetchedInst {
            seq,
            pc: 0x1000 + seq * 4,
            index: seq as u32,
            inst,
            mem_addr: None,
            taken: None,
            slot: i as u8,
            group,
            from_tc: false,
            tc_loc: None,
            profile: ProfileFields::default(),
            mispredicted: false,
        }
    })
}

/// One iteration of a loop body: a divide produces a store's address;
/// ten younger loads to other words, with their own operands ready,
/// park behind that store until the divide finishes. Stores and loads
/// cycle through 64 words.
fn parked_loads_group(base_seq: u64, group: u64) -> [FetchedInst; 12] {
    std::array::from_fn(|i| {
        let seq = base_seq + i as u64;
        let word = |k: u64| 0x8000 + ((group * 12 + k) % 64) * 8;
        let (inst, mem_addr) = match i {
            0 => (
                Instruction::new(Opcode::Div, Some(Reg::R1), Some(Reg::R2), Some(Reg::R3), 0),
                None,
            ),
            1 => (
                Instruction::new(Opcode::St, None, Some(Reg::R1), Some(Reg::R4), 0),
                Some(word(0)),
            ),
            _ => (
                Instruction::new(
                    Opcode::Ld,
                    Some(Reg::int(5 + (i % 3) as u8)),
                    Some(Reg::R9),
                    None,
                    0,
                ),
                Some(word(i as u64)),
            ),
        };
        FetchedInst {
            seq,
            pc: 0x1000 + i as u64 * 4,
            index: i as u32,
            inst,
            mem_addr,
            taken: None,
            slot: i as u8,
            group,
            from_tc: false,
            tc_loc: None,
            profile: ProfileFields::default(),
            mispredicted: false,
        }
    })
}

#[test]
fn parked_loads_do_not_allocate() {
    let mut engine = Engine::new(EngineConfig::default(), SteeringMode::Slot);
    let mut out = TickResult::default();
    let (mut seq, mut group_id) = (0u64, 0u64);
    let mut run = |engine: &mut Engine, cycles: u64, start: u64| -> u64 {
        let mut tick_allocs = 0u64;
        for now in start..start + cycles {
            if engine.can_accept(12) {
                engine.accept(&parked_loads_group(seq, group_id), now);
                seq += 12;
                group_id += 1;
            }
            let before = allocs();
            engine.tick_into(now, &mut out);
            tick_allocs += allocs() - before;
        }
        tick_allocs
    };
    run(&mut engine, 5_000, 0);
    let loads = engine.stats().loads;
    let measured = run(&mut engine, 5_000, 5_000);
    assert!(
        engine.stats().loads - loads > 1_000,
        "loads must keep flowing through the parked list ({} executed)",
        engine.stats().loads - loads
    );
    assert_eq!(
        measured, 0,
        "parking and refiling loads allocated {measured} times over 5000 steady-state cycles"
    );
}

#[test]
fn steady_state_tick_does_not_allocate() {
    let mut engine = Engine::new(EngineConfig::default(), SteeringMode::Slot);
    let mut out = TickResult::default();
    let mut seq = 0u64;
    let mut group_id = 0u64;

    let mut run = |engine: &mut Engine, cycles: u64, start: u64| -> u64 {
        let mut tick_allocs = 0u64;
        for now in start..start + cycles {
            if engine.can_accept(16) {
                engine.accept(&group_of_16(seq, group_id), now);
                seq += 16;
                group_id += 1;
            }
            let before = allocs();
            engine.tick_into(now, &mut out);
            tick_allocs += allocs() - before;
        }
        tick_allocs
    };

    // Warmup: grow every queue, wheel slot, scratch buffer, and the
    // consumer-list pool to steady-state capacity.
    run(&mut engine, 3_000, 0);
    let measured = run(&mut engine, 2_000, 3_000);
    assert!(
        engine.stats().retired > 4_000,
        "pipeline must actually be busy (retired {})",
        engine.stats().retired
    );
    assert_eq!(
        measured, 0,
        "tick/complete/select/retire allocated {measured} times over 2000 steady-state cycles"
    );
}
