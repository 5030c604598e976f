//! The record-free warmup fast path against the iterator it replaces.
//!
//! `Executor::fast_forward(n)` must leave an executor exactly where `n`
//! calls to `next()` leave it: same count, same architectural state
//! (pc, sequence number, every register, memory, `halted`, `error`) and
//! the same records from then on. Checked for every preset at depths up
//! to the 2M-instruction warmup the sweeps use, and for programs that
//! halt or run off their text before `n`.

use ctcp::isa::{DynInst, ExecError, Executor, Program, ProgramBuilder, Reg};
use ctcp::workload::Benchmark;

const DEPTHS: [u64; 5] = [0, 1, 4_095, 200_000, 2_000_000];
const FOLLOW: usize = 10_000;

/// The whole executor state, pc, sequence number and memory included.
/// `Debug` is the only view of all of it; both sides execute the same
/// stores in the same order, so their memory maps print in one order.
fn state(ex: &Executor<'_>) -> String {
    format!("{ex:?}")
}

/// Checks `fast_forward(n)` from a fresh executor against `slow`, an
/// executor that made `counted` successful `next()` calls towards `n`.
fn check(program: &Program, name: &str, n: u64, counted: u64, slow: &Executor<'_>) {
    let mut fast = Executor::new(program);
    assert_eq!(fast.fast_forward(n), counted, "{name}: count at n = {n}");
    assert_eq!(fast.halted(), slow.halted(), "{name}: halted at n = {n}");
    assert_eq!(fast.error(), slow.error(), "{name}: error at n = {n}");
    assert!(
        state(&fast) == state(slow),
        "{name}: architectural state differs at n = {n}"
    );
    let fast_next: Vec<DynInst> = fast.by_ref().take(FOLLOW).collect();
    let mut slow = slow.clone();
    let slow_next: Vec<DynInst> = slow.by_ref().take(FOLLOW).collect();
    assert!(
        fast_next == slow_next,
        "{name}: the records after n = {n} differ"
    );
    assert!(
        state(&fast) == state(&slow),
        "{name}: state differs {FOLLOW} records after n = {n}"
    );
}

/// Steps `slow` with `next()` through every depth, comparing a fresh
/// fast-forward at each.
fn check_depths(program: &Program, name: &str, depths: &[u64]) {
    let mut slow = Executor::new(program);
    let mut counted = 0;
    let mut reached = 0;
    for &n in depths {
        while reached < n {
            reached += 1;
            if slow.next().is_some() {
                counted += 1;
            }
        }
        check(program, name, n, counted, &slow);
    }
}

#[test]
fn fast_forward_matches_next_on_every_preset() {
    let presets: Vec<Benchmark> = Benchmark::spec_all()
        .into_iter()
        .chain(Benchmark::mediabench())
        .collect();
    // Two halves on two threads: the debug build runs about 4M
    // instructions per preset.
    let (a, b) = presets.split_at(presets.len() / 2);
    std::thread::scope(|s| {
        for half in [a, b] {
            s.spawn(move || {
                for bench in half {
                    check_depths(&bench.program(), bench.name, &DEPTHS);
                }
            });
        }
    });
}

#[test]
fn fast_forward_stops_at_a_halt() {
    let mut b = ProgramBuilder::new();
    b.movi(Reg::R1, 0);
    b.movi(Reg::R2, 5);
    let top = b.here();
    b.addi(Reg::R1, Reg::R1, 1);
    b.blt(Reg::R1, Reg::R2, top);
    b.halt();
    let p = b.build();
    // 2 set-up + 5 * (add + blt) + halt = 13, and the halt counts.
    check_depths(&p, "halting loop", &[0, 12, 13, 14, 100]);
    let mut ex = Executor::new(&p);
    assert_eq!(ex.fast_forward(100), 13);
    assert!(ex.halted());
    assert_eq!(ex.reg(Reg::R1), 5);
    assert_eq!(ex.fast_forward(1), 0);
    assert!(ex.next().is_none());
}

#[test]
fn fast_forward_stops_where_the_text_ends() {
    let mut b = ProgramBuilder::new();
    b.movi(Reg::R1, 7);
    b.movi(Reg::R2, 9); // no halt: the pc runs off the text
    let p = b.build();
    check_depths(&p, "runs off the text", &[0, 1, 2, 3, 10]);
    let mut ex = Executor::new(&p);
    assert_eq!(ex.fast_forward(10), 2);
    assert!(!ex.halted());
    assert_eq!(
        ex.error(),
        Some(ExecError::PcOutOfRange {
            pc: Program::pc_of(2)
        })
    );
    assert_eq!(ex.reg(Reg::R2), 9);
}
