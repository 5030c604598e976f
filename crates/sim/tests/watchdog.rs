//! Crash-injection tests for the retire-progress watchdog.
//!
//! The `stall-retire` fail point (see `ctcp_telemetry::failpoint`)
//! swallows every retirement inside the cycle loop, wedging the
//! simulation exactly the way a steering or scheduling bug would.
//! These tests prove the watchdog converts that hang into a typed
//! [`SimError::Livelock`] carrying a useful diagnostic — instead of
//! spinning until the generic cycle cap.
//!
//! Fail-point state is process-global and `Simulation` samples it at
//! construction, so every test here — including the no-fault control —
//! serialises on one mutex to keep an armed point from leaking into a
//! neighbour's build.

use ctcp_isa::{Program, ProgramBuilder, Reg};
use ctcp_sim::{SimBuilder, SimError, Simulation};
use ctcp_telemetry::{failpoint, Counter, Recorder, RecorderConfig};
use std::rc::Rc;
use std::sync::{Mutex, MutexGuard};

static LOCK: Mutex<()> = Mutex::new(());

/// Serialises the test and guarantees the fail point is disarmed on
/// entry and on exit (even when the test panics).
fn exclusive() -> (MutexGuard<'static, ()>, impl Drop) {
    struct Disarm;
    impl Drop for Disarm {
        fn drop(&mut self) {
            failpoint::set(None);
        }
    }
    let guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    failpoint::set(None);
    (guard, Disarm)
}

fn loop_program(iters: i64) -> Program {
    let mut b = ProgramBuilder::new();
    b.movi(Reg::R1, 0);
    b.movi(Reg::R2, iters);
    let top = b.here();
    b.addi(Reg::R3, Reg::R1, 5);
    b.add(Reg::R4, Reg::R3, Reg::R3);
    b.addi(Reg::R1, Reg::R1, 1);
    b.blt(Reg::R1, Reg::R2, top);
    b.halt();
    b.build()
}

/// Pointer chasing: each load's address depends on the value the
/// previous one returned (memory reads as zero, so the chain strides to
/// a new line and page every iteration), so every iteration waits out
/// a cold miss and retirement stalls for most of its cycles.
fn memory_bound_program() -> Program {
    let mut b = ProgramBuilder::new();
    b.movi(Reg::R1, 0x10_0000);
    b.movi(Reg::R2, 0);
    b.movi(Reg::R5, 1_000_000);
    let top = b.here();
    b.ld(Reg::R3, Reg::R1, 0);
    b.add(Reg::R1, Reg::R1, Reg::R3);
    b.addi(Reg::R1, Reg::R1, 4160);
    b.addi(Reg::R2, Reg::R2, 1);
    b.blt(Reg::R2, Reg::R5, top);
    b.halt();
    b.build()
}

#[test]
fn a_memory_stall_trips_the_watchdog_on_the_same_cycle_skipping_or_ticking() {
    let _x = exclusive();
    let p = memory_bound_program();
    // Shorter than one iteration's miss: the watchdog trips in the
    // middle of a stall, which a bare run skips as quiet instead of
    // ticking through it like a run with a recorder attached.
    for limit in [60, 90] {
        let trip = |sim: SimBuilder<'_>| {
            let err = sim
                .max_insts(100_000)
                .watchdog_stall_limit(limit)
                .build()
                .unwrap()
                .try_run()
                .expect_err("a cold miss outlasts the stall limit");
            match err {
                SimError::Livelock {
                    stalled_for,
                    diagnostic,
                } => (stalled_for, diagnostic),
                other => panic!("expected Livelock, got {other:?}"),
            }
        };
        let recorder = Rc::new(Recorder::new(RecorderConfig::metrics_only()));
        let (ticked_stalled, ticked) = trip(Simulation::builder(&p).recorder(recorder));
        let (skipped_stalled, skipped) = trip(Simulation::builder(&p));
        assert_eq!(skipped_stalled, ticked_stalled, "limit {limit}");
        // The same cycle, ROB head and occupancy.
        assert_eq!(skipped, ticked, "limit {limit}");
        assert!(
            ticked.retired > 0,
            "limit {limit}: tripped before any progress"
        );
        assert!(
            ticked
                .head_stage
                .as_deref()
                .is_some_and(|s| s.starts_with("Executing")),
            "limit {limit}: the head should be waiting on its miss"
        );
    }
}

#[test]
fn stalled_retire_returns_livelock_with_diagnostic() {
    let _x = exclusive();
    failpoint::set(Some("stall-retire"));
    let p = loop_program(1_000_000);
    let err = Simulation::builder(&p)
        .max_insts(10_000)
        .watchdog_stall_limit(2_000)
        .build()
        .unwrap()
        .try_run()
        .expect_err("a stalled pipeline must trip the watchdog");
    let rendered = err.to_string();
    let SimError::Livelock {
        stalled_for,
        diagnostic,
    } = err
    else {
        panic!("expected Livelock, got {err:?}");
    };
    assert!(stalled_for >= 2_000, "stalled_for={stalled_for}");
    // The diagnostic names the cycle, the head-of-ROB instruction the
    // machine is stuck behind, and per-cluster occupancy.
    assert_eq!(diagnostic.cycle, stalled_for, "no retirement ever happened");
    assert!(rendered.contains("livelock"), "{rendered}");
    assert!(
        rendered.contains(&format!("cycle {}", diagnostic.cycle)),
        "{rendered}"
    );
    assert!(rendered.contains("rob head seq"), "{rendered}");
    assert!(
        rendered.contains("occupancy (dispatch+rs) c0:"),
        "{rendered}"
    );
}

#[test]
fn watchdog_trip_bumps_the_telemetry_counter() {
    let _x = exclusive();
    failpoint::set(Some("stall-retire"));
    let p = loop_program(1_000_000);
    let rec = Rc::new(Recorder::new(RecorderConfig::metrics_only()));
    let err = Simulation::builder(&p)
        .max_insts(10_000)
        .watchdog_stall_limit(1_000)
        .recorder(Rc::clone(&rec))
        .build()
        .unwrap()
        .try_run();
    assert!(matches!(err, Err(SimError::Livelock { .. })), "{err:?}");
    assert_eq!(rec.metrics().get(Counter::WatchdogTrips), 1);
}

#[test]
fn run_wrapper_panics_with_the_rendered_error() {
    let _x = exclusive();
    failpoint::set(Some("stall-retire"));
    let p = loop_program(1_000_000);
    let sim = Simulation::builder(&p)
        .max_insts(10_000)
        .watchdog_stall_limit(500)
        .build()
        .unwrap();
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {})); // silence expected panic
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.run()));
    std::panic::set_hook(hook);
    let payload = result.expect_err("run() must panic on a watchdog trip");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .expect("panic message is a String");
    assert!(msg.starts_with("simulation aborted: livelock"), "{msg}");
}

#[test]
fn healthy_run_never_trips_a_tight_watchdog() {
    let _x = exclusive();
    // A 300-cycle stall limit is far below the default yet far above
    // any legitimate retire gap in this tiny loop: a false-positive
    // watchdog would fail here.
    let p = loop_program(2_000);
    let report = Simulation::builder(&p)
        .max_insts(8_000)
        .watchdog_stall_limit(300)
        .build()
        .unwrap()
        .try_run()
        .expect("healthy run must not trip the watchdog");
    assert_eq!(report.instructions, 8_000);
}

#[test]
fn zero_stall_limit_disables_the_watchdog() {
    let _x = exclusive();
    failpoint::set(Some("stall-retire"));
    // With the watchdog off, the only guard left is the cycle budget —
    // the stalled run must end in CycleBudget, not Livelock.
    let p = loop_program(1_000_000);
    let err = Simulation::builder(&p)
        .max_insts(10_000)
        .watchdog_stall_limit(0)
        .cycle_budget(3_000)
        .build()
        .unwrap()
        .try_run()
        .expect_err("stalled run with a finite budget must abort");
    assert!(
        matches!(err, SimError::CycleBudget { budget: 3_000, .. }),
        "{err:?}"
    );
}
