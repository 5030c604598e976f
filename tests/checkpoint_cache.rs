//! One warmup checkpoint per `(program, warmup)` per pool, through the
//! public harness API.
//!
//! Requests feeding one shared [`CellScheduler`] interleave cell by
//! cell, and each builds its programs afresh. The pool's checkpoint
//! cache must still fast-forward each `(program, warmup)` once, and
//! every report must be byte-identical to building the simulation
//! directly, including for a program that halts inside its warmup.

use ctcp::core::Topology;
use ctcp::harness::{CellScheduler, Harness, Job, SweepSpec};
use ctcp::isa::{Program, ProgramBuilder, Reg};
use ctcp::sim::{Simulation, Strategy};
use ctcp::workload::Benchmark;
use std::sync::Arc;

/// A request's grid over `program`: two strategies on two machines,
/// each timing `insts` instructions after `warmup`.
fn request(name: &str, program: &Arc<Program>, warmup: u64, insts: u64) -> Vec<Job> {
    let spec = SweepSpec {
        insts,
        warmup,
        ..SweepSpec::default()
    };
    let mut jobs = Vec::new();
    for strategy in [
        Strategy::Friendly { middle_bias: false },
        Strategy::Fdrt { pinning: true },
    ] {
        for clusters in [2, 4] {
            let config = spec.cell_config(strategy, clusters, Topology::Ring);
            jobs.push(Job::new(name, Arc::clone(program), config));
        }
    }
    jobs
}

/// Runs every request at once on `sched`, one harness per request as
/// the sweep service does, and checks each report against a direct
/// build of its cell.
fn run_concurrently(sched: &CellScheduler, requests: &[Vec<Job>]) {
    std::thread::scope(|s| {
        for jobs in requests {
            let sched = sched.clone();
            s.spawn(move || {
                let mut harness = Harness::new().progress(false).with_scheduler(sched);
                let outcomes = harness.try_run(jobs);
                for (job, outcome) in jobs.iter().zip(&outcomes) {
                    let report = outcome.report().expect("every cell runs");
                    let direct = Simulation::builder(&job.program)
                        .config(job.config)
                        .build()
                        .unwrap()
                        .run();
                    assert_eq!(
                        report.to_json(),
                        direct.to_json(),
                        "{} {} after {}",
                        job.workload,
                        job.config.strategy.name(),
                        job.config.warmup_insts
                    );
                }
            });
        }
    });
}

#[test]
fn interleaved_requests_capture_each_program_once() {
    let program = |name: &str| Arc::new(Benchmark::by_name(name).unwrap().program());
    let gzip = program("gzip");
    let twolf = program("twolf");
    // A later request builds its own copy, as the daemon does.
    let gzip_again = program("gzip");
    assert!(!Arc::ptr_eq(&gzip, &gzip_again));
    let requests = [
        request("gzip", &gzip, 200_000, 2_000),
        request("twolf", &twolf, 200_000, 2_000),
        request("gzip", &gzip_again, 200_000, 3_000),
    ];
    let sched = CellScheduler::start(1, 0);
    run_concurrently(&sched, &requests);
    let stats = sched.stats();
    sched.shutdown();
    let cells: u64 = requests.iter().map(|r| r.len() as u64).sum();
    assert_eq!(stats.checkpoint_captures, 2, "one per (program, warmup)");
    assert_eq!(stats.checkpoint_hits, cells - 2);
    assert!(stats.checkpoint_bytes > 0);
}

#[test]
fn a_program_that_halts_inside_its_warmup_resumes_like_a_direct_run() {
    // About 600 instructions, then a halt.
    let mut b = ProgramBuilder::new();
    b.movi(Reg::R1, 0);
    b.movi(Reg::R2, 200);
    let top = b.here();
    b.addi(Reg::R3, Reg::R1, 7);
    b.addi(Reg::R1, Reg::R1, 1);
    b.blt(Reg::R1, Reg::R2, top);
    b.halt();
    let program = Arc::new(b.build());
    // A warmup the program outlives, and one it ends inside.
    let requests = [
        request("counted", &program, 300, 2_000),
        request("counted", &program, 10_000, 2_000),
    ];
    let sched = CellScheduler::start(1, 0);
    run_concurrently(&sched, &requests);
    let stats = sched.stats();
    sched.shutdown();
    assert_eq!(stats.checkpoint_captures, 2);
}
