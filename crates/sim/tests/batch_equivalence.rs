//! Batched-execution oracle: a `BatchRunner` that recycles arena
//! storage across cells, resuming warmed cells from checkpoints a
//! `CheckpointCache` shares, must be observably identical to building
//! and running every cell on its own.
//! For every steering strategy — with and without a warmup budget — the
//! serialized `SimReport` has to match byte for byte, so the result
//! store, repro experiments, and rendered tables cannot tell how a cell
//! was executed. The warmup split itself is also pinned down: resuming
//! from a captured checkpoint equals fast-forwarding fresh, and the
//! report covers only the timed phase.

use ctcp_isa::{Program, ProgramBuilder, Reg};
use ctcp_sim::{
    BatchRunner, Checkpoint, CheckpointCache, SimConfig, Simulation, Strategy, Topology,
};
use ctcp_workload::Benchmark;
use std::sync::Arc;

const ALL_STRATEGIES: [Strategy; 7] = [
    Strategy::Baseline,
    Strategy::IssueTime { latency: 0 },
    Strategy::IssueTime { latency: 4 },
    Strategy::Friendly { middle_bias: false },
    Strategy::Fdrt { pinning: true },
    Strategy::Fdrt { pinning: false },
    Strategy::FdrtIntraOnly,
];

fn cell(strategy: Strategy, insts: u64, warmup: u64) -> SimConfig {
    SimConfig {
        strategy,
        max_insts: insts,
        warmup_insts: warmup,
        ..SimConfig::default()
    }
}

#[test]
fn batched_reports_match_one_at_a_time_byte_for_byte() {
    // One runner and one cache across both programs, as a pool worker
    // has them.
    let mut runner = BatchRunner::new();
    let checkpoints = CheckpointCache::new();
    for bench in ["gzip", "twolf"] {
        let program = Arc::new(Benchmark::by_name(bench).unwrap().program());
        // Cold cells for every strategy, then warmed-up cells sharing
        // one (program, warmup) pair — so its checkpoint is captured
        // once and reused, and both paths are compared.
        let mut cells: Vec<SimConfig> = ALL_STRATEGIES.iter().map(|&s| cell(s, 8_000, 0)).collect();
        cells.extend(ALL_STRATEGIES.iter().map(|&s| cell(s, 8_000, 2_000)));
        for cfg in cells {
            let mut builder = Simulation::builder(&program).config(cfg);
            if cfg.warmup_insts > 0 {
                builder =
                    builder.resume_from(&checkpoints.get_or_capture(&program, cfg.warmup_insts));
            }
            let batched = runner.try_run(builder).unwrap();
            let direct = Simulation::builder(&program)
                .config(cfg)
                .build()
                .unwrap()
                .run();
            assert_eq!(
                batched.to_json(),
                direct.to_json(),
                "{bench}/{} (warmup {}): batched report diverged",
                cfg.strategy.name(),
                cfg.warmup_insts
            );
        }
    }
    assert_eq!(checkpoints.captures(), 2, "one capture per program");
}

#[test]
fn checkpoint_resume_is_deterministic_and_matches_self_forwarding() {
    let program = Arc::new(Benchmark::by_name("gzip").unwrap().program());
    let warmup = 3_000;
    let ck = Checkpoint::capture(&program, warmup);
    assert_eq!(ck.warmup_instructions(), warmup);
    assert_eq!(
        ck.instructions_skipped(),
        warmup,
        "gzip outlives the warmup"
    );
    let resumed = |ck: &Checkpoint| {
        Simulation::builder(&program)
            .strategy(Strategy::Fdrt { pinning: true })
            .max_insts(6_000)
            .resume_from(ck)
            .build()
            .unwrap()
            .run()
            .to_json()
    };
    // One capture serves any number of timed runs, identically.
    let first = resumed(&ck);
    assert_eq!(first, resumed(&ck), "resuming twice diverged");
    // And a resume equals a simulation that fast-forwards on its own.
    let self_forwarded = Simulation::builder(&program)
        .strategy(Strategy::Fdrt { pinning: true })
        .warmup_instructions(warmup)
        .max_insts(6_000)
        .build()
        .unwrap()
        .run()
        .to_json();
    assert_eq!(first, self_forwarded, "resume diverged from fresh warmup");
}

#[test]
fn explicit_zero_warmup_is_byte_identical_to_untouched() {
    // Seeded LCG so the sampled configurations are reproducible without
    // hardcoding eight literals.
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut next = |bound: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % bound
    };
    let program = Benchmark::by_name("twolf").unwrap().program();
    for _ in 0..8 {
        let mut cfg = cell(ALL_STRATEGIES[next(7) as usize], 2_000 + next(6_000), 0);
        cfg.engine.geometry.clusters = 1 + next(4) as u8;
        cfg.engine.geometry.topology =
            [Topology::Linear, Topology::Ring, Topology::FullyConnected][next(3) as usize];
        cfg.engine.hop_latency = 1 + next(3);
        let explicit = Simulation::builder(&program)
            .config(cfg)
            .warmup_instructions(0)
            .build()
            .unwrap()
            .run();
        let untouched = Simulation::builder(&program)
            .config(cfg)
            .build()
            .unwrap()
            .run();
        assert_eq!(
            explicit.to_json(),
            untouched.to_json(),
            "{}: warmup 0 is not a no-op",
            cfg.strategy.name()
        );
    }
}

/// A short counted loop with a real end — the synthetic benchmarks
/// never halt (they are always bounded by `max_insts`), so the
/// end-of-program warmup cases need a finite program.
fn counted_loop(iters: i64) -> Arc<Program> {
    let mut b = ProgramBuilder::new();
    b.movi(Reg::R1, 0);
    b.movi(Reg::R2, iters);
    let top = b.here();
    b.addi(Reg::R3, Reg::R1, 7);
    b.addi(Reg::R1, Reg::R1, 1);
    b.blt(Reg::R1, Reg::R2, top);
    b.halt();
    Arc::new(b.build())
}

#[test]
fn report_covers_only_the_timed_phase() {
    // The common case first, on a real workload: the timed budget wins.
    let gzip = Benchmark::by_name("gzip").unwrap().program();
    let warmed = Simulation::builder(&gzip)
        .strategy(Strategy::Baseline)
        .warmup_instructions(4_000)
        .max_insts(2_500)
        .build()
        .unwrap()
        .run();
    assert_eq!(warmed.instructions, 2_500);

    let program = counted_loop(200);
    let run = |warmup: u64, max: u64| {
        Simulation::builder(&program)
            .warmup_instructions(warmup)
            .max_insts(max)
            .build()
            .unwrap()
            .run()
    };
    // Learn the loop's total dynamic length with a functional-only pass
    // (a checkpoint that outruns the program).
    let total = Checkpoint::capture(&program, u64::MAX).instructions_skipped();
    assert!(total > 400, "200 iterations of a 3-inst body");
    // The timed phase is exactly what the warmup leaves behind.
    assert_eq!(run(total - 50, u64::MAX).instructions, 50);
    // Warmup past the end of the program leaves nothing to time.
    assert_eq!(run(total + 1, u64::MAX).instructions, 0);
}
