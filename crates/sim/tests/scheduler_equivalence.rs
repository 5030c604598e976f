//! Differential determinism oracle: the event-driven scheduler must be
//! observably identical to the legacy scan-per-cycle scheduler it
//! replaced. For every steering strategy and benchmark, the serialized
//! `SimReport` — cycle attribution included — has to match byte for
//! byte, and an attached recorder must see identical metrics — proving
//! that cached result-store entries, repro experiments, and telemetry
//! are all unaffected by the scheduling rewrite. (Attribution reads
//! the readiness the event scheduler caches where the scan recomputes
//! it.)
//!
//! A run with a recorder ticks every cycle, so the first test compares
//! two ticking runs. The second runs without one: there the event path
//! skips quiet cycles while the scan oracle still ticks each of them,
//! so it checks that skipping charges every skipped cycle exactly what
//! ticking it would have.

use ctcp_isa::Program;
use ctcp_sim::{Checkpoint, SimBuilder, SimConfig, Simulation, Strategy, Topology};
use ctcp_telemetry::{Recorder, RecorderConfig, DEFAULT_TOP_EDGES};
use ctcp_workload::Benchmark;
use std::rc::Rc;

const ALL_STRATEGIES: [Strategy; 7] = [
    Strategy::Baseline,
    Strategy::IssueTime { latency: 0 },
    Strategy::IssueTime { latency: 4 },
    Strategy::Friendly { middle_bias: false },
    Strategy::Fdrt { pinning: true },
    Strategy::Fdrt { pinning: false },
    Strategy::FdrtIntraOnly,
];

#[test]
fn event_scheduler_matches_legacy_scan_byte_for_byte() {
    for bench in ["gzip", "twolf"] {
        let program = Benchmark::by_name(bench).unwrap().program();
        for strategy in ALL_STRATEGIES {
            let run = |legacy: bool| {
                let recorder: Rc<Recorder> = Rc::new(Recorder::new(RecorderConfig::metrics_only()));
                let report = Simulation::builder(&program)
                    .strategy(strategy)
                    .max_insts(20_000)
                    .legacy_scheduler(legacy)
                    .recorder(Rc::clone(&recorder))
                    .attrib(DEFAULT_TOP_EDGES)
                    .build()
                    .unwrap()
                    .run();
                (report.to_json(), recorder.metrics())
            };
            let (legacy_json, legacy_metrics) = run(true);
            let (event_json, event_metrics) = run(false);
            assert_eq!(
                legacy_json,
                event_json,
                "{bench}/{}: report bytes diverged between schedulers",
                strategy.name()
            );
            assert_eq!(
                legacy_metrics,
                event_metrics,
                "{bench}/{}: recorder metrics diverged between schedulers",
                strategy.name()
            );
            // Histogram-level equality, spelled out per histogram: both
            // schedulers must sample every distribution (rs_occupancy
            // included) at the same per-cycle points, not merely agree
            // on scalar counters.
            for h in ctcp_telemetry::Hist::ALL {
                assert_eq!(
                    legacy_metrics.hist(h),
                    event_metrics.hist(h),
                    "{bench}/{}: histogram {h:?} diverged between schedulers",
                    strategy.name()
                );
            }
        }
    }
}

/// A machine of `clusters` clusters on `topology`, with the front end
/// and window scaled to its width the way sweeps scale them.
fn machine(clusters: u8, topology: Topology, max_insts: u64) -> SimConfig {
    let mut c = SimConfig {
        max_insts,
        ..SimConfig::default()
    };
    c.engine.geometry.clusters = clusters;
    c.engine.geometry.topology = topology;
    let width = c.engine.geometry.total_slots();
    c.engine.rename_width = width;
    c.engine.retire_width = width;
    c.engine.rob_entries = 8 * width;
    c
}

/// The report of `cell` under the scan oracle and under the event
/// scheduler, both with attribution on and no recorder.
fn both_schedulers<'p>(cell: impl Fn() -> SimBuilder<'p>) -> (String, String) {
    let run = |legacy: bool| {
        cell()
            .legacy_scheduler(legacy)
            .attrib(DEFAULT_TOP_EDGES)
            .build()
            .unwrap()
            .run()
            .to_json()
    };
    (run(true), run(false))
}

#[test]
fn skipping_quiet_cycles_matches_ticking_every_cycle() {
    let program = |bench: &str| -> Program { Benchmark::by_name(bench).unwrap().program() };
    let mut cases: Vec<(String, String, String)> = Vec::new();
    // The presets with the most quiet cycles: mcf's working set
    // overflows the L1D, vortex stalls on its misses too.
    for bench in ["mcf", "vortex"] {
        let p = program(bench);
        for strategy in [
            Strategy::Baseline,
            Strategy::IssueTime { latency: 4 },
            Strategy::Fdrt { pinning: true },
        ] {
            let (legacy, event) =
                both_schedulers(|| Simulation::builder(&p).strategy(strategy).max_insts(20_000));
            cases.push((format!("{bench}/{}", strategy.name()), legacy, event));
        }
    }
    // A cold cell: caches, predictors and the trace cache start empty
    // at a checkpoint deep into the program.
    let gzip = program("gzip");
    let checkpoint = Checkpoint::capture(&gzip, 200_000);
    let (legacy, event) = both_schedulers(|| {
        Simulation::builder(&gzip)
            .strategy(Strategy::Friendly { middle_bias: false })
            .max_insts(5_000)
            .resume_from(&checkpoint)
    });
    cases.push(("gzip cold from a checkpoint".into(), legacy, event));
    // Two other machines: a 2-cluster ring and an 8-cluster line.
    let mcf = program("mcf");
    for (clusters, topology) in [(2, Topology::Ring), (8, Topology::Linear)] {
        let (legacy, event) = both_schedulers(|| {
            Simulation::builder(&mcf)
                .config(machine(clusters, topology, 20_000))
                .strategy(Strategy::Fdrt { pinning: true })
        });
        cases.push((
            format!("mcf on {clusters} clusters, {topology:?}"),
            legacy,
            event,
        ));
    }
    for (name, legacy, event) in cases {
        assert_eq!(legacy, event, "{name}: skipping changed the report");
    }
}
