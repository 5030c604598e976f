//! Differential determinism oracle: the event-driven scheduler must be
//! observably identical to the legacy scan-per-cycle scheduler it
//! replaced. For every steering strategy and benchmark, the serialized
//! `SimReport` — cycle attribution included — has to match byte for
//! byte, and an attached recorder must see identical metrics — proving
//! that cached result-store entries, repro experiments, and telemetry
//! are all unaffected by the scheduling rewrite. (Attribution reads
//! the readiness the event scheduler caches where the scan recomputes
//! it.)

use ctcp_sim::{Simulation, Strategy};
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
