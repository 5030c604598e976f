//! Golden "no observer effect" test: attaching a telemetry recorder, or
//! turning on cycle attribution, must not perturb the simulation. The
//! report serialized through the store codec has to be byte-identical
//! with and without them — any drift means a hook site leaked
//! architectural state.

use ctcp_sim::{Simulation, Strategy};
use ctcp_telemetry::{Recorder, RecorderConfig, DEFAULT_TOP_EDGES};
use ctcp_workload::Benchmark;
use std::rc::Rc;

#[test]
fn attaching_a_recorder_does_not_change_the_report() {
    for bench in ["gzip", "vortex"] {
        let program = Benchmark::by_name(bench).unwrap().program();
        for strategy in [Strategy::Baseline, Strategy::Fdrt { pinning: true }] {
            let bare = Simulation::builder(&program)
                .strategy(strategy)
                .max_insts(30_000)
                .build()
                .unwrap()
                .run();

            let recorder: Rc<Recorder> = Rc::new(Recorder::new(RecorderConfig::default()));
            let observed = Simulation::builder(&program)
                .strategy(strategy)
                .max_insts(30_000)
                .recorder(Rc::clone(&recorder))
                .build()
                .unwrap()
                .run();

            assert_eq!(
                bare.to_json(),
                observed.to_json(),
                "{bench}/{} report changed under observation",
                strategy.name()
            );
            // The recorder really was live, not silently detached.
            assert!(
                !recorder.events().is_empty(),
                "{bench}/{}: recorder saw no events",
                strategy.name()
            );
        }
    }
}

#[test]
fn attrib_collection_does_not_change_the_report() {
    // Same golden rule for attribution: charging the CPI stack and
    // keeping critical links must be invisible to the architecture.
    for bench in ["gzip", "vortex"] {
        let program = Benchmark::by_name(bench).unwrap().program();
        for strategy in [Strategy::Baseline, Strategy::Fdrt { pinning: true }] {
            let bare = Simulation::builder(&program)
                .strategy(strategy)
                .max_insts(30_000)
                .build()
                .unwrap()
                .run();
            assert!(bare.attrib.is_none(), "attribution is off by default");

            let mut observed = Simulation::builder(&program)
                .strategy(strategy)
                .max_insts(30_000)
                .attrib(DEFAULT_TOP_EDGES)
                .build()
                .unwrap()
                .run();
            let attrib = observed.attrib.take().expect("attribution was turned on");
            assert_eq!(
                bare.to_json(),
                observed.to_json(),
                "{bench}/{} report changed under attribution",
                strategy.name()
            );
            // The attribution really accumulated: every cycle's retire
            // bandwidth is classified somewhere, and the walk found edges.
            assert_eq!(
                attrib.stack.cycles,
                observed.cycles,
                "{bench}/{}: stack covers every cycle",
                strategy.name()
            );
            assert!(
                attrib.stack.total() > 0 && attrib.critical.edges > 0,
                "{bench}/{}: attribution saw nothing",
                strategy.name()
            );
        }
    }
}
