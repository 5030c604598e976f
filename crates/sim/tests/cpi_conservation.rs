//! CPI-stack conservation golden test: the retirement-driven cycle
//! accounting must classify *every* slot of retire bandwidth, every
//! cycle, into exactly one component — so for any strategy and any
//! benchmark the stack components sum exactly to
//! `total cycles × retire width`, with nothing dropped and nothing
//! double-counted. A second test pins the paper's headline expectation:
//! the inter-cluster-delay component shrinks under FDRT steering
//! relative to the slot-based baseline.

use ctcp_sim::{SimConfig, Simulation, Strategy};
use ctcp_telemetry::{CpiStack, RetireSlotKind, DEFAULT_TOP_EDGES};
use ctcp_workload::Benchmark;

const ALL_STRATEGIES: [Strategy; 7] = [
    Strategy::Baseline,
    Strategy::IssueTime { latency: 0 },
    Strategy::IssueTime { latency: 4 },
    Strategy::Friendly { middle_bias: false },
    Strategy::Fdrt { pinning: true },
    Strategy::Fdrt { pinning: false },
    Strategy::FdrtIntraOnly,
];

fn run_with_stack(bench: &str, strategy: Strategy, max_insts: u64) -> (u64, CpiStack) {
    let program = Benchmark::by_name(bench).unwrap().program();
    let report = Simulation::builder(&program)
        .strategy(strategy)
        .max_insts(max_insts)
        .attrib(DEFAULT_TOP_EDGES)
        .build()
        .unwrap()
        .run();
    let attrib = report.attrib.expect("attribution was turned on");
    (report.cycles, attrib.stack)
}

#[test]
fn stack_components_sum_to_total_retire_bandwidth() {
    let width = SimConfig::default().engine.retire_width as u64;
    for bench in ["gzip", "twolf"] {
        for strategy in ALL_STRATEGIES {
            let (cycles, stack) = run_with_stack(bench, strategy, 20_000);
            assert_eq!(
                stack.cycles,
                cycles,
                "{bench}/{}: stack must cover every simulated cycle",
                strategy.name()
            );
            assert_eq!(
                stack.total(),
                cycles * width,
                "{bench}/{}: components must sum to cycles × retire width",
                strategy.name()
            );
        }
    }
}

#[test]
fn fdrt_shrinks_the_inter_cluster_component_somewhere() {
    // The paper's argument in one assertion: FDRT steering exists to
    // cut inter-cluster operand delay, so on at least one benchmark the
    // inter-cluster slot count must come out below the slot-based
    // baseline's.
    let mut shrank = false;
    for bench in ["gzip", "twolf"] {
        let (_, base) = run_with_stack(bench, Strategy::Baseline, 30_000);
        let (_, fdrt) = run_with_stack(bench, Strategy::Fdrt { pinning: true }, 30_000);
        let b = base.get(RetireSlotKind::InterCluster);
        let f = fdrt.get(RetireSlotKind::InterCluster);
        if f < b {
            shrank = true;
        }
    }
    assert!(
        shrank,
        "FDRT should reduce inter-cluster delay slots on at least one benchmark"
    );
}
