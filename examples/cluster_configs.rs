//! The paper's §5.6 robustness study in miniature: run FDRT against the
//! baseline on alternative cluster organisations — a ring ("mesh")
//! interconnect, a one-cycle forwarding hop, and an eight-wide
//! two-cluster machine. Each machine is `SimConfig::machine`, the one a
//! `ctcp sweep` cell builds: the front end scales with the cluster
//! count (rename and retire width = issue slots, ROB = 8 per slot).
//!
//! Run with: `cargo run --release --example cluster_configs`

use ctcp_core::Topology;
use ctcp_sim::{harmonic_mean, SimConfig, Simulation, Strategy};
use ctcp_workload::Benchmark;

/// `(name, clusters, topology, forwarding latency per hop)`.
const VARIANTS: [(&str, u8, Topology, u64); 4] = [
    ("baseline 4x4 linear", 4, Topology::Linear, 2),
    ("ring interconnect", 4, Topology::Ring, 2),
    ("one-cycle hop", 4, Topology::Linear, 1),
    ("8-wide, 2 clusters", 2, Topology::Linear, 2),
];

fn main() {
    println!("FDRT speedup over each configuration's own slot-steered base:");
    for (name, clusters, topology, hop) in VARIANTS {
        let config = |strategy| {
            let mut c = SimConfig {
                max_insts: 100_000,
                ..SimConfig::machine(strategy, clusters, topology)
            };
            c.engine.hop_latency = hop;
            c
        };
        let mut speedups = Vec::new();
        for b in Benchmark::spec_focus() {
            let program = b.program();
            let base = Simulation::builder(&program)
                .config(config(Strategy::Baseline))
                .build()
                .expect("valid geometry")
                .run();
            let fdrt = Simulation::builder(&program)
                .config(config(Strategy::Fdrt { pinning: true }))
                .build()
                .expect("valid geometry")
                .run();
            speedups.push(fdrt.speedup_over(&base));
        }
        println!("  {name:<22} HM speedup {:.3}", harmonic_mean(&speedups));
    }
}
