//! Golden attribution test: the full report — the CPI stack and the
//! critical-path summary included — of a grid of attribution runs is
//! pinned by FNV-1a digests of `SimReport::to_json`, so the slot
//! classification, the segment cover of the critical-path walk and the
//! tie-break among its top edges cannot drift. The digests date from
//! the probe-based attribution that preceded the in-simulation one.

use ctcp_sim::{BatchRunner, SimBuilder, SimConfig, SimReport, Simulation, Strategy, Topology};
use ctcp_telemetry::DEFAULT_TOP_EDGES;
use ctcp_workload::Benchmark;

/// `(bench, strategy, clusters, topology, digest)` at 30k instructions.
const GOLDEN: [(&str, &str, u8, Topology, u64); 18] = [
    ("gzip", "base", 4, Topology::Linear, 0xdd8e7d6ad6b726d3),
    ("gzip", "base", 2, Topology::Ring, 0xd37dd8f5ed7e547d),
    ("gzip", "friendly", 4, Topology::Linear, 0x697b8b6fcd0ffaa0),
    ("gzip", "friendly", 2, Topology::Ring, 0x052857adaecc48e0),
    ("gzip", "fdrt", 4, Topology::Linear, 0x1db9e6309ea39914),
    ("gzip", "fdrt", 2, Topology::Ring, 0x6f5bfa3c301384c0),
    ("twolf", "base", 4, Topology::Linear, 0x4148b14a0308619d),
    ("twolf", "base", 2, Topology::Ring, 0xe78a469203796004),
    ("twolf", "friendly", 4, Topology::Linear, 0x1b21ab5a6714ddb4),
    ("twolf", "friendly", 2, Topology::Ring, 0xb80cf2dee8f7ef0d),
    ("twolf", "fdrt", 4, Topology::Linear, 0x37f340fabcbbeec9),
    ("twolf", "fdrt", 2, Topology::Ring, 0xa9867a826c063a62),
    ("mcf", "base", 4, Topology::Linear, 0xba935601cd1603cd),
    ("mcf", "base", 2, Topology::Ring, 0x847c09804e1f3b96),
    ("mcf", "friendly", 4, Topology::Linear, 0x75697cd665909cd0),
    ("mcf", "friendly", 2, Topology::Ring, 0xddd4f0bce92d7f02),
    ("mcf", "fdrt", 4, Topology::Linear, 0x7dfdb3008497970a),
    ("mcf", "fdrt", 2, Topology::Ring, 0x66f3d5cd9e8da7a3),
];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn strategy(name: &str) -> Strategy {
    match name {
        "base" => Strategy::Baseline,
        "friendly" => Strategy::Friendly { middle_bias: false },
        "fdrt" => Strategy::Fdrt { pinning: true },
        other => panic!("no golden strategy {other}"),
    }
}

/// Table 7's machine with its geometry swapped for `clusters` clusters
/// on `topology`, front end left at 16/16/128: deliberately unscaled
/// (not `SimConfig::machine`), as the goldens were recorded.
fn builder<'p>(
    program: &'p ctcp_isa::Program,
    name: &str,
    clusters: u8,
    topology: Topology,
) -> SimBuilder<'p> {
    let mut config = SimConfig::default();
    config.engine.geometry.clusters = clusters;
    config.engine.geometry.topology = topology;
    Simulation::builder(program)
        .config(config)
        .strategy(strategy(name))
        .max_insts(30_000)
        .attrib(DEFAULT_TOP_EDGES)
}

fn check(report: &SimReport, bench: &str, name: &str, clusters: u8, topology: Topology, want: u64) {
    assert!(report.attrib.is_some(), "{bench}/{name}: no attribution");
    let got = fnv1a(report.to_json().as_bytes());
    assert_eq!(
        got, want,
        "{bench}/{name} on {clusters} clusters ({topology:?}): report digest {got:#018x}, \
         golden {want:#018x}"
    );
}

#[test]
fn attribution_reports_match_their_goldens() {
    for bench in ["gzip", "twolf", "mcf"] {
        let program = Benchmark::by_name(bench).unwrap().program();
        for &(b, name, clusters, topology, want) in GOLDEN.iter().filter(|g| g.0 == bench) {
            let report = builder(&program, name, clusters, topology)
                .build()
                .unwrap()
                .run();
            check(&report, b, name, clusters, topology, want);
        }
    }
}

#[test]
fn recycled_link_buffers_reproduce_the_goldens() {
    // One runner recycles a single engine arena, link buffer included,
    // through every cell of the grid: a link left over from the
    // previous cell would shift the walk and break the digest.
    let programs: Vec<_> = ["gzip", "twolf", "mcf"]
        .iter()
        .map(|b| Benchmark::by_name(b).unwrap().program())
        .collect();
    let mut runner = BatchRunner::new();
    for (i, bench) in ["gzip", "twolf", "mcf"].into_iter().enumerate() {
        for &(b, name, clusters, topology, want) in GOLDEN.iter().filter(|g| g.0 == bench) {
            let report = runner
                .try_run(builder(&programs[i], name, clusters, topology))
                .unwrap();
            check(&report, b, name, clusters, topology, want);
        }
    }
}
