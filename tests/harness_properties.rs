//! End-to-end properties of the experiment harness over real
//! benchmarks: parallel execution must be invisible in the output, and
//! the memoizing result store must make a second identical run free.

use ctcp::harness::{job_key, Harness, Job, ResultStore, SweepSpec};
use ctcp::sim::{SimConfig, SimReport, Strategy, Topology};
use ctcp::workload::Benchmark;
use std::path::PathBuf;
use std::sync::Arc;

const INSTS: u64 = 8_000;

/// The grid both tests sweep: two benchmarks × three strategies.
fn grid() -> Vec<Job> {
    let mut jobs = Vec::new();
    for name in ["gzip", "twolf"] {
        let bench = Benchmark::by_name(name).expect("preset exists");
        let program = Arc::new(bench.program());
        for strategy in [
            Strategy::Baseline,
            Strategy::IssueTime { latency: 4 },
            Strategy::Fdrt { pinning: true },
        ] {
            let config = SimConfig {
                strategy,
                max_insts: INSTS,
                ..SimConfig::default()
            };
            jobs.push(Job::new(name, Arc::clone(&program), config));
        }
    }
    jobs
}

/// Renders reports the way an experiment table would: every numeric
/// field participates, so any divergence between runs is caught.
fn table(jobs: &[Job], reports: &[SimReport]) -> String {
    jobs.iter()
        .zip(reports)
        .map(|(j, r)| {
            format!(
                "{} {} cycles={} ipc={:.6} tc={:.6} intra={:.6} dist={:.6}\n",
                j.workload,
                r.strategy,
                r.cycles,
                r.ipc,
                r.tc_inst_fraction(),
                r.metrics.fwd.intra_cluster_fraction(),
                r.metrics.fwd.mean_distance()
            )
        })
        .collect()
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ctcp-e2e-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

#[test]
fn tables_are_byte_identical_across_job_counts() {
    let jobs = grid();
    let serial = Harness::new().jobs(1).progress(false).run(&jobs);
    let parallel = Harness::new().jobs(8).progress(false).run(&jobs);
    assert_eq!(table(&jobs, &serial), table(&jobs, &parallel));
}

#[test]
fn warm_store_resume_hits_every_cell() {
    let dir = scratch_dir("resume");
    let jobs = grid();

    let mut cold = Harness::new()
        .jobs(4)
        .progress(false)
        .with_store(ResultStore::open(&dir).unwrap());
    let cold_table = table(&jobs, &cold.run(&jobs));
    let cold_stats = cold.last_batch();
    assert_eq!(cold_stats.simulated, jobs.len());
    assert_eq!(cold_stats.store_hits, 0);
    let store = cold.store_stats().unwrap();
    assert_eq!(store.puts, jobs.len() as u64);

    // A fresh harness (fresh process, as far as the store can tell)
    // must answer the whole grid from disk and simulate nothing.
    let mut warm = Harness::new()
        .jobs(4)
        .progress(false)
        .with_store(ResultStore::open(&dir).unwrap());
    let warm_table = table(&jobs, &warm.run(&jobs));
    let warm_stats = warm.last_batch();
    assert_eq!(warm_stats.simulated, 0);
    assert_eq!(warm_stats.store_hits, jobs.len());
    let store = warm.store_stats().unwrap();
    assert_eq!(store.hits, jobs.len() as u64);
    assert_eq!(store.puts, 0);

    assert_eq!(cold_table, warm_table);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn partial_store_resumes_only_whats_missing() {
    let dir = scratch_dir("partial");
    let jobs = grid();

    // Simulate an interrupted sweep: only the first half was stored.
    let mut first = Harness::new()
        .jobs(2)
        .progress(false)
        .with_store(ResultStore::open(&dir).unwrap());
    first.run(&jobs[..3]);

    let mut resumed = Harness::new()
        .jobs(2)
        .progress(false)
        .with_store(ResultStore::open(&dir).unwrap());
    let reports = resumed.run(&jobs);
    assert_eq!(resumed.last_batch().store_hits, 3);
    assert_eq!(resumed.last_batch().simulated, 3);
    assert_eq!(reports.len(), jobs.len());

    // The resumed table equals a from-scratch serial run.
    let scratch = Harness::new().jobs(1).progress(false).run(&jobs);
    assert_eq!(table(&jobs, &reports), table(&jobs, &scratch));
    std::fs::remove_dir_all(&dir).ok();
}

/// Store keys hash the config's `Debug` text, and the frozen benchmark
/// (`ctcp-benchmark`) combines its per-cell report digests in key
/// order. A change that moves these values gives every store entry a
/// new key and fails the benchmark's digest check, so it must be
/// deliberate: a new, renamed or reordered `SimConfig` or
/// `EngineConfig` field moves them, and so does a sweep cell built off
/// the width rule of `SimConfig::machine`.
#[test]
fn store_keys_are_pinned() {
    assert_eq!(
        job_key("gzip", &SimConfig::default()),
        0x4936_b03a_cae2_508f
    );
    let fdrt = Strategy::Fdrt { pinning: true };
    let spec = SweepSpec {
        benches: vec!["twolf".into()],
        strategies: vec![fdrt],
        clusters: vec![2],
        topologies: vec![Topology::Ring],
        insts: 2_000,
        warmup: 2_000_000,
    };
    let keys: Vec<u64> = spec
        .expand()
        .unwrap()
        .jobs
        .iter()
        .map(|(bench, config)| job_key(bench, config))
        .collect();
    assert_eq!(keys, [0xb588_6bb4_b248_c5b8, 0xff2f_00a6_3eb0_d86e]);
    assert_eq!(
        job_key("twolf", &spec.cell_config(fdrt, 8, Topology::Linear)),
        0xc100_2b0f_feac_2b34
    );
}
