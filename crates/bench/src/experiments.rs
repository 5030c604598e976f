//! One function per table/figure of the paper.
//!
//! Every experiment is two-phase: it first *describes* its grid of
//! simulation cells as [`Job`]s in a `Batch`, hands the batch to a
//! [`Harness`] (worker pool + optional memoizing result store), and
//! then *renders* its table from the returned reports. Rendering only
//! reads reports by job index, so the output is byte-identical at any
//! `--jobs` level, and identical cells shared between experiments are
//! simulated once when a store is attached.

use crate::table::{pct, ratio, Table};
use ctcp_core::{LatencyOverrides, Topology};
use ctcp_harness::{Harness, Job, ResultStore};
use ctcp_isa::Program;
use ctcp_sim::{harmonic_mean, SimConfig, SimReport, Strategy};
use ctcp_workload::Benchmark;
use std::collections::HashMap;
use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

/// Which paper artifact to regenerate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum ExperimentId {
    Table1,
    Table2,
    Table3,
    Fig4,
    Fig5,
    Fig6,
    Fig7,
    Table8,
    Table9,
    Table10,
    Fig8,
    Fig9,
    /// §5.3 ablations: Friendly-with-middle-bias and FDRT-intra-only.
    Ablation,
    /// §4 claim: fill-unit latencies up to 1000 cycles barely matter.
    FillLatency,
    /// Extension: trace-cache size sensitivity.
    TcSize,
    /// Extension: why trace selection matters — disable the
    /// backward-taken-branch trace terminator and watch assignments churn.
    TraceSelect,
}

impl ExperimentId {
    /// All experiments, in paper order.
    pub const ALL: [ExperimentId; 16] = [
        ExperimentId::Table1,
        ExperimentId::Table2,
        ExperimentId::Fig4,
        ExperimentId::Fig5,
        ExperimentId::Table3,
        ExperimentId::Fig6,
        ExperimentId::Table8,
        ExperimentId::Fig7,
        ExperimentId::Table9,
        ExperimentId::Table10,
        ExperimentId::Fig8,
        ExperimentId::Fig9,
        ExperimentId::Ablation,
        ExperimentId::FillLatency,
        ExperimentId::TcSize,
        ExperimentId::TraceSelect,
    ];
}

impl fmt::Display for ExperimentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ExperimentId::Table1 => "table1",
            ExperimentId::Table2 => "table2",
            ExperimentId::Table3 => "table3",
            ExperimentId::Fig4 => "fig4",
            ExperimentId::Fig5 => "fig5",
            ExperimentId::Fig6 => "fig6",
            ExperimentId::Fig7 => "fig7",
            ExperimentId::Table8 => "table8",
            ExperimentId::Table9 => "table9",
            ExperimentId::Table10 => "table10",
            ExperimentId::Fig8 => "fig8",
            ExperimentId::Fig9 => "fig9",
            ExperimentId::Ablation => "ablation",
            ExperimentId::FillLatency => "fill-latency",
            ExperimentId::TcSize => "tc-size",
            ExperimentId::TraceSelect => "trace-select",
        };
        f.write_str(s)
    }
}

impl FromStr for ExperimentId {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "table1" => Ok(ExperimentId::Table1),
            "table2" => Ok(ExperimentId::Table2),
            "table3" => Ok(ExperimentId::Table3),
            "fig4" => Ok(ExperimentId::Fig4),
            "fig5" => Ok(ExperimentId::Fig5),
            "fig6" => Ok(ExperimentId::Fig6),
            "fig7" => Ok(ExperimentId::Fig7),
            "table8" => Ok(ExperimentId::Table8),
            "table9" => Ok(ExperimentId::Table9),
            "table10" => Ok(ExperimentId::Table10),
            "fig8" => Ok(ExperimentId::Fig8),
            "fig9" => Ok(ExperimentId::Fig9),
            "ablation" => Ok(ExperimentId::Ablation),
            "fill-latency" => Ok(ExperimentId::FillLatency),
            "tc-size" => Ok(ExperimentId::TcSize),
            "trace-select" => Ok(ExperimentId::TraceSelect),
            other => Err(format!("unknown experiment id: {other}")),
        }
    }
}

/// Run options shared by all experiments.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    /// Instructions per simulation for the six focus benchmarks.
    pub max_insts: u64,
    /// Instructions per simulation for the suite-wide Figure 9 runs.
    pub suite_insts: u64,
    /// Worker threads for the harness; `0` means available parallelism,
    /// `1` runs each cell in submission order on one worker thread.
    pub jobs: usize,
    /// Memoize finished cells through the on-disk result store
    /// (`target/ctcp-results/`).
    pub cache: bool,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            max_insts: 300_000,
            suite_insts: 120_000,
            jobs: 0,
            cache: false,
        }
    }
}

impl RunOptions {
    /// Builds a harness honoring these options. A store that fails to
    /// open degrades to no memoization with a warning, never an abort.
    pub fn harness(&self) -> Harness {
        let mut h = Harness::new().jobs(self.jobs);
        if self.cache {
            match ResultStore::open(ResultStore::default_dir()) {
                Ok(store) => h = h.with_store(store),
                Err(e) => eprintln!("warning: result store unavailable ({e}); not caching"),
            }
        }
        h
    }
}

/// A grid of simulation cells accumulated by one experiment.
///
/// Programs are generated once per benchmark name and shared across
/// the batch via [`Arc`], so describing a 100-cell grid costs one
/// workload generation per distinct benchmark.
struct Batch {
    jobs: Vec<Job>,
    programs: HashMap<&'static str, Arc<Program>>,
}

impl Batch {
    fn new() -> Batch {
        Batch {
            jobs: Vec::new(),
            programs: HashMap::new(),
        }
    }

    /// Adds one cell and returns its index into [`Batch::run`]'s output.
    fn add(&mut self, bench: &Benchmark, config: SimConfig) -> usize {
        let program = self
            .programs
            .entry(bench.name)
            .or_insert_with(|| Arc::new(bench.program()));
        self.jobs
            .push(Job::new(bench.name, Arc::clone(program), config));
        self.jobs.len() - 1
    }

    /// Executes every cell; slot `i` of the result is cell `i`'s report.
    fn run(self, h: &mut Harness) -> Vec<SimReport> {
        h.run(&self.jobs)
    }
}

fn base_config(max_insts: u64, strategy: Strategy) -> SimConfig {
    SimConfig {
        strategy,
        max_insts,
        ..SimConfig::default()
    }
}

/// Runs `config` for each benchmark and returns the reports in order.
fn reports_for(h: &mut Harness, benches: &[Benchmark], config: SimConfig) -> Vec<SimReport> {
    let mut batch = Batch::new();
    for b in benches {
        batch.add(b, config);
    }
    batch.run(h)
}

/// The common "speedup over baseline" grid: one row per benchmark, one
/// column per named configuration, each cell the cycle ratio against
/// `base` on the same benchmark, plus a harmonic-mean footer row.
fn speedup_grid(
    h: &mut Harness,
    benches: &[Benchmark],
    columns: &[(String, SimConfig)],
    base: SimConfig,
) -> Table {
    let mut batch = Batch::new();
    let base_idx: Vec<usize> = benches.iter().map(|b| batch.add(b, base)).collect();
    let cell_idx: Vec<Vec<usize>> = benches
        .iter()
        .map(|b| columns.iter().map(|(_, c)| batch.add(b, *c)).collect())
        .collect();
    let reports = batch.run(h);

    let mut header = vec!["bench".to_string()];
    header.extend(columns.iter().map(|(n, _)| n.clone()));
    let mut t = Table::new(header);
    let mut sums: Vec<Vec<f64>> = vec![Vec::new(); columns.len()];
    for (bi, b) in benches.iter().enumerate() {
        let base_r = &reports[base_idx[bi]];
        let mut cells = vec![b.name.to_string()];
        for (ci, &ji) in cell_idx[bi].iter().enumerate() {
            let sp = reports[ji].speedup_over(base_r);
            sums[ci].push(sp);
            cells.push(ratio(sp));
        }
        t.row(cells);
    }
    let mut hm = vec!["HM".to_string()];
    for s in &sums {
        hm.push(ratio(harmonic_mean(s)));
    }
    t.row(hm);
    t
}

/// Runs `id` with a private harness built from `opts` and returns its
/// rendered report.
pub fn run_experiment(id: ExperimentId, opts: RunOptions) -> String {
    run_experiment_in(id, opts, &mut opts.harness())
}

/// Runs `id` through an existing harness, so several experiments can
/// share one worker pool and result store (the `repro` binary does
/// this; identical cells across experiments then simulate only once).
pub fn run_experiment_in(id: ExperimentId, opts: RunOptions, h: &mut Harness) -> String {
    match id {
        ExperimentId::Table1 => table1(opts, h),
        ExperimentId::Table2 => table2(opts, h),
        ExperimentId::Table3 => table3(opts, h),
        ExperimentId::Fig4 => fig4(opts, h),
        ExperimentId::Fig5 => fig5(opts, h),
        ExperimentId::Fig6 => fig6(opts, h),
        ExperimentId::Fig7 => fig7(opts, h),
        ExperimentId::Table8 => table8(opts, h),
        ExperimentId::Table9 => table9(opts, h),
        ExperimentId::Table10 => table10(opts, h),
        ExperimentId::Fig8 => fig8(opts, h),
        ExperimentId::Fig9 => fig9(opts, h),
        ExperimentId::Ablation => ablation(opts, h),
        ExperimentId::FillLatency => fill_latency(opts, h),
        ExperimentId::TcSize => tc_size(opts, h),
        ExperimentId::TraceSelect => trace_select(opts, h),
    }
}

const FOCUS_PAPER_TABLE1: [(&str, f64, f64); 6] = [
    // (name, % TC instr, trace size) — paper Table 1
    ("bzip2", 0.9822, 14.7),
    ("eon", 0.8826, 12.4),
    ("gzip", 0.9683, 13.8),
    ("perlbmk", 0.9281, 13.2),
    ("twolf", 0.8407, 11.5),
    ("vpr", 0.8991, 12.9),
];

fn table1(opts: RunOptions, h: &mut Harness) -> String {
    let benches = Benchmark::spec_focus();
    let reports = reports_for(h, &benches, base_config(opts.max_insts, Strategy::Baseline));
    let mut t = Table::new(vec![
        "bench",
        "%TC (paper)",
        "%TC (ours)",
        "size (paper)",
        "size (ours)",
    ]);
    for (b, r) in benches.iter().zip(&reports) {
        let paper = FOCUS_PAPER_TABLE1
            .iter()
            .find(|(n, _, _)| *n == b.name)
            .expect("focus benchmark");
        t.row(vec![
            b.name.to_string(),
            pct(paper.1),
            pct(r.tc_inst_fraction()),
            format!("{:.1}", paper.2),
            format!("{:.1}", r.avg_trace_size()),
        ]);
    }
    format!("Table 1: trace cache characteristics\n{}", t.render())
}

const PAPER_TABLE2: [(&str, f64, f64); 6] = [
    ("bzip2", 0.8618, 0.2969),
    ("eon", 0.8658, 0.3540),
    ("gzip", 0.8094, 0.2438),
    ("perlbmk", 0.8611, 0.2776),
    ("twolf", 0.7858, 0.2395),
    ("vpr", 0.8232, 0.2584),
];

fn table2(opts: RunOptions, h: &mut Harness) -> String {
    let benches = Benchmark::spec_focus();
    let reports = reports_for(h, &benches, base_config(opts.max_insts, Strategy::Baseline));
    let mut t = Table::new(vec![
        "bench",
        "crit (paper)",
        "crit (ours)",
        "inter-trace (paper)",
        "inter-trace (ours)",
    ]);
    for (b, r) in benches.iter().zip(&reports) {
        let paper = PAPER_TABLE2
            .iter()
            .find(|(n, _, _)| *n == b.name)
            .expect("focus benchmark");
        t.row(vec![
            b.name.to_string(),
            pct(paper.1),
            pct(r.metrics.fwd.critical_fraction()),
            pct(paper.2),
            pct(r.metrics.fwd.inter_trace_fraction()),
        ]);
    }
    format!(
        "Table 2: critical data forwarding dependencies\n{}",
        t.render()
    )
}

const PAPER_TABLE3: [(&str, f64, f64, f64, f64); 6] = [
    // (name, all RS1, all RS2, crit-inter RS1, crit-inter RS2)
    ("bzip2", 0.9741, 0.9766, 0.8930, 0.9117),
    ("eon", 0.9383, 0.8984, 0.8579, 0.7334),
    ("gzip", 0.9814, 0.9902, 0.9293, 0.9604),
    ("perlbmk", 0.9778, 0.9379, 0.9083, 0.7927),
    ("twolf", 0.9669, 0.9078, 0.8709, 0.7640),
    ("vpr", 0.9853, 0.9606, 0.9564, 0.9167),
];

fn table3(opts: RunOptions, h: &mut Harness) -> String {
    let benches = Benchmark::spec_focus();
    let reports = reports_for(h, &benches, base_config(opts.max_insts, Strategy::Baseline));
    let mut t = Table::new(vec![
        "bench",
        "RS1 (paper/ours)",
        "RS2 (paper/ours)",
        "inter RS1 (paper/ours)",
        "inter RS2 (paper/ours)",
    ]);
    for (b, r) in benches.iter().zip(&reports) {
        let p = PAPER_TABLE3
            .iter()
            .find(|(n, ..)| *n == b.name)
            .expect("focus benchmark");
        t.row(vec![
            b.name.to_string(),
            format!("{} / {}", pct(p.1), pct(r.metrics.repeat_all[0])),
            format!("{} / {}", pct(p.2), pct(r.metrics.repeat_all[1])),
            format!("{} / {}", pct(p.3), pct(r.metrics.repeat_critical_inter[0])),
            format!("{} / {}", pct(p.4), pct(r.metrics.repeat_critical_inter[1])),
        ]);
    }
    format!(
        "Table 3: frequency of repeated forwarding producers\n{}",
        t.render()
    )
}

fn fig4(opts: RunOptions, h: &mut Harness) -> String {
    // Paper average: 44% RF, 31% RS1, 25% RS2.
    let benches = Benchmark::spec_focus();
    let reports = reports_for(h, &benches, base_config(opts.max_insts, Strategy::Baseline));
    let mut t = Table::new(vec!["bench", "from RF", "from RS1", "from RS2"]);
    for (b, r) in benches.iter().zip(&reports) {
        let (rf, rs1, rs2) = r.metrics.fwd.critical_source_distribution();
        t.row(vec![b.name.to_string(), pct(rf), pct(rs1), pct(rs2)]);
    }
    format!(
        "Figure 4: source of most critical input\n\
         (paper averages: RF 44%, RS1 31%, RS2 25%)\n{}",
        t.render()
    )
}

fn fig5(opts: RunOptions, h: &mut Harness) -> String {
    let variants: [(&str, LatencyOverrides, bool); 5] = [
        (
            "No Fwd Lat",
            LatencyOverrides {
                no_forward_latency: true,
                ..Default::default()
            },
            false,
        ),
        (
            "No Crit Fwd Lat",
            LatencyOverrides {
                no_critical_forward_latency: true,
                ..Default::default()
            },
            false,
        ),
        (
            "No Intra-Trace Lat",
            LatencyOverrides {
                no_intra_trace_latency: true,
                ..Default::default()
            },
            false,
        ),
        (
            "No Inter-Trace Lat",
            LatencyOverrides {
                no_inter_trace_latency: true,
                ..Default::default()
            },
            false,
        ),
        ("No RF Lat", LatencyOverrides::default(), true),
    ];
    let columns: Vec<(String, SimConfig)> = variants
        .iter()
        .map(|(name, ov, rf0)| {
            let mut c = base_config(opts.max_insts, Strategy::Baseline);
            c.engine.overrides = *ov;
            if *rf0 {
                c.engine.rf_latency = 0;
            }
            (name.to_string(), c)
        })
        .collect();
    let t = speedup_grid(
        h,
        &Benchmark::spec_focus(),
        &columns,
        base_config(opts.max_insts, Strategy::Baseline),
    );
    format!(
        "Figure 5: speedup removing dependency latencies\n\
         (paper HMs: NoFwd 1.418, NoCrit 1.372, NoIntra 1.177, NoInter 1.155, NoRF ~1.0)\n{}",
        t.render()
    )
}

/// The Figure 6 strategy set.
fn fig6_strategies() -> Vec<Strategy> {
    vec![
        Strategy::IssueTime { latency: 0 },
        Strategy::IssueTime { latency: 4 },
        Strategy::Fdrt { pinning: true },
        Strategy::Friendly { middle_bias: false },
    ]
}

fn strategy_columns(strategies: &[Strategy], max_insts: u64) -> Vec<(String, SimConfig)> {
    strategies
        .iter()
        .map(|s| (s.name(), base_config(max_insts, *s)))
        .collect()
}

fn fig6(opts: RunOptions, h: &mut Harness) -> String {
    let columns = strategy_columns(&fig6_strategies(), opts.max_insts);
    let t = speedup_grid(
        h,
        &Benchmark::spec_focus(),
        &columns,
        base_config(opts.max_insts, Strategy::Baseline),
    );
    format!(
        "Figure 6: speedup by cluster assignment strategy\n\
         (paper HMs: issue-time(0) 1.172, issue-time(4) ~1.10, FDRT 1.115, Friendly 1.031)\n{}",
        t.render()
    )
}

const PAPER_TABLE8A: [(&str, f64, f64, f64); 6] = [
    ("bzip2", 0.3979, 0.6084, 0.7954),
    ("eon", 0.3373, 0.5283, 0.5135),
    ("gzip", 0.3294, 0.5391, 0.5825),
    ("perlbmk", 0.4495, 0.5836, 0.6201),
    ("twolf", 0.4783, 0.5691, 0.5892),
    ("vpr", 0.3867, 0.5870, 0.5958),
];

const PAPER_TABLE8B: [(&str, f64, f64, f64); 6] = [
    ("bzip2", 0.99, 0.59, 0.28),
    ("eon", 1.09, 0.73, 0.71),
    ("gzip", 1.14, 0.73, 0.62),
    ("perlbmk", 0.85, 0.63, 0.55),
    ("twolf", 0.79, 0.65, 0.60),
    ("vpr", 0.97, 0.61, 0.57),
];

fn table8(opts: RunOptions, h: &mut Harness) -> String {
    let benches = Benchmark::spec_focus();
    let mut batch = Batch::new();
    let cells: Vec<[usize; 3]> = benches
        .iter()
        .map(|b| {
            [
                batch.add(b, base_config(opts.max_insts, Strategy::Baseline)),
                batch.add(
                    b,
                    base_config(opts.max_insts, Strategy::Friendly { middle_bias: false }),
                ),
                batch.add(
                    b,
                    base_config(opts.max_insts, Strategy::Fdrt { pinning: true }),
                ),
            ]
        })
        .collect();
    let reports = batch.run(h);

    let mut a = Table::new(vec![
        "bench",
        "base (paper/ours)",
        "friendly (paper/ours)",
        "fdrt (paper/ours)",
    ]);
    let mut bt = Table::new(vec![
        "bench",
        "base (paper/ours)",
        "friendly (paper/ours)",
        "fdrt (paper/ours)",
    ]);
    for (b, idx) in benches.iter().zip(&cells) {
        let [base, fr, fd] = [&reports[idx[0]], &reports[idx[1]], &reports[idx[2]]];
        let pa = PAPER_TABLE8A
            .iter()
            .find(|(n, ..)| *n == b.name)
            .expect("focus");
        let pb = PAPER_TABLE8B
            .iter()
            .find(|(n, ..)| *n == b.name)
            .expect("focus");
        a.row(vec![
            b.name.to_string(),
            format!(
                "{} / {}",
                pct(pa.1),
                pct(base.metrics.fwd.intra_cluster_fraction())
            ),
            format!(
                "{} / {}",
                pct(pa.2),
                pct(fr.metrics.fwd.intra_cluster_fraction())
            ),
            format!(
                "{} / {}",
                pct(pa.3),
                pct(fd.metrics.fwd.intra_cluster_fraction())
            ),
        ]);
        bt.row(vec![
            b.name.to_string(),
            format!("{:.2} / {:.2}", pb.1, base.metrics.fwd.mean_distance()),
            format!("{:.2} / {:.2}", pb.2, fr.metrics.fwd.mean_distance()),
            format!("{:.2} / {:.2}", pb.3, fd.metrics.fwd.mean_distance()),
        ]);
    }
    format!(
        "Table 8a: intra-cluster forwarding of critical inputs\n{}\n\
         Table 8b: average data forwarding distance\n{}",
        a.render(),
        bt.render()
    )
}

fn fig7(opts: RunOptions, h: &mut Harness) -> String {
    // Paper averages: A 37%, B 18%, C 9%, D 11%, E ~24%, skipped <1%.
    let benches = Benchmark::spec_focus();
    let reports = reports_for(
        h,
        &benches,
        base_config(opts.max_insts, Strategy::Fdrt { pinning: true }),
    );
    let mut t = Table::new(vec!["bench", "A", "B", "C", "D", "E", "skipped"]);
    for (b, r) in benches.iter().zip(&reports) {
        let d = r.metrics.fdrt.expect("fdrt stats").option_distribution();
        t.row(vec![
            b.name.to_string(),
            pct(d[0]),
            pct(d[1]),
            pct(d[2]),
            pct(d[3]),
            pct(d[4]),
            pct(d[5]),
        ]);
    }
    format!(
        "Figure 7: FDRT assignment option distribution\n\
         (paper averages: A 37%, B 18%, C 9%, D 11%, E 24%, skipped <1%)\n{}",
        t.render()
    )
}

const PAPER_TABLE9: [(&str, f64, f64); 6] = [
    // (name, pinning, no pinning) — all-instruction migration
    ("bzip2", 0.0035, 0.0098),
    ("eon", 0.0594, 0.0827),
    ("gzip", 0.0597, 0.0826),
    ("perlbmk", 0.0377, 0.0359),
    ("twolf", 0.0508, 0.0892),
    ("vpr", 0.0436, 0.0477),
];

fn table9(opts: RunOptions, h: &mut Harness) -> String {
    let benches = Benchmark::spec_focus();
    let mut batch = Batch::new();
    let cells: Vec<[usize; 2]> = benches
        .iter()
        .map(|b| {
            [
                batch.add(
                    b,
                    base_config(opts.max_insts, Strategy::Fdrt { pinning: true }),
                ),
                batch.add(
                    b,
                    base_config(opts.max_insts, Strategy::Fdrt { pinning: false }),
                ),
            ]
        })
        .collect();
    let reports = batch.run(h);

    let mut t = Table::new(vec![
        "bench",
        "pin (paper/ours)",
        "nopin (paper/ours)",
        "chain red. (ours)",
    ]);
    for (b, idx) in benches.iter().zip(&cells) {
        let sp = reports[idx[0]].metrics.fdrt.expect("stats");
        let sn = reports[idx[1]].metrics.fdrt.expect("stats");
        let p = PAPER_TABLE9
            .iter()
            .find(|(n, ..)| *n == b.name)
            .expect("focus");
        let chain_red = if sn.chain_migration_rate() > 0.0 {
            1.0 - sp.chain_migration_rate() / sn.chain_migration_rate()
        } else {
            0.0
        };
        t.row(vec![
            b.name.to_string(),
            format!("{} / {}", pct(p.1), pct(sp.migration_rate())),
            format!("{} / {}", pct(p.2), pct(sn.migration_rate())),
            pct(chain_red),
        ]);
    }
    format!(
        "Table 9: instruction cluster migration (paper chain-migration reduction: 41%)\n{}",
        t.render()
    )
}

const PAPER_TABLE10: [(&str, f64, f64); 6] = [
    ("bzip2", 0.7955, 0.6669),
    ("eon", 0.4972, 0.5088),
    ("gzip", 0.5603, 0.5503),
    ("perlbmk", 0.6532, 0.6536),
    ("twolf", 0.5751, 0.5713),
    ("vpr", 0.5701, 0.5634),
];

fn table10(opts: RunOptions, h: &mut Harness) -> String {
    let benches = Benchmark::spec_focus();
    let mut batch = Batch::new();
    let cells: Vec<[usize; 2]> = benches
        .iter()
        .map(|b| {
            [
                batch.add(
                    b,
                    base_config(opts.max_insts, Strategy::Fdrt { pinning: true }),
                ),
                batch.add(
                    b,
                    base_config(opts.max_insts, Strategy::Fdrt { pinning: false }),
                ),
            ]
        })
        .collect();
    let reports = batch.run(h);

    let mut t = Table::new(vec!["bench", "pin (paper/ours)", "nopin (paper/ours)"]);
    for (b, idx) in benches.iter().zip(&cells) {
        let pin = &reports[idx[0]];
        let nopin = &reports[idx[1]];
        let p = PAPER_TABLE10
            .iter()
            .find(|(n, ..)| *n == b.name)
            .expect("focus");
        t.row(vec![
            b.name.to_string(),
            format!(
                "{} / {}",
                pct(p.1),
                pct(pin.metrics.fwd.intra_cluster_fraction())
            ),
            format!(
                "{} / {}",
                pct(p.2),
                pct(nopin.metrics.fwd.intra_cluster_fraction())
            ),
        ]);
    }
    format!(
        "Table 10: intra-cluster critical forwarding, pinning vs no pinning\n{}",
        t.render()
    )
}

fn fig8(opts: RunOptions, h: &mut Harness) -> String {
    // (name, issue-time steer latency, clusters, topology, hop latency)
    let hop = SimConfig::default().engine.hop_latency;
    let variants = [
        ("mesh network", 4, 4, Topology::Ring, hop),
        ("one-cycle fwd", 4, 4, Topology::Linear, 1),
        (
            "point-to-point (1 hop everywhere)",
            4,
            4,
            Topology::FullyConnected,
            hop,
        ),
        ("8-wide 2-cluster", 2, 2, Topology::Linear, hop),
    ];
    let mut out = String::from(
        "Figure 8: robustness across cluster configurations\n\
         (speedups relative to each configuration's own baseline)\n",
    );
    for (variant, issue_latency, clusters, topology, hop_latency) in variants {
        let config = |strategy| {
            let mut c = SimConfig {
                max_insts: opts.max_insts,
                ..SimConfig::machine(strategy, clusters, topology)
            };
            c.engine.hop_latency = hop_latency;
            c
        };
        let strategies = [
            ("fdrt", Strategy::Fdrt { pinning: true }),
            ("friendly", Strategy::Friendly { middle_bias: false }),
            (
                "issue-time",
                Strategy::IssueTime {
                    latency: issue_latency,
                },
            ),
        ];
        let columns: Vec<(String, SimConfig)> = strategies
            .iter()
            .map(|(name, s)| (name.to_string(), config(*s)))
            .collect();
        let base = config(Strategy::Baseline);
        let t = speedup_grid(h, &Benchmark::spec_focus(), &columns, base);
        out.push_str(&format!("\n[{variant}]\n{}", t.render()));
    }
    out
}

fn fig9(opts: RunOptions, h: &mut Harness) -> String {
    let columns = strategy_columns(&fig6_strategies(), opts.suite_insts);
    let mut out = String::from(
        "Figure 9: suite-wide speedups\n\
         (paper HMs — SPECint: FDRT 1.071, issue-time 1.038, Friendly 1.019;\n\
          MediaBench: FDRT 1.082, issue-time(0) 1.042, issue-time 1.017, Friendly 1.037)\n",
    );
    for (suite_name, suite) in [
        ("SPECint2000", Benchmark::spec_all()),
        ("MediaBench", Benchmark::mediabench()),
    ] {
        let t = speedup_grid(
            h,
            &suite,
            &columns,
            base_config(opts.suite_insts, Strategy::Baseline),
        );
        out.push_str(&format!("\n[{suite_name}]\n{}", t.render()));
    }
    out
}

fn ablation(opts: RunOptions, h: &mut Harness) -> String {
    let strategies = [
        Strategy::Friendly { middle_bias: false },
        Strategy::Friendly { middle_bias: true },
        Strategy::FdrtIntraOnly,
        Strategy::Fdrt { pinning: true },
    ];
    let columns = strategy_columns(&strategies, opts.max_insts);
    let t = speedup_grid(
        h,
        &Benchmark::spec_focus(),
        &columns,
        base_config(opts.max_insts, Strategy::Baseline),
    );
    format!(
        "§5.3 ablations\n\
         (paper: Friendly 1.031, Friendly-middle 1.047, FDRT-intra-only 1.057, FDRT 1.115)\n{}",
        t.render()
    )
}

fn fill_latency(opts: RunOptions, h: &mut Harness) -> String {
    let latencies = [3u64, 10, 100, 1000];
    let benches = Benchmark::spec_focus();
    let mut batch = Batch::new();
    let cells: Vec<Vec<usize>> = benches
        .iter()
        .map(|b| {
            latencies
                .iter()
                .map(|&lat| {
                    let mut c = base_config(opts.max_insts, Strategy::Fdrt { pinning: true });
                    c.fill.latency = lat;
                    batch.add(b, c)
                })
                .collect()
        })
        .collect();
    let reports = batch.run(h);

    let mut header = vec!["bench".to_string()];
    header.extend(latencies.iter().map(|l| format!("lat {l}")));
    let mut t = Table::new(header);
    for (b, idx) in benches.iter().zip(&cells) {
        let mut cells = vec![b.name.to_string()];
        let mut reference = None;
        for &ji in idx {
            let r = &reports[ji];
            let base = *reference.get_or_insert(r.cycles);
            cells.push(ratio(base as f64 / r.cycles as f64));
        }
        t.row(cells);
    }
    format!(
        "Fill-unit latency sweep (FDRT performance relative to 3-cycle fill)
         (paper §4: a fill latency of 1000 cycles does not significantly
          impact FDRT performance)
{}",
        t.render()
    )
}

fn tc_size(opts: RunOptions, h: &mut Harness) -> String {
    let sizes = [64usize, 256, 1024, 4096];
    let benches = Benchmark::spec_focus();
    let mut batch = Batch::new();
    let cells: Vec<Vec<usize>> = benches
        .iter()
        .map(|b| {
            sizes
                .iter()
                .map(|&entries| {
                    let mut c = base_config(opts.max_insts, Strategy::Fdrt { pinning: true });
                    c.trace_cache.entries = entries;
                    batch.add(b, c)
                })
                .collect()
        })
        .collect();
    let reports = batch.run(h);

    let mut header = vec!["bench".to_string()];
    for s in sizes {
        header.push(format!("{s}e ipc"));
        header.push(format!("{s}e tc%"));
    }
    let mut t = Table::new(header);
    for (b, idx) in benches.iter().zip(&cells) {
        let mut cells = vec![b.name.to_string()];
        for &ji in idx {
            let r = &reports[ji];
            cells.push(ratio(r.ipc));
            cells.push(pct(r.tc_inst_fraction()));
        }
        t.row(cells);
    }
    format!(
        "Trace-cache size sensitivity (FDRT; Table 7 baseline is 1024 entries)
{}",
        t.render()
    )
}

fn trace_select(opts: RunOptions, h: &mut Harness) -> String {
    let benches = Benchmark::spec_focus();
    let mut batch = Batch::new();
    let cells: Vec<[usize; 2]> = benches
        .iter()
        .map(|b| {
            let aligned = base_config(opts.max_insts, Strategy::Fdrt { pinning: true });
            let mut free = aligned;
            free.fill.end_at_backward_branch = false;
            [batch.add(b, aligned), batch.add(b, free)]
        })
        .collect();
    let reports = batch.run(h);

    let mut t = Table::new(vec![
        "bench",
        "ipc (loop-aligned)",
        "ipc (free-running)",
        "migration (aligned)",
        "migration (free)",
    ]);
    for (b, idx) in benches.iter().zip(&cells) {
        let aligned = &reports[idx[0]];
        let free = &reports[idx[1]];
        let ma = aligned.metrics.fdrt.expect("stats").migration_rate();
        let mf = free.metrics.fdrt.expect("stats").migration_rate();
        t.row(vec![
            b.name.to_string(),
            ratio(aligned.ipc),
            ratio(free.ipc),
            pct(ma),
            pct(mf),
        ]);
    }
    format!(
        "Trace-selection ablation: ending traces at loop-back edges
         (without loop alignment, 16-instruction trace windows precess
          around loops, the same static instruction lands in several
          overlapping trace families, and retire-time assignments churn —
          see DESIGN.md §5)
{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_ids_round_trip() {
        for id in ExperimentId::ALL {
            let s = id.to_string();
            assert_eq!(s.parse::<ExperimentId>().unwrap(), id);
        }
        assert!("bogus".parse::<ExperimentId>().is_err());
    }

    #[test]
    fn table1_runs_quickly() {
        let out = run_experiment(
            ExperimentId::Table1,
            RunOptions {
                max_insts: 4_000,
                suite_insts: 2_000,
                ..RunOptions::default()
            },
        );
        assert!(out.contains("bzip2"));
        assert!(out.contains("Table 1"));
    }

    #[test]
    fn shared_harness_memoizes_across_experiments() {
        // Table 1 and Table 2 render different columns of the *same*
        // baseline cells; through one harness with a store the second
        // experiment should simulate nothing. The store lives in a
        // scratch directory so the test is hermetic.
        let dir = std::env::temp_dir().join(format!("ctcp-bench-memo-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let opts = RunOptions {
            max_insts: 3_000,
            suite_insts: 1_500,
            ..RunOptions::default()
        };
        let mut h = Harness::new()
            .jobs(2)
            .progress(false)
            .with_store(ResultStore::open(&dir).unwrap());
        run_experiment_in(ExperimentId::Table1, opts, &mut h);
        assert_eq!(h.last_batch().simulated, 6);
        run_experiment_in(ExperimentId::Table2, opts, &mut h);
        assert_eq!(h.last_batch().simulated, 0);
        assert_eq!(h.last_batch().store_hits, 6);
        std::fs::remove_dir_all(&dir).ok();
    }
}
