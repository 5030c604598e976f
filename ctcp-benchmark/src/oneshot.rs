//! The three in-process workloads: sweeps run through `Harness` the
//! way `repro` and `ctcp sweep` run them, one worker, no result store.

use crate::calib;
use crate::layers::{self, LayerInput};
use crate::outcome::{peak_rss_mb, Opts, Outcome, Phase};
use crate::serve;
use crate::stats::{fnv1a, median, shuffle, FNV_OFFSET};
use crate::trace::Tracer;
use ctcp_harness::{Harness, Job, ProgressSink, SweepSpec};
use ctcp_isa::Program;
use ctcp_sim::{harmonic_mean, SimReport, Strategy, Topology};
use ctcp_telemetry::Counter;
use ctcp_workload::{Benchmark, Pcg32};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which in-process workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Figure 6 exactly: long timed cells, no warmup.
    Detailed,
    /// A warmup-heavy grid of short cells sharing checkpoints.
    WarmupGrid,
    /// Attribution on: the probe and its records ride along.
    Attrib,
}

/// Digests of every cell's `SimReport::to_json`, in content-key order,
/// at full size. They do not depend on the seed; a change that moves
/// one changed what the simulator computes.
const DIGESTS: [(Kind, u64); 3] = [
    (Kind::Detailed, 0xfa1e_bfb0_bf99_bcef),
    (Kind::WarmupGrid, 0x56f3_7ae3_0deb_8151),
    (Kind::Attrib, 0x341f_ceee_5f3a_f431),
];

/// Figure 6's FDRT harmonic mean as the paper reports it, and as
/// `docs/results-300k.txt` records it.
const FDRT_HM_PAPER: f64 = 1.115;
const FDRT_HM_RECORDED: f64 = 1.085;

impl Kind {
    fn presets(self, smoke: bool) -> Vec<&'static str> {
        let all = match self {
            Kind::Detailed | Kind::WarmupGrid => {
                vec!["bzip2", "eon", "gzip", "perlbmk", "twolf", "vpr"]
            }
            Kind::Attrib => vec!["crafty", "gap", "gcc", "mcf", "parser", "vortex"],
        };
        if smoke {
            all[..2].to_vec()
        } else {
            all
        }
    }

    /// Strategies besides the baseline, which every grid adds itself.
    fn strategies(self) -> Vec<Strategy> {
        let friendly = Strategy::Friendly { middle_bias: false };
        let fdrt = Strategy::Fdrt { pinning: true };
        match self {
            Kind::Detailed => vec![
                Strategy::IssueTime { latency: 0 },
                Strategy::IssueTime { latency: 4 },
                fdrt,
                friendly,
            ],
            Kind::WarmupGrid => vec![
                Strategy::IssueTime { latency: 0 },
                Strategy::IssueTime { latency: 4 },
                friendly,
                Strategy::Friendly { middle_bias: true },
                fdrt,
                Strategy::Fdrt { pinning: false },
                Strategy::FdrtIntraOnly,
            ],
            Kind::Attrib => vec![friendly, fdrt],
        }
    }

    fn spec(self, preset: &str, smoke: bool) -> SweepSpec {
        let (clusters, topologies, insts, warmup) = match (self, smoke) {
            (Kind::Detailed, false) => (vec![4], vec![Topology::Linear], 300_000, 0),
            (Kind::Attrib, false) => (vec![4], vec![Topology::Linear], 200_000, 0),
            (Kind::Detailed | Kind::Attrib, true) => (vec![4], vec![Topology::Linear], 1_000, 0),
            (Kind::WarmupGrid, false) => (
                vec![2, 4],
                vec![Topology::Linear, Topology::Ring, Topology::FullyConnected],
                2_000,
                2_000_000,
            ),
            (Kind::WarmupGrid, true) => (vec![2], vec![Topology::Linear], 200, 5_000),
        };
        SweepSpec {
            benches: vec![preset.to_string()],
            strategies: self.strategies(),
            clusters,
            topologies,
            insts,
            warmup,
        }
    }
}

/// One harness call: every cell of one preset.
struct Batch {
    jobs: Vec<Job>,
}

/// Records each cell's completion instant and host time. With one
/// worker and no store, cells complete in job order.
#[derive(Default)]
pub(crate) struct CellTimes(pub(crate) Vec<(Instant, Duration)>);

impl ProgressSink for CellTimes {
    fn batch_start(&mut self, _total: usize) {}
    fn cell_done(&mut self, _done: usize, _workload: &str, took: Duration) {
        self.0.push((Instant::now(), took));
    }
    fn batch_end(&mut self) {}
}

/// Generates preset `name`'s program and records how long it took, ms.
pub(crate) fn generate(name: &str, gen_ms: &mut Vec<f64>) -> Arc<Program> {
    let bench = Benchmark::by_name(name).expect("workload presets exist");
    let t = Instant::now();
    let program = Arc::new(bench.program());
    gen_ms.push(t.elapsed().as_secs_f64() * 1e3);
    program
}

/// Builds one pass: programs, plan expansion, jobs, seeded order.
fn plan(kind: Kind, opts: &Opts, gen_ms: &mut Vec<f64>) -> (Vec<Arc<Program>>, Vec<Batch>) {
    let mut rng = Pcg32::seed_from_u64(opts.seed);
    let mut programs = Vec::new();
    let mut batches = Vec::new();
    for preset in kind.presets(opts.smoke) {
        let program = generate(preset, gen_ms);
        let plan = kind
            .spec(preset, opts.smoke)
            .expand()
            .expect("workload grids are valid");
        let jobs = plan
            .jobs
            .into_iter()
            .map(|(name, cfg)| Job::new(name, Arc::clone(&program), cfg))
            .collect();
        programs.push(program);
        batches.push(Batch { jobs });
    }
    // The seed sets the order of presets and, where no checkpoint is
    // shared, the cell order inside each preset.
    shuffle(&mut batches, &mut rng);
    if kind != Kind::WarmupGrid {
        for b in &mut batches {
            shuffle(&mut b.jobs, &mut rng);
        }
    }
    (programs, batches)
}

/// The same pass at a tenth of the budgets: warms host caches, the
/// allocator and every code path without touching timed cells.
fn scaled_down(batches: &[Batch]) -> Vec<Batch> {
    batches
        .iter()
        .map(|b| Batch {
            jobs: b
                .jobs
                .iter()
                .map(|j| {
                    let mut cfg = j.config;
                    cfg.max_insts = (cfg.max_insts / 10).max(1);
                    cfg.warmup_insts /= 10;
                    Job::new(j.workload.clone(), Arc::clone(&j.program), cfg)
                })
                .collect(),
        })
        .collect()
}

/// Runs batches round-robin for `seconds` (and at least one full pass).
/// The calibration loop runs between batches; `between` is called after
/// each one with the loop's latest time, outside any timed interval.
///
/// End-to-end timings are scaled by the mean of the two loop times
/// around their batch ([`calib`]). Throughput is one pass at the median
/// scaled time of each batch, so the seed-dependent partial last pass
/// does not tilt the mix.
fn measure(
    batches: &[Batch],
    harness: &mut Harness,
    seconds: f64,
    tracer: &mut Tracer,
    reports: &mut Reports,
    between: &mut dyn FnMut(f64),
) -> Phase {
    let mut phase = Phase::default();
    let before = (
        harness.telemetry().get(Counter::HarnessRetries),
        harness.telemetry().get(Counter::HarnessJobFailures),
    );
    let mut walls: Vec<Vec<f64>> = vec![Vec::new(); batches.len()];
    let mut insts: Vec<u64> = vec![0; batches.len()];
    let mut spin = calib::loop_ms();
    phase.loop_ms.push(spin);
    let start = Instant::now();
    let mut next = 0;
    loop {
        let i = next % batches.len();
        let b = &batches[i];
        let mut sink = CellTimes::default();
        let t = Instant::now();
        let outcomes = harness.try_run_with_progress(&b.jobs, &mut sink);
        let end = Instant::now();
        let after = calib::loop_ms();
        phase.loop_ms.push(after);
        let speed = (spin + after) / 2.0;
        spin = after;
        walls[i].push(calib::scaled((end - t).as_secs_f64(), speed));
        let batch = tracer.record("harness.batch", 0, 0, t, end);
        phase.attempted += b.jobs.len() as u64;
        next += 1;
        if sink.0.len() != b.jobs.len() {
            // Cells can no longer be matched to their times.
            phase.failed += b.jobs.len() as u64;
            continue;
        }
        let mut last_program: Option<&Arc<Program>> = None;
        let mut batch_insts = 0;
        for ((job, outcome), &(done, took)) in b.jobs.iter().zip(&outcomes).zip(&sink.0) {
            tracer.record("sim.cell", batch, 0, done - took, done);
            phase
                .op_ms
                .push(calib::scaled(took.as_secs_f64() * 1e3, speed));
            phase.cells += 1;
            if job.config.warmup_insts > 0
                && !last_program.is_some_and(|p| Arc::ptr_eq(p, &job.program))
            {
                phase.captures += 1;
                phase.ff_insts += job.config.warmup_insts;
            }
            last_program = Some(&job.program);
            match outcome.report() {
                Some(r) => {
                    batch_insts += r.instructions;
                    let key = job.key();
                    phase
                        .sims
                        .push((key, reports.record(key, r), took.as_secs_f64()));
                }
                None => phase.failed += 1,
            }
        }
        insts[i] = batch_insts;
        between(spin);
        if next >= batches.len() && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    phase.wall_s = start.elapsed().as_secs_f64();
    let pass_s: f64 = walls.iter().map(|w| median(w)).sum();
    let pass_cells: usize = batches.iter().map(|b| b.jobs.len()).sum();
    phase.cells_per_s = pass_cells as f64 / pass_s;
    phase.sim_mips = insts.iter().sum::<u64>() as f64 / pass_s / 1e6;
    phase.retries = harness.telemetry().get(Counter::HarnessRetries) - before.0;
    phase.failures = harness.telemetry().get(Counter::HarnessJobFailures) - before.1;
    phase
}

/// The first report of every cell key, with its JSON, and how the
/// key's repeats compared with it: every repeat must be byte-identical.
#[derive(Default)]
struct Reports {
    first: HashMap<u64, (String, Arc<SimReport>)>,
    repeats: u64,
    diverged: u64,
}

impl Reports {
    /// Records a report of cell `key` and returns the key's first one,
    /// so repeats are held once however many times a cell runs.
    fn record(&mut self, key: u64, report: &SimReport) -> Arc<SimReport> {
        let json = report.to_json();
        if let Some((first_json, first)) = self.first.get(&key) {
            self.repeats += 1;
            if *first_json != json {
                self.diverged += 1;
            }
            return Arc::clone(first);
        }
        let first = Arc::new(report.clone());
        self.first.insert(key, (json, Arc::clone(&first)));
        first
    }

    fn get(&self, key: u64) -> Option<&SimReport> {
        self.first.get(&key).map(|(_, r)| r.as_ref())
    }

    /// Digest of every cell's report JSON in content-key order.
    fn digest(&self) -> u64 {
        let mut keys: Vec<&u64> = self.first.keys().collect();
        keys.sort_unstable();
        keys.into_iter().fold(FNV_OFFSET, |h, k| {
            let h = fnv1a(h, self.first[k].0.as_bytes());
            fnv1a(h, b"\n")
        })
    }
}

/// Figure 6's FDRT harmonic-mean speedup over the baseline, from one
/// pass of `detailed` reports.
fn fdrt_speedup_hm(batches: &[Batch], reports: &Reports) -> f64 {
    let speedups: Vec<f64> = batches
        .iter()
        .filter_map(|b| {
            let find = |name: &str| {
                b.jobs
                    .iter()
                    .find(|j| j.config.strategy.name() == name)
                    .and_then(|j| reports.get(j.key()))
            };
            Some(find("fdrt")?.speedup_over(find("base")?))
        })
        .collect();
    harmonic_mean(&speedups)
}

/// Runs one in-process workload.
pub fn run(kind: Kind, opts: &Opts) -> Outcome {
    let mut tracer = Tracer::new(opts.trace);
    // Set-up: program generation + plan expansion, scaled by the
    // calibration loop run just before it. The first one builds the plan
    // that runs; it is repeated after every timed batch, so its median
    // spans the whole run rather than its first milliseconds.
    let mut setup_s = Vec::new();
    let mut gen_ms = Vec::new();
    let mut set_up = |loop_ms: f64| {
        let t = Instant::now();
        let p = plan(kind, opts, &mut gen_ms);
        setup_s.push(calib::scaled(t.elapsed().as_secs_f64(), loop_ms));
        p
    };
    let (programs, batches) = set_up(calib::loop_ms());
    let mut again = |loop_ms| drop(set_up(loop_ms));
    let mut harness = Harness::new()
        .jobs(1)
        .progress(false)
        .attrib(kind == Kind::Attrib);

    let warm_phase = measure(
        &scaled_down(&batches),
        &mut harness,
        0.0,
        &mut Tracer::new(false),
        &mut Reports::default(),
        &mut |_| {},
    );

    let mut reports = Reports::default();
    let (untraced, traced) = if opts.trace {
        let half = opts.seconds / 2.0;
        let untraced = measure(
            &batches,
            &mut harness,
            half,
            &mut Tracer::new(false),
            &mut reports,
            &mut again,
        );
        let traced = measure(
            &batches,
            &mut harness,
            half,
            &mut tracer,
            &mut reports,
            &mut again,
        );
        (untraced, Some(traced))
    } else {
        let untraced = measure(
            &batches,
            &mut harness,
            opts.seconds,
            &mut Tracer::new(false),
            &mut reports,
            &mut again,
        );
        (untraced, None)
    };
    let mut out = Outcome {
        setup_s,
        gen_ms,
        peak_rss_mb: peak_rss_mb("self"),
        untraced,
        traced,
        tracer,
        ..Outcome::new(false)
    };
    out.check(
        warm_phase.failed == 0,
        format!(
            "warm pass: {} cells at a tenth of the budget, {} failed",
            warm_phase.attempted, warm_phase.failed
        ),
    );

    out.check(
        reports.diverged == 0,
        format!(
            "determinism: {} repeated cells, {} differ from their first run",
            reports.repeats, reports.diverged
        ),
    );
    let cells: usize = batches.iter().map(|b| b.jobs.len()).sum();
    let ran = reports.first.len();
    let d = reports.digest();
    if opts.smoke {
        out.check(ran == cells, format!("smoke: {ran} of {cells} cells ran"));
    } else {
        let want = DIGESTS
            .iter()
            .find(|(k, _)| *k == kind)
            .map_or(0, |&(_, d)| d);
        out.check(
            ran == cells && d == want,
            format!("digest {d:#018x} over {ran} cells (committed {want:#018x})"),
        );
    }
    if kind == Kind::Detailed {
        let hm = fdrt_speedup_hm(&batches, &reports);
        out.checks.push(format!(
            "info fdrt_speedup_hm {hm:.4} (simulated; paper {FDRT_HM_PAPER}, error {:+.1}%; \
             docs/results-300k.txt records {FDRT_HM_RECORDED})",
            (hm / FDRT_HM_PAPER - 1.0) * 100.0
        ));
    }

    if opts.trace {
        let sample = batches[0].jobs[0].config;
        let reports: Vec<(String, SimReport)> = batches
            .iter()
            .flat_map(|b| &b.jobs)
            .filter_map(|j| Some((j.workload.clone(), reports.get(j.key())?.clone())))
            .collect();
        let mut strategies = vec![Strategy::Baseline];
        strategies.extend(kind.strategies());
        let input = LayerInput {
            programs: &programs,
            strategies: &strategies,
            config: sample,
            reports: &reports,
            store: None,
            smoke: opts.smoke,
        };
        out.layers = Some(layers::costs(&input, &mut out.tracer));
        // The service rows come from a short serve_mixed probe over this
        // workload's presets. Tests skip it: there the running binary is
        // the test harness, which cannot be re-executed as the daemon.
        if !opts.smoke {
            let probe = serve::probe(&kind.presets(false), opts, &mut out);
            let t = out.traced.as_mut().expect("traced run");
            t.serve = probe.serve;
            t.attempted += probe.attempted;
            t.failed += probe.failed;
        }
    }
    out
}
