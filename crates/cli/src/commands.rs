//! Command execution: everything returns the text to print so it can be
//! asserted on in tests.

use crate::args::{
    AnalyzeArgs, Cli, CliError, ClientAction, ClientArgs, Command, ProgramSource, RunArgs,
    ServeArgs, StoreAction, StoreArgs, SweepArgs, TopArgs, TraceArgs, USAGE,
};
use crate::wire;
use ctcp_harness::{
    failure_table, CellScheduler, Harness, Job, JobOutcome, ProgressSink, ResultStore, Saturated,
    StderrProgress, SweepCell, SweepSpec,
};
use ctcp_isa::{asm, Program};
use ctcp_serve::{http, Handler, HandlerError, HandlerStats, RequestKind, RunResult, Service};
use ctcp_sim::{SimConfig, SimReport, Simulation, Strategy};
use ctcp_telemetry::json::Value;
use ctcp_telemetry::{
    chrome_trace_with_flows, metrics_line, validate_chrome_trace, PipeStage, Recorder,
    RecorderConfig, RetireSlotKind,
};
use ctcp_workload::Benchmark;
use std::collections::{HashMap, HashSet};
use std::io::Write;
use std::path::PathBuf;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

fn load_program(source: &ProgramSource) -> Result<Program, CliError> {
    match source {
        ProgramSource::Bench(name) => Benchmark::by_name(name)
            .map(|b| b.program())
            .ok_or_else(|| CliError(format!("unknown benchmark {name:?} (see `ctcp list`)"))),
        ProgramSource::AsmFile(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| CliError(format!("cannot read {path:?}: {e}")))?;
            asm::assemble(&text).map_err(|e| CliError(format!("{path}: {e}")))
        }
    }
}

/// The machine a sweep builds for the geometry of `args`
/// ([`SimConfig::machine`]), under the run's budgets and hop latency.
fn config(args: &RunArgs, strategy: Strategy) -> SimConfig {
    let mut c = SimConfig {
        max_insts: args.insts,
        warmup_insts: args.warmup,
        ..SimConfig::machine(strategy, args.clusters, args.topology)
    };
    c.engine.hop_latency = args.hop_latency;
    c
}

fn describe(source: &ProgramSource) -> String {
    match source {
        ProgramSource::Bench(n) => n.clone(),
        ProgramSource::AsmFile(p) => p.clone(),
    }
}

/// What a command produced: the text for stdout plus the exit code the
/// binary should end with.
///
/// Commands that partially fail — a sweep with crashed cells, a store
/// verify that finds corruption — still have output worth printing, so
/// they cannot be squeezed into `Result<String, CliError>`; the exit
/// code rides alongside the text instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliOutcome {
    /// Text to print to stdout.
    pub output: String,
    /// Process exit code: `0` on full success, `1` when any job of a
    /// batch failed or `store verify` found corruption.
    pub exit_code: i32,
}

impl CliOutcome {
    fn ok(output: String) -> CliOutcome {
        CliOutcome {
            output,
            exit_code: 0,
        }
    }
}

/// Executes a parsed command line and returns what to print together
/// with the exit code to end the process with.
///
/// # Errors
///
/// Returns a [`CliError`] for unknown benchmarks, unreadable or invalid
/// assembly files. Partial failures (crashed cells, store corruption)
/// are *not* errors: their output still renders, and the failure
/// surfaces through [`CliOutcome::exit_code`].
pub fn execute_outcome(cli: &Cli) -> Result<CliOutcome, CliError> {
    match &cli.command {
        Command::Sweep(args) => sweep(args),
        Command::Run(args) => {
            let report = if args.csv { csv_report } else { prose_report };
            one_shot(Harness::new(), args, &[args.strategy], |name, reports| {
                report(name, &reports[0])
            })
        }
        Command::Compare(args) => one_shot(Harness::new(), args, &COMPARED, |name, reports| {
            compare_table(name, args, reports)
        }),
        Command::Analyze(args) => {
            let harness = Harness::new().attrib_top(args.top);
            one_shot(harness, &args.run, &args.strategies, |name, reports| {
                analysis(name, args, reports)
            })
        }
        Command::Store(args) => store_cmd(args),
        Command::Serve(args) => serve_cmd(args),
        Command::Client(args) => client_cmd(args),
        Command::Top(args) => top_cmd(args),
        // The rest either fully succeed or fail with a `CliError`.
        Command::Help => Ok(CliOutcome::ok(USAGE.to_string())),
        Command::List => {
            let mut out = String::from("SPECint2000-class presets:\n");
            for b in Benchmark::spec_all() {
                out.push_str(&format!("  {}\n", b.name));
            }
            out.push_str("MediaBench-class presets:\n");
            for b in Benchmark::mediabench() {
                out.push_str(&format!("  {}\n", b.name));
            }
            Ok(CliOutcome::ok(out))
        }
        Command::Disasm(source) => {
            let program = load_program(source)?;
            Ok(CliOutcome::ok(asm::disassemble(&program)))
        }
        Command::Trace(args) => trace(args).map(CliOutcome::ok),
    }
}

/// The strategies `ctcp compare` runs, baseline first: every speedup
/// is taken over the first report.
const COMPARED: [Strategy; 5] = [
    Strategy::Baseline,
    Strategy::IssueTime { latency: 0 },
    Strategy::IssueTime { latency: 4 },
    Strategy::Friendly { middle_bias: false },
    Strategy::Fdrt { pinning: true },
];

/// Runs one cell per strategy through `harness` and renders the
/// reports, in strategy order, with `render(name, reports)`. Every job
/// is the source's program, shared, under `config(args, strategy)`,
/// named after the source. As in a sweep, a cell that fails does not
/// abort the batch: when any did, the output is the harness's failure
/// table and the exit code 1.
fn run_cells(
    args: &RunArgs,
    strategies: &[Strategy],
    harness: &mut Harness,
    progress: &mut dyn ProgressSink,
    render: impl FnOnce(&str, &[SimReport]) -> String,
) -> Result<CliOutcome, BatchError> {
    let program = Arc::new(load_program(&args.source)?);
    let name = describe(&args.source);
    let jobs: Vec<Job> = strategies
        .iter()
        .map(|&s| Job::new(name.as_str(), Arc::clone(&program), config(args, s)))
        .collect();
    let outcomes = harness
        .try_run_admitted(&jobs, progress)
        .map_err(BatchError::Saturated)?;
    if let Some(table) = failure_table(&outcomes) {
        return Ok(CliOutcome {
            output: table,
            exit_code: 1,
        });
    }
    let reports: Vec<SimReport> = outcomes
        .iter()
        .flat_map(JobOutcome::report)
        .cloned()
        .collect();
    Ok(CliOutcome::ok(render(&name, &reports)))
}

/// [`run_cells`] for a one-shot command: the batch runs on `harness`'s
/// own pool and draws its stderr status line on a terminal.
fn one_shot(
    mut harness: Harness,
    args: &RunArgs,
    strategies: &[Strategy],
    render: impl FnOnce(&str, &[SimReport]) -> String,
) -> Result<CliOutcome, CliError> {
    let mut progress = StderrProgress::new(None);
    let outcome = run_cells(args, strategies, &mut harness, &mut progress, render);
    Ok(outcome?)
}

/// `ctcp compare`'s table: one row per report, each speedup over the
/// first (the baseline, whose own speedup is therefore 1).
fn compare_table(name: &str, args: &RunArgs, reports: &[SimReport]) -> String {
    let base = &reports[0];
    let mut out = String::new();
    if args.csv {
        out.push_str("strategy,ipc,speedup,intra_cluster,distance\n");
    } else {
        out.push_str(&format!(
            "{name} — {} instructions, {} clusters\n",
            base.instructions, args.clusters
        ));
        out.push_str(&format!(
            "{:<16}{:>8}{:>10}{:>14}{:>10}\n",
            "strategy", "ipc", "speedup", "intra-fwd", "distance"
        ));
    }
    for r in reports {
        let (s, ipc, speedup, fwd) = (&r.strategy, r.ipc, r.speedup_over(base), &r.metrics.fwd);
        let (intra, hops) = (fwd.intra_cluster_fraction(), fwd.mean_distance());
        let pct = 100.0 * intra;
        out.push_str(&if args.csv {
            format!("{s},{ipc:.4},{speedup:.4},{intra:.4},{hops:.4}\n")
        } else {
            format!("{s:<16}{ipc:>8.3}{speedup:>10.3}{pct:>13.1}%{hops:>10.2}\n")
        });
    }
    out
}

/// Runs one strategy with a live [`Recorder`] attached, exports the
/// pipeline event trace as Chrome trace-event JSON (loadable in
/// `about://tracing` or Perfetto), optionally dumps the counters and
/// histograms as JSONL, and — with `--check` — validates the exported
/// file and reconciles its counters against the simulation report.
fn trace(args: &TraceArgs) -> Result<String, CliError> {
    let program = load_program(&args.run.source)?;
    let name = describe(&args.run.source);
    let recorder = Rc::new(Recorder::new(RecorderConfig {
        event_capacity: args.events,
        sample_every: args.sample,
    }));
    let r = Simulation::builder(&program)
        .config(config(&args.run, args.run.strategy))
        .recorder(Rc::clone(&recorder))
        .build()
        .map_err(|e| CliError(format!("invalid configuration: {e}")))?
        .try_run()
        .map_err(|e| CliError(e.to_string()))?;

    let events = recorder.events();
    // A flow arrow needs its consumer's retire span to anchor to; drop
    // flows whose instruction fell out of the event ring, so the
    // exported file always satisfies the --check pairing rules.
    let retired: HashSet<u64> = events
        .iter()
        .filter(|e| e.stage == PipeStage::Retire)
        .map(|e| e.seq)
        .collect();
    let mut flows = recorder.flows();
    flows.retain(|f| retired.contains(&f.seq));
    let chrome = chrome_trace_with_flows(&events, &flows);
    std::fs::write(&args.out, &chrome)
        .map_err(|e| CliError(format!("cannot write {:?}: {e}", args.out)))?;
    let metrics = recorder.metrics();

    let mut out = String::new();
    out.push_str(&format!(
        "{name} under {} — {} instructions, {} cycles, IPC {:.3}
",
        r.strategy, r.instructions, r.cycles, r.ipc
    ));
    out.push_str(&format!(
        "trace: {} spans ({} dropped), {} inter-cluster flows -> {}
",
        events.len(),
        recorder.dropped_events(),
        flows.len(),
        args.out
    ));
    if let Some(path) = &args.metrics_out {
        let line = metrics_line(&name, &r.strategy, &metrics);
        std::fs::write(
            path,
            format!(
                "{line}
"
            ),
        )
        .map_err(|e| CliError(format!("cannot write {path:?}: {e}")))?;
        out.push_str(&format!(
            "metrics: counters and histograms -> {path}
"
        ));
    }
    if args.check {
        let summary = validate_chrome_trace(&chrome)
            .map_err(|e| CliError(format!("invalid chrome trace: {e}")))?;
        r.reconcile(&metrics).map_err(CliError)?;
        out.push_str(&format!(
            "check: valid trace ({} spans, {} lanes, {} flows), counters reconcile with the report
",
            summary.spans, summary.lanes, summary.flows
        ));
    }
    Ok(out)
}

/// `ctcp analyze`'s rendering of one attributed report per strategy
/// (from a harness that attributes with `--top`'s edge count): per
/// strategy, the retirement-driven CPI stack, per-cluster utilization,
/// and the top critical-path edges with the fraction of critical edges
/// that cross clusters.
fn analysis(name: &str, args: &AnalyzeArgs, reports: &[SimReport]) -> String {
    if args.json {
        analyze_json(name, args, reports)
    } else if args.run.csv {
        analyze_csv(name, reports)
    } else {
        analyze_prose(name, args, reports)
    }
}

fn analyze_json(name: &str, args: &AnalyzeArgs, results: &[SimReport]) -> String {
    use ctcp_sim::json::Value;
    let strategies: Vec<Value> = results
        .iter()
        .map(|r| {
            let a = r.attrib.as_ref().expect("analyze attaches attribution");
            let clusters = usize::from(args.run.clusters);
            let per_cluster: Vec<Value> = r.metrics.engine.executed_per_cluster[..clusters]
                .iter()
                .map(|&n| Value::u64(n))
                .collect();
            Value::Obj(vec![
                ("strategy".into(), Value::str(&r.strategy)),
                ("cycles".into(), Value::u64(r.cycles)),
                ("instructions".into(), Value::u64(r.instructions)),
                ("ipc".into(), Value::f64(r.ipc)),
                ("executed_per_cluster".into(), Value::Arr(per_cluster)),
                ("attrib".into(), a.to_value()),
            ])
        })
        .collect();
    let mut text = Value::Obj(vec![
        ("bench".into(), Value::str(name)),
        ("strategies".into(), Value::Arr(strategies)),
    ])
    .render();
    text.push('\n');
    text
}

fn analyze_csv(name: &str, results: &[SimReport]) -> String {
    let mut out = String::from(
        "bench,strategy,cycles,ipc,base,inter_cluster,rs_dispatch,fetch,\
         branch_mispredict,memory,cross_cluster\n",
    );
    for r in results {
        let a = r.attrib.as_ref().expect("analyze attaches attribution");
        out.push_str(&format!("{name},{},{},{:.4}", r.strategy, r.cycles, r.ipc));
        for kind in RetireSlotKind::ALL {
            out.push_str(&format!(",{:.4}", a.stack.fraction(kind)));
        }
        out.push_str(&format!(",{:.4}\n", a.critical.cross_fraction()));
    }
    out
}

fn analyze_prose(name: &str, args: &AnalyzeArgs, results: &[SimReport]) -> String {
    let mut out = format!(
        "{name} — cycle attribution, {} clusters, {} instruction budget\n",
        args.run.clusters, args.run.insts
    );
    for r in results {
        let a = r.attrib.as_ref().expect("analyze attaches attribution");
        out.push_str(&format!(
            "\n{}: {} cycles, IPC {:.3}\n",
            r.strategy, r.cycles, r.ipc
        ));
        out.push_str("  CPI stack (fraction of retire slots):\n");
        for kind in RetireSlotKind::ALL {
            out.push_str(&format!(
                "    {:<18}{:>6.1}%\n",
                kind.name(),
                100.0 * a.stack.fraction(kind)
            ));
        }
        let executed = &r.metrics.engine.executed_per_cluster[..usize::from(args.run.clusters)];
        let total: u64 = executed.iter().sum();
        out.push_str("  cluster utilization:");
        for (ci, &n) in executed.iter().enumerate() {
            let share = if total == 0 {
                0.0
            } else {
                100.0 * n as f64 / total as f64
            };
            out.push_str(&format!(" c{ci} {share:.0}%"));
        }
        out.push('\n');
        out.push_str(&format!(
            "  critical path: {} edges, {:.1}% cross-cluster\n",
            a.critical.edges,
            100.0 * a.critical.cross_fraction()
        ));
        for e in &a.critical.top {
            out.push_str(&format!(
                "    {:#06x} -> {:#06x}  {} hop{}  {}x\n",
                e.from_pc,
                e.to_pc,
                e.hops,
                if e.hops == 1 { "" } else { "s" },
                e.count
            ));
        }
    }
    out
}

/// Resolves `--benches` values: suite keywords or explicit names.
fn resolve_benches(names: &[String]) -> Result<Vec<Benchmark>, CliError> {
    match names {
        [kw] if kw == "spec" => return Ok(Benchmark::spec_all()),
        [kw] if kw == "media" => return Ok(Benchmark::mediabench()),
        [kw] if kw == "all" => {
            let mut all = Benchmark::spec_all();
            all.extend(Benchmark::mediabench());
            return Ok(all);
        }
        _ => {}
    }
    names
        .iter()
        .map(|n| {
            Benchmark::by_name(n)
                .ok_or_else(|| CliError(format!("unknown benchmark {n:?} (see `ctcp list`)")))
        })
        .collect()
}

/// Runs the full strategies × benchmarks × geometries grid through the
/// harness and renders one row per cell, with each cell's speedup taken
/// against the baseline of its own benchmark × geometry.
///
/// Failed cells don't sink the sweep: every cell whose own job *and*
/// baseline both produced a report still renders, a failure table is
/// appended after the normal output, and the exit code goes non-zero.
fn sweep(args: &SweepArgs) -> Result<CliOutcome, CliError> {
    let mut harness = Harness::new().jobs(args.jobs).attrib(args.attrib);
    if let Some(path) = &args.metrics_out {
        harness = harness.metrics_out(path);
    }
    if args.cache {
        match ResultStore::open(ResultStore::default_dir()) {
            Ok(store) => harness = harness.with_store(store),
            Err(e) => eprintln!("warning: result store unavailable ({e}); not caching"),
        }
    }
    // The default sink reproduces the historical stderr status line
    // byte for byte (auto-enabled only when stderr is a terminal).
    let mut sink = StderrProgress::new(None);
    Ok(run_sweep(args, &mut harness, &mut sink)?)
}

/// Why a batch ([`run_sweep`], [`run_cells`]) stopped: an ordinary CLI
/// error (bad benchmark, bad grid) rendered in-band, or a typed
/// admission refusal from the shared scheduler that the daemon must
/// turn into a `503` *before* anything has been streamed.
enum BatchError {
    Cli(CliError),
    Saturated(Saturated),
}

impl From<CliError> for BatchError {
    fn from(e: CliError) -> BatchError {
        BatchError::Cli(e)
    }
}

impl From<BatchError> for CliError {
    fn from(e: BatchError) -> CliError {
        match e {
            BatchError::Cli(e) => e,
            // One-shot batches run on the harness's own unbounded pool,
            // so admission can never refuse them; keep the arm total.
            BatchError::Saturated(s) => CliError(format!("rejected: {s}")),
        }
    }
}

/// The sweep body shared by the one-shot command and the resident
/// service: builds the grid, runs it through `harness` (whose worker
/// count, store, and attribution mode the caller has already
/// configured), and renders the tables. Per-cell progress goes to
/// `sink`; the rendering itself is progress-free, so the output is
/// byte-identical however the batch was watched.
fn run_sweep(
    args: &SweepArgs,
    harness: &mut Harness,
    sink: &mut dyn ProgressSink,
) -> Result<CliOutcome, BatchError> {
    let benches = resolve_benches(&args.spec.benches)?;

    // Resolve suite keywords into explicit names, then let the spec
    // unroll the grid — the same expansion every surface (CLI, wire,
    // harness) agrees on, including the geometry scaling per cell.
    let spec = SweepSpec {
        benches: benches.iter().map(|b| b.name.to_string()).collect(),
        ..args.spec.clone()
    };
    let plan = spec.expand().map_err(|e| CliError(e.to_string()))?;
    let programs: HashMap<&str, Arc<Program>> = benches
        .iter()
        .map(|b| (b.name, Arc::new(b.program())))
        .collect();
    let jobs: Vec<Job> = plan
        .jobs
        .iter()
        .map(|(bench, cfg)| Job::new(bench.clone(), Arc::clone(&programs[bench.as_str()]), *cfg))
        .collect();
    let cells = &plan.cells;

    let outcomes = harness
        .try_run_admitted(&jobs, sink)
        .map_err(BatchError::Saturated)?;

    let mut out = String::new();
    if args.csv {
        out.push_str("bench,clusters,topology,strategy,ipc,speedup\n");
        for c in cells {
            let (Some(r), Some(base)) = (outcomes[c.job].report(), outcomes[c.base_job].report())
            else {
                continue; // this cell is in the failure table instead
            };
            out.push_str(&format!(
                "{},{},{},{},{:.4},{:.4}\n",
                c.bench,
                c.clusters,
                wire::topology_cli_name(c.topology),
                r.strategy,
                r.ipc,
                r.speedup_over(base)
            ));
        }
    } else {
        let stats = harness.last_batch();
        out.push_str(&format!(
            "sweep: {} cells ({} simulated, {} from store) in {:.1}s\n",
            stats.total,
            stats.simulated,
            stats.store_hits,
            stats.wall.as_secs_f64()
        ));
        out.push_str(&format!(
            "{:<12}{:>9}{:>9}{:<2}{:<16}{:>8}{:>10}\n",
            "bench", "clusters", "topology", "", "strategy", "ipc", "speedup"
        ));
        for c in cells {
            let (Some(r), Some(base)) = (outcomes[c.job].report(), outcomes[c.base_job].report())
            else {
                continue; // this cell is in the failure table instead
            };
            out.push_str(&format!(
                "{:<12}{:>9}{:>9}{:<2}{:<16}{:>8.3}{:>10.3}\n",
                c.bench,
                c.clusters,
                wire::topology_cli_name(c.topology),
                "",
                r.strategy,
                r.ipc,
                r.speedup_over(base)
            ));
        }
    }
    if args.attrib {
        // The attribution table: one row per cell (baselines included,
        // once per benchmark × geometry), CPI-stack fractions plus the
        // share of critical-path edges that cross clusters.
        let mut printed_base: HashSet<usize> = HashSet::new();
        let mut rows: Vec<(&SweepCell, usize, bool)> = Vec::new();
        for c in cells {
            if printed_base.insert(c.base_job) {
                rows.push((c, c.base_job, true));
            }
            rows.push((c, c.job, false));
        }
        if args.csv {
            out.push_str(
                "\nbench,clusters,topology,strategy,cycles,base,inter_cluster,\
                 rs_dispatch,fetch,branch_mispredict,memory,cross_cluster\n",
            );
        } else {
            out.push_str(
                "\nattribution (fraction of retire slots; xedges = critical-path \
                 edges crossing clusters):\n",
            );
            out.push_str(&format!(
                "{:<12}{:>9}{:>9}{:<2}{:<16}{:>7}{:>7}{:>7}{:>7}{:>7}{:>7}{:>8}\n",
                "bench",
                "clusters",
                "topology",
                "",
                "strategy",
                "base",
                "xdelay",
                "rs",
                "fetch",
                "bmiss",
                "mem",
                "xedges"
            ));
        }
        for (c, job, _is_base) in rows {
            let Some(r) = outcomes[job].report() else {
                continue; // this cell is in the failure table instead
            };
            let Some(a) = r.attrib.as_ref() else {
                continue; // defensive: attrib batches always attach one
            };
            if args.csv {
                out.push_str(&format!(
                    "{},{},{},{},{}",
                    c.bench,
                    c.clusters,
                    wire::topology_cli_name(c.topology),
                    r.strategy,
                    r.cycles
                ));
                for kind in RetireSlotKind::ALL {
                    out.push_str(&format!(",{:.4}", a.stack.fraction(kind)));
                }
                out.push_str(&format!(",{:.4}\n", a.critical.cross_fraction()));
            } else {
                out.push_str(&format!(
                    "{:<12}{:>9}{:>9}{:<2}{:<16}",
                    c.bench,
                    c.clusters,
                    wire::topology_cli_name(c.topology),
                    "",
                    r.strategy
                ));
                for kind in RetireSlotKind::ALL {
                    out.push_str(&format!("{:>6.1}%", 100.0 * a.stack.fraction(kind)));
                }
                out.push_str(&format!("{:>7.1}%\n", 100.0 * a.critical.cross_fraction()));
            }
        }
    }
    // On the all-success path this appends nothing, keeping the output
    // byte-identical to a fault-free sweep.
    let mut exit_code = 0;
    if let Some(table) = failure_table(&outcomes) {
        out.push_str(&table);
        exit_code = 1;
    }
    Ok(CliOutcome {
        output: out,
        exit_code,
    })
}

/// Executes `ctcp store verify|compact|gc`.
fn store_cmd(args: &StoreArgs) -> Result<CliOutcome, CliError> {
    let dir = args
        .dir
        .as_ref()
        .map(PathBuf::from)
        .unwrap_or_else(ResultStore::default_dir);
    let io_err = |e: std::io::Error| CliError(format!("store {}: {e}", dir.display()));
    match args.action {
        StoreAction::Verify => {
            let r = ctcp_harness::verify(&dir).map_err(io_err)?;
            let output = format!(
                "store {}: {} lines — {} valid ({} entries), {} stale, {} corrupt\n",
                dir.display(),
                r.lines,
                r.valid,
                r.entries,
                r.stale,
                r.corrupt
            );
            Ok(CliOutcome {
                output,
                exit_code: i32::from(r.corrupt > 0),
            })
        }
        StoreAction::Compact => {
            let r = ctcp_harness::compact(&dir).map_err(io_err)?;
            Ok(CliOutcome::ok(format!(
                "store {}: kept {} lines ({} superseded, {} stale dropped, {} quarantined)\n",
                dir.display(),
                r.kept,
                r.superseded,
                r.stale,
                r.quarantined
            )))
        }
        StoreAction::Gc => {
            let r = ctcp_harness::gc(&dir).map_err(io_err)?;
            let c = r.compact;
            Ok(CliOutcome::ok(format!(
                "store {}: kept {} lines ({} superseded, {} stale dropped, {} quarantined); \
                 quarantine cleared ({} bytes)\n",
                dir.display(),
                c.kept,
                c.superseded,
                c.stale,
                c.quarantined,
                r.quarantine_bytes
            )))
        }
    }
}

/// A request the daemon could not run (bad body, unknown benchmark):
/// reported in-band as a failed result, the same exit code the
/// one-shot CLI uses for argument errors.
fn error_result(e: CliError) -> RunResult {
    RunResult {
        output: format!("error: {e}\n"),
        exit_code: 2,
        cache_hits: 0,
        simulated: 0,
    }
}

/// The execution backend behind `ctcp serve`: one shared
/// [`CellScheduler`] (the resident worker pool every client's cells
/// interleave on, fairly) and one shared [`ResultStore`] (the warm
/// cache). Both are cheap `Clone` handles, so each request builds a
/// throwaway [`Harness`] around them on its own batch thread — `run`
/// takes `&self` and requests execute concurrently.
struct CliHandler {
    store: ResultStore,
    sched: CellScheduler,
}

impl Handler for CliHandler {
    fn run(
        &self,
        kind: RequestKind,
        body: &Value,
        progress: &mut dyn ProgressSink,
    ) -> Result<RunResult, HandlerError> {
        // Degraded store: new batches would run without memoizing, so
        // refuse them with a retry hint. The store re-probes the disk
        // on its own schedule.
        if self.store.read_only() {
            return Err(HandlerError::Unavailable {
                retry_after_secs: 1,
            });
        }
        // A fresh per-request harness over the shared pool, whose cells
        // interleave fairly with every other request's and count against
        // `--max-queue`. A sweep's also memoizes through the shared
        // store, so warm cells never queue and a re-POSTed batch finds
        // the cells that finished before a cut or a crash. An analysis
        // keeps no store: a store line does not say how many edges it kept.
        let harness = Harness::new().with_scheduler(self.sched.clone());
        let (harness, outcome) = match kind {
            RequestKind::Sweep => match wire::sweep_from_json(body) {
                Ok(args) => {
                    let mut harness = harness.attrib(args.attrib).with_store(self.store.clone());
                    let outcome = run_sweep(&args, &mut harness, progress);
                    (harness, outcome)
                }
                Err(e) => return Ok(error_result(e)),
            },
            RequestKind::Analyze => match wire::analyze_from_json(body) {
                Ok(args) => {
                    let mut harness = harness.attrib_top(args.top);
                    let render = |name: &str, reports: &[SimReport]| analysis(name, &args, reports);
                    let outcome =
                        run_cells(&args.run, &args.strategies, &mut harness, progress, render);
                    (harness, outcome)
                }
                Err(e) => return Ok(error_result(e)),
            },
        };
        match outcome {
            Ok(outcome) => {
                let stats = harness.last_batch();
                Ok(RunResult {
                    output: outcome.output,
                    exit_code: outcome.exit_code,
                    cache_hits: stats.store_hits as u64,
                    simulated: stats.simulated as u64,
                })
            }
            Err(BatchError::Saturated(s)) => Err(HandlerError::Saturated {
                queued: s.queued,
                wanted: s.wanted,
                limit: s.limit,
            }),
            Err(BatchError::Cli(e)) => Ok(error_result(e)),
        }
    }

    fn stats(&self) -> HandlerStats {
        let s = self.sched.stats();
        HandlerStats {
            workers: s.workers,
            queued_cells: s.queued,
            running_cells: s.running,
            respawns: s.respawns,
            poisoned: s.poisoned,
            checkpoint_captures: s.checkpoint_captures,
            checkpoint_hits: s.checkpoint_hits,
            checkpoint_bytes: s.checkpoint_bytes,
            read_only: self.store.read_only(),
            store_entries: self.store.stats().entries as u64,
        }
    }

    fn quiesce(&self) {
        self.sched.shutdown();
    }
}

/// Executes `ctcp serve`: binds the address, prints it (port 0 binds
/// an ephemeral port, so scripts parse this line), and blocks serving
/// requests until a client asks for shutdown. The returned output is
/// the post-drain summary.
fn serve_cmd(args: &ServeArgs) -> Result<CliOutcome, CliError> {
    // Logging is configured before anything can emit (the level
    // defaults to warn), and a bad --log-file is a startup error
    // rather than a silent fallback to stderr.
    if let Some(level) = &args.log_level {
        let parsed = ctcp_telemetry::log::Level::parse(level)
            .ok_or_else(|| CliError(format!("bad --log-level value {level:?}")))?;
        ctcp_telemetry::log::set_level(parsed);
    }
    if let Some(path) = &args.log_file {
        ctcp_telemetry::log::set_file(path)
            .map_err(|e| CliError(format!("cannot open log file {path}: {e}")))?;
    }
    let dir = args
        .dir
        .as_ref()
        .map(PathBuf::from)
        .unwrap_or_else(ResultStore::default_dir);
    let store = ResultStore::open(&dir)
        .map_err(|e| CliError(format!("cannot open result store {}: {e}", dir.display())))?;
    // One resident worker pool for the daemon's lifetime; every
    // client's cells interleave on it round-robin, and `--max-queue`
    // bounds how much work admission control will accept at once.
    let sched = CellScheduler::start(args.jobs, args.max_queue);
    let service = Service::bind(&args.addr, Box::new(CliHandler { store, sched }))
        .map_err(|e| CliError(format!("cannot bind {}: {e}", args.addr)))?;
    // Printed and flushed before blocking, not returned with the
    // command's output: clients need the address while the daemon runs.
    println!("ctcp serve: listening on {}", service.local_addr());
    let _ = std::io::stdout().flush();
    // Service::run quiesces the handler — and through it the shared
    // pool — after the last connection and batch threads are joined, so
    // every admitted cell has run and memoized by the time this returns.
    let last = service
        .run()
        .map_err(|e| CliError(format!("serve failed: {e}")))?;
    let n = |name: &str| last.count(&format!("counters.serve_{name}"));
    Ok(CliOutcome::ok(format!(
        "ctcp serve: drained after {} requests ({} concurrent, {} cache hits, \
         {} rejected, {} streams resumed, {} worker respawns, {} cells poisoned)\n",
        n("requests"),
        n("queued"),
        n("cache_hits"),
        n("rejected"),
        n("resumed_streams"),
        n("worker_respawns"),
        n("cells_poisoned")
    )))
}

/// Executes `ctcp client`: one request to a running daemon. Batch
/// actions stream progress to stderr as it arrives and return the
/// daemon's rendered output (and exit code) as the command's own.
fn client_cmd(args: &ClientArgs) -> Result<CliOutcome, CliError> {
    let addr = args.addr.as_str();
    let retry = Reconnect {
        retries: args.retries,
        backoff_ms: args.backoff_ms,
    };
    match &args.action {
        ClientAction::Status => client_document(addr, "GET", "/status"),
        ClientAction::Shutdown => client_document(addr, "POST", "/shutdown"),
        ClientAction::Sweep(sweep) => {
            client_batch(addr, "/sweep", &wire::sweep_to_json(sweep), retry)
        }
        ClientAction::Analyze(analyze) => {
            client_batch(addr, "/analyze", &wire::analyze_to_json(analyze)?, retry)
        }
    }
}

/// The client's reconnect policy: how many times to retry a batch
/// request, and the base delay the exponential backoff grows from.
#[derive(Clone, Copy)]
struct Reconnect {
    retries: u32,
    backoff_ms: u64,
}

impl Reconnect {
    /// The jittered exponential delay before retry `attempt` (0-based):
    /// uniformly in `[d/2, d]` for `d = backoff_ms << attempt`, capped
    /// at 10s so a long outage never strands the client asleep.
    fn delay(self, attempt: u32, rng: &mut u64) -> Duration {
        let d = self
            .backoff_ms
            .saturating_mul(1 << attempt.min(16))
            .min(10_000);
        // xorshift64: no randomness crates in the workspace, and the
        // only requirement is decorrelating a reconnect herd.
        *rng ^= *rng << 13;
        *rng ^= *rng >> 7;
        *rng ^= *rng << 17;
        Duration::from_millis(d / 2 + *rng % (d / 2 + 1))
    }
}

/// A jitter seed unique per process and moment; quality is irrelevant,
/// only herd decorrelation.
fn jitter_seed() -> u64 {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.subsec_nanos())
        .unwrap_or(0);
    u64::from(nanos) ^ (u64::from(std::process::id()) << 32) | 1
}

/// A single-document request (`status`, `shutdown`): the whole body is
/// the output.
fn client_document(addr: &str, method: &str, path: &str) -> Result<CliOutcome, CliError> {
    let resp = http::request(addr, method, path, b"", &mut |_| {})
        .map_err(|e| CliError(format!("cannot reach a daemon at {addr}: {e}")))?;
    let mut output = String::from_utf8_lossy(&resp.body).into_owned();
    if resp.status != 200 {
        return Err(CliError(format!(
            "daemon at {addr} answered {}: {}",
            resp.status,
            output.trim()
        )));
    }
    if !output.ends_with('\n') {
        output.push('\n');
    }
    Ok(CliOutcome::ok(output))
}

/// Executes `ctcp top`: a live terminal dashboard over a running
/// daemon, redrawn every `--interval-ms` from one `GET /status` (queue,
/// rolling rates, lifetime counters, live requests, recent logs).
/// `--once` renders a single frame with no screen control and exits —
/// the scriptable form.
fn top_cmd(args: &TopArgs) -> Result<CliOutcome, CliError> {
    let frame = || -> Result<String, CliError> {
        let resp = http::request(&args.addr, "GET", "/status", b"", &mut |_| {})
            .map_err(|e| CliError(format!("cannot reach a daemon at {}: {e}", args.addr)))?;
        if resp.status != 200 {
            return Err(CliError(format!(
                "daemon at {} answered {} for /status",
                args.addr, resp.status
            )));
        }
        let status = Value::parse(&String::from_utf8_lossy(&resp.body))
            .map_err(|e| CliError(format!("bad /status document: {e}")))?;
        Ok(render_top_frame(&args.addr, &status))
    };
    if args.once {
        return Ok(CliOutcome::ok(frame()?));
    }
    loop {
        // Clear-and-home per redraw; plain ANSI so there is nothing to
        // depend on. A vanished daemon ends the session cleanly.
        let f = match frame() {
            Ok(f) => f,
            Err(e) => return Ok(CliOutcome::ok(format!("ctcp top: {e}\n"))),
        };
        print!("\x1b[2J\x1b[H{f}");
        let _ = std::io::stdout().flush();
        std::thread::sleep(Duration::from_millis(args.interval_ms));
    }
}

/// A one-terminal-screen summary of a daemon's health: utilization
/// bar, rolling rates, per-request progress table, backend gauges and
/// the recent warn/error tail. Pure text in, text out — unit-testable
/// without a daemon.
fn render_top_frame(addr: &str, status: &Value) -> String {
    let g_u64 = |v: &Value, k: &str| v.get(k).and_then(Value::as_u64).unwrap_or(0);
    let g_f64 = |v: &Value, k: &str| v.get(k).and_then(Value::as_f64).unwrap_or(0.0);
    let bar = |filled: u64, total: u64, width: usize| -> String {
        let n = if total == 0 {
            0
        } else {
            (filled as usize * width)
                .div_ceil(total as usize)
                .min(width)
        };
        format!("[{}{}]", "#".repeat(n), "-".repeat(width - n))
    };
    let total = |name: &str| status.get("counters").map_or(0, |c| g_u64(c, name));

    let workers = g_u64(status, "workers");
    let running = g_u64(status, "running_cells");
    let queued = g_u64(status, "queued_cells");
    let mut out = format!("ctcp top — daemon {addr}\n\n");
    out.push_str(&format!(
        "workers {} {running}/{workers} busy   queued {queued}   in-flight {}\n",
        bar(running, workers, 20),
        g_u64(status, "in_flight")
    ));
    if let Some(roll) = status.get("rolling") {
        out.push_str(&format!(
            "rolling {:.1} cells/s over {}s   req p95 {} ms   cell p95 {} ms   {} request(s)\n",
            g_f64(roll, "cells_per_sec"),
            g_u64(roll, "window_s"),
            g_u64(roll, "p95_ms"),
            g_u64(roll, "cell_p95_ms"),
            g_u64(roll, "requests"),
        ));
    }
    out.push_str(&format!(
        "totals  {} requests   {} cache hits   {} rejected   {} respawns   {} poisoned\n",
        total("serve_requests"),
        total("serve_cache_hits"),
        total("serve_rejected"),
        total("serve_worker_respawns"),
        total("serve_cells_poisoned"),
    ));
    if let Some(gauges) = status.get("gauges") {
        out.push_str(&format!(
            "store   {} entries\n",
            g_u64(gauges, "store_entries")
        ));
    }
    match status.get("requests") {
        Some(Value::Arr(items)) if !items.is_empty() => {
            out.push_str(&format!("\nlive requests ({})\n", items.len()));
            out.push_str("  TOKEN             KIND     AGE   PROGRESS\n");
            for r in items {
                let done = g_u64(r, "cells_done");
                let total = g_u64(r, "cells_total");
                out.push_str(&format!(
                    "  {:<17} {:<8} {:>4}s {} {done}/{total}\n",
                    r.get("token").and_then(Value::as_str).unwrap_or("?"),
                    r.get("kind").and_then(Value::as_str).unwrap_or("?"),
                    g_u64(r, "age_s"),
                    bar(done, total, 10),
                ));
            }
        }
        _ => out.push_str("\nno live requests\n"),
    }
    if let Some(Value::Arr(logs)) = status.get("recent_logs") {
        if !logs.is_empty() {
            out.push_str(&format!("\nrecent warnings ({})\n", logs.len()));
            for l in logs.iter().rev().take(5) {
                out.push_str(&format!(
                    "  {:<5} {} {}\n",
                    l.get("level").and_then(Value::as_str).unwrap_or("?"),
                    l.get("msg").and_then(Value::as_str).unwrap_or("?"),
                    l.get("token").and_then(Value::as_str).unwrap_or(""),
                ));
            }
        }
    }
    out
}

/// One batch stream's client-side state, carried across re-POSTs: the
/// run id from the daemon's `accepted` handshake, how many events that
/// run has already delivered and the client handled, and the terminal
/// `result`/`error` once seen.
#[derive(Default)]
struct ClientStream {
    pending: String,
    run: u64,
    /// Events handled under `run`: the most any one connection to it
    /// delivered after its handshake.
    have: u64,
    /// Events the current connection delivered after its handshake.
    seen: u64,
    result: Option<(String, i32)>,
    error: Option<String>,
}

impl ClientStream {
    /// Buffers one chunk and handles every complete NDJSON line, and
    /// returns the progress lines to print. Chunk boundaries are not
    /// guaranteed to align with events, and a torn final line (a
    /// mid-event disconnect) is left unhandled, so `have` never counts
    /// a half-delivered event.
    fn chunk(&mut self, chunk: &[u8]) -> Vec<String> {
        self.pending.push_str(&String::from_utf8_lossy(chunk));
        let mut print = Vec::new();
        while let Some(nl) = self.pending.find('\n') {
            let line: String = self.pending.drain(..=nl).collect();
            print.extend(self.event(line.trim()));
        }
        print
    }

    /// Handles one event line; returns the line to print for a
    /// `progress` event this run has not delivered before.
    fn event(&mut self, line: &str) -> Option<String> {
        let Ok(v) = Value::parse(line) else {
            return None; // tolerate unknown framing rather than aborting the stream
        };
        if v.get("event").and_then(Value::as_str) == Some("accepted") {
            // Each connection's handshake starts its count anew; a new
            // run (a restarted daemon) has delivered nothing yet.
            let run = v.get("run").and_then(Value::as_u64).unwrap_or(0);
            if run != self.run {
                self.run = run;
                self.have = 0;
            }
            self.seen = 0;
            return None;
        }
        // A re-POST under the same run delivers the events an earlier
        // connection already handled first; those are skipped, except
        // a terminal event, which a re-run may deliver at any count.
        self.seen += 1;
        let fresh = self.seen > self.have;
        self.have = self.have.max(self.seen);
        match v.get("event").and_then(Value::as_str) {
            Some("result") => {
                let output = v
                    .get("output")
                    .and_then(Value::as_str)
                    .unwrap_or_default()
                    .to_string();
                let code = v.get("exit_code").and_then(Value::as_u64).unwrap_or(1);
                self.result = Some((output, i32::try_from(code).unwrap_or(1)));
                None
            }
            Some("error") => {
                let msg = v
                    .get("message")
                    .or_else(|| v.get("error"))
                    .and_then(Value::as_str)
                    .unwrap_or("unspecified")
                    .to_string();
                self.error = Some(msg);
                None
            }
            Some("progress") if fresh => {
                let done = v.get("done").and_then(Value::as_u64).unwrap_or(0);
                let total = v.get("total").and_then(Value::as_u64).unwrap_or(0);
                let workload = v.get("workload").and_then(Value::as_str).unwrap_or("?");
                let took = v.get("took_s").and_then(Value::as_f64).unwrap_or(0.0);
                Some(format!("[{done}/{total}] {workload} {took:.2}s"))
            }
            // batch_start, progress already printed, and future event
            // kinds print nothing.
            _ => None,
        }
    }
}

/// A streaming batch request (`sweep`, `analyze`): progress events are
/// printed to stderr as chunks arrive; the final `result` event's
/// rendered output and exit code become the command's.
///
/// With a non-zero retry budget the client is self-healing: a broken
/// connection or a cut stream re-POSTs the same body, and a `503`
/// sleeps out the daemon's `Retry-After` hint before asking again —
/// under jittered exponential backoff every time. An identical body
/// attaches to the batch if it still runs, and is answered from the
/// result store if it finished, the restarted daemon's store
/// included; either way [`ClientStream`] prints each progress line
/// once per daemon run.
fn client_batch(
    addr: &str,
    path: &str,
    body: &Value,
    retry: Reconnect,
) -> Result<CliOutcome, CliError> {
    let payload = body.render();
    let mut st = ClientStream::default();
    let mut rng = jitter_seed();
    let mut attempt: u32 = 0;
    loop {
        st.pending.clear();
        let outcome = http::request(addr, "POST", path, payload.as_bytes(), &mut |chunk| {
            for line in st.chunk(chunk) {
                eprintln!("{line}");
            }
        });
        let retriable = match outcome {
            Ok(resp) if resp.status == 200 => {
                if let Some((output, exit_code)) = st.result.take() {
                    return Ok(CliOutcome { output, exit_code });
                }
                if let Some(msg) = st.error.take() {
                    return Err(CliError(format!(
                        "daemon at {addr} refused the batch: {msg}"
                    )));
                }
                // A clean close without a result: the stream was
                // severed between events.
                if attempt >= retry.retries {
                    return Err(CliError(format!(
                        "daemon at {addr} closed the stream without a result"
                    )));
                }
                None
            }
            Ok(resp) if resp.status == 503 => {
                if attempt >= retry.retries {
                    return Err(CliError(saturated_message(addr, &resp.body)));
                }
                // Honor the daemon's own hint when it is longer than
                // the backoff would have been.
                let hinted = resp
                    .header("retry-after")
                    .and_then(|v| v.trim().parse::<u64>().ok())
                    .map(Duration::from_secs);
                Some(hinted.unwrap_or(Duration::ZERO))
            }
            Ok(resp) => {
                return Err(CliError(format!(
                    "daemon at {addr} answered {}: {}",
                    resp.status,
                    String::from_utf8_lossy(&resp.body).trim()
                )));
            }
            Err(e) => {
                if attempt >= retry.retries {
                    return Err(CliError(format!("cannot reach a daemon at {addr}: {e}")));
                }
                None
            }
        };
        let delay = retry
            .delay(attempt, &mut rng)
            .max(retriable.unwrap_or_default());
        eprintln!(
            "ctcp client: retrying {path} at {addr} in {:.1}s ({} of {} retries)",
            delay.as_secs_f64(),
            attempt + 1,
            retry.retries
        );
        std::thread::sleep(delay);
        attempt += 1;
    }
}

/// Renders the daemon's typed `503` refusal bodies: a clear "busy, try
/// again" or "degraded, try later" rather than a generic protocol
/// error.
fn saturated_message(addr: &str, body: &[u8]) -> String {
    let text = String::from_utf8_lossy(body);
    if let Ok(v) = Value::parse(text.trim()) {
        match v.get("error").and_then(Value::as_str) {
            Some("saturated") => {
                let field = |k: &str| v.get(k).and_then(Value::as_u64).unwrap_or(0);
                return format!(
                    "daemon at {addr} is saturated ({} cells queued + {} requested > limit {}); \
                     retry when the queue drains",
                    field("queued"),
                    field("wanted"),
                    field("limit")
                );
            }
            Some("unavailable") => {
                return format!(
                    "daemon at {addr} is unavailable (result store degraded to read-only); \
                     retry shortly"
                );
            }
            _ => {}
        }
    }
    format!("daemon at {addr} answered 503: {}", text.trim())
}

fn prose_report(name: &str, r: &SimReport) -> String {
    let (rf, rs1, rs2) = r.metrics.fwd.critical_source_distribution();
    let mut out = String::new();
    out.push_str(&format!("{name} under {}\n", r.strategy));
    out.push_str(&format!(
        "  {} instructions in {} cycles — IPC {:.3}\n",
        r.instructions, r.cycles, r.ipc
    ));
    out.push_str(&format!(
        "  fetch: {:.1}% from trace cache, avg trace {:.1} insts, \
         {:.2}% cond mispredict\n",
        100.0 * r.tc_inst_fraction(),
        r.avg_trace_size(),
        100.0 * r.mispredict_rate()
    ));
    out.push_str(&format!(
        "  forwarding: {:.1}% intra-cluster, mean distance {:.2} hops, \
         critical source RF {:.0}% / RS1 {:.0}% / RS2 {:.0}%\n",
        100.0 * r.metrics.fwd.intra_cluster_fraction(),
        r.metrics.fwd.mean_distance(),
        100.0 * rf,
        100.0 * rs1,
        100.0 * rs2
    ));
    out.push_str(&format!(
        "  memory: L1D miss {:.2}%, {} store-to-load forwards\n",
        100.0 * r.metrics.l1d.miss_rate(),
        r.metrics.engine.store_forwards
    ));
    if let Some(f) = &r.metrics.fdrt {
        out.push_str(&format!(
            "  fdrt: {} leaders, {} followers, migration {:.2}%\n",
            f.leaders_created,
            f.followers_created,
            100.0 * f.migration_rate()
        ));
    }
    out
}

fn csv_report(name: &str, r: &SimReport) -> String {
    format!(
        "name,strategy,instructions,cycles,ipc,tc_fraction,trace_size,mispredict,\
         intra_cluster,distance,l1d_miss\n\
         {name},{},{},{},{:.4},{:.4},{:.2},{:.4},{:.4},{:.4},{:.4}\n",
        r.strategy,
        r.instructions,
        r.cycles,
        r.ipc,
        r.tc_inst_fraction(),
        r.avg_trace_size(),
        r.mispredict_rate(),
        r.metrics.fwd.intra_cluster_fraction(),
        r.metrics.fwd.mean_distance(),
        r.metrics.l1d.miss_rate(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(argv: &[&str]) -> Result<String, CliError> {
        execute_outcome(&Cli::parse(argv.iter().copied()).unwrap()).map(|o| o.output)
    }

    fn run_outcome(argv: &[&str]) -> CliOutcome {
        execute_outcome(&Cli::parse(argv.iter().copied()).unwrap()).unwrap()
    }

    #[test]
    fn help_prints_usage() {
        let out = run(&["help"]).unwrap();
        assert!(out.contains("USAGE"));
    }

    #[test]
    fn top_frame_renders_bars_tables_and_log_tail() {
        let status = Value::parse(
            r#"{"status":"ok","in_flight":1,"workers":4,"queued_cells":6,
                "running_cells":2,"store_read_only":false,
                "rolling":{"window_s":60,"cells":120,"requests":3,
                           "cells_per_sec":2.0,"p95_ms":31,"p99_ms":63,"cell_p95_ms":15},
                "requests":[{"token":"a25bb65a15349da7","kind":"sweep",
                             "age_s":12,"cells_done":34,"cells_total":80}],
                "gauges":{"store_entries":42},
                "recent_logs":[{"level":"warn","msg":"slow cell","token":"a25bb65a15349da7"}],
                "counters":{"serve_requests":120,"serve_cache_hits":40,"serve_rejected":0,
                            "serve_worker_respawns":0,"serve_cells_poisoned":0}}"#,
        )
        .unwrap();
        let frame = render_top_frame("127.0.0.1:7199", &status);
        assert_eq!(
            frame,
            "ctcp top — daemon 127.0.0.1:7199\n\n\
             workers [##########----------] 2/4 busy   queued 6   in-flight 1\n\
             rolling 2.0 cells/s over 60s   req p95 31 ms   cell p95 15 ms   3 request(s)\n\
             totals  120 requests   40 cache hits   0 rejected   0 respawns   0 poisoned\n\
             store   42 entries\n\n\
             live requests (1)\n  \
             TOKEN             KIND     AGE   PROGRESS\n  \
             a25bb65a15349da7  sweep      12s [#####-----] 34/80\n\n\
             recent warnings (1)\n  \
             warn  slow cell a25bb65a15349da7\n"
        );
        // An idle daemon still renders (empty tables degrade politely).
        let idle = Value::parse(r#"{"status":"ok","workers":4}"#).unwrap();
        let frame = render_top_frame("h:1", &idle);
        assert!(frame.contains("no live requests"));
    }

    #[test]
    fn list_contains_both_suites() {
        let out = run(&["list"]).unwrap();
        assert!(out.contains("bzip2"));
        assert!(out.contains("mpeg2_enc"));
    }

    #[test]
    fn run_prose_report() {
        let out = run(&["run", "--bench", "gzip", "--insts", "4000"]).unwrap();
        assert!(out.contains("gzip under base"));
        assert!(out.contains("IPC"));
    }

    #[test]
    fn run_csv_report() {
        let out = run(&[
            "run",
            "--bench",
            "gzip",
            "--insts",
            "3000",
            "--strategy",
            "fdrt",
            "--csv",
        ])
        .unwrap();
        let mut lines = out.lines();
        assert!(lines.next().unwrap().starts_with("name,strategy"));
        assert!(lines.next().unwrap().starts_with("gzip,fdrt,3000"));
    }

    #[test]
    fn compare_lists_all_strategies() {
        let out = run(&["compare", "--bench", "gzip", "--insts", "3000"]).unwrap();
        for s in ["base", "issue-time(0)", "issue-time(4)", "friendly", "fdrt"] {
            assert!(out.contains(s), "missing {s} in:\n{out}");
        }
    }

    #[test]
    fn unknown_benchmark_is_a_clean_error() {
        let err = run(&["run", "--bench", "nonesuch"]).unwrap_err();
        assert!(err.0.contains("nonesuch"));
    }

    #[test]
    fn disasm_round_trips_through_the_assembler() {
        let out = run(&["disasm", "--bench", "adpcm_enc"]).unwrap();
        let reassembled = ctcp_isa::asm::assemble(&out).unwrap();
        let original = ctcp_workload::Benchmark::by_name("adpcm_enc")
            .unwrap()
            .program();
        assert_eq!(original.instructions(), reassembled.instructions());
    }

    #[test]
    fn asm_file_source_runs() {
        let dir = std::env::temp_dir().join("ctcp_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("k.s");
        std::fs::write(
            &path,
            "       movi r1, 0\n\
                    movi r2, 200\n\
             top:   addi r1, r1, 1\n\
                    blt  r1, r2, top\n\
                    halt\n",
        )
        .unwrap();
        let out = run(&["run", "--asm", path.to_str().unwrap(), "--insts", "10000"]).unwrap();
        assert!(out.contains("IPC"));
    }

    #[test]
    fn missing_asm_file_is_a_clean_error() {
        let err = run(&["run", "--asm", "/nonexistent/x.s"]).unwrap_err();
        assert!(err.0.contains("cannot read"));
    }

    #[test]
    fn sweep_prose_covers_the_grid() {
        let out = run(&[
            "sweep",
            "--benches",
            "gzip",
            "--strategies",
            "fdrt,friendly",
            "--clusters",
            "2,4",
            "--insts",
            "3000",
            "--jobs",
            "2",
        ])
        .unwrap();
        // 2 geometries × (1 base + 2 strategies) = 6 cells, 4 rendered rows.
        assert!(out.contains("sweep: 6 cells"));
        assert_eq!(out.matches("fdrt").count(), 2, "{out}");
        assert_eq!(out.matches("friendly").count(), 2, "{out}");
        assert!(out.contains("speedup"));
    }

    #[test]
    fn sweep_csv_has_one_row_per_cell() {
        let out = run(&[
            "sweep",
            "--benches",
            "gzip,twolf",
            "--strategies",
            "fdrt",
            "--insts",
            "3000",
            "--csv",
        ])
        .unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines[0], "bench,clusters,topology,strategy,ipc,speedup");
        assert_eq!(lines.len(), 3);
        assert!(lines[1].starts_with("gzip,4,linear,fdrt,"));
        assert!(lines[2].starts_with("twolf,4,linear,fdrt,"));
    }

    #[test]
    fn sweep_output_is_independent_of_jobs() {
        let argv = |jobs: &'static str| {
            vec![
                "sweep",
                "--benches",
                "gzip",
                "--strategies",
                "fdrt,issue4",
                "--insts",
                "3000",
                "--csv",
                "--jobs",
                jobs,
            ]
        };
        assert_eq!(run(&argv("1")).unwrap(), run(&argv("8")).unwrap());
    }

    #[test]
    fn sweep_rejects_unknown_benchmark() {
        let err = run(&["sweep", "--benches", "nonesuch"]).unwrap_err();
        assert!(err.0.contains("nonesuch"));
    }

    #[test]
    fn trace_writes_a_valid_chrome_file_and_reconciles() {
        let dir = std::env::temp_dir().join(format!("ctcp_cli_trace_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("t.json");
        let metrics_path = dir.join("m.jsonl");
        let out = run(&[
            "trace",
            "gzip",
            "--strategy",
            "fdrt",
            "--insts",
            "4000",
            "--out",
            trace_path.to_str().unwrap(),
            "--metrics-out",
            metrics_path.to_str().unwrap(),
            "--check",
        ])
        .unwrap();
        assert!(out.contains("check: valid trace"), "{out}");
        let text = std::fs::read_to_string(&trace_path).unwrap();
        assert!(ctcp_telemetry::validate_chrome_trace(&text).is_ok());
        let line = std::fs::read_to_string(&metrics_path).unwrap();
        let v = ctcp_sim::json::Value::parse(line.trim()).unwrap();
        assert_eq!(v.get("workload").unwrap().as_str().unwrap(), "gzip");
        assert_eq!(v.get("strategy").unwrap().as_str().unwrap(), "fdrt");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trace_metrics_only_mode_emits_no_spans() {
        let dir = std::env::temp_dir().join(format!("ctcp_cli_trace0_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("t0.json");
        let out = run(&[
            "trace",
            "gzip",
            "--insts",
            "2000",
            "--sample",
            "0",
            "--out",
            trace_path.to_str().unwrap(),
            "--check",
        ])
        .unwrap();
        assert!(out.contains("trace: 0 spans"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trace_rejects_invalid_geometry_cleanly() {
        // The parser caps --clusters at 8, so drive the builder directly
        // through an out-of-range rob/width relationship instead: a
        // 1-cluster machine is valid, so this exercises the happy path
        // of validation; the builder unit tests cover each error arm.
        let cli = Cli::parse(["trace", "gzip", "--clusters", "9"]);
        assert!(cli.is_err());
    }

    #[test]
    fn sweep_metrics_out_writes_jsonl() {
        let dir = std::env::temp_dir().join(format!("ctcp_cli_sweep_m_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sweep.jsonl");
        run(&[
            "sweep",
            "--benches",
            "gzip",
            "--strategies",
            "fdrt",
            "--insts",
            "2000",
            "--jobs",
            "2",
            "--metrics-out",
            path.to_str().unwrap(),
        ])
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2, "base + fdrt cells");
        for line in text.lines() {
            assert!(ctcp_sim::json::Value::parse(line).is_ok());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn store_subcommand_round_trips_verify_compact_gc() {
        let dir = std::env::temp_dir().join(format!("ctcp_cli_store_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let d = dir.to_str().unwrap();
        // Seed two entries through the harness, as a cached sweep would.
        {
            let program = Arc::new(Benchmark::by_name("gzip").unwrap().program());
            let mk = |strategy: Strategy| {
                let cfg = SimConfig {
                    max_insts: 1_500,
                    strategy,
                    ..SimConfig::default()
                };
                Job::new("gzip", Arc::clone(&program), cfg)
            };
            let mut h = Harness::new()
                .jobs(1)
                .progress(false)
                .with_store(ResultStore::open(&dir).unwrap());
            let outcomes =
                h.try_run(&[mk(Strategy::Baseline), mk(Strategy::Fdrt { pinning: true })]);
            assert!(outcomes.iter().all(|o| o.report().is_some()));
        }
        // Tear the store file the way a crash mid-append would.
        let file = dir.join("results.jsonl");
        let mut text = std::fs::read_to_string(&file).unwrap();
        text.push_str("{\"v\":2,\"key\":\"torn");
        std::fs::write(&file, text).unwrap();

        let verify = run_outcome(&["store", "verify", "--dir", d]);
        assert_eq!(verify.exit_code, 1, "{}", verify.output);
        assert!(verify.output.contains("1 corrupt"), "{}", verify.output);

        let compact = run_outcome(&["store", "compact", "--dir", d]);
        assert_eq!(compact.exit_code, 0);
        assert!(
            compact.output.contains("kept 2 lines"),
            "{}",
            compact.output
        );
        assert!(
            compact.output.contains("1 quarantined"),
            "{}",
            compact.output
        );

        let clean = run_outcome(&["store", "verify", "--dir", d]);
        assert_eq!(clean.exit_code, 0, "{}", clean.output);
        assert!(clean.output.contains("0 corrupt"), "{}", clean.output);

        let gc = run_outcome(&["store", "gc", "--dir", d]);
        assert_eq!(gc.exit_code, 0);
        assert!(gc.output.contains("quarantine cleared"), "{}", gc.output);
        assert!(!dir.join("results.quarantine.jsonl").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn store_verify_of_an_absent_store_is_an_empty_success() {
        let dir = std::env::temp_dir().join(format!("ctcp_cli_nostore_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let out = run_outcome(&["store", "verify", "--dir", dir.to_str().unwrap()]);
        assert_eq!(out.exit_code, 0);
        assert!(out.output.contains("0 lines"), "{}", out.output);
    }

    #[test]
    fn fault_free_sweep_exits_zero() {
        let out = run_outcome(&[
            "sweep",
            "--benches",
            "gzip",
            "--strategies",
            "fdrt",
            "--insts",
            "2000",
        ]);
        assert_eq!(out.exit_code, 0);
        assert!(!out.output.contains("jobs failed"), "{}", out.output);
    }

    #[test]
    fn analyze_prose_reports_stack_utilization_and_edges() {
        let out = run(&[
            "analyze",
            "gzip",
            "--strategies",
            "base,fdrt",
            "--insts",
            "4000",
        ])
        .unwrap();
        assert!(out.contains("cycle attribution"), "{out}");
        assert!(out.contains("CPI stack"), "{out}");
        assert!(out.contains("inter_cluster"), "{out}");
        assert!(out.contains("cluster utilization: c0"), "{out}");
        assert!(out.contains("critical path:"), "{out}");
        assert!(out.contains("\nbase:"), "{out}");
        assert!(out.contains("\nfdrt:"), "{out}");
    }

    #[test]
    fn analyze_json_stack_conserves_retire_bandwidth() {
        let out = run(&[
            "analyze",
            "gzip",
            "--strategies",
            "base",
            "--insts",
            "3000",
            "--json",
        ])
        .unwrap();
        let v = ctcp_sim::json::Value::parse(out.trim()).unwrap();
        assert_eq!(v.get("bench").unwrap().as_str().unwrap(), "gzip");
        let strategies = v.get("strategies").unwrap().as_arr().unwrap();
        assert_eq!(strategies.len(), 1);
        let s = &strategies[0];
        let cycles = s.get("cycles").unwrap().as_u64().unwrap();
        let stack = s.get("attrib").unwrap().get("stack").unwrap();
        assert_eq!(stack.get("cycles").unwrap().as_u64().unwrap(), cycles);
        let slots = stack.get("slots").unwrap();
        let total: u64 = [
            "base",
            "inter_cluster",
            "rs_dispatch",
            "fetch",
            "branch_mispredict",
            "memory",
        ]
        .iter()
        .map(|k| slots.get(k).unwrap().as_u64().unwrap())
        .sum();
        let width = SimConfig::default().engine.retire_width as u64;
        assert_eq!(total, cycles * width, "stack must conserve every slot");
    }

    #[test]
    fn analyze_csv_has_one_row_per_strategy() {
        let out = run(&[
            "analyze",
            "gzip",
            "--strategies",
            "base,fdrt",
            "--insts",
            "3000",
            "--csv",
        ])
        .unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert!(lines[0].starts_with("bench,strategy,cycles,ipc,base,inter_cluster"));
        assert_eq!(lines.len(), 3);
        assert!(lines[1].starts_with("gzip,base,"));
        assert!(lines[2].starts_with("gzip,fdrt,"));
    }

    #[test]
    fn harness_batches_render_the_bytes_of_direct_simulations() {
        // The reference is what `analyze` and `compare` once ran: one
        // direct `Simulation` per strategy, in order, on one thread.
        let direct = |args: &RunArgs, strategies: &[Strategy], top: Option<usize>| {
            let program = load_program(&args.source).unwrap();
            strategies
                .iter()
                .map(|&s| {
                    let mut builder = Simulation::builder(&program).config(config(args, s));
                    if let Some(top) = top {
                        builder = builder.attrib(top);
                    }
                    builder.build().unwrap().run()
                })
                .collect::<Vec<SimReport>>()
        };
        let analyze_argv = [
            "analyze",
            "gzip",
            "--strategies",
            "base,friendly,fdrt",
            "--insts",
            "4000",
            "--top",
            "12",
            "--json",
        ];
        let Command::Analyze(a) = Cli::parse(analyze_argv).unwrap().command else {
            unreachable!("an analyze command line");
        };
        let reports = direct(&a.run, &a.strategies, Some(12));
        assert_eq!(run(&analyze_argv).unwrap(), analysis("gzip", &a, &reports));
        let compare_argv = ["compare", "--bench", "gzip", "--insts", "4000", "--csv"];
        let Command::Compare(c) = Cli::parse(compare_argv).unwrap().command else {
            unreachable!("a compare command line");
        };
        let reports = direct(&c, &COMPARED, None);
        assert_eq!(
            run(&compare_argv).unwrap(),
            compare_table("gzip", &c, &reports)
        );
    }

    #[test]
    fn a_strategy_listed_twice_is_simulated_once_and_rendered_twice() {
        let argv = [
            "analyze",
            "gzip",
            "--strategies",
            "fdrt,base,fdrt",
            "--insts",
            "2000",
            "--csv",
        ];
        let Command::Analyze(a) = Cli::parse(argv).unwrap().command else {
            unreachable!("an analyze command line");
        };
        let mut harness = Harness::new().jobs(1).attrib_top(a.top);
        let mut quiet = StderrProgress::new(Some(false));
        let render = |name: &str, reports: &[SimReport]| analysis(name, &a, reports);
        let Ok(out) = run_cells(&a.run, &a.strategies, &mut harness, &mut quiet, render) else {
            panic!("the batch runs");
        };
        assert_eq!(harness.last_batch().simulated, 2);
        let rows: Vec<&str> = out.output.lines().skip(1).collect();
        assert_eq!(rows.len(), 3, "{}", out.output);
        assert_eq!(rows[0], rows[2]);
    }

    #[test]
    fn sweep_attrib_appends_the_attribution_table() {
        let out = run(&[
            "sweep",
            "--benches",
            "gzip",
            "--strategies",
            "fdrt",
            "--insts",
            "2000",
            "--attrib",
        ])
        .unwrap();
        assert!(
            out.contains("attribution (fraction of retire slots"),
            "{out}"
        );
        // Base + fdrt rows in the attribution table, on top of the two
        // occurrences in the speedup table.
        let tail = out.split("attribution").nth(1).unwrap();
        assert!(tail.contains("base"), "{out}");
        assert!(tail.contains("fdrt"), "{out}");
    }

    /// A daemon stand-in that answers each connection in turn with the
    /// next of `replies`, and hands back each request's path and body.
    fn fake_daemon(
        replies: Vec<Box<dyn FnOnce(std::net::TcpStream) + Send>>,
    ) -> (String, std::thread::JoinHandle<Vec<(String, String)>>) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let mut seen = Vec::new();
            for reply in replies {
                let (stream, _) = listener.accept().unwrap();
                let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
                let req = http::read_request(&mut reader).unwrap().unwrap();
                seen.push((req.path, String::from_utf8(req.body).unwrap()));
                reply(stream);
            }
            seen
        });
        (addr, server)
    }

    fn accepted(run: u64) -> String {
        format!("{{\"event\":\"accepted\",\"token\":\"0123456789abcdef\",\"run\":{run}}}\n")
    }

    fn batch_start(total: u64) -> String {
        format!("{{\"event\":\"batch_start\",\"total\":{total}}}\n")
    }

    fn progress(done: u64, total: u64) -> String {
        format!(
            "{{\"event\":\"progress\",\"done\":{done},\"total\":{total},\
             \"workload\":\"gzip\",\"took_s\":0.5}}\n"
        )
    }

    const RESULT: &str = "{\"event\":\"result\",\"exit_code\":0,\"cache_hits\":2,\
                          \"simulated\":0,\"output\":\"the full result\\n\"}\n";

    /// Feeds each connection's lines to one stream, the way
    /// `client_batch` does across re-POSTs, and returns what it printed.
    fn printed(connections: &[Vec<String>]) -> (Vec<String>, ClientStream) {
        let mut st = ClientStream::default();
        let mut out = Vec::new();
        for lines in connections {
            st.pending.clear();
            for line in lines {
                out.extend(st.chunk(line.as_bytes()));
            }
        }
        (out, st)
    }

    #[test]
    fn a_re_post_under_the_same_run_prints_each_progress_line_once() {
        let (out, st) = printed(&[
            vec![accepted(7), batch_start(5), progress(1, 5), progress(2, 5)],
            [accepted(7), batch_start(5)]
                .into_iter()
                .chain((1..=5).map(|d| progress(d, 5)))
                .chain([RESULT.to_string()])
                .collect(),
        ]);
        let want: Vec<String> = (1..=5).map(|d| format!("[{d}/5] gzip 0.50s")).collect();
        assert_eq!(out, want);
        assert_eq!(st.result, Some(("the full result\n".into(), 0)));
    }

    #[test]
    fn a_shorter_re_run_under_the_same_run_still_delivers_its_result() {
        // The batch finished between the cut and the re-POST, so the
        // re-POST ran it again from the store: nothing left to simulate.
        let (out, st) = printed(&[
            vec![accepted(7), batch_start(5), progress(1, 5), progress(2, 5)],
            vec![accepted(7), batch_start(0), RESULT.to_string()],
        ]);
        assert_eq!(out, ["[1/5] gzip 0.50s", "[2/5] gzip 0.50s"]);
        assert_eq!(st.result, Some(("the full result\n".into(), 0)));
    }

    #[test]
    fn a_new_run_prints_from_the_top() {
        let (out, st) = printed(&[
            vec![accepted(7), batch_start(3), progress(1, 3), progress(2, 3)],
            vec![
                accepted(8),
                batch_start(3),
                progress(1, 3),
                progress(2, 3),
                progress(3, 3),
                RESULT.to_string(),
            ],
        ]);
        assert_eq!(
            out,
            [
                "[1/3] gzip 0.50s",
                "[2/3] gzip 0.50s",
                "[1/3] gzip 0.50s",
                "[2/3] gzip 0.50s",
                "[3/3] gzip 0.50s"
            ]
        );
        assert!(st.result.is_some());
    }

    #[test]
    fn a_cut_stream_re_posts_its_body() {
        let stream = move |events: Vec<String>, finish: bool| {
            Box::new(move |out: std::net::TcpStream| {
                let mut w = http::ChunkedWriter::start(out, 200, "application/x-ndjson").unwrap();
                for e in &events {
                    w.chunk(e.as_bytes()).unwrap();
                }
                if finish {
                    w.finish().unwrap();
                }
            }) as Box<dyn FnOnce(std::net::TcpStream) + Send>
        };
        let (addr, server) = fake_daemon(vec![
            // The first stream is cut short after one event ...
            stream(vec![accepted(7), batch_start(2), progress(1, 2)], false),
            // ... and the re-POST streams in full.
            stream(
                vec![
                    accepted(7),
                    batch_start(2),
                    progress(1, 2),
                    progress(2, 2),
                    RESULT.to_string(),
                ],
                true,
            ),
        ]);
        let body = Value::Obj(vec![("benches".into(), Value::str("gzip"))]);
        let retry = Reconnect {
            retries: 3,
            backoff_ms: 1,
        };
        let outcome = client_batch(&addr, "/sweep", &body, retry).unwrap();
        assert_eq!(outcome.output, "the full result\n");
        assert_eq!(outcome.exit_code, 0);
        let seen = server.join().unwrap();
        let paths: Vec<&str> = seen.iter().map(|(p, _)| p.as_str()).collect();
        assert_eq!(paths, ["/sweep", "/sweep"]);
        assert!(
            seen.iter().all(|(_, b)| *b == body.render()),
            "the original body, re-POSTed"
        );
    }

    #[test]
    fn two_cluster_ring_configuration_runs() {
        let out = run(&[
            "run",
            "--bench",
            "gzip",
            "--insts",
            "3000",
            "--clusters",
            "2",
            "--topology",
            "ring",
            "--hop",
            "1",
        ])
        .unwrap();
        assert!(out.contains("IPC"));
        // `compare` builds the machine a sweep builds, so the two report
        // the same IPCs and speedups.
        let geometry = ["--insts", "4000", "--clusters", "2", "--topology", "ring"];
        let compare =
            run(&[&["compare", "--bench", "twolf", "--csv"], &geometry[..]].concat()).unwrap();
        let sweep = run(&[
            &[
                "sweep",
                "--benches",
                "twolf",
                "--strategies",
                "issue0,issue4,friendly,fdrt",
            ],
            &geometry[..],
            &["--csv"],
        ]
        .concat())
        .unwrap();
        // strategy,ipc,speedup,... after the header and the base row.
        let compared: Vec<Vec<&str>> = compare
            .lines()
            .skip(2)
            .map(|l| l.split(',').take(3).collect())
            .collect();
        // bench,clusters,topology,strategy,ipc,speedup after the header.
        let swept: Vec<Vec<&str>> = sweep
            .lines()
            .skip(1)
            .map(|l| l.split(',').skip(3).collect())
            .collect();
        assert_eq!(compared.len(), 4, "{compare}");
        assert_eq!(compared, swept, "{compare}\n{sweep}");
        // The widest machine the parser accepts runs too.
        let wide = run_outcome(&[
            "run",
            "--bench",
            "twolf",
            "--insts",
            "4000",
            "--clusters",
            "8",
        ]);
        assert_eq!(wide.exit_code, 0, "{}", wide.output);
    }

    /// Every strategy the command line can name.
    const STRATEGIES: [Strategy; 8] = [
        Strategy::Baseline,
        Strategy::IssueTime { latency: 0 },
        Strategy::IssueTime { latency: 4 },
        Strategy::Friendly { middle_bias: false },
        Strategy::Friendly { middle_bias: true },
        Strategy::Fdrt { pinning: true },
        Strategy::Fdrt { pinning: false },
        Strategy::FdrtIntraOnly,
    ];

    #[test]
    fn every_accepted_geometry_builds_the_machine_a_sweep_builds() {
        use ctcp_sim::{Topology, MAX_CLUSTERS};
        let program = Benchmark::by_name("gzip").unwrap().program();
        for clusters in 0..=u8::MAX {
            let accepted = (1..=MAX_CLUSTERS).contains(&clusters);
            for topology in [Topology::Linear, Topology::Ring, Topology::FullyConnected] {
                let (n, t) = (clusters.to_string(), wire::topology_cli_name(topology));
                let parsed = Cli::parse([
                    "run",
                    "--clusters",
                    &n,
                    "--topology",
                    t,
                    "--insts",
                    "3000",
                    "--warmup",
                    "500",
                ]);
                assert_eq!(parsed.is_ok(), accepted, "run --clusters {n}");
                let spec = SweepSpec {
                    clusters: vec![clusters],
                    topologies: vec![topology],
                    insts: 3000,
                    warmup: 500,
                    ..SweepSpec::default()
                };
                assert_eq!(spec.validate().is_ok(), accepted, "spec {n}");
                let body = wire::sweep_to_json(&SweepArgs {
                    spec: spec.clone(),
                    ..SweepArgs::default()
                });
                assert_eq!(wire::sweep_from_json(&body).is_ok(), accepted, "sweep {n}");
                let mut analyze = AnalyzeArgs::default();
                analyze.run.clusters = clusters;
                analyze.run.topology = topology;
                let body = wire::analyze_to_json(&analyze).unwrap();
                assert_eq!(
                    wire::analyze_from_json(&body).is_ok(),
                    accepted,
                    "analyze {n}"
                );
                let Ok(Cli {
                    command: Command::Run(args),
                }) = parsed
                else {
                    continue;
                };
                for s in STRATEGIES {
                    let c = config(&args, s);
                    let cell = spec.cell_config(s, clusters, topology);
                    assert_eq!(format!("{c:?}"), format!("{cell:?}"), "{n} {t} {s:?}");
                    let built = Simulation::builder(&program).config(c).build();
                    assert!(built.is_ok(), "{n} {t} {s:?}: {:?}", built.err());
                }
            }
        }
    }
}
