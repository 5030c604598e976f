//! Command execution: everything returns the text to print so it can be
//! asserted on in tests.

use crate::args::{
    AnalyzeArgs, Cli, CliError, ClientAction, ClientArgs, Command, ProgramSource, RunArgs,
    ServeArgs, StoreAction, StoreArgs, SweepArgs, TopArgs, TraceArgs, USAGE,
};
use crate::wire;
use ctcp_harness::{
    failure_table, CellScheduler, Harness, Job, Journal, ProgressSink, ResultStore, Saturated,
    StderrProgress, SweepCell, SweepSpec,
};
use ctcp_isa::{asm, Program};
use ctcp_serve::{
    http, resume_token, Handler, HandlerError, HandlerStats, RequestKind, RunResult, Service,
};
use ctcp_sim::{SimBuilder, SimConfig, SimReport, Simulation, Strategy};
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

fn config(args: &RunArgs, strategy: Strategy) -> SimConfig {
    let mut c = SimConfig {
        strategy,
        max_insts: args.insts,
        warmup_insts: args.warmup,
        ..SimConfig::default()
    };
    c.engine.geometry.clusters = args.clusters;
    c.engine.geometry.topology = args.topology;
    c.engine.hop_latency = args.hop_latency;
    c
}

/// Validates `builder` and runs the simulation to its report.
fn run_sim(builder: SimBuilder<'_>) -> Result<SimReport, CliError> {
    builder
        .build()
        .map_err(|e| CliError(format!("invalid configuration: {e}")))?
        .try_run()
        .map_err(|e| CliError(e.to_string()))
}

fn simulate(program: &Program, args: &RunArgs, strategy: Strategy) -> Result<SimReport, CliError> {
    run_sim(Simulation::builder(program).config(config(args, strategy)))
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
    /// Process exit code: `0` on full success, `1` when any sweep job
    /// failed or `store verify` found corruption.
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
/// assembly files. Partial failures (crashed sweep cells, store
/// corruption) are *not* errors: their output still renders, and the
/// failure surfaces through [`CliOutcome::exit_code`].
pub fn execute_outcome(cli: &Cli) -> Result<CliOutcome, CliError> {
    match &cli.command {
        Command::Sweep(args) => sweep(args),
        Command::Store(args) => store_cmd(args),
        Command::Serve(args) => serve_cmd(args),
        Command::Client(args) => client_cmd(args),
        Command::Top(args) => top_cmd(args),
        _ => plain_text(cli).map(CliOutcome::ok),
    }
}

/// The commands whose output carries no exit-code nuance: they either
/// fully succeed or fail with a [`CliError`].
fn plain_text(cli: &Cli) -> Result<String, CliError> {
    match &cli.command {
        Command::Sweep(_)
        | Command::Store(_)
        | Command::Serve(_)
        | Command::Client(_)
        | Command::Top(_) => {
            unreachable!("handled by execute_outcome")
        }
        Command::Help => Ok(USAGE.to_string()),
        Command::List => {
            let mut out = String::from("SPECint2000-class presets:\n");
            for b in Benchmark::spec_all() {
                out.push_str(&format!("  {}\n", b.name));
            }
            out.push_str("MediaBench-class presets:\n");
            for b in Benchmark::mediabench() {
                out.push_str(&format!("  {}\n", b.name));
            }
            Ok(out)
        }
        Command::Disasm(source) => {
            let program = load_program(source)?;
            Ok(asm::disassemble(&program))
        }
        Command::Run(args) => {
            let program = load_program(&args.source)?;
            let r = simulate(&program, args, args.strategy)?;
            if args.csv {
                Ok(csv_report(&describe(&args.source), &r))
            } else {
                Ok(prose_report(&describe(&args.source), &r))
            }
        }
        Command::Compare(args) => {
            let program = load_program(&args.source)?;
            let base = simulate(&program, args, Strategy::Baseline)?;
            let strategies = [
                Strategy::IssueTime { latency: 0 },
                Strategy::IssueTime { latency: 4 },
                Strategy::Friendly { middle_bias: false },
                Strategy::Fdrt { pinning: true },
            ];
            let mut out = String::new();
            if args.csv {
                out.push_str("strategy,ipc,speedup,intra_cluster,distance\n");
                out.push_str(&format!(
                    "base,{:.4},1.0000,{:.4},{:.4}\n",
                    base.ipc,
                    base.metrics.fwd.intra_cluster_fraction(),
                    base.metrics.fwd.mean_distance()
                ));
            } else {
                out.push_str(&format!(
                    "{} — {} instructions, {} clusters\n",
                    describe(&args.source),
                    base.instructions,
                    args.clusters
                ));
                out.push_str(&format!(
                    "{:<16}{:>8}{:>10}{:>14}{:>10}\n",
                    "strategy", "ipc", "speedup", "intra-fwd", "distance"
                ));
                out.push_str(&format!(
                    "{:<16}{:>8.3}{:>10.3}{:>13.1}%{:>10.2}\n",
                    "base",
                    base.ipc,
                    1.0,
                    100.0 * base.metrics.fwd.intra_cluster_fraction(),
                    base.metrics.fwd.mean_distance()
                ));
            }
            for s in strategies {
                let r = simulate(&program, args, s)?;
                if args.csv {
                    out.push_str(&format!(
                        "{},{:.4},{:.4},{:.4},{:.4}\n",
                        r.strategy,
                        r.ipc,
                        r.speedup_over(&base),
                        r.metrics.fwd.intra_cluster_fraction(),
                        r.metrics.fwd.mean_distance()
                    ));
                } else {
                    out.push_str(&format!(
                        "{:<16}{:>8.3}{:>10.3}{:>13.1}%{:>10.2}\n",
                        r.strategy,
                        r.ipc,
                        r.speedup_over(&base),
                        100.0 * r.metrics.fwd.intra_cluster_fraction(),
                        r.metrics.fwd.mean_distance()
                    ));
                }
            }
            Ok(out)
        }
        Command::Trace(args) => trace(args),
        Command::Analyze(args) => analyze(args),
    }
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
    let r = run_sim(
        Simulation::builder(&program)
            .config(config(&args.run, args.run.strategy))
            .recorder(Rc::clone(&recorder)),
    )?;

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

/// Runs each requested strategy with cycle attribution on
/// ([`SimBuilder::attrib`]) and renders, per strategy: the
/// retirement-driven CPI stack, per-cluster utilization, and the top
/// critical-path edges with the fraction of critical edges that cross
/// clusters.
fn analyze(args: &AnalyzeArgs) -> Result<String, CliError> {
    analyze_with_progress(args, &mut |_, _, _| {})
}

/// [`analyze`] with a per-strategy completion callback
/// `(done, total, strategy)` — the sweep service forwards it to the
/// requesting client as progress events.
fn analyze_with_progress(
    args: &AnalyzeArgs,
    progress: &mut dyn FnMut(usize, usize, &str),
) -> Result<String, CliError> {
    let program = load_program(&args.run.source)?;
    let name = describe(&args.run.source);
    let mut results: Vec<SimReport> = Vec::new();
    for (done, &s) in args.strategies.iter().enumerate() {
        let r = run_sim(
            Simulation::builder(&program)
                .config(config(&args.run, s))
                .attrib(args.top),
        )?;
        progress(done + 1, args.strategies.len(), &r.strategy);
        results.push(r);
    }
    if args.json {
        Ok(analyze_json(&name, args, &results))
    } else if args.run.csv {
        Ok(analyze_csv(&name, &results))
    } else {
        Ok(analyze_prose(&name, args, &results))
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
    run_sweep(args, &mut harness, &mut sink).map_err(|e| match e {
        SweepError::Cli(e) => e,
        // One-shot sweeps run on the harness's own unbounded pool, so
        // admission can never refuse them; keep the arm total anyway.
        SweepError::Saturated(s) => CliError(format!("rejected: {s}")),
    })
}

/// Why [`run_sweep`] stopped: an ordinary CLI error (bad benchmark,
/// bad grid) rendered in-band, or a typed admission refusal from the
/// shared scheduler that the daemon must turn into a `503` *before*
/// anything has been streamed.
enum SweepError {
    Cli(CliError),
    Saturated(Saturated),
}

impl From<CliError> for SweepError {
    fn from(e: CliError) -> SweepError {
        SweepError::Cli(e)
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
) -> Result<CliOutcome, SweepError> {
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
        .map_err(SweepError::Saturated)?;

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

/// Adapts the harness's [`ProgressSink`] to the sweep service's wire
/// events: every simulated cell becomes one NDJSON `progress` event in
/// the batch's replayable stream.
struct EventSink<'a> {
    emit: &'a mut dyn FnMut(&Value),
    total: usize,
}

impl ProgressSink for EventSink<'_> {
    fn batch_start(&mut self, total: usize) {
        self.total = total;
        (self.emit)(&Value::Obj(vec![
            ("event".into(), Value::str("batch_start")),
            ("total".into(), Value::u64(total as u64)),
        ]));
    }

    fn cell_done(&mut self, done: usize, workload: &str, took: Duration) {
        (self.emit)(&Value::Obj(vec![
            ("event".into(), Value::str("progress")),
            ("done".into(), Value::u64(done as u64)),
            ("total".into(), Value::u64(self.total as u64)),
            ("workload".into(), Value::str(workload)),
            ("took_s".into(), Value::f64(took.as_secs_f64())),
        ]));
    }

    fn cell_done_on(&mut self, done: usize, workload: &str, took: Duration, worker: usize) {
        // The harness names the pool worker that ran the cell; stamping
        // it into the wire event is what lets the daemon draw per-worker
        // span lanes in `GET /trace/<token>`.
        (self.emit)(&Value::Obj(vec![
            ("event".into(), Value::str("progress")),
            ("done".into(), Value::u64(done as u64)),
            ("total".into(), Value::u64(self.total as u64)),
            ("workload".into(), Value::str(workload)),
            ("took_s".into(), Value::f64(took.as_secs_f64())),
            ("worker".into(), Value::u64(worker as u64)),
        ]));
    }

    fn batch_end(&mut self) {}
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
/// interleave on, fairly), one shared [`ResultStore`] (the warm
/// cache), and one shared [`Journal`] (the crash-recovery WAL).
/// All are cheap `Clone` handles, so each request builds a throwaway
/// [`Harness`] around them on its own batch thread — `run` takes
/// `&self` and requests execute concurrently.
struct CliHandler {
    store: ResultStore,
    sched: CellScheduler,
    journal: Journal,
}

impl CliHandler {
    /// The batch body itself, after journaling and degradation checks.
    fn dispatch(
        &self,
        kind: RequestKind,
        body: &Value,
        token: &str,
        progress: &mut dyn FnMut(&Value),
    ) -> Result<RunResult, HandlerError> {
        match kind {
            RequestKind::Sweep => {
                let args = match wire::sweep_from_json(body) {
                    Ok(a) => a,
                    Err(e) => return Ok(error_result(e)),
                };
                // A fresh per-request harness over the shared handles:
                // phase 1 answers warm cells straight from the store
                // (never touching the queue), the rest are submitted to
                // the shared pool and stream back as they finish. Each
                // memoized cell is also marked in the journal under
                // this request's token, so a crash mid-batch resumes
                // with the finished cells answered from the store.
                let mut harness = Harness::new()
                    .attrib(args.attrib)
                    .with_store(self.store.clone())
                    .with_scheduler(self.sched.clone())
                    .with_journal(self.journal.clone(), token);
                let mut sink = EventSink {
                    emit: progress,
                    total: 0,
                };
                match run_sweep(&args, &mut harness, &mut sink) {
                    Ok(outcome) => {
                        let stats = harness.last_batch();
                        Ok(RunResult {
                            output: outcome.output,
                            exit_code: outcome.exit_code,
                            cache_hits: stats.store_hits as u64,
                            simulated: stats.simulated as u64,
                        })
                    }
                    Err(SweepError::Saturated(s)) => Err(HandlerError::Saturated {
                        queued: s.queued,
                        wanted: s.wanted,
                        limit: s.limit,
                    }),
                    Err(SweepError::Cli(e)) => Ok(error_result(e)),
                }
            }
            RequestKind::Analyze => {
                let args = match wire::analyze_from_json(body) {
                    Ok(a) => a,
                    Err(e) => return Ok(error_result(e)),
                };
                // Analyses run on the batch's own thread, outside the
                // cell scheduler — they never queue behind sweep cells,
                // which is the fairness guarantee for small interactive
                // requests.
                let mut emit = |done: usize, total: usize, strategy: &str| {
                    progress(&Value::Obj(vec![
                        ("event".into(), Value::str("progress")),
                        ("done".into(), Value::u64(done as u64)),
                        ("total".into(), Value::u64(total as u64)),
                        ("workload".into(), Value::str(strategy)),
                    ]));
                };
                match analyze_with_progress(&args, &mut emit) {
                    Ok(output) => Ok(RunResult {
                        output,
                        exit_code: 0,
                        cache_hits: 0,
                        simulated: args.strategies.len() as u64,
                    }),
                    Err(e) => Ok(error_result(e)),
                }
            }
        }
    }
}

impl Handler for CliHandler {
    fn run(
        &self,
        kind: RequestKind,
        body: &Value,
        token: &str,
        progress: &mut dyn FnMut(&Value),
    ) -> Result<RunResult, HandlerError> {
        // Degraded store: new batches would run without memoizing (and
        // without durable cell marks), so refuse them with a retry
        // hint. The store re-probes the disk on its own schedule.
        if self.store.read_only() {
            return Err(HandlerError::Unavailable {
                retry_after_secs: 1,
            });
        }
        // WAL first: once admitted is journaled, a crash anywhere below
        // replays this batch on the next start. Append failures are
        // tolerated — the in-memory record still feeds compaction, and
        // losing durability must not fail a runnable batch.
        let _ = self.journal.admit(token, kind.as_str(), &body.render());
        let result = self.dispatch(kind, body, token, progress);
        match &result {
            // Terminal either way: completed batches are pruned, and a
            // refusal admitted no cells, so there is nothing to replay.
            Ok(r) => {
                let _ = self.journal.finish(token, r.exit_code);
            }
            Err(_) => {
                let _ = self.journal.finish(token, 75);
            }
        }
        result
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
            journal_bytes: self.journal.size_bytes(),
            journal_compactions: self.journal.compactions(),
            journal_live_requests: self.journal.live_requests() as u64,
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
    // Logging is configured before anything can emit: the flags beat
    // the CTCP_LOG default, and a bad --log-file is a startup error
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
    // The request WAL lives next to the store file: opening it
    // replays any journal left by a crashed predecessor and hands back
    // the admitted-but-unfinished requests.
    let journal = Journal::open(&dir)
        .map_err(|e| CliError(format!("cannot open journal {}: {e}", dir.display())))?;
    let pending = journal.take_pending();
    // One resident worker pool for the daemon's lifetime; every
    // client's cells interleave on it round-robin, and `--max-queue`
    // bounds how much work admission control will accept at once.
    let sched = CellScheduler::start(args.jobs, args.max_queue);
    let service = Service::bind(
        &args.addr,
        Box::new(CliHandler {
            store,
            sched,
            journal: journal.clone(),
        }),
    )
    .map_err(|e| CliError(format!("cannot bind {}: {e}", args.addr)))?;
    // Re-enqueue the crashed daemon's unfinished batches headless,
    // before accepting connections: their tokens resolve for resuming
    // clients, and cells memoized before the crash come back as store
    // hits — zero recomputation.
    if !pending.is_empty() {
        eprintln!(
            "ctcp serve: replaying {} journaled request(s) from {}",
            pending.len(),
            dir.display()
        );
    }
    for p in pending {
        let replayed = match RequestKind::parse(&p.kind) {
            Some(kind) if resume_token(kind, &p.body) == p.token => service.replay(kind, &p.body),
            _ => false,
        };
        if !replayed {
            // Unknown kind, a body that no longer hashes to its token,
            // or an unparseable body: retire the record rather than
            // replaying it forever on every restart.
            let _ = journal.finish(&p.token, 75);
        }
    }
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
         {} rejected, {} journal-replayed, {} streams resumed, \
         {} worker respawns, {} cells poisoned)\n",
        n("requests"),
        n("queued"),
        n("cache_hits"),
        n("rejected"),
        n("journal_replayed"),
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
        ClientAction::Sweep(sweep) => client_batch(
            addr,
            "/sweep",
            Some(&wire::sweep_to_json(sweep)),
            None,
            retry,
        ),
        ClientAction::Analyze(analyze) => client_batch(
            addr,
            "/analyze",
            Some(&wire::analyze_to_json(analyze)?),
            None,
            retry,
        ),
        ClientAction::Resume(token) => {
            client_batch(addr, "/resume", None, Some(token.clone()), retry)
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
            "store   {} entries   journal {} B, {} compaction(s), {} live\n",
            g_u64(gauges, "store_entries"),
            g_u64(gauges, "journal_bytes"),
            g_u64(gauges, "journal_compactions"),
            g_u64(gauges, "journal_live_requests"),
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

/// One batch stream's client-side state, carried across reconnects:
/// the resume token and run id from the daemon's `accepted` handshake,
/// the count of delivered events (the `have` cursor a `/resume` request
/// continues from), and the terminal `result`/`error` once seen.
#[derive(Default)]
struct ClientStream {
    pending: String,
    token: Option<String>,
    run: u64,
    have: u64,
    result: Option<(String, i32)>,
    error: Option<String>,
}

impl ClientStream {
    /// Buffers one chunk and dispatches every complete NDJSON line —
    /// chunk boundaries are not guaranteed to align with events, and a
    /// torn final line (a mid-event disconnect) is deliberately left
    /// unbuffered so `have` never counts a half-delivered event.
    fn chunk(&mut self, chunk: &[u8]) {
        self.pending.push_str(&String::from_utf8_lossy(chunk));
        while let Some(nl) = self.pending.find('\n') {
            let line: String = self.pending.drain(..=nl).collect();
            self.event(line.trim());
        }
    }

    fn event(&mut self, line: &str) {
        let Ok(v) = Value::parse(line) else {
            return; // tolerate unknown framing rather than aborting the stream
        };
        match v.get("event").and_then(Value::as_str) {
            // The handshake is per-connection, not part of the event
            // log, so it never advances the `have` cursor.
            Some("accepted") => {
                let run = v.get("run").and_then(Value::as_u64).unwrap_or(0);
                if self.run != 0 && run != self.run {
                    // The daemon restarted between connections: its
                    // replayed stream starts from the top, so the
                    // cursor does too.
                    self.have = 0;
                }
                self.run = run;
                if let Some(t) = v.get("token").and_then(Value::as_str) {
                    self.token = Some(t.to_string());
                }
            }
            Some("result") => {
                let output = v
                    .get("output")
                    .and_then(Value::as_str)
                    .unwrap_or_default()
                    .to_string();
                let code = v.get("exit_code").and_then(Value::as_u64).unwrap_or(1);
                self.result = Some((output, i32::try_from(code).unwrap_or(1)));
                self.have += 1;
            }
            Some("progress") => {
                let done = v.get("done").and_then(Value::as_u64).unwrap_or(0);
                let total = v.get("total").and_then(Value::as_u64).unwrap_or(0);
                let workload = v.get("workload").and_then(Value::as_str).unwrap_or("?");
                match v.get("took_s").and_then(Value::as_f64) {
                    Some(took) => eprintln!("[{done}/{total}] {workload} {took:.2}s"),
                    None => eprintln!("[{done}/{total}] {workload}"),
                }
                self.have += 1;
            }
            Some("error") => {
                let msg = v
                    .get("message")
                    .or_else(|| v.get("error"))
                    .and_then(Value::as_str)
                    .unwrap_or("unspecified")
                    .to_string();
                self.error = Some(msg);
                self.have += 1;
            }
            // batch_start and future event kinds are informational but
            // still occupy a slot in the daemon's replayable log.
            _ => self.have += 1,
        }
    }

    /// The `/resume` body that picks this stream up where it broke.
    fn resume_body(&self) -> Option<String> {
        let token = self.token.as_deref()?;
        Some(
            Value::Obj(vec![
                ("token".into(), Value::str(token)),
                ("have".into(), Value::u64(self.have)),
                ("run".into(), Value::u64(self.run)),
            ])
            .render(),
        )
    }
}

/// A streaming batch request (`sweep`, `analyze`, `resume`): progress
/// events are printed to stderr as chunks arrive; the final `result`
/// event's rendered output and exit code become the command's.
///
/// With a non-zero retry budget the client is self-healing: a broken
/// connection re-attaches through `POST /resume` using the token from
/// the daemon's `accepted` handshake (receiving only the events it has
/// not yet seen), a `/resume` the daemon answers `404 unknown-token`
/// (it restarted after the batch finished, or has forgotten it)
/// re-POSTs the original body from a reset cursor, and a `503` sleeps
/// out the daemon's `Retry-After` hint before asking again — under
/// jittered exponential backoff every time.
fn client_batch(
    addr: &str,
    path: &str,
    body: Option<&Value>,
    token: Option<String>,
    retry: Reconnect,
) -> Result<CliOutcome, CliError> {
    let payload = body.map(Value::render);
    let mut st = ClientStream {
        token,
        ..ClientStream::default()
    };
    let mut rng = jitter_seed();
    let mut attempt: u32 = 0;
    loop {
        // An explicit `resume` action starts on `/resume`; a retried
        // batch switches to it once the handshake supplied a token.
        let (p, bytes) = match (&payload, st.resume_body()) {
            (Some(b), None) => (path, b.clone()),
            (Some(b), Some(_)) if attempt == 0 => (path, b.clone()),
            (_, Some(r)) => ("/resume", r),
            (None, None) => {
                return Err(CliError(
                    "resume needs a token before it can reconnect".into(),
                ))
            }
        };
        st.pending.clear();
        let outcome = http::request(addr, "POST", p, bytes.as_bytes(), &mut |chunk| {
            st.chunk(chunk);
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
                // severed between events. Resumable if we have a token.
                if attempt >= retry.retries || st.token.is_none() {
                    return Err(CliError(format!(
                        "daemon at {addr} closed the stream without a result"
                    )));
                }
                None
            }
            Ok(resp)
                if p == "/resume"
                    && payload.is_some()
                    && attempt < retry.retries
                    && is_unknown_token(&resp) =>
            {
                // The memoized answer is one re-POST away; its stream
                // starts from the top.
                st = ClientStream::default();
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
            "ctcp client: retrying {p} at {addr} in {:.1}s ({} of {} retries)",
            delay.as_secs_f64(),
            attempt + 1,
            retry.retries
        );
        std::thread::sleep(delay);
        attempt += 1;
    }
}

/// True for the daemon's typed `404 {"error":"unknown-token"}`.
fn is_unknown_token(resp: &http::Response) -> bool {
    resp.status == 404
        && Value::parse(String::from_utf8_lossy(&resp.body).trim())
            .is_ok_and(|v| v.get("error").and_then(Value::as_str) == Some("unknown-token"))
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
                "gauges":{"journal_bytes":2048,"journal_compactions":2,
                          "journal_live_requests":1,"store_entries":42},
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
             store   42 entries   journal 2048 B, 2 compaction(s), 1 live\n\n\
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

    #[test]
    fn an_unknown_resume_token_falls_back_to_re_posting_the_request() {
        let token = "0123456789abcdef";
        let accepted = format!("{{\"event\":\"accepted\",\"token\":\"{token}\",\"run\":7}}\n");
        let progress = |done: u64| {
            format!(
                "{{\"event\":\"progress\",\"done\":{done},\"total\":2,\"workload\":\"gzip\"}}\n"
            )
        };
        let result = "{\"event\":\"result\",\"exit_code\":0,\"cache_hits\":2,\
                      \"simulated\":0,\"output\":\"the full result\\n\"}\n";
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
        let unknown = format!("{{\"error\":\"unknown-token\",\"token\":\"{token}\"}}");
        let (addr, server) = fake_daemon(vec![
            // The first stream is cut short after one event ...
            stream(vec![accepted.clone(), progress(1)], false),
            // ... the daemon restarted after the batch finished, so it
            // no longer knows the token ...
            Box::new(move |mut out: std::net::TcpStream| {
                http::write_response(&mut out, 404, "application/json", unknown.as_bytes())
                    .unwrap();
            }),
            // ... and answers the re-POST in full, from its store.
            stream(
                vec![accepted, progress(1), progress(2), result.to_string()],
                true,
            ),
        ]);
        let body = Value::Obj(vec![("benches".into(), Value::str("gzip"))]);
        let retry = Reconnect {
            retries: 3,
            backoff_ms: 1,
        };
        let outcome = client_batch(&addr, "/sweep", Some(&body), None, retry).unwrap();
        assert_eq!(outcome.output, "the full result\n");
        assert_eq!(outcome.exit_code, 0);
        let seen = server.join().unwrap();
        let paths: Vec<&str> = seen.iter().map(|(p, _)| p.as_str()).collect();
        assert_eq!(paths, ["/sweep", "/resume", "/sweep"]);
        assert_eq!(seen[2].1, body.render(), "the original body, re-POSTed");

        // `client resume TOKEN` holds no body to fall back to.
        let unknown = format!("{{\"error\":\"unknown-token\",\"token\":\"{token}\"}}");
        let (addr, server) = fake_daemon(vec![Box::new(move |mut out: std::net::TcpStream| {
            http::write_response(&mut out, 404, "application/json", unknown.as_bytes()).unwrap();
        })]);
        let err = client_batch(&addr, "/resume", None, Some(token.into()), retry).unwrap_err();
        assert!(
            err.0.contains("404") && err.0.contains("unknown-token"),
            "{err}"
        );
        server.join().unwrap();
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
    }
}
