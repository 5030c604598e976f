//! Argument parsing (hand-rolled: the workspace avoids non-approved
//! dependencies).

use ctcp_core::Topology;
use ctcp_harness::SweepSpec;
use ctcp_sim::Strategy;
use std::fmt;

/// Source of the program to simulate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgramSource {
    /// A named synthetic benchmark preset.
    Bench(String),
    /// A TRISC assembly file.
    AsmFile(String),
}

/// Options shared by `run` and `compare`.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    /// What to simulate.
    pub source: ProgramSource,
    /// Strategy (only used by `run`).
    pub strategy: Strategy,
    /// Timed instruction budget.
    pub insts: u64,
    /// Instructions to fast-forward (functional warmup, no timing)
    /// before the timed phase.
    pub warmup: u64,
    /// Number of clusters.
    pub clusters: u8,
    /// Interconnect topology.
    pub topology: Topology,
    /// Forwarding latency per hop.
    pub hop_latency: u64,
    /// Emit machine-readable CSV instead of prose.
    pub csv: bool,
}

impl Default for RunArgs {
    fn default() -> Self {
        RunArgs {
            source: ProgramSource::Bench("gzip".into()),
            strategy: Strategy::Baseline,
            insts: 100_000,
            warmup: 0,
            clusters: 4,
            topology: Topology::Linear,
            hop_latency: 2,
            csv: false,
        }
    }
}

/// Options for the `trace` pipeline-telemetry command.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceArgs {
    /// Program, strategy, geometry, budget (shared with `run`).
    pub run: RunArgs,
    /// Chrome trace-event JSON output path.
    pub out: String,
    /// Optional JSONL metrics dump path.
    pub metrics_out: Option<String>,
    /// Record every Nth instruction's timeline (0 = metrics only).
    pub sample: u64,
    /// Event ring capacity (oldest events are dropped beyond this).
    pub events: usize,
    /// Validate the emitted trace and reconcile counters with the
    /// report before returning.
    pub check: bool,
}

impl Default for TraceArgs {
    fn default() -> Self {
        TraceArgs {
            run: RunArgs::default(),
            out: "ctcp-trace.json".into(),
            metrics_out: None,
            sample: 1,
            events: 1 << 16,
            check: false,
        }
    }
}

/// Options for the `sweep` grid runner: the grid itself is a
/// [`SweepSpec`] (the same type the wire codec and the harness consume),
/// plus execution and rendering knobs that never cross the wire.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SweepArgs {
    /// The grid: benchmarks × strategies × geometries, with the
    /// warmup/measurement budget. Benchmark names may still be suite
    /// keywords (`spec`/`media`/`all`) — resolved at execution time.
    pub spec: SweepSpec,
    /// Worker threads (0 = available parallelism).
    pub jobs: usize,
    /// Memoize cells in the on-disk result store.
    pub cache: bool,
    /// Emit machine-readable CSV instead of prose.
    pub csv: bool,
    /// Stream one JSONL metrics record per simulated cell to this path.
    pub metrics_out: Option<String>,
    /// Collect per-cell CPI stacks and append a strategy × benchmark
    /// attribution table after the speedup table.
    pub attrib: bool,
}

/// Options for the `analyze` cycle-attribution command.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyzeArgs {
    /// Program, geometry, budget (shared with `run`; the shared
    /// `--strategy` is ignored — analyze runs its own strategy list).
    pub run: RunArgs,
    /// Strategies to attribute, in report order.
    pub strategies: Vec<Strategy>,
    /// Emit the full attribution as one JSON document.
    pub json: bool,
    /// How many critical-path edges to report per strategy.
    pub top: usize,
}

impl Default for AnalyzeArgs {
    fn default() -> Self {
        AnalyzeArgs {
            run: RunArgs::default(),
            strategies: vec![
                Strategy::Baseline,
                Strategy::IssueTime { latency: 4 },
                Strategy::Friendly { middle_bias: false },
                Strategy::Fdrt { pinning: true },
            ],
            json: false,
            top: ctcp_telemetry::DEFAULT_TOP_EDGES,
        }
    }
}

/// Maintenance action for the on-disk result store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreAction {
    /// Read-only integrity scan; exits non-zero if corruption is found.
    Verify,
    /// Rewrite to one line per key (newest wins), quarantining damage.
    Compact,
    /// Compact, then delete the quarantine file.
    Gc,
}

/// Options for the `store` maintenance command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreArgs {
    /// What to do to the store.
    pub action: StoreAction,
    /// Store directory; `None` means the default `target/ctcp-results`.
    pub dir: Option<String>,
}

/// Options for the `serve` resident-daemon command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeArgs {
    /// Address to listen on; port `0` picks an ephemeral port (the
    /// daemon prints the bound address either way).
    pub addr: String,
    /// Resident worker threads in the shared cell pool (0 = available
    /// parallelism).
    pub jobs: usize,
    /// Admission bound on queued (not yet running) cells across all
    /// in-flight requests; a batch that would push past it is refused
    /// with a typed `503`. `0` = unbounded.
    pub max_queue: usize,
    /// Result-store directory; `None` means the default
    /// `target/ctcp-results`.
    pub dir: Option<String>,
    /// Structured-log threshold (`off|error|warn|info|debug`); `None`
    /// defers to the `CTCP_LOG` environment variable (default `warn`).
    pub log_level: Option<String>,
    /// Append structured log lines to this file instead of stderr.
    pub log_file: Option<String>,
}

impl Default for ServeArgs {
    fn default() -> Self {
        ServeArgs {
            addr: "127.0.0.1:0".into(),
            jobs: 0,
            max_queue: 0,
            dir: None,
            log_level: None,
            log_file: None,
        }
    }
}

/// Options for the `top` live-dashboard command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopArgs {
    /// Daemon address, as printed by `ctcp serve` (always required).
    pub addr: String,
    /// Refresh period between dashboard redraws, in milliseconds.
    pub interval_ms: u64,
    /// Render one frame and exit (no screen clearing) — for scripts
    /// and CI gates.
    pub once: bool,
}

impl Default for TopArgs {
    fn default() -> Self {
        TopArgs {
            addr: String::new(),
            interval_ms: 1000,
            once: false,
        }
    }
}

/// What `ctcp client` asks a running daemon to do.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientAction {
    /// Run a sweep remotely, streaming progress back.
    Sweep(SweepArgs),
    /// Run a cycle-attribution analysis remotely.
    Analyze(AnalyzeArgs),
    /// Re-attach to an admitted batch by its resume token and stream
    /// it from the beginning.
    Resume(String),
    /// Print the daemon's status document (queue depth, counters).
    Status,
    /// Ask the daemon to drain and exit.
    Shutdown,
}

/// Options for the `client` command.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientArgs {
    /// Daemon address, as printed by `ctcp serve` (always required).
    pub addr: String,
    /// Reconnect attempts for batch actions after a connection failure
    /// or a `503` (the daemon's `Retry-After` hint is honored).
    pub retries: u32,
    /// Base reconnect delay in milliseconds, doubled per attempt with
    /// jitter.
    pub backoff_ms: u64,
    /// What to ask the daemon to do.
    pub action: ClientAction,
}

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// List available benchmark presets.
    List,
    /// Run one strategy and print its report.
    Run(RunArgs),
    /// Run every strategy and print a comparison table.
    Compare(RunArgs),
    /// Run a strategies × benchmarks × geometries grid in parallel.
    Sweep(SweepArgs),
    /// Run one strategy with telemetry on and export a Chrome trace.
    Trace(TraceArgs),
    /// Attribute every cycle of retire bandwidth per strategy: CPI
    /// stack, per-cluster utilization, top critical-path edges.
    Analyze(AnalyzeArgs),
    /// Print the disassembly of the selected program.
    Disasm(ProgramSource),
    /// Inspect or maintain the on-disk result store.
    Store(StoreArgs),
    /// Run the resident sweep service (daemon).
    Serve(ServeArgs),
    /// Talk to a running sweep service.
    Client(ClientArgs),
    /// Live terminal dashboard over a running sweep service.
    Top(TopArgs),
    /// Print usage.
    Help,
}

/// A parse failure with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

/// The parsed CLI entry point.
#[derive(Debug, Clone, PartialEq)]
pub struct Cli {
    /// The command to execute.
    pub command: Command,
}

/// Parses a strategy name as accepted by `--strategy`.
pub fn parse_strategy(s: &str) -> Result<Strategy, CliError> {
    match s {
        "base" | "baseline" => Ok(Strategy::Baseline),
        "issue0" | "issue-time-0" => Ok(Strategy::IssueTime { latency: 0 }),
        "issue4" | "issue-time" | "issue-time-4" => Ok(Strategy::IssueTime { latency: 4 }),
        "friendly" => Ok(Strategy::Friendly { middle_bias: false }),
        "friendly-mid" => Ok(Strategy::Friendly { middle_bias: true }),
        "fdrt" => Ok(Strategy::Fdrt { pinning: true }),
        "fdrt-nopin" => Ok(Strategy::Fdrt { pinning: false }),
        "fdrt-intra" => Ok(Strategy::FdrtIntraOnly),
        other => Err(CliError(format!(
            "unknown strategy {other:?} (try: base issue0 issue4 friendly friendly-mid \
             fdrt fdrt-nopin fdrt-intra)"
        ))),
    }
}

impl Cli {
    /// Parses argv (without the program name).
    ///
    /// # Errors
    ///
    /// Returns a [`CliError`] describing the first problem encountered.
    pub fn parse<I, S>(argv: I) -> Result<Cli, CliError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let args: Vec<String> = argv.into_iter().map(Into::into).collect();
        let Some(cmd) = args.first() else {
            return Ok(Cli {
                command: Command::Help,
            });
        };
        let rest = &args[1..];
        let command = match cmd.as_str() {
            "list" => {
                expect_no_args(rest)?;
                Command::List
            }
            "help" | "--help" | "-h" => Command::Help,
            "run" => Command::Run(parse_run_args(rest)?),
            "compare" => Command::Compare(parse_run_args(rest)?),
            "sweep" => Command::Sweep(parse_sweep_args(rest)?),
            "trace" => Command::Trace(parse_trace_args(rest)?),
            "analyze" => Command::Analyze(parse_analyze_args(rest)?),
            "store" => Command::Store(parse_store_args(rest)?),
            "serve" => Command::Serve(parse_serve_args(rest)?),
            "client" => Command::Client(parse_client_args(rest)?),
            "top" => Command::Top(parse_top_args(rest)?),
            "disasm" => {
                let ra = parse_run_args(rest)?;
                Command::Disasm(ra.source)
            }
            other => return Err(CliError(format!("unknown command {other:?}"))),
        };
        Ok(Cli { command })
    }
}

fn expect_no_args(rest: &[String]) -> Result<(), CliError> {
    if rest.is_empty() {
        Ok(())
    } else {
        Err(CliError(format!("unexpected argument {:?}", rest[0])))
    }
}

fn parse_run_args(rest: &[String]) -> Result<RunArgs, CliError> {
    let mut out = RunArgs::default();
    let mut source: Option<ProgramSource> = None;
    let mut i = 0;
    let value = |i: &mut usize| -> Result<String, CliError> {
        *i += 1;
        rest.get(*i)
            .cloned()
            .ok_or_else(|| CliError(format!("{} needs a value", rest[*i - 1])))
    };
    while i < rest.len() {
        match rest[i].as_str() {
            "--bench" => source = Some(ProgramSource::Bench(value(&mut i)?)),
            "--asm" => source = Some(ProgramSource::AsmFile(value(&mut i)?)),
            "--strategy" => out.strategy = parse_strategy(&value(&mut i)?)?,
            "--insts" => {
                let v = value(&mut i)?;
                out.insts = v
                    .parse()
                    .map_err(|_| CliError(format!("bad --insts value {v:?}")))?;
            }
            "--warmup" => {
                let v = value(&mut i)?;
                out.warmup = v
                    .parse()
                    .map_err(|_| CliError(format!("bad --warmup value {v:?}")))?;
            }
            "--clusters" => {
                let v = value(&mut i)?;
                out.clusters = v
                    .parse()
                    .ok()
                    .filter(|&c: &u8| (1..=8).contains(&c))
                    .ok_or_else(|| CliError(format!("bad --clusters value {v:?} (1..=8)")))?;
            }
            "--topology" => out.topology = parse_topology(&value(&mut i)?)?,
            "--hop" => {
                let v = value(&mut i)?;
                out.hop_latency = v
                    .parse()
                    .map_err(|_| CliError(format!("bad --hop value {v:?}")))?;
            }
            "--csv" => out.csv = true,
            other => return Err(CliError(format!("unknown flag {other:?}"))),
        }
        i += 1;
    }
    if let Some(s) = source {
        out.source = s;
    }
    Ok(out)
}

fn parse_trace_args(rest: &[String]) -> Result<TraceArgs, CliError> {
    let mut out = TraceArgs::default();
    // Trace-specific flags are consumed here; everything else (source,
    // strategy, geometry, budget) is collected and handed to the shared
    // `run` parser.
    let mut shared: Vec<String> = Vec::new();
    let mut i = 0;
    // A leading bare word is the benchmark name: `ctcp trace gzip`.
    if rest.first().is_some_and(|a| !a.starts_with("--")) {
        shared.push("--bench".into());
        shared.push(rest[0].clone());
        i = 1;
    }
    let value = |i: &mut usize| -> Result<String, CliError> {
        *i += 1;
        rest.get(*i)
            .cloned()
            .ok_or_else(|| CliError(format!("{} needs a value", rest[*i - 1])))
    };
    while i < rest.len() {
        match rest[i].as_str() {
            "--out" => out.out = value(&mut i)?,
            "--metrics-out" => out.metrics_out = Some(value(&mut i)?),
            "--sample" => {
                let v = value(&mut i)?;
                out.sample = v
                    .parse()
                    .map_err(|_| CliError(format!("bad --sample value {v:?}")))?;
            }
            "--events" => {
                let v = value(&mut i)?;
                out.events = v
                    .parse()
                    .map_err(|_| CliError(format!("bad --events value {v:?}")))?;
            }
            "--check" => out.check = true,
            other => shared.push(other.to_string()),
        }
        i += 1;
    }
    out.run = parse_run_args(&shared)?;
    Ok(out)
}

fn parse_analyze_args(rest: &[String]) -> Result<AnalyzeArgs, CliError> {
    let mut out = AnalyzeArgs::default();
    // Analyze-specific flags are consumed here; everything else
    // (source, geometry, budget) goes to the shared `run` parser.
    let mut shared: Vec<String> = Vec::new();
    let mut i = 0;
    // A leading bare word is the benchmark name: `ctcp analyze gzip`.
    if rest.first().is_some_and(|a| !a.starts_with("--")) {
        shared.push("--bench".into());
        shared.push(rest[0].clone());
        i = 1;
    }
    let value = |i: &mut usize| -> Result<String, CliError> {
        *i += 1;
        rest.get(*i)
            .cloned()
            .ok_or_else(|| CliError(format!("{} needs a value", rest[*i - 1])))
    };
    while i < rest.len() {
        match rest[i].as_str() {
            "--strategy" | "--strategies" => {
                let v = value(&mut i)?;
                out.strategies = comma_list("--strategies", &v)?
                    .iter()
                    .map(|s| parse_strategy(s))
                    .collect::<Result<_, _>>()?;
            }
            "--json" => out.json = true,
            "--top" => {
                let v = value(&mut i)?;
                out.top = v
                    .parse()
                    .map_err(|_| CliError(format!("bad --top value {v:?}")))?;
            }
            other => shared.push(other.to_string()),
        }
        i += 1;
    }
    out.run = parse_run_args(&shared)?;
    Ok(out)
}

fn parse_store_args(rest: &[String]) -> Result<StoreArgs, CliError> {
    let Some(action) = rest.first() else {
        return Err(CliError(
            "store needs an action (verify|compact|gc)".to_string(),
        ));
    };
    let action = match action.as_str() {
        "verify" => StoreAction::Verify,
        "compact" => StoreAction::Compact,
        "gc" => StoreAction::Gc,
        other => {
            return Err(CliError(format!(
                "unknown store action {other:?} (verify|compact|gc)"
            )))
        }
    };
    let mut dir = None;
    let mut i = 1;
    while i < rest.len() {
        match rest[i].as_str() {
            "--dir" => {
                i += 1;
                dir = Some(
                    rest.get(i)
                        .cloned()
                        .ok_or_else(|| CliError("--dir needs a value".to_string()))?,
                );
            }
            other => return Err(CliError(format!("unknown flag {other:?}"))),
        }
        i += 1;
    }
    Ok(StoreArgs { action, dir })
}

fn parse_serve_args(rest: &[String]) -> Result<ServeArgs, CliError> {
    let mut out = ServeArgs::default();
    let mut i = 0;
    let value = |i: &mut usize| -> Result<String, CliError> {
        *i += 1;
        rest.get(*i)
            .cloned()
            .ok_or_else(|| CliError(format!("{} needs a value", rest[*i - 1])))
    };
    while i < rest.len() {
        match rest[i].as_str() {
            "--addr" => out.addr = value(&mut i)?,
            "--jobs" => {
                let v = value(&mut i)?;
                out.jobs = v
                    .parse()
                    .map_err(|_| CliError(format!("bad --jobs value {v:?}")))?;
            }
            "--max-queue" => {
                let v = value(&mut i)?;
                out.max_queue = v
                    .parse()
                    .map_err(|_| CliError(format!("bad --max-queue value {v:?}")))?;
            }
            "--dir" => out.dir = Some(value(&mut i)?),
            "--log-level" => {
                let v = value(&mut i)?;
                if !matches!(v.as_str(), "off" | "error" | "warn" | "info" | "debug") {
                    return Err(CliError(format!(
                        "bad --log-level value {v:?} (off|error|warn|info|debug)"
                    )));
                }
                out.log_level = Some(v);
            }
            "--log-file" => out.log_file = Some(value(&mut i)?),
            other => return Err(CliError(format!("unknown flag {other:?}"))),
        }
        i += 1;
    }
    Ok(out)
}

fn parse_top_args(rest: &[String]) -> Result<TopArgs, CliError> {
    let mut out = TopArgs::default();
    let mut addr: Option<String> = None;
    let mut i = 0;
    let value = |i: &mut usize| -> Result<String, CliError> {
        *i += 1;
        rest.get(*i)
            .cloned()
            .ok_or_else(|| CliError(format!("{} needs a value", rest[*i - 1])))
    };
    while i < rest.len() {
        match rest[i].as_str() {
            "--addr" => addr = Some(value(&mut i)?),
            "--interval-ms" => {
                let v = value(&mut i)?;
                out.interval_ms = v
                    .parse()
                    .ok()
                    .filter(|&ms: &u64| ms > 0)
                    .ok_or_else(|| CliError(format!("bad --interval-ms value {v:?}")))?;
            }
            "--once" => out.once = true,
            other => return Err(CliError(format!("unknown flag {other:?}"))),
        }
        i += 1;
    }
    let Some(addr) = addr else {
        return Err(CliError(
            "top needs --addr HOST:PORT (as printed by `ctcp serve`)".to_string(),
        ));
    };
    out.addr = addr;
    Ok(out)
}

fn parse_client_args(rest: &[String]) -> Result<ClientArgs, CliError> {
    let Some(action) = rest.first() else {
        return Err(CliError(
            "client needs an action (sweep|analyze|resume|status|shutdown)".to_string(),
        ));
    };
    // `--addr`, `--retries` and `--backoff-ms` belong to the client
    // itself; everything else is the remote command line, handed to the
    // matching one-shot parser so the local and remote flag spellings
    // never diverge.
    let mut addr: Option<String> = None;
    let mut retries: u32 = 0;
    let mut backoff_ms: u64 = 200;
    let mut remote: Vec<String> = Vec::new();
    let mut i = 1;
    let value = |i: &mut usize| -> Result<String, CliError> {
        *i += 1;
        rest.get(*i)
            .cloned()
            .ok_or_else(|| CliError(format!("{} needs a value", rest[*i - 1])))
    };
    while i < rest.len() {
        match rest[i].as_str() {
            "--addr" => addr = Some(value(&mut i)?),
            "--retries" => {
                let v = value(&mut i)?;
                retries = v
                    .parse()
                    .map_err(|_| CliError(format!("bad --retries value {v:?}")))?;
            }
            "--backoff-ms" => {
                let v = value(&mut i)?;
                backoff_ms = v
                    .parse()
                    .ok()
                    .filter(|&ms: &u64| ms > 0)
                    .ok_or_else(|| CliError(format!("bad --backoff-ms value {v:?}")))?;
            }
            other => remote.push(other.to_string()),
        }
        i += 1;
    }
    let Some(addr) = addr else {
        return Err(CliError(
            "client needs --addr HOST:PORT (as printed by `ctcp serve`)".to_string(),
        ));
    };
    let action = match action.as_str() {
        "sweep" => ClientAction::Sweep(parse_sweep_args(&remote)?),
        "analyze" => ClientAction::Analyze(parse_analyze_args(&remote)?),
        "resume" => match remote.as_slice() {
            [token] if !token.starts_with("--") => ClientAction::Resume(token.clone()),
            _ => {
                return Err(CliError(
                    "resume needs exactly one TOKEN (from the batch's accepted event)".to_string(),
                ))
            }
        },
        "status" | "shutdown" => {
            if let Some(extra) = remote.first() {
                return Err(CliError(format!("unexpected argument {extra:?}")));
            }
            if action == "status" {
                ClientAction::Status
            } else {
                ClientAction::Shutdown
            }
        }
        other => {
            return Err(CliError(format!(
                "unknown client action {other:?} (sweep|analyze|resume|status|shutdown)"
            )))
        }
    };
    Ok(ClientArgs {
        addr,
        retries,
        backoff_ms,
        action,
    })
}

/// Parses a topology name as accepted by `--topology`.
pub(crate) fn parse_topology(s: &str) -> Result<Topology, CliError> {
    match s {
        "linear" => Ok(Topology::Linear),
        "ring" | "mesh" => Ok(Topology::Ring),
        "full" | "p2p" => Ok(Topology::FullyConnected),
        other => Err(CliError(format!(
            "bad --topology {other:?} (linear|ring|full)"
        ))),
    }
}

/// Splits a comma-separated list, rejecting empty elements.
fn comma_list(flag: &str, v: &str) -> Result<Vec<String>, CliError> {
    let parts: Vec<String> = v.split(',').map(str::to_string).collect();
    if parts.iter().any(String::is_empty) {
        return Err(CliError(format!("{flag} has an empty element in {v:?}")));
    }
    Ok(parts)
}

fn parse_sweep_args(rest: &[String]) -> Result<SweepArgs, CliError> {
    let mut out = SweepArgs::default();
    let mut i = 0;
    let value = |i: &mut usize| -> Result<String, CliError> {
        *i += 1;
        rest.get(*i)
            .cloned()
            .ok_or_else(|| CliError(format!("{} needs a value", rest[*i - 1])))
    };
    while i < rest.len() {
        match rest[i].as_str() {
            "--benches" => {
                let v = value(&mut i)?;
                out.spec.benches = match v.as_str() {
                    "focus" => SweepSpec::default().benches,
                    // Suite keywords are resolved against the preset
                    // lists at execution time (names only here).
                    "spec" | "media" | "all" => vec![v.clone()],
                    _ => comma_list("--benches", &v)?,
                };
            }
            "--strategies" => {
                let v = value(&mut i)?;
                out.spec.strategies = comma_list("--strategies", &v)?
                    .iter()
                    .map(|s| parse_strategy(s))
                    .collect::<Result<_, _>>()?;
            }
            "--clusters" => {
                let v = value(&mut i)?;
                out.spec.clusters = comma_list("--clusters", &v)?
                    .iter()
                    .map(|c| {
                        c.parse()
                            .ok()
                            .filter(|&c: &u8| (1..=8).contains(&c))
                            .ok_or_else(|| CliError(format!("bad --clusters value {c:?} (1..=8)")))
                    })
                    .collect::<Result<_, _>>()?;
            }
            "--topology" => {
                let v = value(&mut i)?;
                out.spec.topologies = comma_list("--topology", &v)?
                    .iter()
                    .map(|t| parse_topology(t))
                    .collect::<Result<_, _>>()?;
            }
            "--insts" => {
                let v = value(&mut i)?;
                out.spec.insts = v
                    .parse()
                    .map_err(|_| CliError(format!("bad --insts value {v:?}")))?;
            }
            "--warmup" => {
                let v = value(&mut i)?;
                out.spec.warmup = v
                    .parse()
                    .map_err(|_| CliError(format!("bad --warmup value {v:?}")))?;
            }
            "--jobs" => {
                let v = value(&mut i)?;
                out.jobs = v
                    .parse()
                    .map_err(|_| CliError(format!("bad --jobs value {v:?}")))?;
            }
            "--cache" => out.cache = true,
            "--csv" => out.csv = true,
            "--metrics-out" => out.metrics_out = Some(value(&mut i)?),
            "--attrib" => out.attrib = true,
            other => return Err(CliError(format!("unknown flag {other:?}"))),
        }
        i += 1;
    }
    Ok(out)
}

/// The usage text printed by `ctcp help`.
pub const USAGE: &str = "\
ctcp — clustered trace cache processor simulator

USAGE:
  ctcp list                               list benchmark presets
  ctcp run     [SOURCE] [OPTIONS]         simulate one strategy
  ctcp compare [SOURCE] [OPTIONS]         compare all strategies
  ctcp sweep   [SWEEP OPTIONS]            run a strategy/benchmark/geometry grid
  ctcp trace   [BENCH] [TRACE OPTIONS]    simulate with telemetry, export a trace
  ctcp analyze [BENCH] [ANALYZE OPTIONS]  attribute cycles: CPI stack, utilization,
                                          critical-path edges, per strategy
  ctcp disasm  [SOURCE]                   print program disassembly
  ctcp store   ACTION [--dir D]           inspect or maintain the result store
  ctcp serve   [SERVE OPTIONS]            run the resident sweep service
  ctcp client  ACTION --addr A [...]      talk to a running sweep service
  ctcp top     --addr A [TOP OPTIONS]     live dashboard over a running service
  ctcp help                               this text

SOURCE:
  --bench NAME        synthetic benchmark preset (default: gzip)
  --asm FILE          TRISC assembly file

OPTIONS:
  --strategy S        base | issue0 | issue4 | friendly | friendly-mid |
                      fdrt | fdrt-nopin | fdrt-intra   (default: base)
  --insts N           timed instruction budget (default: 100000)
  --warmup N          fast-forward N instructions (functional warmup, no
                      timing) before the timed phase (default: 0)
  --clusters N        cluster count, 1..=8 (default: 4)
  --topology T        linear | ring | full (default: linear)
  --hop N             forwarding latency per hop (default: 2)
  --csv               machine-readable output

SWEEP OPTIONS:
  --benches B         focus | spec | media | all | name,name,...
                      (default: the six focus benchmarks)
  --strategies S,S    strategy list as above (default: issue0,issue4,friendly,fdrt;
                      a baseline cell is always run per benchmark × geometry)
  --clusters N,N      cluster counts to sweep (default: 4)
  --topology T,T      topologies to sweep (default: linear)
  --insts N           timed instruction budget per cell (default: 100000)
  --warmup N          fast-forward N instructions per cell before timing
                      (default: 0)
  --jobs N            worker threads, 0 = all cores (default: 0)
  --cache             memoize cells in target/ctcp-results/
  --csv               machine-readable output
  --metrics-out FILE  stream one JSONL metrics record per simulated cell
  --attrib            collect per-cell CPI stacks and append a strategy ×
                      benchmark attribution table

STORE ACTIONS (sweep exits non-zero when any cell fails; so does
`store verify` on corruption):
  verify              read-only integrity scan of the result store
  compact             rewrite to one line per key (newest wins),
                      quarantining corrupt lines
  gc                  compact, then delete the quarantine file
  --dir D             store directory (default: target/ctcp-results)

SERVE OPTIONS:
  --addr A            listen address (default 127.0.0.1:0 — an ephemeral
                      port; the bound address is printed either way)
  --jobs N            resident worker threads shared by all clients,
                      0 = all cores (default: 0)
  --max-queue N       refuse batches that would leave more than N cells
                      queued (503; 0 = unbounded, the default)
  --dir D             result-store directory (default: target/ctcp-results)
  --log-level L       structured-log threshold: off|error|warn|info|debug
                      (default: the CTCP_LOG env var, else warn); one JSON
                      object per line on stderr
  --log-file FILE     append structured log lines to FILE instead of stderr

TOP OPTIONS (needs --addr HOST:PORT, as printed by `ctcp serve`):
  --interval-ms M     refresh period between redraws (default: 1000)
  --once              render a single frame and exit (no screen clearing)

The daemon also exposes GET /metrics (Prometheus text exposition),
GET /trace/TOKEN (one request's spans as Chrome trace JSON) and a
richer GET /status (rolling rates, live request table, recent logs).

CLIENT ACTIONS (all need --addr HOST:PORT, as printed by `ctcp serve`):
  sweep [SWEEP OPTIONS]      run a sweep remotely; progress streams to
                             stderr, the rendered table to stdout
                             (--jobs/--cache/--metrics-out are daemon-side
                             and ignored here)
  analyze [ANALYZE OPTIONS]  run a cycle attribution remotely (--bench only)
  resume TOKEN               re-attach to an admitted batch by its resume
                             token and stream it from the beginning
  status                     print the daemon's status JSON
  shutdown                   drain in-flight batches and exit
  --retries N                reconnect attempts for batch actions: broken
                             streams re-attach via the resume token, 503s
                             honor the daemon's Retry-After (default: 0)
  --backoff-ms M             base reconnect delay, doubled per attempt
                             with jitter (default: 200)

TRACE OPTIONS (plus SOURCE and OPTIONS above):
  --out FILE          Chrome trace-event JSON path (default: ctcp-trace.json;
                      load via about://tracing or https://ui.perfetto.dev)
  --metrics-out FILE  also dump counters and histograms as JSONL
  --sample N          record every Nth instruction timeline, 0 = none (default: 1)
  --events N          event ring capacity; oldest spans drop beyond this
                      (default: 65536)
  --check             validate the trace file and reconcile its counters
                      against the simulation report (includes flow-event
                      pairing for inter-cluster forwards)

ANALYZE OPTIONS (plus SOURCE and OPTIONS above):
  --strategies S,S    strategies to attribute
                      (default: base,issue4,friendly,fdrt)
  --top N             critical-path edges to report per strategy (default: 8)
  --json              emit the full attribution as one JSON document
  --csv               CPI-stack rows as CSV
";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_argv_is_help() {
        let cli = Cli::parse(Vec::<String>::new()).unwrap();
        assert_eq!(cli.command, Command::Help);
    }

    #[test]
    fn list_takes_no_args() {
        assert!(Cli::parse(["list"]).is_ok());
        assert!(Cli::parse(["list", "x"]).is_err());
    }

    #[test]
    fn run_defaults() {
        let cli = Cli::parse(["run"]).unwrap();
        let Command::Run(a) = cli.command else {
            panic!("expected run")
        };
        assert_eq!(a.source, ProgramSource::Bench("gzip".into()));
        assert_eq!(a.strategy, Strategy::Baseline);
        assert_eq!(a.insts, 100_000);
        assert!(!a.csv);
    }

    #[test]
    fn run_with_everything() {
        let cli = Cli::parse([
            "run",
            "--bench",
            "twolf",
            "--strategy",
            "fdrt",
            "--insts",
            "5000",
            "--warmup",
            "2000",
            "--clusters",
            "2",
            "--topology",
            "ring",
            "--hop",
            "1",
            "--csv",
        ])
        .unwrap();
        let Command::Run(a) = cli.command else {
            panic!("expected run")
        };
        assert_eq!(a.source, ProgramSource::Bench("twolf".into()));
        assert_eq!(a.strategy, Strategy::Fdrt { pinning: true });
        assert_eq!(a.insts, 5_000);
        assert_eq!(a.warmup, 2_000);
        assert_eq!(a.clusters, 2);
        assert_eq!(a.topology, Topology::Ring);
        assert_eq!(a.hop_latency, 1);
        assert!(a.csv);
    }

    #[test]
    fn all_strategy_names_parse() {
        for (name, expect) in [
            ("base", Strategy::Baseline),
            ("issue0", Strategy::IssueTime { latency: 0 }),
            ("issue4", Strategy::IssueTime { latency: 4 }),
            ("friendly", Strategy::Friendly { middle_bias: false }),
            ("friendly-mid", Strategy::Friendly { middle_bias: true }),
            ("fdrt", Strategy::Fdrt { pinning: true }),
            ("fdrt-nopin", Strategy::Fdrt { pinning: false }),
            ("fdrt-intra", Strategy::FdrtIntraOnly),
        ] {
            assert_eq!(parse_strategy(name).unwrap(), expect, "{name}");
        }
        assert!(parse_strategy("bogus").is_err());
    }

    #[test]
    fn missing_value_is_an_error() {
        assert!(Cli::parse(["run", "--insts"]).is_err());
        assert!(Cli::parse(["run", "--strategy"]).is_err());
    }

    #[test]
    fn bad_values_are_errors() {
        assert!(Cli::parse(["run", "--insts", "many"]).is_err());
        assert!(Cli::parse(["run", "--clusters", "0"]).is_err());
        assert!(Cli::parse(["run", "--clusters", "9"]).is_err());
        assert!(Cli::parse(["run", "--topology", "torus"]).is_err());
    }

    #[test]
    fn unknown_flags_and_commands_are_errors() {
        assert!(Cli::parse(["run", "--frobnicate"]).is_err());
        assert!(Cli::parse(["launch"]).is_err());
    }

    #[test]
    fn asm_source() {
        let cli = Cli::parse(["disasm", "--asm", "k.s"]).unwrap();
        assert_eq!(
            cli.command,
            Command::Disasm(ProgramSource::AsmFile("k.s".into()))
        );
    }

    #[test]
    fn sweep_defaults() {
        let cli = Cli::parse(["sweep"]).unwrap();
        let Command::Sweep(a) = cli.command else {
            panic!("expected sweep")
        };
        assert_eq!(a.spec, SweepSpec::default());
        assert_eq!(a.spec.benches.len(), 6);
        assert_eq!(a.spec.strategies.len(), 4);
        assert_eq!(a.spec.clusters, vec![4]);
        assert_eq!(a.spec.topologies, vec![Topology::Linear]);
        assert_eq!(a.spec.warmup, 0);
        assert_eq!(a.jobs, 0);
        assert!(!a.cache);
        assert!(!a.csv);
    }

    #[test]
    fn sweep_with_everything() {
        let cli = Cli::parse([
            "sweep",
            "--benches",
            "gzip,twolf",
            "--strategies",
            "fdrt,friendly",
            "--clusters",
            "2,4",
            "--topology",
            "linear,ring",
            "--insts",
            "9000",
            "--warmup",
            "2500",
            "--jobs",
            "3",
            "--cache",
            "--csv",
        ])
        .unwrap();
        let Command::Sweep(a) = cli.command else {
            panic!("expected sweep")
        };
        assert_eq!(
            a.spec.benches,
            vec!["gzip".to_string(), "twolf".to_string()]
        );
        assert_eq!(
            a.spec.strategies,
            vec![
                Strategy::Fdrt { pinning: true },
                Strategy::Friendly { middle_bias: false }
            ]
        );
        assert_eq!(a.spec.clusters, vec![2, 4]);
        assert_eq!(a.spec.topologies, vec![Topology::Linear, Topology::Ring]);
        assert_eq!(a.spec.insts, 9_000);
        assert_eq!(a.spec.warmup, 2_500);
        assert_eq!(a.jobs, 3);
        assert!(a.cache);
        assert!(a.csv);
    }

    #[test]
    fn sweep_rejects_bad_lists() {
        assert!(Cli::parse(["sweep", "--strategies", "fdrt,,base"]).is_err());
        assert!(Cli::parse(["sweep", "--strategies", "warp"]).is_err());
        assert!(Cli::parse(["sweep", "--clusters", "2,9"]).is_err());
        assert!(Cli::parse(["sweep", "--topology", "torus"]).is_err());
        assert!(Cli::parse(["sweep", "--frobnicate"]).is_err());
        assert!(Cli::parse(["sweep", "--jobs"]).is_err());
        assert!(Cli::parse(["sweep", "--warmup", "soon"]).is_err());
        assert!(Cli::parse(["run", "--warmup", "soon"]).is_err());
    }

    #[test]
    fn analyze_defaults() {
        let cli = Cli::parse(["analyze"]).unwrap();
        let Command::Analyze(a) = cli.command else {
            panic!("expected analyze")
        };
        assert_eq!(a.run.source, ProgramSource::Bench("gzip".into()));
        assert_eq!(a.strategies.len(), 4);
        assert_eq!(a.strategies[0], Strategy::Baseline);
        assert_eq!(a.top, 8);
        assert!(!a.json);
        assert!(!a.run.csv);
    }

    #[test]
    fn analyze_with_everything() {
        let cli = Cli::parse([
            "analyze",
            "twolf",
            "--strategies",
            "base,fdrt",
            "--top",
            "3",
            "--insts",
            "5000",
            "--clusters",
            "2",
            "--json",
        ])
        .unwrap();
        let Command::Analyze(a) = cli.command else {
            panic!("expected analyze")
        };
        assert_eq!(a.run.source, ProgramSource::Bench("twolf".into()));
        assert_eq!(
            a.strategies,
            vec![Strategy::Baseline, Strategy::Fdrt { pinning: true }]
        );
        assert_eq!(a.top, 3);
        assert_eq!(a.run.insts, 5_000);
        assert_eq!(a.run.clusters, 2);
        assert!(a.json);
    }

    #[test]
    fn analyze_rejects_bad_forms() {
        assert!(Cli::parse(["analyze", "--strategies", "warp"]).is_err());
        assert!(Cli::parse(["analyze", "--top", "many"]).is_err());
        assert!(Cli::parse(["analyze", "--frobnicate"]).is_err());
    }

    #[test]
    fn sweep_attrib_flag() {
        let cli = Cli::parse(["sweep", "--attrib"]).unwrap();
        let Command::Sweep(a) = cli.command else {
            panic!("expected sweep")
        };
        assert!(a.attrib);
        let Command::Sweep(a) = Cli::parse(["sweep"]).unwrap().command else {
            panic!("expected sweep")
        };
        assert!(!a.attrib);
    }

    #[test]
    fn store_actions_parse() {
        for (word, action) in [
            ("verify", StoreAction::Verify),
            ("compact", StoreAction::Compact),
            ("gc", StoreAction::Gc),
        ] {
            let cli = Cli::parse(["store", word]).unwrap();
            assert_eq!(
                cli.command,
                Command::Store(StoreArgs { action, dir: None }),
                "{word}"
            );
        }
        let cli = Cli::parse(["store", "verify", "--dir", "/tmp/s"]).unwrap();
        assert_eq!(
            cli.command,
            Command::Store(StoreArgs {
                action: StoreAction::Verify,
                dir: Some("/tmp/s".into()),
            })
        );
    }

    #[test]
    fn store_rejects_bad_forms() {
        assert!(Cli::parse(["store"]).is_err());
        assert!(Cli::parse(["store", "polish"]).is_err());
        assert!(Cli::parse(["store", "verify", "--dir"]).is_err());
        assert!(Cli::parse(["store", "verify", "--frobnicate"]).is_err());
    }

    #[test]
    fn serve_defaults_and_flags() {
        let cli = Cli::parse(["serve"]).unwrap();
        assert_eq!(cli.command, Command::Serve(ServeArgs::default()));
        let cli = Cli::parse([
            "serve",
            "--addr",
            "127.0.0.1:7199",
            "--jobs",
            "3",
            "--max-queue",
            "64",
            "--dir",
            "/tmp/s",
            "--log-level",
            "debug",
            "--log-file",
            "/tmp/serve.log",
        ])
        .unwrap();
        assert_eq!(
            cli.command,
            Command::Serve(ServeArgs {
                addr: "127.0.0.1:7199".into(),
                jobs: 3,
                max_queue: 64,
                dir: Some("/tmp/s".into()),
                log_level: Some("debug".into()),
                log_file: Some("/tmp/serve.log".into()),
            })
        );
        assert!(Cli::parse(["serve", "--jobs", "many"]).is_err());
        assert!(Cli::parse(["serve", "--max-queue", "lots"]).is_err());
        assert!(Cli::parse(["serve", "--log-level", "loud"]).is_err());
        assert!(Cli::parse(["serve", "--frobnicate"]).is_err());
    }

    #[test]
    fn top_needs_addr_and_parses_flags() {
        assert!(Cli::parse(["top"]).is_err(), "--addr is required");
        let cli = Cli::parse(["top", "--addr", "127.0.0.1:9"]).unwrap();
        assert_eq!(
            cli.command,
            Command::Top(TopArgs {
                addr: "127.0.0.1:9".into(),
                interval_ms: 1000,
                once: false,
            })
        );
        let cli = Cli::parse(["top", "--addr", "h:1", "--interval-ms", "250", "--once"]).unwrap();
        assert_eq!(
            cli.command,
            Command::Top(TopArgs {
                addr: "h:1".into(),
                interval_ms: 250,
                once: true,
            })
        );
        assert!(Cli::parse(["top", "--addr", "h:1", "--interval-ms", "0"]).is_err());
        assert!(Cli::parse(["top", "--addr", "h:1", "--wat"]).is_err());
    }

    #[test]
    fn client_actions_parse() {
        let cli = Cli::parse(["client", "status", "--addr", "127.0.0.1:1"]).unwrap();
        assert_eq!(
            cli.command,
            Command::Client(ClientArgs {
                addr: "127.0.0.1:1".into(),
                retries: 0,
                backoff_ms: 200,
                action: ClientAction::Status,
            })
        );
        let cli = Cli::parse(["client", "shutdown", "--addr", "h:2"]).unwrap();
        let Command::Client(a) = cli.command else {
            panic!("expected client")
        };
        assert_eq!(a.action, ClientAction::Shutdown);
        // The remote command line reuses the one-shot sweep parser,
        // with --addr extracted wherever it appears.
        let cli = Cli::parse([
            "client",
            "sweep",
            "--benches",
            "gzip",
            "--addr",
            "h:3",
            "--csv",
        ])
        .unwrap();
        let Command::Client(a) = cli.command else {
            panic!("expected client")
        };
        assert_eq!(a.addr, "h:3");
        let ClientAction::Sweep(sw) = a.action else {
            panic!("expected sweep action")
        };
        assert_eq!(sw.spec.benches, vec!["gzip".to_string()]);
        assert!(sw.csv);
        let cli = Cli::parse(["client", "analyze", "gzip", "--addr", "h:4"]).unwrap();
        let Command::Client(a) = cli.command else {
            panic!("expected client")
        };
        assert!(matches!(a.action, ClientAction::Analyze(_)));
    }

    #[test]
    fn client_rejects_bad_forms() {
        assert!(Cli::parse(["client"]).is_err());
        assert!(Cli::parse(["client", "ping", "--addr", "h:1"]).is_err());
        assert!(Cli::parse(["client", "sweep"]).is_err(), "--addr required");
        assert!(Cli::parse(["client", "status", "--addr"]).is_err());
        assert!(Cli::parse(["client", "status", "--addr", "h:1", "extra"]).is_err());
        assert!(Cli::parse(["client", "sweep", "--addr", "h:1", "--clusters", "9"]).is_err());
        assert!(Cli::parse(["client", "sweep", "--addr", "h:1", "--retries", "many"]).is_err());
        assert!(Cli::parse(["client", "sweep", "--addr", "h:1", "--backoff-ms", "0"]).is_err());
        assert!(Cli::parse(["client", "resume", "--addr", "h:1"]).is_err());
        assert!(Cli::parse(["client", "resume", "a", "b", "--addr", "h:1"]).is_err());
    }

    #[test]
    fn client_resume_and_retry_flags_parse() {
        let cli = Cli::parse([
            "client",
            "resume",
            "00ff00ff00ff00ff",
            "--addr",
            "h:1",
            "--retries",
            "3",
            "--backoff-ms",
            "50",
        ])
        .unwrap();
        assert_eq!(
            cli.command,
            Command::Client(ClientArgs {
                addr: "h:1".into(),
                retries: 3,
                backoff_ms: 50,
                action: ClientAction::Resume("00ff00ff00ff00ff".into()),
            })
        );
        // The retry knobs ride along with any action, anywhere in argv.
        let cli = Cli::parse([
            "client",
            "sweep",
            "--retries",
            "2",
            "--benches",
            "gzip",
            "--addr",
            "h:2",
        ])
        .unwrap();
        let Command::Client(a) = cli.command else {
            panic!("expected client")
        };
        assert_eq!(a.retries, 2);
        assert!(matches!(a.action, ClientAction::Sweep(_)));
    }

    #[test]
    fn sweep_suite_keywords() {
        for kw in ["spec", "media", "all"] {
            let cli = Cli::parse(["sweep", "--benches", kw]).unwrap();
            let Command::Sweep(a) = cli.command else {
                panic!("expected sweep")
            };
            assert_eq!(a.spec.benches, vec![kw.to_string()]);
        }
        let cli = Cli::parse(["sweep", "--benches", "focus"]).unwrap();
        let Command::Sweep(a) = cli.command else {
            panic!("expected sweep")
        };
        assert_eq!(a.spec.benches.len(), 6);
    }
}
