//! `serve_mixed`: the sweep service under a cold and a hot closed-loop
//! client. The daemon is this binary re-executed as `daemon serve …`,
//! which runs exactly what the `ctcp serve` command runs. A short run of
//! the same traffic mix ([`probe`]) gives the traced in-process
//! workloads their service rows.

use crate::calib;
use crate::client::{exchange, Reply};
use crate::layers::{self, LayerInput};
use crate::oneshot::{generate, CellTimes};
use crate::outcome::{peak_rss_mb, Opts, Outcome, Phase, ServeStats};
use crate::trace::Tracer;
use ctcp_harness::{Harness, Job, SweepSpec};
use ctcp_isa::Program;
use ctcp_sim::{SimReport, Strategy, Topology};
use ctcp_telemetry::json::Value;
use ctcp_workload::{Benchmark, Pcg32};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Timed instructions of a hot grid; cold grid `k` runs `BASE_INSTS + k`
/// so every cold cell is a new content key.
const BASE_INSTS: u64 = 40_000;
/// Grids the hot client re-asks.
const HOT_GRIDS: usize = 8;
/// One cold response in this many is recomputed in-process.
const RECHECK_EVERY: u64 = 10;
/// Seconds between the hot client's `GET /status` samples.
const STATUS_PERIOD: Duration = Duration::from_secs(1);
/// Daemon set-ups before the timed phase (the last one serves it), and
/// again after it.
const SETUPS: usize = 10;
/// Seconds a [`probe`] runs its clients.
const PROBE_SECONDS: f64 = 2.0;

/// A daemon child process.
struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Daemon {
    /// Starts `ctcp serve` on a fresh store directory and waits for its
    /// `listening on` line.
    fn spawn(dir: &Path) -> std::io::Result<Daemon> {
        let exe = std::env::current_exe()?;
        let mut child = Command::new(exe)
            .args(["daemon", "serve", "--jobs", "2", "--addr", "127.0.0.1:0"])
            .args(["--log-level", "error", "--dir"])
            .arg(dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        loop {
            line.clear();
            if stdout.read_line(&mut line)? == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err(std::io::Error::other("daemon exited before listening"));
            }
            if let Some(addr) = line.trim().split("listening on ").nth(1) {
                let addr = addr.to_string();
                return Ok(Daemon {
                    child,
                    stdout,
                    addr,
                });
            }
        }
    }

    /// Asks the daemon to drain and waits for it to exit.
    fn shutdown(mut self) -> std::io::Result<()> {
        exchange(&self.addr, "POST", "/shutdown", b"")?;
        // Drain the summary line so the daemon never writes to a closed pipe.
        let mut rest = String::new();
        self.stdout.read_to_string(&mut rest)?;
        let status = self.child.wait()?;
        if status.success() {
            Ok(())
        } else {
            Err(std::io::Error::other(format!(
                "daemon exited with {status}"
            )))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Only reached without a clean shutdown: never leave a daemon behind.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One sweep request: two presets × {base, fdrt} at 4 clusters.
#[derive(Clone)]
struct Grid {
    benches: [&'static str; 2],
    insts: u64,
}

impl Grid {
    fn spec(&self) -> SweepSpec {
        SweepSpec {
            benches: self.benches.iter().map(|b| b.to_string()).collect(),
            strategies: vec![Strategy::Fdrt { pinning: true }],
            clusters: vec![4],
            topologies: vec![Topology::Linear],
            insts: self.insts,
            warmup: 0,
        }
    }

    fn body(&self) -> Vec<u8> {
        let strs = |xs: &[&str]| Value::Arr(xs.iter().map(|s| Value::str(s)).collect());
        Value::Obj(vec![
            ("benches".into(), strs(&self.benches)),
            ("strategies".into(), strs(&["fdrt"])),
            ("clusters".into(), Value::Arr(vec![Value::u64(4)])),
            ("topologies".into(), strs(&["linear"])),
            ("insts".into(), Value::u64(self.insts)),
            ("csv".into(), Value::Bool(true)),
            ("attrib".into(), Value::Bool(false)),
        ])
        .render()
        .into_bytes()
    }
}

fn presets() -> Vec<&'static str> {
    Benchmark::spec_all()
        .into_iter()
        .chain(Benchmark::mediabench())
        .map(|b| b.name)
        .collect()
}

fn draw(rng: &mut Pcg32, presets: &[&'static str], insts: u64) -> Grid {
    let a = rng.index(presets.len());
    let b = (a + 1 + rng.index(presets.len() - 1)) % presets.len();
    Grid {
        benches: [presets[a], presets[b]],
        insts,
    }
}

/// What one sweep reply said.
struct Answer {
    output: String,
    hits: u64,
    simulated: u64,
}

/// The `result` of a successful sweep reply, or `None` for any failure.
fn answer(reply: &Reply) -> Option<Answer> {
    let (_, r) = reply.event("result")?;
    let ok = reply.status == 200
        && reply.bad_lines == 0
        && r.get("exit_code").and_then(Value::as_u64) == Some(0);
    ok.then(|| Answer {
        output: r
            .get("output")
            .and_then(Value::as_str)
            .unwrap_or("")
            .to_string(),
        hits: r.get("cache_hits").and_then(Value::as_u64).unwrap_or(0),
        simulated: r.get("simulated").and_then(Value::as_u64).unwrap_or(0),
    })
}

/// A span recorded on a client thread, merged into the tracer later.
struct ClientSpan {
    name: &'static str,
    parent: usize,
    start: Instant,
    end: Instant,
}

/// Spans of one sweep reply: the request and, as children, admission,
/// queueing (`batch_start` until the first cell's `progress`, so the
/// first cell included), each cell as the daemon ran it, and the stream
/// tail.
fn reply_spans(spans: &mut Vec<ClientSpan>, sent: Instant, reply: &Reply) {
    let at = |d: Duration| sent + d;
    let req = spans.len();
    spans.push(ClientSpan {
        name: "serve.request",
        parent: usize::MAX,
        start: sent,
        end: at(reply.latency),
    });
    let mut child = |name, start, end| {
        spans.push(ClientSpan {
            name,
            parent: req,
            start,
            end,
        })
    };
    if let Some((t, _)) = reply.event("accepted") {
        child("serve.admit", sent, at(*t));
    }
    let progress: Vec<&(Duration, Value)> = reply.all("progress").collect();
    if let (Some((b, _)), Some((p, _))) = (reply.event("batch_start"), progress.first()) {
        child("serve.queue", at(*b), at(*p));
    }
    for (t, v) in &progress {
        let took = v.get("took_s").and_then(Value::as_f64).unwrap_or(0.0);
        let end = at(*t);
        child(
            "serve.cell",
            end - Duration::from_secs_f64(took).min(end - sent),
            end,
        );
    }
    if let (Some((p, _)), Some((r, _))) = (progress.last(), reply.event("result")) {
        child("serve.stream_tail", at(*p), at(*r));
    }
}

/// The cold client's record of one request.
struct Cold {
    grid: Grid,
    k: u64,
    /// The calibration loop's time just before the request, ms.
    loop_ms: f64,
    reply: Reply,
    answer: Option<Answer>,
}

/// The cold client: unique sweeps over `presets` until the time is up.
fn cold_loop(
    addr: &str,
    presets: &[&'static str],
    seed: u64,
    first_k: u64,
    seconds: f64,
    spans: &mut Vec<ClientSpan>,
) -> Vec<Cold> {
    let mut rng = Pcg32::seed_from_u64(seed ^ 0xc01d);
    let start = Instant::now();
    let mut out = Vec::new();
    let mut k = first_k;
    while start.elapsed().as_secs_f64() < seconds {
        let grid = draw(&mut rng, presets, BASE_INSTS + k);
        let loop_ms = calib::loop_ms();
        let sent = Instant::now();
        match exchange(addr, "POST", "/sweep", &grid.body()) {
            Ok(reply) => {
                reply_spans(spans, sent, &reply);
                let answer = answer(&reply);
                out.push(Cold {
                    grid,
                    k,
                    loop_ms,
                    reply,
                    answer,
                });
            }
            Err(_) => out.push(Cold {
                grid,
                k,
                loop_ms,
                reply: Reply {
                    status: 0,
                    latency: sent.elapsed(),
                    bytes: 0,
                    events: Vec::new(),
                    body: Vec::new(),
                    bad_lines: 1,
                },
                answer: None,
            }),
        }
        k += 1;
    }
    out
}

/// The hot client's tallies; its latencies are the `serve.hit` and
/// `serve.status` spans.
#[derive(Default)]
struct Hot {
    answered: u64,
    bytes: Vec<f64>,
    attempted: u64,
    failed: u64,
    hits: u64,
    simulated: u64,
    util: Vec<f64>,
}

/// The hot client: re-asks memoized grids until the cold client is
/// done, sampling `GET /status` once a second on the same connection
/// budget.
fn hot_loop(
    addr: &str,
    grids: &[(Grid, String)],
    seed: u64,
    cold_done: &AtomicBool,
    spans: &mut Vec<ClientSpan>,
) -> Hot {
    let mut rng = Pcg32::seed_from_u64(seed ^ 0x407);
    let mut hot = Hot::default();
    let mut last_status = Instant::now();
    while !cold_done.load(Ordering::Acquire) {
        if last_status.elapsed() >= STATUS_PERIOD {
            last_status = Instant::now();
            match exchange(addr, "GET", "/status", b"") {
                Ok(reply) if reply.status == 200 => {
                    spans.push(ClientSpan {
                        name: "serve.status",
                        parent: usize::MAX,
                        start: last_status,
                        end: last_status + reply.latency,
                    });
                    let doc = Value::parse(&String::from_utf8_lossy(&reply.body)).ok();
                    if let Some(u) = doc.as_ref().and_then(|d| d.get("worker_utilization")) {
                        hot.util.push(u.as_f64().unwrap_or(0.0));
                    }
                }
                _ => hot.failed += 1,
            }
            hot.attempted += 1;
        }
        let (grid, expected) = &grids[rng.index(grids.len())];
        let sent = Instant::now();
        hot.attempted += 1;
        let reply = match exchange(addr, "POST", "/sweep", &grid.body()) {
            Ok(r) => r,
            Err(_) => {
                hot.failed += 1;
                continue;
            }
        };
        spans.push(ClientSpan {
            name: "serve.hit",
            parent: usize::MAX,
            start: sent,
            end: sent + reply.latency,
        });
        match answer(&reply) {
            // Byte-identical to the warm pass's answer, or it is wrong.
            Some(a) if a.output == *expected => {
                hot.answered += 1;
                hot.bytes.push(reply.bytes as f64);
                hot.hits += a.hits;
                hot.simulated += a.simulated;
            }
            _ => hot.failed += 1,
        }
    }
    hot
}

/// One timed phase: both clients against the running daemon, cold
/// sweeps drawn from `presets`.
fn measure(
    daemon: &WarmDaemon,
    presets: &[&'static str],
    opts: &Opts,
    first_k: u64,
    seconds: f64,
    tracer: &mut Tracer,
) -> (Phase, Vec<Cold>) {
    let (addr, hot) = (daemon.daemon.addr.as_str(), daemon.hot.as_slice());
    let cold_done = AtomicBool::new(false);
    let mut cold_spans = Vec::new();
    let mut hot_spans = Vec::new();
    let start = Instant::now();
    let (colds, hot, cold_wall) = std::thread::scope(|s| {
        let cold = s.spawn(|| {
            let c = cold_loop(addr, presets, opts.seed, first_k, seconds, &mut cold_spans);
            let wall = start.elapsed();
            cold_done.store(true, Ordering::Release);
            (c, wall)
        });
        let hot = s.spawn(|| hot_loop(addr, hot, opts.seed, &cold_done, &mut hot_spans));
        let (colds, wall) = cold.join().expect("cold client thread");
        let hot = hot.join().expect("hot client thread");
        (colds, hot, wall)
    });
    for (lane, spans) in [(1, &cold_spans), (2, &hot_spans)] {
        let mut ids = Vec::with_capacity(spans.len());
        for s in spans.iter() {
            let parent = if s.parent == usize::MAX {
                0
            } else {
                ids[s.parent]
            };
            ids.push(tracer.record(s.name, parent, lane, s.start, s.end));
        }
    }

    let mut p = Phase {
        wall_s: cold_wall.as_secs_f64(),
        ..Phase::default()
    };
    let mut st = ServeStats::default();
    let mut cold_insts = 0;
    let mut cold_ms = 0.0;
    for c in &colds {
        p.attempted += 1;
        p.loop_ms.push(c.loop_ms);
        let Some(a) = &c.answer else {
            p.failed += 1;
            continue;
        };
        let ms = calib::scaled(c.reply.latency.as_secs_f64() * 1e3, c.loop_ms);
        p.op_ms.push(ms);
        cold_ms += ms;
        st.resp_bytes.push(c.reply.bytes as f64);
        st.cache_hits += a.hits;
        st.simulated += a.simulated;
        cold_insts += a.simulated * c.grid.insts;
    }
    // The cold client is a closed loop: its cells complete at one
    // request's cells per request latency.
    p.cells = st.simulated;
    p.cells_per_s = st.simulated as f64 / (cold_ms / 1e3);
    p.sim_mips = cold_insts as f64 / (cold_ms / 1e3) / 1e6;
    st.requests = p.op_ms.len() as u64 + hot.answered;
    st.wall_s = p.wall_s;
    st.cache_hits += hot.hits;
    st.simulated += hot.simulated;
    st.resp_bytes.extend(&hot.bytes);
    st.worker_util = hot.util;
    p.attempted += hot.attempted;
    p.failed += hot.failed;
    p.serve = st;
    (p, colds)
}

/// Recomputes one cold grid in-process and renders the CSV the sweep
/// command renders; returns it with the cells' reports and host times.
/// The harness call and its cells are traced as in the in-process
/// workloads.
fn recompute(
    grid: &Grid,
    programs: &mut HashMap<&'static str, Arc<Program>>,
    out: &mut Outcome,
) -> (String, Vec<(u64, Arc<SimReport>, f64)>) {
    let plan = grid.spec().expand().expect("cold grids are valid");
    let jobs: Vec<Job> = plan
        .jobs
        .iter()
        .map(|(bench, cfg)| {
            let name = grid
                .benches
                .iter()
                .find(|b| *b == bench)
                .expect("planned bench");
            let program = programs
                .entry(name)
                .or_insert_with(|| generate(name, &mut out.gen_ms));
            Job::new(bench.clone(), Arc::clone(program), *cfg)
        })
        .collect();
    let mut cells = CellTimes::default();
    let t = Instant::now();
    let outcomes = Harness::new()
        .jobs(1)
        .progress(false)
        .try_run_with_progress(&jobs, &mut cells);
    let batch = out.tracer.record("harness.batch", 0, 0, t, Instant::now());
    for &(done, took) in &cells.0 {
        out.tracer.record("sim.cell", batch, 0, done - took, done);
    }
    let mut csv = String::from("bench,clusters,topology,strategy,ipc,speedup\n");
    for c in &plan.cells {
        let (Some(r), Some(base)) = (outcomes[c.job].report(), outcomes[c.base_job].report())
        else {
            return (String::new(), Vec::new());
        };
        csv.push_str(&format!(
            "{},{},linear,{},{:.4},{:.4}\n",
            c.bench,
            c.clusters,
            r.strategy,
            r.ipc,
            r.speedup_over(base)
        ));
    }
    let sims = jobs
        .iter()
        .zip(&outcomes)
        .zip(&cells.0)
        .filter_map(|((j, o), (_, took))| {
            Some((j.key(), Arc::new(o.report()?.clone()), took.as_secs_f64()))
        })
        .collect();
    (csv, sims)
}

/// Starts a daemon on a fresh store `root/store<i>` and records spawn →
/// `listening on`, scaled by a calibration loop run just before, as one
/// set-up.
fn set_up(root: &Path, i: usize, out: &mut Outcome) -> Option<(Daemon, PathBuf)> {
    let dir = root.join(format!("store{i}"));
    let loop_ms = calib::loop_ms();
    let t = Instant::now();
    match Daemon::spawn(&dir) {
        Ok(d) => {
            out.setup_s
                .push(calib::scaled(t.elapsed().as_secs_f64(), loop_ms));
            Some((d, dir))
        }
        Err(e) => {
            out.check(false, format!("daemon start: {e}"));
            None
        }
    }
}

/// One more timed set-up whose daemon is drained at once: set-ups are
/// taken before and after the timed phase, so their median spans it.
fn set_up_and_drain(root: &Path, i: usize, out: &mut Outcome) {
    if let Some((d, _)) = set_up(root, i, out) {
        let ok = d.shutdown().is_ok();
        out.check(ok, format!("set-up daemon {i} drained cleanly"));
    }
}

/// A running daemon with its store directory and the hot grids computed
/// once in the warm pass: every later hot response must equal its
/// grid's answer here byte for byte.
struct WarmDaemon {
    daemon: Daemon,
    store: PathBuf,
    hot: Vec<(Grid, String)>,
}

impl WarmDaemon {
    /// Runs the warm pass: `HOT_GRIDS` grids drawn from `presets`.
    fn warm(
        daemon: Daemon,
        store: PathBuf,
        presets: &[&'static str],
        seed: u64,
        out: &mut Outcome,
    ) -> Option<WarmDaemon> {
        let mut rng = Pcg32::seed_from_u64(seed);
        let mut hot = Vec::new();
        for _ in 0..HOT_GRIDS {
            let grid = draw(&mut rng, presets, BASE_INSTS);
            match exchange(&daemon.addr, "POST", "/sweep", &grid.body())
                .ok()
                .as_ref()
                .and_then(answer)
            {
                Some(a) => hot.push((grid, a.output)),
                None => out.check(false, "warm pass: a hot grid failed".into()),
            }
        }
        if hot.is_empty() {
            let _ = daemon.shutdown();
            return None;
        }
        Some(WarmDaemon { daemon, store, hot })
    }
}

/// A short run of the `serve_mixed` traffic mix over `presets` against
/// a fresh daemon, traced into `out`: the service rows of a traced
/// in-process workload.
pub fn probe(presets: &[&'static str], opts: &Opts, out: &mut Outcome) -> Phase {
    let root = layers::scratch("probe");
    let store = root.join("store");
    let daemon = match Daemon::spawn(&store) {
        Ok(d) => d,
        Err(e) => {
            out.check(false, format!("probe daemon start: {e}"));
            return Phase::default();
        }
    };
    let Some(warm) = WarmDaemon::warm(daemon, store, presets, opts.seed, out) else {
        return Phase::default();
    };
    let (phase, _) = measure(&warm, presets, opts, 1, PROBE_SECONDS, &mut out.tracer);
    let drained = warm.daemon.shutdown();
    out.check(
        drained.is_ok(),
        format!("probe daemon drained cleanly ({drained:?})"),
    );
    let _ = std::fs::remove_dir_all(&root);
    phase
}

/// Runs `serve_mixed`.
pub fn run(opts: &Opts) -> Outcome {
    let mut out = Outcome::new(opts.trace);
    let root = layers::scratch("serve");
    for i in 0..SETUPS - 1 {
        set_up_and_drain(&root, i, &mut out);
    }
    let presets = presets();
    let Some((daemon, store)) = set_up(&root, SETUPS - 1, &mut out) else {
        return out;
    };
    let Some(warm) = WarmDaemon::warm(daemon, store, &presets, opts.seed, &mut out) else {
        return out;
    };

    let (untraced, traced, colds) = if opts.trace {
        let half = opts.seconds / 2.0;
        let (u, mut c) = measure(&warm, &presets, opts, 1, half, &mut Tracer::new(false));
        let next_k = c.last().map_or(1, |c| c.k + 1);
        let (t, c2) = measure(&warm, &presets, opts, next_k, half, &mut out.tracer);
        c.extend(c2);
        (u, Some(t), c)
    } else {
        let (u, c) = measure(&warm, &presets, opts, 1, opts.seconds, &mut out.tracer);
        (u, None, c)
    };
    out.peak_rss_mb = peak_rss_mb(&warm.daemon.child.id().to_string());
    let WarmDaemon { daemon, store, hot } = warm;
    let drained = daemon.shutdown();
    out.check(
        drained.is_ok(),
        format!("daemon drained cleanly ({drained:?})"),
    );
    for i in SETUPS..2 * SETUPS {
        set_up_and_drain(&root, i, &mut out);
    }
    out.untraced = untraced;
    out.traced = traced;

    // Output check after timing: one cold response in ten recomputed.
    let mut programs = HashMap::new();
    let mut rechecked = 0;
    let mut wrong = 0;
    let mut sims = Vec::new();
    for c in colds.iter().filter(|c| c.k % RECHECK_EVERY == 0) {
        let Some(a) = &c.answer else { continue };
        let (csv, s) = recompute(&c.grid, &mut programs, &mut out);
        rechecked += 1;
        if csv != a.output {
            wrong += 1;
        }
        sims.extend(s);
    }
    out.check(
        wrong == 0 && rechecked > 0,
        format!("{rechecked} cold responses recomputed in-process, {wrong} differ"),
    );
    let hot_failed = out.untraced.failed + out.traced.as_ref().map_or(0, |t| t.failed);
    out.checks.push(format!(
        "info {} hot/cold/status operations failed or mismatched",
        hot_failed
    ));

    if opts.trace {
        let phase = out.traced.as_mut().expect("traced run");
        phase.sims = sims;
        let reports: Vec<(String, SimReport)> = phase
            .sims
            .iter()
            .map(|(_, r, _)| ("recheck".to_string(), SimReport::clone(r)))
            .collect();
        let keys: Vec<u64> = phase.sims.iter().map(|(k, _, _)| *k).collect();
        let mut names: Vec<&str> = hot.iter().flat_map(|(g, _)| g.benches).collect();
        names.sort_unstable();
        names.dedup();
        let programs: Vec<Arc<Program>> =
            names.iter().map(|n| generate(n, &mut out.gen_ms)).collect();
        let config = hot[0].0.spec().expand().expect("valid").jobs[0].1;
        let input = LayerInput {
            programs: &programs,
            strategies: &[Strategy::Baseline, Strategy::Fdrt { pinning: true }],
            config,
            reports: &reports,
            store: Some((store, keys)),
            smoke: opts.smoke,
        };
        out.layers = Some(layers::costs(&input, &mut out.tracer));
    }
    let _ = std::fs::remove_dir_all(&root);
    out
}
