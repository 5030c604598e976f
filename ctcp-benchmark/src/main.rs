//! `ctcp-benchmark`: the repository's benchmark. One command runs the
//! four workloads of `BENCHMARK.json`, checks their outputs, and prints
//! every end-to-end metric (or, with `--trace 1`, every per-layer
//! metric) with its unit, then one JSON result line.
//!
//! ```text
//! ctcp-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! ctcp-benchmark [--seed N] [--seconds S] [--trace 0|1] [--runs N]
//! ```
//!
//! Without `--workload` every workload runs in its own child process
//! (this binary re-executed), so set-up time and peak memory belong to
//! one workload; `--runs N` repeats each over seeds `N..N+runs` and
//! prints every metric's median, quartiles and spread against its
//! bound. See README.md for the workloads and the metric glossary.

mod calib;
mod catalog;
mod client;
mod heap;
mod layers;
mod oneshot;
mod outcome;
mod report;
mod serve;
mod stats;
mod trace;

use catalog::{Catalog, MetricDef};
use ctcp_telemetry::json::Value;
use outcome::{Opts, Outcome};
use std::process::{Command, ExitCode};

#[global_allocator]
static HEAP: heap::Counting = heap::Counting;

/// Parsed command line.
struct Args {
    workload: Option<String>,
    opts: Opts,
    runs: usize,
}

fn parse(args: &[String], catalog: &Catalog) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        opts: Opts {
            seed: 1,
            seconds: catalog.run_seconds as f64,
            trace: false,
            smoke: false,
        },
        runs: 1,
    };
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let mut value = || {
            i += 1;
            args.get(i).cloned().ok_or(format!("{flag} needs a value"))
        };
        let number = |v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("bad {flag} value {v:?}"))
        };
        match flag {
            "--workload" => {
                let w = value()?;
                if !catalog.workloads.iter().any(|(n, _)| *n == w) {
                    return Err(format!("unknown workload {w:?}"));
                }
                out.workload = Some(w);
            }
            "--seed" => out.opts.seed = number(value()?)?,
            "--seconds" => out.opts.seconds = number(value()?)? as f64,
            "--runs" => out.runs = number(value()?)?.max(1) as usize,
            "--trace" => {
                out.opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad --trace value {v:?} (0 or 1)")),
                }
            }
            "--smoke" => out.opts.smoke = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
        i += 1;
    }
    Ok(out)
}

/// Runs one workload in this process.
fn run_workload(name: &str, opts: &Opts) -> Outcome {
    match name {
        "detailed" => oneshot::run(oneshot::Kind::Detailed, opts),
        "warmup_grid" => oneshot::run(oneshot::Kind::WarmupGrid, opts),
        "attrib" => oneshot::run(oneshot::Kind::Attrib, opts),
        "serve_mixed" => serve::run(opts),
        other => unreachable!("workload {other} was validated"),
    }
}

/// Runs, reports and returns the process exit code for one workload.
fn workload_main(catalog: &Catalog, name: &str, opts: &Opts) -> ExitCode {
    let o = run_workload(name, opts);
    println!(
        "workload {name}  seed {}  seconds {}  trace {}",
        opts.seed, opts.seconds, opts.trace as u8
    );
    for c in &o.checks {
        println!("  {c}");
    }
    let loops: Vec<f64> = std::iter::once(&o.untraced)
        .chain(o.traced.as_ref())
        .flat_map(|p| p.loop_ms.iter().copied())
        .collect();
    println!(
        "  host speed: calibration loop median {:.3} ms over {} timings (reference {} ms); \
         end-to-end times are scaled by reference / loop",
        stats::median(&loops),
        loops.len(),
        calib::REFERENCE_MS
    );
    let rows = if opts.trace {
        let dir = std::path::Path::new("target/ctcp-benchmark");
        let path = dir.join(format!("trace-{name}.json"));
        match std::fs::create_dir_all(dir)
            .and_then(|_| std::fs::write(&path, o.tracer.chrome_json()))
        {
            Ok(()) => println!("  chrome trace: {}", path.display()),
            Err(e) => println!("  chrome trace not written: {e}"),
        }
        report::per_layer(&o)
    } else {
        report::end_to_end(&o)
    };
    report::print_rows(catalog, &rows);
    let phases = std::iter::once(&o.untraced).chain(o.traced.as_ref());
    let (mut attempted, mut failed) = phases
        .fold((o.checks_attempted, o.checks_failed), |(a, f), p| {
            (a + p.attempted, f + p.failed)
        });
    if attempted == 0 {
        (attempted, failed) = (1, 1);
    }
    let correct = failed == 0;
    println!(
        "{}",
        report::json_line(catalog, &rows, correct, attempted, failed)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs `name` as a child process and returns its stdout and success.
fn child(name: &str, opts: &Opts) -> Result<(String, bool), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &(opts.seconds as u64).to_string()])
        .args(["--trace", if opts.trace { "1" } else { "0" }]);
    if opts.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    Ok((
        String::from_utf8_lossy(&out.stdout).into_owned(),
        out.status.success(),
    ))
}

/// The metric values of a result line.
fn metric_values(stdout: &str) -> Vec<(String, f64)> {
    let Some(Ok(v)) = stdout.lines().last().map(Value::parse) else {
        return Vec::new();
    };
    match v.get("metrics") {
        Some(Value::Obj(fields)) => fields
            .iter()
            .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
            .collect(),
        _ => Vec::new(),
    }
}

/// One spread row: median, quartiles and IQR/median against the bound.
fn spread_line(def: Option<&MetricDef>, name: &str, values: &[f64]) -> String {
    let (q1, med, q3) = stats::quartiles(values);
    let spread = if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    };
    let bound = def.and_then(|d| d.bound);
    let flag = match bound {
        Some(b) if spread > b => "WIDER THAN BOUND",
        Some(b) if spread > b / 3.0 => "above a third of the bound",
        _ => "",
    };
    format!(
        "  {name:<30} median {med:>14.6}  q1 {q1:>14.6}  q3 {q3:>14.6}  iqr/median {:>6.2}%  bound {}  {flag}",
        spread * 100.0,
        bound.map_or("-".to_string(), |b| format!("{:.0}%", b * 100.0)),
    )
}

/// Runs every workload `runs` times in child processes.
fn all_main(catalog: &Catalog, args: &Args) -> ExitCode {
    let mut ok = true;
    for (name, why) in &catalog.workloads {
        let mut runs: Vec<Vec<(String, f64)>> = Vec::new();
        for r in 0..args.runs {
            let opts = Opts {
                seed: args.opts.seed + r as u64,
                ..args.opts
            };
            match child(name, &opts) {
                Ok((stdout, success)) => {
                    if args.runs == 1 {
                        print!("{stdout}");
                    }
                    ok &= success;
                    runs.push(metric_values(&stdout));
                }
                Err(e) => {
                    eprintln!("{name}: cannot run: {e}");
                    ok = false;
                }
            }
        }
        if args.runs > 1 {
            println!(
                "workload {name} ({why}): {} runs, seeds {}..{}",
                runs.len(),
                args.opts.seed,
                args.opts.seed + args.runs as u64 - 1
            );
            let defs = if args.opts.trace {
                &catalog.per_layer
            } else {
                &catalog.end_to_end
            };
            for def in defs {
                let values: Vec<f64> = runs
                    .iter()
                    .filter_map(|m| m.iter().find(|(n, _)| *n == def.name).map(|(_, v)| *v))
                    .collect();
                println!("{}", spread_line(Some(def), &def.name, &values));
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // Internal: the service daemon serve_mixed starts, run exactly as
    // the `ctcp` binary runs its commands.
    if argv.first().map(String::as_str) == Some("daemon") {
        return match ctcp_cli::Cli::parse(argv[1..].iter().cloned()) {
            Ok(cli) => match ctcp_cli::execute_outcome(&cli) {
                Ok(outcome) => {
                    print!("{}", outcome.output);
                    ExitCode::from(u8::try_from(outcome.exit_code).unwrap_or(1))
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            },
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        };
    }
    let catalog = Catalog::committed();
    let args = match parse(&argv, &catalog) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ctcp-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    match &args.workload {
        Some(name) => workload_main(&catalog, name, &args.opts),
        None => all_main(&catalog, &args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn names(rows: &[report::Row]) -> BTreeSet<String> {
        rows.iter().map(|r| r.name.to_string()).collect()
    }

    fn declared(defs: &[MetricDef]) -> BTreeSet<String> {
        defs.iter().map(|d| d.name.clone()).collect()
    }

    #[test]
    fn smoke_pass_prints_exactly_the_declared_metrics() {
        let catalog = Catalog::committed();
        let start = std::time::Instant::now();
        for (kind, trace) in [
            (oneshot::Kind::Detailed, false),
            (oneshot::Kind::WarmupGrid, true),
            (oneshot::Kind::Attrib, true),
        ] {
            let opts = Opts {
                seed: 3,
                seconds: 0.0,
                trace,
                smoke: true,
            };
            let o = oneshot::run(kind, &opts);
            assert_eq!(o.checks_failed, 0, "{kind:?}: {:?}", o.checks);
            assert_eq!(o.untraced.failed, 0, "{kind:?}");
            assert_eq!(
                names(&report::end_to_end(&o)),
                declared(&catalog.end_to_end)
            );
            assert_eq!(names(&report::per_layer(&o)), declared(&catalog.per_layer));
            for r in report::end_to_end(&o) {
                assert!(r.value > 0.0, "{kind:?}: {} must never be 0", r.name);
            }
        }
        assert!(
            start.elapsed().as_secs_f64() < 5.0 || !cfg!(debug_assertions),
            "smoke pass took {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn result_line_round_trips() {
        let catalog = Catalog::committed();
        let rows = vec![report::Row {
            name: "setup_s",
            value: 0.25,
            note: String::new(),
        }];
        let line = report::json_line(&catalog, &rows, true, 3, 0);
        assert_eq!(metric_values(&line), vec![("setup_s".to_string(), 0.25)]);
        let v = Value::parse(&line).unwrap();
        assert_eq!(v.get("attempted").and_then(Value::as_u64), Some(3));
    }

    #[test]
    fn arguments_follow_the_command_interface() {
        let catalog = Catalog::committed();
        let argv: Vec<String> = "--workload detailed --seed 4 --seconds 2 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let a = parse(&argv, &catalog).unwrap();
        assert_eq!(a.workload.as_deref(), Some("detailed"));
        assert_eq!((a.opts.seed, a.opts.seconds, a.opts.trace), (4, 2.0, true));
        for bad in ["--trace 2", "--workload nosuch", "--seed", "--bogus"] {
            let argv: Vec<String> = bad.split(' ').map(String::from).collect();
            assert!(parse(&argv, &catalog).is_err(), "{bad}");
        }
    }
}
