//! End-to-end exercise of the resident sweep service: a real `ctcp
//! serve` daemon on an ephemeral port, driven by real `ctcp client`
//! processes.
//!
//! The tests assert the service's core promises:
//! 1. a remote sweep's stdout is byte-identical to the one-shot
//!    `ctcp sweep` command's — including under concurrency, for every
//!    request shape (sweep, sweep --attrib, analyze);
//! 2. overlapping grids from different clients share the daemon's warm
//!    cache (visible in the `serve_cache_hits` counter);
//! 3. the shared cell scheduler interleaves fairly: a tiny request is
//!    never starved behind a long warmup-heavy sweep;
//! 4. shutdown drains cleanly — even racing in-flight clients, no
//!    admitted cell is lost, the daemon exits zero, prints its
//!    summary, leaves a populated store file with no lock token,
//!    and stops listening.

use std::io::{BufRead, BufReader, Read};
use std::path::Path;
use std::process::{Child, Command, Stdio};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_ctcp")
}

fn run(args: &[&str]) -> std::process::Output {
    Command::new(bin())
        .args(args)
        .output()
        .expect("spawn ctcp binary")
}

fn stdout_of(out: &std::process::Output) -> String {
    assert!(
        out.status.success(),
        "exit {:?}\nstderr: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout.clone()).expect("utf-8 stdout")
}

/// Spawns the daemon and reads its bound address off the first stdout
/// line; the returned reader still holds the rest of the stream.
fn spawn_daemon(
    store_dir: &Path,
    jobs: &str,
) -> (Child, String, BufReader<std::process::ChildStdout>) {
    let mut daemon = Command::new(bin())
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--jobs",
            jobs,
            "--dir",
            store_dir.to_str().unwrap(),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn daemon");
    let mut reader = BufReader::new(daemon.stdout.take().expect("piped stdout"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("read listening line");
    assert!(line.contains("listening on "), "{line}");
    let addr = line
        .trim()
        .rsplit(' ')
        .next()
        .expect("address after 'listening on'")
        .to_string();
    (daemon, addr, reader)
}

#[test]
fn daemon_round_trips_sweeps_shares_its_cache_and_drains() {
    let dir = std::env::temp_dir().join(format!("ctcp-serve-e2e-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let store_dir = dir.join("store");
    let (mut daemon, addr, mut daemon_out) = spawn_daemon(&store_dir, "2");

    // 1. Remote sweep output is byte-identical to the one-shot CLI's.
    //    CSV mode: the prose header counts wall time and store hits,
    //    which legitimately differ between a cold CLI and a warm
    //    daemon; the table itself must not.
    let grid = [
        "--benches",
        "gzip",
        "--strategies",
        "fdrt",
        "--insts",
        "2000",
        "--csv",
    ];
    let mut client_argv = vec!["client", "sweep", "--addr", addr.as_str()];
    client_argv.extend_from_slice(&grid);
    let mut oneshot_argv = vec!["sweep"];
    oneshot_argv.extend_from_slice(&grid);
    let remote = stdout_of(&run(&client_argv));
    let oneshot = stdout_of(&run(&oneshot_argv));
    assert_eq!(remote, oneshot, "remote sweep must render identically");

    // 2. A second client with an overlapping grid: the gzip cells
    //    (baseline + fdrt) were memoized by the first sweep, so they
    //    come back from the daemon's warm cache.
    let wide = stdout_of(&run(&[
        "client",
        "sweep",
        "--addr",
        &addr,
        "--benches",
        "gzip,twolf",
        "--strategies",
        "fdrt",
        "--insts",
        "2000",
        "--csv",
    ]));
    let wide_oneshot = stdout_of(&run(&[
        "sweep",
        "--benches",
        "gzip,twolf",
        "--strategies",
        "fdrt",
        "--insts",
        "2000",
        "--csv",
    ]));
    assert_eq!(wide, wide_oneshot, "overlap must not perturb the output");

    let status = stdout_of(&run(&["client", "status", "--addr", &addr]));
    let v = ctcp_telemetry::json::Value::parse(status.trim()).expect("status is JSON");
    let counters = v.get("counters").expect("counters object");
    let cache_hits = counters
        .get("serve_cache_hits")
        .and_then(ctcp_telemetry::json::Value::as_u64)
        .expect("serve_cache_hits counter");
    assert_eq!(
        cache_hits, 2,
        "the second sweep's two gzip cells are cache hits: {status}"
    );
    assert!(
        counters.get("serve_requests").is_some(),
        "status exposes the request counter: {status}"
    );

    // 3. Shutdown drains: daemon exits zero with its summary printed,
    //    the store file is populated, no lock token remains, and
    //    the port is closed.
    stdout_of(&run(&["client", "shutdown", "--addr", &addr]));
    let code = daemon.wait().expect("daemon exit");
    assert!(code.success(), "daemon must exit cleanly, got {code:?}");
    let mut rest = String::new();
    daemon_out.read_to_string(&mut rest).unwrap();
    assert!(rest.contains("drained after"), "{rest}");

    let store_lines = std::fs::read_to_string(store_dir.join("results.jsonl"))
        .unwrap()
        .lines()
        .count();
    assert_eq!(
        store_lines, 4,
        "gzip and twolf, baseline and fdrt, memoized exactly once each"
    );
    let leftover_locks: Vec<_> = std::fs::read_dir(&store_dir)
        .unwrap()
        .filter_map(Result::ok)
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".lock"))
        .collect();
    assert!(
        leftover_locks.is_empty(),
        "orphaned locks: {leftover_locks:?}"
    );

    let refused = run(&["client", "status", "--addr", &addr]);
    assert!(
        !refused.status.success(),
        "the drained daemon must not be listening"
    );
    std::fs::remove_dir_all(&dir).ok();
}

fn counter(status_json: &str, name: &str) -> u64 {
    ctcp_telemetry::json::Value::parse(status_json.trim())
        .expect("status is JSON")
        .get("counters")
        .and_then(|c| c.get(name))
        .and_then(ctcp_telemetry::json::Value::as_u64)
        .unwrap_or_else(|| panic!("counter {name} in {status_json}"))
}

/// Four clients of different shapes — a CSV sweep, an attribution
/// sweep, an analyze and a warmed analyze — hammer the daemon
/// *simultaneously*. Every one must render byte-identically to its
/// one-shot equivalent, and a repeat of the first grid must then be
/// answered entirely from the shared warm cache.
#[test]
fn concurrent_clients_render_identically_and_share_the_cache() {
    let dir = std::env::temp_dir().join(format!("ctcp-serve-conc-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let (mut daemon, addr, _out) = spawn_daemon(&dir.join("store"), "2");

    // Distinct --insts per sweep so the two grids share no cell keys:
    // concurrent identical cells would race their store writes and
    // make the cache-hit arithmetic below nondeterministic.
    let sweep_grid = [
        "sweep",
        "--benches",
        "gzip,twolf",
        "--strategies",
        "fdrt",
        "--insts",
        "2000",
        "--csv",
    ];
    let attrib_grid = [
        "sweep",
        "--benches",
        "gzip",
        "--strategies",
        "friendly",
        "--insts",
        "2500",
        "--csv",
        "--attrib",
    ];
    let analyze = ["analyze", "--bench", "gzip", "--insts", "2000"];
    let warmed_analyze = [
        "analyze", "--bench", "twolf", "--insts", "2000", "--warmup", "30000",
    ];

    let argvs: [&[&str]; 4] = [&sweep_grid, &attrib_grid, &analyze, &warmed_analyze];
    let shapes: Vec<Vec<String>> = argvs
        .iter()
        .map(|argv| argv.iter().map(|s| s.to_string()).collect())
        .collect();
    let clients: Vec<_> = shapes
        .iter()
        .map(|argv| {
            let mut remote: Vec<String> = vec![
                "client".into(),
                argv[0].clone(),
                "--addr".into(),
                addr.clone(),
            ];
            remote.extend(argv[1..].iter().cloned());
            std::thread::spawn(move || {
                let args: Vec<&str> = remote.iter().map(String::as_str).collect();
                stdout_of(&run(&args))
            })
        })
        .collect();
    let remote_outputs: Vec<String> = clients.into_iter().map(|c| c.join().unwrap()).collect();
    for (argv, remote) in shapes.iter().zip(&remote_outputs) {
        let args: Vec<&str> = argv.iter().map(String::as_str).collect();
        let oneshot = stdout_of(&run(&args));
        assert_eq!(
            remote, &oneshot,
            "{args:?} must render identically under concurrency"
        );
    }

    // Repeat the first grid: all four of its cells (2 benches ×
    // baseline + fdrt) are now warm, so the daemon answers from the
    // shared store without queueing a single cell.
    let before = counter(
        &stdout_of(&run(&["client", "status", "--addr", &addr])),
        "serve_cache_hits",
    );
    let mut repeat = vec!["client", "sweep", "--addr", addr.as_str()];
    repeat.extend_from_slice(&sweep_grid[1..]);
    let warm = stdout_of(&run(&repeat));
    assert_eq!(warm, remote_outputs[0], "the warm path renders identically");
    let after = counter(
        &stdout_of(&run(&["client", "status", "--addr", &addr])),
        "serve_cache_hits",
    );
    assert_eq!(after - before, 4, "all four repeated cells are cache hits");

    stdout_of(&run(&["client", "shutdown", "--addr", &addr]));
    assert!(daemon.wait().unwrap().success());
    std::fs::remove_dir_all(&dir).ok();
}

/// Cells the daemon holds queued (admitted, not yet running), from its
/// own `/status`.
fn queued_cells(addr: &str) -> u64 {
    let resp = ctcp_serve::http::request(addr, "GET", "/status", b"", &mut |_| {})
        .expect("status request");
    ctcp_telemetry::json::Value::parse(std::str::from_utf8(&resp.body).expect("utf-8 status"))
        .expect("status is JSON")
        .get("queued_cells")
        .and_then(ctcp_telemetry::json::Value::as_u64)
        .expect("queued_cells in status")
}

/// With a single resident worker, a long warmup-heavy sweep cannot
/// starve a tiny request that arrives after it: the round-robin cell
/// queue gives the newcomer the very next free slot. The proof is the
/// daemon's own view, not wall time: the big request still has cells
/// queued when the small one has already returned.
#[test]
fn small_request_is_not_starved_by_a_running_sweep() {
    let dir = std::env::temp_dir().join(format!("ctcp-serve-fair-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let (mut daemon, addr, _out) = spawn_daemon(&dir.join("store"), "1");

    // 30 warmup-heavy cells, admitted in one submit behind one worker.
    let mut big = Command::new(bin())
        .args([
            "client",
            "sweep",
            "--addr",
            &addr,
            "--benches",
            "focus",
            "--insts",
            "20000",
            "--warmup",
            "20000",
            "--csv",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn big sweep client");
    // Wait until the big sweep is admitted with most of its cells still
    // queued; only this client is talking to the daemon.
    while queued_cells(&addr) < 20 {
        assert!(
            big.try_wait().expect("poll big client").is_none(),
            "the big sweep finished before it was seen queued"
        );
        std::thread::sleep(std::time::Duration::from_millis(2));
    }

    let small = stdout_of(&run(&[
        "client",
        "sweep",
        "--addr",
        &addr,
        "--benches",
        "gzip",
        "--strategies",
        "fdrt",
        "--insts",
        "2000",
        "--csv",
    ]));
    assert!(small.contains("fdrt"), "small sweep produced its table");
    let left = queued_cells(&addr);
    assert!(
        left > 0,
        "the small sweep must return while the big one still has cells queued"
    );
    let big_out = big.wait_with_output().expect("big sweep completes");
    assert!(big_out.status.success());

    stdout_of(&run(&["client", "shutdown", "--addr", &addr]));
    assert!(daemon.wait().unwrap().success());
    std::fs::remove_dir_all(&dir).ok();
}

/// A shutdown racing two in-flight sweeps must lose nothing: both
/// clients stream to completion, and every cell of both grids is
/// memoized in the store by the time the daemon exits.
#[test]
fn shutdown_racing_two_clients_loses_no_cells() {
    let dir = std::env::temp_dir().join(format!("ctcp-serve-race-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let store_dir = dir.join("store");
    let (mut daemon, addr, _out) = spawn_daemon(&store_dir, "1");

    // 30 cells (6 benches × baseline + 4 strategies) and 2 cells, on
    // distinct --insts so the grids share no keys: 32 stored lines iff
    // nothing is lost.
    let spawn_sweep = |argv: &[&str]| {
        Command::new(bin())
            .args(argv)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn sweep client")
    };
    let a = spawn_sweep(&[
        "client",
        "sweep",
        "--addr",
        &addr,
        "--benches",
        "focus",
        "--insts",
        "20000",
        "--csv",
    ]);
    let b = spawn_sweep(&[
        "client",
        "sweep",
        "--addr",
        &addr,
        "--benches",
        "gzip",
        "--strategies",
        "fdrt",
        "--insts",
        "7777",
        "--csv",
    ]);
    // Fire the shutdown while both batches are (very likely) mid-
    // flight; correctness must not depend on the timing either way.
    std::thread::sleep(std::time::Duration::from_millis(300));
    stdout_of(&run(&["client", "shutdown", "--addr", &addr]));

    let a = a.wait_with_output().expect("client A completes");
    let b = b.wait_with_output().expect("client B completes");
    assert!(a.status.success(), "draining must not abort client A");
    assert!(b.status.success(), "draining must not abort client B");
    let a_rows = String::from_utf8_lossy(&a.stdout).lines().count();
    assert_eq!(a_rows, 25, "header + 24 non-baseline cells");
    assert!(daemon.wait().unwrap().success());

    let store_lines = std::fs::read_to_string(store_dir.join("results.jsonl"))
        .unwrap()
        .lines()
        .count();
    assert_eq!(store_lines, 32, "every admitted cell memoized exactly once");
    std::fs::remove_dir_all(&dir).ok();
}

/// Like [`spawn_daemon`], with extra `serve` flags and environment
/// overrides — the observability test runs one silent daemon and one
/// fully instrumented daemon.
fn spawn_daemon_with(
    store_dir: &Path,
    jobs: &str,
    extra: &[&str],
    envs: &[(&str, &str)],
) -> (Child, String, BufReader<std::process::ChildStdout>) {
    let mut cmd = Command::new(bin());
    cmd.args([
        "serve",
        "--addr",
        "127.0.0.1:0",
        "--jobs",
        jobs,
        "--dir",
        store_dir.to_str().unwrap(),
    ])
    .args(extra)
    .stdout(Stdio::piped())
    .stderr(Stdio::null());
    for (k, v) in envs {
        cmd.env(k, v);
    }
    let mut daemon = cmd.spawn().expect("spawn daemon");
    let mut reader = BufReader::new(daemon.stdout.take().expect("piped stdout"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("read listening line");
    assert!(line.contains("listening on "), "{line}");
    let addr = line.trim().rsplit(' ').next().unwrap().to_string();
    (daemon, addr, reader)
}

fn get(addr: &str, path: &str) -> (u16, String) {
    let resp = ctcp_serve::http::request(addr, "GET", path, b"", &mut |_| {}).expect("GET");
    (
        resp.status,
        String::from_utf8_lossy(&resp.body).into_owned(),
    )
}

/// The observability plane end to end, with its golden no-observer-
/// effect guarantee: the rendered sweep table from a daemon running
/// with logging off and zero scrapes is byte-identical to one from a
/// daemon running debug logging to a file while being scraped,
/// traced and watched by `ctcp top`.
#[test]
fn observability_never_perturbs_output_and_exports_metrics_logs_traces() {
    let dir = std::env::temp_dir().join(format!("ctcp-serve-obs-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let grid = [
        "--benches",
        "gzip",
        "--strategies",
        "fdrt,friendly",
        "--insts",
        "3000",
        "--csv",
    ];
    let sweep_via = |addr: &str| {
        let mut argv = vec!["client", "sweep", "--addr", addr];
        argv.extend_from_slice(&grid);
        stdout_of(&run(&argv))
    };

    // Daemon A: logging forced off, nobody watching.
    let (mut quiet, quiet_addr, _out) =
        spawn_daemon_with(&dir.join("store-a"), "2", &[], &[("CTCP_LOG", "off")]);
    let unobserved = sweep_via(&quiet_addr);
    stdout_of(&run(&["client", "shutdown", "--addr", &quiet_addr]));
    assert!(quiet.wait().unwrap().success());

    // Daemon B: debug logs to a file, scraped before/after, traced,
    // and rendered by `ctcp top`.
    let log_file = dir.join("serve.log");
    let (mut loud, addr, _out) = spawn_daemon_with(
        &dir.join("store-b"),
        "2",
        &[
            "--log-level",
            "debug",
            "--log-file",
            log_file.to_str().unwrap(),
        ],
        &[],
    );
    let (code, before) = get(&addr, "/metrics");
    assert_eq!(code, 200);
    let observed = sweep_via(&addr);
    assert_eq!(
        observed, unobserved,
        "observability must not change a single output byte"
    );

    // The exposition parses: every sample line is `name[{labels}] value`.
    let (_, after) = get(&addr, "/metrics");
    let samples = |text: &str| -> Vec<(String, f64)> {
        text.lines()
            .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
            .map(|l| {
                let (name, v) = l.rsplit_once(' ').expect("sample line");
                (name.to_string(), v.parse::<f64>().expect("numeric value"))
            })
            .collect()
    };
    let (before, after) = (samples(&before), samples(&after));
    assert!(after.len() >= before.len());
    for (name, v) in &before {
        if !name.ends_with("_total") {
            continue;
        }
        let now = after
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("{name} vanished between scrapes"))
            .1;
        assert!(now >= *v, "{name} went backwards: {v} -> {now}");
    }
    let requests = after
        .iter()
        .find(|(n, _)| n == "ctcp_serve_requests_total")
        .unwrap()
        .1;
    assert!(requests >= 2.0, "sweep + first scrape counted: {requests}");

    // The structured log is one JSON object per line, and names the
    // finished request's token — which /trace then resolves to a
    // loadable Chrome trace with per-worker cell spans.
    let log_text = std::fs::read_to_string(&log_file).expect("log file written");
    let mut token = None;
    for line in log_text.lines() {
        let v = ctcp_telemetry::json::Value::parse(line)
            .unwrap_or_else(|e| panic!("unparseable log line {line}: {e}"));
        for key in ["ts_ms", "level", "target", "msg"] {
            assert!(v.get(key).is_some(), "log line missing {key}: {line}");
        }
        if v.get("msg").and_then(ctcp_telemetry::json::Value::as_str) == Some("request finished") {
            token = v
                .get("token")
                .and_then(ctcp_telemetry::json::Value::as_str)
                .map(str::to_string);
        }
    }
    let token = token.expect("an info-level 'request finished' record in the log");
    let (code, trace) = get(&addr, &format!("/trace/{token}"));
    assert_eq!(code, 200);
    let summary = ctcp_telemetry::validate_chrome_trace(&trace).expect("loadable trace");
    assert!(
        summary.spans >= 4 && summary.lanes >= 3,
        "admit + run + cells + stream over service/stream/worker lanes: {summary:?}"
    );

    // `ctcp top --once`: one frame, no ANSI, dashboard sections present.
    let top = stdout_of(&run(&["top", "--addr", &addr, "--once"]));
    assert!(top.contains(&format!("daemon {addr}")), "{top}");
    assert!(top.contains("workers"), "{top}");
    assert!(top.contains("requests"), "{top}");
    assert!(!top.contains('\x1b'), "--once must not emit ANSI control");

    stdout_of(&run(&["client", "shutdown", "--addr", &addr]));
    assert!(loud.wait().unwrap().success());
    std::fs::remove_dir_all(&dir).ok();
}
