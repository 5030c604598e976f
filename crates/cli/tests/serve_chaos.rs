//! Chaos exercise of the crash-safe sweep service: real daemons are
//! SIGKILLed mid-batch, streams are severed by fail points, and the
//! disk "fills up" — the client's re-POST and the result store must
//! absorb all of it.
//!
//! The suite asserts the crash-recovery promises from DESIGN.md §7i:
//! 1. `kill -9` mid-sweep loses nothing: a retrying client re-POSTs its
//!    body to the daemon restarted over the same store, cells memoized
//!    before the crash come back as store hits and are *not*
//!    recomputed, and the client's output is byte-identical to an
//!    uninterrupted run;
//! 2. a mid-stream disconnect (the `serve-disconnect` fail point) is
//!    healed by the client's re-POST, which attaches to the running
//!    batch, without perturbing a single output byte;
//! 3. a full disk degrades the daemon to read-only: in-flight batches
//!    finish, new ones get a typed `503` with a retry hint, and
//!    `/status` reports the degraded store.

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

/// Spawns the daemon on `addr` (optionally with an armed fail point)
/// and reads its bound address off the first stdout line. The returned
/// reader must stay alive as long as the daemon: dropping it closes the
/// pipe and would turn the daemon's exit summary into an `EPIPE` panic.
fn spawn_daemon(
    store_dir: &Path,
    addr: &str,
    jobs: &str,
    fail_point: Option<&str>,
) -> (Child, String, BufReader<std::process::ChildStdout>) {
    let mut cmd = Command::new(bin());
    cmd.args([
        "serve",
        "--addr",
        addr,
        "--jobs",
        jobs,
        "--dir",
        store_dir.to_str().unwrap(),
    ])
    .stdout(Stdio::piped())
    .stderr(Stdio::null());
    if let Some(fp) = fail_point {
        cmd.env("CTCP_FAIL_POINT", fp);
    }
    let mut daemon = cmd.spawn().expect("spawn daemon");
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

fn counter(status_json: &str, name: &str) -> u64 {
    ctcp_telemetry::json::Value::parse(status_json.trim())
        .expect("status is JSON")
        .get("counters")
        .and_then(|c| c.get(name))
        .and_then(ctcp_telemetry::json::Value::as_u64)
        .unwrap_or_else(|| panic!("counter {name} in {status_json}"))
}

/// 2 benches × (baseline + 2 strategies) = 6 cells of 100k
/// instructions: about 3 s on one debug-build worker, slow enough that
/// a kill lands mid-batch, and that a batch cut after its first cell
/// still runs for more than 20 times the 100 ms a re-POST waits.
const GRID: [&str; 7] = [
    "--benches",
    "gzip,twolf",
    "--strategies",
    "fdrt,friendly",
    "--insts",
    "100000",
    "--csv",
];

/// What a one-shot sweep of [`GRID`] prints. One-shot sweeps without
/// `--cache` never touch a store: hermetic.
fn oneshot() -> String {
    let mut argv = vec!["sweep"];
    argv.extend_from_slice(&GRID);
    stdout_of(&run(&argv))
}

/// A daemon is SIGKILLed while a six-cell sweep is mid-flight, and a
/// new daemon starts over the same store directory on the killed one's
/// address. The victim client, retrying, re-POSTs its body to the new
/// daemon: it must exit 0 with output byte-identical to a one-shot
/// sweep, every cell the store held at the kill must come back as a
/// cache hit, and every cell must end with exactly one valid store
/// line (zero recomputation).
#[test]
fn sigkill_mid_sweep_is_resumed_by_the_restarted_daemon() {
    let dir = std::env::temp_dir().join(format!("ctcp-chaos-kill-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let store_dir = dir.join("store");
    let (mut daemon, addr, _daemon_out) = spawn_daemon(&store_dir, "127.0.0.1:0", "1", None);

    let mut client_argv: Vec<&str> = vec![
        "client",
        "sweep",
        "--addr",
        &addr,
        "--retries",
        "20",
        "--backoff-ms",
        "50",
    ];
    client_argv.extend_from_slice(&GRID);
    let mut victim = Command::new(bin())
        .args(&client_argv)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn victim client");

    // Wait for two per-cell progress lines: at least one finished cell
    // is durably memoized before the crash.
    let mut stderr = BufReader::new(victim.stderr.take().expect("piped stderr"));
    let mut progress_seen = 0;
    let mut line = String::new();
    while progress_seen < 2 && stderr.read_line(&mut line).expect("victim stderr") > 0 {
        if line.starts_with('[') {
            progress_seen += 1;
        }
        line.clear();
    }
    assert_eq!(
        progress_seen, 2,
        "sweep must get mid-flight before the kill"
    );
    // The victim keeps logging its retries; drain them so it never
    // blocks on a full pipe.
    let victim_log = std::thread::spawn(move || {
        let mut rest = String::new();
        stderr.read_to_string(&mut rest).ok();
        rest
    });
    daemon.kill().expect("SIGKILL the daemon"); // Child::kill is SIGKILL on unix
    daemon.wait().expect("reap the killed daemon");

    // What the store holds at the kill is what the restart answers
    // from it.
    let at_kill = ctcp_harness::verify(&store_dir).expect("verify the store");
    assert!(
        at_kill.valid >= 1,
        "a finished cell was memoized before the kill"
    );

    // Restart over the same store directory, on the same address: the
    // victim's next retry reaches it and re-POSTs its body.
    let (mut daemon, addr, _daemon_out) = spawn_daemon(&store_dir, &addr, "1", None);
    let victim = victim.wait_with_output().expect("victim client exits");
    let log = victim_log.join().unwrap();
    assert!(
        victim.status.success(),
        "the victim must heal through the restart: {log}"
    );
    assert!(log.contains("ctcp client: retrying"), "{log}");
    assert_eq!(
        String::from_utf8(victim.stdout).unwrap(),
        oneshot(),
        "the resumed sweep must render byte-identically"
    );

    let status = stdout_of(&run(&["client", "status", "--addr", &addr]));
    assert_eq!(
        counter(&status, "serve_cache_hits"),
        at_kill.valid as u64,
        "every cell memoized before the kill is a hit: {status}"
    );

    // Zero recomputation: every one of the 6 cells was memoized exactly
    // once across both incarnations. (A line torn by the kill itself
    // may sit in the quarantine file, but a *finished* cell is never
    // simulated — and therefore never appended — twice.)
    let verify = ctcp_harness::verify(&store_dir).expect("verify the store");
    assert_eq!(verify.entries, 6, "all cells memoized");
    assert_eq!(
        verify.valid, 6,
        "a finished cell must never be recomputed and re-appended"
    );

    stdout_of(&run(&["client", "shutdown", "--addr", &addr]));
    assert!(daemon.wait().unwrap().success());
    assert!(
        !store_dir.join("journal.jsonl").exists(),
        "the daemon keeps no request journal"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The `serve-disconnect=2` fail point severs the victim's response
/// stream after two chunks (the handshake and `batch_start`), then
/// disarms. A client with a retry budget must re-POST its body, attach
/// to the batch still running (it outlasts the 100 ms backoff many
/// times over), print each progress line once, and still render
/// byte-identically.
#[test]
fn client_reconnects_through_a_mid_stream_disconnect() {
    let dir = std::env::temp_dir().join(format!("ctcp-chaos-resume-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let (mut daemon, addr, _daemon_out) = spawn_daemon(
        &dir.join("store"),
        "127.0.0.1:0",
        "1",
        Some("serve-disconnect=2"),
    );

    let mut argv: Vec<&str> = vec![
        "client",
        "sweep",
        "--addr",
        &addr,
        "--retries",
        "3",
        "--backoff-ms",
        "100",
    ];
    argv.extend_from_slice(&GRID);
    let healed = run(&argv);
    let healed_stdout = stdout_of(&healed);
    // The retry log names the request that failed; the re-attachment
    // itself is proven by the daemon's resumed-streams counter below.
    let stderr = String::from_utf8_lossy(&healed.stderr);
    assert!(
        stderr.contains("ctcp client: retrying"),
        "the client must have logged its reconnect: {stderr}"
    );
    for done in 1..=6 {
        let line = format!("[{done}/6] ");
        assert_eq!(stderr.matches(&line).count(), 1, "{line}in {stderr}");
    }
    assert_eq!(
        healed_stdout,
        oneshot(),
        "a healed stream must render byte-identically"
    );

    let status = stdout_of(&run(&["client", "status", "--addr", &addr]));
    assert_eq!(
        counter(&status, "serve_resumed_streams"),
        1,
        "exactly one re-attachment: {status}"
    );

    stdout_of(&run(&["client", "shutdown", "--addr", &addr]));
    assert!(daemon.wait().unwrap().success());
    std::fs::remove_dir_all(&dir).ok();
}

/// The `disk-full` fail point makes every store append fail, tripping
/// the read-only circuit breaker on first write. The batch that trips
/// it still completes and streams its result; the next batch gets a
/// typed `503` naming the degradation, and `/status` reports the
/// read-only store.
#[test]
fn full_disk_degrades_to_read_only_with_typed_refusals() {
    let dir = std::env::temp_dir().join(format!("ctcp-chaos-disk-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let (mut daemon, addr, _daemon_out) =
        spawn_daemon(&dir.join("store"), "127.0.0.1:0", "1", Some("disk-full"));

    // The breaker trips on this batch's first memoization attempt; the
    // batch itself must still finish and render.
    let first = stdout_of(&run(&[
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
    assert!(first.contains("fdrt"), "the tripping batch still renders");

    let status = stdout_of(&run(&["client", "status", "--addr", &addr]));
    let v = ctcp_telemetry::json::Value::parse(status.trim()).expect("status is JSON");
    assert_eq!(
        v.get("store_read_only")
            .map(|b| matches!(b, ctcp_telemetry::json::Value::Bool(true))),
        Some(true),
        "status must report the degraded store: {status}"
    );

    // New work is refused with the typed 503; a retry-less client
    // surfaces it as a clear degradation message.
    let refused = run(&[
        "client",
        "sweep",
        "--addr",
        &addr,
        "--benches",
        "twolf",
        "--strategies",
        "fdrt",
        "--insts",
        "2000",
        "--csv",
    ]);
    assert!(!refused.status.success(), "degraded daemon must refuse");
    let message = String::from_utf8_lossy(&refused.stderr);
    assert!(
        message.contains("unavailable") && message.contains("read-only"),
        "typed degradation message, got: {message}"
    );

    stdout_of(&run(&["client", "shutdown", "--addr", &addr]));
    assert!(daemon.wait().unwrap().success());
    std::fs::remove_dir_all(&dir).ok();
}
