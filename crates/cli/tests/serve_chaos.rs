//! Chaos exercise of the crash-safe sweep service: real daemons are
//! SIGKILLed mid-batch, streams are severed by fail points, and the
//! disk "fills up" — the client and the journal must absorb all of it.
//!
//! The suite asserts the crash-recovery promises from DESIGN.md §7i:
//! 1. `kill -9` mid-sweep loses nothing: the restarted daemon replays
//!    the journaled request, cells memoized before the crash are *not*
//!    recomputed, and a client re-asking the same question receives
//!    output byte-identical to an uninterrupted run;
//! 2. a mid-stream disconnect (the `serve-disconnect` fail point) is
//!    healed by the client's reconnect/resume loop without perturbing
//!    a single output byte;
//! 3. a full disk degrades the daemon to read-only: in-flight batches
//!    finish, new ones get a typed `503` with a retry hint, and
//!    `/status` reports the degraded store.

use std::io::{BufRead, BufReader};
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

/// Spawns the daemon (optionally with an armed fail point) and reads
/// its bound address off the first stdout line. The returned reader
/// must stay alive as long as the daemon: dropping it closes the pipe
/// and would turn the daemon's exit summary into an `EPIPE` panic.
fn spawn_daemon(
    store_dir: &Path,
    jobs: &str,
    fail_point: Option<&str>,
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

/// A daemon is SIGKILLed while a six-cell sweep is mid-flight. The
/// restarted daemon must replay the journaled request headless, answer
/// the already-memoized cells from the store (zero recomputation —
/// every cell has exactly one valid store line at the end), and a
/// client re-posting the identical body must receive output
/// byte-identical to an uninterrupted one-shot sweep.
#[test]
fn sigkill_mid_sweep_is_resumed_by_the_restarted_daemon() {
    let dir = std::env::temp_dir().join(format!("ctcp-chaos-kill-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let store_dir = dir.join("store");
    let (mut daemon, addr, _daemon_out) = spawn_daemon(&store_dir, "1", None);

    // 2 benches × (baseline + 2 strategies) = 6 cells, slow enough on
    // one debug-build worker that the kill below lands mid-batch.
    let grid = [
        "--benches",
        "gzip,twolf",
        "--strategies",
        "fdrt,friendly",
        "--insts",
        "50000",
        "--csv",
    ];
    let mut client_argv: Vec<&str> = vec!["client", "sweep", "--addr", &addr];
    client_argv.extend_from_slice(&grid);
    let mut victim = Command::new(bin())
        .args(&client_argv)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn victim client");

    // Wait for two per-cell progress lines: at least one finished cell
    // is durably memoized and journal-marked before the crash.
    let mut progress_seen = 0;
    let stderr = BufReader::new(victim.stderr.take().expect("piped stderr"));
    for line in stderr.lines() {
        let line = line.expect("victim stderr");
        if line.starts_with('[') {
            progress_seen += 1;
            if progress_seen == 2 {
                break;
            }
        }
    }
    assert_eq!(
        progress_seen, 2,
        "sweep must get mid-flight before the kill"
    );
    daemon.kill().expect("SIGKILL the daemon"); // Child::kill is SIGKILL on unix
    daemon.wait().expect("reap the killed daemon");
    let victim = victim.wait_with_output().expect("victim client exits");
    assert!(
        !victim.status.success(),
        "the victim client must see its daemon die"
    );

    // Restart over the same store directory: the journal replays the
    // unfinished request before the listener accepts anyone.
    let (mut daemon, addr, _daemon_out) = spawn_daemon(&store_dir, "1", None);
    let status = stdout_of(&run(&["client", "status", "--addr", &addr]));
    assert_eq!(
        counter(&status, "serve_journal_replayed"),
        1,
        "the crashed sweep must be replayed: {status}"
    );

    // Re-ask the identical question: same body, same resume token —
    // the client attaches to the live replay (or is answered warm from
    // the store if it already finished). Bytes must match a clean run.
    let mut retry_argv: Vec<&str> = vec!["client", "sweep", "--addr", &addr];
    retry_argv.extend_from_slice(&grid);
    let resumed = stdout_of(&run(&retry_argv));
    // One-shot sweeps without `--cache` never touch a store: hermetic.
    let mut oneshot_argv = vec!["sweep"];
    oneshot_argv.extend_from_slice(&grid);
    let oneshot = stdout_of(&run(&oneshot_argv));
    assert_eq!(
        resumed, oneshot,
        "the resumed sweep must render byte-identically"
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
    // Terminal records may linger in the WAL until compaction; what a
    // drained daemon must never leave behind is a *live* request. A
    // reopen (the next incarnation's view) compacts them all away.
    let journal = ctcp_harness::Journal::open(&store_dir).expect("reopen journal");
    assert!(
        journal.take_pending().is_empty(),
        "a drained daemon leaves no live journal records"
    );
    let lines = std::fs::read_to_string(journal.path()).unwrap_or_default();
    assert_eq!(
        lines.lines().count(),
        0,
        "open-time compaction drops fully-terminal history: {lines}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The `serve-disconnect=2` fail point severs the victim's response
/// stream after two chunks (then disarms). A client with a retry
/// budget must re-attach through `POST /resume`, receive only the
/// events it has not yet seen, and still render byte-identically.
#[test]
fn client_reconnects_through_a_mid_stream_disconnect() {
    let dir = std::env::temp_dir().join(format!("ctcp-chaos-resume-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let (mut daemon, addr, _daemon_out) =
        spawn_daemon(&dir.join("store"), "1", Some("serve-disconnect=2"));

    let grid = [
        "--benches",
        "gzip",
        "--strategies",
        "fdrt,friendly",
        "--insts",
        "5000",
        "--csv",
    ];
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
    argv.extend_from_slice(&grid);
    let healed = run(&argv);
    let healed_stdout = stdout_of(&healed);
    // The retry log names the request that failed; the re-attachment
    // itself is proven by the daemon's resumed-streams counter below.
    let stderr = String::from_utf8_lossy(&healed.stderr);
    assert!(
        stderr.contains("ctcp client: retrying"),
        "the client must have logged its reconnect: {stderr}"
    );

    let mut oneshot_argv = vec!["sweep"];
    oneshot_argv.extend_from_slice(&grid);
    let oneshot = stdout_of(&run(&oneshot_argv));
    assert_eq!(
        healed_stdout, oneshot,
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
    let (mut daemon, addr, _daemon_out) = spawn_daemon(&dir.join("store"), "1", Some("disk-full"));

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
