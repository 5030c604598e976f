//! End-to-end crash injection through the CLI: a fail point panics one
//! sweep cell, and the command must still render every surviving cell,
//! append the failure table, and report a non-zero exit code. `run`,
//! `compare` and `analyze` run their cells through the same harness, so
//! the point reaches them too, and they answer with the failure table.
//!
//! Fail-point state is process-global; this file holds a single test so
//! nothing else in the binary can race the armed point. (The library
//! unit tests run in a separate process and are unaffected.)

use ctcp_cli::{execute_outcome, Cli};
use ctcp_telemetry::failpoint;

fn sweep_argv(csv: bool) -> Vec<&'static str> {
    let mut argv = vec![
        "sweep",
        "--benches",
        "gzip,twolf",
        "--strategies",
        "fdrt",
        "--insts",
        "2000",
        "--jobs",
        "2",
    ];
    if csv {
        argv.push("--csv");
    }
    argv
}

#[test]
fn sweep_with_a_crashed_cell_renders_survivors_and_exits_nonzero() {
    struct Disarm;
    impl Drop for Disarm {
        fn drop(&mut self) {
            failpoint::set(None);
        }
    }
    let _disarm = Disarm;
    failpoint::set(Some("job-panic=twolf:fdrt"));
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {})); // silence the injected panics

    let prose = execute_outcome(&Cli::parse(sweep_argv(false)).unwrap()).unwrap();
    let csv = execute_outcome(&Cli::parse(sweep_argv(true)).unwrap()).unwrap();

    // The cell commands fail the same way, with no panic escaping.
    failpoint::set(Some("job-panic=gzip:fdrt"));
    let cell_commands = [
        (
            vec![
                "analyze",
                "gzip",
                "--strategies",
                "base,fdrt",
                "--insts",
                "2000",
            ],
            "1 of 2 jobs failed:",
        ),
        (
            vec!["compare", "--bench", "gzip", "--insts", "2000"],
            "1 of 5 jobs failed:",
        ),
        (
            vec![
                "run",
                "--bench",
                "gzip",
                "--strategy",
                "fdrt",
                "--insts",
                "2000",
            ],
            "1 of 1 jobs failed:",
        ),
    ];
    let failed: Vec<_> = cell_commands
        .iter()
        .map(|(argv, _)| {
            let cli = Cli::parse(argv.iter().copied()).unwrap();
            std::panic::catch_unwind(|| execute_outcome(&cli))
                .expect("no panic escapes execute_outcome")
                .unwrap()
        })
        .collect();
    std::panic::set_hook(hook);
    for ((argv, heading), out) in cell_commands.iter().zip(&failed) {
        // The output is the failure table alone.
        assert_eq!(out.exit_code, 1, "{argv:?}: {}", out.output);
        assert!(out.output.starts_with(heading), "{argv:?}: {}", out.output);
        assert!(
            out.output
                .contains("gzip/fdrt: panic: fail point job-panic"),
            "{argv:?}: {}",
            out.output
        );
    }

    for out in [&prose, &csv] {
        assert_eq!(out.exit_code, 1, "{}", out.output);
        // The gzip cell survives the crash next door and still renders.
        assert!(out.output.contains("gzip"), "{}", out.output);
        // The crashed cell moves from the grid to the failure table.
        assert!(out.output.contains("1 of 4 jobs failed:"), "{}", out.output);
        assert!(out.output.contains("twolf/fdrt: panic:"), "{}", out.output);
        assert!(
            out.output.lines().all(|l| !l.starts_with("twolf")),
            "crashed cell must not render a grid row:\n{}",
            out.output
        );
    }
    // CSV keeps its header plus exactly the surviving row before the table.
    assert!(
        csv.output
            .starts_with("bench,clusters,topology,strategy,ipc,speedup\ngzip,"),
        "{}",
        csv.output
    );

    // Disarmed, the identical sweep completes cleanly.
    failpoint::set(None);
    let healthy = execute_outcome(&Cli::parse(sweep_argv(true)).unwrap()).unwrap();
    assert_eq!(healthy.exit_code, 0, "{}", healthy.output);
    assert!(healthy.output.contains("twolf"), "{}", healthy.output);
}
