//! Crash-injection tests for the sweep harness, driven by the
//! `CTCP_FAIL_POINT` registry in `ctcp_telemetry::failpoint`.
//!
//! Two faults are injected here:
//!
//! * `job-panic` — a panic inside one job's body, proving the
//!   isolation boundary contains it, retries it, and lets the rest of
//!   the batch (and its store writes) finish;
//! * `store-truncate` — a torn store append, proving the next open
//!   quarantines the damage instead of choking on it.
//!
//! Fail-point state is process-global, so every test serialises on one
//! mutex and disarms on entry and exit.

use ctcp_harness::{failure_table, Harness, Job, JobError, JobOutcome, ResultStore};
use ctcp_isa::{Program, ProgramBuilder, Reg};
use ctcp_sim::{SimConfig, Strategy};
use ctcp_telemetry::{failpoint, Counter};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard};

static LOCK: Mutex<()> = Mutex::new(());

fn exclusive() -> (MutexGuard<'static, ()>, impl Drop) {
    struct Disarm;
    impl Drop for Disarm {
        fn drop(&mut self) {
            failpoint::set(None);
        }
    }
    let guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    failpoint::set(None);
    (guard, Disarm)
}

fn spin_program() -> Arc<Program> {
    let mut b = ProgramBuilder::new();
    let top = b.here();
    b.addi(Reg::R1, Reg::R1, 1);
    b.jmp(top);
    Arc::new(b.build())
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ctcp-crash-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn job(workload: &str, strategy: Strategy, program: &Arc<Program>) -> Job {
    let config = SimConfig {
        max_insts: 900,
        strategy,
        ..SimConfig::default()
    };
    Job::new(workload, Arc::clone(program), config)
}

#[test]
fn injected_panic_is_contained_retried_and_reported() {
    let _x = exclusive();
    // Arm the panic for exactly one cell of a 2x2 grid.
    failpoint::set(Some("job-panic=crashy:fdrt"));
    let program = spin_program();
    let jobs = [
        job("steady", Strategy::Baseline, &program),
        job("steady", Strategy::Fdrt { pinning: true }, &program),
        job("crashy", Strategy::Baseline, &program),
        job("crashy", Strategy::Fdrt { pinning: true }, &program),
    ];
    let dir = temp_dir("panic-batch");
    let mut h = Harness::new()
        .jobs(2)
        .progress(false)
        .with_store(ResultStore::open(&dir).unwrap());
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {})); // silence the injected panics
    let outcomes = h.try_run(&jobs);
    std::panic::set_hook(hook);

    // Only the targeted cell failed; its panic was converted to data.
    assert_eq!(outcomes.len(), 4);
    for (i, o) in outcomes.iter().enumerate() {
        if i == 3 {
            continue;
        }
        assert!(o.report().is_some(), "cell {i} must survive the crash");
    }
    let failure = outcomes[3].failure().expect("targeted cell fails");
    assert!(
        matches!(&failure.error, JobError::Panic(msg)
            if msg.contains("fail point job-panic")),
        "{failure:?}"
    );
    assert_eq!(failure.retries, 1, "panics are transient: one retry");
    assert_eq!(
        (failure.workload.as_str(), failure.strategy.as_str()),
        ("crashy", "fdrt")
    );
    assert_eq!(h.telemetry().get(Counter::HarnessJobFailures), 1);
    assert_eq!(h.telemetry().get(Counter::HarnessRetries), 1);
    let table = failure_table(&outcomes).unwrap();
    assert!(table.contains("crashy/fdrt: panic:"), "{table}");

    // The three survivors were memoized despite the crash next door.
    drop(h);
    failpoint::set(None);
    let mut warm = Harness::new()
        .jobs(1)
        .progress(false)
        .with_store(ResultStore::open(&dir).unwrap());
    let retried = warm.try_run(&jobs);
    assert_eq!(warm.last_batch().store_hits, 3);
    assert!(
        retried.iter().all(|o| matches!(o, JobOutcome::Ok(_))),
        "disarmed, the whole grid completes"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn truncated_store_write_is_quarantined_on_reopen() {
    let _x = exclusive();
    let program = spin_program();
    let dir = temp_dir("torn-write");
    // A healthy first entry, then a torn append under the fail point.
    {
        let mut h = Harness::new()
            .jobs(1)
            .progress(false)
            .with_store(ResultStore::open(&dir).unwrap());
        h.try_run(&[job("steady", Strategy::Baseline, &program)]);
    }
    failpoint::set(Some("store-truncate"));
    {
        let mut h = Harness::new()
            .jobs(1)
            .progress(false)
            .with_store(ResultStore::open(&dir).unwrap());
        let outcomes = h.try_run(&[job("steady", Strategy::Fdrt { pinning: true }, &program)]);
        assert!(outcomes[0].report().is_some(), "the job itself succeeded");
    }
    failpoint::set(None);

    // Reopen: the torn line is quarantined, the healthy one survives,
    // and the harness surfaces the quarantine through its telemetry.
    let mut h = Harness::new()
        .jobs(1)
        .progress(false)
        .with_store(ResultStore::open(&dir).unwrap());
    assert_eq!(h.store_stats().unwrap().quarantined, 1);
    assert_eq!(h.telemetry().get(Counter::StoreQuarantined), 1);
    let outcomes = h.try_run(&[
        job("steady", Strategy::Baseline, &program),
        job("steady", Strategy::Fdrt { pinning: true }, &program),
    ]);
    assert_eq!(h.last_batch().store_hits, 1, "healthy entry still hits");
    assert_eq!(h.last_batch().simulated, 1, "torn entry re-simulates");
    assert!(outcomes.iter().all(|o| matches!(o, JobOutcome::Ok(_))));
    // The torn line was quarantined next to the store file.
    assert!(dir.join("results.quarantine.jsonl").exists());
    std::fs::remove_dir_all(&dir).ok();
}
