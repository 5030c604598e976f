//! Concurrency tests for the result store's file and lock.
//!
//! These tests drive the store with many handles on one directory,
//! appending at once, and then hold it to its durability contract: no
//! torn lines, an index that matches a cold re-scan, and maintenance
//! that waits for the advisory lock while reads never do.

use ctcp_harness::{compact, verify, ResultStore};
use ctcp_sim::SimReport;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ctcp-stress-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A report whose cycle count encodes `key`, so a later read can check
/// the right payload came back from the right line.
fn marked_report(key: u64) -> SimReport {
    SimReport {
        strategy: "stress".into(),
        cycles: key,
        instructions: 1,
        ipc: 1.0,
        metrics: Default::default(),
        attrib: None,
    }
}

#[test]
fn concurrent_writers_produce_a_clean_consistent_store() {
    const WRITERS: usize = 8;
    const PUTS: u64 = 25;
    let dir = temp_dir("writers");
    // One handle per writer, all on the same directory: every append
    // contends for the one advisory lock.
    let handles: Vec<ResultStore> = (0..WRITERS)
        .map(|_| ResultStore::open(&dir).unwrap())
        .collect();
    let mut writers = Vec::new();
    for (t, store) in handles.into_iter().enumerate() {
        writers.push(std::thread::spawn(move || {
            for j in 0..PUTS {
                let key = (t as u64) << 32 | j;
                store.put(key, "stress", &marked_report(key)).unwrap();
            }
        }));
    }
    for w in writers {
        w.join().expect("writer thread panicked");
    }

    // Zero quarantined lines: appends never interleaved mid-line.
    let rep = verify(&dir).unwrap();
    assert_eq!(rep.corrupt, 0, "no torn lines under concurrency");
    assert_eq!(rep.valid, WRITERS * PUTS as usize);
    assert_eq!(rep.entries, WRITERS * PUTS as usize);

    // A cold re-scan builds the same index the writers produced, with
    // every payload on its own key.
    let cold = ResultStore::open(&dir).unwrap();
    assert_eq!(cold.stats().entries, WRITERS * PUTS as usize);
    assert_eq!(cold.stats().quarantined, 0);
    for t in 0..WRITERS as u64 {
        for j in 0..PUTS {
            let key = t << 32 | j;
            let back = cold.get(key).expect("every insert survives");
            assert_eq!(back.cycles, key, "payload matches its key");
        }
    }
    drop(cold);
    assert!(
        !dir.join("results.lock").exists(),
        "no orphaned lock file once every handle is gone"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn compaction_waits_for_the_lock_and_reads_never_do() {
    let dir = temp_dir("lock-wait");
    let store = ResultStore::open(&dir).unwrap();
    for key in [1, 2, 1] {
        store.put(key, "stress", &marked_report(key)).unwrap();
    }

    // Wedge the store's advisory lock, as a stuck writer would.
    let held = std::fs::OpenOptions::new()
        .write(true)
        .open(dir.join("results.lock"))
        .unwrap();
    held.lock().unwrap();

    // compact must now block on the lock…
    let done = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&done);
    let dir2 = dir.clone();
    let compactor = std::thread::spawn(move || {
        let rep = compact(&dir2).unwrap();
        flag.store(true, Ordering::Release);
        rep
    });
    std::thread::sleep(Duration::from_millis(150));
    assert!(
        !done.load(Ordering::Acquire),
        "compact must wait for the lock, not bypass it"
    );

    // …while the read paths stay available: the file scan and the
    // in-memory index take no lock.
    let rep = verify(&dir).unwrap();
    assert_eq!(
        (rep.valid, rep.entries),
        (3, 2),
        "read path is never locked out"
    );
    assert!(store.get(1).is_some() && store.get(2).is_some());

    held.unlock().unwrap();
    let rep = compactor.join().unwrap();
    assert!(done.load(Ordering::Acquire));
    // The duplicate put of key 1 collapses to one line.
    assert_eq!((rep.kept, rep.superseded), (2, 1));
    std::fs::remove_dir_all(&dir).ok();
}
