//! Concurrency tests for the sharded result store.
//!
//! The sharded layout exists so concurrent writers stop serialising on
//! one whole-store lock. These tests drive it the way the sweep
//! service does — many handles on one directory, appending at once —
//! and then hold the store to its durability contract: no torn lines,
//! an index that matches a cold re-scan, and maintenance on one shard
//! that never blocks traffic on another.

use ctcp_harness::{compact, shard_of, verify, ResultStore, STORE_SHARDS};
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
    // One handle per writer, all on the same directory — the service's
    // shape, and the old single-file store's worst case.
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
    for i in 0..STORE_SHARDS {
        assert!(
            !dir.join(format!("shard-{i}.lock")).exists(),
            "no orphaned lock files once every handle is gone"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn maintenance_on_one_shard_never_blocks_another() {
    let dir = temp_dir("shard-isolation");
    // Two keys on different shards: key 0 lives in shard 0, and the
    // scan below finds a partner anywhere else.
    let key_a = 0u64;
    let key_b = (1..64).find(|&k| shard_of(k) != shard_of(key_a)).unwrap();
    let store = ResultStore::open(&dir).unwrap();
    store.put(key_a, "stress", &marked_report(key_a)).unwrap();
    store.put(key_b, "stress", &marked_report(key_b)).unwrap();

    // Wedge shard A's advisory lock, as a stuck writer would.
    let lock_path = dir.join(format!("shard-{}.lock", shard_of(key_a)));
    let held = std::fs::OpenOptions::new()
        .write(true)
        .open(&lock_path)
        .unwrap();
    held.lock().unwrap();

    // compact processes shards in order and must now block on shard A…
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
        "compact must wait for shard A's lock, not bypass it"
    );

    // …while shard B stays fully available: lock-free reads and writes
    // on the other shard complete although maintenance is wedged.
    let rep = verify(&dir).unwrap();
    assert_eq!(rep.entries, 2, "read path is never locked out");
    store.put(key_b, "stress", &marked_report(key_b)).unwrap();
    assert!(store.get(key_b).is_some());

    held.unlock().unwrap();
    let rep = compactor.join().unwrap();
    assert!(done.load(Ordering::Acquire));
    // The duplicate put of key_b above collapses to one line.
    assert_eq!((rep.kept, rep.superseded), (2, 1));
    std::fs::remove_dir_all(&dir).ok();
}
