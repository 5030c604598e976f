//! Concurrency tests for the shared `ResultStore` handle: many
//! threads probing and appending through clones of one store, with and
//! without the `store-truncate` fail point armed.
//!
//! Fail-point state is process-global, so the test that arms it
//! serialises on a mutex with any future armed test in this binary and
//! disarms on exit (other test binaries are separate processes).

use ctcp_harness::{shard_of, verify, ResultStore, STORE_SHARDS};
use ctcp_isa::{ProgramBuilder, Reg};
use ctcp_sim::{SimConfig, SimReport, Simulation};
use ctcp_telemetry::failpoint;
use std::path::PathBuf;
use std::sync::{Mutex, OnceLock};

static LOCK: Mutex<()> = Mutex::new(());

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ctcp-storeconc-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A real report (one tiny simulation, run once) with `cycles` abused
/// as a per-key payload so read-backs can check identity.
fn report(cycles: u64) -> SimReport {
    static BASE: OnceLock<SimReport> = OnceLock::new();
    let mut r = BASE
        .get_or_init(|| {
            let mut b = ProgramBuilder::new();
            b.movi(Reg::R1, 1);
            b.halt();
            let p = b.build();
            Simulation::builder(&p)
                .config(SimConfig {
                    max_insts: 10,
                    ..SimConfig::default()
                })
                .build()
                .unwrap()
                .run()
        })
        .clone();
    r.cycles = cycles;
    r
}

const WRITERS: u64 = 4;
const READERS: usize = 4;
const PER_WRITER: u64 = 40;

/// Joins every thread, failing the test if any of them panicked.
fn join_all(threads: Vec<std::thread::JoinHandle<()>>) {
    for t in threads {
        t.join().expect("store thread panicked");
    }
}

/// Writer `t`'s `i`-th key. Small keys route as `key % STORE_SHARDS`,
/// so consecutive `i` sweep every shard — writers collide on shards
/// constantly, which is the point.
fn key_of(t: u64, i: u64) -> u64 {
    (t + 1) * 1000 + i
}

#[test]
fn concurrent_probes_and_appends_share_one_handle() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    failpoint::set(None);
    let dir = temp_dir("mixed");
    let store = ResultStore::open(&dir).unwrap();
    // Seed a warm set the readers hammer while writers append.
    for k in 0..STORE_SHARDS as u64 {
        store.put(k, "seed", &report(k)).unwrap();
    }
    let mut threads = Vec::new();
    for t in 0..WRITERS {
        let store = store.clone();
        threads.push(std::thread::spawn(move || {
            for i in 0..PER_WRITER {
                let k = key_of(t, i);
                store.put(k, "unit", &report(k)).unwrap();
                // Read-your-writes through the shared index.
                assert_eq!(store.get(k).unwrap().cycles, k);
            }
        }));
    }
    for _ in 0..READERS {
        let store = store.clone();
        threads.push(std::thread::spawn(move || {
            for _ in 0..100 {
                for k in 0..STORE_SHARDS as u64 {
                    assert_eq!(store.get(k).unwrap().cycles, k, "warm key must hit");
                }
            }
        }));
    }
    join_all(threads);
    let total = STORE_SHARDS as u64 + WRITERS * PER_WRITER;
    let stats = store.stats();
    assert_eq!(stats.puts, total);
    assert_eq!(stats.entries as u64, total);
    assert_eq!(stats.misses, 0);
    drop(store);

    // Every concurrent append was serialised per shard: the reopened
    // store is complete and byte-clean.
    let reopened = ResultStore::open(&dir).unwrap();
    assert_eq!(reopened.stats().entries as u64, total);
    assert_eq!(reopened.stats().quarantined, 0);
    for t in 0..WRITERS {
        for i in 0..PER_WRITER {
            let k = key_of(t, i);
            assert_eq!(reopened.get(k).unwrap().cycles, k);
        }
    }
    drop(reopened);
    assert_eq!(verify(&dir).unwrap().corrupt, 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn torn_shard_under_concurrent_writers_wounds_only_itself() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    struct Disarm;
    impl Drop for Disarm {
        fn drop(&mut self) {
            failpoint::set(None);
        }
    }
    let _disarm = Disarm;
    let torn_shard = 3usize;
    failpoint::set(Some(&format!("store-truncate={torn_shard}")));
    let dir = temp_dir("torn");
    {
        let store = ResultStore::open(&dir).unwrap();
        join_all(
            (0..WRITERS)
                .map(|t| {
                    let store = store.clone();
                    std::thread::spawn(move || {
                        for i in 0..PER_WRITER {
                            let k = key_of(t, i);
                            store.put(k, "unit", &report(k)).unwrap();
                        }
                    })
                })
                .collect(),
        );
    }
    failpoint::set(None);

    // Reopen: exactly the keys routed to the torn shard were lost (and
    // their debris quarantined); every key on the other seven shards
    // survived the concurrent traffic intact.
    let reopened = ResultStore::open(&dir).unwrap();
    let mut lost = 0u64;
    for t in 0..WRITERS {
        for i in 0..PER_WRITER {
            let k = key_of(t, i);
            if shard_of(k) == torn_shard {
                assert!(reopened.get(k).is_none(), "torn key {k:#x} must miss");
                lost += 1;
            } else {
                assert_eq!(reopened.get(k).unwrap().cycles, k);
            }
        }
    }
    assert!(lost > 0, "the grid must actually exercise the torn shard");
    // Torn half-lines concatenate (no newline lands), so the exact
    // quarantine count is a function of interleaving — but there must
    // be evidence, and it must sit next to the shard it wounded.
    assert!(reopened.stats().quarantined >= 1);
    drop(reopened);
    assert!(dir
        .join(format!("shard-{torn_shard}.quarantine.jsonl"))
        .exists());
    assert_eq!(verify(&dir).unwrap().corrupt, 0, "store healed on open");
    std::fs::remove_dir_all(&dir).ok();
}
