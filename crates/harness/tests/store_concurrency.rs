//! Concurrency test for the shared `ResultStore` handle: many threads
//! probing and appending through clones of one store.

use ctcp_harness::{verify, ResultStore};
use ctcp_isa::{ProgramBuilder, Reg};
use ctcp_sim::{SimConfig, SimReport, Simulation};
use std::path::PathBuf;
use std::sync::OnceLock;

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
/// Warm keys `0..SEEDED` the readers probe while the writers append.
const SEEDED: u64 = 8;

/// Joins every thread, failing the test if any of them panicked.
fn join_all(threads: Vec<std::thread::JoinHandle<()>>) {
    for t in threads {
        t.join().expect("store thread panicked");
    }
}

/// Writer `t`'s `i`-th key.
fn key_of(t: u64, i: u64) -> u64 {
    (t + 1) * 1000 + i
}

#[test]
fn concurrent_probes_and_appends_share_one_handle() {
    let dir = temp_dir("mixed");
    let store = ResultStore::open(&dir).unwrap();
    // Seed a warm set the readers hammer while writers append.
    for k in 0..SEEDED {
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
                for k in 0..SEEDED {
                    assert_eq!(store.get(k).unwrap().cycles, k, "warm key must hit");
                }
            }
        }));
    }
    join_all(threads);
    let total = SEEDED + WRITERS * PER_WRITER;
    let stats = store.stats();
    assert_eq!(stats.puts, total);
    assert_eq!(stats.entries as u64, total);
    assert_eq!(stats.misses, 0);
    drop(store);

    // Every concurrent append was serialised: the reopened store is
    // complete and byte-clean.
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
