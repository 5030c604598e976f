//! Randomised property tests of the substrate components: caches, store
//! buffer, memory, executor, and workload generation.
//!
//! These were proptest suites in earlier revisions; the workspace now
//! builds offline, so each property runs a fixed number of cases drawn
//! from the vendored [`Pcg32`] generator. Failures print the case seed,
//! which reproduces the exact inputs.

use ctcp::frontend::{BranchPredictor, HybridConfig, HybridPredictor};
use ctcp::isa::{Executor, WordMemory};
use ctcp::memory::{CacheConfig, CacheStats, SetAssocCache, StoreBuffer, StoreForward};
use ctcp::workload::{generate, Pcg32, WorkloadParams};
use std::collections::HashMap;

const CASES: u64 = 64;

/// A word written to memory is read back until overwritten; other words
/// are unaffected.
#[test]
fn word_memory_matches_a_model() {
    for case in 0..CASES {
        let mut r = Pcg32::seed_from_u64(0x11AA ^ case);
        let mut mem = WordMemory::new();
        let mut model: HashMap<u64, i64> = HashMap::new();
        for _ in 0..r.range(1, 200) {
            let addr = r.next_u64() & ((1 << 20) - 1);
            let val = r.next_u64() as i64;
            let word = addr & !7;
            if r.chance(0.5) {
                mem.write(word, val);
                model.insert(word, val);
            } else {
                let expect = model.get(&word).copied().unwrap_or(0);
                assert_eq!(mem.read(word), expect, "case {case} word {word:#x}");
            }
        }
    }
}

/// A line just accessed is always resident, and residency never exceeds
/// the cache's capacity in lines.
#[test]
fn cache_never_loses_the_most_recent_line() {
    for case in 0..CASES {
        let mut r = Pcg32::seed_from_u64(0x22BB ^ case);
        let mut c = SetAssocCache::new(CacheConfig {
            size_bytes: 2048,
            assoc: 2,
            line_bytes: 64,
            hit_latency: 1,
        });
        for _ in 0..r.range(1, 300) {
            let a = r.next_u64() & ((1 << 16) - 1);
            c.access(a);
            assert!(c.probe(a), "case {case}: line {a:#x} evicted immediately");
        }
    }
}

/// Re-accessing the same line is always a hit (temporal locality with no
/// interference).
#[test]
fn back_to_back_accesses_hit() {
    let mut r = Pcg32::seed_from_u64(0x33CC);
    for case in 0..CASES {
        let mut c = SetAssocCache::new(CacheConfig {
            size_bytes: 4096,
            assoc: 4,
            line_bytes: 64,
            hit_latency: 1,
        });
        let addr = r.next_u64() & ((1 << 30) - 1);
        c.access(addr);
        assert!(c.access(addr), "case {case} addr {addr:#x}");
    }
}

/// A reference model of a true-LRU set-associative cache: one recency
/// list of resident line numbers per set, most recent first.
struct LruModel {
    sets: Vec<Vec<u64>>,
    assoc: usize,
    line_bytes: u64,
    stats: CacheStats,
}

impl LruModel {
    fn new(c: &CacheConfig) -> Self {
        LruModel {
            sets: vec![Vec::new(); c.num_sets()],
            assoc: c.assoc,
            line_bytes: c.line_bytes,
            stats: CacheStats::default(),
        }
    }

    /// The set holding `addr`'s line, and the line number.
    fn locate(&mut self, addr: u64) -> (&mut Vec<u64>, u64) {
        let line = addr / self.line_bytes;
        let n = self.sets.len() as u64;
        (&mut self.sets[(line % n) as usize], line)
    }

    fn access(&mut self, addr: u64) -> bool {
        let assoc = self.assoc;
        let (set, line) = self.locate(addr);
        let hit = match set.iter().position(|&l| l == line) {
            Some(i) => {
                set.remove(i);
                true
            }
            None => {
                if set.len() == assoc {
                    set.pop();
                }
                false
            }
        };
        set.insert(0, line);
        if hit {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
        hit
    }

    fn probe(&mut self, addr: u64) -> bool {
        let (set, line) = self.locate(addr);
        set.contains(&line)
    }

    fn invalidate(&mut self, addr: u64) -> bool {
        let (set, line) = self.locate(addr);
        let found = set.iter().position(|&l| l == line);
        if let Some(i) = found {
            set.remove(i);
        }
        found.is_some()
    }
}

/// Every access's hit or miss, every probe, every invalidation and the
/// final statistics of `SetAssocCache` match the LRU reference model,
/// over several geometries (direct-mapped to fully associative) and
/// random address streams about four times the capacity wide, with
/// invalidations mixed in.
#[test]
fn cache_matches_an_lru_reference_model() {
    let geometries = [
        (512, 1, 64),
        (1024, 2, 64),
        (2048, 4, 32),
        (4096, 8, 64),
        (512, 8, 64),
        (256, 4, 16),
    ];
    for case in 0..CASES {
        let (size_bytes, assoc, line_bytes) = geometries[case as usize % geometries.len()];
        let config = CacheConfig {
            size_bytes,
            assoc,
            line_bytes,
            hit_latency: 1,
        };
        let mut r = Pcg32::seed_from_u64(0x77EE ^ case);
        let mut cache = SetAssocCache::new(config);
        let mut model = LruModel::new(&config);
        let span = 4 * size_bytes;
        for step in 0..r.range(1, 600) {
            let addr = r.next_u64() % span;
            if r.chance(0.1) {
                assert_eq!(
                    cache.invalidate(addr),
                    model.invalidate(addr),
                    "case {case} step {step}: invalidate {addr:#x}"
                );
            } else {
                assert_eq!(
                    cache.access(addr),
                    model.access(addr),
                    "case {case} step {step}: access {addr:#x}"
                );
            }
            let other = r.next_u64() % span;
            assert_eq!(
                cache.probe(other),
                model.probe(other),
                "case {case} step {step}: probe {other:#x}"
            );
        }
        assert_eq!(cache.stats(), model.stats, "case {case}");
    }
}

/// The store buffer forwards exactly the youngest older store to the
/// same word, matching a brute-force model.
#[test]
fn store_buffer_matches_a_model() {
    for case in 0..CASES {
        let mut r = Pcg32::seed_from_u64(0x44DD ^ case);
        let mut sb = StoreBuffer::new(32);
        let mut model: Vec<(u64, u64)> = Vec::new();
        for _ in 0..r.range(0, 20) {
            let seq = r.range(0, 64) as u64;
            let addr = r.range(0, 8) as u64 * 8;
            sb.insert(seq, addr);
            model.push((seq, addr));
        }
        let load_seq = r.range(30, 100) as u64;
        let load_addr = r.range(0, 8) as u64 * 8;
        let expected = model
            .iter()
            .filter(|(s, a)| *s < load_seq && *a == load_addr)
            .map(|(s, _)| *s)
            .max();
        match sb.check_load(load_seq, load_addr) {
            StoreForward::Forwarded { store_seq } => {
                assert_eq!(Some(store_seq), expected, "case {case}")
            }
            StoreForward::None => assert_eq!(expected, None, "case {case}"),
        }
    }
}

/// The hybrid predictor eventually learns any strongly biased branch.
#[test]
fn predictor_learns_biased_branches() {
    let mut r = Pcg32::seed_from_u64(0x55EE);
    for case in 0..CASES {
        let pc = (r.next_u64() & ((1 << 20) - 1)) * 4;
        let taken = r.chance(0.5);
        let mut p = HybridPredictor::new(HybridConfig { entries: 1024 });
        for _ in 0..8 {
            p.update(pc, taken);
        }
        assert_eq!(p.predict(pc), taken, "case {case} pc {pc:#x}");
    }
}

/// Any valid parameter combination generates a program that executes
/// thousands of instructions without executor errors or early halt.
#[test]
fn generated_programs_are_well_formed() {
    for case in 0..24 {
        let mut r = Pcg32::seed_from_u64(0x66FF ^ case);
        let params = WorkloadParams {
            seed: r.next_u64() & ((1 << 48) - 1),
            kernels: r.range(1, 6) as usize,
            mem_fraction: r.range(0, 50) as f64 / 100.0,
            fp_fraction: r.range(0, 50) as f64 / 100.0,
            chase_fraction: r.range(0, 80) as f64 / 100.0,
            ilp_chains: r.range(1, 6) as usize,
            dispatch_targets: if r.chance(0.5) {
                Some(1usize << r.range(1, 4))
            } else {
                None
            },
            ..WorkloadParams::default()
        };
        let program = generate(&params);
        let mut ex = Executor::new(&program);
        let mut n = 0;
        for _ in 0..5_000 {
            match ex.next() {
                Some(_) => n += 1,
                None => break,
            }
        }
        assert!(
            ex.error().is_none(),
            "case {case}: executor error {:?} with {params:?}",
            ex.error()
        );
        assert_eq!(n, 5_000, "case {case}: program halted early ({params:?})");
    }
}

/// Generation is a pure function of the parameters.
#[test]
fn generation_is_deterministic() {
    let mut r = Pcg32::seed_from_u64(0x7700);
    for _ in 0..16 {
        let params = WorkloadParams {
            seed: r.next_u64(),
            ..WorkloadParams::default()
        };
        let a = generate(&params);
        let b = generate(&params);
        assert_eq!(a.instructions(), b.instructions(), "seed {}", params.seed);
    }
}
