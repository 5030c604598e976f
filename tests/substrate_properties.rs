//! Randomised property tests of the substrate components: caches, the
//! trace cache, store buffer, memory, executor, and workload generation.
//!
//! These were proptest suites in earlier revisions; the workspace now
//! builds offline, so each property runs a fixed number of cases drawn
//! from the vendored [`Pcg32`] generator. Failures print the case seed,
//! which reproduces the exact inputs.

use ctcp::frontend::{BranchPredictor, HybridConfig, HybridPredictor};
use ctcp::isa::{Executor, Instruction, Opcode, Reg, WordMemory};
use ctcp::memory::{CacheConfig, CacheStats, SetAssocCache, StoreBuffer, StoreForward};
use ctcp::tracecache::{
    ExecFeedback, PendingInst, ProfileFields, RawTrace, TraceCache, TraceCacheConfig,
    TraceCacheStats, TraceLine,
};
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

/// One resident line of the trace-cache model: its tag, its recorded
/// conditional path and the id the cache gave it.
#[derive(Debug, Clone, PartialEq)]
struct ModelLine {
    start_pc: u64,
    path: Vec<(u64, bool)>,
    id: u64,
}

/// A reference model of the trace cache: one recency list of lines per
/// set, most recent first, keyed by start PC and conditional path, with
/// global hit and miss counts.
struct TraceCacheModel {
    sets: Vec<Vec<ModelLine>>,
    assoc: usize,
    next_id: u64,
    stats: TraceCacheStats,
}

impl TraceCacheModel {
    fn new(c: &TraceCacheConfig) -> Self {
        TraceCacheModel {
            sets: vec![Vec::new(); c.entries / c.assoc],
            assoc: c.assoc,
            next_id: 1,
            stats: TraceCacheStats::default(),
        }
    }

    fn set(&mut self, pc: u64) -> &mut Vec<ModelLine> {
        let n = self.sets.len() as u64;
        &mut self.sets[((pc >> 2) % n) as usize]
    }

    /// The line a fetch at `pc` predicting `dirs` (one per conditional
    /// branch, in order) would hit, made most recent.
    fn lookup(&mut self, pc: u64, dirs: &[bool]) -> Option<ModelLine> {
        let set = self.set(pc);
        let found = set.iter().position(|l| {
            l.start_pc == pc && l.path.iter().map(|&(_, d)| d).eq(dirs.iter().copied())
        });
        let line = found.map(|i| set.remove(i));
        if let Some(l) = &line {
            set.insert(0, l.clone());
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
        line
    }

    /// Installs a line, returning its id: kept when a line of the same
    /// tag and path is resident, else fresh, evicting the least recent
    /// line of a full set.
    fn install(&mut self, start_pc: u64, path: Vec<(u64, bool)>) -> u64 {
        self.stats.installs += 1;
        let assoc = self.assoc;
        let fresh = self.next_id;
        let set = self.set(start_pc);
        let id = match set
            .iter()
            .position(|l| l.start_pc == start_pc && l.path == path)
        {
            Some(i) => set.remove(i).id,
            None => {
                if set.len() == assoc {
                    set.pop();
                    self.stats.evictions += 1;
                }
                self.next_id += 1;
                fresh
            }
        };
        self.set(start_pc)
            .insert(0, ModelLine { start_pc, path, id });
        id
    }

    fn resident_lines(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }
}

/// How many conditional branches every line starting at `pc` holds
/// (0-3). Lines of one start PC share their branch PCs, so at most one
/// resident line matches any prediction.
fn branches_at(pc: u64) -> usize {
    ((pc >> 2) % 4) as usize
}

/// A line starting at `pc`: one conditional branch per direction in
/// `dirs`, then an add, so no line is empty.
fn trace_line(pc: u64, dirs: &[bool]) -> TraceLine {
    let slot = |i: usize, inst, taken| PendingInst {
        seq: i as u64,
        index: i as u32,
        pc: pc + 4 * i as u64,
        inst,
        profile: ProfileFields::default(),
        tc_loc: None,
        feedback: ExecFeedback::default(),
        taken,
    };
    let mut insts: Vec<PendingInst> = dirs
        .iter()
        .enumerate()
        .map(|(i, &d)| {
            let bne = Instruction::new(Opcode::Bne, None, Some(Reg::R1), Some(Reg::R2), 0);
            slot(i, bne, Some(d))
        })
        .collect();
    let add = Instruction::new(Opcode::Add, Some(Reg::R3), Some(Reg::R1), Some(Reg::R2), 0);
    insts.push(slot(dirs.len(), add, None));
    let raw = RawTrace::analyze(insts);
    TraceLine::from_raw(&raw, &TraceLine::identity_placement(raw.len()), 16)
}

/// Every lookup's hit or miss and matched line (start PC, path and id),
/// every install's kept-or-fresh id, the resident line count after
/// every step and the final statistics of `TraceCache` match the
/// reference model, over several geometries (direct-mapped to fully
/// associative) and random install/lookup sequences over small PC pools
/// about twice the capacity wide.
#[test]
fn trace_cache_matches_a_reference_model() {
    let geometries = [(4, 1), (8, 2), (16, 4), (8, 8), (64, 2), (32, 4)];
    for case in 0..CASES {
        let (entries, assoc) = geometries[case as usize % geometries.len()];
        let config = TraceCacheConfig {
            entries,
            assoc,
            ..TraceCacheConfig::default()
        };
        let mut r = Pcg32::seed_from_u64(0x88FF ^ case);
        let mut tc = TraceCache::new(config);
        let mut model = TraceCacheModel::new(&config);
        let pool = 2 * entries as u64;
        for step in 0..r.range(1, 400) {
            let pc = 0x1000 + 4 * (r.next_u64() % pool);
            let dirs: Vec<bool> = (0..branches_at(pc)).map(|_| r.chance(0.5)).collect();
            if r.chance(0.4) {
                let line = trace_line(pc, &dirs);
                let path: Vec<(u64, bool)> = line.branch_path().collect();
                assert_eq!(
                    tc.install(line),
                    model.install(pc, path),
                    "case {case} step {step}: install {pc:#x} {dirs:?}"
                );
            } else {
                let got = tc
                    .lookup(pc, |bpc| dirs[((bpc - pc) / 4) as usize])
                    .map(|l| ModelLine {
                        start_pc: l.start_pc,
                        path: l.branch_path().collect(),
                        id: l.id,
                    });
                assert_eq!(
                    got,
                    model.lookup(pc, &dirs),
                    "case {case} step {step}: lookup {pc:#x} {dirs:?}"
                );
            }
            assert_eq!(
                tc.resident_lines(),
                model.resident_lines(),
                "case {case} step {step}"
            );
        }
        assert_eq!(tc.stats(), model.stats, "case {case}");
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
