//! Isolated layer replays: each one replays the workload's own dynamic
//! instruction stream (from `Executor`) or its own reports through one
//! component's public API, timed from outside, so a per-layer number
//! is the cost of that layer alone. The event-scheduler cases of the
//! old `microbench.rs` are folded in as the `core.*_ms` rows.

use crate::heap;
use crate::stats::median;
use crate::trace::Tracer;
use ctcp_core::assign::MapChainStore;
use ctcp_core::{Engine, FetchedInst, SteeringMode, TickResult};
use ctcp_frontend::{BranchPredictor, Btb, HybridPredictor, ICache};
use ctcp_harness::{job_key, Harness, Job, Journal, ResultStore};
use ctcp_isa::{DynInst, Executor, Instruction, Opcode, Program, Reg};
use ctcp_memory::{AccessKind, DataMemory};
use ctcp_sim::{Checkpoint, SimConfig, SimReport, Simulation, Strategy};
use ctcp_tracecache::{
    FillUnit, FillUnitConfig, PendingInst, ProfileFields, RawTrace, TraceCache, TraceCacheConfig,
    TraceHead, TraceLine,
};
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// What the isolated replays run on.
pub struct LayerInput<'a> {
    /// The workload's programs.
    pub programs: &'a [Arc<Program>],
    /// The workload's strategies, baseline included.
    pub strategies: &'a [Strategy],
    /// A representative cell configuration (geometry, warmup).
    pub config: SimConfig,
    /// Reports the workload produced, with their workload names.
    pub reports: &'a [(String, SimReport)],
    /// The service's own store after the run and keys it holds; `None`
    /// measures open and lookup on a scratch store of `reports`.
    pub store: Option<(PathBuf, Vec<u64>)>,
    /// Tiny sizes, for tests.
    pub smoke: bool,
}

/// Per-operation costs measured by the isolated replays.
#[derive(Debug, Default, Clone)]
pub struct LayerCosts {
    /// `Executor` iteration, ns per instruction.
    pub exec_ns: f64,
    /// `HybridPredictor` predict + update, ns per conditional branch.
    pub predict_ns: f64,
    /// `Btb` lookup + update, ns per control transfer.
    pub btb_ns: f64,
    /// `ICache::fetch`, ns per call.
    pub icache_ns: f64,
    /// `TraceCache::lookup`, ns per lookup.
    pub lookup_ns: f64,
    /// `FillUnit::push`, ns per instruction.
    pub fill_ns: f64,
    /// Retire-time assignment + `TraceLine::from_raw`, µs per trace,
    /// averaged over the workload's strategies.
    pub assign_us: f64,
    /// `DataMemory::access`, ns per access.
    pub access_ns: f64,
    /// Perfect-frontend engine replay, ns per instruction.
    pub core_ns_per_inst: f64,
    /// Perfect-frontend engine replay, ns per cycle.
    pub core_ns_per_tick: f64,
    /// Synthetic scheduler cases, ms per 20k cycles.
    pub rob_pressure_ms: f64,
    /// See `rob_pressure_ms`.
    pub wakeup_fanout_ms: f64,
    /// See `rob_pressure_ms`.
    pub completion_pop_ms: f64,
    /// `Checkpoint::capture` at the workload's warmup (1M instructions
    /// for a workload without one), ms.
    pub checkpoint_ms: f64,
    /// `SimBuilder::build`, µs.
    pub build_us: f64,
    /// `SimReport::to_json`, µs.
    pub encode_us: f64,
    /// `SimReport::from_json`, µs.
    pub decode_us: f64,
    /// `job_key`, ns.
    pub job_key_ns: f64,
    /// `ResultStore::get`, µs.
    pub store_get_us: f64,
    /// `ResultStore::put`, µs.
    pub store_put_us: f64,
    /// `ResultStore::open`, ms.
    pub store_open_ms: f64,
    /// `Journal::admit` + 4 × `mark_cell` + `finish`, µs per request.
    pub journal_us: f64,
    /// Host time of a cell with attribution on over off.
    pub attrib_overhead_x: f64,
    /// Heap the attribution recorder adds to a cell at its peak, MB.
    pub attrib_heap_mb: f64,
}

/// Runs `f` three times inside spans named `name` and returns the
/// median time in ns divided by `ops`.
fn per_op(tracer: &mut Tracer, name: &str, ops: usize, mut f: impl FnMut()) -> f64 {
    let mut ns = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        f();
        let end = Instant::now();
        tracer.record(name, 0, 0, t, end);
        ns.push((end - t).as_secs_f64() * 1e9);
    }
    median(&ns) / ops.max(1) as f64
}

fn fetched(
    seq: u64,
    group: u64,
    slot: usize,
    inst: Instruction,
    d: Option<&DynInst>,
) -> FetchedInst {
    FetchedInst {
        seq,
        pc: d.map_or(0x1000 + seq * 4, |d| d.pc),
        index: d.map_or(seq as u32, |d| d.index),
        inst,
        mem_addr: d.and_then(|d| d.mem_addr),
        taken: d.and_then(|d| d.branch.map(|b| b.taken)),
        slot: slot as u8,
        group,
        from_tc: false,
        tc_loc: None,
        profile: ProfileFields::default(),
        mispredicted: false,
    }
}

/// Ticks an engine over a synthetic stream of 16-wide groups for
/// `cycles` cycles: the scheduler microbenchmarks.
fn synthetic(cycles: u64, make: impl Fn(usize) -> Instruction) -> u64 {
    let mut engine = Engine::new(ctcp_core::EngineConfig::default(), SteeringMode::Slot);
    let mut out = TickResult::default();
    let (mut seq, mut group, mut retired) = (0u64, 0u64, 0u64);
    for now in 0..cycles {
        if engine.can_accept(16) {
            let g: [FetchedInst; 16] =
                std::array::from_fn(|i| fetched(seq + i as u64, group, i, make(i), None));
            engine.accept(&g, now);
            seq += 16;
            group += 1;
        }
        engine.tick_into(now, &mut out);
        retired += out.retired.len() as u64;
    }
    retired
}

/// Replays `stream` through an engine fed perfectly (whole groups in
/// program order, no mispredictions); returns cycles ticked.
fn replay(config: &SimConfig, groups: &[Vec<FetchedInst>], total: u64) -> u64 {
    let mut engine = Engine::new(config.engine, SteeringMode::Slot);
    let mut out = TickResult::default();
    let (mut next, mut retired, mut now) = (0, 0u64, 0u64);
    while retired < total && now < total * 400 {
        if next < groups.len() && engine.can_accept(groups[next].len()) {
            engine.accept(&groups[next], now);
            next += 1;
        }
        engine.tick_into(now, &mut out);
        retired += out.retired.len() as u64;
        out.retired.clear();
        now += 1;
    }
    now
}

/// An empty directory for this process under `target/ctcp-benchmark`.
pub(crate) fn scratch(tag: &str) -> PathBuf {
    let dir = PathBuf::from("target/ctcp-benchmark").join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs every isolated replay once.
pub fn costs(input: &LayerInput, tracer: &mut Tracer) -> LayerCosts {
    let n = if input.smoke { 2_000 } else { 40_000 };
    let cfg = &input.config;
    let mut d = LayerCosts::default();

    // isa
    let streams: Vec<Vec<DynInst>> = input
        .programs
        .iter()
        .map(|p| Executor::new(p).take(n).collect())
        .collect();
    let insts: usize = streams.iter().map(Vec::len).sum();
    d.exec_ns = per_op(tracer, "isa.exec", insts, || {
        for p in input.programs {
            black_box(Executor::new(p).take(n).fold(0u64, |a, x| a ^ x.pc));
        }
    });
    let all = || streams.iter().flatten();

    // frontend
    let branches: Vec<(u64, bool)> = all()
        .filter(|x| x.op().is_conditional_branch())
        .map(|x| (x.pc, x.taken()))
        .collect();
    d.predict_ns = per_op(tracer, "frontend.predict", branches.len(), || {
        let mut p = HybridPredictor::new(cfg.predictor);
        for &(pc, taken) in &branches {
            black_box(p.predict(pc));
            p.update(pc, taken);
            p.update_history(taken);
        }
    });
    let transfers: Vec<(u64, u64)> = all()
        .filter_map(|x| Some((x.pc, x.branch.filter(|b| b.taken)?.target)))
        .collect();
    d.btb_ns = per_op(tracer, "frontend.btb", transfers.len(), || {
        let mut b = Btb::new(cfg.btb);
        for &(pc, target) in &transfers {
            black_box(b.lookup(pc));
            b.update(pc, target);
        }
    });
    d.icache_ns = per_op(tracer, "frontend.icache", insts, || {
        let mut c = ICache::new(cfg.icache);
        for x in all() {
            black_box(c.fetch(x.pc));
        }
    });

    // tracecache
    let slots = cfg.engine.geometry.total_slots();
    let fill_cfg = FillUnitConfig {
        max_insts: slots,
        max_blocks: cfg.trace_cache.max_blocks,
        ..cfg.fill
    };
    let pending: Vec<PendingInst> = all()
        .map(|x| PendingInst {
            seq: x.seq,
            index: x.index,
            pc: x.pc,
            inst: x.inst,
            profile: ProfileFields::default(),
            tc_loc: None,
            feedback: Default::default(),
            taken: x.branch.map(|b| b.taken),
        })
        .collect();
    let mut traces: Vec<RawTrace> = Vec::new();
    d.fill_ns = per_op(tracer, "tracecache.fill", pending.len(), || {
        let mut fu = FillUnit::new(fill_cfg);
        let mut out = Vec::new();
        for p in &pending {
            let head = if fu.is_filling() {
                TraceHead::None
            } else {
                TraceHead::TraceCacheMiss
            };
            out.extend(fu.push(*p, head));
        }
        traces = out;
    });
    let geom = cfg.engine.geometry;
    let mut assign = Vec::new();
    for s in input.strategies {
        let mut raws = traces.clone();
        assign.push(
            per_op(tracer, "tracecache.assign", raws.len(), || {
                let mut strategy = s.retire_time();
                let mut store = MapChainStore::new();
                for raw in raws.iter_mut() {
                    let placement = strategy.assign(raw, &geom, &mut store);
                    black_box(TraceLine::from_raw(raw, &placement, slots));
                }
            }) / 1e3,
        );
    }
    d.assign_us = crate::stats::mean(&assign);
    let tc_cfg = TraceCacheConfig {
        line_capacity: slots,
        ..cfg.trace_cache
    };
    let mut tc = TraceCache::new(tc_cfg);
    for raw in &traces {
        tc.install(TraceLine::from_raw(
            raw,
            &TraceLine::identity_placement(raw.len()),
            slots,
        ));
    }
    d.lookup_ns = per_op(tracer, "tracecache.lookup", traces.len(), || {
        for raw in &traces {
            black_box(tc.lookup(raw.start_pc(), |_| true).is_some());
        }
    });

    // memory
    let accesses: Vec<(AccessKind, u64)> = all()
        .filter_map(|x| {
            let kind = if x.op().is_load() {
                AccessKind::Load
            } else {
                AccessKind::Store
            };
            Some((kind, x.mem_addr?))
        })
        .collect();
    d.access_ns = per_op(tracer, "memory.access", accesses.len(), || {
        let mut m = DataMemory::new(cfg.engine.memory);
        for (i, &(kind, addr)) in accesses.iter().enumerate() {
            black_box(m.access(kind, addr, i as u64).ready_cycle);
        }
    });

    // core
    let groups: Vec<Vec<FetchedInst>> = streams
        .iter()
        .flat_map(|s| s.chunks(slots))
        .scan(0u64, |seq, chunk| {
            Some((std::mem::replace(seq, *seq + chunk.len() as u64), chunk))
        })
        .enumerate()
        .map(|(g, (base, chunk))| {
            chunk
                .iter()
                .enumerate()
                .map(|(i, x)| fetched(base + i as u64, g as u64, i, x.inst, Some(x)))
                .collect()
        })
        .collect();
    let mut ticks = 0;
    d.core_ns_per_inst = per_op(tracer, "core.replay", insts, || {
        ticks = replay(cfg, &groups, insts as u64);
    });
    d.core_ns_per_tick = d.core_ns_per_inst * insts as f64 / ticks.max(1) as f64;
    let cycles = if input.smoke { 2_000 } else { 20_000 };
    let ms = |ns_per_op: f64| ns_per_op / 1e6;
    d.rob_pressure_ms = ms(per_op(tracer, "core.rob_pressure", 1, || {
        black_box(synthetic(cycles, |i| {
            if i == 0 {
                Instruction::new(Opcode::Div, Some(Reg::int(0)), Some(Reg::int(1)), None, 0)
            } else {
                Instruction::new(
                    Opcode::Add,
                    Some(Reg::int((i % 8) as u8)),
                    Some(Reg::int(0)),
                    None,
                    0,
                )
            }
        }));
    }));
    d.wakeup_fanout_ms = ms(per_op(tracer, "core.wakeup_fanout", 1, || {
        black_box(synthetic(cycles, |i| {
            if i == 0 {
                Instruction::new(Opcode::Div, Some(Reg::int(7)), Some(Reg::int(1)), None, 0)
            } else {
                Instruction::new(
                    Opcode::Add,
                    Some(Reg::int((i % 4) as u8)),
                    Some(Reg::int(7)),
                    Some(Reg::int(7)),
                    0,
                )
            }
        }));
    }));
    d.completion_pop_ms = ms(per_op(tracer, "core.completion_pop", 1, || {
        black_box(synthetic(cycles, |i| {
            let op = match i % 3 {
                0 => Opcode::Add,
                1 => Opcode::Mul,
                _ => Opcode::Div,
            };
            Instruction::new(op, Some(Reg::int((i % 8) as u8)), None, None, 0)
        }));
    }));

    // sim
    let program = &input.programs[0];
    // A workload without warmup never captures a checkpoint; the row
    // then times a capture at a fixed depth, so the layer stays measured.
    let warmup = match cfg.warmup_insts {
        0 if input.smoke => 10_000,
        0 => 1_000_000,
        w => w,
    };
    let mut checkpoint = None;
    d.checkpoint_ms = ms(per_op(tracer, "sim.checkpoint", 1, || {
        checkpoint = Some(Checkpoint::capture(program, warmup));
    }));
    let builds = 20;
    d.build_us = per_op(tracer, "sim.build", builds, || {
        for _ in 0..builds {
            let mut b = Simulation::builder(program).config(*cfg);
            if let Some(ck) = checkpoint.as_ref().filter(|_| cfg.warmup_insts > 0) {
                b = b.resume_from(ck);
            }
            black_box(b.build().expect("workload configs are valid"));
        }
    }) / 1e3;
    let jsons: Vec<String> = input.reports.iter().map(|(_, r)| r.to_json()).collect();
    d.encode_us = per_op(tracer, "sim.encode", jsons.len(), || {
        for (_, r) in input.reports {
            black_box(r.to_json());
        }
    }) / 1e3;
    d.decode_us = per_op(tracer, "sim.decode", jsons.len(), || {
        for j in &jsons {
            black_box(SimReport::from_json(j).expect("own encoding decodes"));
        }
    }) / 1e3;

    // harness
    let names: Vec<&str> = input.reports.iter().map(|(w, _)| w.as_str()).collect();
    let keyed = 10_000;
    d.job_key_ns = per_op(tracer, "harness.job_key", keyed, || {
        for i in 0..keyed {
            let mut c = *cfg;
            c.max_insts += i as u64;
            black_box(job_key(
                names.get(i % names.len().max(1)).unwrap_or(&"x"),
                &c,
            ));
        }
    });
    let dir = scratch("scratch");
    let keys: Vec<u64> = (0..input.reports.len() as u64)
        .map(|i| {
            let mut c = *cfg;
            c.max_insts += i;
            job_key(names[i as usize], &c)
        })
        .collect();
    let mut round = 0;
    d.store_put_us = per_op(tracer, "harness.store_put", input.reports.len(), || {
        // A fresh store per repetition: every put appends a new line.
        let store =
            ResultStore::open(dir.join(format!("put{round}"))).expect("scratch store opens");
        round += 1;
        for (k, (w, r)) in keys.iter().zip(input.reports) {
            store.put(*k, w, r).expect("scratch store accepts writes");
        }
    }) / 1e3;
    let (open_dir, get_keys) = match &input.store {
        Some((dir, keys)) => (dir.clone(), keys.clone()),
        None => (dir.join("put0"), keys.clone()),
    };
    let mut store = None;
    d.store_open_ms = ms(per_op(tracer, "harness.store_open", 1, || {
        store = Some(ResultStore::open(&open_dir).expect("store reopens"));
    }));
    let store = store.expect("opened above");
    d.store_get_us = per_op(tracer, "harness.store_get", get_keys.len(), || {
        for k in &get_keys {
            black_box(store.get(*k));
        }
    }) / 1e3;
    let journal = Journal::open(dir.join("journal")).expect("scratch journal opens");
    let requests = 50;
    d.journal_us = per_op(tracer, "harness.journal", requests, || {
        for r in 0..requests {
            let token = format!("bench{r:04}");
            journal
                .admit(&token, "sweep", "{}")
                .expect("journal append");
            for cell in 0..4 {
                journal.mark_cell(&token, cell).expect("journal append");
            }
            journal.finish(&token, 0).expect("journal append");
        }
    }) / 1e3;
    drop(journal);
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);

    // telemetry: the same cell with attribution off and on.
    let mut cell_cfg = *cfg;
    cell_cfg.max_insts = if input.smoke { 1_000 } else { 50_000 };
    let job = [Job::new("attrib", Arc::clone(program), cell_cfg)];
    let off = per_op(tracer, "telemetry.attrib_off", 1, || {
        black_box(Harness::new().jobs(1).progress(false).run(&job));
    });
    let base = heap::reset_peak();
    let on = per_op(tracer, "telemetry.attrib_on", 1, || {
        black_box(
            Harness::new()
                .jobs(1)
                .progress(false)
                .attrib(true)
                .run(&job),
        );
    });
    d.attrib_heap_mb = heap::peak().saturating_sub(base) as f64 / (1024.0 * 1024.0);
    d.attrib_overhead_x = on / off;
    d
}
