//! The oracle suite: every invariant the simulator can check against
//! itself, over generated cells as well as hand-picked ones, plus a
//! committed table of report digests.
//!
//! Each cell is a program and a [`SimConfig`]. It is simulated several
//! ways, and all of them must agree:
//!
//! - with a recorder attached, which samples every cycle and so ticks
//!   every one of them, and bare, which skips quiet cycles: the same
//!   report bytes, attribution included (the recorder run is the
//!   every-cycle reference for skipping);
//! - with attribution off: the same bytes as with it on, `attrib` aside;
//! - on one [`BatchRunner`] carried through all of a test's cells, which
//!   recycles engine storage, resuming a warmup cell from the test's
//!   shared [`CheckpointCache`]: the same bytes as a direct run;
//! - for a warmup cell, resumed from a [`Checkpoint::capture`]: the same
//!   bytes as fast-forwarding on its own.
//!
//! Every run must return `Ok` from `try_run`. The CPI stack must sum to
//! cycles × retire width, the recorder's counters must reconcile with
//! the report ([`SimReport::reconcile`], which `ctcp trace --check`
//! runs), and the report must survive a codec round trip byte for
//! byte. Finally the
//! FNV-1a digest of each report (attribution on) must match the table
//! below. On a mismatch the test prints its whole replacement table;
//! a change that is meant to move report bytes re-records it by
//! pasting that in.
//!
//! The cells come in three sets: generated ones (a seeded PCG32 draws
//! a preset's parameters with a new seed and perturbed memory, store,
//! pointer-chasing, complex-op and ILP knobs, on 2, 4 or 8 clusters
//! scaled as sweeps scale them, on any topology, under any strategy,
//! with or without warmup and latency overrides); every preset under
//! every strategy on the paper's machine; and fixed cells with many
//! quiet cycles or wide machines.

use ctcp::core::{LatencyOverrides, Topology};
use ctcp::harness::SweepSpec;
use ctcp::isa::Program;
use ctcp::sim::{
    BatchRunner, Checkpoint, CheckpointCache, SimBuilder, SimConfig, SimReport, Simulation,
    Strategy,
};
use ctcp::telemetry::{Recorder, RecorderConfig, DEFAULT_TOP_EDGES};
use ctcp::workload::{generate, Benchmark, Pcg32, WorkloadParams};
use std::fmt::Write as _;
use std::rc::Rc;
use std::sync::Arc;

const STRATEGIES: [Strategy; 8] = [
    Strategy::Baseline,
    Strategy::IssueTime { latency: 0 },
    Strategy::IssueTime { latency: 4 },
    Strategy::Friendly { middle_bias: false },
    Strategy::Friendly { middle_bias: true },
    Strategy::Fdrt { pinning: true },
    Strategy::Fdrt { pinning: false },
    Strategy::FdrtIntraOnly,
];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn presets() -> Vec<Benchmark> {
    Benchmark::spec_all()
        .into_iter()
        .chain(Benchmark::mediabench())
        .collect()
}

/// A `clusters`-cluster machine on `topology`, with the front end and
/// window scaled to its width the way sweeps scale them.
fn machine(
    strategy: Strategy,
    clusters: u8,
    topology: Topology,
    insts: u64,
    warmup: u64,
) -> SimConfig {
    let spec = SweepSpec {
        insts,
        warmup,
        ..SweepSpec::default()
    };
    spec.cell_config(strategy, clusters, topology)
}

/// One cell: `cfg` simulated over `program`.
struct Cell<'p> {
    name: String,
    program: &'p Arc<Program>,
    cfg: SimConfig,
}

impl<'p> Cell<'p> {
    fn builder(&self) -> SimBuilder<'p> {
        Simulation::builder(self.program).config(self.cfg)
    }

    fn run(&self, builder: SimBuilder<'p>, how: &str) -> SimReport {
        let sim = builder
            .build()
            .unwrap_or_else(|e| panic!("{}: {e}", self.name));
        sim.try_run()
            .unwrap_or_else(|e| panic!("{} ({how}): {e}", self.name))
    }

    /// Runs every check on the cell and returns the digest of its
    /// report with attribution on.
    fn check(&self, runner: &mut BatchRunner, checkpoints: &CheckpointCache) -> u64 {
        let name = &self.name;
        let recorder = Rc::new(Recorder::new(RecorderConfig::default()));
        let ticked = self.run(
            self.builder()
                .recorder(Rc::clone(&recorder))
                .attrib(DEFAULT_TOP_EDGES),
            "recorder attached",
        );
        let json = ticked.to_json();
        let skipped = self.run(self.builder().attrib(DEFAULT_TOP_EDGES), "bare");
        assert_eq!(
            skipped.to_json(),
            json,
            "{name}: skipping quiet cycles changed the report"
        );
        assert!(
            !recorder.events().is_empty(),
            "{name}: recorder saw nothing"
        );
        ticked
            .reconcile(&recorder.metrics())
            .unwrap_or_else(|e| panic!("{name}: {e}"));

        let attrib = ticked.attrib.as_ref().expect("attribution was on");
        let width = self.cfg.engine.retire_width as u64;
        assert_eq!(attrib.stack.cycles, ticked.cycles, "{name}: stack cycles");
        assert_eq!(
            attrib.stack.total(),
            ticked.cycles * width,
            "{name}: CPI stack must sum to cycles x retire width"
        );
        assert!(attrib.critical.edges > 0, "{name}: no critical edges");

        let mut batched = self.builder().attrib(DEFAULT_TOP_EDGES);
        if self.cfg.warmup_insts > 0 {
            batched = batched
                .resume_from(&checkpoints.get_or_capture(self.program, self.cfg.warmup_insts));
        }
        let batched = runner
            .try_run(batched)
            .unwrap_or_else(|e| panic!("{name} (batched): {e}"));
        assert_eq!(batched.to_json(), json, "{name}: batched report diverged");

        let mut stripped = skipped;
        stripped.attrib = None;
        let stripped = stripped.to_json();
        let off = self.run(self.builder(), "attribution off");
        assert_eq!(
            off.to_json(),
            stripped,
            "{name}: attribution changed the report"
        );

        if self.cfg.warmup_insts > 0 {
            let checkpoint = Checkpoint::capture(self.program, self.cfg.warmup_insts);
            let resumed = self.run(self.builder().resume_from(&checkpoint), "resumed");
            assert_eq!(
                resumed.to_json(),
                stripped,
                "{name}: resuming a checkpoint diverged from fast-forwarding"
            );
        }

        let decoded = SimReport::from_json(&json).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(decoded.to_json(), json, "{name}: codec round trip");
        fnv1a(json.as_bytes())
    }
}

/// Checks every cell and compares the digests with `table`, printing
/// the replacement table `const {label}` on a mismatch.
fn check_all(label: &str, cells: &[Cell<'_>], table: &[(&str, u64)]) {
    let mut runner = BatchRunner::new();
    let checkpoints = CheckpointCache::new();
    let got: Vec<(String, u64)> = cells
        .iter()
        .map(|c| (c.name.clone(), c.check(&mut runner, &checkpoints)))
        .collect();
    let matches = got.len() == table.len()
        && got
            .iter()
            .zip(table)
            .all(|((n, d), (tn, td))| n == tn && d == td);
    if !matches {
        let mut text = format!("const {label}: &[(&str, u64)] = &[\n");
        for (n, d) in &got {
            writeln!(text, "    ({n:?}, {d:#018x}),").unwrap();
        }
        text.push_str("];");
        let first = got
            .iter()
            .zip(table)
            .position(|((n, d), (tn, td))| n != tn || d != td)
            .unwrap_or(got.len().min(table.len()));
        panic!(
            "{label}: report digests differ from row {first} on \
             ({} rows computed, {} recorded); replacement table:\n{text}",
            got.len(),
            table.len()
        );
    }
}

/// Draws a preset's parameters with a new seed and perturbed memory,
/// store, pointer-chasing, complex-op and ILP knobs.
fn perturbed(r: &mut Pcg32, base: &WorkloadParams) -> WorkloadParams {
    let mut uniform = |lo: f64, hi: f64| lo + (hi - lo) * f64::from(r.next_u32()) / 4_294_967_296.0;
    let mem_fraction = uniform(0.1, 0.5);
    let store_fraction = uniform(0.1, 0.6);
    let chase_fraction = uniform(0.0, 0.5);
    let complex_fraction = uniform(0.0, 0.2);
    let p = WorkloadParams {
        seed: r.next_u64(),
        mem_fraction,
        store_fraction,
        chase_fraction,
        complex_fraction,
        ilp_chains: 1 + r.index(6),
        ..*base
    };
    p.validate();
    p
}

const GENERATED_CELLS: usize = 48;

#[test]
fn generated_cells_pass_every_check() {
    let presets = presets();
    let mut r = Pcg32::seed_from_u64(0x0_5ac1e);
    let mut draws = Vec::new();
    for i in 0..GENERATED_CELLS {
        let preset = presets[r.index(presets.len())];
        let params = perturbed(&mut r, preset.params());
        let strategy = STRATEGIES[r.index(STRATEGIES.len())];
        let clusters = [2, 4, 8][r.index(3)];
        let topology = [Topology::Linear, Topology::Ring, Topology::FullyConnected][r.index(3)];
        let warmup = if r.chance(0.5) {
            10_000 * r.range(1, 21) as u64
        } else {
            0
        };
        let insts = 1_000 * r.range(2, 6) as u64;
        let mut cfg = machine(strategy, clusters, topology, insts, warmup);
        let mut name = format!(
            "gen{i:02} {}~ {clusters}c {topology:?} {} {insts}/{warmup}",
            preset.name,
            strategy.name()
        );
        if r.chance(0.25) {
            let (ov, tag) = [
                (
                    LatencyOverrides {
                        no_forward_latency: true,
                        ..LatencyOverrides::default()
                    },
                    "no-fwd",
                ),
                (
                    LatencyOverrides {
                        no_critical_forward_latency: true,
                        ..LatencyOverrides::default()
                    },
                    "no-crit",
                ),
                (
                    LatencyOverrides {
                        no_intra_trace_latency: true,
                        ..LatencyOverrides::default()
                    },
                    "no-intra",
                ),
                (
                    LatencyOverrides {
                        no_inter_trace_latency: true,
                        ..LatencyOverrides::default()
                    },
                    "no-inter",
                ),
            ][r.index(4)];
            cfg.engine.overrides = ov;
            name.push(' ');
            name.push_str(tag);
        }
        draws.push((name, Arc::new(generate(&params)), cfg));
    }
    let cells: Vec<Cell<'_>> = draws
        .iter()
        .map(|(name, program, cfg)| Cell {
            name: name.clone(),
            program,
            cfg: *cfg,
        })
        .collect();
    check_all("GENERATED", &cells, GENERATED);
}

#[test]
fn every_preset_under_every_strategy_passes_every_check() {
    let presets = presets();
    let programs: Vec<Arc<Program>> = presets.iter().map(|b| Arc::new(b.program())).collect();
    let mut cells = Vec::new();
    for (b, program) in presets.iter().zip(&programs) {
        for strategy in STRATEGIES {
            cells.push(Cell {
                name: format!("{} {}", b.name, strategy.name()),
                program,
                cfg: SimConfig {
                    strategy,
                    max_insts: 2_000,
                    ..SimConfig::default()
                },
            });
        }
    }
    check_all("PRESETS", &cells, PRESETS);
}

#[test]
fn fixed_cells_pass_every_check() {
    let program = |bench: &str| Arc::new(Benchmark::by_name(bench).unwrap().program());
    let (mcf, vortex, gzip, rasta) = (
        program("mcf"),
        program("vortex"),
        program("gzip"),
        program("rasta"),
    );
    let mut cells = Vec::new();
    // The presets with the most quiet cycles: mcf's working set
    // overflows the L1D, vortex stalls on its misses too.
    for (bench, p) in [("mcf", &mcf), ("vortex", &vortex)] {
        for strategy in [
            Strategy::Baseline,
            Strategy::IssueTime { latency: 4 },
            Strategy::Fdrt { pinning: true },
        ] {
            cells.push(Cell {
                name: format!("{bench} {}", strategy.name()),
                program: p,
                cfg: SimConfig {
                    strategy,
                    max_insts: 20_000,
                    ..SimConfig::default()
                },
            });
        }
    }
    // A cold cell: caches, predictors and the trace cache start empty
    // deep into the program.
    cells.push(Cell {
        name: "gzip friendly cold after 200k".into(),
        program: &gzip,
        cfg: SimConfig {
            strategy: Strategy::Friendly { middle_bias: false },
            max_insts: 5_000,
            warmup_insts: 200_000,
            ..SimConfig::default()
        },
    });
    // Other machines, the 8-cluster ones wide enough for stores and
    // loads to fill the store buffer and the load queue.
    let fdrt = Strategy::Fdrt { pinning: true };
    for (bench, p, clusters, topology, insts) in [
        ("mcf", &mcf, 2, Topology::Ring, 20_000),
        ("mcf", &mcf, 8, Topology::Linear, 20_000),
        ("mcf", &mcf, 8, Topology::Ring, 30_000),
        ("rasta", &rasta, 8, Topology::Linear, 30_000),
    ] {
        cells.push(Cell {
            name: format!("{bench} fdrt {clusters}c {topology:?} {insts}"),
            program: p,
            cfg: machine(fdrt, clusters, topology, insts, 0),
        });
    }
    check_all("FIXED", &cells, FIXED);
}

const GENERATED: &[(&str, u64)] = &[
    (
        "gen00 gcc~ 4c Ring fdrt-nopin 3000/20000",
        0x65e2dfd340938f30,
    ),
    (
        "gen01 pegwit~ 2c Linear friendly 2000/0",
        0x09ef0b5e8da08c4f,
    ),
    (
        "gen02 jpeg_enc~ 2c FullyConnected issue-time(0) 4000/0",
        0x2e41d5e61d23d770,
    ),
    (
        "gen03 crafty~ 8c Linear friendly 3000/10000 no-intra",
        0x8323e7f194c51336,
    ),
    ("gen04 mpeg2_dec~ 8c Ring fdrt 5000/0", 0xab9c4b311b5a3ded),
    ("gen05 gap~ 2c Linear base 3000/0", 0x2df35dc8042fae66),
    (
        "gen06 unepic~ 8c FullyConnected friendly 3000/120000 no-intra",
        0xe89365aa7c25f479,
    ),
    (
        "gen07 twolf~ 8c Ring issue-time(4) 2000/160000",
        0x777c2fb8e1cc39d0,
    ),
    (
        "gen08 mpeg2_enc~ 2c FullyConnected fdrt 3000/20000",
        0xaa9ae9a7b0caac5d,
    ),
    (
        "gen09 gcc~ 4c FullyConnected fdrt-intra 4000/0",
        0xee8a2ed3be8ccb75,
    ),
    (
        "gen10 mesa~ 4c Linear issue-time(4) 5000/0",
        0xefb3341b3efe4df8,
    ),
    (
        "gen11 gs~ 8c Linear friendly-mid 4000/0",
        0xc9471c02a3185456,
    ),
    (
        "gen12 g721_enc~ 8c FullyConnected issue-time(0) 2000/200000",
        0x134f5c35b9587163,
    ),
    (
        "gen13 adpcm_enc~ 4c Linear fdrt-intra 3000/70000",
        0x460d8d534d7f6112,
    ),
    (
        "gen14 gzip~ 4c Ring friendly-mid 5000/0",
        0xbc0aac72268b5969,
    ),
    (
        "gen15 twolf~ 4c FullyConnected fdrt-intra 5000/0",
        0x49afd4c4311688c4,
    ),
    (
        "gen16 gzip~ 8c Ring fdrt-intra 2000/10000 no-intra",
        0x684f833f4c1b713f,
    ),
    (
        "gen17 pegwit~ 2c Linear base 4000/80000",
        0x984a796daa7ba536,
    ),
    (
        "gen18 twolf~ 2c Ring fdrt-nopin 5000/110000 no-fwd",
        0x336f2710c26ed1e9,
    ),
    ("gen19 twolf~ 4c Ring friendly 3000/0", 0xe9cef42308276033),
    (
        "gen20 rasta~ 8c Linear fdrt-nopin 5000/170000",
        0xa111c076b2da6b98,
    ),
    (
        "gen21 mesa~ 8c Ring fdrt-intra 3000/140000",
        0x40e115c278df1dda,
    ),
    (
        "gen22 mpeg2_dec~ 2c FullyConnected fdrt-nopin 4000/50000",
        0x25df13ecaaa261ef,
    ),
    (
        "gen23 mesa~ 8c Linear issue-time(4) 4000/0",
        0xf0c3680c7a4e1a92,
    ),
    (
        "gen24 gcc~ 2c Linear fdrt-nopin 4000/150000",
        0xaecff0582937e108,
    ),
    (
        "gen25 parser~ 4c Linear fdrt-intra 2000/90000",
        0x9547f5282bbabed4,
    ),
    ("gen26 gap~ 8c Ring fdrt 4000/0", 0x12b3978fbc8ad79e),
    (
        "gen27 parser~ 8c Linear fdrt-nopin 2000/180000",
        0x571660fefaf6e1a7,
    ),
    (
        "gen28 unepic~ 2c Ring friendly 5000/50000",
        0x30c1632a73807628,
    ),
    (
        "gen29 eon~ 4c Linear friendly 5000/30000",
        0xf8ea7eead44d9de3,
    ),
    ("gen30 rasta~ 2c Ring fdrt 3000/100000", 0x544bb4983bdca728),
    (
        "gen31 rasta~ 8c FullyConnected fdrt-nopin 3000/10000",
        0x7db066cbbbc84d9a,
    ),
    (
        "gen32 gzip~ 2c Linear fdrt-intra 5000/0",
        0x60ad17a8a2a23557,
    ),
    ("gen33 mesa~ 4c Ring fdrt-nopin 5000/0", 0x690e91a499df8024),
    (
        "gen34 mcf~ 2c FullyConnected fdrt-intra 4000/90000",
        0xb0df6b3d83aeed07,
    ),
    (
        "gen35 mesa~ 2c FullyConnected friendly-mid 4000/80000 no-crit",
        0x0f25594452dd07f3,
    ),
    (
        "gen36 vortex~ 8c Linear issue-time(0) 2000/90000",
        0x121df6f97ee1253a,
    ),
    (
        "gen37 mpeg2_enc~ 2c FullyConnected issue-time(0) 5000/0",
        0x8ce3a274d4c89e2b,
    ),
    ("gen38 epic~ 2c Linear base 3000/0", 0xfc4c33e229f8fd6c),
    (
        "gen39 mpeg2_dec~ 8c Linear friendly 4000/0",
        0x7835660b2950477c,
    ),
    (
        "gen40 gzip~ 4c Ring friendly-mid 2000/40000 no-intra",
        0x161cce6d8fa93f24,
    ),
    (
        "gen41 eon~ 2c FullyConnected fdrt-intra 2000/0 no-crit",
        0xafd21a09d28ab9cb,
    ),
    (
        "gen42 gzip~ 2c Ring issue-time(4) 2000/30000 no-crit",
        0x564526d13a084ef6,
    ),
    (
        "gen43 unepic~ 2c FullyConnected friendly 3000/150000",
        0x90cd1de6a32f7b75,
    ),
    (
        "gen44 perlbmk~ 2c Linear fdrt-intra 2000/0 no-crit",
        0xafd21a09d28ab9cb,
    ),
    (
        "gen45 gcc~ 8c FullyConnected base 2000/110000",
        0xd9d7883b6c70a1ee,
    ),
    (
        "gen46 mpeg2_dec~ 4c Linear base 2000/120000",
        0x788d232f38e4ab10,
    ),
    ("gen47 mesa~ 8c Ring friendly 4000/0", 0x7835660b2950477c),
];

const PRESETS: &[(&str, u64)] = &[
    ("bzip2 base", 0x8248bc8b52c51412),
    ("bzip2 issue-time(0)", 0xccdd9be35fa856a6),
    ("bzip2 issue-time(4)", 0x440e076cb427273b),
    ("bzip2 friendly", 0x0f423a70b5be7d08),
    ("bzip2 friendly-mid", 0x68475e64c70cd170),
    ("bzip2 fdrt", 0xbf10e9acc645d8e9),
    ("bzip2 fdrt-nopin", 0xd5e534b3d32ae426),
    ("bzip2 fdrt-intra", 0x2409899453de531c),
    ("crafty base", 0xa33b350736242666),
    ("crafty issue-time(0)", 0x48a6d661a851fbe2),
    ("crafty issue-time(4)", 0x9d713f9b7c8583ef),
    ("crafty friendly", 0xb71e0a42f2bd843c),
    ("crafty friendly-mid", 0xf237c8a9d532aa9c),
    ("crafty fdrt", 0x880834eac2d05197),
    ("crafty fdrt-nopin", 0x62032425fc6e6182),
    ("crafty fdrt-intra", 0x893c13f005bd3122),
    ("eon base", 0x8248bc8b52c51412),
    ("eon issue-time(0)", 0xccdd9be35fa856a6),
    ("eon issue-time(4)", 0x440e076cb427273b),
    ("eon friendly", 0x0f423a70b5be7d08),
    ("eon friendly-mid", 0x68475e64c70cd170),
    ("eon fdrt", 0xbf10e9acc645d8e9),
    ("eon fdrt-nopin", 0xd5e534b3d32ae426),
    ("eon fdrt-intra", 0x2409899453de531c),
    ("gap base", 0x8248bc8b52c51412),
    ("gap issue-time(0)", 0xccdd9be35fa856a6),
    ("gap issue-time(4)", 0x440e076cb427273b),
    ("gap friendly", 0x0f423a70b5be7d08),
    ("gap friendly-mid", 0x68475e64c70cd170),
    ("gap fdrt", 0xbf10e9acc645d8e9),
    ("gap fdrt-nopin", 0xd5e534b3d32ae426),
    ("gap fdrt-intra", 0x2409899453de531c),
    ("gcc base", 0x8248bc8b52c51412),
    ("gcc issue-time(0)", 0xccdd9be35fa856a6),
    ("gcc issue-time(4)", 0x440e076cb427273b),
    ("gcc friendly", 0x0f423a70b5be7d08),
    ("gcc friendly-mid", 0x68475e64c70cd170),
    ("gcc fdrt", 0xbf10e9acc645d8e9),
    ("gcc fdrt-nopin", 0xd5e534b3d32ae426),
    ("gcc fdrt-intra", 0x2409899453de531c),
    ("gzip base", 0x8248bc8b52c51412),
    ("gzip issue-time(0)", 0xccdd9be35fa856a6),
    ("gzip issue-time(4)", 0x440e076cb427273b),
    ("gzip friendly", 0x0f423a70b5be7d08),
    ("gzip friendly-mid", 0x68475e64c70cd170),
    ("gzip fdrt", 0xbf10e9acc645d8e9),
    ("gzip fdrt-nopin", 0xd5e534b3d32ae426),
    ("gzip fdrt-intra", 0x2409899453de531c),
    ("mcf base", 0xa33b350736242666),
    ("mcf issue-time(0)", 0x48a6d661a851fbe2),
    ("mcf issue-time(4)", 0x9d713f9b7c8583ef),
    ("mcf friendly", 0xb71e0a42f2bd843c),
    ("mcf friendly-mid", 0xf237c8a9d532aa9c),
    ("mcf fdrt", 0x880834eac2d05197),
    ("mcf fdrt-nopin", 0x62032425fc6e6182),
    ("mcf fdrt-intra", 0x893c13f005bd3122),
    ("parser base", 0xa33b350736242666),
    ("parser issue-time(0)", 0x48a6d661a851fbe2),
    ("parser issue-time(4)", 0x9d713f9b7c8583ef),
    ("parser friendly", 0xb71e0a42f2bd843c),
    ("parser friendly-mid", 0xf237c8a9d532aa9c),
    ("parser fdrt", 0x880834eac2d05197),
    ("parser fdrt-nopin", 0x62032425fc6e6182),
    ("parser fdrt-intra", 0x893c13f005bd3122),
    ("perlbmk base", 0x8248bc8b52c51412),
    ("perlbmk issue-time(0)", 0xccdd9be35fa856a6),
    ("perlbmk issue-time(4)", 0x440e076cb427273b),
    ("perlbmk friendly", 0x0f423a70b5be7d08),
    ("perlbmk friendly-mid", 0x68475e64c70cd170),
    ("perlbmk fdrt", 0xbf10e9acc645d8e9),
    ("perlbmk fdrt-nopin", 0xd5e534b3d32ae426),
    ("perlbmk fdrt-intra", 0x2409899453de531c),
    ("twolf base", 0x8248bc8b52c51412),
    ("twolf issue-time(0)", 0xccdd9be35fa856a6),
    ("twolf issue-time(4)", 0x440e076cb427273b),
    ("twolf friendly", 0x0f423a70b5be7d08),
    ("twolf friendly-mid", 0x68475e64c70cd170),
    ("twolf fdrt", 0xbf10e9acc645d8e9),
    ("twolf fdrt-nopin", 0xd5e534b3d32ae426),
    ("twolf fdrt-intra", 0x2409899453de531c),
    ("vortex base", 0x8248bc8b52c51412),
    ("vortex issue-time(0)", 0xccdd9be35fa856a6),
    ("vortex issue-time(4)", 0x440e076cb427273b),
    ("vortex friendly", 0x0f423a70b5be7d08),
    ("vortex friendly-mid", 0x68475e64c70cd170),
    ("vortex fdrt", 0xbf10e9acc645d8e9),
    ("vortex fdrt-nopin", 0xd5e534b3d32ae426),
    ("vortex fdrt-intra", 0x2409899453de531c),
    ("vpr base", 0x8248bc8b52c51412),
    ("vpr issue-time(0)", 0xccdd9be35fa856a6),
    ("vpr issue-time(4)", 0x440e076cb427273b),
    ("vpr friendly", 0x0f423a70b5be7d08),
    ("vpr friendly-mid", 0x68475e64c70cd170),
    ("vpr fdrt", 0xbf10e9acc645d8e9),
    ("vpr fdrt-nopin", 0xd5e534b3d32ae426),
    ("vpr fdrt-intra", 0x2409899453de531c),
    ("adpcm_enc base", 0xa33b350736242666),
    ("adpcm_enc issue-time(0)", 0x48a6d661a851fbe2),
    ("adpcm_enc issue-time(4)", 0x9d713f9b7c8583ef),
    ("adpcm_enc friendly", 0xb71e0a42f2bd843c),
    ("adpcm_enc friendly-mid", 0xf237c8a9d532aa9c),
    ("adpcm_enc fdrt", 0x880834eac2d05197),
    ("adpcm_enc fdrt-nopin", 0x62032425fc6e6182),
    ("adpcm_enc fdrt-intra", 0x893c13f005bd3122),
    ("adpcm_dec base", 0xa33b350736242666),
    ("adpcm_dec issue-time(0)", 0x48a6d661a851fbe2),
    ("adpcm_dec issue-time(4)", 0x9d713f9b7c8583ef),
    ("adpcm_dec friendly", 0xb71e0a42f2bd843c),
    ("adpcm_dec friendly-mid", 0xf237c8a9d532aa9c),
    ("adpcm_dec fdrt", 0x880834eac2d05197),
    ("adpcm_dec fdrt-nopin", 0x62032425fc6e6182),
    ("adpcm_dec fdrt-intra", 0x893c13f005bd3122),
    ("epic base", 0xa33b350736242666),
    ("epic issue-time(0)", 0x48a6d661a851fbe2),
    ("epic issue-time(4)", 0x9d713f9b7c8583ef),
    ("epic friendly", 0xb71e0a42f2bd843c),
    ("epic friendly-mid", 0xf237c8a9d532aa9c),
    ("epic fdrt", 0x880834eac2d05197),
    ("epic fdrt-nopin", 0x62032425fc6e6182),
    ("epic fdrt-intra", 0x893c13f005bd3122),
    ("unepic base", 0xa33b350736242666),
    ("unepic issue-time(0)", 0x48a6d661a851fbe2),
    ("unepic issue-time(4)", 0x9d713f9b7c8583ef),
    ("unepic friendly", 0xb71e0a42f2bd843c),
    ("unepic friendly-mid", 0xf237c8a9d532aa9c),
    ("unepic fdrt", 0x880834eac2d05197),
    ("unepic fdrt-nopin", 0x62032425fc6e6182),
    ("unepic fdrt-intra", 0x893c13f005bd3122),
    ("g721_enc base", 0xa33b350736242666),
    ("g721_enc issue-time(0)", 0x48a6d661a851fbe2),
    ("g721_enc issue-time(4)", 0x9d713f9b7c8583ef),
    ("g721_enc friendly", 0xb71e0a42f2bd843c),
    ("g721_enc friendly-mid", 0xf237c8a9d532aa9c),
    ("g721_enc fdrt", 0x880834eac2d05197),
    ("g721_enc fdrt-nopin", 0x62032425fc6e6182),
    ("g721_enc fdrt-intra", 0x893c13f005bd3122),
    ("g721_dec base", 0xa33b350736242666),
    ("g721_dec issue-time(0)", 0x48a6d661a851fbe2),
    ("g721_dec issue-time(4)", 0x9d713f9b7c8583ef),
    ("g721_dec friendly", 0xb71e0a42f2bd843c),
    ("g721_dec friendly-mid", 0xf237c8a9d532aa9c),
    ("g721_dec fdrt", 0x880834eac2d05197),
    ("g721_dec fdrt-nopin", 0x62032425fc6e6182),
    ("g721_dec fdrt-intra", 0x893c13f005bd3122),
    ("gs base", 0xa33b350736242666),
    ("gs issue-time(0)", 0x48a6d661a851fbe2),
    ("gs issue-time(4)", 0x9d713f9b7c8583ef),
    ("gs friendly", 0xb71e0a42f2bd843c),
    ("gs friendly-mid", 0xf237c8a9d532aa9c),
    ("gs fdrt", 0x880834eac2d05197),
    ("gs fdrt-nopin", 0x62032425fc6e6182),
    ("gs fdrt-intra", 0x893c13f005bd3122),
    ("jpeg_enc base", 0xa33b350736242666),
    ("jpeg_enc issue-time(0)", 0x48a6d661a851fbe2),
    ("jpeg_enc issue-time(4)", 0x9d713f9b7c8583ef),
    ("jpeg_enc friendly", 0xb71e0a42f2bd843c),
    ("jpeg_enc friendly-mid", 0xf237c8a9d532aa9c),
    ("jpeg_enc fdrt", 0x880834eac2d05197),
    ("jpeg_enc fdrt-nopin", 0x62032425fc6e6182),
    ("jpeg_enc fdrt-intra", 0x893c13f005bd3122),
    ("jpeg_dec base", 0xa33b350736242666),
    ("jpeg_dec issue-time(0)", 0x48a6d661a851fbe2),
    ("jpeg_dec issue-time(4)", 0x9d713f9b7c8583ef),
    ("jpeg_dec friendly", 0xb71e0a42f2bd843c),
    ("jpeg_dec friendly-mid", 0xf237c8a9d532aa9c),
    ("jpeg_dec fdrt", 0x880834eac2d05197),
    ("jpeg_dec fdrt-nopin", 0x62032425fc6e6182),
    ("jpeg_dec fdrt-intra", 0x893c13f005bd3122),
    ("mesa base", 0xa33b350736242666),
    ("mesa issue-time(0)", 0x48a6d661a851fbe2),
    ("mesa issue-time(4)", 0x9d713f9b7c8583ef),
    ("mesa friendly", 0xb71e0a42f2bd843c),
    ("mesa friendly-mid", 0xf237c8a9d532aa9c),
    ("mesa fdrt", 0x880834eac2d05197),
    ("mesa fdrt-nopin", 0x62032425fc6e6182),
    ("mesa fdrt-intra", 0x893c13f005bd3122),
    ("mpeg2_enc base", 0xa33b350736242666),
    ("mpeg2_enc issue-time(0)", 0x48a6d661a851fbe2),
    ("mpeg2_enc issue-time(4)", 0x9d713f9b7c8583ef),
    ("mpeg2_enc friendly", 0xb71e0a42f2bd843c),
    ("mpeg2_enc friendly-mid", 0xf237c8a9d532aa9c),
    ("mpeg2_enc fdrt", 0x880834eac2d05197),
    ("mpeg2_enc fdrt-nopin", 0x62032425fc6e6182),
    ("mpeg2_enc fdrt-intra", 0x893c13f005bd3122),
    ("mpeg2_dec base", 0xa33b350736242666),
    ("mpeg2_dec issue-time(0)", 0x48a6d661a851fbe2),
    ("mpeg2_dec issue-time(4)", 0x9d713f9b7c8583ef),
    ("mpeg2_dec friendly", 0xb71e0a42f2bd843c),
    ("mpeg2_dec friendly-mid", 0xf237c8a9d532aa9c),
    ("mpeg2_dec fdrt", 0x880834eac2d05197),
    ("mpeg2_dec fdrt-nopin", 0x62032425fc6e6182),
    ("mpeg2_dec fdrt-intra", 0x893c13f005bd3122),
    ("pegwit base", 0xa33b350736242666),
    ("pegwit issue-time(0)", 0x48a6d661a851fbe2),
    ("pegwit issue-time(4)", 0x9d713f9b7c8583ef),
    ("pegwit friendly", 0xb71e0a42f2bd843c),
    ("pegwit friendly-mid", 0xf237c8a9d532aa9c),
    ("pegwit fdrt", 0x880834eac2d05197),
    ("pegwit fdrt-nopin", 0x62032425fc6e6182),
    ("pegwit fdrt-intra", 0x893c13f005bd3122),
    ("rasta base", 0xa33b350736242666),
    ("rasta issue-time(0)", 0x48a6d661a851fbe2),
    ("rasta issue-time(4)", 0x9d713f9b7c8583ef),
    ("rasta friendly", 0xb71e0a42f2bd843c),
    ("rasta friendly-mid", 0xf237c8a9d532aa9c),
    ("rasta fdrt", 0x880834eac2d05197),
    ("rasta fdrt-nopin", 0x62032425fc6e6182),
    ("rasta fdrt-intra", 0x893c13f005bd3122),
];

const FIXED: &[(&str, u64)] = &[
    ("mcf base", 0x6a7996d72b00e35c),
    ("mcf issue-time(4)", 0xb3c9cda630d37720),
    ("mcf fdrt", 0xab13252e240739c7),
    ("vortex base", 0xd2a26098eff13396),
    ("vortex issue-time(4)", 0x802d14637501eee6),
    ("vortex fdrt", 0x5cf22067bedd8f8f),
    ("gzip friendly cold after 200k", 0x1a97478ab44b8ba4),
    ("mcf fdrt 2c Ring 20000", 0x5cdda12f148f3c5f),
    ("mcf fdrt 8c Linear 20000", 0x45b4a9dbda977a1e),
    ("mcf fdrt 8c Ring 30000", 0x9d43748e41437859),
    ("rasta fdrt 8c Linear 30000", 0xeecc195ae7dcd3de),
];
