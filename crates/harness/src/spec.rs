//! [`SweepSpec`]: the one description of a sweep grid.
//!
//! Historically the CLI's argument parser, the sweep service's wire
//! codec, and the sweep command each held their own copy of the grid
//! vocabulary — which benchmarks, strategies, geometries, and budgets a
//! sweep covers. This module is the single owner: every surface parses
//! into (or renders from) a [`SweepSpec`], and [`SweepSpec::expand`] is
//! the only place the grid is unrolled into concrete jobs, so the cell
//! order and the per-cell [`SimConfig`] can never drift between the
//! one-shot CLI, the daemon, and the harness.
//!
//! Validation is typed ([`SpecError`]), mirroring the simulator
//! builder's `ConfigError`: callers render the variant they got, tests
//! match on it.

use ctcp_sim::{SimConfig, Strategy, Topology, MAX_CLUSTERS};

/// Why a [`SweepSpec`] cannot be expanded into a grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// The benchmark list is empty.
    NoBenches,
    /// The strategy list is empty (the baseline alone renders no rows —
    /// every row is a speedup *over* it).
    NoStrategies,
    /// The cluster-count list is empty.
    NoClusters,
    /// The topology list is empty.
    NoTopologies,
    /// A cluster count outside the supported 1..=[`MAX_CLUSTERS`] range.
    BadClusterCount {
        /// The offending count.
        clusters: u8,
    },
    /// A benchmark name appears twice — the grid would silently run
    /// (and render) the duplicate cells.
    DuplicateBench {
        /// The repeated name.
        bench: String,
    },
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::NoBenches => write!(f, "sweep has no benchmarks"),
            SpecError::NoStrategies => write!(f, "sweep has no strategies"),
            SpecError::NoClusters => write!(f, "sweep has no cluster counts"),
            SpecError::NoTopologies => write!(f, "sweep has no topologies"),
            SpecError::BadClusterCount { clusters } => {
                write!(f, "bad cluster count {clusters} (1..={MAX_CLUSTERS})")
            }
            SpecError::DuplicateBench { bench } => {
                write!(f, "benchmark {bench:?} appears twice in the sweep")
            }
        }
    }
}

impl std::error::Error for SpecError {}

/// A complete description of a sweep grid: benchmarks × cluster counts
/// × topologies, with a baseline cell plus one cell per strategy in
/// every geometry, under a shared warmup/measurement budget.
///
/// The spec names benchmarks as strings — resolving a name to a program
/// is the caller's business (the CLI looks them up in the preset
/// suites), which keeps this crate free of a workload dependency.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Benchmark names, in render order.
    pub benches: Vec<String>,
    /// Strategies to sweep; a baseline cell is always added per
    /// benchmark × geometry for the speedup column.
    pub strategies: Vec<Strategy>,
    /// Cluster counts to sweep (1..=[`MAX_CLUSTERS`]).
    pub clusters: Vec<u8>,
    /// Interconnect topologies to sweep.
    pub topologies: Vec<Topology>,
    /// Timed instruction budget per cell.
    pub insts: u64,
    /// Instructions to fast-forward (functional execution only, no
    /// timing) before the timed phase begins. Part of the cell's
    /// identity: a warmed-up run is a different experiment from an
    /// all-timed run, and the result store keys it accordingly.
    pub warmup: u64,
}

impl Default for SweepSpec {
    /// The focus sweep: six benchmarks, the four headline strategies,
    /// the paper's 4-cluster linear machine, 100k timed instructions,
    /// no warmup.
    fn default() -> Self {
        SweepSpec {
            benches: vec![
                "bzip2".into(),
                "eon".into(),
                "gzip".into(),
                "perlbmk".into(),
                "twolf".into(),
                "vpr".into(),
            ],
            strategies: vec![
                Strategy::IssueTime { latency: 0 },
                Strategy::IssueTime { latency: 4 },
                Strategy::Friendly { middle_bias: false },
                Strategy::Fdrt { pinning: true },
            ],
            clusters: vec![4],
            topologies: vec![Topology::Linear],
            insts: 100_000,
            warmup: 0,
        }
    }
}

/// One renderable cell of an expanded sweep: which (bench, geometry,
/// strategy) job it is and where its baseline sits in the job list.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCell {
    /// Benchmark name.
    pub bench: String,
    /// Cluster count of this cell's geometry.
    pub clusters: u8,
    /// Topology of this cell's geometry.
    pub topology: Topology,
    /// Index of this cell's job in [`SweepPlan::jobs`].
    pub job: usize,
    /// Index of the baseline job this cell's speedup is taken against.
    pub base_job: usize,
}

/// A [`SweepSpec`] unrolled into concrete work: one `(bench, config)`
/// pair per job — baselines included — and one [`SweepCell`] per
/// non-baseline cell, in render order.
#[derive(Debug, Clone)]
pub struct SweepPlan {
    /// Every job of the grid, in submission order: for each benchmark,
    /// for each geometry, the baseline job then one job per strategy.
    pub jobs: Vec<(String, SimConfig)>,
    /// The renderable cells, in table order.
    pub cells: Vec<SweepCell>,
}

impl SweepSpec {
    /// Checks the spec without expanding it.
    ///
    /// # Errors
    ///
    /// Returns the first [`SpecError`] found.
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.benches.is_empty() {
            return Err(SpecError::NoBenches);
        }
        if self.strategies.is_empty() {
            return Err(SpecError::NoStrategies);
        }
        if self.clusters.is_empty() {
            return Err(SpecError::NoClusters);
        }
        if self.topologies.is_empty() {
            return Err(SpecError::NoTopologies);
        }
        if let Some(&clusters) = self
            .clusters
            .iter()
            .find(|c| !(1..=MAX_CLUSTERS).contains(*c))
        {
            return Err(SpecError::BadClusterCount { clusters });
        }
        for (i, b) in self.benches.iter().enumerate() {
            if self.benches[..i].contains(b) {
                return Err(SpecError::DuplicateBench { bench: b.clone() });
            }
        }
        Ok(())
    }

    /// The full configuration of one cell: [`SimConfig::machine`]
    /// under the spec's budgets.
    pub fn cell_config(&self, strategy: Strategy, clusters: u8, topology: Topology) -> SimConfig {
        SimConfig {
            max_insts: self.insts,
            warmup_insts: self.warmup,
            ..SimConfig::machine(strategy, clusters, topology)
        }
    }

    /// Unrolls the grid: benchmarks outermost, then cluster counts,
    /// then topologies; within a geometry the baseline job comes first,
    /// then one job per strategy in spec order. This ordering is part
    /// of the output contract — tables render in it, and batched
    /// workers exploit it (consecutive jobs share a program, so one
    /// warmup checkpoint serves a whole run of cells).
    ///
    /// # Errors
    ///
    /// Returns the first [`SpecError`] [`validate`](SweepSpec::validate)
    /// finds.
    pub fn expand(&self) -> Result<SweepPlan, SpecError> {
        self.validate()?;
        let mut jobs: Vec<(String, SimConfig)> = Vec::new();
        let mut cells: Vec<SweepCell> = Vec::new();
        for bench in &self.benches {
            for &clusters in &self.clusters {
                for &topology in &self.topologies {
                    let base_job = jobs.len();
                    jobs.push((
                        bench.clone(),
                        self.cell_config(Strategy::Baseline, clusters, topology),
                    ));
                    for &s in &self.strategies {
                        cells.push(SweepCell {
                            bench: bench.clone(),
                            clusters,
                            topology,
                            job: jobs.len(),
                            base_job,
                        });
                        jobs.push((bench.clone(), self.cell_config(s, clusters, topology)));
                    }
                }
            }
        }
        Ok(SweepPlan { jobs, cells })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> SweepSpec {
        SweepSpec {
            benches: vec!["gzip".into(), "twolf".into()],
            strategies: vec![
                Strategy::Fdrt { pinning: true },
                Strategy::Friendly { middle_bias: false },
            ],
            clusters: vec![2, 4],
            topologies: vec![Topology::Linear],
            insts: 5_000,
            warmup: 1_000,
        }
    }

    #[test]
    fn expansion_order_is_bench_geometry_baseline_then_strategies() {
        let plan = tiny_spec().expand().unwrap();
        // 2 benches × 2 geometries × (1 base + 2 strategies) jobs.
        assert_eq!(plan.jobs.len(), 12);
        assert_eq!(plan.cells.len(), 8);
        assert_eq!(plan.jobs[0].0, "gzip");
        assert_eq!(plan.jobs[0].1.strategy, Strategy::Baseline);
        assert_eq!(plan.jobs[1].1.strategy, Strategy::Fdrt { pinning: true });
        // The second geometry's baseline follows the first's strategies.
        assert_eq!(plan.jobs[3].1.strategy, Strategy::Baseline);
        assert_eq!(plan.jobs[3].1.engine.geometry.clusters, 4);
        // Benches are outermost: jobs 6.. are twolf's.
        assert_eq!(plan.jobs[6].0, "twolf");
        // Every cell points at the baseline of its own geometry.
        for c in &plan.cells {
            let (base_bench, base_cfg) = &plan.jobs[c.base_job];
            assert_eq!(*base_bench, c.bench);
            assert_eq!(base_cfg.strategy, Strategy::Baseline);
            assert_eq!(base_cfg.engine.geometry.clusters, c.clusters);
            assert_eq!(base_cfg.engine.geometry.topology, c.topology);
        }
    }

    #[test]
    fn cell_config_scales_the_front_end_and_carries_warmup() {
        let spec = tiny_spec();
        let c = spec.cell_config(Strategy::Baseline, 2, Topology::Ring);
        let width = c.engine.geometry.total_slots();
        assert_eq!(c.engine.rename_width, width);
        assert_eq!(c.engine.retire_width, width);
        assert_eq!(c.engine.rob_entries, 8 * width);
        assert_eq!(c.warmup_insts, 1_000);
        assert_eq!(c.max_insts, 5_000);
    }

    #[test]
    fn validation_is_typed_and_first_error_wins() {
        let ok = SweepSpec::default();
        assert_eq!(ok.validate(), Ok(()));
        let mut s = ok.clone();
        s.benches.clear();
        assert_eq!(s.validate(), Err(SpecError::NoBenches));
        let mut s = ok.clone();
        s.strategies.clear();
        assert_eq!(s.validate(), Err(SpecError::NoStrategies));
        let mut s = ok.clone();
        s.clusters = vec![4, 9];
        assert_eq!(
            s.validate(),
            Err(SpecError::BadClusterCount { clusters: 9 })
        );
        let mut s = ok.clone();
        s.topologies.clear();
        assert_eq!(s.validate(), Err(SpecError::NoTopologies));
        let mut s = ok.clone();
        s.benches.push("bzip2".into());
        assert_eq!(
            s.validate(),
            Err(SpecError::DuplicateBench {
                bench: "bzip2".into()
            })
        );
        assert!(s.expand().is_err(), "expand validates first");
    }

    #[test]
    fn errors_render_like_config_errors() {
        assert_eq!(
            SpecError::BadClusterCount { clusters: 9 }.to_string(),
            "bad cluster count 9 (1..=8)"
        );
        assert_eq!(SpecError::NoBenches.to_string(), "sweep has no benchmarks");
    }
}
