//! # The whole-processor CTCP simulator
//!
//! Wires the front-end (branch predictor, BTB, RAS, instruction cache),
//! the trace cache and fill unit, the clustered out-of-order engine, and
//! the data memory system into a cycle-level model of the paper's
//! baseline architecture (Table 7), then exposes an experiment API used
//! by every table and figure reproduction.
//!
//! Simulations are constructed through the validating
//! [`SimBuilder`] (see [`Simulation::builder`]); attach a
//! [`ctcp_telemetry::Recorder`] via [`SimBuilder::recorder`] to capture
//! pipeline events and metrics, or turn on [`SimBuilder::attrib`] for a
//! CPI stack and critical-path summary in the report — neither
//! perturbs the simulation.
//!
//! ## Example
//!
//! ```
//! use ctcp_sim::{Simulation, Strategy};
//! use ctcp_workload::Benchmark;
//!
//! let program = Benchmark::by_name("gzip").unwrap().program();
//! let report = Simulation::builder(&program)
//!     .strategy(Strategy::Fdrt { pinning: true })
//!     .max_insts(20_000)
//!     .build()
//!     .unwrap()
//!     .run();
//! assert!(report.ipc > 0.1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod builder;
mod checkpoint;
mod codec;
mod config;
mod error;
mod processor;
mod report;
mod stream;

pub use batch::{BatchError, BatchRunner};
pub use builder::{ConfigError, SimBuilder, MAX_CLUSTERS};
pub use checkpoint::{Checkpoint, CheckpointCache};
pub use config::{SimConfig, Strategy};
/// Interconnect topology, re-exported so sweep descriptions (e.g. the
/// harness's `SweepSpec`) can name it without a `ctcp-core` dependency.
pub use ctcp_core::Topology;
/// Pipeline snapshot carried by watchdog errors, re-exported so callers
/// matching on [`SimError`] need not depend on `ctcp-core` directly.
pub use ctcp_core::{ClusterOccupancy, PipelineDiagnostic};
/// JSON support re-exported from the telemetry crate (it moved there so
/// exporters and the result store share one implementation).
pub use ctcp_telemetry::json;
pub use error::SimError;
pub use processor::{Simulation, DEFAULT_WATCHDOG_STALL_LIMIT};
pub use report::{harmonic_mean, MetricsSnapshot, SimReport};
