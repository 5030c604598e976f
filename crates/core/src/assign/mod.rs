//! Dynamic cluster-assignment strategies (the paper's §2.3 and §4).
//!
//! Two families exist:
//!
//! * **Issue-time** steering is built into the engine
//!   ([`crate::engine::SteeringMode::IssueTime`]): instructions are sent to
//!   the cluster where one of their inputs is generated, at a configurable
//!   extra pipeline latency.
//! * **Retire-time** strategies run in the fill unit: they choose a
//!   *physical placement* of each trace's instructions into issue slots,
//!   so that slot-based steering delivers every instruction to the desired
//!   cluster with zero issue-time latency. This module implements the
//!   baseline (identity), Friendly et al.'s intra-trace reordering, and
//!   the proposed FDRT strategy.

mod baseline;
mod fdrt;
mod friendly;

pub use baseline::baseline_placement;
pub use fdrt::{ChainStore, FdrtAssigner, FdrtConfig, FdrtStats, MapChainStore};
pub use friendly::{friendly_placement, SlotFillOrder};

use crate::geometry::GeometryTables;
use crate::ClusterGeometry;
use ctcp_tracecache::RawTrace;

/// Working storage a placement reuses from one trace to the next: the
/// geometry's lookup tables (rebuilt only when the geometry changes) and
/// the per-trace lists, cleared and refilled per trace. A strategy that
/// keeps one places every trace without allocating.
#[derive(Debug, Default)]
pub(crate) struct PlaceScratch {
    tables: Option<GeometryTables>,
    lists: Lists,
}

/// The per-trace lists of [`PlaceScratch`].
#[derive(Debug, Default)]
struct Lists {
    cluster_of: Vec<Option<u8>>,
    unplaced: Vec<usize>,
    skipped: Vec<usize>,
    slot_used: Vec<bool>,
    next_in_cluster: Vec<usize>,
    counts: Vec<u8>,
    prio: Vec<u8>,
    by_load: Vec<u8>,
}

impl PlaceScratch {
    /// The tables for `geom` and the lists, borrowed together.
    fn split(&mut self, geom: &ClusterGeometry) -> (&GeometryTables, &mut Lists) {
        if self.tables.as_ref().is_none_or(|t| t.geometry() != geom) {
            self.tables = Some(GeometryTables::new(*geom));
        }
        (self.tables.as_ref().expect("built above"), &mut self.lists)
    }
}

#[derive(Debug)]
enum Kind {
    Baseline,
    Friendly(SlotFillOrder),
    Fdrt(FdrtAssigner),
}

/// A retire-time placement strategy: maps each logical instruction of a
/// trace to a physical issue slot.
#[derive(Debug)]
pub struct RetireTimeStrategy {
    kind: Kind,
    scratch: PlaceScratch,
}

impl RetireTimeStrategy {
    /// Physical order = logical order (the base architecture).
    pub fn baseline() -> Self {
        Self::of(Kind::Baseline)
    }

    /// Friendly et al.'s intra-trace dependency reordering.
    pub fn friendly(order: SlotFillOrder) -> Self {
        Self::of(Kind::Friendly(order))
    }

    /// The proposed feedback-directed retire-time strategy.
    pub fn fdrt(assigner: FdrtAssigner) -> Self {
        Self::of(Kind::Fdrt(assigner))
    }

    fn of(kind: Kind) -> Self {
        RetireTimeStrategy {
            kind,
            scratch: PlaceScratch::default(),
        }
    }

    /// Computes the placement for `trace`; FDRT additionally updates chain
    /// state through `store`.
    pub fn assign(
        &mut self,
        trace: &mut RawTrace,
        geom: &ClusterGeometry,
        store: &mut dyn ChainStore,
    ) -> Vec<u8> {
        let mut placement = Vec::new();
        self.assign_into(trace, geom, store, &mut placement);
        placement
    }

    /// [`assign`](Self::assign) into the caller's `placement` (cleared
    /// first): with a buffer kept across traces, placing allocates
    /// nothing.
    pub fn assign_into(
        &mut self,
        trace: &mut RawTrace,
        geom: &ClusterGeometry,
        store: &mut dyn ChainStore,
        placement: &mut Vec<u8>,
    ) {
        placement.clear();
        match &mut self.kind {
            Kind::Baseline => placement.extend(0..trace.len() as u8),
            Kind::Friendly(order) => {
                let (tables, lists) = self.scratch.split(geom);
                friendly::place(trace, tables, *order, lists, placement);
            }
            Kind::Fdrt(a) => a.assign_into(trace, geom, store, &mut self.scratch, placement),
        }
    }

    /// FDRT statistics, if this is the FDRT strategy.
    pub fn fdrt_stats(&self) -> Option<&FdrtStats> {
        match &self.kind {
            Kind::Fdrt(a) => Some(a.stats()),
            _ => None,
        }
    }
}
