//! The probe trait the pipeline reports into.
//!
//! Every hook has an empty default body, so a sink that observes
//! nothing ([`NullProbe`]) is a zero-sized type whose calls compile to
//! nothing. Components additionally cache `enabled()` at attach time so
//! the *off* path costs one branch per hook site, not a virtual call.

use crate::attrib::InstAttrib;
use crate::metrics::{Counter, Hist};

/// A sink for pipeline telemetry.
///
/// Methods take `&self`: implementations that accumulate (see
/// `Recorder`) use interior mutability, which lets one probe be shared
/// by the simulation front end and the execution engine without
/// threading `&mut` borrows through the pipeline.
pub trait Probe {
    /// Whether this probe wants any data at all. Components may skip
    /// hook sites (and any work to compute their arguments) when false.
    fn enabled(&self) -> bool {
        false
    }

    /// Adds `delta` to counter `c`.
    fn counter(&self, c: Counter, delta: u64) {
        let _ = (c, delta);
    }

    /// Records one histogram observation.
    fn observe(&self, h: Hist, value: u64) {
        let _ = (h, value);
    }

    /// Reports a fetch group of `size` instructions delivered at cycle
    /// `ts` from the trace cache (`from_tc`) or the icache.
    fn fetch_group(&self, ts: u64, pc: u64, size: u32, from_tc: bool) {
        let _ = (ts, pc, size, from_tc);
    }

    /// Reports one retired instruction: its stage timeline (rename,
    /// dispatch, issue, completion and retirement cycles) and the
    /// provenance of each source operand. The one per-retire hook.
    fn retire_attrib(&self, rec: &InstAttrib) {
        let _ = rec;
    }
}

/// The default sink: observes nothing, costs nothing.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullProbe;

impl Probe for NullProbe {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_probe_is_disabled_and_inert() {
        let p = NullProbe;
        assert!(!p.enabled());
        p.counter(Counter::Retired, 1);
        p.observe(Hist::TraceSize, 4);
        p.fetch_group(0, 0x40, 8, true);
        p.retire_attrib(&InstAttrib {
            seq: 1,
            pc: 0x40,
            cluster: 0,
            renamed_at: 1,
            dispatched_at: 2,
            exec_start: 3,
            complete_at: 4,
            retired_at: 5,
            srcs: [crate::attrib::SrcAttrib::default(); 2],
        });
    }
}
