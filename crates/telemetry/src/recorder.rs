//! The pipeline recorder: the one sink the simulator reports into.

use crate::attrib::{InstAttrib, SrcKind};
use crate::event::{EventRing, FlowEvent, PipeStage, SpanEvent, FETCH_LANE};
use crate::metrics::{Counter, Hist, Metrics};
use std::cell::RefCell;

/// Capture settings for a [`Recorder`].
#[derive(Debug, Clone, Copy)]
pub struct RecorderConfig {
    /// Maximum events the ring holds; older events are overwritten.
    pub event_capacity: usize,
    /// Record the timeline of every `sample_every`-th retired
    /// instruction (1 = all). 0 disables the event trace entirely and
    /// keeps only metrics — the right mode for long sweeps.
    pub sample_every: u64,
}

impl Default for RecorderConfig {
    fn default() -> RecorderConfig {
        RecorderConfig {
            event_capacity: 1 << 16,
            sample_every: 1,
        }
    }
}

impl RecorderConfig {
    /// A metrics-only configuration: no event ring, no sampling.
    pub fn metrics_only() -> RecorderConfig {
        RecorderConfig {
            event_capacity: 0,
            sample_every: 0,
        }
    }
}

struct Inner {
    metrics: Metrics,
    ring: EventRing,
    sample_every: u64,
    flows: Vec<FlowEvent>,
    next_flow_id: u64,
}

/// Accumulates metrics and a ring-buffered event trace from the
/// pipeline's hooks ([`counter`](Self::counter),
/// [`observe`](Self::observe), [`fetch_group`](Self::fetch_group) and
/// [`retire_attrib`](Self::retire_attrib)). Interior mutability (a
/// `RefCell`) lets one `Rc<Recorder>` be shared by the simulation front
/// end and the execution engine without threading `&mut` borrows
/// through the pipeline; simulations are single-threaded, so the borrow
/// is never contended.
pub struct Recorder {
    inner: RefCell<Inner>,
}

impl Recorder {
    /// A recorder with the given capture settings.
    pub fn new(cfg: RecorderConfig) -> Recorder {
        Recorder {
            inner: RefCell::new(Inner {
                metrics: Metrics::new(),
                ring: EventRing::new(cfg.event_capacity),
                sample_every: cfg.sample_every,
                flows: Vec::new(),
                next_flow_id: 0,
            }),
        }
    }

    /// Snapshot of the accumulated metrics. The events-dropped counter
    /// is folded in at snapshot time so exported counters always agree
    /// with the exported event set.
    pub fn metrics(&self) -> Metrics {
        let inner = self.inner.borrow();
        let mut m = inner.metrics.clone();
        let already = m.get(Counter::EventsDropped);
        m.add(
            Counter::EventsDropped,
            inner.ring.dropped().saturating_sub(already),
        );
        m
    }

    /// The recorded events, oldest first.
    pub fn events(&self) -> Vec<SpanEvent> {
        self.inner.borrow().ring.to_vec()
    }

    /// Events lost to ring overwriting.
    pub fn dropped_events(&self) -> u64 {
        self.inner.borrow().ring.dropped()
    }

    /// Inter-cluster forward flows derived from sampled instructions,
    /// for Chrome-trace export.
    pub fn flows(&self) -> Vec<FlowEvent> {
        self.inner.borrow().flows.clone()
    }

    /// Adds `delta` to counter `c`.
    pub fn counter(&self, c: Counter, delta: u64) {
        self.inner.borrow_mut().metrics.add(c, delta);
    }

    /// Records one histogram observation.
    pub fn observe(&self, h: Hist, value: u64) {
        self.inner.borrow_mut().metrics.observe(h, value);
    }

    /// Reports a fetch group of `size` instructions delivered at cycle
    /// `ts` from the trace cache (`from_tc`) or the icache.
    pub fn fetch_group(&self, ts: u64, pc: u64, size: u32, from_tc: bool) {
        let mut inner = self.inner.borrow_mut();
        inner.metrics.add(Counter::FetchGroups, 1);
        if inner.sample_every == 0 {
            return;
        }
        inner.metrics.add(Counter::EventsSampled, 1);
        inner.ring.push(SpanEvent {
            ts,
            dur: 1,
            stage: PipeStage::Fetch,
            // Fetch groups predate renaming; encode the source and the
            // group size in the seq field's absence (args carry them).
            seq: u64::from(size),
            pc,
            cluster: if from_tc { FETCH_LANE } else { FETCH_LANE - 1 },
        });
    }

    /// Reports one retired instruction: its stage timeline (rename,
    /// dispatch, issue, completion and retirement cycles) and the
    /// provenance of each source operand. The one per-retire hook.
    pub fn retire_attrib(&self, rec: &InstAttrib) {
        let mut inner = self.inner.borrow_mut();
        if inner.sample_every == 0 || !rec.seq.is_multiple_of(inner.sample_every) {
            return;
        }
        // A sampled instruction becomes four stage spans ...
        let spans = [
            (PipeStage::Dispatch, rec.renamed_at, rec.dispatched_at),
            (PipeStage::Issue, rec.dispatched_at, rec.exec_start),
            (PipeStage::Execute, rec.exec_start, rec.complete_at),
            (PipeStage::Retire, rec.complete_at, rec.retired_at),
        ];
        for (stage, start, end) in spans {
            inner.metrics.add(Counter::EventsSampled, 1);
            inner.ring.push(SpanEvent {
                ts: start,
                dur: end.saturating_sub(start),
                stage,
                seq: rec.seq,
                pc: rec.pc,
                cluster: rec.cluster,
            });
        }
        // ... plus one flow arrow per forwarded (cross-cluster) source.
        for src in rec.srcs {
            if src.kind != SrcKind::Forward {
                continue;
            }
            let id = inner.next_flow_id;
            inner.next_flow_id += 1;
            inner.flows.push(FlowEvent {
                id,
                from_ts: src.complete,
                from_cluster: src.producer_cluster,
                to_ts: src.arrival.max(src.complete),
                to_cluster: rec.cluster,
                seq: rec.seq,
                pc: rec.pc,
            });
        }
    }
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder::new(RecorderConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::attrib::SrcAttrib;

    fn retired(seq: u64) -> InstAttrib {
        InstAttrib {
            seq,
            pc: 0x100 + seq * 4,
            cluster: (seq % 4) as u8,
            renamed_at: seq,
            dispatched_at: seq + 1,
            exec_start: seq + 3,
            complete_at: seq + 5,
            retired_at: seq + 8,
            srcs: [SrcAttrib::default(); 2],
        }
    }

    #[test]
    fn a_retired_instruction_expands_to_four_spans() {
        let r = Recorder::default();
        r.retire_attrib(&retired(1));
        let evs = r.events();
        assert_eq!(evs.len(), 4);
        assert_eq!(evs[0].stage, PipeStage::Dispatch);
        assert_eq!(evs[2].stage, PipeStage::Execute);
        assert_eq!(evs[2].ts, 4);
        assert_eq!(evs[2].dur, 2);
        assert_eq!(r.metrics().get(Counter::EventsSampled), 4);
    }

    #[test]
    fn sampling_keeps_every_nth_instruction() {
        let r = Recorder::new(RecorderConfig {
            event_capacity: 1024,
            sample_every: 10,
        });
        for seq in 1..=100 {
            r.retire_attrib(&retired(seq));
        }
        // seq 10, 20, ..., 100 → 10 instructions × 4 spans.
        assert_eq!(r.events().len(), 40);
    }

    #[test]
    fn metrics_only_mode_records_no_events() {
        let r = Recorder::new(RecorderConfig::metrics_only());
        r.retire_attrib(&retired(1));
        r.fetch_group(0, 0x40, 8, true);
        assert!(r.events().is_empty());
        assert_eq!(r.metrics().get(Counter::EventsSampled), 0);
        assert_eq!(r.metrics().get(Counter::FetchGroups), 1);
    }

    #[test]
    fn sampled_forward_sources_become_flows() {
        let r = Recorder::default(); // sample_every = 1
        r.retire_attrib(&InstAttrib {
            seq: 4,
            pc: 0x200,
            cluster: 3,
            renamed_at: 1,
            dispatched_at: 2,
            exec_start: 12,
            complete_at: 13,
            retired_at: 15,
            srcs: [
                SrcAttrib {
                    kind: SrcKind::Forward,
                    producer_cluster: 0,
                    complete: 5,
                    arrival: 11,
                },
                SrcAttrib {
                    kind: SrcKind::Bypass,
                    producer_cluster: 3,
                    complete: 9,
                    arrival: 9,
                },
            ],
        });
        let flows = r.flows();
        assert_eq!(flows.len(), 1, "only the cross-cluster source flows");
        assert_eq!(flows[0].from_cluster, 0);
        assert_eq!(flows[0].to_cluster, 3);
        assert_eq!(flows[0].from_ts, 5);
        assert_eq!(flows[0].to_ts, 11);
        assert_eq!(flows[0].seq, 4);
        // The same record also yielded the instruction's four spans.
        assert_eq!(r.events().len(), 4);
        // An unsampled instruction yields neither spans nor flows.
        let sparse = Recorder::new(RecorderConfig {
            event_capacity: 16,
            sample_every: 8,
        });
        sparse.retire_attrib(&InstAttrib {
            srcs: [flows_src(), SrcAttrib::default()],
            ..retired(3)
        });
        assert!(sparse.events().is_empty());
        assert!(sparse.flows().is_empty());
    }

    fn flows_src() -> SrcAttrib {
        SrcAttrib {
            kind: SrcKind::Forward,
            producer_cluster: 0,
            complete: 2,
            arrival: 3,
        }
    }

    #[test]
    fn dropped_counter_matches_ring_after_snapshot() {
        let r = Recorder::new(RecorderConfig {
            event_capacity: 4,
            sample_every: 1,
        });
        for seq in 1..=3 {
            r.retire_attrib(&retired(seq)); // 12 spans into a 4-slot ring
        }
        assert_eq!(r.dropped_events(), 8);
        assert_eq!(r.metrics().get(Counter::EventsDropped), 8);
        // Snapshot twice: the fold-in must not double count.
        assert_eq!(r.metrics().get(Counter::EventsDropped), 8);
    }
}
