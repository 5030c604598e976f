//! Pipeline events and the preallocated ring that stores them.
//!
//! The hot loop never allocates: the ring's backing vector is sized
//! once at construction, and a full ring overwrites its oldest entry
//! (counting the loss) rather than growing.

/// One pipeline stage, as seen by the event trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipeStage {
    /// A fetch group left the front end (trace cache or icache).
    Fetch,
    /// Rename accepted the instruction; it waits for a dispatch port.
    Dispatch,
    /// The instruction sat in a reservation station awaiting operands.
    Issue,
    /// The functional unit executed the instruction.
    Execute,
    /// The instruction completed and waited for in-order retirement.
    Retire,
}

impl PipeStage {
    /// The stable lowercase name used by exporters.
    pub fn name(self) -> &'static str {
        match self {
            PipeStage::Fetch => "fetch",
            PipeStage::Dispatch => "dispatch",
            PipeStage::Issue => "issue",
            PipeStage::Execute => "execute",
            PipeStage::Retire => "retire",
        }
    }
}

/// One time span in the pipeline: stage `stage` of instruction `seq`
/// occupied cycles `[ts, ts + dur)` on cluster `cluster`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    /// Start cycle.
    pub ts: u64,
    /// Duration in cycles (0 for instantaneous stages).
    pub dur: u64,
    /// Which stage this span covers.
    pub stage: PipeStage,
    /// Retirement sequence number (0 for fetch-group events).
    pub seq: u64,
    /// Program counter.
    pub pc: u64,
    /// Executing cluster, or [`FETCH_LANE`] for front-end events.
    pub cluster: u8,
}

/// The `cluster` tag used for front-end (fetch) events, which are not
/// bound to any execution cluster.
pub const FETCH_LANE: u8 = u8::MAX;

/// One inter-cluster operand forward, rendered into Chrome traces as a
/// flow (`"s"`/`"f"`) arrow from the producer's completion on its
/// cluster lane to the value's arrival on the consumer's lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowEvent {
    /// Unique flow id within one trace file.
    pub id: u64,
    /// Cycle the producer's result completed (arrow tail).
    pub from_ts: u64,
    /// Cluster the producer executed on.
    pub from_cluster: u8,
    /// Cycle the value arrived at the consumer's cluster (arrow head).
    pub to_ts: u64,
    /// Cluster the consumer executed on.
    pub to_cluster: u8,
    /// The consumer's sequence number (ties the arrow to its spans).
    pub seq: u64,
    /// The consumer's program counter.
    pub pc: u64,
}

/// A fixed-capacity overwrite-oldest ring of [`SpanEvent`]s.
#[derive(Debug)]
pub struct EventRing {
    buf: Vec<SpanEvent>,
    cap: usize,
    /// Next write slot once the ring has wrapped.
    next: usize,
    dropped: u64,
}

impl EventRing {
    /// A ring holding at most `capacity` events. The backing storage is
    /// reserved up front; a zero capacity ring discards everything.
    pub fn new(capacity: usize) -> EventRing {
        EventRing {
            buf: Vec::with_capacity(capacity),
            cap: capacity,
            next: 0,
            dropped: 0,
        }
    }

    /// Records `ev`, overwriting the oldest event when full.
    pub fn push(&mut self, ev: SpanEvent) {
        if self.cap == 0 {
            self.dropped += 1;
            return;
        }
        if self.buf.len() < self.cap {
            self.buf.push(ev);
        } else {
            self.buf[self.next] = ev;
            self.next = (self.next + 1) % self.cap;
            self.dropped += 1;
        }
    }

    /// Events currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when no events are held.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events lost to overwriting (or to a zero-capacity ring).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The held events, oldest first.
    pub fn to_vec(&self) -> Vec<SpanEvent> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.next..]);
        out.extend_from_slice(&self.buf[..self.next]);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ts: u64) -> SpanEvent {
        SpanEvent {
            ts,
            dur: 1,
            stage: PipeStage::Execute,
            seq: ts,
            pc: 0x40,
            cluster: 0,
        }
    }

    #[test]
    fn ring_keeps_newest_and_counts_drops() {
        let mut r = EventRing::new(3);
        for t in 0..5 {
            r.push(ev(t));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 2);
        let ts: Vec<u64> = r.to_vec().iter().map(|e| e.ts).collect();
        assert_eq!(ts, vec![2, 3, 4]);
    }

    #[test]
    fn ring_under_capacity_is_in_order() {
        let mut r = EventRing::new(8);
        for t in 0..4 {
            r.push(ev(t));
        }
        assert_eq!(r.dropped(), 0);
        let ts: Vec<u64> = r.to_vec().iter().map(|e| e.ts).collect();
        assert_eq!(ts, vec![0, 1, 2, 3]);
    }

    #[test]
    fn zero_capacity_ring_discards_everything() {
        let mut r = EventRing::new(0);
        r.push(ev(1));
        assert!(r.is_empty());
        assert_eq!(r.dropped(), 1);
        assert!(r.to_vec().is_empty());
    }
}
