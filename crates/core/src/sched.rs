//! Event-driven scheduling structures: the completion wheel and the
//! reservation stations' ready queues.
//!
//! Both exist to remove the per-cycle O(ROB) scans from the engine's
//! complete and select phases. A finish cycle is fixed the moment
//! execution begins, so completions live in a calendar queue
//! ([`CompletionWheel`]) and are popped exactly when due. A source's
//! arrival cycle is fixed the moment its last producer completes (or at
//! dispatch when nothing is outstanding), so selectable instructions
//! live in [`ReadyQueue`]s keyed by that cycle instead of being
//! re-polled with `readiness()` every cycle. [`Stations`] holds every
//! station's queue behind two bitmasks and the earliest pending
//! arrival, so select visits only stations with selectable work and
//! promotes only on cycles when some arrival is due.

/// Number of slots in the completion wheel. Must comfortably exceed the
/// longest single-instruction latency (worst case is a load that misses
/// to memory plus MSHR queueing, well under 200 cycles), so events
/// almost never sit more than one lap out.
const WHEEL_SLOTS: usize = 256;

/// A calendar queue of `(complete_cycle, seq)` events keyed by finish
/// cycle modulo [`WHEEL_SLOTS`]. Each slot holds the events for every
/// lap, with a residual check on drain, so multi-lap latencies are
/// correct (just slightly slower to pop).
pub(crate) struct CompletionWheel {
    slots: Vec<Vec<(u64, u64)>>,
    /// Last cycle fully drained; events are only scheduled after it.
    cursor: u64,
    len: usize,
}

impl CompletionWheel {
    #[cfg(test)]
    pub(crate) fn new() -> Self {
        CompletionWheel::from_slots(Vec::new())
    }

    /// An empty wheel built from recycled slot storage: each recycled
    /// slot vector is cleared (capacity kept) and the slot count is
    /// topped back up to [`WHEEL_SLOTS`].
    pub(crate) fn from_slots(mut slots: Vec<Vec<(u64, u64)>>) -> Self {
        for slot in &mut slots {
            slot.clear();
        }
        slots.resize_with(WHEEL_SLOTS, Vec::new);
        slots.truncate(WHEEL_SLOTS);
        CompletionWheel {
            slots,
            cursor: 0,
            len: 0,
        }
    }

    /// Tears the wheel down to its slot storage for arena recycling.
    pub(crate) fn into_slots(self) -> Vec<Vec<(u64, u64)>> {
        self.slots
    }

    /// Schedules `seq` to complete at `complete`, which must be in the
    /// future relative to the last `drain_into` call.
    pub(crate) fn schedule(&mut self, complete: u64, seq: u64) {
        debug_assert!(
            complete > self.cursor,
            "completion at {complete} scheduled after cycle {} was drained",
            self.cursor
        );
        self.slots[(complete as usize) % WHEEL_SLOTS].push((complete, seq));
        self.len += 1;
    }

    /// The earliest cycle with a scheduled completion, if any. Scans
    /// forward one lap from the cursor (the next completion is usually
    /// a few cycles out); a wheel holding only later-lap residents
    /// falls back to a pass over every slot.
    pub(crate) fn next_due(&self) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        for cycle in (self.cursor + 1)..=(self.cursor + WHEEL_SLOTS as u64) {
            let slot = &self.slots[(cycle as usize) % WHEEL_SLOTS];
            if slot.iter().any(|&(at, _)| at == cycle) {
                return Some(cycle);
            }
        }
        self.slots.iter().flatten().map(|&(at, _)| at).min()
    }

    /// Appends every event due in `(cursor, now]` to `out`, ordered by
    /// cycle (events within one cycle keep their scheduling order).
    pub(crate) fn drain_into(&mut self, now: u64, out: &mut Vec<(u64, u64)>) {
        if now <= self.cursor {
            return;
        }
        if self.len == 0 {
            self.cursor = now;
            return;
        }
        if now - self.cursor >= WHEEL_SLOTS as u64 {
            // Catch-up path for a caller that skipped far ahead: one pass
            // over every slot, then sort for a deterministic cycle order.
            let start = out.len();
            for slot in &mut self.slots {
                let mut keep = 0;
                for i in 0..slot.len() {
                    let ev = slot[i];
                    if ev.0 <= now {
                        out.push(ev);
                    } else {
                        slot[keep] = ev;
                        keep += 1;
                    }
                }
                slot.truncate(keep);
            }
            self.len -= out.len() - start;
            out[start..].sort_unstable();
            self.cursor = now;
            return;
        }
        for cycle in (self.cursor + 1)..=now {
            let slot = &mut self.slots[(cycle as usize) % WHEEL_SLOTS];
            if slot.is_empty() {
                continue;
            }
            // Residual entries from later laps stay; in-place compaction
            // avoids any per-cycle allocation.
            let mut keep = 0;
            for i in 0..slot.len() {
                let ev = slot[i];
                if ev.0 == cycle {
                    out.push(ev);
                    self.len -= 1;
                } else {
                    slot[keep] = ev;
                    keep += 1;
                }
            }
            slot.truncate(keep);
        }
        self.cursor = now;
    }
}

/// Instructions in one reservation station, partitioned by whether
/// their operands have arrived. `ready` is kept in ascending sequence
/// order so selection visits candidates in program order; `pending` is
/// ordered by `(ready_at, seq)` so promotion is a prefix drain.
#[derive(Debug, Default)]
pub(crate) struct ReadyQueue {
    /// Selectable now (operands arrived), ascending seq.
    ready: Vec<u64>,
    /// Operands arrive at a known future cycle, ascending `(at, seq)`.
    pending: Vec<(u64, u64)>,
}

impl ReadyQueue {
    /// Files `seq`, whose operands arrive at `ready_at`, under the
    /// current cycle `now`. Station residency is tracked separately by
    /// the engine's per-station counters — this queue only orders
    /// selectable work.
    pub(crate) fn push_at(&mut self, ready_at: u64, seq: u64, now: u64) {
        if ready_at <= now {
            let i = self.ready.partition_point(|&s| s < seq);
            self.ready.insert(i, seq);
        } else {
            let key = (ready_at, seq);
            let i = self.pending.partition_point(|&p| p < key);
            self.pending.insert(i, key);
        }
    }

    /// Moves every pending entry whose arrival cycle has come into the
    /// ready list. Returns `true` if any moved.
    pub(crate) fn promote(&mut self, now: u64) -> bool {
        let n = self.pending.partition_point(|&(at, _)| at <= now);
        for idx in 0..n {
            let seq = self.pending[idx].1;
            let i = self.ready.partition_point(|&s| s < seq);
            self.ready.insert(i, seq);
        }
        self.pending.drain(..n);
        n > 0
    }

    /// The earliest pending arrival, if any entry is pending.
    fn next_arrival(&self) -> Option<u64> {
        self.pending.first().map(|&(at, _)| at)
    }
}

/// Reservation stations per cluster (Figure 3).
pub(crate) const RS_PER_CLUSTER: usize = 5;

/// Every reservation station's [`ReadyQueue`], station `s` being
/// `cluster * RS_PER_CLUSTER + class`. Bit `s` of `ready` is set while
/// station `s` has selectable entries and bit `s` of `pending` while it
/// has entries waiting for an arrival. Ascending bit order is
/// cluster-then-station order, so select visits stations in that order
/// (and each station in program order) while skipping idle ones.
pub(crate) struct Stations {
    /// At least one queue per station; a recycled vector may hold more,
    /// which stay empty and keep their capacity for a wider machine.
    queues: Vec<ReadyQueue>,
    ready: u64,
    pending: u64,
    /// Earliest pending arrival over every station (`u64::MAX` when
    /// none pend): no promotion can happen before it.
    next_arrival: u64,
}

impl Stations {
    /// The stations of `clusters` clusters, built from recycled queues
    /// (cleared here, capacity kept).
    pub(crate) fn from_queues(clusters: usize, mut queues: Vec<ReadyQueue>) -> Self {
        let count = clusters * RS_PER_CLUSTER;
        assert!(count <= 64, "station bitmasks hold at most 64 stations");
        for q in &mut queues {
            q.ready.clear();
            q.pending.clear();
        }
        if queues.len() < count {
            queues.resize_with(count, ReadyQueue::default);
        }
        Stations {
            queues,
            ready: 0,
            pending: 0,
            next_arrival: u64::MAX,
        }
    }

    /// Tears the stations down to their queues for arena recycling.
    pub(crate) fn into_queues(self) -> Vec<ReadyQueue> {
        self.queues
    }

    /// True while some station of `cluster` has selectable entries.
    pub(crate) fn cluster_has_ready(&self, cluster: usize) -> bool {
        let bits = (1u64 << RS_PER_CLUSTER) - 1;
        (self.ready >> (cluster * RS_PER_CLUSTER)) & bits != 0
    }

    /// Files `seq`, whose operands arrive at `ready_at`, in station `s`
    /// at cycle `now`.
    pub(crate) fn file(&mut self, s: usize, ready_at: u64, seq: u64, now: u64) {
        self.queues[s].push_at(ready_at, seq, now);
        if ready_at <= now {
            self.ready |= 1 << s;
        } else {
            self.pending |= 1 << s;
            self.next_arrival = self.next_arrival.min(ready_at);
        }
    }

    /// Promotes every arrival due by `now`. Costs one comparison on a
    /// cycle before the earliest pending arrival; otherwise visits only
    /// the stations with pending entries.
    pub(crate) fn promote_due(&mut self, now: u64) {
        if now < self.next_arrival {
            return;
        }
        let mut next = u64::MAX;
        let mut mask = self.pending;
        while mask != 0 {
            let s = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            let q = &mut self.queues[s];
            if q.promote(now) {
                self.ready |= 1 << s;
            }
            match q.next_arrival() {
                Some(at) => next = next.min(at),
                None => self.pending &= !(1 << s),
            }
        }
        self.next_arrival = next;
    }

    /// Stations with selectable entries, one bit each.
    pub(crate) fn ready_mask(&self) -> u64 {
        self.ready
    }

    /// The earliest pending arrival (`u64::MAX` when none pend).
    pub(crate) fn next_arrival(&self) -> u64 {
        self.next_arrival
    }

    /// Lends station `s`'s ready list to select, which hands what is
    /// left back through [`Stations::put_ready`].
    pub(crate) fn take_ready(&mut self, s: usize) -> Vec<u64> {
        std::mem::take(&mut self.queues[s].ready)
    }

    /// Returns station `s`'s ready list after select.
    pub(crate) fn put_ready(&mut self, s: usize, ready: Vec<u64>) {
        if ready.is_empty() {
            self.ready &= !(1 << s);
        }
        self.queues[s].ready = ready;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wheel_pops_exactly_whats_due_in_order() {
        let mut w = CompletionWheel::new();
        w.schedule(3, 30);
        w.schedule(1, 10);
        w.schedule(2, 20);
        w.schedule(1, 11);
        let mut out = Vec::new();
        w.drain_into(2, &mut out);
        assert_eq!(out, vec![(1, 10), (1, 11), (2, 20)]);
        out.clear();
        w.drain_into(2, &mut out);
        assert!(out.is_empty(), "re-draining the same cycle yields nothing");
        w.drain_into(3, &mut out);
        assert_eq!(out, vec![(3, 30)]);
    }

    #[test]
    fn wheel_keeps_multi_lap_residents() {
        let mut w = CompletionWheel::new();
        let far = 5 + WHEEL_SLOTS as u64; // same slot as cycle 5, next lap
        w.schedule(far, 99);
        w.schedule(5, 1);
        let mut out = Vec::new();
        w.drain_into(5, &mut out);
        assert_eq!(out, vec![(5, 1)]);
        out.clear();
        w.drain_into(far - 1, &mut out);
        assert!(out.is_empty());
        w.drain_into(far, &mut out);
        assert_eq!(out, vec![(far, 99)]);
    }

    #[test]
    fn wheel_catch_up_path_sorts_by_cycle() {
        let mut w = CompletionWheel::new();
        w.schedule(300, 3);
        w.schedule(7, 7);
        w.schedule(150, 1);
        let mut out = Vec::new();
        // Jump well past a full lap in one call.
        w.drain_into(1000, &mut out);
        assert_eq!(out, vec![(7, 7), (150, 1), (300, 3)]);
    }

    #[test]
    fn ready_queue_promotes_in_seq_order() {
        let mut q = ReadyQueue::default();
        q.push_at(5, 42, 0); // future -> pending
        q.push_at(0, 7, 0); // already ready
        q.push_at(5, 13, 0);
        q.push_at(3, 99, 0);
        assert_eq!(q.ready, vec![7]);
        assert!(q.promote(4));
        assert_eq!(q.ready, vec![7, 99]);
        assert!(!q.promote(4), "nothing more is due at 4");
        assert!(q.promote(5));
        assert_eq!(q.ready, vec![7, 13, 42, 99]);
    }

    #[test]
    fn wheel_names_its_next_completion() {
        let mut w = CompletionWheel::new();
        assert_eq!(w.next_due(), None);
        let far = 9 + WHEEL_SLOTS as u64; // shares cycle 9's slot
        w.schedule(far, 1);
        assert_eq!(w.next_due(), Some(far), "later-lap residents are found");
        w.schedule(9, 2);
        w.schedule(40, 3);
        assert_eq!(w.next_due(), Some(9));
        let mut out = Vec::new();
        w.drain_into(9, &mut out);
        assert_eq!(w.next_due(), Some(40));
        w.drain_into(40, &mut out);
        assert_eq!(w.next_due(), Some(far));
    }

    #[test]
    fn stations_track_ready_and_pending_bits() {
        let mut st = Stations::from_queues(2, Vec::new());
        st.file(7, 3, 70, 0); // cluster 1, station 2: pending until 3
        st.file(1, 0, 10, 0); // cluster 0, station 1: ready now
        assert_eq!(st.ready_mask(), 1 << 1);
        assert_eq!(st.next_arrival(), 3);
        st.promote_due(2);
        assert_eq!(st.ready_mask(), 1 << 1, "nothing is due before 3");
        st.promote_due(3);
        assert_eq!(st.ready_mask(), (1 << 1) | (1 << 7));
        assert!(st.cluster_has_ready(0) && st.cluster_has_ready(1));
        assert_eq!(st.next_arrival(), u64::MAX);
        let mut ready = st.take_ready(7);
        assert_eq!(ready, vec![70]);
        ready.clear();
        st.put_ready(7, ready);
        assert_eq!(st.ready_mask(), 1 << 1);
        assert!(!st.cluster_has_ready(1));
        // Recycled for a narrower machine, every queue is kept (and
        // emptied) for the next wide one.
        let narrow = Stations::from_queues(1, st.into_queues());
        assert_eq!(narrow.ready_mask(), 0);
        let queues = narrow.into_queues();
        assert_eq!(queues.len(), 10);
        assert!(queues
            .iter()
            .all(|q| q.ready.is_empty() && q.pending.is_empty()));
    }
}
