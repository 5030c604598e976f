//! Store buffer with store-to-load forwarding.

use std::collections::VecDeque;

/// Result of checking a load against the store buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreForward {
    /// No older store to the same word: the load goes to the cache.
    None,
    /// An older store to the same word provides the data directly.
    Forwarded {
        /// Sequence number of the forwarding store.
        store_seq: u64,
    },
}

#[derive(Debug, Clone, Copy)]
struct StoreEntry {
    seq: u64,
    addr: u64,
    /// Store has left the buffer logically but is draining to the cache.
    retired: bool,
}

/// A FIFO store buffer (default 32 entries, per Table 7) holding stores
/// from execute until they drain to the data cache after retirement.
/// Stores enter as they execute, which is out of program order, and
/// drain from the front once retired. Loads probe it for store-to-load
/// forwarding from *older* stores to the same 8-byte word.
#[derive(Debug, Clone)]
pub struct StoreBuffer {
    capacity: usize,
    entries: VecDeque<StoreEntry>,
}

impl StoreBuffer {
    /// Creates an empty buffer with room for `capacity` stores.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        StoreBuffer {
            capacity,
            entries: VecDeque::new(),
        }
    }

    /// True while the buffer holds fewer stores than its capacity.
    pub fn has_room(&self) -> bool {
        self.entries.len() < self.capacity
    }

    /// True if a store may be inserted now: while there is room, and on
    /// a full buffer for the oldest store in flight when the front entry
    /// has not retired. That front entry drains first and belongs to a
    /// younger store, which cannot retire before the oldest one does, so
    /// refusing the oldest would wedge the pipeline for good.
    pub fn admits(&self, oldest_in_flight: bool) -> bool {
        self.has_room() || (oldest_in_flight && self.entries.front().is_some_and(|e| !e.retired))
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no stores are buffered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Inserts a store (identified by its global sequence number) once its
    /// address is known. The caller checks [`admits`](Self::admits) first.
    pub fn insert(&mut self, seq: u64, addr: u64) {
        self.entries.push_back(StoreEntry {
            seq,
            addr: addr & !7,
            retired: false,
        });
    }

    /// Checks whether a load with sequence `load_seq` to `addr` can forward
    /// from an older buffered store to the same word. The youngest such
    /// store wins. (Stores enter the buffer at execute time, which is out
    /// of order, so age must be compared by sequence number rather than
    /// buffer position.)
    pub fn check_load(&self, load_seq: u64, addr: u64) -> StoreForward {
        let addr = addr & !7;
        self.entries
            .iter()
            .filter(|e| e.seq < load_seq && e.addr == addr)
            .max_by_key(|e| e.seq)
            .map_or(StoreForward::None, |e| StoreForward::Forwarded {
                store_seq: e.seq,
            })
    }

    /// Marks the store with sequence `seq` as retired (eligible to drain).
    pub fn mark_retired(&mut self, seq: u64) {
        if let Some(e) = self.entries.iter_mut().find(|e| e.seq == seq) {
            e.retired = true;
        }
    }

    /// Drains up to `max` retired stores from the head of the buffer into
    /// `out` (cleared first) as their addresses, which the caller writes
    /// to the cache. A caller that keeps one `out` never allocates.
    pub fn drain_retired_into(&mut self, max: usize, out: &mut Vec<u64>) {
        out.clear();
        while out.len() < max {
            match self.entries.front() {
                Some(e) if e.retired => {
                    out.push(e.addr);
                    self.entries.pop_front();
                }
                _ => break,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forwarding_from_older_store() {
        let mut sb = StoreBuffer::new(4);
        sb.insert(10, 0x1000);
        assert_eq!(
            sb.check_load(20, 0x1000),
            StoreForward::Forwarded { store_seq: 10 }
        );
    }

    #[test]
    fn no_forwarding_from_younger_store() {
        let mut sb = StoreBuffer::new(4);
        sb.insert(30, 0x1000);
        assert_eq!(sb.check_load(20, 0x1000), StoreForward::None);
    }

    #[test]
    fn youngest_older_store_wins() {
        let mut sb = StoreBuffer::new(4);
        sb.insert(10, 0x1000);
        sb.insert(15, 0x1000);
        assert_eq!(
            sb.check_load(20, 0x1000),
            StoreForward::Forwarded { store_seq: 15 }
        );
    }

    #[test]
    fn word_granularity() {
        let mut sb = StoreBuffer::new(4);
        sb.insert(10, 0x1000);
        // Same word, different byte offset.
        assert!(matches!(
            sb.check_load(20, 0x1004),
            StoreForward::Forwarded { .. }
        ));
        // Different word.
        assert_eq!(sb.check_load(20, 0x1008), StoreForward::None);
    }

    #[test]
    fn capacity_is_enforced() {
        let mut sb = StoreBuffer::new(2);
        assert!(sb.admits(false));
        sb.insert(1, 0);
        sb.insert(2, 8);
        assert!(!sb.has_room());
        assert!(!sb.admits(false));
    }

    #[test]
    fn a_full_buffer_admits_the_oldest_store_only_behind_an_unretired_front() {
        let mut sb = StoreBuffer::new(2);
        // Stores 9 and 8 executed ahead of the oldest in flight, 5.
        sb.insert(9, 0);
        sb.insert(8, 8);
        assert!(sb.admits(true), "nothing can drain before store 5 retires");
        assert!(!sb.admits(false), "a younger store waits");
        sb.insert(5, 16);
        assert_eq!(sb.len(), 3);
        // A retired front drains on its own: everyone waits for it.
        let mut sb = StoreBuffer::new(1);
        sb.insert(1, 0);
        sb.mark_retired(1);
        assert!(!sb.admits(true));
    }

    #[test]
    fn drain_respects_retirement_and_order() {
        let mut sb = StoreBuffer::new(4);
        sb.insert(1, 0x10);
        sb.insert(2, 0x20);
        sb.insert(3, 0x30);
        sb.mark_retired(1);
        sb.mark_retired(3);
        let mut out = vec![0xdead];
        // Only the head run of retired stores drains.
        sb.drain_retired_into(4, &mut out);
        assert_eq!(out, vec![0x10]);
        sb.mark_retired(2);
        sb.drain_retired_into(1, &mut out);
        assert_eq!(out, vec![0x20]);
        sb.drain_retired_into(4, &mut out);
        assert_eq!(out, vec![0x30]);
        assert!(sb.is_empty());
    }
}
