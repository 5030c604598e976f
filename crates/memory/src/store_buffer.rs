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
/// from dispatch until they drain to the data cache after retirement.
/// Loads probe it for store-to-load forwarding from *older* stores to the
/// same 8-byte word.
#[derive(Debug, Clone)]
pub struct StoreBuffer {
    capacity: usize,
    entries: VecDeque<StoreEntry>,
    forwards: u64,
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
            forwards: 0,
        }
    }

    /// True if a new store can be inserted.
    pub fn has_room(&self) -> bool {
        self.entries.len() < self.capacity
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
    /// address is known. Returns `false` if the buffer is full.
    pub fn insert(&mut self, seq: u64, addr: u64) -> bool {
        if !self.has_room() {
            return false;
        }
        self.entries.push_back(StoreEntry {
            seq,
            addr: addr & !7,
            retired: false,
        });
        true
    }

    /// Checks whether a load with sequence `load_seq` to `addr` can forward
    /// from an older buffered store to the same word. The youngest such
    /// store wins. (Stores enter the buffer at execute time, which is out
    /// of order, so age must be compared by sequence number rather than
    /// buffer position.)
    pub fn check_load(&mut self, load_seq: u64, addr: u64) -> StoreForward {
        let addr = addr & !7;
        let hit = self
            .entries
            .iter()
            .filter(|e| e.seq < load_seq && e.addr == addr)
            .max_by_key(|e| e.seq);
        match hit {
            Some(e) => {
                self.forwards += 1;
                StoreForward::Forwarded { store_seq: e.seq }
            }
            None => StoreForward::None,
        }
    }

    /// Marks the store with sequence `seq` as retired (eligible to drain).
    pub fn mark_retired(&mut self, seq: u64) {
        if let Some(e) = self.entries.iter_mut().find(|e| e.seq == seq) {
            e.retired = true;
        }
    }

    /// Drains up to `max` retired stores from the head of the buffer,
    /// returning their addresses (the caller writes them to the cache).
    pub fn drain_retired(&mut self, max: usize) -> Vec<u64> {
        let mut out = Vec::new();
        self.drain_retired_into(max, &mut out);
        out
    }

    /// [`drain_retired`](Self::drain_retired) into the caller's `out`
    /// (cleared first), so a caller that keeps one buffer never
    /// allocates.
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

    /// Removes all stores younger than or equal to `seq` (pipeline flush).
    pub fn squash_younger(&mut self, seq: u64) {
        self.entries.retain(|e| e.retired || e.seq < seq);
    }

    /// Number of successful store-to-load forwards observed.
    pub fn forwards(&self) -> u64 {
        self.forwards
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
        assert_eq!(sb.forwards(), 1);
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
        assert!(sb.insert(1, 0));
        assert!(sb.insert(2, 8));
        assert!(!sb.insert(3, 16));
        assert!(!sb.has_room());
    }

    #[test]
    fn drain_respects_retirement_and_order() {
        let mut sb = StoreBuffer::new(4);
        sb.insert(1, 0x10);
        sb.insert(2, 0x20);
        sb.insert(3, 0x30);
        sb.mark_retired(1);
        sb.mark_retired(3);
        // Only the head run of retired stores drains.
        assert_eq!(sb.drain_retired(4), vec![0x10]);
        sb.mark_retired(2);
        assert_eq!(sb.drain_retired(1), vec![0x20]);
        assert_eq!(sb.drain_retired(4), vec![0x30]);
        assert!(sb.is_empty());
    }

    #[test]
    fn squash_removes_speculative_stores() {
        let mut sb = StoreBuffer::new(4);
        sb.insert(1, 0x10);
        sb.insert(5, 0x20);
        sb.squash_younger(5);
        assert_eq!(sb.len(), 1);
        assert_eq!(sb.check_load(9, 0x20), StoreForward::None);
        assert!(matches!(
            sb.check_load(9, 0x10),
            StoreForward::Forwarded { .. }
        ));
    }
}
