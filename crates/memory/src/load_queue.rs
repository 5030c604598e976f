//! Load queue.

use std::collections::VecDeque;

/// A load queue (default 32 entries, per Table 7) tracking in-flight loads.
///
/// The paper's load queue performs **no speculative disambiguation**: a
/// load may not issue while an older store's address is still unknown. The
/// queue itself only tracks occupancy and ordering; the issue-time check
/// against unresolved stores is made by the execution core, which knows
/// store address-generation status.
#[derive(Debug, Clone)]
pub struct LoadQueue {
    capacity: usize,
    loads: VecDeque<u64>,
}

impl LoadQueue {
    /// Creates an empty queue with room for `capacity` loads.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        LoadQueue {
            capacity,
            loads: VecDeque::new(),
        }
    }

    /// True while the queue holds fewer loads than its capacity.
    pub fn has_room(&self) -> bool {
        self.loads.len() < self.capacity
    }

    /// True if a load may be inserted now: while there is room, and
    /// always for the oldest load in flight. Every queued load is in
    /// flight and so younger than that one, and none frees its entry
    /// before it retires, so refusing the oldest would wedge the
    /// pipeline for good.
    pub fn admits(&self, oldest_in_flight: bool) -> bool {
        oldest_in_flight || self.has_room()
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.loads.len()
    }

    /// True when no loads are queued.
    pub fn is_empty(&self) -> bool {
        self.loads.is_empty()
    }

    /// Inserts a load by sequence number (allocated at dispatch; clusters
    /// dispatch independently, so insertion order may not be sequence
    /// order). The caller checks [`admits`](Self::admits) first.
    pub fn insert(&mut self, seq: u64) {
        self.loads.push_back(seq);
    }

    /// Removes a completed or retired load.
    pub fn remove(&mut self, seq: u64) {
        if let Some(pos) = self.loads.iter().position(|&s| s == seq) {
            self.loads.remove(pos);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_enforced() {
        let mut lq = LoadQueue::new(2);
        lq.insert(1);
        lq.insert(2);
        assert!(!lq.admits(false));
        assert_eq!(lq.len(), 2);
        // The oldest load in flight is admitted past capacity.
        assert!(lq.admits(true));
        lq.insert(0);
        assert_eq!(lq.len(), 3);
    }

    #[test]
    fn remove_frees_room() {
        let mut lq = LoadQueue::new(1);
        lq.insert(7);
        assert!(!lq.has_room());
        lq.remove(7);
        assert!(lq.has_room());
        assert!(lq.is_empty());
    }
}
