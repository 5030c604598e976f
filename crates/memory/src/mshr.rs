//! Miss status holding registers for a non-blocking cache.

use std::collections::HashMap;

/// A file of miss status holding registers (MSHRs).
///
/// Each outstanding cache-line miss occupies one MSHR until its fill
/// completes. Misses to a line that is already outstanding merge into the
/// existing MSHR (and see its remaining latency). When all MSHRs are busy
/// a new miss must wait until the earliest fill frees one.
#[derive(Debug, Clone)]
pub struct MshrFile {
    capacity: usize,
    /// line address -> cycle at which the fill completes
    outstanding: HashMap<u64, u64>,
    /// Total merges observed (secondary misses to an outstanding line).
    merges: u64,
    /// Total cycles spent waiting because the file was full.
    full_stalls: u64,
}

impl MshrFile {
    /// Creates a file with `capacity` registers.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "MSHR file must have at least one register");
        MshrFile {
            capacity,
            outstanding: HashMap::new(),
            merges: 0,
            full_stalls: 0,
        }
    }

    /// Drops entries whose fills have completed by `now`.
    pub fn expire(&mut self, now: u64) {
        self.outstanding.retain(|_, &mut done| done > now);
    }

    /// Registers a miss for `line_addr` issued at `now` whose fill takes
    /// `fill_latency` cycles. Returns the cycle at which the data is
    /// available, accounting for merging and structural stalls.
    pub fn allocate(&mut self, line_addr: u64, now: u64, fill_latency: u64) -> u64 {
        self.expire(now);
        if let Some(&done) = self.outstanding.get(&line_addr) {
            self.merges += 1;
            return done;
        }
        let start = if self.outstanding.len() >= self.capacity {
            // Wait for the earliest fill to free a register.
            let earliest = self
                .outstanding
                .values()
                .copied()
                .min()
                .expect("file is full, so non-empty");
            self.full_stalls += earliest.saturating_sub(now);
            // That register is now free for reuse.
            self.outstanding.retain(|_, &mut done| done > earliest);
            earliest
        } else {
            now
        };
        let done = start + fill_latency;
        self.outstanding.insert(line_addr, done);
        done
    }

    /// True if a miss for `line_addr` is currently outstanding at `now`.
    pub fn is_outstanding(&self, line_addr: u64, now: u64) -> bool {
        self.outstanding.get(&line_addr).is_some_and(|&d| d > now)
    }

    /// Number of registers currently in use (after expiring at `now`).
    pub fn in_use(&mut self, now: u64) -> usize {
        self.expire(now);
        self.outstanding.len()
    }

    /// Number of secondary misses that merged into an existing register.
    pub fn merges(&self) -> u64 {
        self.merges
    }

    /// Total cycles of structural stall due to a full file.
    pub fn full_stalls(&self) -> u64 {
        self.full_stalls
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primary_miss_takes_fill_latency() {
        let mut m = MshrFile::new(4);
        assert_eq!(m.allocate(0x100, 10, 65), 75);
    }

    #[test]
    fn secondary_miss_merges() {
        let mut m = MshrFile::new(4);
        let done = m.allocate(0x100, 10, 65);
        // A later miss to the same line sees the same completion.
        assert_eq!(m.allocate(0x100, 20, 65), done);
        assert_eq!(m.merges(), 1);
    }

    #[test]
    fn full_file_delays_new_miss() {
        let mut m = MshrFile::new(2);
        let d0 = m.allocate(0x000, 0, 10); // done 10
        let _d1 = m.allocate(0x100, 0, 20); // done 20
                                            // Third distinct line must wait for the first fill (cycle 10).
        let d2 = m.allocate(0x200, 0, 5);
        assert_eq!(d0, 10);
        assert_eq!(d2, 15);
        assert!(m.full_stalls() >= 10);
    }

    #[test]
    fn entries_expire() {
        let mut m = MshrFile::new(1);
        m.allocate(0x0, 0, 10);
        assert!(m.is_outstanding(0x0, 5));
        assert!(!m.is_outstanding(0x0, 10));
        assert_eq!(m.in_use(10), 0);
        // Capacity is free again: a new miss starts immediately.
        assert_eq!(m.allocate(0x40, 12, 7), 19);
    }

    #[test]
    #[should_panic]
    fn zero_capacity_panics() {
        let _ = MshrFile::new(0);
    }
}
