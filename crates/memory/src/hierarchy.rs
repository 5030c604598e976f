//! The composed data memory system.

use crate::{CacheConfig, LoadQueue, MshrFile, SetAssocCache, StoreBuffer, Tlb, TlbConfig};

/// Kind of data-memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// A load (integer or FP).
    Load,
    /// A store (integer or FP).
    Store,
}

/// Configuration of the whole data memory system. Defaults match Table 7
/// of the paper.
#[derive(Debug, Clone, Copy)]
pub struct MemoryConfig {
    /// L1 data cache geometry (default: 32 KB, 4-way, 2-cycle).
    pub l1: CacheConfig,
    /// Unified L2 geometry (default: 1 MB, 4-way, +8 cycles).
    pub l2: CacheConfig,
    /// D-TLB configuration.
    pub tlb: TlbConfig,
    /// Main memory latency beyond an L2 miss (+65 cycles).
    pub main_memory_latency: u64,
    /// Number of MSHRs on the L1 (16).
    pub mshrs: usize,
    /// Number of L1 access ports (4).
    pub l1_ports: usize,
    /// Store buffer entries (32).
    pub store_buffer_entries: usize,
    /// Load queue entries (32).
    pub load_queue_entries: usize,
}

impl Default for MemoryConfig {
    fn default() -> Self {
        MemoryConfig {
            l1: CacheConfig {
                size_bytes: 32 * 1024,
                assoc: 4,
                line_bytes: 64,
                hit_latency: 2,
            },
            l2: CacheConfig {
                size_bytes: 1024 * 1024,
                assoc: 4,
                line_bytes: 64,
                hit_latency: 8,
            },
            tlb: TlbConfig::default(),
            main_memory_latency: 65,
            mshrs: 16,
            l1_ports: 4,
            store_buffer_entries: 32,
            load_queue_entries: 32,
        }
    }
}

/// Timing outcome of a data-memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Cycle at which the access completes (data available / store done).
    pub ready_cycle: u64,
    /// Whether the L1 hit.
    pub l1_hit: bool,
    /// Whether the L2 hit (only meaningful when `l1_hit` is false).
    pub l2_hit: bool,
    /// Cycles spent in address translation.
    pub tlb_cycles: u64,
}

/// The data memory system: L1D + L2 + TLB + MSHRs + ports, plus the store
/// buffer and load queue the execution core coordinates with.
///
/// # Example
///
/// ```
/// use ctcp_memory::{AccessKind, DataMemory, MemoryConfig};
///
/// let mut dm = DataMemory::new(MemoryConfig::default());
/// let cold = dm.access(AccessKind::Load, 0x1_0000, 0);
/// let warm = dm.access(AccessKind::Load, 0x1_0000, cold.ready_cycle);
/// assert!(warm.ready_cycle - cold.ready_cycle < cold.ready_cycle + 1);
/// assert!(warm.l1_hit);
/// ```
#[derive(Debug, Clone)]
pub struct DataMemory {
    config: MemoryConfig,
    l1: SetAssocCache,
    l2: SetAssocCache,
    tlb: Tlb,
    mshrs: MshrFile,
    store_buffer: StoreBuffer,
    load_queue: LoadQueue,
    port_cycle: u64,
    ports_used: usize,
    /// Scratch for [`DataMemory::drain_stores`], reused every cycle.
    drained: Vec<u64>,
}

impl DataMemory {
    /// Creates a cold memory system.
    pub fn new(config: MemoryConfig) -> Self {
        DataMemory {
            l1: SetAssocCache::new(config.l1),
            l2: SetAssocCache::new(config.l2),
            tlb: Tlb::new(config.tlb),
            mshrs: MshrFile::new(config.mshrs),
            store_buffer: StoreBuffer::new(config.store_buffer_entries),
            load_queue: LoadQueue::new(config.load_queue_entries),
            config,
            port_cycle: 0,
            ports_used: 0,
            drained: Vec::new(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &MemoryConfig {
        &self.config
    }

    /// The store buffer (the core drives insert/forward/drain).
    pub fn store_buffer(&mut self) -> &mut StoreBuffer {
        &mut self.store_buffer
    }

    /// The load queue (the core drives insert/remove).
    pub fn load_queue(&mut self) -> &mut LoadQueue {
        &mut self.load_queue
    }

    /// MSHRs still in flight at `now` (expired entries are pruned
    /// first, so this is an exact occupancy sample).
    pub fn mshr_in_use(&mut self, now: u64) -> usize {
        self.mshrs.in_use(now)
    }

    /// Load-queue entries currently occupied.
    pub fn load_queue_len(&self) -> usize {
        self.load_queue.len()
    }

    /// L1 data cache statistics.
    pub fn l1_stats(&self) -> crate::CacheStats {
        self.l1.stats()
    }

    /// L2 cache statistics.
    pub fn l2_stats(&self) -> crate::CacheStats {
        self.l2.stats()
    }

    /// D-TLB statistics.
    pub fn tlb_stats(&self) -> crate::CacheStats {
        self.tlb.stats()
    }

    /// Acquires an L1 port at or after `now`, returning the cycle the
    /// access may begin.
    fn acquire_port(&mut self, now: u64) -> u64 {
        let mut start = now.max(self.port_cycle);
        if start > self.port_cycle {
            self.port_cycle = start;
            self.ports_used = 0;
        }
        if self.ports_used >= self.config.l1_ports {
            start += 1;
            self.port_cycle = start;
            self.ports_used = 0;
        }
        self.ports_used += 1;
        start
    }

    /// Performs a timed access for a load or store executing at `now`.
    /// Cache and TLB state are updated; the returned
    /// [`AccessResult::ready_cycle`] is when data is available (loads) or
    /// the access completes (stores).
    ///
    /// Store-to-load forwarding is checked by the core against
    /// [`DataMemory::store_buffer`] *before* calling this, so `access` only
    /// models the cache path.
    pub fn access(&mut self, kind: AccessKind, addr: u64, now: u64) -> AccessResult {
        let start = self.acquire_port(now);
        let tlb_cycles = self.tlb.translate(addr);
        let t = start + tlb_cycles;
        let line = self.l1.line_addr(addr);
        let l1_hit = self.l1.access(addr);
        if l1_hit {
            // The tag array installs lines eagerly at miss time, so a
            // "hit" to a line whose fill is still in flight must wait for
            // the outstanding MSHR (a secondary miss, in effect).
            let hit_ready = t + self.config.l1.hit_latency;
            let ready_cycle = if self.mshrs.is_outstanding(line, t) {
                self.mshrs.allocate(line, t, 0).max(hit_ready)
            } else {
                hit_ready
            };
            return AccessResult {
                ready_cycle,
                l1_hit: true,
                l2_hit: false,
                tlb_cycles,
            };
        }
        let l2_hit = self.l2.access(addr);
        let fill = self.config.l1.hit_latency
            + self.config.l2.hit_latency
            + if l2_hit {
                0
            } else {
                self.config.main_memory_latency
            };
        let ready_cycle = match kind {
            AccessKind::Load => self.mshrs.allocate(line, t, fill),
            // Stores complete into the store buffer; the miss is absorbed
            // after retirement, so the store itself is done after the TLB
            // and L1 write-port access.
            AccessKind::Store => t + self.config.l1.hit_latency,
        };
        AccessResult {
            ready_cycle,
            l1_hit: false,
            l2_hit,
            tlb_cycles,
        }
    }

    /// Applies up to `max` retired-store drains to the cache hierarchy
    /// (write allocate, no timing effect on the pipeline) and returns
    /// how many stores drained.
    pub fn drain_stores(&mut self, max: usize) -> usize {
        self.store_buffer.drain_retired_into(max, &mut self.drained);
        for &a in &self.drained {
            if !self.l1.access(a) {
                self.l2.access(a);
            }
        }
        self.drained.len()
    }
}

impl Default for DataMemory {
    fn default() -> Self {
        DataMemory::new(MemoryConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_load_pays_full_hierarchy() {
        let mut dm = DataMemory::default();
        let r = dm.access(AccessKind::Load, 0x10_0000, 0);
        assert!(!r.l1_hit);
        assert!(!r.l2_hit);
        // TLB miss (31) + L1 (2) + L2 (8) + memory (65)
        assert_eq!(r.ready_cycle, 31 + 2 + 8 + 65);
    }

    #[test]
    fn warm_load_hits_l1() {
        let mut dm = DataMemory::default();
        let c = dm.access(AccessKind::Load, 0x10_0000, 0);
        let r = dm.access(AccessKind::Load, 0x10_0000, c.ready_cycle);
        assert!(r.l1_hit);
        assert_eq!(r.ready_cycle, c.ready_cycle + 1 + 2); // TLB hit + L1 hit
    }

    #[test]
    fn l2_hit_is_cheaper_than_memory() {
        let mut dm = DataMemory::default();
        // Fill L2 and L1 with the line, then evict from L1 by conflict.
        dm.access(AccessKind::Load, 0x0, 0);
        // 4-way 32KB/64B: sets = 128, way stride = 8KB. Five conflicting
        // lines evict the first.
        for i in 1..=4u64 {
            dm.access(AccessKind::Load, i * 8192, 1000 + i);
        }
        let r = dm.access(AccessKind::Load, 0x0, 10_000);
        assert!(!r.l1_hit);
        assert!(r.l2_hit);
        assert_eq!(r.ready_cycle, 10_000 + 1 + 2 + 8);
    }

    #[test]
    fn stores_do_not_wait_for_memory() {
        let mut dm = DataMemory::default();
        let r = dm.access(AccessKind::Store, 0x20_0000, 0);
        assert!(!r.l1_hit);
        // TLB miss + L1 write-port only.
        assert_eq!(r.ready_cycle, 31 + 2);
    }

    #[test]
    fn ports_throttle_bandwidth() {
        let mut dm = DataMemory::default();
        // Warm the TLB and L1 first.
        dm.access(AccessKind::Load, 0x0, 0);
        let base = 1_000;
        let mut latest = 0;
        for _ in 0..5 {
            let r = dm.access(AccessKind::Load, 0x0, base);
            latest = latest.max(r.ready_cycle);
        }
        // The 5th access on a 4-port cache starts a cycle late.
        assert_eq!(latest, base + 1 + 1 + 2);
    }

    #[test]
    fn overlapping_misses_merge_in_mshrs() {
        let mut dm = DataMemory::default();
        let a = dm.access(AccessKind::Load, 0x40_0000, 0);
        let b = dm.access(AccessKind::Load, 0x40_0008, 0); // same line
        assert_eq!(a.ready_cycle, b.ready_cycle);
    }

    #[test]
    fn drain_installs_lines() {
        let mut dm = DataMemory::default();
        dm.store_buffer().insert(1, 0x8_0000);
        dm.store_buffer().mark_retired(1);
        assert_eq!(dm.drain_stores(4), 1);
        assert_eq!(dm.drain_stores(4), 0, "nothing left to drain");
        // The drained line is now resident.
        dm.access(AccessKind::Load, 0x8_0000, 100);
        let r = dm.access(AccessKind::Load, 0x8_0000, 200);
        assert!(r.l1_hit);
    }
}
