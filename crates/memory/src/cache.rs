//! Generic set-associative cache model (tags + true-LRU, no data).

/// Geometry and latency of a set-associative cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub assoc: usize,
    /// Line size in bytes (power of two).
    pub line_bytes: u64,
    /// Access latency on a hit, in cycles.
    pub hit_latency: u64,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero sizes, capacity smaller
    /// than one way, or non-power-of-two line size).
    pub fn num_sets(&self) -> usize {
        assert!(self.line_bytes.is_power_of_two(), "line size must be 2^n");
        assert!(self.assoc > 0 && self.size_bytes > 0);
        let lines = self.size_bytes / self.line_bytes;
        assert!(
            lines as usize >= self.assoc,
            "capacity smaller than one set"
        );
        (lines as usize) / self.assoc
    }
}

/// Hit/miss counters for a cache.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Number of accesses that hit.
    pub hits: u64,
    /// Number of accesses that missed.
    pub misses: u64,
}

impl CacheStats {
    /// Total number of accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss ratio in `[0, 1]`; zero when there were no accesses.
    pub fn miss_rate(&self) -> f64 {
        let n = self.accesses();
        if n == 0 {
            0.0
        } else {
            self.misses as f64 / n as f64
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Way {
    tag: u64,
    valid: bool,
    /// Higher = more recently used.
    lru: u64,
}

/// A set-associative cache with true-LRU replacement. Only tags are
/// modelled — the simulator never needs cached data, just hit/miss timing.
///
/// # Example
///
/// ```
/// use ctcp_memory::{CacheConfig, SetAssocCache};
///
/// let mut c = SetAssocCache::new(CacheConfig {
///     size_bytes: 1024,
///     assoc: 2,
///     line_bytes: 64,
///     hit_latency: 2,
/// });
/// assert!(!c.access(0x100)); // cold miss
/// assert!(c.access(0x100)); // now hot
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    config: CacheConfig,
    /// Every way of every set in one contiguous array, set-major: set
    /// `i` is `ways[i * assoc..(i + 1) * assoc]`.
    ways: Vec<Way>,
    stats: CacheStats,
    tick: u64,
    offset_bits: u32,
    index_bits: u32,
    index_mask: u64,
}

impl SetAssocCache {
    /// Creates an empty (all-invalid) cache.
    ///
    /// # Panics
    ///
    /// Panics if the configuration geometry is degenerate (see
    /// [`CacheConfig::num_sets`]).
    pub fn new(config: CacheConfig) -> Self {
        let num_sets = config.num_sets();
        assert!(num_sets.is_power_of_two(), "set count must be 2^n");
        let invalid = Way {
            tag: 0,
            valid: false,
            lru: 0,
        };
        SetAssocCache {
            config,
            ways: vec![invalid; num_sets * config.assoc],
            stats: CacheStats::default(),
            tick: 0,
            offset_bits: config.line_bytes.trailing_zeros(),
            index_bits: num_sets.trailing_zeros(),
            index_mask: num_sets as u64 - 1,
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Aggregate hit/miss statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    #[inline]
    fn decompose(&self, addr: u64) -> (usize, u64) {
        let line = addr >> self.offset_bits;
        ((line & self.index_mask) as usize, line >> self.index_bits)
    }

    #[inline]
    fn set(&self, index: usize) -> &[Way] {
        let assoc = self.config.assoc;
        &self.ways[index * assoc..(index + 1) * assoc]
    }

    #[inline]
    fn set_mut(&mut self, index: usize) -> &mut [Way] {
        let assoc = self.config.assoc;
        &mut self.ways[index * assoc..(index + 1) * assoc]
    }

    /// The line-aligned base address of the line containing `addr`.
    #[inline]
    pub fn line_addr(&self, addr: u64) -> u64 {
        addr & !(self.config.line_bytes - 1)
    }

    /// Accesses `addr`, allocating the line on a miss (LRU victim).
    /// Returns `true` on a hit.
    pub fn access(&mut self, addr: u64) -> bool {
        self.tick += 1;
        let tick = self.tick;
        let (index, tag) = self.decompose(addr);
        let set = self.set_mut(index);
        if let Some(way) = set.iter_mut().find(|w| w.valid && w.tag == tag) {
            way.lru = tick;
            self.stats.hits += 1;
            return true;
        }
        // The first least-recent way (invalid ways count as oldest).
        let victim = set
            .iter_mut()
            .min_by_key(|w| if w.valid { w.lru } else { 0 })
            .expect("assoc > 0");
        victim.valid = true;
        victim.tag = tag;
        victim.lru = tick;
        self.stats.misses += 1;
        false
    }

    /// Checks residency without updating LRU, stats, or contents.
    pub fn probe(&self, addr: u64) -> bool {
        let (index, tag) = self.decompose(addr);
        self.set(index).iter().any(|w| w.valid && w.tag == tag)
    }

    /// Invalidates the line containing `addr`, if resident. Returns whether
    /// a line was invalidated.
    pub fn invalidate(&mut self, addr: u64) -> bool {
        let (index, tag) = self.decompose(addr);
        if let Some(way) = self
            .set_mut(index)
            .iter_mut()
            .find(|w| w.valid && w.tag == tag)
        {
            way.valid = false;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SetAssocCache {
        SetAssocCache::new(CacheConfig {
            size_bytes: 512,
            assoc: 2,
            line_bytes: 64,
            hit_latency: 1,
        })
    }

    #[test]
    fn geometry() {
        let c = small();
        assert_eq!(c.config().num_sets(), 4);
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = small();
        assert!(!c.access(0x0));
        assert!(c.access(0x0));
        assert!(c.access(0x3f)); // same line
        assert!(!c.access(0x40)); // next line
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = small();
        // Three lines mapping to set 0 (stride = num_sets * line = 256).
        c.access(0x000);
        c.access(0x100);
        c.access(0x000); // touch A again; B is now LRU
        c.access(0x200); // evicts B
        assert!(c.probe(0x000));
        assert!(!c.probe(0x100));
        assert!(c.probe(0x200));
    }

    #[test]
    fn probe_does_not_disturb_state() {
        let mut c = small();
        c.access(0x0);
        let before = c.stats();
        assert!(c.probe(0x0));
        assert!(!c.probe(0x40));
        assert_eq!(c.stats(), before);
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = small();
        c.access(0x0);
        assert!(c.invalidate(0x0));
        assert!(!c.probe(0x0));
        assert!(!c.invalidate(0x0));
    }

    #[test]
    fn distinct_tags_same_set_coexist_up_to_assoc() {
        let mut c = small();
        c.access(0x000);
        c.access(0x100);
        assert!(c.probe(0x000));
        assert!(c.probe(0x100));
    }

    #[test]
    fn miss_rate_computation() {
        let mut c = small();
        c.access(0);
        c.access(0);
        c.access(0);
        c.access(0x40);
        assert_eq!(c.stats().miss_rate(), 0.5);
        assert_eq!(CacheStats::default().miss_rate(), 0.0);
    }

    #[test]
    fn line_addr_masks_offset() {
        let c = small();
        assert_eq!(c.line_addr(0x7f), 0x40);
        assert_eq!(c.line_addr(0x40), 0x40);
    }

    #[test]
    #[should_panic]
    fn degenerate_geometry_panics() {
        let _ = SetAssocCache::new(CacheConfig {
            size_bytes: 64,
            assoc: 4,
            line_bytes: 64,
            hit_latency: 1,
        });
    }
}
