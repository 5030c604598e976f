//! Branch target buffer.

/// BTB geometry (default: 512 entries, 4-way — Table 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BtbConfig {
    /// Total entries (power of two).
    pub entries: usize,
    /// Associativity.
    pub assoc: usize,
}

impl Default for BtbConfig {
    fn default() -> Self {
        BtbConfig {
            entries: 512,
            assoc: 4,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct BtbEntry {
    tag: u64,
    target: u64,
    valid: bool,
    lru: u64,
}

/// A set-associative branch target buffer mapping branch PCs to predicted
/// targets.
#[derive(Debug, Clone)]
pub struct Btb {
    /// Every entry of every set in one contiguous array, set-major: set
    /// `i` is `entries[i * assoc..(i + 1) * assoc]`.
    entries: Vec<BtbEntry>,
    assoc: usize,
    set_bits: u32,
    set_mask: u64,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl Btb {
    /// Creates an empty BTB.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power-of-two multiple of `assoc`.
    pub fn new(config: BtbConfig) -> Self {
        assert!(config.assoc > 0 && config.entries.is_multiple_of(config.assoc));
        let num_sets = config.entries / config.assoc;
        assert!(num_sets.is_power_of_two());
        let invalid = BtbEntry {
            tag: 0,
            target: 0,
            valid: false,
            lru: 0,
        };
        Btb {
            entries: vec![invalid; config.entries],
            assoc: config.assoc,
            set_bits: num_sets.trailing_zeros(),
            set_mask: num_sets as u64 - 1,
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    #[inline]
    fn decompose(&self, pc: u64) -> (usize, u64) {
        let word = pc >> 2;
        ((word & self.set_mask) as usize, word >> self.set_bits)
    }

    #[inline]
    fn set(&self, index: usize) -> &[BtbEntry] {
        &self.entries[index * self.assoc..(index + 1) * self.assoc]
    }

    #[inline]
    fn set_mut(&mut self, index: usize) -> &mut [BtbEntry] {
        &mut self.entries[index * self.assoc..(index + 1) * self.assoc]
    }

    /// Looks up the predicted target for the branch at `pc`, updating LRU
    /// and hit/miss counters.
    pub fn lookup(&mut self, pc: u64) -> Option<u64> {
        self.tick += 1;
        let tick = self.tick;
        let (set, tag) = self.decompose(pc);
        if let Some(e) = self
            .set_mut(set)
            .iter_mut()
            .find(|e| e.valid && e.tag == tag)
        {
            e.lru = tick;
            let target = e.target;
            self.hits += 1;
            Some(target)
        } else {
            self.misses += 1;
            None
        }
    }

    /// Side-effect-free target probe (no LRU/stat update).
    pub fn probe(&self, pc: u64) -> Option<u64> {
        let (set, tag) = self.decompose(pc);
        self.set(set)
            .iter()
            .find(|e| e.valid && e.tag == tag)
            .map(|e| e.target)
    }

    /// Installs or updates the target for the branch at `pc`.
    pub fn update(&mut self, pc: u64, target: u64) {
        self.tick += 1;
        let tick = self.tick;
        let (set, tag) = self.decompose(pc);
        let set = self.set_mut(set);
        if let Some(e) = set.iter_mut().find(|e| e.valid && e.tag == tag) {
            e.target = target;
            e.lru = tick;
            return;
        }
        let victim = set
            .iter_mut()
            .min_by_key(|e| if e.valid { e.lru } else { 0 })
            .expect("assoc > 0");
        *victim = BtbEntry {
            tag,
            target,
            valid: true,
            lru: tick,
        };
    }

    /// (hits, misses) since construction.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

impl Default for Btb {
    fn default() -> Self {
        Btb::new(BtbConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hit() {
        let mut b = Btb::default();
        assert_eq!(b.lookup(0x1000), None);
        b.update(0x1000, 0x2000);
        assert_eq!(b.lookup(0x1000), Some(0x2000));
        assert_eq!(b.stats(), (1, 1));
    }

    #[test]
    fn update_replaces_target() {
        let mut b = Btb::default();
        b.update(0x1000, 0x2000);
        b.update(0x1000, 0x3000);
        assert_eq!(b.probe(0x1000), Some(0x3000));
    }

    #[test]
    fn lru_within_a_set() {
        let mut b = Btb::new(BtbConfig {
            entries: 8,
            assoc: 2,
        });
        // 4 sets; PCs with the same (pc>>2)&3 collide. Set 0: word
        // multiples of 4 -> pc multiples of 16.
        b.update(0x00, 1);
        b.update(0x10, 2);
        b.lookup(0x00); // refresh A
        b.update(0x20, 3); // evicts B
        assert_eq!(b.probe(0x00), Some(1));
        assert_eq!(b.probe(0x10), None);
        assert_eq!(b.probe(0x20), Some(3));
    }

    #[test]
    fn probe_is_pure() {
        let mut b = Btb::default();
        b.update(0x40, 0x80);
        let (h, m) = b.stats();
        assert_eq!(b.probe(0x40), Some(0x80));
        assert_eq!(b.stats(), (h, m));
    }
}
