//! Branch Target Buffer: set-associative target cache.
//!
//! The paper's default is a direct-mapped, 512-entry BTB (§V.C); the number
//! of entries and the associativity are user parameters of the VHDL
//! generator (§III), so both are parameters here.

/// BTB geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BtbConfig {
    /// Total number of entries (power of two).
    pub entries: usize,
    /// Ways per set (power of two, ≤ entries).
    pub associativity: usize,
}

impl BtbConfig {
    /// The paper's default: 512 entries, direct-mapped.
    pub fn paper() -> Self {
        Self {
            entries: 512,
            associativity: 1,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.entries / self.associativity
    }

    fn validate(&self) {
        assert!(
            self.entries.is_power_of_two(),
            "BTB entries must be a power of two, got {}",
            self.entries
        );
        assert!(
            self.associativity.is_power_of_two() && self.associativity >= 1,
            "BTB associativity must be a power of two, got {}",
            self.associativity
        );
        assert!(
            self.associativity <= self.entries,
            "BTB associativity {} exceeds entry count {}",
            self.associativity,
            self.entries
        );
    }
}

impl Default for BtbConfig {
    fn default() -> Self {
        Self::paper()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct BtbEntry {
    tag: u32,
    target: u32,
    /// LRU rank within the set: 0 = most recently used.
    lru: u8,
    valid: bool,
}

/// A set-associative branch target buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Btb {
    config: BtbConfig,
    sets: Vec<Vec<BtbEntry>>,
    lookups: u64,
    hits: u64,
}

impl Btb {
    /// Creates an empty BTB.
    ///
    /// # Panics
    ///
    /// Panics if the configuration geometry is invalid (non-power-of-two
    /// sizes or associativity exceeding entry count).
    pub fn new(config: BtbConfig) -> Self {
        config.validate();
        let empty = BtbEntry {
            tag: 0,
            target: 0,
            lru: 0,
            valid: false,
        };
        Self {
            config,
            sets: vec![vec![empty; config.associativity]; config.sets()],
            lookups: 0,
            hits: 0,
        }
    }

    /// Geometry this BTB was built with.
    pub fn config(&self) -> BtbConfig {
        self.config
    }

    fn set_and_tag(&self, pc: u32) -> (usize, u32) {
        let word = pc >> 2;
        let set = (word as usize) & (self.config.sets() - 1);
        let tag = word >> self.config.sets().trailing_zeros();
        (set, tag)
    }

    /// Looks up the predicted target for the branch at `pc`.
    ///
    /// Updates hit/lookup statistics and LRU state.
    pub fn lookup(&mut self, pc: u32) -> Option<u32> {
        self.lookups += 1;
        let (set, tag) = self.set_and_tag(pc);
        let ways = &mut self.sets[set];
        let hit = ways.iter().position(|e| e.valid && e.tag == tag);
        match hit {
            Some(way) => {
                self.hits += 1;
                let target = ways[way].target;
                Self::touch(ways, way);
                Some(target)
            }
            None => None,
        }
    }

    /// Peeks without touching statistics or LRU state.
    pub fn peek(&self, pc: u32) -> Option<u32> {
        let (set, tag) = self.set_and_tag(pc);
        self.sets[set]
            .iter()
            .find(|e| e.valid && e.tag == tag)
            .map(|e| e.target)
    }

    /// Installs or refreshes the mapping `pc -> target`.
    pub fn update(&mut self, pc: u32, target: u32) {
        let (set, tag) = self.set_and_tag(pc);
        let ways = &mut self.sets[set];
        if let Some(way) = ways.iter().position(|e| e.valid && e.tag == tag) {
            ways[way].target = target;
            Self::touch(ways, way);
            return;
        }
        // Choose an invalid way, else the LRU way.
        let victim = ways
            .iter()
            .position(|e| !e.valid)
            .unwrap_or_else(|| {
                ways.iter()
                    .enumerate()
                    .max_by_key(|(_, e)| e.lru)
                    .map(|(i, _)| i)
                    .expect("BTB set cannot be empty")
            });
        ways[victim] = BtbEntry {
            tag,
            target,
            lru: 0,
            valid: true,
        };
        // A fresh entry must age every other resident entry.
        Self::promote(ways, victim, u8::MAX);
    }

    fn touch(ways: &mut [BtbEntry], way: usize) {
        let old = ways[way].lru;
        Self::promote(ways, way, old);
    }

    /// Makes `way` most recently used, aging entries younger than `old`.
    fn promote(ways: &mut [BtbEntry], way: usize, old: u8) {
        for e in ways.iter_mut() {
            if e.valid && e.lru < old && e.lru < u8::MAX {
                e.lru += 1;
            }
        }
        ways[way].lru = 0;
    }

    /// Zeroes the lookup/hit counters, keeping the table contents.
    pub(crate) fn reset_stats(&mut self) {
        self.lookups = 0;
        self.hits = 0;
    }

    /// Lookups performed.
    pub fn lookups(&self) -> u64 {
        self.lookups
    }

    /// Lookups that hit.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Hit rate (0 when no lookups yet).
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hit() {
        let mut btb = Btb::new(BtbConfig::paper());
        assert_eq!(btb.lookup(0x1000), None);
        btb.update(0x1000, 0x2000);
        assert_eq!(btb.lookup(0x1000), Some(0x2000));
        assert_eq!(btb.lookups(), 2);
        assert_eq!(btb.hits(), 1);
        assert!((btb.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn update_refreshes_target() {
        let mut btb = Btb::new(BtbConfig::paper());
        btb.update(0x1000, 0x2000);
        btb.update(0x1000, 0x3000);
        assert_eq!(btb.peek(0x1000), Some(0x3000));
    }

    #[test]
    fn direct_mapped_conflict_evicts() {
        let cfg = BtbConfig {
            entries: 4,
            associativity: 1,
        };
        let mut btb = Btb::new(cfg);
        btb.update(0x0, 0xA);
        // Same set (4 sets, word-indexed): pc 0x40 maps to set 0 too.
        btb.update(0x40, 0xB);
        assert_eq!(btb.peek(0x0), None, "conflict must evict the old entry");
        assert_eq!(btb.peek(0x40), Some(0xB));
    }

    #[test]
    fn two_way_keeps_both_then_evicts_lru() {
        let cfg = BtbConfig {
            entries: 4,
            associativity: 2,
        };
        let mut btb = Btb::new(cfg);
        // 2 sets; set 0 holds word addresses with even word index.
        btb.update(0x00, 0xA); // set 0
        btb.update(0x20, 0xB); // set 0 (word 8, even)
        assert_eq!(btb.peek(0x00), Some(0xA));
        assert_eq!(btb.peek(0x20), Some(0xB));
        // Touch 0x00 so 0x20 becomes LRU, then insert a third mapping.
        btb.lookup(0x00);
        btb.update(0x40, 0xC); // set 0 again
        assert_eq!(btb.peek(0x00), Some(0xA), "MRU entry must survive");
        assert_eq!(btb.peek(0x20), None, "LRU entry must be evicted");
        assert_eq!(btb.peek(0x40), Some(0xC));
    }

    #[test]
    fn peek_does_not_count() {
        let mut btb = Btb::new(BtbConfig::paper());
        btb.update(0x10, 0x20);
        let _ = btb.peek(0x10);
        assert_eq!(btb.lookups(), 0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_panics() {
        let _ = Btb::new(BtbConfig {
            entries: 500,
            associativity: 1,
        });
    }
}
