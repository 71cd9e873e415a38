//! Tag-only set-associative cache.

/// Replacement policy for a cache set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Replacement {
    /// Least-recently-used (the paper's structures are LRU-managed).
    #[default]
    Lru,
    /// First-in first-out.
    Fifo,
    /// Pseudo-random (deterministic xorshift, so simulations stay
    /// reproducible).
    Random,
}

/// Cache geometry and timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheConfig {
    /// Total capacity in bytes (power of two).
    pub size_bytes: usize,
    /// Block (line) size in bytes (power of two).
    pub block_bytes: usize,
    /// Ways per set (power of two).
    pub associativity: usize,
    /// Replacement policy.
    pub replacement: Replacement,
    /// Latency of a hit, in simulated cycles (≥ 1).
    pub hit_latency: u32,
    /// Additional latency of a miss (time to fill from the next level).
    pub miss_penalty: u32,
}

impl CacheConfig {
    /// The paper's Table 1 (right) configuration: 32 KB, 8-way, 64 B
    /// blocks — the same L1 geometry FAST reports.
    ///
    /// The miss penalty is not stated in the paper; 20 cycles is the
    /// conventional SimpleScalar L1-to-memory fill time and is documented
    /// as a substitution in DESIGN.md.
    pub fn l1_32k() -> Self {
        Self {
            size_bytes: 32 * 1024,
            block_bytes: 64,
            associativity: 8,
            replacement: Replacement::Lru,
            hit_latency: 1,
            miss_penalty: 20,
        }
    }

    /// The two-way variant mentioned in the paper's §V.C prose.
    pub fn l1_32k_two_way() -> Self {
        Self {
            associativity: 2,
            ..Self::l1_32k()
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.size_bytes / self.block_bytes / self.associativity
    }

    fn validate(&self) {
        assert!(
            self.size_bytes.is_power_of_two(),
            "cache size must be a power of two, got {}",
            self.size_bytes
        );
        assert!(
            self.block_bytes.is_power_of_two() && self.block_bytes >= 4,
            "block size must be a power of two >= 4, got {}",
            self.block_bytes
        );
        assert!(
            self.associativity.is_power_of_two(),
            "associativity must be a power of two, got {}",
            self.associativity
        );
        assert!(
            self.size_bytes >= self.block_bytes * self.associativity,
            "cache of {} bytes cannot hold {} ways of {}-byte blocks",
            self.size_bytes,
            self.associativity,
            self.block_bytes
        );
        assert!(self.hit_latency >= 1, "hit latency must be at least 1");
    }
}

/// Outcome of one cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AccessResult {
    /// Whether the block was present.
    pub hit: bool,
    /// Total access latency in simulated cycles.
    pub latency: u32,
}

/// 64-bit cache statistics (paper §V.B).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Read accesses.
    pub reads: u64,
    /// Write accesses.
    pub writes: u64,
    /// Read hits.
    pub read_hits: u64,
    /// Write hits.
    pub write_hits: u64,
    /// Blocks evicted to make room.
    pub evictions: u64,
}

impl CacheStats {
    /// Field-wise sum of two counter sets — composes the statistics of
    /// windowed runs.
    pub fn merge(&self, other: &CacheStats) -> CacheStats {
        CacheStats {
            reads: self.reads + other.reads,
            writes: self.writes + other.writes,
            read_hits: self.read_hits + other.read_hits,
            write_hits: self.write_hits + other.write_hits,
            evictions: self.evictions + other.evictions,
        }
    }

    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.reads + self.writes
    }

    /// Total hits.
    pub fn hits(&self) -> u64 {
        self.read_hits + self.write_hits
    }

    /// Total misses.
    pub fn misses(&self) -> u64 {
        self.accesses() - self.hits()
    }

    /// Hit rate over all accesses (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.hits() as f64 / self.accesses() as f64
        }
    }
}

/// A tag-only set-associative cache with configurable replacement.
///
/// The tag array is stored as flat, set-major **lanes** (tags, ranks,
/// valid bits) rather than per-set line structs: the tag-match probe and
/// the LRU touch — the two hottest memory-system operations in the
/// simulator — then run over packed arrays with mask arithmetic instead
/// of striding over structs and branching per way.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cache {
    config: CacheConfig,
    /// Block tags, line-indexed (`set * associativity + way`).
    tags: Box<[u32]>,
    /// Replacement ranks (LRU: 0 = MRU; FIFO: insertion order).
    ranks: Box<[u32]>,
    /// Valid bits.
    valid: Box<[bool]>,
    stats: CacheStats,
    fifo_counter: u32,
    rng_state: u64,
    /// `log2(block_bytes)` — address → block number.
    block_shift: u32,
    /// `sets - 1` — block number → set index (sets are a power of two).
    set_mask: u32,
    /// `log2(sets)` — block number → tag.
    tag_shift: u32,
}

impl Cache {
    /// Creates an empty (all-invalid) cache.
    ///
    /// # Panics
    ///
    /// Panics on invalid geometry (see [`CacheConfig`] field docs).
    pub fn new(config: CacheConfig) -> Self {
        config.validate();
        let lines = config.sets() * config.associativity;
        Self {
            config,
            tags: vec![0; lines].into_boxed_slice(),
            ranks: vec![0; lines].into_boxed_slice(),
            valid: vec![false; lines].into_boxed_slice(),
            stats: CacheStats::default(),
            fifo_counter: 0,
            rng_state: 0x9E37_79B9_7F4A_7C15,
            block_shift: config.block_bytes.trailing_zeros(),
            set_mask: config.sets() as u32 - 1,
            tag_shift: config.sets().trailing_zeros(),
        }
    }

    /// The geometry this cache was built with.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    fn set_and_tag(&self, addr: u32) -> (usize, u32) {
        let block = addr >> self.block_shift;
        ((block & self.set_mask) as usize, block >> self.tag_shift)
    }

    /// The line index of `tag` in set `set_idx`, or `None` — the
    /// branchless tag-match probe. A set holds at most one copy of a
    /// tag, so a mask-select over the ways loses nothing to match order.
    #[inline]
    fn probe(&self, set_idx: usize, tag: u32) -> Option<usize> {
        let base = set_idx * self.config.associativity;
        let mut found = usize::MAX;
        for idx in base..base + self.config.associativity {
            let hit = (self.valid[idx] & (self.tags[idx] == tag)) as usize;
            // found = hit ? idx : found, as a mask select (no branch).
            found ^= (found ^ idx) & hit.wrapping_neg();
        }
        (found != usize::MAX).then_some(found)
    }

    /// Performs one access; allocates on miss (write-allocate).
    ///
    /// Returns the hit/miss indication and the access latency — exactly
    /// what ReSim's tag-only hardware caches provide.
    pub fn access(&mut self, addr: u32, is_write: bool) -> AccessResult {
        let (set_idx, tag) = self.set_and_tag(addr);
        if is_write {
            self.stats.writes += 1;
        } else {
            self.stats.reads += 1;
        }
        match self.probe(set_idx, tag) {
            Some(line) => {
                if is_write {
                    self.stats.write_hits += 1;
                } else {
                    self.stats.read_hits += 1;
                }
                if self.config.replacement == Replacement::Lru {
                    self.touch_lru(set_idx, line);
                }
                AccessResult {
                    hit: true,
                    latency: self.config.hit_latency,
                }
            }
            None => {
                if self.fill(set_idx, tag) {
                    self.stats.evictions += 1;
                }
                AccessResult {
                    hit: false,
                    latency: self.config.hit_latency + self.config.miss_penalty,
                }
            }
        }
    }

    /// Performs the tag-array and replacement-state effects of one access
    /// without touching any statistics counter or computing a latency —
    /// the functional-warmup entry point of sampled simulation: between
    /// detailed windows the warmer keeps the tag arrays current so a
    /// resumed window sees realistic hit rates instead of cold misses.
    pub fn warm(&mut self, addr: u32) {
        let (set_idx, tag) = self.set_and_tag(addr);
        match self.probe(set_idx, tag) {
            Some(line) => {
                if self.config.replacement == Replacement::Lru {
                    self.touch_lru(set_idx, line);
                }
            }
            None => {
                self.fill(set_idx, tag);
            }
        }
    }

    /// Whether `addr`'s block is currently resident (no state change).
    pub fn contains(&self, addr: u32) -> bool {
        let (set_idx, tag) = self.set_and_tag(addr);
        self.probe(set_idx, tag).is_some()
    }

    /// Fills `tag` into `set_idx`, returning whether a valid line was
    /// evicted (the caller decides whether that counts as a statistic).
    ///
    /// Victim selection reproduces the historical per-set scan exactly:
    /// first invalid way, else last-maximal rank for LRU (ranks are a
    /// permutation, so "last maximal" is simply *the* maximum), first
    /// minimal for FIFO, xorshift64* for Random.
    fn fill(&mut self, set_idx: usize, tag: u32) -> bool {
        let assoc = self.config.associativity;
        let base = set_idx * assoc;
        let mut evicted = false;
        let victim = {
            let set_valid = &self.valid[base..base + assoc];
            if let Some(way) = set_valid.iter().position(|v| !v) {
                way
            } else {
                evicted = true;
                let ranks = &self.ranks[base..base + assoc];
                match self.config.replacement {
                    Replacement::Lru => {
                        let mut best = 0;
                        for (w, &r) in ranks.iter().enumerate() {
                            if r >= ranks[best] {
                                best = w;
                            }
                        }
                        best
                    }
                    Replacement::Fifo => {
                        let mut best = 0;
                        for (w, &r) in ranks.iter().enumerate() {
                            if r < ranks[best] {
                                best = w;
                            }
                        }
                        best
                    }
                    Replacement::Random => {
                        // xorshift64*: deterministic but well mixed.
                        self.rng_state ^= self.rng_state << 13;
                        self.rng_state ^= self.rng_state >> 7;
                        self.rng_state ^= self.rng_state << 17;
                        (self.rng_state as usize) % assoc
                    }
                }
            }
        };
        let rank = match self.config.replacement {
            Replacement::Fifo => {
                self.fifo_counter = self.fifo_counter.wrapping_add(1);
                self.fifo_counter
            }
            _ => 0,
        };
        self.tags[base + victim] = tag;
        self.ranks[base + victim] = rank;
        self.valid[base + victim] = true;
        if self.config.replacement == Replacement::Lru {
            // A freshly filled line must age every other resident line.
            self.promote(set_idx, victim, u32::MAX);
        }
        evicted
    }

    /// Zeroes the statistics counters, keeping the tag array and the
    /// replacement state.
    pub(crate) fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    fn touch_lru(&mut self, set_idx: usize, line: usize) {
        let old = self.ranks[line];
        self.promote(set_idx, line - set_idx * self.config.associativity, old);
    }

    /// Makes `way` the MRU line, aging every valid line younger than
    /// `old` — as straight-line bool arithmetic over the rank lane (an
    /// LRU touch happens on every cache hit, so this loop must not
    /// branch per way).
    fn promote(&mut self, set_idx: usize, way: usize, old: u32) {
        let base = set_idx * self.config.associativity;
        for idx in base..base + self.config.associativity {
            self.ranks[idx] += (self.valid[idx] & (self.ranks[idx] < old)) as u32;
        }
        self.ranks[base + way] = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(assoc: usize, replacement: Replacement) -> Cache {
        Cache::new(CacheConfig {
            size_bytes: 256,
            block_bytes: 32,
            associativity: assoc,
            replacement,
            hit_latency: 1,
            miss_penalty: 10,
        })
    }

    #[test]
    fn geometry_of_paper_l1() {
        let c = CacheConfig::l1_32k();
        assert_eq!(c.sets(), 32 * 1024 / 64 / 8); // 64 sets
        assert_eq!(CacheConfig::l1_32k_two_way().sets(), 256);
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny(2, Replacement::Lru);
        let a = c.access(0x100, false);
        assert!(!a.hit);
        assert_eq!(a.latency, 11);
        let b = c.access(0x100, false);
        assert!(b.hit);
        assert_eq!(b.latency, 1);
        assert_eq!(c.stats().misses(), 1);
        assert_eq!(c.stats().hits(), 1);
    }

    #[test]
    fn same_block_different_offset_hits() {
        let mut c = tiny(2, Replacement::Lru);
        c.access(0x100, false);
        assert!(c.access(0x11F, true).hit, "0x11F shares the 32-byte block");
        assert_eq!(c.stats().write_hits, 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        // 4 sets, 2 ways of 32 B. Set stride is 128 B.
        let mut c = tiny(2, Replacement::Lru);
        c.access(0x000, false); // set 0
        c.access(0x080, false); // set 0 (0x80 = 128)
        c.access(0x000, false); // touch: 0x080 is now LRU
        c.access(0x100, false); // set 0 -> evicts 0x080
        assert!(c.contains(0x000));
        assert!(!c.contains(0x080));
        assert!(c.contains(0x100));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn fifo_evicts_oldest_despite_touches() {
        let mut c = tiny(2, Replacement::Fifo);
        c.access(0x000, false);
        c.access(0x080, false);
        c.access(0x000, false); // touch does not help under FIFO
        c.access(0x100, false); // evicts 0x000 (oldest insertion)
        assert!(!c.contains(0x000));
        assert!(c.contains(0x080));
    }

    #[test]
    fn random_replacement_is_deterministic() {
        let run = || {
            let mut c = tiny(2, Replacement::Random);
            for i in 0..64u32 {
                c.access(i * 32, false);
            }
            c.stats()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn working_set_within_capacity_never_misses_after_warmup() {
        let mut c = Cache::new(CacheConfig::l1_32k());
        // 16 KB working set in a 32 KB cache.
        for round in 0..4 {
            for addr in (0..16 * 1024u32).step_by(64) {
                let r = c.access(addr, false);
                if round > 0 {
                    assert!(r.hit, "warm access to {addr:#x} must hit");
                }
            }
        }
    }

    #[test]
    fn working_set_beyond_capacity_thrashes() {
        let mut c = Cache::new(CacheConfig::l1_32k());
        // 64 KB streaming working set in a 32 KB LRU cache: every access
        // in every round misses (classic LRU streaming pathology).
        for _ in 0..3 {
            for addr in (0..64 * 1024u32).step_by(64) {
                c.access(addr, false);
            }
        }
        assert!(c.stats().hit_rate() < 0.01);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_size_panics() {
        let _ = Cache::new(CacheConfig {
            size_bytes: 3000,
            block_bytes: 64,
            associativity: 2,
            replacement: Replacement::Lru,
            hit_latency: 1,
            miss_penalty: 10,
        });
    }

    #[test]
    fn warm_leaves_same_tags_as_access_without_stats() {
        for repl in [Replacement::Lru, Replacement::Fifo, Replacement::Random] {
            let mut accessed = tiny(2, repl);
            let mut warmed = tiny(2, repl);
            // A mixing stream with reuse, conflict and eviction.
            let addrs: Vec<u32> = (0..200u32).map(|i| (i * 37) % 0x400).collect();
            for &a in &addrs {
                accessed.access(a, a % 3 == 0);
                warmed.warm(a);
            }
            assert_eq!(
                warmed.stats(),
                CacheStats::default(),
                "warm is stats-silent"
            );
            assert!(accessed.stats().accesses() > 0);
            accessed.reset_stats();
            assert_eq!(
                accessed, warmed,
                "{repl:?}: same tags and replacement state"
            );
        }
    }

    #[test]
    fn cache_stats_merge_adds() {
        let a = CacheStats {
            reads: 5,
            writes: 2,
            read_hits: 3,
            write_hits: 1,
            evictions: 1,
        };
        let m = a.merge(&a);
        assert_eq!(m.accesses(), 14);
        assert_eq!(m.hits(), 8);
        assert_eq!(m.evictions, 2);
        assert_eq!(a.merge(&CacheStats::default()), a);
    }

    #[test]
    fn stats_conservation() {
        let mut c = tiny(1, Replacement::Lru);
        for i in 0..100u32 {
            c.access(i * 8, i % 3 == 0);
        }
        let s = c.stats();
        assert_eq!(s.accesses(), 100);
        assert_eq!(s.hits() + s.misses(), 100);
    }
}
