//! The memory system seen by the engine: perfect, or split L1 I/D caches.

use crate::cache::{AccessResult, Cache, CacheConfig, CacheStats};
use resim_trace::TraceRecord;

/// Memory-system selection (paper §V.C evaluates both).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemorySystemConfig {
    /// Every access hits with the given latency (≥ 1).
    Perfect {
        /// Uniform access latency in cycles.
        latency: u32,
    },
    /// Split level-1 instruction and data caches.
    Split {
        /// Instruction cache geometry.
        l1i: CacheConfig,
        /// Data cache geometry.
        l1d: CacheConfig,
    },
}

impl MemorySystemConfig {
    /// The paper's perfect memory system (single-cycle).
    pub fn perfect() -> Self {
        MemorySystemConfig::Perfect { latency: 1 }
    }

    /// The paper's Table 1 (right) 32 KB 8-way 64 B L1 I+D configuration.
    pub fn l1_32k() -> Self {
        MemorySystemConfig::Split {
            l1i: CacheConfig::l1_32k(),
            l1d: CacheConfig::l1_32k(),
        }
    }

    /// Whether this is the perfect system.
    pub fn is_perfect(&self) -> bool {
        matches!(self, MemorySystemConfig::Perfect { .. })
    }
}

impl Default for MemorySystemConfig {
    fn default() -> Self {
        Self::perfect()
    }
}

/// Combined statistics for the memory system.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemorySystemStats {
    /// Instruction-side cache statistics (zero for perfect memory).
    pub l1i: CacheStats,
    /// Data-side cache statistics (zero for perfect memory).
    pub l1d: CacheStats,
    /// Instruction accesses under a perfect system.
    pub perfect_inst_accesses: u64,
    /// Data accesses under a perfect system.
    pub perfect_data_accesses: u64,
}

impl MemorySystemStats {
    /// Field-wise sum of two counter sets — composes the statistics of
    /// windowed runs.
    pub fn merge(&self, other: &MemorySystemStats) -> MemorySystemStats {
        MemorySystemStats {
            l1i: self.l1i.merge(&other.l1i),
            l1d: self.l1d.merge(&other.l1d),
            perfect_inst_accesses: self.perfect_inst_accesses + other.perfect_inst_accesses,
            perfect_data_accesses: self.perfect_data_accesses + other.perfect_data_accesses,
        }
    }
}

/// The memory hierarchy the timing engine consults.
///
/// `inst_access` models Fetch's I-cache probe; `data_access` models load
/// issue and store commit on the D-cache (§III: "During Fetch Instruction
/// Cache is also accessed", loads allocate a read port at Issue, stores
/// release to memory at Commit "if a memory write port is available").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemorySystem {
    config: MemorySystemConfig,
    l1i: Option<Cache>,
    l1d: Option<Cache>,
    perfect_latency: u32,
    perfect_inst: u64,
    perfect_data: u64,
}

impl MemorySystem {
    /// Builds the memory system described by `config`.
    pub fn new(config: MemorySystemConfig) -> Self {
        match config {
            MemorySystemConfig::Perfect { latency } => {
                assert!(latency >= 1, "perfect-memory latency must be at least 1");
                Self {
                    config,
                    l1i: None,
                    l1d: None,
                    perfect_latency: latency,
                    perfect_inst: 0,
                    perfect_data: 0,
                }
            }
            MemorySystemConfig::Split { l1i, l1d } => Self {
                config,
                l1i: Some(Cache::new(l1i)),
                l1d: Some(Cache::new(l1d)),
                perfect_latency: 1,
                perfect_inst: 0,
                perfect_data: 0,
            },
        }
    }

    /// The configuration this system was built with.
    pub fn config(&self) -> MemorySystemConfig {
        self.config
    }

    /// Instruction fetch probe at `pc`.
    pub fn inst_access(&mut self, pc: u32) -> AccessResult {
        match &mut self.l1i {
            Some(c) => c.access(pc, false),
            None => {
                self.perfect_inst += 1;
                AccessResult {
                    hit: true,
                    latency: self.perfect_latency,
                }
            }
        }
    }

    /// Data access at `addr` (`write = true` for stores).
    pub fn data_access(&mut self, addr: u32, write: bool) -> AccessResult {
        match &mut self.l1d {
            Some(c) => c.access(addr, write),
            None => {
                self.perfect_data += 1;
                AccessResult {
                    hit: true,
                    latency: self.perfect_latency,
                }
            }
        }
    }

    /// Applies one trace record's cache-warming effects without touching
    /// any statistics counter or computing latency — the functional-warmup
    /// entry point of sampled simulation.
    ///
    /// Every record warms the I-cache at its fetch PC; memory records
    /// additionally warm the D-cache at their effective address. Perfect
    /// memory keeps no state, so this is a no-op there.
    pub fn warm_record(&mut self, record: &TraceRecord) {
        self.warm_inst(record.pc());
        if let TraceRecord::Mem(m) = record {
            self.warm_data(m.addr);
        }
    }

    /// Warms the instruction cache at `pc` (no statistics, no latency).
    pub fn warm_inst(&mut self, pc: u32) {
        if let Some(c) = &mut self.l1i {
            c.warm(pc);
        }
    }

    /// Warms the data cache at `addr` (no statistics, no latency).
    pub fn warm_data(&mut self, addr: u32) {
        if let Some(c) = &mut self.l1d {
            c.warm(addr);
        }
    }

    /// Zeroes every counter — both caches' [`CacheStats`] and the
    /// perfect-memory access counts — keeping the tag arrays and
    /// replacement state warm. Afterwards the system equals a fresh one
    /// for the same configuration that had been warmed into the same
    /// state, which is what lets a sampled run hand one live memory
    /// system from window to window.
    pub fn reset_stats(&mut self) {
        for cache in [&mut self.l1i, &mut self.l1d].into_iter().flatten() {
            cache.reset_stats();
        }
        self.perfect_inst = 0;
        self.perfect_data = 0;
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> MemorySystemStats {
        MemorySystemStats {
            l1i: self.l1i.as_ref().map(|c| c.stats()).unwrap_or_default(),
            l1d: self.l1d.as_ref().map(|c| c.stats()).unwrap_or_default(),
            perfect_inst_accesses: self.perfect_inst,
            perfect_data_accesses: self.perfect_data,
        }
    }
}

impl Default for MemorySystem {
    fn default() -> Self {
        Self::new(MemorySystemConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_always_hits_in_one_cycle() {
        let mut m = MemorySystem::new(MemorySystemConfig::perfect());
        for i in 0..1000u32 {
            let r = m.data_access(i * 4096, i % 2 == 0);
            assert!(r.hit);
            assert_eq!(r.latency, 1);
        }
        assert_eq!(m.stats().perfect_data_accesses, 1000);
        assert_eq!(m.stats().l1d.accesses(), 0);
    }

    #[test]
    fn split_caches_are_independent() {
        let mut m = MemorySystem::new(MemorySystemConfig::l1_32k());
        // Touch the same address as both instruction and data: the two
        // caches must miss independently.
        assert!(!m.inst_access(0x4000).hit);
        assert!(!m.data_access(0x4000, false).hit);
        assert!(m.inst_access(0x4000).hit);
        assert!(m.data_access(0x4000, false).hit);
        let s = m.stats();
        assert_eq!(s.l1i.accesses(), 2);
        assert_eq!(s.l1d.accesses(), 2);
    }

    #[test]
    fn tight_loop_instruction_stream_hits() {
        let mut m = MemorySystem::new(MemorySystemConfig::l1_32k());
        // A 256-byte loop body: after the first iteration everything hits.
        for round in 0..10 {
            for pc in (0x1000u32..0x1100).step_by(4) {
                let r = m.inst_access(pc);
                if round > 0 {
                    assert!(r.hit);
                }
            }
        }
        assert!(m.stats().l1i.hit_rate() > 0.98);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_latency_perfect_panics() {
        let _ = MemorySystem::new(MemorySystemConfig::Perfect { latency: 0 });
    }

    #[test]
    fn warm_record_fills_both_sides_silently() {
        use resim_trace::{MemKind, MemRecord, MemSize, TraceRecord};
        let mut m = MemorySystem::new(MemorySystemConfig::l1_32k());
        m.warm_record(&TraceRecord::Mem(MemRecord {
            pc: 0x1000,
            addr: 0x8000,
            size: MemSize::Word,
            kind: MemKind::Load,
            base: None,
            data: None,
            wrong_path: false,
        }));
        assert_eq!(m.stats(), MemorySystemStats::default(), "warm is stats-silent");
        assert!(m.inst_access(0x1000).hit, "I-side was warmed");
        assert!(m.data_access(0x8000, false).hit, "D-side was warmed");
    }

    #[test]
    fn reset_stats_zeroes_counters_and_keeps_future_behaviour() {
        let mut warm = MemorySystem::new(MemorySystemConfig::l1_32k());
        for i in 0..100u32 {
            warm.inst_access(0x1000 + i * 64);
            warm.data_access(0x9000 + i * 32, i % 3 == 0);
        }
        let mut reset = warm.clone();
        reset.reset_stats();
        assert_eq!(reset.stats(), MemorySystemStats::default());
        for i in 0..100u32 {
            assert_eq!(
                warm.data_access(0x9000 + i * 48, false),
                reset.data_access(0x9000 + i * 48, false)
            );
        }

        let mut perfect = MemorySystem::new(MemorySystemConfig::perfect());
        perfect.inst_access(0x0);
        perfect.data_access(0x0, true);
        perfect.reset_stats();
        assert_eq!(perfect, MemorySystem::new(MemorySystemConfig::perfect()));
    }

    #[test]
    fn perfect_warm_is_a_noop() {
        let mut p = MemorySystem::new(MemorySystemConfig::perfect());
        let before = p.clone();
        p.warm_inst(0x1000);
        p.warm_data(0x8000);
        assert_eq!(p, before);
    }

    #[test]
    fn system_stats_merge_adds_both_sides() {
        let mut a = MemorySystem::new(MemorySystemConfig::l1_32k());
        a.inst_access(0x0);
        a.data_access(0x0, true);
        let s = a.stats();
        let m = s.merge(&s);
        assert_eq!(m.l1i.accesses(), 2);
        assert_eq!(m.l1d.writes, 2);
        assert_eq!(s.merge(&MemorySystemStats::default()), s);
    }
}
