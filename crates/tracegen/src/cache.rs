//! An in-memory, thread-safe cache of generated traces.
//!
//! Batch sweeps replay the *same* tagged trace through many engine
//! configurations — the paper's bulk-simulation mode ("prepared off-line,
//! for example for bulk simulations with varying design parameters",
//! §V.A). Generating the trace once per design *grid* instead of once per
//! design *point* removes the dominant redundant cost of such sweeps, so
//! the cache stores each trace behind an [`Arc`] keyed on everything that
//! determines its content: the workload identity, the workload seed, the
//! correct-path instruction budget and the full [`TraceGenConfig`].
//!
//! The cache belongs to whoever drives the generation — a
//! `resim-sweep` runner, which fills it in its phase 1 from sweep worker
//! threads and reads it in phase 2 — and lives as long as they keep it:
//! one sweep, one CLI invocation with preloaded trace files
//! ([`TraceCache::insert`]), or a `resim-serve` process serving many
//! submissions. Keys that share `(workload, seed, n_correct)` share their
//! correct path, so one cached trace of such a point yields the others
//! by re-tagging [`CachedTrace::correct_path`] instead of walking the
//! workload again; the runner fills them that way.
//!
//! Generation is deterministic, which gives the cache a simple
//! correctness story: two racing generators for the same key produce
//! bit-identical traces, so whichever insert wins, every consumer
//! observes the same records. The trace's encoded-size statistics
//! ([`TraceStats`]) ride along, computed once at insertion; they are a
//! cheap closed-form walk over the records, so caching the trace is
//! what saves the work.

use crate::TraceGenConfig;
use resim_trace::{Trace, TraceStats};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Everything that determines a generated trace's content.
///
/// `workload` is the workload's declared name plus whatever distinguishes
/// instances of it (callers using custom profiles must ensure distinct
/// names for distinct profiles — the cache cannot see profile internals).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TraceKey {
    /// Workload identity (e.g. `"gzip"`).
    pub workload: String,
    /// Workload stream seed.
    pub seed: u64,
    /// Correct-path instruction budget passed to generation.
    pub n_correct: usize,
    /// The full generation configuration (predictor, block length, seed).
    pub config: TraceGenConfig,
}

/// A generated trace plus its once-computed encoded statistics.
#[derive(Debug, Clone)]
pub struct CachedTrace {
    /// The tagged trace.
    pub trace: Trace,
    /// Encoded-size statistics (bits per instruction etc.).
    pub stats: TraceStats,
}

impl CachedTrace {
    /// Generates and packages one trace for `key` from `stream`.
    pub fn generate(
        key: &TraceKey,
        stream: impl IntoIterator<Item = resim_trace::TraceRecord>,
    ) -> Self {
        let trace = crate::generate_trace(stream, key.n_correct, &key.config);
        let stats = trace.stats();
        Self { trace, stats }
    }

    /// The trace's correct path: its untagged records, in order.
    ///
    /// Tagging passes correct-path records through untouched, so for a
    /// trace generated under budget `n` these are the first `n` records
    /// of its stream. Generating from them under any other
    /// [`TraceGenConfig`] with the same budget therefore gives exactly
    /// the trace generating from the stream would, without walking the
    /// workload again.
    pub fn correct_path(&self) -> impl Iterator<Item = resim_trace::TraceRecord> + '_ {
        self.trace.records().iter().filter(|r| !r.wrong_path()).copied()
    }
}

/// Thread-safe map from [`TraceKey`] to [`Arc`]-shared traces.
#[derive(Debug, Default)]
pub struct TraceCache {
    map: Mutex<HashMap<TraceKey, Arc<CachedTrace>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl TraceCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Looks up `key`, or generates via `stream` on a miss.
    ///
    /// The lock is *not* held while generating, so concurrent workers
    /// filling different keys proceed in parallel. Two workers racing on
    /// the same key may both generate; generation is deterministic, the
    /// first insert wins, and both receive the same shared trace content.
    pub fn get_or_generate<I>(&self, key: TraceKey, stream: impl FnOnce() -> I) -> Arc<CachedTrace>
    where
        I: IntoIterator<Item = resim_trace::TraceRecord>,
    {
        if let Some(hit) = self.map.lock().expect("trace cache poisoned").get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(hit);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let generated = Arc::new(CachedTrace::generate(&key, stream()));
        Arc::clone(
            self.map
                .lock()
                .expect("trace cache poisoned")
                .entry(key)
                .or_insert(generated),
        )
    }

    /// Looks up `key` without generating.
    pub fn get(&self, key: &TraceKey) -> Option<Arc<CachedTrace>> {
        self.map.lock().expect("trace cache poisoned").get(key).map(Arc::clone)
    }

    /// Pre-populates the cache with an externally obtained trace — e.g.
    /// one decoded from an on-disk container
    /// ([`resim_trace::FileSource`]) so a sweep replays the file instead
    /// of regenerating. Subsequent `get_or_generate` calls on `key` are
    /// hits; the insert itself counts as neither hit nor miss.
    ///
    /// The caller asserts that `trace` is what generation under `key`
    /// would produce (generation is deterministic, so a file written
    /// from the same key qualifies); an earlier entry for the same key
    /// wins, mirroring the racing-generator rule.
    pub fn insert(&self, key: TraceKey, trace: Trace) -> Arc<CachedTrace> {
        let stats = trace.stats();
        let cached = Arc::new(CachedTrace { trace, stats });
        Arc::clone(
            self.map
                .lock()
                .expect("trace cache poisoned")
                .entry(key)
                .or_insert(cached),
        )
    }

    /// Number of traces currently cached.
    pub fn len(&self) -> usize {
        self.map.lock().expect("trace cache poisoned").len()
    }

    /// Whether the cache holds no traces.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups satisfied from the cache so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to generate so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Drops every cached trace (counters are kept).
    pub fn clear(&self) {
        self.map.lock().expect("trace cache poisoned").clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resim_workloads::{SpecBenchmark, Workload};

    fn key(seed: u64) -> TraceKey {
        TraceKey {
            workload: "gzip".into(),
            seed,
            n_correct: 2_000,
            config: TraceGenConfig::paper(),
        }
    }

    #[test]
    fn hit_returns_same_allocation() {
        let cache = TraceCache::new();
        let a = cache.get_or_generate(key(1), || Workload::spec(SpecBenchmark::Gzip, 1));
        let b = cache.get_or_generate(key(1), || Workload::spec(SpecBenchmark::Gzip, 1));
        assert!(Arc::ptr_eq(&a, &b), "second lookup must share the first trace");
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_keys_generate_distinct_traces() {
        let cache = TraceCache::new();
        let a = cache.get_or_generate(key(1), || Workload::spec(SpecBenchmark::Gzip, 1));
        let b = cache.get_or_generate(key(2), || Workload::spec(SpecBenchmark::Gzip, 2));
        assert!(!Arc::ptr_eq(&a, &b));
        assert_ne!(a.trace, b.trace, "different seeds must differ");
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn cached_stats_match_trace() {
        let cache = TraceCache::new();
        let a = cache.get_or_generate(key(3), || Workload::spec(SpecBenchmark::Gzip, 3));
        assert_eq!(a.stats, a.trace.stats());
        assert_eq!(a.trace.correct_path_len(), 2_000);
    }

    #[test]
    fn concurrent_fill_converges_to_one_entry_per_key() {
        let cache = Arc::new(TraceCache::new());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let cache = Arc::clone(&cache);
                s.spawn(move || {
                    for seed in 0..4 {
                        let t = cache
                            .get_or_generate(key(seed), move || {
                                Workload::spec(SpecBenchmark::Gzip, seed)
                            });
                        assert_eq!(t.trace.correct_path_len(), 2_000);
                    }
                });
            }
        });
        assert_eq!(cache.len(), 4);
        assert_eq!(cache.hits() + cache.misses(), 16);
    }

    #[test]
    fn clear_empties_but_keeps_counters() {
        let cache = TraceCache::new();
        cache.get_or_generate(key(1), || Workload::spec(SpecBenchmark::Gzip, 1));
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.misses(), 1);
        assert!(cache.get(&key(1)).is_none());
    }
}
