//! Best-of-N host timing, shared by `bench_guard` and `throughput_table`.
//!
//! Every host-speed number this crate reports is the *best* of N runs,
//! not the mean: on a busy host the mean is dominated by scheduling
//! noise while the best run converges quickly on what the code can do.

use resim_core::{Engine, EngineConfig, SimStats};
use resim_trace::{save_trace_file, EncodedTrace, FileSource, Trace, TraceFileHeader};
use resim_tracegen::{generate_trace, TraceGenConfig};
use resim_workloads::{SpecBenchmark, Workload};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Times `work` `runs` times and returns the best rate, in items per
/// second. `work` returns how many items it processed.
///
/// # Panics
///
/// Panics if a run processes no items: a timed run must make progress.
pub fn best_rate(runs: usize, mut work: impl FnMut() -> u64) -> f64 {
    (0..runs).fold(0.0f64, |best, _| {
        let start = Instant::now();
        let items = work();
        let secs = start.elapsed().as_secs_f64();
        assert!(items > 0, "a timed run must make progress");
        best.max(items as f64 / secs)
    })
}

/// The two ways a trace reaches the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Frontend {
    /// Pre-decoded records in memory (`Trace::source`).
    Slice,
    /// The v1 on-disk container, decoded on the fly through a buffered
    /// reader (`FileSource`).
    File,
}

impl Frontend {
    /// Every frontend, cheapest supply first.
    pub const ALL: [Frontend; 2] = [Frontend::Slice, Frontend::File];

    /// The frontend's name in tables and in `BENCH_BASELINE.json`.
    pub fn name(self) -> &'static str {
        match self {
            Frontend::Slice => "slice",
            Frontend::File => "file",
        }
    }
}

/// One generated trace in three forms: the record slice, the v1
/// encoding and a container file of it in the temp directory, which is
/// removed when the value is dropped (a panicking run included).
#[derive(Debug)]
pub struct SuppliedTrace {
    /// The records.
    pub trace: Trace,
    /// The v1 encoding of `trace`.
    pub encoded: EncodedTrace,
    path: PathBuf,
}

impl SuppliedTrace {
    /// Generates `records` correct-path records of `benchmark` (seed
    /// [`DEFAULT_SEED`](crate::DEFAULT_SEED)) under `tracegen`, encodes
    /// them and writes the container file.
    ///
    /// # Panics
    ///
    /// Panics if the container file cannot be written.
    pub fn generate(benchmark: SpecBenchmark, records: usize, tracegen: &TraceGenConfig) -> Self {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let seed = crate::DEFAULT_SEED;
        let trace = generate_trace(Workload::spec(benchmark, seed), records, tracegen);
        let encoded = trace.encode();
        let header = TraceFileHeader::for_trace(&encoded, benchmark.name(), seed, 0)
            .with_correct_records(trace.correct_path_len() as u64);
        let path = std::env::temp_dir().join(format!(
            "resim-bench-{}-{}-{}.trace",
            benchmark.name(),
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        save_trace_file(&path, &header, &encoded).expect("write bench trace");
        Self {
            trace,
            encoded,
            path,
        }
    }

    /// Runs a fresh engine configured as `config` over the trace through
    /// `frontend`.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid or the container file is unreadable.
    pub fn run(&self, config: &EngineConfig, frontend: Frontend) -> SimStats {
        let mut engine = Engine::new(config.clone()).expect("valid bench configuration");
        match frontend {
            Frontend::Slice => engine.run(self.trace.source()),
            Frontend::File => {
                engine.run(FileSource::open(&self.path).expect("bench trace readable"))
            }
        }
    }

    /// Best-of-`runs` committed records per second of `config` on this
    /// trace through `frontend`.
    pub fn engine_rate(&self, config: &EngineConfig, frontend: Frontend, runs: usize) -> f64 {
        best_rate(runs, || self.run(config, frontend).committed)
    }
}

impl Drop for SuppliedTrace {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_container_file_is_removed_on_drop() {
        let supplied = SuppliedTrace::generate(SpecBenchmark::Gzip, 500, &TraceGenConfig::paper());
        let path = supplied.path.clone();
        assert!(path.exists());
        drop(supplied);
        assert!(
            !path.exists(),
            "{} outlived its SuppliedTrace",
            path.display()
        );
    }

    #[test]
    #[should_panic(expected = "must make progress")]
    fn best_rate_rejects_a_run_without_progress() {
        best_rate(1, || 0);
    }
}
