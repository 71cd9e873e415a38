//! The deterministic worker-pool sweep runner.
//!
//! Work items are dispatched to plain `std::thread` workers pulling
//! indices from a shared atomic cursor; results land in a slot vector
//! indexed by cell, so the report order — and, because every cell's
//! seeding comes from the scenario definition rather than from
//! scheduling — every [`SimStats`](resim_core::SimStats) is bit-identical
//! regardless of thread count or interleaving.
//!
//! Trace generation runs as a separate phase over the *unique* trace
//! keys of the grid, so a sweep of many configurations over one
//! `(workload, seed, budget)` tuple generates (and encodes) its trace
//! exactly once, shared behind an [`Arc`] via
//! [`resim_tracegen::TraceCache`].
//!
//! Simulation then runs once per *timing point*, not once per cell.
//! Cells whose configurations differ only in the internal pipeline
//! organization simulate the same processor cycle for cycle (§IV), so
//! [`Scenario::timing_groups`] puts them in one group: the group's first
//! cell runs the engine, and every cell of the group gets that run's
//! statistics charged at its own organization's minor-cycle cost
//! ([`SimStats::with_minor_cycle_cost`](resim_core::SimStats::with_minor_cycle_cost)).
//! A `grid-deep`-shaped sweep of 8 RB sizes × 3 organizations runs 8
//! engines, not 24. Sharing is always on and changes no statistic:
//! the determinism tests compare every shared cell with its own direct
//! engine run.

use crate::report::{CellResult, SweepReport};
use crate::scenario::{CellMode, Scenario, ScenarioError};
use resim_core::Engine;
use resim_sample::{run_sampled, SampledStats};
use resim_tracegen::{TraceCache, TraceKey};
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Which phase of a sweep a [`SweepProgress`] sample describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepPhase {
    /// Phase 1: generating (and encoding) the grid's unique traces.
    Generate,
    /// Phase 2: simulating the grid cells against the shared traces.
    Simulate,
}

impl SweepPhase {
    /// Short lower-case label (`"tracegen"` / `"simulate"`).
    pub fn label(self) -> &'static str {
        match self {
            SweepPhase::Generate => "tracegen",
            SweepPhase::Simulate => "simulate",
        }
    }
}

/// A live progress sample emitted by [`SweepRunner::run_with_progress`].
///
/// One sample arrives at the start of each phase (`done == 0`) and one
/// after every completed unit of work — a generated trace in
/// [`SweepPhase::Generate`], a simulated cell in
/// [`SweepPhase::Simulate`]. Samples may be emitted from worker threads;
/// the callback must be `Sync`.
#[derive(Debug, Clone)]
pub struct SweepProgress {
    /// The phase this sample describes.
    pub phase: SweepPhase,
    /// Units of the phase completed so far.
    pub done: usize,
    /// Total units in the phase.
    pub total: usize,
    /// Trace-cache hits accumulated since the sweep started.
    pub cache_hits: u64,
    /// Trace-cache misses (i.e. traces generated) since the sweep started.
    pub cache_misses: u64,
    /// Wall time since [`SweepRunner::run_with_progress`] was called.
    pub elapsed: Duration,
    /// Naive remaining-time estimate for this phase (elapsed scaled by
    /// the remaining unit count); `None` until the first unit completes.
    pub eta: Option<Duration>,
}

/// Multi-threaded scenario-grid runner.
///
/// # Example
///
/// ```
/// use resim_core::EngineConfig;
/// use resim_sweep::{Scenario, SweepRunner, WorkloadPoint};
/// use resim_tracegen::TraceGenConfig;
/// use resim_workloads::SpecBenchmark;
///
/// let scenario = Scenario::new()
///     .config("paper-4wide", EngineConfig::paper_4wide(), TraceGenConfig::paper())
///     .workload(WorkloadPoint::spec(SpecBenchmark::Gzip))
///     .budgets([5_000])
///     .seeds([2009]);
/// let report = SweepRunner::new(2).run(&scenario).expect("valid scenario");
/// assert_eq!(report.cells.len(), 1);
/// assert!(report.cells[0].stats.ipc() > 0.0);
/// ```
#[derive(Debug)]
pub struct SweepRunner {
    threads: usize,
    cache: Arc<TraceCache>,
}

impl SweepRunner {
    /// Creates a runner with `threads` workers; `0` selects the host's
    /// available parallelism.
    pub fn new(threads: usize) -> Self {
        Self::with_cache(threads, Arc::new(TraceCache::new()))
    }

    /// Creates a runner sharing an existing trace cache — use this to
    /// reuse traces across several sweeps in one process.
    pub fn with_cache(threads: usize, cache: Arc<TraceCache>) -> Self {
        let threads = if threads == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            threads
        };
        Self { threads, cache }
    }

    /// Worker-thread count this runner uses.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The shared trace cache.
    pub fn cache(&self) -> &Arc<TraceCache> {
        &self.cache
    }

    /// Runs every cell of `scenario` and collects the report.
    ///
    /// # Errors
    ///
    /// Returns the [`ScenarioError`] from [`Scenario::validate`] without
    /// running anything.
    pub fn run(&self, scenario: &Scenario) -> Result<SweepReport, ScenarioError> {
        self.run_with_progress(scenario, |_| {})
    }

    /// Runs every cell of `scenario`, invoking `progress` with a
    /// [`SweepProgress`] sample at each phase start and after every
    /// completed unit of work.
    ///
    /// The callback may fire concurrently from worker threads (hence the
    /// `Sync` bound); each sample carries the completion count taken when
    /// its unit finished, so under concurrency samples can arrive
    /// slightly out of order. Progress reporting never influences
    /// scheduling or seeding, so the report stays bit-identical to
    /// [`SweepRunner::run`].
    ///
    /// # Errors
    ///
    /// Returns the [`ScenarioError`] from [`Scenario::validate`] without
    /// running anything.
    pub fn run_with_progress(
        &self,
        scenario: &Scenario,
        progress: impl Fn(&SweepProgress) + Sync,
    ) -> Result<SweepReport, ScenarioError> {
        scenario.validate()?;
        self.run_cells(scenario, scenario.cells(), progress)
    }

    /// Runs only the cells at `indices` (positions in
    /// [`Scenario::cells`] order), collecting a report whose cells
    /// appear in the order the indices were given.
    ///
    /// The execution machinery — worker pool, shared trace cache,
    /// definition-derived seeding — is exactly
    /// [`SweepRunner::run_with_progress`]'s, so a subset cell's
    /// [`SimStats`](resim_core::SimStats) is bit-identical to the same
    /// cell of a full run (the determinism tests state this contract).
    /// This is what `resim-serve` runs when a cached submission only
    /// misses on some cells.
    ///
    /// # Errors
    ///
    /// [`Scenario::validate`]'s error, or
    /// [`ScenarioError::CellIndex`] for an index outside the grid.
    pub fn run_subset(
        &self,
        scenario: &Scenario,
        indices: &[usize],
        progress: impl Fn(&SweepProgress) + Sync,
    ) -> Result<SweepReport, ScenarioError> {
        scenario.validate()?;
        let all = scenario.cells();
        let mut cells = Vec::with_capacity(indices.len());
        for &index in indices {
            let cell = *all.get(index).ok_or(ScenarioError::CellIndex {
                index,
                cells: all.len(),
            })?;
            cells.push(cell);
        }
        self.run_cells(scenario, cells, progress)
    }

    /// The shared execution core of [`SweepRunner::run_with_progress`]
    /// and [`SweepRunner::run_subset`]: generate the unique traces of
    /// `cells`, then simulate each cell, reporting in `cells` order.
    fn run_cells(
        &self,
        scenario: &Scenario,
        cells: Vec<crate::scenario::Cell>,
        progress: impl Fn(&SweepProgress) + Sync,
    ) -> Result<SweepReport, ScenarioError> {
        let t0 = Instant::now();
        let (hits0, misses0) = (self.cache.hits(), self.cache.misses());
        let emit = |phase: SweepPhase, done: usize, total: usize, phase_t0: Instant| {
            let phase_elapsed = phase_t0.elapsed();
            let eta = (done > 0 && done < total)
                .then(|| phase_elapsed.mul_f64((total - done) as f64 / done as f64));
            progress(&SweepProgress {
                phase,
                done,
                total,
                cache_hits: self.cache.hits() - hits0,
                cache_misses: self.cache.misses() - misses0,
                elapsed: t0.elapsed(),
                eta,
            });
        };

        // Phase 1: generate each unique trace once, in parallel.
        let mut seen = HashSet::new();
        let unique: Vec<(TraceKey, usize, u64)> = cells
            .iter()
            .filter_map(|c| {
                let key = scenario.trace_key(c);
                seen.insert(key.clone())
                    .then_some((key, c.workload, c.seed))
            })
            .collect();
        let phase_t0 = Instant::now();
        let done = AtomicUsize::new(0);
        emit(SweepPhase::Generate, 0, unique.len(), phase_t0);
        self.for_indices(unique.len(), |i| {
            let (key, workload, seed) = &unique[i];
            let point = &scenario.workloads()[*workload];
            self.cache
                .get_or_generate(key.clone(), || point.instantiate(*seed));
            let d = done.fetch_add(1, Ordering::Relaxed) + 1;
            emit(SweepPhase::Generate, d, unique.len(), phase_t0);
        });

        // Phase 2: one engine run per timing group, against its shared
        // trace; every cell of the group is that run re-costed with its
        // own pipeline's minor-cycle charge.
        let groups = scenario.timing_groups(&cells);
        let phase_t0 = Instant::now();
        let done = AtomicUsize::new(0);
        emit(SweepPhase::Simulate, 0, cells.len(), phase_t0);
        let slots: Mutex<Vec<Option<CellResult>>> = Mutex::new(vec![None; cells.len()]);
        self.for_indices(groups.len(), |g| {
            let group = &groups[g];
            let cell = &cells[group[0]];
            let cached = self
                .cache
                .get(&scenario.trace_key(cell))
                .expect("phase 1 filled every key");
            let mode = scenario.cell_mode(cell);
            let run_t0 = Instant::now();
            let run_config = &scenario.configs()[cell.config].engine;
            let (stats, sampled) = match &mode {
                CellMode::Full => {
                    let mut engine =
                        Engine::new(run_config.clone()).expect("scenario validated every config");
                    (engine.run(cached.trace.source()), None)
                }
                CellMode::Sampled(plan) => {
                    let s = run_sampled(run_config, cached.trace.source(), plan)
                        .expect("scenario validated every plan and config");
                    (s.sim, Some(s))
                }
            };
            let mut wall = run_t0.elapsed();
            for &position in group {
                let cell_t0 = Instant::now();
                let cell = &cells[position];
                let config = &scenario.configs()[cell.config];
                let cost = config.engine.minor_cycles_per_major();
                let result = CellResult {
                    config: config.name.clone(),
                    workload: scenario.workloads()[cell.workload].name.clone(),
                    mode: mode.name(),
                    budget: cell.budget,
                    seed: cell.seed,
                    stats: stats.with_minor_cycle_cost(cost),
                    sampled: sampled.clone().map(|s| SampledStats {
                        sim: s.sim.with_minor_cycle_cost(cost),
                        ..s
                    }),
                    trace_stats: cached.stats.clone(),
                    wall: wall + cell_t0.elapsed(),
                };
                // The run's time stays with the cell that ran it; the
                // others report only the time spent deriving them.
                wall = Duration::ZERO;
                slots.lock().expect("result slots poisoned")[position] = Some(result);
                let d = done.fetch_add(1, Ordering::Relaxed) + 1;
                emit(SweepPhase::Simulate, d, cells.len(), phase_t0);
            }
        });

        let cells = slots
            .into_inner()
            .expect("result slots poisoned")
            .into_iter()
            .map(|r| r.expect("every cell ran"))
            .collect();
        Ok(SweepReport {
            cells,
            threads: self.threads,
            wall: t0.elapsed(),
            trace_cache_hits: self.cache.hits() - hits0,
            trace_cache_misses: self.cache.misses() - misses0,
        })
    }

    /// Runs `work(i)` for every `i in 0..n` across the worker pool.
    ///
    /// With one thread (or one item) the work runs inline on the calling
    /// thread — the serial reference path the determinism tests compare
    /// against.
    fn for_indices(&self, n: usize, work: impl Fn(usize) + Sync) {
        let workers = self.threads.min(n);
        if workers <= 1 {
            for i in 0..n {
                work(i);
            }
            return;
        }
        let cursor = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    work(i);
                });
            }
        });
    }
}

impl Default for SweepRunner {
    fn default() -> Self {
        Self::new(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::WorkloadPoint;
    use resim_core::EngineConfig;
    use resim_tracegen::TraceGenConfig;
    use resim_workloads::SpecBenchmark;

    fn small_grid() -> Scenario {
        Scenario::new()
            .config("4wide", EngineConfig::paper_4wide(), TraceGenConfig::paper())
            .config(
                "rb32",
                EngineConfig {
                    rb_size: 32,
                    ..EngineConfig::paper_4wide()
                },
                TraceGenConfig::paper(),
            )
            .workload(WorkloadPoint::spec(SpecBenchmark::Gzip))
            .budgets([3_000])
            .seeds([2009])
    }

    #[test]
    fn shared_tracegen_generates_one_trace_for_two_configs() {
        let runner = SweepRunner::new(1);
        let report = runner.run(&small_grid()).unwrap();
        assert_eq!(report.cells.len(), 2);
        assert_eq!(report.trace_cache_misses, 1, "one unique trace key");
        for cell in &report.cells {
            assert_eq!(cell.stats.committed, 3_000);
        }
        // The bigger RB can only help.
        assert!(report.cells[1].stats.cycles <= report.cells[0].stats.cycles);
    }

    #[test]
    fn cache_reuse_across_sweeps() {
        let runner = SweepRunner::new(1);
        let first = runner.run(&small_grid()).unwrap();
        let second = runner.run(&small_grid()).unwrap();
        assert_eq!(first.trace_cache_misses, 1);
        assert_eq!(second.trace_cache_misses, 0, "second sweep generates nothing");
        assert!(second.trace_cache_hits >= 1, "second sweep reuses the trace");
    }

    #[test]
    fn zero_threads_resolves_to_host_parallelism() {
        assert!(SweepRunner::new(0).threads() >= 1);
        assert_eq!(SweepRunner::new(3).threads(), 3);
    }

    #[test]
    fn invalid_scenario_is_rejected() {
        let err = SweepRunner::new(1).run(&Scenario::new());
        assert!(err.is_err());
    }

    #[test]
    fn progress_samples_cover_both_phases() {
        let samples: Mutex<Vec<SweepProgress>> = Mutex::new(Vec::new());
        let report = SweepRunner::new(1)
            .run_with_progress(&small_grid(), |p| {
                samples.lock().unwrap().push(p.clone());
            })
            .unwrap();
        let samples = samples.into_inner().unwrap();
        // Phase starts (done == 0) plus one sample per completed unit:
        // 1 unique trace + 2 cells.
        let gen: Vec<_> = samples
            .iter()
            .filter(|p| p.phase == SweepPhase::Generate)
            .collect();
        let sim: Vec<_> = samples
            .iter()
            .filter(|p| p.phase == SweepPhase::Simulate)
            .collect();
        assert_eq!(gen.len(), 2, "start + 1 generated trace");
        assert_eq!(sim.len(), 3, "start + 2 simulated cells");
        assert_eq!(gen.last().unwrap().done, 1);
        assert_eq!(gen.last().unwrap().total, 1);
        assert_eq!(sim.last().unwrap().done, 2);
        assert_eq!(sim.last().unwrap().total, 2);
        assert_eq!(sim.last().unwrap().cache_misses, 1);
        assert!(sim.last().unwrap().eta.is_none(), "no eta once the phase is done");
        assert_eq!(sim[1].done, 1);
        assert!(sim[1].eta.is_some(), "mid-phase samples estimate the remainder");
        assert_eq!(SweepPhase::Generate.label(), "tracegen");
        assert_eq!(SweepPhase::Simulate.label(), "simulate");
        // Reporting must not change results.
        assert_eq!(report.cells.len(), 2);
        let plain = SweepRunner::new(1).run(&small_grid()).unwrap();
        assert_eq!(report.cells[0].stats.digest(), plain.cells[0].stats.digest());
    }
}
