//! The ReSim timing engine: a cycle-accurate, trace-driven model of an
//! out-of-order, speculative ILP processor (§III).
//!
//! One call to [`Engine::run`] replays a pre-decoded trace through the
//! simulated pipeline and returns `sim-outorder`-style statistics. The
//! engine itself is a thin shell with one cycle loop: the
//! microarchitectural structures live in [`CoreState`], and the
//! [`MinorCycleScheduler`] holds the six pipeline stages and calls them
//! directly in the fixed evaluation order. The per-organization
//! minor-cycle cost (Figures 2–4) is fixed at construction and charged
//! when statistics are read ([`SimStats::with_minor_cycle_cost`]).
//! Trace records arrive through the ring-buffered, batch-decoding
//! [`TraceCursor`].
//!
//! ## Mis-speculation
//!
//! The trace carries wrong-path blocks after mispredicted branches
//! (§V.A). On fetching an untagged branch followed by tagged records the
//! engine enters wrong-path mode: it keeps fetching (and executing) the
//! tagged instructions, polluting caches and occupying resources. When
//! the branch writes back, the engine squashes every younger in-flight
//! instruction, discards the block's unfetched remainder, pays the
//! misprediction penalty and resumes on the correct path (see
//! [`CoreState::recover`] — the cross-cutting part of Writeback).

use crate::config::{ConfigError, EngineConfig};
use crate::cursor::TraceCursor;
use crate::scheduler::MinorCycleScheduler;
use crate::state::CoreState;
use crate::stats::SimStats;
use resim_bpred::BranchPredictor;
use resim_mem::MemorySystem;
use resim_obs::MetricsRecorder;
use resim_trace::TraceSource;

/// Cycles without a commit (while work is in flight) after which the
/// engine assumes a model deadlock and panics with diagnostics.
const WATCHDOG_CYCLES: u64 = 200_000;

/// The ReSim engine simulating one processor core: a [`CoreState`]
/// stepped by a [`MinorCycleScheduler`].
///
/// # Example
///
/// ```
/// use resim_core::{Engine, EngineConfig};
/// use resim_tracegen::{generate_trace, TraceGenConfig};
/// use resim_workloads::{SpecBenchmark, Workload};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let trace = generate_trace(
///     Workload::spec(SpecBenchmark::Gzip, 1),
///     20_000,
///     &TraceGenConfig::paper(),
/// );
/// let mut engine = Engine::new(EngineConfig::paper_4wide())?;
/// let stats = engine.run(trace.source());
/// assert_eq!(stats.committed, 20_000);
/// assert!(stats.ipc() > 0.5 && stats.ipc() <= 4.0);
/// # Ok(())
/// # }
/// ```
///
/// [`Engine::observed`] builds an engine with a [`MetricsRecorder`]
/// attached; the recorder only observes, so observed statistics stay
/// bit-identical to an unobserved engine's.
#[derive(Debug)]
pub struct Engine {
    state: CoreState,
    scheduler: MinorCycleScheduler,
}

// The sweep runner (`resim-sweep`) moves engines and their results across
// worker threads; keep that contract checked at compile time.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Engine>();
    assert_send::<SimStats>();
    assert_send::<EngineConfig>();
};

impl Engine {
    /// Builds an engine for `config`.
    ///
    /// # Errors
    ///
    /// Returns the [`ConfigError`] from [`EngineConfig::validate`] on
    /// structural inconsistencies.
    pub fn new(config: EngineConfig) -> Result<Self, ConfigError> {
        let state = CoreState::new(config)?;
        let scheduler = MinorCycleScheduler::new(&state.config)?;
        Ok(Self { state, scheduler })
    }

    /// Builds an engine for `config` that feeds `recorder` as it runs:
    /// rare events as they happen, and each cycle's stage operations,
    /// stage wall times and occupancy at its end.
    ///
    /// # Errors
    ///
    /// As [`Engine::new`].
    pub fn observed(config: EngineConfig, recorder: MetricsRecorder) -> Result<Self, ConfigError> {
        let mut engine = Self::new(config)?;
        engine.state.recorder = Some(Box::new(recorder));
        Ok(engine)
    }

    /// The attached recorder, if the engine is [observed](Engine::observed).
    pub fn recorder(&self) -> Option<&MetricsRecorder> {
        self.state.recorder()
    }

    /// Consumes the engine, returning the attached recorder with
    /// everything it collected.
    pub fn into_recorder(self) -> Option<MetricsRecorder> {
        self.state.recorder.map(|recorder| *recorder)
    }

    /// Builds an engine around a warm `predictor` and `memory` system
    /// instead of cold ones — the objects move in, their tables untouched.
    ///
    /// Every counter of the two objects is zeroed on the way in, and the
    /// statistics, the cycle counter and the pipeline all start from
    /// zero, so the engine is exactly a fresh one whose tables had been
    /// trained to the handed-in state, and the stats of a resumed window
    /// compose with other windows through [`SimStats::merge`].
    /// [`Engine::into_warm`] hands the objects back.
    ///
    /// # Errors
    ///
    /// The [`ConfigError`] from [`EngineConfig::validate`], or
    /// [`ConfigError::WarmStateMismatch`] if either object was built for
    /// a different configuration than `config`'s.
    pub fn resume(
        config: EngineConfig,
        mut predictor: BranchPredictor,
        mut memory: MemorySystem,
    ) -> Result<Self, ConfigError> {
        config.validate()?;
        if predictor.config() != config.predictor || memory.config() != config.memory {
            return Err(ConfigError::WarmStateMismatch);
        }
        predictor.reset_stats();
        memory.reset_stats();
        let state = CoreState::from_parts(config, predictor, memory);
        let scheduler = MinorCycleScheduler::new(&state.config)?;
        Ok(Self { state, scheduler })
    }

    /// The configuration this engine runs.
    pub fn config(&self) -> &EngineConfig {
        self.state.config()
    }

    /// The shared stage state (read-only; stages mutate it through the
    /// scheduler).
    pub fn state(&self) -> &CoreState {
        &self.state
    }

    /// The minor-cycle scheduler: stage roster, evaluation order and
    /// per-stage activity totals.
    pub fn scheduler(&self) -> &MinorCycleScheduler {
        &self.scheduler
    }

    /// Statistics so far.
    pub fn stats(&self) -> SimStats {
        self.state.stats()
    }

    /// Runs the trace to completion (source exhausted and pipeline
    /// drained) and returns the final statistics.
    ///
    /// # Panics
    ///
    /// Panics if the model deadlocks (no commit for a very long time
    /// while instructions are in flight) — this indicates a bug, not a
    /// property of any input.
    pub fn run(&mut self, source: impl TraceSource) -> SimStats {
        self.run_for(source, u64::MAX)
    }

    /// Runs for at most `max_cycles` simulated cycles.
    ///
    /// The cursor built over `source` reads ahead in batches; if the
    /// cycle budget stops the run early, records already decoded into
    /// the ring are dropped with it (the statistics only ever count
    /// records the engine consumed).
    pub fn run_for(&mut self, source: impl TraceSource, max_cycles: u64) -> SimStats {
        let mut cursor = TraceCursor::new(source);
        self.drain_for(&mut cursor, max_cycles)
    }

    /// Runs until at least `records` further trace records have entered
    /// the engine, then returns **without draining the pipeline** —
    /// in-flight instructions stay in flight and continue in the next
    /// `run_window` (or [`Engine::drain`]) call on the same cursor.
    ///
    /// Because fetch groups are atomic, the window may overshoot the
    /// record budget by up to a fetch group (plus any wrong-path records
    /// discarded at a recovery inside the final cycle); read
    /// [`TraceCursor::consumed`] for the exact position. A sequence of
    /// `run_window` calls followed by one `drain` executes the **exact**
    /// cycle-by-cycle sequence of a single [`Engine::run`] — this is the
    /// contiguous fast path of 100 %-coverage sampled simulation, and the
    /// per-window statistics are deltas of [`Engine::stats`] between
    /// calls.
    ///
    /// Returns the cumulative statistics so far (not the window's delta).
    pub fn run_window<S: TraceSource>(
        &mut self,
        cursor: &mut TraceCursor<S>,
        records: u64,
    ) -> SimStats {
        let target = cursor.consumed().saturating_add(records);
        self.step_until(cursor, target, u64::MAX)
    }

    /// Runs until the cursor is exhausted and the pipeline is empty —
    /// the closing counterpart of [`Engine::run_window`].
    pub fn drain<S: TraceSource>(&mut self, cursor: &mut TraceCursor<S>) -> SimStats {
        self.drain_for(cursor, u64::MAX)
    }

    fn drain_for<S: TraceSource>(
        &mut self,
        cursor: &mut TraceCursor<S>,
        max_cycles: u64,
    ) -> SimStats {
        self.step_until(cursor, u64::MAX, max_cycles)
    }

    /// The one cycle loop: steps until the cursor has consumed
    /// `records` records in total or the cycle counter reaches
    /// `max_cycles`, or the cursor is exhausted and the pipeline is
    /// empty, and returns the statistics. The limits are values, not a
    /// closure, so the loop is compiled once per trace source.
    fn step_until<S: TraceSource>(
        &mut self,
        cursor: &mut TraceCursor<S>,
        records: u64,
        max_cycles: u64,
    ) -> SimStats {
        while cursor.consumed() < records && self.state.cycle < max_cycles {
            if cursor.peek().is_none() && self.state.is_drained() {
                break;
            }
            self.step(cursor);
            self.check_watchdog();
        }
        self.stats()
    }

    /// Advances one simulated (major) cycle: the scheduler evaluates the
    /// stage roster, then the state closes the cycle with occupancy
    /// accounting.
    fn step<S: TraceSource>(&mut self, cursor: &mut TraceCursor<S>) {
        self.scheduler.step(&mut self.state, cursor);
        self.state.finish_cycle();
    }

    fn check_watchdog(&self) {
        let s = &self.state;
        if !s.rob.is_empty() && s.cycle - s.last_commit_cycle > WATCHDOG_CYCLES {
            panic!(
                "engine deadlock: no commit since cycle {} (now {}); head = {:?}",
                s.last_commit_cycle,
                s.cycle,
                s.rob.head()
            );
        }
    }

    /// Consumes the engine, handing back its live predictor and memory
    /// system — the counterpart of [`Engine::resume`]. Call it on a
    /// drained engine: the objects carry the tables as the run left them,
    /// wrong-path pollution included, and their counters still hold the
    /// run's counts until the next [`Engine::resume`] zeroes them.
    pub fn into_warm(self) -> (BranchPredictor, MemorySystem) {
        (self.state.predictor, self.state.memory)
    }
}
