//! The ReSim timing engine: a cycle-accurate, trace-driven model of an
//! out-of-order, speculative ILP processor (§III).
//!
//! One call to [`Engine::run`] replays a pre-decoded trace through the
//! simulated pipeline and returns `sim-outorder`-style statistics. The
//! engine itself is a thin shell with one cycle loop: the
//! microarchitectural structures live in [`CoreState`], and the
//! [`MinorCycleScheduler`] holds the six pipeline stages, calls them
//! directly in the fixed evaluation order and does the per-organization
//! minor-cycle accounting (Figures 2–4). Trace records arrive through
//! the ring-buffered, batch-decoding [`TraceCursor`].
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

use crate::checkpoint::{Checkpoint, ResumeError};
use crate::config::{ConfigError, EngineConfig};
use crate::cursor::TraceCursor;
use crate::scheduler::MinorCycleScheduler;
use crate::state::CoreState;
use crate::stats::SimStats;
use resim_obs::{NullRecorder, Recorder};
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
/// The engine is generic over an instrumentation [`Recorder`]
/// (defaulting to the no-op [`NullRecorder`], which compiles every hook
/// away). Attach a collecting recorder with [`Engine::with_recorder`];
/// recorders only observe, so instrumented statistics stay bit-identical
/// to the default engine's.
#[derive(Debug)]
pub struct Engine<R: Recorder = NullRecorder> {
    state: CoreState<R>,
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
    /// Builds an engine for `config` with the no-op [`NullRecorder`].
    ///
    /// # Errors
    ///
    /// Returns the [`ConfigError`] from [`EngineConfig::validate`] on
    /// structural inconsistencies.
    pub fn new(config: EngineConfig) -> Result<Self, ConfigError> {
        Self::with_recorder(config, NullRecorder)
    }

    /// Builds a fresh engine whose predictor and memory system start from
    /// `checkpoint`'s warm state instead of cold tables.
    ///
    /// Statistics, the cycle counter and the pipeline all start from
    /// zero, so the stats of a resumed window compose with other windows
    /// through [`SimStats::merge`].
    ///
    /// # Errors
    ///
    /// [`ResumeError`] if `config` is structurally invalid or the
    /// checkpoint was taken under a different predictor/memory geometry.
    pub fn resume_from(config: EngineConfig, checkpoint: &Checkpoint) -> Result<Self, ResumeError> {
        let mut engine = Engine::new(config)?;
        engine.state.restore(checkpoint)?;
        Ok(engine)
    }
}

impl<R: Recorder> Engine<R> {
    /// Builds an engine for `config` emitting instrumentation into
    /// `recorder`.
    ///
    /// # Errors
    ///
    /// Returns the [`ConfigError`] from [`EngineConfig::validate`] on
    /// structural inconsistencies.
    pub fn with_recorder(config: EngineConfig, recorder: R) -> Result<Self, ConfigError> {
        let state = CoreState::with_recorder(config, recorder)?;
        let scheduler = MinorCycleScheduler::new(&state.config)?;
        Ok(Self { state, scheduler })
    }

    /// The attached instrumentation recorder.
    pub fn recorder(&self) -> &R {
        self.state.recorder()
    }

    /// Consumes the engine, returning the recorder with everything it
    /// collected.
    pub fn into_recorder(self) -> R {
        self.state.recorder
    }

    /// The configuration this engine runs.
    pub fn config(&self) -> &EngineConfig {
        self.state.config()
    }

    /// The shared stage state (read-only; stages mutate it through the
    /// scheduler).
    pub fn state(&self) -> &CoreState<R> {
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
        while cursor.consumed() < target {
            if cursor.peek().is_none() && self.state.is_drained() {
                break;
            }
            self.step(cursor);
            self.check_watchdog();
        }
        self.stats()
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
        while self.state.cycle() < max_cycles {
            if cursor.peek().is_none() && self.state.is_drained() {
                break;
            }
            self.step(cursor);
            self.check_watchdog();
        }
        self.stats()
    }

    /// Advances one simulated (major) cycle: the scheduler evaluates the
    /// stage roster, then the state closes the cycle with occupancy and
    /// minor-cycle accounting.
    fn step<S: TraceSource>(&mut self, cursor: &mut TraceCursor<S>) {
        let minors = self.scheduler.step(&mut self.state, cursor);
        self.state.finish_cycle(minors);
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

    /// Captures the warm microarchitectural state as a serializable
    /// [`Checkpoint`] — see [`CoreState::snapshot`].
    pub fn snapshot(&self) -> Checkpoint {
        self.state.snapshot()
    }
}
