//! [`CoreState`]: the shared microarchitectural state every pipeline
//! stage operates on.
//!
//! The stage units in [`crate::stages`] are deliberately stateless where
//! the hardware is stateless: everything a stage reads or writes that
//! outlives one minor cycle — the rename table, IFQ, Reorder Buffer,
//! LSQ, branch predictor, memory system and the statistics counters —
//! lives here, exactly as Figure 1 draws the structures *between* the
//! stages rather than inside them. The minor-cycle scheduler
//! ([`crate::MinorCycleScheduler`]) hands each stage a `&mut CoreState`;
//! the stages communicate only through it.

use crate::checkpoint::{Checkpoint, ResumeError};
use crate::config::{ConfigError, EngineConfig};
use crate::cursor::TraceCursor;
use crate::lsq::LoadStoreQueue;
use crate::rob::ReorderBuffer;
use crate::stats::SimStats;
use resim_bpred::BranchPredictor;
use resim_mem::MemorySystem;
use resim_obs::{Counter, EventKind, Gauge, Hist, NullRecorder, Recorder};
use resim_trace::{TraceRecord, TraceSource};
use std::collections::VecDeque;

/// An IFQ slot: a fetched record plus fetch-time metadata.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FetchedInst {
    pub(crate) record: TraceRecord,
    /// The trace marks this branch as direction-mispredicted.
    pub(crate) mispredicted: bool,
}

/// The microarchitectural state of one simulated core, shared by every
/// pipeline stage.
///
/// Owns the structures of the paper's Figure 1 — IFQ, rename table,
/// Reorder Buffer, Load/Store Queue, branch predictor, memory system —
/// plus the cycle counters and statistics. [`Engine`](crate::Engine) is
/// a thin shell around one `CoreState` and one scheduler; checkpointing
/// ([`CoreState::snapshot`] / [`CoreState::restore`]) operates directly
/// on this state.
///
/// The state is generic over the instrumentation [`Recorder`] it emits
/// into, defaulting to the no-op [`NullRecorder`]: every hook
/// monomorphizes away in the default engine, and a recorder only ever
/// observes — it never feeds back into simulated state, which is what
/// keeps instrumented and uninstrumented runs bit-identical.
#[derive(Debug)]
pub struct CoreState<R: Recorder = NullRecorder> {
    /// The instrumentation sink (no-op unless a collecting recorder is
    /// attached via [`Engine::with_recorder`](crate::Engine::with_recorder)).
    pub(crate) recorder: R,
    pub(crate) config: EngineConfig,
    pub(crate) predictor: BranchPredictor,
    pub(crate) memory: MemorySystem,
    pub(crate) rob: ReorderBuffer,
    pub(crate) lsq: LoadStoreQueue,
    /// Architectural register → producing age tag.
    pub(crate) rename: [Option<u64>; 64],
    pub(crate) ifq: VecDeque<FetchedInst>,
    pub(crate) cycle: u64,
    /// Minor cycles the engine has spent, accumulated per major cycle
    /// from the scheduler's grid — not derived from a closed-form
    /// formula at read time.
    pub(crate) minor_cycles: u64,
    pub(crate) next_seq: u64,
    /// Fetch is allowed again once `cycle >= fetch_stall_until`.
    pub(crate) fetch_stall_until: u64,
    /// Fetch is inside a wrong-path block awaiting branch resolution.
    pub(crate) in_wrong_path: bool,
    pub(crate) stats: SimStats,
    pub(crate) last_commit_cycle: u64,
}

impl CoreState {
    /// Builds cold state for `config` with the no-op recorder.
    ///
    /// # Errors
    ///
    /// Returns the [`ConfigError`] from [`EngineConfig::validate`] on
    /// structural inconsistencies.
    pub fn new(config: EngineConfig) -> Result<Self, ConfigError> {
        Self::with_recorder(config, NullRecorder)
    }
}

impl<R: Recorder> CoreState<R> {
    /// Builds cold state for `config` emitting into `recorder`.
    ///
    /// # Errors
    ///
    /// Returns the [`ConfigError`] from [`EngineConfig::validate`] on
    /// structural inconsistencies.
    pub fn with_recorder(config: EngineConfig, recorder: R) -> Result<Self, ConfigError> {
        config.validate()?;
        Ok(Self {
            recorder,
            predictor: BranchPredictor::new(config.predictor),
            memory: MemorySystem::new(config.memory),
            rob: ReorderBuffer::new(config.rb_size),
            lsq: LoadStoreQueue::new(config.lsq_size),
            rename: [None; 64],
            ifq: VecDeque::with_capacity(config.ifq_size),
            cycle: 0,
            minor_cycles: 0,
            next_seq: 1,
            fetch_stall_until: 0,
            in_wrong_path: false,
            stats: SimStats::default(),
            last_commit_cycle: 0,
            config,
        })
    }

    /// The configuration this state was built for.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The attached instrumentation recorder.
    pub fn recorder(&self) -> &R {
        &self.recorder
    }

    /// Simulated (major) cycles elapsed.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Whether the pipeline holds no in-flight work (IFQ and RB empty).
    pub fn is_drained(&self) -> bool {
        self.ifq.is_empty() && self.rob.is_empty()
    }

    /// Statistics so far, with the live component counters folded in.
    pub fn stats(&self) -> SimStats {
        let mut s = self.stats;
        s.cycles = self.cycle;
        s.minor_cycles = self.minor_cycles;
        s.predictor = self.predictor.stats();
        s.memory = self.memory.stats();
        s.load_forwards = self.lsq.forwards();
        s
    }

    /// End-of-major-cycle bookkeeping: occupancy statistics, then the
    /// cycle counters advance (`minor_cycles` by whatever the scheduler
    /// charged for the cycle just executed).
    pub(crate) fn finish_cycle(&mut self, minor_cycles: u64) {
        self.stats.ifq_occupancy_sum += self.ifq.len() as u64;
        self.stats.rb_occupancy_sum += self.rob.len() as u64;
        self.stats.lsq_occupancy_sum += self.lsq.len() as u64;
        self.stats.ifq_occupancy_max = self.stats.ifq_occupancy_max.max(self.ifq.len() as u64);
        self.stats.rb_occupancy_max = self.stats.rb_occupancy_max.max(self.rob.len() as u64);
        self.stats.lsq_occupancy_max = self.stats.lsq_occupancy_max.max(self.lsq.len() as u64);
        if R::ENABLED {
            let (ifq, rb, lsq) = (self.ifq.len() as u64, self.rob.len() as u64, self.lsq.len() as u64);
            self.recorder.gauge(Gauge::IfqOccupancy, ifq);
            self.recorder.gauge(Gauge::RbOccupancy, rb);
            self.recorder.gauge(Gauge::LsqOccupancy, lsq);
            self.recorder.event(
                self.cycle,
                EventKind::Occupancy {
                    ifq: ifq.min(u64::from(u16::MAX)) as u16,
                    rb: rb.min(u64::from(u16::MAX)) as u16,
                    lsq: lsq.min(u64::from(u16::MAX)) as u16,
                },
            );
        }
        self.cycle += 1;
        self.minor_cycles += minor_cycles;
    }

    /// Misprediction recovery at branch writeback: squash younger
    /// instructions, discard the unfetched block remainder, pay the
    /// penalty, resume correct-path fetch.
    ///
    /// Invoked by the Writeback stage; lives on `CoreState` because it
    /// cuts across every structure at once (RB, LSQ, IFQ, rename table,
    /// the trace cursor and the fetch throttle).
    pub(crate) fn recover<S: TraceSource>(
        &mut self,
        branch_seq: u64,
        cursor: &mut TraceCursor<S>,
    ) {
        self.stats.mispredict_recoveries += 1;
        let squashed = self.rob.squash_younger(branch_seq);
        self.stats.squashed += squashed.len() as u64;
        for e in &squashed {
            if e.in_lsq {
                self.lsq.remove(e.seq);
            }
        }
        self.lsq.squash_younger(branch_seq);
        self.stats.squashed += self.ifq.len() as u64;
        if R::ENABLED {
            let total = (squashed.len() + self.ifq.len()) as u64;
            self.recorder.counter(Counter::MispredictRecoveries, 1);
            self.recorder.counter(Counter::Squashed, total);
            self.recorder.histogram(Hist::SquashDepth, total);
            self.recorder.event(
                self.cycle,
                EventKind::MispredictRecovery {
                    seq: branch_seq,
                    squashed: total.min(u64::from(u32::MAX)) as u32,
                },
            );
        }
        self.ifq.clear();
        // "Tagged instructions that have not been fetched by the branch
        // resolution point ... are discarded" (§V.A). Skip them a whole
        // decoded batch at a time.
        loop {
            let (n, drained_buffer) = {
                let buf = cursor.buffered();
                let n = buf.iter().take_while(|r| r.wrong_path()).count();
                (n, n == buf.len())
            };
            cursor.consume(n);
            self.stats.wrong_path_discarded += n as u64;
            if n == 0 || !drained_buffer {
                break;
            }
        }
        self.in_wrong_path = false;
        self.rebuild_rename();
        self.fetch_stall_until = self
            .fetch_stall_until
            .max(self.cycle + u64::from(self.config.mispredict_penalty));
    }

    /// Rebuilds the rename table from the surviving RB contents after a
    /// squash (the youngest surviving producer of each register wins).
    fn rebuild_rename(&mut self) {
        let Self { rob, rename, .. } = self;
        *rename = [None; 64];
        for e in rob.iter() {
            if let Some(d) = e.record().dest() {
                rename[d.index() as usize] = Some(e.seq());
            }
        }
    }

    /// Captures the warm microarchitectural state — predictor tables,
    /// BTB, RAS and cache tag arrays — as a serializable [`Checkpoint`].
    ///
    /// In-flight pipeline contents (IFQ/RB/LSQ entries, rename map) are
    /// **not** part of a checkpoint: snapshots are meant to be taken at
    /// drained window boundaries, where the pipeline is architecturally
    /// empty. `position` is left at 0 — the driver that knows the trace
    /// offset fills it in.
    pub fn snapshot(&self) -> Checkpoint {
        Checkpoint {
            position: 0,
            predictor: self.predictor.state(),
            memory: self.memory.state(),
        }
    }

    /// Overwrites the predictor and memory warm state from `checkpoint`
    /// (statistics and pipeline contents are untouched — restore into
    /// freshly built state, as [`Engine::resume_from`] does).
    ///
    /// # Errors
    ///
    /// [`ResumeError`] if the checkpoint was taken under a different
    /// predictor/memory geometry.
    ///
    /// [`Engine::resume_from`]: crate::Engine::resume_from
    pub fn restore(&mut self, checkpoint: &Checkpoint) -> Result<(), ResumeError> {
        self.predictor.restore_state(&checkpoint.predictor)?;
        self.memory.restore_state(&checkpoint.memory)?;
        Ok(())
    }
}
