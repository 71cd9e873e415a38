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

use crate::config::{ConfigError, EngineConfig};
use crate::cursor::TraceCursor;
use crate::lsq::LoadStoreQueue;
use crate::rob::{Producer, ReorderBuffer};
use crate::stats::SimStats;
use resim_bpred::BranchPredictor;
use resim_mem::MemorySystem;
use resim_obs::{EventKind, MetricsRecorder};
use resim_trace::TraceRecord;
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
/// a thin shell around one `CoreState` and one scheduler; sampled runs
/// move a warm predictor and memory system in
/// ([`Engine::resume`](crate::Engine::resume)) and back out
/// ([`Engine::into_warm`](crate::Engine::into_warm)).
#[derive(Debug)]
pub struct CoreState {
    /// The recorder of an [observed](crate::Engine::observed) engine. It
    /// only ever observes — it never feeds back into simulated state,
    /// which is what keeps observed and unobserved runs bit-identical.
    pub(crate) recorder: Option<Box<MetricsRecorder>>,
    pub(crate) config: EngineConfig,
    pub(crate) predictor: BranchPredictor,
    pub(crate) memory: MemorySystem,
    pub(crate) rob: ReorderBuffer,
    pub(crate) lsq: LoadStoreQueue,
    /// Architectural register → handle of its youngest producer.
    pub(crate) rename: [Option<Producer>; 64],
    pub(crate) ifq: VecDeque<FetchedInst>,
    pub(crate) cycle: u64,
    /// Minor cycles one simulated cycle costs under the configured
    /// pipeline description, fixed at construction
    /// ([`EngineConfig::minor_cycles_per_major`]).
    minor_cycles_per_major: u64,
    pub(crate) next_seq: u64,
    /// Fetch is allowed again once `cycle >= fetch_stall_until`.
    pub(crate) fetch_stall_until: u64,
    /// Fetch is inside a wrong-path block awaiting branch resolution.
    pub(crate) in_wrong_path: bool,
    pub(crate) stats: SimStats,
    pub(crate) last_commit_cycle: u64,
}

impl CoreState {
    /// Builds cold state for `config`.
    ///
    /// # Errors
    ///
    /// Returns the [`ConfigError`] from [`EngineConfig::validate`] on
    /// structural inconsistencies.
    pub fn new(config: EngineConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        let predictor = BranchPredictor::new(config.predictor);
        let memory = MemorySystem::new(config.memory);
        Ok(Self::from_parts(config, predictor, memory))
    }

    /// Empty pipeline state around `predictor` and `memory`, for an
    /// already validated `config` they were built for.
    pub(crate) fn from_parts(
        config: EngineConfig,
        predictor: BranchPredictor,
        memory: MemorySystem,
    ) -> Self {
        Self {
            recorder: None,
            predictor,
            memory,
            rob: ReorderBuffer::new(config.rb_size),
            lsq: LoadStoreQueue::new(config.lsq_size),
            rename: [None; 64],
            ifq: VecDeque::with_capacity(config.ifq_size),
            cycle: 0,
            minor_cycles_per_major: config.minor_cycles_per_major(),
            next_seq: 1,
            fetch_stall_until: 0,
            in_wrong_path: false,
            stats: SimStats::default(),
            last_commit_cycle: 0,
            config,
        }
    }

    /// The configuration this state was built for.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The attached recorder, if any.
    pub fn recorder(&self) -> Option<&MetricsRecorder> {
        self.recorder.as_deref()
    }

    /// Hands a rare event (a cache miss, a misfetch, a recovery) to the
    /// recorder at the current cycle; does nothing without one.
    pub(crate) fn observe(&mut self, kind: EventKind) {
        if let Some(recorder) = &mut self.recorder {
            recorder.event(self.cycle, kind);
        }
    }

    /// Simulated (major) cycles elapsed.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Whether the pipeline holds no in-flight work (IFQ and RB empty).
    pub fn is_drained(&self) -> bool {
        self.ifq.is_empty() && self.rob.is_empty()
    }

    /// Statistics so far, with the live component counters folded in
    /// and the minor-cycle count charged through
    /// [`SimStats::with_minor_cycle_cost`].
    pub fn stats(&self) -> SimStats {
        let mut s = self.stats;
        s.cycles = self.cycle;
        s.predictor = self.predictor.stats();
        s.memory = self.memory.stats();
        s.with_minor_cycle_cost(self.minor_cycles_per_major)
    }

    /// End-of-major-cycle bookkeeping: occupancy statistics, then the
    /// cycle counter advances.
    pub(crate) fn finish_cycle(&mut self) {
        self.stats.ifq_occupancy_sum += self.ifq.len() as u64;
        self.stats.rb_occupancy_sum += self.rob.len() as u64;
        self.stats.lsq_occupancy_sum += self.lsq.len() as u64;
        self.stats.ifq_occupancy_max = self.stats.ifq_occupancy_max.max(self.ifq.len() as u64);
        self.stats.rb_occupancy_max = self.stats.rb_occupancy_max.max(self.rob.len() as u64);
        self.stats.lsq_occupancy_max = self.stats.lsq_occupancy_max.max(self.lsq.len() as u64);
        self.cycle += 1;
    }

    /// Misprediction recovery at branch writeback: squash younger
    /// instructions, discard the unfetched block remainder, pay the
    /// penalty, resume correct-path fetch.
    ///
    /// Invoked by the Writeback stage; lives on `CoreState` because it
    /// cuts across every structure at once (RB, LSQ, IFQ, rename table,
    /// the trace cursor and the fetch throttle).
    pub(crate) fn recover(&mut self, branch_seq: u64, cursor: &mut TraceCursor<'_>) {
        self.stats.mispredict_recoveries += 1;
        let total = (self.rob.squash_younger(branch_seq) + self.ifq.len()) as u64;
        self.lsq.squash_younger(branch_seq);
        self.stats.squashed += total;
        self.observe(EventKind::MispredictRecovery {
            seq: branch_seq,
            squashed: total.min(u64::from(u32::MAX)) as u32,
        });
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
                rename[d.index() as usize] = Some(e.handle());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FuConfig;
    use crate::description::PipelineDescription;

    #[test]
    fn grid_derived_cost_matches_the_paper_formulas() {
        // The state charges the cost its configuration derives from the
        // schedule grid; the paper's closed-form 2N+3 / N+4 / N+3 must
        // agree for every organization and width.
        let formulas: [fn(u64) -> u64; 3] = [|n| 2 * n + 3, |n| n + 4, |n| n + 3];
        for (org, formula) in PipelineDescription::builtins().into_iter().zip(formulas) {
            for width in 1..=16usize {
                let config = EngineConfig {
                    width,
                    ifq_size: width.max(16),
                    rb_size: width.max(16),
                    fus: FuConfig {
                        alus: width,
                        ..Default::default()
                    },
                    mem_read_ports: 1.max(width.saturating_sub(1).min(2)),
                    pipeline: org.clone(),
                    ..EngineConfig::paper_4wide()
                };
                assert_eq!(
                    config.minor_cycles_per_major(),
                    formula(width as u64),
                    "{org} at width {width}: grid-derived cost diverged from the formula"
                );
                // Optimized at width 1 fails the port rule; every
                // buildable state charges the configuration's cost.
                if let Ok(state) = CoreState::new(config.clone()) {
                    assert_eq!(
                        state.minor_cycles_per_major,
                        config.minor_cycles_per_major()
                    );
                }
            }
        }
    }
}
