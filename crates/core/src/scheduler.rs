//! The minor-cycle scheduler: a [`PipelineDescription`] made executable.
//!
//! The paper's engine processes the N ways of the simulated processor
//! serially, splitting each **major** (simulated) cycle into **minor**
//! (engine clock) cycles, and §IV develops three organizations of the
//! same stages onto minor-cycle grids (Figures 2–4). The scheduler owns
//! the **stages and their evaluation order** for one engine instance —
//! one unit of each of the six stages, called directly once per major
//! cycle in the fixed architectural order (see the `stages` module for
//! why the order is organization-independent). The roster never varies,
//! so it is bound when the engine is built rather than dispatched at run
//! time.
//!
//! The **minor-cycle cost** of a major cycle is not the scheduler's: it
//! is a property of the configuration
//! ([`EngineConfig::minor_cycles_per_major`], derived from the
//! description's schedule grid), fixed in [`CoreState`] at construction
//! and charged by one rule, [`SimStats::with_minor_cycle_cost`]. Nothing
//! in the cycle loop depends on it, which is what lets a sweep simulate
//! organizations that differ only in their grid once.
//!
//! [`SimStats::with_minor_cycle_cost`]: crate::SimStats::with_minor_cycle_cost

use crate::config::{ConfigError, EngineConfig};
use crate::cursor::TraceCursor;
use crate::description::PipelineDescription;
use crate::stages::{
    CommitStage, DispatchStage, FetchStage, IssueStage, LsqRefreshStage, WritebackStage,
};
use crate::state::CoreState;
use std::time::Instant;

/// Stage names in evaluation order, as the paper spells them.
const STAGE_NAMES: [&str; 6] = [
    "Commit",
    "Writeback",
    "Lsq_refresh",
    "Issue",
    "Dispatch",
    "Fetch",
];

/// Executes one major cycle of the engine: evaluates the six stages in
/// architectural order.
///
/// Built by [`Engine::new`](crate::Engine::new) from the configuration's
/// [`PipelineDescription`]; exposed so `describe` and tests can inspect
/// the roster and the per-stage activity.
#[derive(Debug)]
pub struct MinorCycleScheduler {
    description: PipelineDescription,
    width: usize,
    commit: CommitStage,
    writeback: WritebackStage,
    lsq_refresh: LsqRefreshStage,
    issue: IssueStage,
    dispatch: DispatchStage,
    fetch: FetchStage,
    /// Total operations performed per stage, aligned with [`STAGE_NAMES`].
    activity: [u64; 6],
}

impl MinorCycleScheduler {
    /// Builds the scheduler's stages for a configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::Pipeline`] (or [`ConfigError::ZeroWidth`])
    /// when the description cannot build a schedule grid at
    /// `config.width` — no input panics.
    pub fn new(config: &EngineConfig) -> Result<Self, ConfigError> {
        if config.width == 0 {
            return Err(ConfigError::ZeroWidth);
        }
        let description = config.pipeline.clone();
        let width = config.width;
        description
            .validate_at(width)
            .map_err(ConfigError::Pipeline)?;
        Ok(Self {
            description,
            width,
            commit: CommitStage,
            writeback: WritebackStage::default(),
            lsq_refresh: LsqRefreshStage,
            issue: IssueStage::new(&config.fus),
            dispatch: DispatchStage,
            fetch: FetchStage,
            activity: [0; 6],
        })
    }

    /// The pipeline description this scheduler realises.
    pub fn description(&self) -> &PipelineDescription {
        &self.description
    }

    /// Simulated processor width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Stage names in evaluation order — the roster `resim describe`
    /// reports.
    pub fn roster(&self) -> Vec<&'static str> {
        STAGE_NAMES.to_vec()
    }

    /// Per-stage totals of architectural operations performed so far
    /// (instructions committed / written back / issued / dispatched /
    /// fetched, or LSQ entries refreshed), in evaluation order.
    pub fn activity(&self) -> Vec<(&'static str, u64)> {
        STAGE_NAMES.into_iter().zip(self.activity).collect()
    }

    /// Evaluates every stage once (one major cycle). The one check for
    /// a recorder per cycle picks the observed evaluation.
    pub(crate) fn step(&mut self, core: &mut CoreState, cursor: &mut TraceCursor<'_>) {
        let ops = if core.recorder.is_some() {
            self.step_observed(core, cursor)
        } else {
            [
                self.commit.evaluate(core),
                self.writeback.evaluate(core, cursor),
                self.lsq_refresh.evaluate(core),
                self.issue.evaluate(core),
                self.dispatch.evaluate(core),
                self.fetch.evaluate(core, cursor),
            ]
        };
        for (total, ops) in self.activity.iter_mut().zip(ops) {
            *total += ops;
        }
    }

    /// The same evaluation with each stage timed, closed by handing the
    /// cycle to the recorder. Kept out of line so the unobserved loop
    /// stays as tight as it was.
    #[inline(never)]
    fn step_observed(&mut self, core: &mut CoreState, cursor: &mut TraceCursor<'_>) -> [u64; 6] {
        let mut wall_ns = [0u64; 6];
        let mut clock = Instant::now();
        let mut lap = |stage: usize| {
            let now = Instant::now();
            wall_ns[stage] = u64::try_from((now - clock).as_nanos()).unwrap_or(u64::MAX);
            clock = now;
        };
        let commit = self.commit.evaluate(core);
        lap(0);
        let writeback = self.writeback.evaluate(core, cursor);
        lap(1);
        let lsq_refresh = self.lsq_refresh.evaluate(core);
        lap(2);
        let issue = self.issue.evaluate(core);
        lap(3);
        let dispatch = self.dispatch.evaluate(core);
        lap(4);
        // Fetch returns at once while stalled, without a fetch group.
        let fetch_ran = core.cycle >= core.fetch_stall_until;
        let fetch = self.fetch.evaluate(core, cursor);
        lap(5);
        let ops = [commit, writeback, lsq_refresh, issue, dispatch, fetch];
        let occupancy = [core.ifq.len(), core.rob.len(), core.lsq.len()].map(|n| n as u64);
        let cycle = core.cycle;
        core.recorder
            .as_mut()
            .expect("only an observed engine steps observed")
            .end_cycle(cycle, ops, wall_ns, fetch_ran, occupancy);
        ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    #[test]
    fn roster_is_the_architectural_evaluation_order() {
        let sched = MinorCycleScheduler::new(&EngineConfig::paper_4wide()).unwrap();
        assert_eq!(
            sched.roster(),
            [
                "Commit",
                "Writeback",
                "Lsq_refresh",
                "Issue",
                "Dispatch",
                "Fetch"
            ]
        );
        assert_eq!(sched.description().name(), "optimized");
        assert_eq!(sched.width(), 4);
    }

    #[test]
    fn zero_width_is_an_error_not_a_panic() {
        let bad = EngineConfig {
            width: 0,
            ..EngineConfig::paper_4wide()
        };
        assert_eq!(
            MinorCycleScheduler::new(&bad).unwrap_err(),
            ConfigError::ZeroWidth
        );
    }

    #[test]
    fn invalid_description_is_an_error_not_a_panic() {
        let bad = EngineConfig {
            pipeline: PipelineDescription::new("empty", true, false, vec![]),
            ..EngineConfig::paper_4wide()
        };
        assert!(matches!(
            MinorCycleScheduler::new(&bad).unwrap_err(),
            ConfigError::Pipeline(_)
        ));
    }

    #[test]
    fn activity_starts_at_zero_for_every_stage() {
        let sched = MinorCycleScheduler::new(&EngineConfig::paper_4wide()).unwrap();
        let activity = sched.activity();
        assert_eq!(activity.len(), 6);
        assert!(activity.iter().all(|&(_, ops)| ops == 0));
    }
}
