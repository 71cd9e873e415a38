//! The minor-cycle scheduler: a [`PipelineDescription`] made executable.
//!
//! The paper's engine processes the N ways of the simulated processor
//! serially, splitting each **major** (simulated) cycle into **minor**
//! (engine clock) cycles, and §IV develops three organizations of the
//! same stages onto minor-cycle grids (Figures 2–4). The scheduler owns
//! both halves of that story for one engine instance:
//!
//! * the **stages and their evaluation order** — one unit of each of the
//!   six stages, called directly once per major cycle in the fixed
//!   architectural order (see the `stages` module for why the order is
//!   organization-independent). The roster never varies, so it is bound
//!   when the engine is built rather than dispatched at run time;
//! * the **minor-cycle cost** of a major cycle — *derived from the
//!   description's schedule grid* (the highest occupied slot across
//!   stage rows, plus one), not from the closed-form `2N+3` / `N+4` /
//!   `N+3` formulas. The formulas remain in
//!   [`PipelineOrganization`](crate::PipelineOrganization) as the
//!   paper's analytical result, and a dedicated test pins grid-derived
//!   == closed-form for every built-in organization and width.

use crate::config::{ConfigError, EngineConfig};
use crate::cursor::TraceCursor;
use crate::description::PipelineDescription;
use crate::stages::{
    CommitStage, DispatchStage, FetchStage, IssueStage, LsqRefreshStage, WritebackStage,
};
use crate::state::CoreState;
use resim_obs::{Recorder, SpanId};
use resim_trace::TraceSource;

/// Stage names in evaluation order, as the paper spells them.
const STAGE_NAMES: [&str; 6] = [
    "Commit",
    "Writeback",
    "Lsq_refresh",
    "Issue",
    "Dispatch",
    "Fetch",
];

/// Wall-time span ids aligned with [`STAGE_NAMES`].
const STAGE_SPANS: [SpanId; 6] = [
    SpanId::Commit,
    SpanId::Writeback,
    SpanId::LsqRefresh,
    SpanId::Issue,
    SpanId::Dispatch,
    SpanId::Fetch,
];

/// Executes one major cycle of the engine: evaluates the six stages in
/// architectural order and charges the description's minor-cycle cost.
///
/// Built by [`Engine::new`](crate::Engine::new) from the configuration's
/// [`PipelineDescription`]; exposed so `describe` and tests can inspect
/// the roster and the activity-derived accounting.
#[derive(Debug)]
pub struct MinorCycleScheduler {
    description: PipelineDescription,
    width: usize,
    /// Minor cycles one major cycle costs, derived from the schedule
    /// grid at construction.
    minor_cycles_per_major: u64,
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
    /// Builds the scheduler (stages + minor-cycle grid) for a
    /// configuration.
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
        let schedule = description
            .schedule(width)
            .map_err(ConfigError::Pipeline)?;
        // Activity-derived cost: the last minor-cycle slot any stage
        // occupies in the description's grid bounds the major cycle.
        let minor_cycles_per_major = schedule
            .rows()
            .iter()
            .flat_map(|row| {
                row.cells
                    .iter()
                    .rposition(|c| c.is_some())
                    .map(|last| last as u64 + 1)
            })
            .max()
            .unwrap_or(0);
        Ok(Self {
            description,
            width,
            minor_cycles_per_major,
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

    /// Minor cycles one major cycle costs, as derived from the schedule
    /// grid (cross-checked against the paper's closed-form formulas in
    /// tests).
    pub fn minor_cycles_per_major(&self) -> u64 {
        self.minor_cycles_per_major
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

    /// Evaluates every stage once (one major cycle) and returns the
    /// minor cycles charged for it.
    pub(crate) fn step<R: Recorder, S: TraceSource>(
        &mut self,
        core: &mut CoreState<R>,
        cursor: &mut TraceCursor<S>,
    ) -> u64 {
        self.activity[0] += timed(core, 0, |core| self.commit.evaluate(core));
        self.activity[1] += timed(core, 1, |core| self.writeback.evaluate(core, cursor));
        self.activity[2] += timed(core, 2, |core| self.lsq_refresh.evaluate(core));
        self.activity[3] += timed(core, 3, |core| self.issue.evaluate(core));
        self.activity[4] += timed(core, 4, |core| self.dispatch.evaluate(core));
        self.activity[5] += timed(core, 5, |core| self.fetch.evaluate(core, cursor));
        self.minor_cycles_per_major
    }
}

/// Runs one stage evaluation inside its wall-time span (a no-op under
/// the default [`NullRecorder`](resim_obs::NullRecorder)).
#[inline(always)]
fn timed<R: Recorder>(
    core: &mut CoreState<R>,
    stage: usize,
    evaluate: impl FnOnce(&mut CoreState<R>) -> u64,
) -> u64 {
    if R::ENABLED {
        core.recorder.span_enter(STAGE_SPANS[stage]);
    }
    let ops = evaluate(core);
    if R::ENABLED {
        core.recorder.span_exit(STAGE_SPANS[stage]);
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::PipelineOrganization;

    fn config_for(org: PipelineOrganization, width: usize) -> EngineConfig {
        EngineConfig {
            width,
            ifq_size: width.max(16),
            rb_size: width.max(16),
            fus: crate::config::FuConfig {
                alus: width,
                ..Default::default()
            },
            mem_read_ports: 1.max(width.saturating_sub(1).min(2)),
            pipeline: org.description(),
            ..EngineConfig::paper_4wide()
        }
    }

    #[test]
    fn grid_derived_cost_matches_the_paper_formulas() {
        // The tentpole cross-check: the scheduler derives its engine-cycle
        // cost from the schedule grid; the paper's closed-form 2N+3 / N+4
        // / N+3 must agree for every organization and width.
        for org in PipelineOrganization::ALL {
            for width in 1..=16usize {
                let sched = MinorCycleScheduler::new(&config_for(org, width)).unwrap();
                assert_eq!(
                    sched.minor_cycles_per_major(),
                    org.minor_cycles_per_major(width),
                    "{org} at width {width}: grid-derived cost diverged from the formula"
                );
            }
        }
    }

    #[test]
    fn roster_is_the_architectural_evaluation_order() {
        let sched = MinorCycleScheduler::new(&EngineConfig::paper_4wide()).unwrap();
        assert_eq!(
            sched.roster(),
            ["Commit", "Writeback", "Lsq_refresh", "Issue", "Dispatch", "Fetch"]
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
