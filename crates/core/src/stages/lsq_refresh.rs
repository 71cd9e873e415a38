//! `Lsq_refresh`: the memory-dependence scan of §III, a stage of its own
//! in every organization of §IV.

use crate::state::CoreState;
use resim_obs::{Counter, Recorder};

/// `Lsq_refresh`: recomputes address/data availability and load
/// readiness (including store-to-load forwarding) from producer state,
/// once per major cycle (§III/§IV).
#[derive(Debug, Default)]
pub(crate) struct LsqRefreshStage;

impl LsqRefreshStage {
    /// Evaluates the stage for one major cycle; returns the LSQ entries refreshed.
    pub(crate) fn evaluate<R: Recorder>(&mut self, core: &mut CoreState<R>) -> u64 {
        // Split borrows: the LSQ refresh consults the RB for producer
        // liveness while mutating LSQ entries.
        let CoreState { lsq, rob, .. } = core;
        lsq.refresh(|seq| rob.is_outstanding(seq));
        let refreshed = lsq.len() as u64;
        if R::ENABLED {
            core.recorder.counter(Counter::LsqRefreshed, refreshed);
        }
        refreshed
    }
}
