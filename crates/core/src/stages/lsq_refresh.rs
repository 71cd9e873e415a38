//! `Lsq_refresh`: the memory-dependence check of §III, a stage of its own
//! in every organization of §IV.

use crate::state::CoreState;

/// `Lsq_refresh`: the slot of the memory-dependence check (§III/§IV).
///
/// The check itself runs on demand inside Issue, which asks
/// [`LoadStoreQueue::load_ready`](crate::LoadStoreQueue::load_ready) for
/// each load it reaches; the answer equals what a scan here would have
/// cached, since no producer completes between this slot and Issue. The
/// stage stays in the roster and the minor-cycle grids, and counts the
/// LSQ entries the hardware stage scans each cycle.
#[derive(Debug, Default)]
pub(crate) struct LsqRefreshStage;

impl LsqRefreshStage {
    /// Evaluates the stage for one major cycle; returns the LSQ entries
    /// the hardware stage scans.
    pub(crate) fn evaluate(&mut self, core: &mut CoreState) -> u64 {
        core.lsq.len() as u64
    }
}
