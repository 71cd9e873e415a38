//! Writeback: result broadcast (wakeup) and misprediction recovery
//! (§III).

use crate::cursor::TraceCursor;
use crate::rob::InstState;
use crate::state::CoreState;
use resim_obs::{Counter, Recorder};
use resim_trace::TraceSource;

/// Writeback: select the oldest N finished executions, broadcast their
/// results (wakeup), and run misprediction recovery (§III).
#[derive(Debug, Default)]
pub(crate) struct WritebackStage {
    /// Scratch select list `(rob position, seq)`, reused across cycles
    /// so the hot loop never allocates.
    done: Vec<(usize, u64)>,
}

impl WritebackStage {
    /// Evaluates the stage for one major cycle; returns the instructions written back.
    pub(crate) fn evaluate<R: Recorder, S: TraceSource>(
        &mut self,
        core: &mut CoreState<R>,
        cursor: &mut TraceCursor<S>,
    ) -> u64 {
        // The select scan walks only the packed state/time/seq lanes.
        self.done.clear();
        core.rob
            .scan_done(core.cycle, core.config.width, &mut self.done);
        let mut written_back = 0u64;
        for &(idx, seq) in &self.done {
            // A recovery triggered by an older entry in this batch may
            // have squashed this one: recovery truncates the RB at the
            // branch, so surviving positions are unchanged and a stale
            // position is either out of range or (impossibly, guarded by
            // the seq check) someone else.
            let Some(mut e) = core.rob.at_mut(idx).filter(|e| e.seq() == seq) else {
                continue;
            };
            e.set_state(InstState::Completed { at: core.cycle });
            let recover = e.mispredicted_branch();
            core.rob.broadcast(seq);
            written_back += 1;
            if recover {
                core.recover(seq, cursor);
            }
        }
        if R::ENABLED {
            core.recorder.counter(Counter::WrittenBack, written_back);
        }
        written_back
    }
}
