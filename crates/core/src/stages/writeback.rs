//! Writeback: result broadcast (wakeup) and misprediction recovery
//! (§III).

use crate::cursor::TraceCursor;
use crate::state::CoreState;
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
    pub(crate) fn evaluate<S: TraceSource>(
        &mut self,
        core: &mut CoreState,
        cursor: &mut TraceCursor<S>,
    ) -> u64 {
        // The select scan visits only the executing entries.
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
            let recover = e.mispredicted_branch();
            e.complete(core.cycle);
            written_back += 1;
            if recover {
                core.recover(seq, cursor);
            }
        }
        written_back
    }
}
