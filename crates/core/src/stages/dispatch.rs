//! Dispatch: IFQ → RB/LSQ allocation and renaming (§III).

use crate::lsq::LsqEntry;
use crate::rob::{InstState, PendingSet, RobEntry};
use crate::state::CoreState;
use resim_trace::TraceRecord;

/// Dispatch: move up to N instructions from the IFQ into the RB (and
/// LSQ), reading the rename table for dependences (§III). The table
/// holds producer handles, so the RB links each operand to its
/// producer's slot and the LSQ entry keeps the handles its address and
/// data wait on.
#[derive(Debug, Default)]
pub(crate) struct DispatchStage;

impl DispatchStage {
    /// Evaluates the stage for one major cycle; returns the instructions dispatched.
    pub(crate) fn evaluate(&mut self, core: &mut CoreState) -> u64 {
        let mut dispatched = 0u64;
        for _ in 0..core.config.width {
            let Some(front) = core.ifq.front() else { break };
            if core.rob.is_full() {
                core.stats.dispatch_stall_rb += 1;
                break;
            }
            let is_mem = matches!(front.record, TraceRecord::Mem(_));
            if is_mem && core.lsq.is_full() {
                core.stats.dispatch_stall_lsq += 1;
                break;
            }
            let fi = core.ifq.pop_front().expect("front checked above");
            let seq = core.next_seq;
            core.next_seq += 1;

            // `push` keeps only the producers still outstanding.
            let mut pending = PendingSet::new();
            for src in fi.record.sources().into_iter().flatten() {
                if let Some(p) = core.rename[src.index() as usize] {
                    if !pending.contains(p) {
                        pending.push(p);
                    }
                }
            }

            // A handle that is no longer outstanding never becomes so
            // again, so the LSQ keeps them unfiltered.
            let lsq_ordinal = match fi.record {
                TraceRecord::Mem(m) => {
                    let producer = |reg: Option<resim_trace::Reg>| {
                        reg.and_then(|r| core.rename[r.index() as usize])
                    };
                    let entry = LsqEntry {
                        seq,
                        mem: m,
                        base_dep: producer(m.base),
                        data_dep: if m.is_store() { producer(m.data) } else { None },
                    };
                    Some(core.lsq.push(entry))
                }
                _ => None,
            };

            let handle = core.rob.push(RobEntry {
                seq,
                record: fi.record,
                state: InstState::Waiting,
                pending,
                lsq_ordinal,
                mispredicted_branch: fi.mispredicted,
            });
            if let Some(d) = fi.record.dest() {
                core.rename[d.index() as usize] = Some(handle);
            }
            dispatched += 1;
        }
        dispatched
    }
}
