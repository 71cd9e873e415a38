//! Dispatch: IFQ → RB/LSQ allocation and renaming (§III).

use crate::lsq::{LoadReady, LsqEntry};
use crate::rob::{InstState, PendingSet, ReorderBuffer, RobEntry};
use crate::state::CoreState;
use resim_obs::{Counter, Recorder};
use resim_trace::TraceRecord;

/// Dispatch: move up to N instructions from the IFQ into the RB (and
/// LSQ), reading the rename table for dependences (§III).
#[derive(Debug, Default)]
pub(crate) struct DispatchStage;

impl DispatchStage {
    /// Evaluates the stage for one major cycle; returns the instructions dispatched.
    pub(crate) fn evaluate<R: Recorder>(&mut self, core: &mut CoreState<R>) -> u64 {
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

            if let TraceRecord::Mem(m) = fi.record {
                let dep_of = |reg: Option<resim_trace::Reg>,
                              rename: &[Option<u64>; 64],
                              rob: &ReorderBuffer| {
                    reg.and_then(|r| rename[r.index() as usize])
                        .filter(|&p| rob.is_outstanding(p))
                };
                let base_dep = dep_of(m.base, &core.rename, &core.rob);
                let data_dep = if m.is_store() {
                    dep_of(m.data, &core.rename, &core.rob)
                } else {
                    None
                };
                core.lsq.push(LsqEntry {
                    seq,
                    mem: m,
                    base_dep,
                    data_dep,
                    addr_known: false,
                    data_ready: false,
                    load_ready: LoadReady::NotReady,
                    issued: false,
                });
            }

            core.rob.push(RobEntry {
                seq,
                record: fi.record,
                state: InstState::Waiting,
                pending,
                in_lsq: is_mem,
                mispredicted_branch: fi.mispredicted,
            });
            if let Some(d) = fi.record.dest() {
                core.rename[d.index() as usize] = Some(seq);
            }
            dispatched += 1;
        }
        if R::ENABLED {
            core.recorder.counter(Counter::Dispatched, dispatched);
        }
        dispatched
    }
}
