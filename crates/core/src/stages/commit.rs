//! Commit: in-order retirement at the Reorder Buffer head (§III).

use crate::rob::InstState;
use crate::state::CoreState;
use resim_obs::{CacheKind, EventKind};
use resim_trace::TraceRecord;

/// Commit: retire up to N completed instructions in order; stores need a
/// memory write port and access the D-cache; branches train the
/// predictor (§III).
#[derive(Debug, Default)]
pub(crate) struct CommitStage;

impl CommitStage {
    /// Evaluates the stage for one major cycle; returns the instructions committed.
    pub(crate) fn evaluate(&mut self, core: &mut CoreState) -> u64 {
        let mut write_ports = core.config.mem_write_ports;
        let mut committed = 0u64;
        for _ in 0..core.config.width {
            let Some(head) = core.rob.head() else { break };
            let InstState::Completed { at } = head.state() else {
                break;
            };
            // Strictly-earlier completion: the paper's same-cycle flag.
            if at >= core.cycle {
                break;
            }
            debug_assert!(
                !head.record().wrong_path(),
                "wrong-path instructions must be squashed before commit"
            );
            if head.record().is_store() {
                if write_ports == 0 {
                    break;
                }
                write_ports -= 1;
            }
            let (seq, in_lsq) = (head.seq(), head.lsq_ordinal().is_some());
            match head.record() {
                TraceRecord::Mem(m) => {
                    if m.is_store() {
                        let acc = core.memory.data_access(m.addr, true);
                        core.stats.committed_stores += 1;
                        if !acc.hit {
                            core.observe(EventKind::CacheMiss {
                                cache: CacheKind::L1d,
                                addr: m.addr,
                            });
                        }
                    } else {
                        core.stats.committed_loads += 1;
                    }
                }
                TraceRecord::Branch(b) => {
                    core.predictor.resolve(b.pc, b.kind, b.taken, b.target);
                    core.stats.committed_branches += 1;
                }
                TraceRecord::Other(_) => {}
            }
            // Retire in place: everything needed was read through the
            // view, so no owned copy of the entry is made.
            core.rob.drop_head();
            if in_lsq {
                // Both queues retire in program order.
                let retired = core.lsq.pop_head();
                debug_assert_eq!(retired.map(|e| e.seq), Some(seq), "LSQ head is the RB head");
            }
            core.stats.committed += 1;
            core.last_commit_cycle = core.cycle;
            committed += 1;
        }
        committed
    }
}
