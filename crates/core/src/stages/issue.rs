//! Issue: wakeup/select onto functional units, read ports and the
//! D-cache (§III).
//!
//! Issue also runs the `Lsq_refresh` memory-dependence check, on demand:
//! for each load among its ready candidates it asks the LSQ for that
//! load's readiness through the ordinal the RB entry holds, an O(1)
//! lookup followed by a scan of the older stores with O(1) producer
//! checks. Forwarded loads are counted here.

use crate::config::FuConfig;
use crate::lsq::LoadReady;
use crate::rob::InstState;
use crate::state::CoreState;
use resim_obs::{CacheKind, EventKind};
use resim_trace::{OpClass, TraceRecord};

/// Issue: schedule up to N ready instructions onto functional units,
/// read ports and the D-cache (§III). Examines the window oldest first;
/// instructions without a free resource are skipped.
///
/// The per-divider busy timers are genuinely *stage* state — no other
/// stage observes them — so they live here rather than in
/// [`CoreState`].
#[derive(Debug)]
pub(crate) struct IssueStage {
    /// Per-divider busy-until cycles (dividers are unpipelined by
    /// default).
    div_busy_until: Vec<u64>,
    /// Scratch wakeup list `(rob position, seq)`, reused across cycles
    /// so the hot loop never allocates.
    candidates: Vec<(usize, u64)>,
}

impl IssueStage {
    /// Builds the stage for a functional-unit pool.
    pub(crate) fn new(fus: &FuConfig) -> Self {
        Self {
            div_busy_until: vec![0; fus.divs],
            candidates: Vec::new(),
        }
    }

    /// Evaluates the stage for one major cycle; returns the instructions issued.
    pub(crate) fn evaluate(&mut self, core: &mut CoreState) -> u64 {
        let width = core.config.width;
        let fus = core.config.fus;
        let mut slots = width;
        let mut alus_used = 0usize;
        let mut mults_used = 0usize;
        let mut divs_started = 0usize;
        let mut read_ports_used = 0usize;
        let mut loads_issued = 0usize;

        // Positions are stable for the whole loop: issue only flips
        // entry states, never adds or removes entries. The wakeup scan
        // visits only the ready entries.
        self.candidates.clear();
        core.rob.scan_ready(&mut self.candidates);

        let mut issued = 0u64;
        for &(idx, seq) in &self.candidates {
            if slots == 0 {
                break;
            }
            let entry = core.rob.at(idx).expect("candidate cannot vanish mid-issue");
            debug_assert_eq!(entry.seq(), seq, "issue positions must be stable");
            let (record, lsq_ordinal) = (*entry.record(), entry.lsq_ordinal());
            let done_at = match &record {
                TraceRecord::Other(o) => match o.class {
                    OpClass::IntAlu => {
                        if alus_used == fus.alus {
                            continue;
                        }
                        alus_used += 1;
                        core.cycle + u64::from(fus.alu_latency)
                    }
                    OpClass::IntMult => {
                        if mults_used == fus.mults {
                            continue;
                        }
                        mults_used += 1;
                        core.cycle + u64::from(fus.mult_latency)
                    }
                    OpClass::IntDiv => {
                        if fus.div_pipelined {
                            if divs_started == fus.divs {
                                continue;
                            }
                        } else {
                            let Some(unit) =
                                self.div_busy_until.iter_mut().find(|b| **b <= core.cycle)
                            else {
                                continue;
                            };
                            *unit = core.cycle + u64::from(fus.div_latency);
                        }
                        divs_started += 1;
                        core.cycle + u64::from(fus.div_latency)
                    }
                    OpClass::Nop => core.cycle + 1,
                },
                TraceRecord::Branch(_) => {
                    // Branches resolve on an ALU.
                    if alus_used == fus.alus {
                        continue;
                    }
                    alus_used += 1;
                    core.cycle + u64::from(fus.alu_latency)
                }
                TraceRecord::Mem(m) => {
                    if m.is_store() {
                        // Stores "execute" (address generation) once base
                        // and data are ready; memory is written at commit.
                        core.cycle + 1
                    } else {
                        // The `Lsq_refresh` check, on demand (see `lsq`).
                        let ordinal = lsq_ordinal.expect("a load holds an LSQ entry");
                        let rob = &core.rob;
                        match core.lsq.load_ready(ordinal, |p| rob.is_outstanding(p)) {
                            LoadReady::NotReady => continue,
                            LoadReady::ReadyForward => {
                                // Forwarded in the LSQ: no read port
                                // (§III), single-cycle.
                                loads_issued += 1;
                                core.stats.load_forwards += 1;
                                core.cycle + 1
                            }
                            LoadReady::ReadyCache => {
                                if read_ports_used == core.config.mem_read_ports {
                                    continue;
                                }
                                read_ports_used += 1;
                                loads_issued += 1;
                                let acc = core.memory.data_access(m.addr, false);
                                if !acc.hit {
                                    core.observe(EventKind::CacheMiss {
                                        cache: CacheKind::L1d,
                                        addr: m.addr,
                                    });
                                }
                                core.cycle + u64::from(acc.latency)
                            }
                        }
                    }
                }
            };
            // §IV.B: the optimized pipeline cannot issue a load in the
            // first slot. With ≤ N−1 memory ports (validated), a legal
            // slot assignment always exists, so the restriction never
            // shrinks the issue set — the paper's "without affecting the
            // overall timing results".
            if core.config.pipeline.restricts_first_slot_loads() {
                debug_assert!(
                    loads_issued < width,
                    "optimized pipeline issued {loads_issued} loads at width {width}"
                );
            }
            let mut e = core.rob.at_mut(idx).expect("candidate present");
            e.set_state(InstState::Executing { done_at });
            core.stats.issued += 1;
            issued += 1;
            slots -= 1;
        }
        issued
    }
}
