//! Fetch: trace records → IFQ, with branch prediction and the I-cache
//! (§III).

use crate::cursor::TraceCursor;
use crate::state::{CoreState, FetchedInst};
use resim_bpred::Resolution;
use resim_obs::{CacheKind, EventKind};
use resim_trace::{TraceRecord, TraceSource};

/// Fetch: pull up to N records from the trace into the IFQ, stopping at
/// a control-flow bubble, an IFQ-full condition, an I-cache miss, a
/// misfetch bubble or wrong-path exhaustion (§III).
///
/// The stage is batch-aware: it asks the cursor for its whole decoded
/// run (`TraceCursor::buffered`) and walks it with in-slice lookahead,
/// paying one `consume` call for the records it admitted instead of a
/// `peek`/`next` pair per record. Only the final record of a buffer —
/// whose lookahead crosses a refill boundary — goes through the classic
/// single-record path, so any batch size replays the exact
/// record-by-record semantics (pinned by `batched_cursor.rs`).
#[derive(Debug, Default)]
pub(crate) struct FetchStage;

/// Admits one record into the IFQ: I-cache probe, statistics, branch
/// prediction against `next` (the following trace record, if visible),
/// and stall bookkeeping. Returns whether the fetch group must stop.
fn admit(
    core: &mut CoreState,
    record: TraceRecord,
    next: Option<&TraceRecord>,
    fetched: &mut u64,
) -> bool {
    // I-cache probe; a miss stalls fetch for the fill time.
    let acc = core.memory.inst_access(record.pc());
    core.stats.fetched += 1;
    if record.wrong_path() {
        core.stats.wrong_path_fetched += 1;
    }
    if !acc.hit {
        core.observe(EventKind::CacheMiss {
            cache: CacheKind::L1i,
            addr: record.pc(),
        });
    }

    let mut mispredicted = false;
    let mut stop_group = false;
    if let TraceRecord::Branch(b) = &record {
        if !record.wrong_path() {
            let pred = core.predictor.predict(b.pc, b.kind, b.taken, b.target);
            if next.is_some_and(|r| r.wrong_path()) {
                // The trace says this branch was mispredicted:
                // fetch continues down the tagged block.
                mispredicted = true;
                core.in_wrong_path = true;
                stop_group = true;
            } else if pred.outcome() == Resolution::Misfetch {
                // Right direction, wrong target: fetch bubble.
                core.stats.misfetches += 1;
                core.observe(EventKind::Misfetch { pc: b.pc });
                core.fetch_stall_until = core.cycle + 1 + u64::from(core.config.misfetch_penalty);
                stop_group = true;
            }
        }
    }

    core.ifq.push_back(FetchedInst {
        record,
        mispredicted,
    });
    *fetched += 1;

    if acc.latency > 1 {
        // Miss: the line arrives after `latency` cycles in total.
        core.fetch_stall_until = core
            .fetch_stall_until
            .max(core.cycle + u64::from(acc.latency) - 1);
        return true;
    }
    if stop_group {
        return true;
    }
    // Control-flow bubble: fetch cannot cross a discontinuity.
    next.is_some_and(|n| n.pc() != record.pc().wrapping_add(4))
}

impl FetchStage {
    /// Evaluates the stage for one major cycle; returns the instructions fetched.
    pub(crate) fn evaluate<S: TraceSource>(
        &mut self,
        core: &mut CoreState,
        cursor: &mut TraceCursor<S>,
    ) -> u64 {
        if core.cycle < core.fetch_stall_until {
            core.stats.fetch_stall_cycles += 1;
            return 0;
        }
        let width = core.config.width as u64;
        let mut fetched = 0u64;
        'group: while fetched < width {
            if core.ifq.len() == core.config.ifq_size {
                break;
            }
            let buf = cursor.buffered();
            if buf.is_empty() {
                break;
            }
            if buf.len() == 1 {
                // Last record of the buffer: its lookahead crosses a
                // refill boundary, so use the single-record path.
                if core.in_wrong_path && !buf[0].wrong_path() {
                    // Wrong-path block exhausted: fetch starves until the
                    // branch resolves (the block size is chosen so this
                    // is rare — "a very conservative assumption", §V.A).
                    core.stats.fetch_stall_cycles += 1;
                    break;
                }
                let record = cursor.next().expect("buffered run is non-empty");
                if admit(core, record, cursor.peek(), &mut fetched) {
                    break;
                }
                continue;
            }
            // Batch path: every record but the buffer's last sees its
            // successor in the same slice.
            let mut taken = 0usize;
            let mut stop = false;
            while taken + 1 < buf.len() && fetched < width && core.ifq.len() < core.config.ifq_size
            {
                let record = buf[taken];
                if core.in_wrong_path && !record.wrong_path() {
                    core.stats.fetch_stall_cycles += 1;
                    stop = true;
                    break;
                }
                let next = &buf[taken + 1];
                taken += 1;
                if admit(core, record, Some(next), &mut fetched) {
                    stop = true;
                    break;
                }
            }
            cursor.consume(taken);
            if stop {
                break 'group;
            }
        }
        fetched
    }
}
