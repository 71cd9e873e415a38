//! The engine's read position over a trace: a ring-buffered batch
//! consumer of any [`TraceSource`].
//!
//! The cursor is where the batched trace frontend meets the cycle loop.
//! Fetch needs single-record `peek`/`take` semantics (wrong-path block
//! detection and fetch-group breaks look one record ahead), but paying a
//! virtual `next_record` call — and, for codec-backed sources, a full
//! decoder-state reload — per record puts that cost on the hottest path
//! in the simulator. The cursor therefore pulls records in blocks
//! through [`TraceSource::fill`] into an internal ring and serves the
//! engine out of the ring: the per-record cost in the cycle loop is an
//! index bump, and the per-block cost is amortised over
//! [`DEFAULT_BATCH`] records.
//!
//! The source is a trait object, erased at that refill: a replayed
//! container, a pre-decoded slice and a generator on the fly all drive
//! one compiled cycle loop, at the cost of one dynamic call per block.

use resim_trace::{OpClass, OtherRecord, TraceRecord, TraceSource};

/// A persistent, ring-buffered read position over a [`TraceSource`].
///
/// A cursor outlives a single [`Engine::run_window`] call: windowed
/// execution ([`Engine::run_window`] … [`Engine::drain`]) threads one
/// cursor through every window so that no record — including the
/// ring-buffered read-ahead — is lost at window boundaries. This is what
/// makes a windowed run bit-identical to one [`Engine::run`] call.
///
/// The cursor boxes its source, so its type names only the lifetime of
/// what the source borrows, and the engine is compiled once for every
/// source. The source is called only to refill the ring.
///
/// The batch size changes **when** records are pulled from the source,
/// never **which** records the engine sees or in what order: a cursor at
/// any batch size replays the exact record sequence of a batch-size-1
/// cursor (pinned by `crates/core/tests/batched_cursor.rs`).
///
/// [`Engine::run`]: crate::Engine::run
/// [`Engine::run_window`]: crate::Engine::run_window
/// [`Engine::drain`]: crate::Engine::drain
pub struct TraceCursor<'a> {
    src: Box<dyn TraceSource + 'a>,
    /// Fixed-capacity decode ring; `buf[head..len]` holds records the
    /// source has produced but the engine has not consumed.
    buf: Box<[TraceRecord]>,
    head: usize,
    len: usize,
    done: bool,
    consumed: u64,
}

/// Records decoded per [`TraceSource::fill`] refill by default.
///
/// Large enough to amortise per-block costs (virtual dispatch, decoder
/// state loads), small enough that the ring (~7 KB) stays
/// cache-resident and that a bounded source is never over-read by more
/// than a sampling window cares about.
pub const DEFAULT_BATCH: usize = 256;

impl<'a> TraceCursor<'a> {
    /// Creates a cursor at the start of `src` with [`DEFAULT_BATCH`].
    pub fn new(src: impl TraceSource + 'a) -> Self {
        Self::with_batch_size(src, DEFAULT_BATCH)
    }

    /// Creates a cursor refilling `batch` records at a time.
    ///
    /// `batch == 1` degenerates to the historical one-record-lookahead
    /// cursor; the differential tests force it to prove batching is
    /// behavior-invisible.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero.
    pub fn with_batch_size(src: impl TraceSource + 'a, batch: usize) -> Self {
        assert!(batch >= 1, "cursor batch size must be at least 1");
        let pad = TraceRecord::Other(OtherRecord {
            pc: 0,
            class: OpClass::Nop,
            dest: None,
            src1: None,
            src2: None,
            wrong_path: false,
        });
        Self {
            src: Box::new(src),
            buf: vec![pad; batch].into_boxed_slice(),
            head: 0,
            len: 0,
            done: false,
            consumed: 0,
        }
    }

    /// Records handed to the engine so far (ring contents do not count
    /// until fetch actually takes them).
    pub fn consumed(&self) -> u64 {
        self.consumed
    }

    pub(crate) fn peek(&mut self) -> Option<&TraceRecord> {
        if self.head == self.len {
            self.refill();
        }
        if self.head < self.len {
            Some(&self.buf[self.head])
        } else {
            None
        }
    }

    pub(crate) fn next(&mut self) -> Option<TraceRecord> {
        if self.head == self.len {
            self.refill();
            if self.head == self.len {
                return None;
            }
        }
        let r = self.buf[self.head];
        self.head += 1;
        self.consumed += 1;
        Some(r)
    }

    /// The contiguous run of already-decoded records at the read
    /// position, refilling the ring first if it is drained. An empty
    /// slice means the trace is exhausted.
    pub(crate) fn buffered(&mut self) -> &[TraceRecord] {
        if self.head == self.len {
            self.refill();
        }
        &self.buf[self.head..self.len]
    }

    /// Discards the first `n` records of [`TraceCursor::buffered`].
    /// Callers must not pass `n` larger than the slice the last
    /// `buffered` call returned.
    pub(crate) fn consume(&mut self, n: usize) {
        debug_assert!(n <= self.len - self.head, "consume past the buffered run");
        self.head += n;
        self.consumed += n as u64;
    }

    fn refill(&mut self) {
        if self.done {
            return;
        }
        self.head = 0;
        self.len = self.src.fill(&mut self.buf);
        // A short fill is the end of the trace (the `TraceSource::fill`
        // contract), so the source is not asked again.
        if self.len < self.buf.len() {
            self.done = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resim_trace::SliceSource;

    fn recs(n: u32) -> Vec<TraceRecord> {
        (0..n)
            .map(|i| {
                TraceRecord::Other(OtherRecord {
                    pc: i * 4,
                    class: OpClass::IntAlu,
                    dest: None,
                    src1: None,
                    src2: None,
                    wrong_path: false,
                })
            })
            .collect()
    }

    #[test]
    fn peek_take_order_and_consumed_accounting() {
        let records = recs(10);
        for batch in [1usize, 3, 256] {
            let mut c = TraceCursor::with_batch_size(SliceSource::new(&records), batch);
            assert_eq!(c.consumed(), 0);
            assert_eq!(c.peek().unwrap().pc(), 0);
            assert_eq!(c.consumed(), 0, "peek must not consume (batch {batch})");
            for i in 0..10u32 {
                assert_eq!(c.next().unwrap().pc(), i * 4);
                assert_eq!(c.consumed(), u64::from(i) + 1);
            }
            assert!(c.next().is_none());
            assert!(c.peek().is_none());
            assert_eq!(c.consumed(), 10);
        }
    }

    #[test]
    fn ring_refills_across_batch_boundaries() {
        let records = recs(7);
        let mut c = TraceCursor::with_batch_size(SliceSource::new(&records), 2);
        let got: Vec<u32> = std::iter::from_fn(|| c.next()).map(|r| r.pc()).collect();
        assert_eq!(got, (0..7).map(|i| i * 4).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_batch_rejected() {
        let records = recs(1);
        let _ = TraceCursor::with_batch_size(SliceSource::new(&records), 0);
    }
}
