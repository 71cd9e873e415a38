//! Streaming record sources.
//!
//! The engine pulls records through the [`TraceSource`] trait rather than
//! from a concrete buffer so the same front end serves both of the paper's
//! deployment modes: off-line traces "prepared off-line, for example for
//! bulk simulations with varying design parameters", and FAST-style
//! on-the-fly generation "in combination with a fast functional software
//! simulator" (§I).

use crate::record::TraceRecord;

/// A pull-based supplier of pre-decoded trace records in fetch order.
///
/// Returning `None` signals end of trace; sources must keep returning
/// `None` afterwards (fused behaviour).
pub trait TraceSource {
    /// Produces the next record, or `None` at end of trace.
    fn next_record(&mut self) -> Option<TraceRecord>;

    /// Decodes up to `buf.len()` records into `buf`, returning how many
    /// were written (0 only at end of trace; fused thereafter).
    ///
    /// This is the batched counterpart of [`TraceSource::next_record`]:
    /// a consumer that pulls records in blocks pays the source's
    /// per-call costs (virtual dispatch, decoder state loads, bounds
    /// set-up) once per block instead of once per record. The default
    /// implementation loops `next_record`, so every source gets the API
    /// for free; sources with a cheaper block path override it —
    /// [`SliceSource`] copies a sub-slice, and the codec-backed
    /// [`FileSource`](crate::FileSource) runs its bit-level decode loop
    /// without surfacing between records.
    ///
    /// Records land in `buf[..n]` in trace order; `buf[n..]` is left
    /// untouched. A short return (`n < buf.len()`) means end of trace,
    /// exactly like `next_record` returning `None`.
    fn fill(&mut self, buf: &mut [TraceRecord]) -> usize {
        let mut n = 0;
        while n < buf.len() {
            match self.next_record() {
                Some(r) => {
                    buf[n] = r;
                    n += 1;
                }
                None => break,
            }
        }
        n
    }

    /// Discards the next `n` records, returning how many were actually
    /// discarded (less than `n` only at end of trace).
    ///
    /// The default implementation decodes and drops records one by one;
    /// sources with cheaper seeks override it —
    /// [`SliceSource`] jumps its cursor in O(1), and
    /// [`FileSource`](crate::FileSource) decodes and discards a batch in
    /// its block loop, stopping where `next_record` would.
    /// Sampled simulation uses this for warmup fast-forward between
    /// detailed windows.
    fn skip(&mut self, n: u64) -> u64 {
        for skipped in 0..n {
            if self.next_record().is_none() {
                return skipped;
            }
        }
        n
    }

    /// Borrows a sub-source yielding at most the next `records` records.
    ///
    /// The underlying source keeps whatever the window does not consume —
    /// this is the interval-iteration primitive of sampled simulation:
    /// each detailed window runs the engine over `source.window(d)` while
    /// the surrounding warmup loop keeps streaming the same source.
    fn window(&mut self, records: u64) -> Window<'_, Self>
    where
        Self: Sized,
    {
        Window {
            source: self,
            remaining: records,
        }
    }
}

impl<T: TraceSource + ?Sized> TraceSource for &mut T {
    fn next_record(&mut self) -> Option<TraceRecord> {
        (**self).next_record()
    }

    fn fill(&mut self, buf: &mut [TraceRecord]) -> usize {
        (**self).fill(buf)
    }

    fn skip(&mut self, n: u64) -> u64 {
        (**self).skip(n)
    }
}

impl<T: TraceSource + ?Sized> TraceSource for Box<T> {
    fn next_record(&mut self) -> Option<TraceRecord> {
        (**self).next_record()
    }

    fn fill(&mut self, buf: &mut [TraceRecord]) -> usize {
        (**self).fill(buf)
    }

    fn skip(&mut self, n: u64) -> u64 {
        (**self).skip(n)
    }
}

/// A bounded view over a borrowed [`TraceSource`]: yields at most a fixed
/// number of records, then reports end of trace while the underlying
/// source retains its position. Created by [`TraceSource::window`].
#[derive(Debug)]
pub struct Window<'a, S: TraceSource> {
    source: &'a mut S,
    remaining: u64,
}

impl<S: TraceSource> Window<'_, S> {
    /// Unused budget: the window's record cap minus what it has yielded.
    /// Stays put when the underlying source ends early, so
    /// `cap - remaining()` is always the count actually consumed.
    pub fn remaining(&self) -> u64 {
        self.remaining
    }
}

impl<S: TraceSource> TraceSource for Window<'_, S> {
    fn next_record(&mut self) -> Option<TraceRecord> {
        if self.remaining == 0 {
            return None;
        }
        let r = self.source.next_record();
        if r.is_some() {
            self.remaining -= 1;
        }
        r
    }

    fn fill(&mut self, buf: &mut [TraceRecord]) -> usize {
        let cap = (buf.len() as u64).min(self.remaining) as usize;
        let n = self.source.fill(&mut buf[..cap]);
        self.remaining -= n as u64;
        n
    }

    fn skip(&mut self, n: u64) -> u64 {
        let skipped = self.source.skip(n.min(self.remaining));
        self.remaining -= skipped;
        skipped
    }
}

/// A [`TraceSource`] over a borrowed record slice.
#[derive(Debug, Clone)]
pub struct SliceSource<'a> {
    records: &'a [TraceRecord],
    pos: usize,
}

impl<'a> SliceSource<'a> {
    /// Creates a source over `records`.
    pub fn new(records: &'a [TraceRecord]) -> Self {
        Self { records, pos: 0 }
    }

    /// Records consumed so far.
    pub fn consumed(&self) -> usize {
        self.pos
    }
}

impl TraceSource for SliceSource<'_> {
    fn next_record(&mut self) -> Option<TraceRecord> {
        let r = self.records.get(self.pos).copied();
        if r.is_some() {
            self.pos += 1;
        }
        r
    }

    fn fill(&mut self, buf: &mut [TraceRecord]) -> usize {
        let n = buf.len().min(self.records.len() - self.pos);
        buf[..n].copy_from_slice(&self.records[self.pos..self.pos + n]);
        self.pos += n;
        n
    }

    fn skip(&mut self, n: u64) -> u64 {
        let left = (self.records.len() - self.pos) as u64;
        let skipped = n.min(left);
        self.pos += skipped as usize;
        skipped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{OpClass, OtherRecord};

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
    fn slice_source_yields_all_then_fuses() {
        let records = recs(3);
        let mut s = SliceSource::new(&records);
        assert!(s.next_record().is_some());
        assert!(s.next_record().is_some());
        assert!(s.next_record().is_some());
        assert!(s.next_record().is_none());
        assert!(s.next_record().is_none());
        assert_eq!(s.consumed(), 3);
    }

    #[test]
    fn source_through_mut_ref() {
        fn drain(mut src: impl TraceSource) -> u32 {
            let mut n = 0;
            while src.next_record().is_some() {
                n += 1;
            }
            n
        }
        let records = recs(5);
        let mut s = SliceSource::new(&records);
        assert_eq!(drain(&mut s), 5);
    }

    #[test]
    fn boxed_source() {
        let records = recs(2);
        let mut boxed: Box<dyn TraceSource + '_> = Box::new(SliceSource::new(&records));
        assert!(boxed.next_record().is_some());
    }

    #[test]
    fn slice_skip_jumps_the_cursor() {
        let records = recs(10);
        let mut s = SliceSource::new(&records);
        assert_eq!(s.skip(3), 3);
        assert_eq!(s.consumed(), 3);
        assert_eq!(s.next_record().unwrap().pc(), 3 * 4);
        assert_eq!(s.skip(100), 6, "skip clamps at end of trace");
        assert!(s.next_record().is_none());
        assert_eq!(s.skip(1), 0);
    }

    /// A source that only implements `next_record`, exercising the default
    /// decode-and-discard `skip`.
    struct Minimal(SliceSource<'static>);
    impl TraceSource for Minimal {
        fn next_record(&mut self) -> Option<TraceRecord> {
            self.0.next_record()
        }
    }

    #[test]
    fn default_skip_matches_override() {
        let records: &'static [TraceRecord] = recs(10).leak();
        let mut fast = SliceSource::new(records);
        let mut slow = Minimal(SliceSource::new(records));
        assert_eq!(fast.skip(4), slow.skip(4));
        assert_eq!(fast.next_record(), slow.next_record());
        assert_eq!(fast.skip(99), slow.skip(99));
    }

    #[test]
    fn window_bounds_and_leaves_the_rest() {
        let records = recs(10);
        let mut s = SliceSource::new(&records);
        {
            let mut w = s.window(4);
            assert_eq!(w.skip(1), 1);
            assert_eq!(w.next_record().unwrap().pc(), 4);
            assert_eq!(w.remaining(), 2);
            assert!(w.next_record().is_some());
            assert!(w.next_record().is_some());
            assert!(w.next_record().is_none(), "window exhausted");
        }
        assert_eq!(s.consumed(), 4, "underlying source keeps the rest");
        assert_eq!(s.next_record().unwrap().pc(), 4 * 4);
    }

    #[test]
    fn window_larger_than_source_fuses() {
        let records = recs(2);
        let mut s = SliceSource::new(&records);
        let mut w = s.window(5);
        assert!(w.next_record().is_some());
        assert!(w.next_record().is_some());
        assert!(w.next_record().is_none());
        assert_eq!(
            w.remaining(),
            3,
            "budget is untouched by source exhaustion: 5 - 2 consumed"
        );
    }
}
