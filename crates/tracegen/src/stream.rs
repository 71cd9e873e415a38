//! Streaming (on-the-fly) trace generation.
//!
//! Wraps any correct-path record iterator — a synthetic [`Workload`],
//! a functional-simulator run, a decoded off-line trace — and yields the
//! tagged trace record-by-record through [`resim_trace::TraceSource`].
//! This is the paper's FAST-style coupled mode: "we also investigate ways
//! to produce the trace on the fly directly from a functional simulator"
//! (§VI).
//!
//! [`Workload`]: https://docs.rs/resim-workloads

use crate::wrongpath::WrongPathSynth;
use crate::{Tagger, TraceGenConfig, TraceGenStats};
use resim_trace::{TraceRecord, TraceSource};

/// A [`TraceSource`] that tags mispredictions and splices wrong-path
/// blocks into an underlying correct-path stream, on the fly.
#[derive(Debug, Clone)]
pub struct TraceStream<I> {
    inner: I,
    tagger: Tagger,
    synth: WrongPathSynth,
    wrong_path_len: usize,
    /// The wrong-path block being emitted; `queue[queued..]` is still
    /// to come.
    queue: Vec<TraceRecord>,
    queued: usize,
    done: bool,
}

impl<I: Iterator<Item = TraceRecord>> TraceStream<I> {
    /// Wraps `inner` with the given generation configuration.
    pub fn new(inner: I, config: TraceGenConfig) -> Self {
        Self {
            inner,
            tagger: Tagger::new(config.predictor),
            synth: WrongPathSynth::new(config.seed),
            wrong_path_len: config.wrong_path_len,
            queue: Vec::new(),
            queued: 0,
            done: false,
        }
    }

    /// Generation statistics so far.
    pub fn stats(&self) -> TraceGenStats {
        self.tagger.stats()
    }
}

impl<I: Iterator<Item = TraceRecord>> TraceSource for TraceStream<I> {
    fn next_record(&mut self) -> Option<TraceRecord> {
        if let Some(&r) = self.queue.get(self.queued) {
            self.queued += 1;
            return Some(r);
        }
        if self.done {
            return None;
        }
        match self.inner.next() {
            None => {
                self.done = true;
                None
            }
            Some(record) => {
                debug_assert!(
                    !record.wrong_path(),
                    "input streams must be correct-path only"
                );
                self.synth.observe(&record);
                if let Some(wrong_pc) = self.tagger.process(&record) {
                    // The previous block is drained: reuse its buffer.
                    self.queue.clear();
                    self.queued = 0;
                    self.synth.block(wrong_pc, self.wrong_path_len, &mut self.queue);
                    self.tagger.count_wrong_path(self.wrong_path_len as u64);
                }
                Some(record)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resim_trace::{BranchKind, BranchRecord, OpClass, OtherRecord};

    fn stream_of(n: usize) -> impl Iterator<Item = TraceRecord> {
        (0..n).map(|i| {
            if i % 3 == 2 {
                TraceRecord::Branch(BranchRecord {
                    pc: (i as u32) * 4,
                    target: 0x100,
                    taken: i % 2 == 0,
                    kind: BranchKind::Cond,
                    src1: None,
                    src2: None,
                    wrong_path: false,
                })
            } else {
                TraceRecord::Other(OtherRecord {
                    pc: (i as u32) * 4,
                    class: OpClass::IntAlu,
                    dest: None,
                    src1: None,
                    src2: None,
                    wrong_path: false,
                })
            }
        })
    }

    #[test]
    fn streaming_matches_batch() {
        let cfg = TraceGenConfig::paper();
        let batch = crate::generate_trace(stream_of(3000), 3000, &cfg);
        let mut s = TraceStream::new(stream_of(3000), cfg);
        let mut streamed = Vec::new();
        while let Some(r) = s.next_record() {
            streamed.push(r);
        }
        assert_eq!(batch.records(), streamed.as_slice());
    }

    #[test]
    fn stats_count_both_paths() {
        let cfg = TraceGenConfig::paper();
        let mut s = TraceStream::new(stream_of(3000), cfg);
        while s.next_record().is_some() {}
        let st = s.stats();
        assert_eq!(st.correct_records, 3000);
        assert_eq!(st.branches, 1000);
        assert_eq!(
            st.wrong_path_records,
            st.dir_mispredicts * cfg.wrong_path_len as u64
        );
        assert!(st.expansion() >= 1.0);
    }

    #[test]
    fn exhausted_stream_fuses() {
        let mut s = TraceStream::new(stream_of(5), TraceGenConfig::perfect());
        let mut n = 0;
        while s.next_record().is_some() {
            n += 1;
        }
        assert_eq!(n, 5);
        assert!(s.next_record().is_none());
        assert!(s.next_record().is_none());
    }
}
