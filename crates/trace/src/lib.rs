//! # resim-trace
//!
//! Pre-decoded instruction trace model for the ReSim trace-driven ILP
//! processor simulator (Fytraki & Pnevmatikatos, DATE 2009).
//!
//! ReSim never executes instructions: it consumes a *pre-decoded* trace in
//! which every dynamic instruction is one of three record formats —
//! **Branch (B)**, **Memory (M)** and **Other (O)** — each with its own
//! fields and bit length (paper §V.A). All formats carry a **Tag bit** that
//! marks *wrong-path* (mis-speculated) instructions inserted by the trace
//! generator after mispredicted branches.
//!
//! Because the trace is generic and fully decoded, the timing engine is
//! almost ISA-independent: any ISA whose dynamic behaviour can be projected
//! onto these three formats (PISA, Alpha, ...) is supported.
//!
//! This crate provides:
//!
//! * [`TraceRecord`] and its three variants ([`BranchRecord`],
//!   [`MemRecord`], [`OtherRecord`]) — the in-memory decoded form;
//! * a bit-exact variable-length codec ([`TraceEncoder`],
//!   [`Trace::encode_v2`]) reproducing the paper's per-format trace
//!   lengths (Table 3 reports 41–47 bits per instruction on SPECINT
//!   2000), whose streams decode through one bit reader and one record
//!   source, [`FileSource`] — over memory ([`EncodedTrace::source`]) or
//!   a container file alike;
//! * [`Trace`], an owned record buffer, and the [`TraceSource`] streaming
//!   abstraction the engine consumes (supporting both off-line traces and
//!   FAST-style on-the-fly generation);
//! * [`TraceStats`], the bits-per-instruction accounting used by the
//!   paper's Table 3 trace-bandwidth analysis;
//! * a versioned **on-disk trace container** ([`TraceFileHeader`],
//!   [`save_trace_file`], streaming [`FileSource`]) so traces are
//!   generated once and replayed across tools — the file-system analogue
//!   of the paper's host→FPGA trace link (see the `resim` CLI).
//!
//! ## Example
//!
//! ```
//! use resim_trace::{BranchKind, BranchRecord, OtherRecord, OpClass, Reg,
//!                   Trace, TraceRecord};
//!
//! let mut trace = Trace::new();
//! trace.push(TraceRecord::Other(OtherRecord {
//!     pc: 0x1000,
//!     class: OpClass::IntAlu,
//!     dest: Some(Reg::new(3)),
//!     src1: Some(Reg::new(1)),
//!     src2: Some(Reg::new(2)),
//!     wrong_path: false,
//! }));
//! trace.push(TraceRecord::Branch(BranchRecord {
//!     pc: 0x1004,
//!     target: 0x2000,
//!     taken: true,
//!     kind: BranchKind::Cond,
//!     src1: Some(Reg::new(3)),
//!     src2: None,
//!     wrong_path: false,
//! }));
//!
//! let encoded = trace.encode();
//! let round = encoded.decode().expect("well-formed trace");
//! assert_eq!(round.records(), trace.records());
//! assert!(encoded.stats().bits_per_instruction() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bits;
mod codec;
mod codec_v2;
mod file;
mod fingerprint;
mod record;
mod source;
mod stats;

pub use codec::{DecodeError, EncodedTrace, TraceEncoder, TRACE_LAYOUT_VERSION};
pub use codec_v2::TRACE_LAYOUT_VERSION_V2;
pub use file::{
    save_trace_file, FileError, FileSource, TraceFileError, TraceFileHeader,
    SUPPORTED_LAYOUT_VERSIONS, TRACE_CONTAINER_VERSION, TRACE_FILE_MAGIC,
};
pub use fingerprint::Fnv64;
pub use record::{
    BranchKind, BranchRecord, MemKind, MemRecord, MemSize, OpClass, OtherRecord, Reg, RegClass,
    TraceRecord,
};
pub use source::{SliceSource, TraceSource, Window};
pub use stats::TraceStats;

/// An owned, in-memory sequence of trace records.
///
/// A `Trace` is what the trace generator produces in batch mode and what
/// tests use to drive the engine deterministically. Use
/// [`Trace::encode`] to obtain the bit-packed wire format whose size the
/// paper's Table 3 analyses, and [`Trace::source`] to feed the engine.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    records: Vec<TraceRecord>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a trace from a vector of records.
    pub fn from_records(records: Vec<TraceRecord>) -> Self {
        Self { records }
    }

    /// Appends one record.
    pub fn push(&mut self, record: TraceRecord) {
        self.records.push(record);
    }

    /// The records in program (fetch) order.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Number of records (dynamic instructions, wrong-path included).
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the trace holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Number of correct-path (untagged) records.
    pub fn correct_path_len(&self) -> usize {
        self.records.iter().filter(|r| !r.wrong_path()).count()
    }

    /// Number of wrong-path (Tag = 1) records.
    pub fn wrong_path_len(&self) -> usize {
        self.records.iter().filter(|r| r.wrong_path()).count()
    }

    /// Encodes into the bit-packed wire format (the v1 Table-3 layout).
    pub fn encode(&self) -> EncodedTrace {
        let mut enc = TraceEncoder::new();
        for r in &self.records {
            enc.push(r);
        }
        enc.finish()
    }

    /// Encodes into the delta/run-length-compressed v2 layout
    /// ([`TRACE_LAYOUT_VERSION_V2`]).
    ///
    /// v2 encoding is a whole-trace pass (PC grouping and branch-outcome
    /// runs need lookahead), so unlike [`Trace::encode`] there is no
    /// streaming encoder behind it. The result decodes through the same
    /// [`EncodedTrace::decode`]/[`EncodedTrace::source`] entry points and
    /// ships in the same on-disk container, negotiated via the header's
    /// layout-version field.
    pub fn encode_v2(&self) -> EncodedTrace {
        codec_v2::encode_v2(&self.records)
    }

    /// Computes the per-format statistics without encoding.
    ///
    /// Each record's size is read off the v1 layout in closed form, so
    /// the bit counts equal what [`Trace::encode`] would produce while
    /// no bit is written.
    pub fn stats(&self) -> TraceStats {
        let mut stats = TraceStats::new();
        let mut expected_pc = None;
        for r in &self.records {
            stats.account(r, codec::v1_record_bits(r, expected_pc));
            expected_pc = Some(r.implied_next_pc());
        }
        stats
    }

    /// A [`TraceSource`] yielding this trace's records by value.
    pub fn source(&self) -> SliceSource<'_> {
        SliceSource::new(&self.records)
    }

    /// Consumes the trace, returning the record vector.
    pub fn into_records(self) -> Vec<TraceRecord> {
        self.records
    }
}

impl FromIterator<TraceRecord> for Trace {
    fn from_iter<I: IntoIterator<Item = TraceRecord>>(iter: I) -> Self {
        Self {
            records: iter.into_iter().collect(),
        }
    }
}

impl Extend<TraceRecord> for Trace {
    fn extend<I: IntoIterator<Item = TraceRecord>>(&mut self, iter: I) {
        self.records.extend(iter);
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a TraceRecord;
    type IntoIter = std::slice::Iter<'a, TraceRecord>;
    fn into_iter(self) -> Self::IntoIter {
        self.records.iter()
    }
}

impl IntoIterator for Trace {
    type Item = TraceRecord;
    type IntoIter = std::vec::IntoIter<TraceRecord>;
    fn into_iter(self) -> Self::IntoIter {
        self.records.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alu(pc: u32) -> TraceRecord {
        TraceRecord::Other(OtherRecord {
            pc,
            class: OpClass::IntAlu,
            dest: Some(Reg::new(1)),
            src1: Some(Reg::new(2)),
            src2: None,
            wrong_path: false,
        })
    }

    #[test]
    fn empty_trace() {
        let t = Trace::new();
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert_eq!(t.correct_path_len(), 0);
        assert_eq!(t.wrong_path_len(), 0);
    }

    #[test]
    fn push_and_iterate() {
        let mut t = Trace::new();
        t.push(alu(0x1000));
        t.push(alu(0x1004));
        assert_eq!(t.len(), 2);
        let pcs: Vec<u32> = t.into_iter().map(|r| r.pc()).collect();
        assert_eq!(pcs, vec![0x1000, 0x1004]);
    }

    #[test]
    fn wrong_path_counting() {
        let mut t = Trace::new();
        t.push(alu(0));
        let mut wp = alu(4);
        if let TraceRecord::Other(o) = &mut wp {
            o.wrong_path = true;
        }
        t.push(wp);
        assert_eq!(t.correct_path_len(), 1);
        assert_eq!(t.wrong_path_len(), 1);
    }

    #[test]
    fn from_iterator_collect() {
        let t: Trace = (0..10u32).map(|i| alu(i * 4)).collect();
        assert_eq!(t.len(), 10);
    }
}
