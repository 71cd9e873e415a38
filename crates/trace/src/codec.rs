//! Bit-exact variable-length trace codec.
//!
//! The wire format follows the paper's description (§V.A): three record
//! formats with distinct lengths, selected by a 2-bit format field, each
//! carrying the 1-bit mis-speculation Tag. Program counters are
//! delta-compressed: a record whose PC equals the PC implied by the
//! previous record (sequential flow, or the previous branch's outcome)
//! spends a single flag bit; any discontinuity (trace start, wrong-path
//! block entry/exit, misfetch replay) spends 1 + 32 bits. This is what
//! keeps the average record in the 40-some-bit range the paper reports in
//! Table 3 while still carrying full 32-bit effective addresses and branch
//! targets.
//!
//! Layout (LSB-first bit order):
//!
//! ```text
//! common header: fmt(2) tag(1) pc_explicit(1) [pc(32)]
//! O: class(2) dest?(1[+6]) src1?(1[+6]) src2?(1[+6])
//! M: kind(1) size(2) addr(32) base?(1[+6]) data?(1[+6])
//! B: kind(3) taken(1) target(32) src1?(1[+6]) src2?(1[+6])
//! ```
//!
//! Every record is **padded to a byte boundary**, as a hardware trace
//! decoder (and any practical trace transport) requires: a typical Other
//! record costs 4 bytes, Memory and Branch records 7, and a record
//! following a PC discontinuity 4 more. The resulting 40-some bits per
//! average instruction is the band the paper's Table 3 reports (41–47
//! bits/instruction on SPECINT).
//!
//! [`TraceEncoder`] writes the stream; there is no separate decoder type.
//! [`EncodedTrace::source`] and [`EncodedTrace::decode`] read it back
//! through [`FileSource`], the crate's one record source, whose bit
//! reader streams off an `&[u8]` here and off a file for a container.
//! The record decoder reads its fields unchecked through a window of
//! the reader's block, at most [`MAX_V1_RECORD_BITS`] of them; the reader
//! checks once, at the record's end, that the record fit in the bits
//! available (see the [`bits`](crate::bits) module).

use crate::bits::{BitWriter, WindowBits};
use crate::file::{FileError, FileSource, TraceFileHeader};
use crate::record::{
    BranchKind, BranchRecord, MemKind, MemRecord, MemSize, OpClass, OtherRecord, Reg, TraceRecord,
};
use crate::stats::TraceStats;
use crate::Trace;
use std::error::Error;
use std::fmt;

pub(crate) const FMT_OTHER: u32 = 0;
pub(crate) const FMT_MEM: u32 = 1;
pub(crate) const FMT_BRANCH: u32 = 2;

/// Bits of a present register field (flag and index).
pub(crate) const REG_BITS: u32 = 1 + 6;

/// Most bits [`decode_record_bits`] reads for one record, on any input:
/// the common header with an explicit PC, the longest payload (a branch
/// with both registers) and the padding to the next byte. Records start
/// on a byte boundary, so the padding never takes it past a whole byte.
pub(crate) const MAX_V1_RECORD_BITS: u32 = {
    let header = 2 + 1 + 1 + 32;
    let other = 2 + 3 * REG_BITS;
    let mem = 1 + 2 + 32 + 2 * REG_BITS;
    let branch = 3 + 1 + 32 + 2 * REG_BITS;
    let payload = if mem > branch { mem } else { branch };
    let payload = if other > payload { other } else { payload };
    (header + payload).next_multiple_of(8)
};

/// Whether `record` carries its PC explicitly, given the PC implied by
/// the record before it (`None` at trace start).
///
/// Branch records always carry their PC: they are the stream's
/// synchronisation points (misfetch checking and mid-trace seek need
/// the branch PC without decoding the predecessor chain).
fn pc_is_explicit(record: &TraceRecord, expected_pc: Option<u32>) -> bool {
    record.is_branch() || expected_pc != Some(record.pc())
}

/// The size in bits of `record`'s v1 encoding, read off the layout
/// above without encoding it: `4 + 32·explicit + payload`, rounded up
/// to a whole byte. `expected_pc` is the PC implied by the previous
/// record ([`TraceRecord::implied_next_pc`]), `None` at trace start.
pub(crate) fn v1_record_bits(record: &TraceRecord, expected_pc: Option<u32>) -> u64 {
    let reg = |r: Option<Reg>| if r.is_some() { 1 + 6 } else { 1 };
    let payload = match record {
        TraceRecord::Other(o) => 2 + reg(o.dest) + reg(o.src1) + reg(o.src2),
        TraceRecord::Mem(m) => 1 + 2 + 32 + reg(m.base) + reg(m.data),
        TraceRecord::Branch(b) => 3 + 1 + 32 + reg(b.src1) + reg(b.src2),
    };
    let explicit = u64::from(pc_is_explicit(record, expected_pc));
    (4 + 32 * explicit + payload).next_multiple_of(8)
}

/// Version of the record bit layout this codec produces.
///
/// Stored in the on-disk trace container header
/// ([`TraceFileHeader`](crate::TraceFileHeader)) so a reader can reject
/// traces written under a different layout instead of mis-decoding them.
/// Bump on **any** change to the wire format documented at the top of
/// this module — field widths, field order, padding or the PC
/// delta-compression rule.
pub const TRACE_LAYOUT_VERSION: u16 = 1;

/// Streaming encoder producing the bit-packed wire format.
///
/// Push records in fetch order and call [`TraceEncoder::finish`] to obtain
/// the [`EncodedTrace`]. Statistics (per-format record and bit counts) are
/// accumulated on the fly, so [`TraceEncoder::stats`] can be consulted at
/// any point — this is how the on-the-fly generation mode meters its link
/// bandwidth without buffering the whole trace.
#[derive(Debug, Clone, Default)]
pub struct TraceEncoder {
    writer: BitWriter,
    stats: TraceStats,
    expected_pc: Option<u32>,
    records: u64,
}

impl TraceEncoder {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Encodes one record.
    pub fn push(&mut self, record: &TraceRecord) {
        let before = self.writer.len_bits();
        let bits = v1_record_bits(record, self.expected_pc);
        let fmt = match record {
            TraceRecord::Other(_) => FMT_OTHER,
            TraceRecord::Mem(_) => FMT_MEM,
            TraceRecord::Branch(_) => FMT_BRANCH,
        };
        let explicit = pc_is_explicit(record, self.expected_pc);
        // Adjacent fixed-width fields go out as one value, LSB-first in
        // layout order.
        let head = fmt | u32::from(record.wrong_path()) << 2 | u32::from(explicit) << 3;
        self.writer.put(head, 4);
        if explicit {
            self.writer.put(record.pc(), 32);
        }
        match record {
            TraceRecord::Other(o) => {
                self.writer.put(o.class.encode(), 2);
                put_regs(&mut self.writer, [o.dest, o.src1, o.src2]);
            }
            TraceRecord::Mem(m) => {
                self.writer.put(m.kind.encode() | m.size.encode() << 1, 3);
                self.writer.put(m.addr, 32);
                put_regs(&mut self.writer, [m.base, m.data]);
            }
            TraceRecord::Branch(b) => {
                self.writer
                    .put(b.kind.encode() | u32::from(b.taken) << 3, 4);
                self.writer.put(b.target, 32);
                put_regs(&mut self.writer, [b.src1, b.src2]);
            }
        }
        // Byte-align each record (hardware decoder framing).
        self.writer.pad_to_byte();
        debug_assert_eq!(
            self.writer.len_bits() - before,
            bits,
            "v1_record_bits disagrees with the encoder on {record:?}"
        );
        self.expected_pc = Some(record.implied_next_pc());
        self.stats.account(record, bits);
        self.records += 1;
    }

    /// Statistics over everything encoded so far.
    pub fn stats(&self) -> &TraceStats {
        &self.stats
    }

    /// Number of records encoded so far.
    pub fn len(&self) -> u64 {
        self.records
    }

    /// Whether no records have been encoded.
    pub fn is_empty(&self) -> bool {
        self.records == 0
    }

    /// Finishes encoding and returns the packed trace.
    pub fn finish(self) -> EncodedTrace {
        let (bytes, len_bits) = self.writer.finish();
        EncodedTrace {
            bytes,
            len_bits,
            records: self.records,
            stats: self.stats,
            layout: TRACE_LAYOUT_VERSION,
        }
    }
}

/// Writes a record's register fields in one `put`, LSB-first in the
/// given order: each a presence flag, then the 6-bit index if present
/// (at most 21 bits for three registers).
#[inline]
pub(crate) fn put_regs<const N: usize>(w: &mut BitWriter, regs: [Option<Reg>; N]) {
    let (mut field, mut nbits) = (0u32, 0u32);
    for reg in regs {
        let (value, width) = match reg {
            Some(r) => (1 | u32::from(r.index()) << 1, 7),
            None => (0, 1),
        };
        field |= value << nbits;
        nbits += width;
    }
    w.put(field, nbits);
}

#[inline(always)]
pub(crate) fn get_reg(r: &mut WindowBits<'_>) -> Option<Reg> {
    r.get_present(6).map(|idx| Reg::new(idx as u8))
}

/// A bit-packed, encoded trace plus its accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedTrace {
    bytes: Vec<u8>,
    len_bits: u64,
    records: u64,
    stats: TraceStats,
    layout: u16,
}

impl EncodedTrace {
    pub(crate) fn from_raw_parts(
        bytes: Vec<u8>,
        len_bits: u64,
        records: u64,
        stats: TraceStats,
        layout: u16,
    ) -> Self {
        Self {
            bytes,
            len_bits,
            records,
            stats,
            layout,
        }
    }

    /// The packed bytes (the final byte may be partially used).
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The record bit-layout version of this stream
    /// ([`TRACE_LAYOUT_VERSION`] or
    /// [`TRACE_LAYOUT_VERSION_V2`](crate::TRACE_LAYOUT_VERSION_V2)).
    pub fn layout_version(&self) -> u16 {
        self.layout
    }

    /// Exact number of payload bits.
    pub fn len_bits(&self) -> u64 {
        self.len_bits
    }

    /// Number of records encoded.
    pub fn len(&self) -> u64 {
        self.records
    }

    /// Whether the trace holds no records.
    pub fn is_empty(&self) -> bool {
        self.records == 0
    }

    /// Per-format statistics (record counts, bit counts).
    pub fn stats(&self) -> &TraceStats {
        &self.stats
    }

    /// Decodes the whole trace back into record form, dispatching on the
    /// stream's layout version.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] if the bit stream is truncated or contains
    /// an invalid format/enum field.
    pub fn decode(&self) -> Result<Trace, DecodeError> {
        use crate::TraceSource as _;
        let mut src = self.source();
        let mut out = Vec::with_capacity(self.records as usize);
        while let Some(r) = src.next_record() {
            out.push(r);
        }
        match src.error() {
            None => Ok(Trace::from_records(out)),
            Some(FileError::Decode(e)) => Err(*e),
            // An I/O error: the body is shorter than its bit length.
            Some(_) => Err(DecodeError::Truncated),
        }
    }

    /// A streaming [`TraceSource`](crate::TraceSource) decoding records on
    /// the fly: the [`FileSource`] every encoded stream decodes through,
    /// reading this trace's body from memory under a header that
    /// describes it (no workload id, seed or fingerprint).
    pub fn source(&self) -> FileSource<&[u8]> {
        FileSource::new(TraceFileHeader::for_trace(self, "", 0, 0), &self.bytes[..])
    }
}

/// Decodes one v1 record at the window's cursor, reading at most
/// [`MAX_V1_RECORD_BITS`] bits on any input.
///
/// Each check follows the field it tests, so a decoder that stops at an
/// error has read no field past it; whether the record fit in the body
/// is for the caller to check, at its end.
///
/// # Errors
///
/// [`DecodeError::BadFormat`] / [`DecodeError::BadEnum`] on invalid field
/// values, [`DecodeError::MissingPc`] on an implicit PC with no record
/// before it.
#[inline(always)]
pub(crate) fn decode_record_bits(
    reader: &mut WindowBits<'_>,
    expected_pc: &mut Option<u32>,
) -> Result<TraceRecord, DecodeError> {
    let fmt = reader.get(2);
    if fmt > FMT_BRANCH {
        return Err(DecodeError::BadFormat(fmt as u8));
    }
    let wrong_path = reader.get_bool();
    let pc = if reader.get_bool() {
        reader.get(32)
    } else {
        expected_pc.ok_or(DecodeError::MissingPc)?
    };
    let record = match fmt {
        FMT_OTHER => {
            let class = OpClass::decode(reader.get(2)).ok_or(DecodeError::BadEnum("op class"))?;
            TraceRecord::Other(OtherRecord {
                pc,
                class,
                dest: get_reg(reader),
                src1: get_reg(reader),
                src2: get_reg(reader),
                wrong_path,
            })
        }
        FMT_MEM => {
            let kind = if reader.get_bool() {
                MemKind::Store
            } else {
                MemKind::Load
            };
            let size = MemSize::decode(reader.get(2)).ok_or(DecodeError::BadEnum("mem size"))?;
            TraceRecord::Mem(MemRecord {
                pc,
                addr: reader.get(32),
                size,
                kind,
                base: get_reg(reader),
                data: get_reg(reader),
                wrong_path,
            })
        }
        _ => {
            let kind =
                BranchKind::decode(reader.get(3)).ok_or(DecodeError::BadEnum("branch kind"))?;
            TraceRecord::Branch(BranchRecord {
                pc,
                taken: reader.get_bool(),
                target: reader.get(32),
                kind,
                src1: get_reg(reader),
                src2: get_reg(reader),
                wrong_path,
            })
        }
    };
    // Skip the byte-alignment padding.
    reader.align_to_byte();
    *expected_pc = Some(record.implied_next_pc());
    Ok(record)
}

/// Errors produced when decoding a packed trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The bit stream ended in the middle of a record.
    Truncated,
    /// Reserved format tag encountered.
    BadFormat(u8),
    /// An enum field held an out-of-range value.
    BadEnum(&'static str),
    /// First record used implicit-PC encoding (nothing to inherit from).
    MissingPc,
    /// A v2 varint claimed more groups than a 64-bit value can need.
    BadVarint,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "trace bit stream truncated mid-record"),
            DecodeError::BadFormat(v) => write!(f, "reserved trace format tag {v}"),
            DecodeError::BadEnum(what) => write!(f, "invalid {what} field value"),
            DecodeError::MissingPc => {
                write!(f, "implicit pc encoding with no preceding record")
            }
            DecodeError::BadVarint => write!(f, "overlong varint in v2 stream"),
        }
    }
}

impl Error for DecodeError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::tests::read_windows;

    fn sample_records() -> Vec<TraceRecord> {
        vec![
            TraceRecord::Other(OtherRecord {
                pc: 0x40_0000,
                class: OpClass::IntAlu,
                dest: Some(Reg::new(3)),
                src1: Some(Reg::new(1)),
                src2: Some(Reg::new(2)),
                wrong_path: false,
            }),
            TraceRecord::Mem(MemRecord {
                pc: 0x40_0004,
                addr: 0x1000_0040,
                size: MemSize::Word,
                kind: MemKind::Load,
                base: Some(Reg::new(29)),
                data: Some(Reg::new(4)),
                wrong_path: false,
            }),
            TraceRecord::Branch(BranchRecord {
                pc: 0x40_0008,
                target: 0x40_0100,
                taken: true,
                kind: BranchKind::Cond,
                src1: Some(Reg::new(4)),
                src2: None,
                wrong_path: false,
            }),
            // Wrong-path block entered at the fall-through (explicit pc).
            TraceRecord::Other(OtherRecord {
                pc: 0x40_000C,
                class: OpClass::Nop,
                dest: None,
                src1: None,
                src2: None,
                wrong_path: true,
            }),
            // Correct path resumes at the target (explicit pc again).
            TraceRecord::Other(OtherRecord {
                pc: 0x40_0100,
                class: OpClass::IntDiv,
                dest: Some(Reg::new(8)),
                src1: Some(Reg::new(8)),
                src2: Some(Reg::new(9)),
                wrong_path: false,
            }),
        ]
    }

    #[test]
    fn roundtrip_sample() {
        let trace = Trace::from_records(sample_records());
        let enc = trace.encode();
        assert_eq!(enc.len(), 5);
        let dec = enc.decode().unwrap();
        assert_eq!(dec.records(), trace.records());
    }

    #[test]
    fn sequential_pc_is_implicit() {
        // Two sequential ALU ops: second record must not carry a 32-bit pc.
        let mk = |pc| {
            TraceRecord::Other(OtherRecord {
                pc,
                class: OpClass::IntAlu,
                dest: None,
                src1: None,
                src2: None,
                wrong_path: false,
            })
        };
        let mut enc = TraceEncoder::new();
        enc.push(&mk(0x100));
        let first = enc.stats().total_bits();
        enc.push(&mk(0x104));
        let second = enc.stats().total_bits() - first;
        assert_eq!(second, first - 32, "sequential record should drop the pc");
        assert_eq!(second % 8, 0, "records are byte-aligned");
    }

    #[test]
    fn taken_branch_target_becomes_implicit_base() {
        let mut enc = TraceEncoder::new();
        enc.push(&TraceRecord::Branch(BranchRecord {
            pc: 0x100,
            target: 0x800,
            taken: true,
            kind: BranchKind::Jump,
            src1: None,
            src2: None,
            wrong_path: false,
        }));
        let bits_before = enc.stats().total_bits();
        enc.push(&TraceRecord::Other(OtherRecord {
            pc: 0x800,
            class: OpClass::IntAlu,
            dest: None,
            src1: None,
            src2: None,
            wrong_path: false,
        }));
        // Header(4) + class(2) + three absent-reg flags(3) = 9 bits,
        // byte-aligned to 16.
        assert_eq!(enc.stats().total_bits() - bits_before, 16);
        let enc = enc.finish();
        let dec = enc.decode().unwrap();
        assert_eq!(dec.records()[1].pc(), 0x800);
    }

    /// A source over `bytes` whose header declares `len_bits` bits and
    /// `records` records.
    fn source_over(bytes: &[u8], len_bits: u64, records: u64) -> FileSource<&[u8]> {
        let header = TraceFileHeader {
            len_bits,
            records,
            ..TraceFileHeader::for_trace(&TraceEncoder::new().finish(), "", 0, 0)
        };
        FileSource::new(header, bytes)
    }

    #[test]
    fn truncated_stream_errors() {
        use crate::TraceSource as _;
        let trace = Trace::from_records(sample_records());
        let enc = trace.encode();
        let mut src = source_over(enc.bytes(), enc.len_bits() - 8, enc.len());
        while src.next_record().is_some() {}
        assert_eq!(
            src.error(),
            Some(&FileError::Decode(DecodeError::Truncated))
        );
    }

    #[test]
    fn bad_format_tag_errors() {
        use crate::TraceSource as _;
        let mut w = BitWriter::new();
        w.put(3, 2); // reserved format
        w.put(0, 2);
        let (bytes, bits) = w.finish();
        let mut src = source_over(&bytes, bits, 1);
        assert_eq!(src.next_record(), None);
        assert_eq!(
            src.error(),
            Some(&FileError::Decode(DecodeError::BadFormat(3)))
        );
    }

    #[test]
    fn empty_stream_decodes_to_empty() {
        let enc = TraceEncoder::new().finish();
        assert!(enc.is_empty());
        let dec = enc.decode().unwrap();
        assert!(dec.is_empty());
    }

    #[test]
    fn skip_record_stays_in_sync_with_decode() {
        use crate::TraceSource as _;
        let trace = Trace::from_records(sample_records());
        let enc = trace.encode();
        // Skip 3, decode the rest: must resume exactly at record 3 even
        // though records 1–3 ride the implicit/explicit PC chain.
        let mut src = enc.source();
        assert_eq!(src.skip(3), 3);
        let rest: Vec<TraceRecord> = std::iter::from_fn(|| src.next_record()).collect();
        assert_eq!(rest, trace.records()[3..]);
        assert!(src.error().is_none());
    }

    #[test]
    fn skip_every_prefix_then_decode_suffix() {
        use crate::TraceSource as _;
        let trace = Trace::from_records(sample_records());
        let enc = trace.encode();
        for n in 0..=trace.len() {
            let mut src = enc.source();
            assert_eq!(src.skip(n as u64), n as u64);
            let rest: Vec<TraceRecord> = std::iter::from_fn(|| src.next_record()).collect();
            assert_eq!(rest, trace.records()[n..], "suffix after skipping {n}");
        }
        // Skipping past the end clamps.
        let mut src = enc.source();
        assert_eq!(src.skip(100), trace.len() as u64);
        assert!(src.next_record().is_none());
    }

    #[test]
    fn encoded_source_streams_whole_trace() {
        use crate::TraceSource as _;
        let trace = Trace::from_records(sample_records());
        let enc = trace.encode();
        let mut src = enc.source();
        let all: Vec<TraceRecord> = std::iter::from_fn(|| src.next_record()).collect();
        assert_eq!(all, trace.records());
        assert!(src.next_record().is_none(), "fused after end");
    }

    #[test]
    fn encoded_source_surfaces_decode_errors() {
        use crate::TraceSource as _;
        let trace = Trace::from_records(sample_records());
        let enc = trace.encode();
        let mut bad = source_over(enc.bytes(), enc.len_bits() - 8, enc.len());
        while bad.next_record().is_some() {}
        assert_eq!(
            bad.error(),
            Some(&FileError::Decode(DecodeError::Truncated))
        );
        assert_eq!(bad.skip(1), 0, "errored source skips nothing");
    }

    #[test]
    fn closed_form_size_matches_the_encoder_for_every_shape() {
        let reg = |present: bool, i: u8| present.then(|| Reg::new(i));
        let mut shapes = Vec::new();
        for mask in 0..8u8 {
            let p = |bit: u8| mask & (1 << bit) != 0;
            for wrong_path in [false, true] {
                shapes.push(TraceRecord::Other(OtherRecord {
                    pc: 0x100,
                    class: OpClass::IntMult,
                    dest: reg(p(0), 1),
                    src1: reg(p(1), 2),
                    src2: reg(p(2), 63),
                    wrong_path,
                }));
                shapes.push(TraceRecord::Mem(MemRecord {
                    pc: 0x100,
                    addr: 0xFFFF_FFFC,
                    size: MemSize::Double,
                    kind: MemKind::Store,
                    base: reg(p(0), 29),
                    data: reg(p(1), 4),
                    wrong_path,
                }));
                for taken in [false, true] {
                    shapes.push(TraceRecord::Branch(BranchRecord {
                        pc: 0x100,
                        target: 0x800,
                        taken,
                        kind: BranchKind::Cond,
                        src1: reg(p(0), 5),
                        src2: reg(p(1), 6),
                        wrong_path,
                    }));
                }
            }
        }
        // Each shape at trace start, after a predecessor implying its
        // PC, and after one implying a different PC.
        for record in &shapes {
            for expected in [None, Some(0x100), Some(0x200)] {
                let mut enc = TraceEncoder::new();
                enc.expected_pc = expected;
                enc.push(record);
                assert_eq!(
                    v1_record_bits(record, expected),
                    enc.finish().len_bits(),
                    "{record:?} after {expected:?}"
                );
            }
        }
    }

    #[test]
    fn the_longest_record_reads_exactly_its_span() {
        let longest = TraceRecord::Branch(BranchRecord {
            pc: 0x100,
            target: 0x800,
            taken: true,
            kind: BranchKind::IndirectCall,
            src1: Some(Reg::new(63)),
            src2: Some(Reg::new(1)),
            wrong_path: true,
        });
        assert_eq!(MAX_V1_RECORD_BITS, 88);
        assert_eq!(v1_record_bits(&longest, None), 88);
        let enc = Trace::from_records(vec![longest]).encode();
        let got = read_windows(enc.bytes(), 1, |w| decode_record_bits(w, &mut None));
        assert_eq!(got, [(Ok(longest), 88)]);
    }

    #[test]
    fn stats_match_encoded_size() {
        let trace = Trace::from_records(sample_records());
        let enc = trace.encode();
        assert_eq!(enc.stats().total_bits(), enc.len_bits());
        assert_eq!(enc.stats().total_records(), enc.len());
    }
}
