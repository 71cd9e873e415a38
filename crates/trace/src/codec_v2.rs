//! The RSTR v2 record bit layout: delta/run-length compression on top of
//! the v1 field inventory.
//!
//! Layout version 2 carries exactly the same information as the Table-3
//! layout in [`codec`](crate::codec) — the three record formats, the Tag
//! bit, full 32-bit addresses and targets — but spends its bits where the
//! streams are predictable instead of padding every record to a byte
//! boundary:
//!
//! * **Grouped PC runs.** Records are framed in *groups*: one PC field
//!   (a zigzag varint delta against the PC the previous record implied,
//!   or an explicit 32-bit escape) followed by a varint run length `n`,
//!   then `1 + n` record payloads that all ride the implied-PC chain.
//!   Sequential code costs its PC once per basic block instead of once
//!   per discontinuity *plus* a flag bit per record.
//! * **Run-length-encoded branch outcomes.** Branch directions are a
//!   highly biased bit stream; v2 stores them as alternating run lengths.
//!   The first run carries one direction bit; every later run flips the
//!   direction implicitly, so `k` consecutive same-direction branches
//!   cost one small varint instead of `k` bits.
//! * **Delta-coded addresses.** A memory record's effective address is a
//!   zigzag varint delta against the previous memory record's address; a
//!   branch target is a delta against its own PC. Both fall back to an
//!   explicit 32-bit escape when the delta would not pay for itself.
//! * **No per-record alignment.** Records pack back to back; only the
//!   container's byte stream pads the final byte.
//!
//! Wire layout (LSB-first bit order):
//!
//! ```text
//! body     = group*                      until the record count is reached
//! group    = pcfield varint(n) record{1+n}
//! pcfield  = 1 varint(zigzag(pc - expected_pc))   delta form
//!          | 0 pc(32)                             escape form
//! record   = fmt(2) tag(1) payload
//! O        : class(2) dest?(1[+6]) src1?(1[+6]) src2?(1[+6])
//! M        : kind(1) size(2) addrfield base?(1[+6]) data?(1[+6])
//! B        : kind(3) [run start: [first run only: dir(1)] rle(len-1)]
//!            targetfield src1?(1[+6]) src2?(1[+6])
//! varint   = (cont(1) group(7))+        LSB group first, ≤ 10 groups
//! rle      = (cont(1) group(2))+        LSB group first, ≤ 32 groups
//! ```
//!
//! `expected_pc` starts at 0; a memory record's address reference starts
//! at 0. Decoding is strictly streaming: the decoder state is a handful
//! of words ([`V2State`]) regardless of trace length, and records are
//! parsed off the crate's one bit reader by the one
//! [`FileSource`](crate::FileSource), whether the body sits in memory
//! ([`EncodedTrace::source`]) or in a container file.

use crate::bits::{BitFields, BitWriter};
use crate::codec::{get_reg, put_regs, DecodeError, EncodedTrace, FMT_BRANCH, FMT_MEM, FMT_OTHER};
use crate::record::{
    BranchKind, BranchRecord, MemKind, MemRecord, MemSize, OpClass, OtherRecord, TraceRecord,
};
use crate::stats::TraceStats;

/// The layout version tag written by [`encode_v2`](crate::Trace::encode_v2).
///
/// Containers carrying this tag in their header are decoded by the
/// routines in this module; version-1 bodies keep decoding through the
/// original Table-3 codec, bit for bit.
pub const TRACE_LAYOUT_VERSION_V2: u16 = 2;

/// Largest zigzag value the delta form of a PC/address/target field may
/// carry: three 7-bit varint groups (25 bits with the mode flag) still
/// undercut the 33-bit explicit escape; a fourth group would not.
const DELTA_MAX: u32 = (1 << 21) - 1;

fn zigzag(delta: u32) -> u32 {
    let d = delta as i32;
    ((d << 1) ^ (d >> 31)) as u32
}

fn unzigzag(z: u32) -> u32 {
    (z >> 1) ^ 0u32.wrapping_sub(z & 1)
}

/// Appends `v` as a bit-level LEB128 varint: 8-bit groups of one
/// continuation flag plus seven value bits, least-significant group first.
pub(crate) fn put_varint(w: &mut BitWriter, mut v: u64) {
    loop {
        let (groups, nbits) = varint_groups(&mut v);
        w.put(groups, nbits);
        if v == 0 {
            break;
        }
    }
}

/// Takes the next (up to three) varint groups off `v`, composed LSB-first
/// into one value of at most 24 bits; returns it and its width.
fn varint_groups(v: &mut u64) -> (u32, u32) {
    let (mut groups, mut nbits) = (0u32, 0u32);
    loop {
        let group = (*v & 0x7F) as u32;
        *v >>= 7;
        groups |= (u32::from(*v != 0) | group << 1) << nbits;
        nbits += 8;
        if *v == 0 || nbits == 24 {
            return (groups, nbits);
        }
    }
}

/// Most groups a varint may carry: enough for any `u64`.
const VARINT_GROUPS: u32 = u64::BITS.div_ceil(7);

/// Reads a varint written by [`put_varint`].
///
/// A stream claiming more than the [`VARINT_GROUPS`] groups a `u64` can
/// need is malformed ([`DecodeError::BadVarint`]), not an infinite loop.
#[inline(always)]
pub(crate) fn get_varint(r: &mut impl BitFields) -> Result<u64, DecodeError> {
    let mut v = 0u64;
    for shift in (0..VARINT_GROUPS).map(|g| 7 * g) {
        let (cont, group) = r.get_group(7).ok_or(DecodeError::Truncated)?;
        let group = u64::from(group);
        if shift == 63 && group > 1 {
            return Err(DecodeError::BadVarint);
        }
        v |= group << shift;
        if !cont {
            return Ok(v);
        }
    }
    Err(DecodeError::BadVarint)
}

/// Appends `v` as a run-length varint: 3-bit groups of one continuation
/// flag plus two value bits. Outcome runs are usually short, so the
/// smallest group size that still grows geometrically wins.
fn put_rle(w: &mut BitWriter, mut v: u64) {
    loop {
        let group = (v & 0x3) as u32;
        v >>= 2;
        w.put(u32::from(v != 0) | group << 1, 3);
        if v == 0 {
            break;
        }
    }
}

/// Most groups a run-length varint may carry: enough for any `u64`.
const RLE_GROUPS: u32 = u64::BITS / 2;

/// Reads a run length written by [`put_rle`]; more than [`RLE_GROUPS`]
/// groups is [`DecodeError::BadVarint`].
#[inline(always)]
fn get_rle(r: &mut impl BitFields) -> Result<u64, DecodeError> {
    let mut v = 0u64;
    for shift in (0..RLE_GROUPS).map(|g| 2 * g) {
        let (cont, group) = r.get_group(2).ok_or(DecodeError::Truncated)?;
        let group = u64::from(group);
        v |= group << shift;
        if !cont {
            return Ok(v);
        }
    }
    Err(DecodeError::BadVarint)
}

/// Writes a 32-bit field as either a zigzag varint delta against
/// `reference` or an explicit escape, whichever is shorter.
fn put_delta_field(w: &mut BitWriter, actual: u32, reference: u32) {
    let zz = zigzag(actual.wrapping_sub(reference));
    if zz <= DELTA_MAX {
        // Three varint groups hold any delta, so the mode flag and the
        // varint go out as one value of at most 25 bits.
        let mut v = u64::from(zz);
        let (groups, nbits) = varint_groups(&mut v);
        debug_assert_eq!(v, 0, "a delta of more than three groups");
        w.put(1 | groups << 1, 1 + nbits);
    } else {
        w.put_bool(false);
        w.put(actual, 32);
    }
}

#[inline(always)]
fn get_delta_field(r: &mut impl BitFields, reference: u32) -> Result<u32, DecodeError> {
    if r.get_bool().ok_or(DecodeError::Truncated)? {
        let zz = get_varint(r)?;
        let zz = u32::try_from(zz).map_err(|_| DecodeError::BadVarint)?;
        Ok(reference.wrapping_add(unzigzag(zz)))
    } else {
        r.get(32).ok_or(DecodeError::Truncated)
    }
}

/// Encodes a whole record sequence into the v2 bit layout.
///
/// Unlike the v1 [`TraceEncoder`](crate::TraceEncoder), v2 encoding is a
/// whole-trace pass: forming PC groups and outcome runs needs lookahead,
/// which an on-the-fly link encoder does not have. The returned
/// [`EncodedTrace`] reports [`TRACE_LAYOUT_VERSION_V2`] and decodes
/// through the same `decode`/`source` entry points as a v1 trace.
pub(crate) fn encode_v2(records: &[TraceRecord]) -> EncodedTrace {
    let mut w = BitWriter::new();
    let mut stats = TraceStats::new();
    let mut expected_pc: u32 = 0;
    let mut prev_addr: u32 = 0;
    let mut outcome: Option<bool> = None;
    let mut outcome_left: u64 = 0;
    let mut i = 0usize;
    while i < records.len() {
        let group_start = w.len_bits();
        put_delta_field(&mut w, records[i].pc(), expected_pc);
        // Maximal run of records riding the implied-PC chain.
        let mut run = 0u64;
        let mut chain = records[i].implied_next_pc();
        while let Some(r) = records.get(i + 1 + run as usize) {
            if r.pc() != chain {
                break;
            }
            chain = r.implied_next_pc();
            run += 1;
        }
        put_varint(&mut w, run);
        let header_bits = w.len_bits() - group_start;
        for k in 0..=(run as usize) {
            let r = &records[i + k];
            let before = w.len_bits();
            encode_record_v2(
                &mut w,
                r,
                &mut prev_addr,
                &mut outcome,
                &mut outcome_left,
                records,
                i + k,
            );
            let mut bits = w.len_bits() - before;
            if k == 0 {
                // The group header is billed to the record that opened it.
                bits += header_bits;
            }
            stats.account(r, bits);
        }
        i += run as usize + 1;
        expected_pc = records[i - 1].implied_next_pc();
    }
    let (bytes, len_bits) = w.finish();
    EncodedTrace::from_raw_parts(
        bytes,
        len_bits,
        records.len() as u64,
        stats,
        TRACE_LAYOUT_VERSION_V2,
    )
}

fn encode_record_v2(
    w: &mut BitWriter,
    record: &TraceRecord,
    prev_addr: &mut u32,
    outcome: &mut Option<bool>,
    outcome_left: &mut u64,
    records: &[TraceRecord],
    idx: usize,
) {
    let fmt = match record {
        TraceRecord::Other(_) => FMT_OTHER,
        TraceRecord::Mem(_) => FMT_MEM,
        TraceRecord::Branch(_) => FMT_BRANCH,
    };
    // The format, the tag and the record's leading fixed-width fields go
    // out as one value, LSB-first in layout order.
    let head = fmt | u32::from(record.wrong_path()) << 2;
    match record {
        TraceRecord::Other(o) => {
            w.put(head | o.class.encode() << 3, 5);
            put_regs(w, [o.dest, o.src1, o.src2]);
        }
        TraceRecord::Mem(m) => {
            w.put(head | m.kind.encode() << 3 | m.size.encode() << 4, 6);
            put_delta_field(w, m.addr, *prev_addr);
            *prev_addr = m.addr;
            put_regs(w, [m.base, m.data]);
        }
        TraceRecord::Branch(b) => {
            w.put(head | b.kind.encode() << 3, 6);
            if *outcome_left == 0 {
                // Start a new outcome run: maximal span of branches (the
                // records between them do not matter) sharing `taken`.
                let mut len = 1u64;
                for r in &records[idx + 1..] {
                    if let TraceRecord::Branch(nb) = r {
                        if nb.taken == b.taken {
                            len += 1;
                        } else {
                            break;
                        }
                    }
                }
                if outcome.is_none() {
                    // Only the very first run spells out its direction;
                    // maximality makes every later run a flip.
                    w.put_bool(b.taken);
                }
                put_rle(w, len - 1);
                *outcome = Some(b.taken);
                *outcome_left = len;
            }
            debug_assert_eq!(*outcome, Some(b.taken), "outcome runs must alternate");
            *outcome_left -= 1;
            put_delta_field(w, b.target, b.pc);
            put_regs(w, [b.src1, b.src2]);
        }
    }
}

/// Streaming v2 decoder state: everything the record parser carries
/// between records, O(1) in the trace length.
#[derive(Debug, Clone, Default)]
pub(crate) struct V2State {
    expected_pc: u32,
    group_left: u64,
    prev_addr: u32,
    outcome: Option<bool>,
    outcome_left: u64,
}

/// Most bits [`get_varint`] reads before it returns or fails.
const VARINT_MAX_BITS: u32 = VARINT_GROUPS * 8;

/// Most bits [`get_delta_field`] reads: the mode flag, then the longer
/// of a whole varint and the 32-bit escape.
const DELTA_FIELD_MAX_BITS: u32 = 1 + if VARINT_MAX_BITS > 32 {
    VARINT_MAX_BITS
} else {
    32
};

/// Bits of a present register field (flag and index).
const REG_MAX_BITS: u32 = 1 + 6;

/// Most bits [`decode_record_bits_v2`] reads for one record, on any
/// input, well-formed or not: a group header, the format and tag, and
/// the longest payload, a branch that starts the first outcome run.
/// Every varint and run length gives up after its group limit, so a
/// decoder handed a window of this many bits never reads past it.
pub(crate) const MAX_V2_RECORD_BITS: u32 = {
    let header = DELTA_FIELD_MAX_BITS + VARINT_MAX_BITS;
    let other = 2 + 3 * REG_MAX_BITS;
    let mem = 1 + 2 + DELTA_FIELD_MAX_BITS + 2 * REG_MAX_BITS;
    let branch = 3 + 1 + RLE_GROUPS * 3 + DELTA_FIELD_MAX_BITS + 2 * REG_MAX_BITS;
    let payload = if mem > branch { mem } else { branch };
    let payload = if other > payload { other } else { payload };
    header + 2 + 1 + payload
};

/// Decodes one v2 record; `Ok(None)` at a clean end of stream (which
/// can only fall on a group boundary).
///
/// One body serves both readers: the checked [`StreamBits`] and a
/// [`WindowBits`] of [`MAX_V2_RECORD_BITS`], so every value, error and
/// stop point is the same whichever one a record is read through.
///
/// [`StreamBits`]: crate::bits::StreamBits
/// [`WindowBits`]: crate::bits::WindowBits
pub(crate) fn decode_record_bits_v2(
    reader: &mut impl BitFields,
    st: &mut V2State,
) -> Result<Option<TraceRecord>, DecodeError> {
    let pc = if st.group_left == 0 {
        if reader.is_empty() {
            return Ok(None);
        }
        let pc = get_delta_field(reader, st.expected_pc)?;
        let run = get_varint(reader)?;
        st.group_left = run.checked_add(1).ok_or(DecodeError::BadVarint)?;
        pc
    } else {
        st.expected_pc
    };
    st.group_left -= 1;
    let fmt = reader.get(2).ok_or(DecodeError::Truncated)?;
    if fmt > FMT_BRANCH {
        return Err(DecodeError::BadFormat(fmt as u8));
    }
    let wrong_path = reader.get_bool().ok_or(DecodeError::Truncated)?;
    let record = match fmt {
        FMT_OTHER => {
            let class = reader.get(2).ok_or(DecodeError::Truncated)?;
            let class = OpClass::decode(class).ok_or(DecodeError::BadEnum("op class"))?;
            let dest = get_reg(reader)?;
            let src1 = get_reg(reader)?;
            let src2 = get_reg(reader)?;
            TraceRecord::Other(OtherRecord {
                pc,
                class,
                dest,
                src1,
                src2,
                wrong_path,
            })
        }
        FMT_MEM => {
            let kind = reader.get(1).ok_or(DecodeError::Truncated)?;
            let kind = if kind == 0 {
                MemKind::Load
            } else {
                MemKind::Store
            };
            let size = reader.get(2).ok_or(DecodeError::Truncated)?;
            let size = MemSize::decode(size).ok_or(DecodeError::BadEnum("mem size"))?;
            let addr = get_delta_field(reader, st.prev_addr)?;
            st.prev_addr = addr;
            let base = get_reg(reader)?;
            let data = get_reg(reader)?;
            TraceRecord::Mem(MemRecord {
                pc,
                addr,
                size,
                kind,
                base,
                data,
                wrong_path,
            })
        }
        _ => {
            let kind = reader.get(3).ok_or(DecodeError::Truncated)?;
            let kind = BranchKind::decode(kind).ok_or(DecodeError::BadEnum("branch kind"))?;
            if st.outcome_left == 0 {
                let dir = match st.outcome {
                    None => reader.get_bool().ok_or(DecodeError::Truncated)?,
                    Some(prev) => !prev,
                };
                let len = get_rle(reader)?
                    .checked_add(1)
                    .ok_or(DecodeError::BadVarint)?;
                st.outcome = Some(dir);
                st.outcome_left = len;
            }
            let taken = st.outcome.unwrap_or(false);
            st.outcome_left -= 1;
            let target = get_delta_field(reader, pc)?;
            let src1 = get_reg(reader)?;
            let src2 = get_reg(reader)?;
            TraceRecord::Branch(BranchRecord {
                pc,
                target,
                taken,
                kind,
                src1,
                src2,
                wrong_path,
            })
        }
    };
    st.expected_pc = record.implied_next_pc();
    Ok(Some(record))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::tests::Rng;
    use crate::bits::StreamBits;
    use crate::record::Reg;
    use crate::Trace;

    #[test]
    fn varint_roundtrip() {
        // Including each side of the three-group chunks `put_varint`
        // writes at a time.
        let values = [
            0u64,
            1,
            127,
            128,
            16_383,
            16_384,
            (1 << 21) - 1,
            1 << 21,
            (1 << 42) - 1,
            1 << 42,
            u32::MAX as u64,
            u64::MAX,
        ];
        for &v in &values {
            let mut w = BitWriter::new();
            put_varint(&mut w, v);
            let (bytes, bits) = w.finish();
            let mut r = StreamBits::new(&bytes[..], bits);
            assert_eq!(get_varint(&mut r), Ok(v), "varint {v}");
            assert_eq!(r.remaining_bits(), 0);
        }
    }

    #[test]
    fn rle_roundtrip() {
        for v in (0u64..70).chain([1000, u64::MAX]) {
            let mut w = BitWriter::new();
            put_rle(&mut w, v);
            let (bytes, bits) = w.finish();
            let mut r = StreamBits::new(&bytes[..], bits);
            assert_eq!(get_rle(&mut r), Ok(v), "rle {v}");
            assert_eq!(r.remaining_bits(), 0);
        }
    }

    #[test]
    fn overlong_varint_is_an_error_not_a_hang() {
        // Eleven continuation groups: more than any u64 needs.
        let mut w = BitWriter::new();
        for _ in 0..11 {
            w.put_bool(true);
            w.put(0x7F, 7);
        }
        w.put_bool(false);
        w.put(0, 7);
        let (bytes, bits) = w.finish();
        let mut r = StreamBits::new(&bytes[..], bits);
        assert_eq!(get_varint(&mut r), Err(DecodeError::BadVarint));
    }

    #[test]
    fn zigzag_maps_small_magnitudes_small() {
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(1), 2);
        assert_eq!(zigzag(u32::MAX), 1); // -1
        assert_eq!(zigzag(4), 8);
        for d in [0u32, 1, 4, 0xFFFF_FFFC, 0x8000_0000, u32::MAX] {
            assert_eq!(unzigzag(zigzag(d)), d);
        }
    }

    #[test]
    fn delta_field_escapes_large_jumps() {
        // A delta too wide for three varint groups must fall back to the
        // 33-bit escape instead of a 40-bit varint.
        let mut w = BitWriter::new();
        put_delta_field(&mut w, 0x8000_0000, 0);
        assert_eq!(w.len_bits(), 33);
        let (bytes, bits) = w.finish();
        let mut r = StreamBits::new(&bytes[..], bits);
        assert_eq!(get_delta_field(&mut r, 0), Ok(0x8000_0000));
    }

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

    fn branch(pc: u32, target: u32, taken: bool) -> TraceRecord {
        TraceRecord::Branch(BranchRecord {
            pc,
            target,
            taken,
            kind: BranchKind::Cond,
            src1: Some(Reg::new(4)),
            src2: None,
            wrong_path: false,
        })
    }

    #[test]
    fn sequential_block_costs_one_pc() {
        let records: Vec<TraceRecord> = (0..64).map(|i| alu(0x1000 + i * 4)).collect();
        let enc = encode_v2(&records);
        let dec = enc.decode().unwrap();
        assert_eq!(dec.records(), &records[..]);
        // One group: a single PC field + run length frame all 64 records,
        // and no per-record byte alignment. The v1 stream pads every
        // record to 24 bits here.
        let v1 = Trace::from_records(records).encode().len_bits();
        assert!(
            enc.len_bits() * 10 < v1 * 9,
            "sequential code must beat v1 by >10% ({} vs {v1} bits)",
            enc.len_bits()
        );
    }

    #[test]
    fn outcome_runs_alternate_and_roundtrip() {
        // taken,taken,taken,not,not,taken — three runs; interleave ALUs to
        // prove non-branch records do not split a run.
        let mut records = Vec::new();
        let outcomes = [true, true, true, false, false, true];
        let mut pc = 0x2000;
        for &t in &outcomes {
            records.push(alu(pc));
            pc += 4;
            records.push(branch(pc, if t { pc + 0x40 } else { pc + 4 }, t));
            pc = if t { pc + 0x40 } else { pc + 4 };
        }
        let enc = encode_v2(&records);
        let dec = enc.decode().unwrap();
        assert_eq!(dec.records(), &records[..]);
    }

    #[test]
    fn mem_addr_deltas_roundtrip() {
        let mk = |pc, addr| {
            TraceRecord::Mem(MemRecord {
                pc,
                addr,
                size: MemSize::Word,
                kind: MemKind::Load,
                base: Some(Reg::new(29)),
                data: Some(Reg::new(4)),
                wrong_path: false,
            })
        };
        // Strided, backwards, and wild addresses.
        let records = vec![
            mk(0x100, 0x1000_0000),
            mk(0x104, 0x1000_0004),
            mk(0x108, 0x0FFF_FFF0),
            mk(0x10C, 0xDEAD_BEEF),
            mk(0x110, 0xDEAD_BEF3),
        ];
        let enc = encode_v2(&records);
        assert_eq!(enc.decode().unwrap().records(), &records[..]);
    }

    #[test]
    fn empty_trace_is_empty_stream() {
        let enc = encode_v2(&[]);
        assert_eq!(enc.len_bits(), 0);
        assert!(enc.decode().unwrap().is_empty());
    }

    #[test]
    fn truncation_at_every_bit_errors_or_ends_cleanly() {
        let mut records = Vec::new();
        let mut pc = 0x400000;
        for i in 0..10u32 {
            records.push(alu(pc));
            pc += 4;
            if i % 3 == 2 {
                records.push(branch(pc, pc + 0x20, i % 2 == 0));
                pc += if i % 2 == 0 { 0x20 } else { 4 };
            }
        }
        let enc = encode_v2(&records);
        for cut in 0..enc.len_bits() {
            let mut st = V2State::default();
            let mut r = StreamBits::new(enc.bytes(), cut);
            // Must terminate with Ok(None) or an error — never panic.
            while let Ok(Some(_)) = decode_record_bits_v2(&mut r, &mut st) {}
        }
    }

    #[test]
    fn stats_total_matches_stream_length() {
        let records: Vec<TraceRecord> = (0..10)
            .flat_map(|i| {
                let base = 0x8000 + i * 0x100;
                vec![alu(base), branch(base + 4, base + 0x100, true)]
            })
            .collect();
        let enc = encode_v2(&records);
        assert_eq!(enc.stats().total_bits(), enc.len_bits());
        assert_eq!(enc.stats().total_records(), records.len() as u64);
        assert_eq!(enc.layout_version(), TRACE_LAYOUT_VERSION_V2);
    }

    /// `len` records of every shape, with PC runs, escaped jumps, strided
    /// and wild addresses and biased branch outcomes.
    fn random_records(rng: &mut Rng, len: usize) -> Vec<TraceRecord> {
        let mut records = Vec::with_capacity(len);
        let (mut pc, mut addr) = (0x0040_0000u32, 0x1000_0000u32);
        for _ in 0..len {
            let reg =
                |rng: &mut Rng| (rng.range(0, 2) != 0).then(|| Reg::new(rng.range(0, 63) as u8));
            let wrong_path = rng.range(0, 9) == 0;
            let record = match rng.range(0, 2) {
                0 => TraceRecord::Other(OtherRecord {
                    pc,
                    class: OpClass::ALL[rng.range(0, 3) as usize],
                    dest: reg(rng),
                    src1: reg(rng),
                    src2: reg(rng),
                    wrong_path,
                }),
                1 => {
                    addr = match rng.range(0, 3) {
                        0 => rng.next() as u32,
                        _ => addr.wrapping_add(4 * rng.range(0, 15) as u32),
                    };
                    TraceRecord::Mem(MemRecord {
                        pc,
                        addr,
                        size: MemSize::ALL[rng.range(0, 3) as usize],
                        kind: [MemKind::Load, MemKind::Store][rng.range(0, 1) as usize],
                        base: reg(rng),
                        data: reg(rng),
                        wrong_path,
                    })
                }
                _ => TraceRecord::Branch(BranchRecord {
                    pc,
                    target: match rng.range(0, 3) {
                        0 => rng.next() as u32,
                        _ => pc.wrapping_add(4 * rng.range(0, 255) as u32),
                    },
                    taken: rng.range(0, 3) != 0,
                    kind: BranchKind::ALL[rng.range(0, 5) as usize],
                    src1: reg(rng),
                    src2: reg(rng),
                    wrong_path,
                }),
            };
            records.push(record);
            pc = match rng.range(0, 11) {
                0 => rng.next() as u32,
                _ => record.implied_next_pc(),
            };
        }
        records
    }

    /// Decodes `bytes` record by record two ways: through windows
    /// wherever the block and the declared length allow one (else the
    /// checked reader), as `FileSource` does, and through the checked
    /// reader alone. Every result and every position after it must
    /// agree; returns how many records went through a window.
    fn window_matches_checked(bytes: &[u8], total_bits: u64) -> usize {
        let mut fast = StreamBits::new(bytes, total_bits);
        let mut slow = StreamBits::new(bytes, total_bits);
        let (mut fast_state, mut slow_state) = (V2State::default(), V2State::default());
        let mut windowed = 0;
        for record in 0.. {
            let mut through_window = None;
            fast.windows(MAX_V2_RECORD_BITS, |window| {
                through_window = Some(decode_record_bits_v2(window, &mut fast_state));
                false
            });
            let got = match through_window {
                Some(got) => {
                    windowed += 1;
                    got
                }
                None => decode_record_bits_v2(&mut fast, &mut fast_state),
            };
            let want = decode_record_bits_v2(&mut slow, &mut slow_state);
            let case = format!(
                "record {record} of {} bytes / {total_bits} bits",
                bytes.len()
            );
            assert_eq!(got, want, "{case}");
            assert_eq!(fast.position(), slow.position(), "{case}");
            if !matches!(want, Ok(Some(_))) {
                break;
            }
        }
        windowed
    }

    #[test]
    fn window_reader_matches_the_checked_reader_on_valid_encodings() {
        let mut rng = Rng(2009);
        let mut windowed = 0;
        // The last body spans two read blocks, so windows resume after
        // a refill.
        for len in (0..120).map(|i| i * 7).chain([6000]) {
            let enc = encode_v2(&random_records(&mut rng, len));
            windowed += window_matches_checked(enc.bytes(), enc.len_bits());
            // Declared shorter than the body: the records near the cut
            // must end the same way on both paths.
            let cut = enc.len_bits().saturating_sub(rng.range(0, 199));
            window_matches_checked(enc.bytes(), cut);
        }
        assert!(
            windowed > 10_000,
            "only {windowed} records went through a window"
        );
    }

    #[test]
    fn window_reader_matches_the_checked_reader_on_random_bytes() {
        let mut rng = Rng(7);
        for _ in 0..3000 {
            let bytes: Vec<u8> = (0..rng.range(0, 599)).map(|_| rng.next() as u8).collect();
            let total_bits = (bytes.len() as u64 * 8).saturating_sub(rng.range(0, 7));
            window_matches_checked(&bytes, total_bits);
        }
    }

    /// A varint of exactly `groups` groups, every value bit zero.
    fn put_long_varint(w: &mut BitWriter, groups: u32) {
        for g in 1..=groups {
            w.put_bool(g < groups);
            w.put(0, 7);
        }
    }

    /// Appends the first record of a branch group, up to its outcome
    /// run: `header_groups`-group varints for the PC delta and the run.
    fn put_branch_prefix(w: &mut BitWriter, header_groups: u32) {
        w.put_bool(true);
        put_long_varint(w, header_groups);
        put_long_varint(w, header_groups);
        w.put(FMT_BRANCH, 2);
        w.put_bool(false);
        w.put(BranchKind::Cond.encode(), 3);
    }

    /// Appends `words` 32-bit words of set bits.
    fn put_ones(w: &mut BitWriter, words: usize) {
        for _ in 0..words {
            w.put(u32::MAX, 32);
        }
    }

    /// A one-record group: the checked reader reads it and fills the
    /// block, so the next record can take a window. Returns its length.
    fn put_nop_group(w: &mut BitWriter) -> u64 {
        w.put_bool(true);
        put_varint(w, 0);
        put_varint(w, 0);
        w.put(FMT_OTHER, 2);
        w.put_bool(false);
        w.put(OpClass::Nop.encode(), 2);
        put_regs(w, [None; 3]);
        w.len_bits()
    }

    /// Decodes the nop group and then the record after it through the
    /// checked reader, returning that record's result and length, and
    /// checks that a window reads it the same way.
    fn second_record(bytes: &[u8], bits: u64) -> (Result<Option<TraceRecord>, DecodeError>, u64) {
        let mut r = StreamBits::new(bytes, bits);
        let mut state = V2State::default();
        let first = decode_record_bits_v2(&mut r, &mut state);
        assert!(
            matches!(first, Ok(Some(TraceRecord::Other(_)))),
            "{first:?}"
        );
        let start = r.position();
        let second = decode_record_bits_v2(&mut r, &mut state);
        assert_eq!(
            window_matches_checked(bytes, bits),
            1,
            "one record through a window"
        );
        (second, r.position() - start)
    }

    #[test]
    fn all_ones_bodies_stop_at_the_group_limits() {
        // The PC delta's varint gives up in its tenth group.
        let mut w = BitWriter::new();
        put_nop_group(&mut w);
        put_ones(&mut w, 40);
        let (bytes, bits) = w.finish();
        let (second, read) = second_record(&bytes, bits);
        assert_eq!(second, Err(DecodeError::BadVarint));
        assert_eq!(read, u64::from(DELTA_FIELD_MAX_BITS));

        // The outcome run gives up after its last group.
        let mut w = BitWriter::new();
        let first = put_nop_group(&mut w);
        put_branch_prefix(&mut w, 1);
        let prefix = w.len_bits() - first;
        put_ones(&mut w, 40);
        let (bytes, bits) = w.finish();
        let (second, read) = second_record(&bytes, bits);
        assert_eq!(second, Err(DecodeError::BadVarint));
        assert_eq!(read, prefix + 1 + u64::from(RLE_GROUPS * 3));
    }

    /// The longest record any input can hold: a group header of two
    /// ten-group varints, then a branch opening the first outcome run
    /// with a 32-group run length, a ten-group target delta and both
    /// registers. It decodes, and fills its window exactly.
    #[test]
    fn the_longest_record_fills_its_window_exactly() {
        let mut w = BitWriter::new();
        let first = put_nop_group(&mut w);
        put_branch_prefix(&mut w, VARINT_GROUPS);
        w.put_bool(true);
        for g in 1..=RLE_GROUPS {
            w.put_bool(g < RLE_GROUPS);
            w.put(0, 2);
        }
        w.put_bool(true);
        put_long_varint(&mut w, VARINT_GROUPS);
        put_regs(&mut w, [Some(Reg::new(63)), Some(Reg::new(1))]);
        assert_eq!(w.len_bits() - first, u64::from(MAX_V2_RECORD_BITS));
        assert_eq!(MAX_V2_RECORD_BITS, 359);
        // It ends the body, so its window ends at the declared length.
        let (bytes, bits) = w.finish();
        let (second, read) = second_record(&bytes, bits);
        assert!(
            matches!(second, Ok(Some(TraceRecord::Branch(_)))),
            "{second:?}"
        );
        assert_eq!(read, u64::from(MAX_V2_RECORD_BITS));
        // Declared one bit short, the record is truncated. The block still
        // holds the missing bit, so only the declared length keeps the
        // window shut.
        assert_eq!(bits % 8, 0, "the last byte must hold the cut bit");
        assert_eq!(window_matches_checked(&bytes, bits - 1), 0);
    }
}
