//! Golden-vector test for the trace codec.
//!
//! A small fixture of encoded B/M/O records is checked in as hex. The
//! codec must (a) encode the fixture records to exactly these bytes,
//! (b) decode the bytes back to exactly these records, and (c) spend
//! exactly the pinned number of bits on each record. Together these pin
//! the paper's Table 3 wire format — the 2-bit format field, the Tag
//! bit, PC delta-compression and the per-format field widths — against
//! accidental drift: any layout change breaks the hex, any width change
//! breaks the per-record bit counts.

use resim_trace::{
    BranchKind, BranchRecord, FileSource, MemKind, MemRecord, MemSize, OpClass, OtherRecord, Reg,
    Trace, TraceEncoder, TraceFileHeader, TraceRecord, TraceSource, TRACE_CONTAINER_VERSION,
    TRACE_LAYOUT_VERSION,
};

/// The canonical fixture: one of everything interesting.
///
/// * sequential O records (second drops its PC: implicit encoding),
/// * M load and M store with explicit 32-bit addresses,
/// * a taken conditional branch (branches always carry their PC),
/// * a wrong-path block entry (Tag set, explicit PC at the discontinuity),
/// * a return through the RAS,
/// * a post-branch O record whose PC is implied by the taken target.
fn fixture_records() -> Vec<TraceRecord> {
    vec![
        TraceRecord::Other(OtherRecord {
            pc: 0x0040_0000,
            class: OpClass::IntAlu,
            dest: Some(Reg::new(3)),
            src1: Some(Reg::new(1)),
            src2: Some(Reg::new(2)),
            wrong_path: false,
        }),
        TraceRecord::Other(OtherRecord {
            pc: 0x0040_0004,
            class: OpClass::IntMult,
            dest: Some(Reg::new(4)),
            src1: Some(Reg::new(3)),
            src2: None,
            wrong_path: false,
        }),
        TraceRecord::Mem(MemRecord {
            pc: 0x0040_0008,
            addr: 0x1000_0040,
            size: MemSize::Word,
            kind: MemKind::Load,
            base: Some(Reg::new(29)),
            data: Some(Reg::new(5)),
            wrong_path: false,
        }),
        TraceRecord::Mem(MemRecord {
            pc: 0x0040_000C,
            addr: 0x1000_0044,
            size: MemSize::Byte,
            kind: MemKind::Store,
            base: Some(Reg::new(29)),
            data: Some(Reg::new(5)),
            wrong_path: false,
        }),
        TraceRecord::Branch(BranchRecord {
            pc: 0x0040_0010,
            target: 0x0040_0100,
            taken: true,
            kind: BranchKind::Cond,
            src1: Some(Reg::new(5)),
            src2: Some(Reg::new(6)),
            wrong_path: false,
        }),
        TraceRecord::Other(OtherRecord {
            pc: 0x0040_0014,
            class: OpClass::Nop,
            dest: None,
            src1: None,
            src2: None,
            wrong_path: true,
        }),
        TraceRecord::Mem(MemRecord {
            pc: 0x0040_0018,
            addr: 0x2000_0000,
            size: MemSize::Half,
            kind: MemKind::Load,
            base: None,
            data: Some(Reg::new(7)),
            wrong_path: true,
        }),
        TraceRecord::Branch(BranchRecord {
            pc: 0x0040_0100,
            target: 0x0040_0000,
            taken: true,
            kind: BranchKind::Return,
            src1: Some(Reg::new(31)),
            src2: None,
            wrong_path: false,
        }),
        TraceRecord::Other(OtherRecord {
            pc: 0x0040_0000,
            class: OpClass::IntDiv,
            dest: Some(Reg::new(8)),
            src1: Some(Reg::new(8)),
            src2: Some(Reg::new(9)),
            wrong_path: false,
        }),
    ]
}

/// Encoded form of [`fixture_records`], byte-aligned per record.
const GOLDEN_HEX: &str = "08000004c061500050e2004120000088dd021122000088dd020a0100048000\
0140008b064c010004300025000000100f0a100004b0000040003f60243201";

/// Exact payload length in bits (62 bytes, every record byte-aligned).
const GOLDEN_BITS: u64 = 496;

/// Pinned per-record encoded sizes in bits.
///
/// These pin the Table 3 field widths: the 4-bit common header
/// (fmt 2 + tag 1 + pc-flag 1), the 32-bit explicit PC, 2-bit op class,
/// 1 + 6-bit register names, 1 + 2 + 32-bit memory kind/size/address and
/// 3 + 1 + 32-bit branch kind/direction/target — each record padded to a
/// byte boundary.
const GOLDEN_RECORD_BITS: [u64; 9] = [64, 24, 56, 56, 88, 48, 48, 80, 32];

fn golden_bytes() -> Vec<u8> {
    (0..GOLDEN_HEX.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&GOLDEN_HEX[i..i + 2], 16).expect("valid hex"))
        .collect()
}

#[test]
fn encode_matches_golden_bytes() {
    let enc = Trace::from_records(fixture_records()).encode();
    assert_eq!(enc.len_bits(), GOLDEN_BITS);
    assert_eq!(enc.len(), 9);
    let hex: String = enc.bytes().iter().map(|b| format!("{b:02x}")).collect();
    assert_eq!(
        hex, GOLDEN_HEX,
        "wire format drifted from the golden vector"
    );
}

/// Decodes the pinned hex through a hand-written container header, so
/// the reader is checked against the vector, not against the encoder.
fn decode_golden_bytes() -> Vec<TraceRecord> {
    let header = TraceFileHeader {
        container_version: TRACE_CONTAINER_VERSION,
        layout_version: TRACE_LAYOUT_VERSION,
        records: 9,
        correct_records: 7,
        len_bits: GOLDEN_BITS,
        seed: 0,
        tracegen_fingerprint: 0,
        workload: "golden".into(),
    };
    let mut container = Vec::new();
    header.write_to(&mut container).unwrap();
    container.extend_from_slice(&golden_bytes());
    let mut src = FileSource::from_reader(&container[..]).expect("header is well-formed");
    let out: Vec<TraceRecord> = std::iter::from_fn(|| src.next_record()).collect();
    assert_eq!(src.error(), None, "golden stream is well-formed");
    out
}

#[test]
fn decode_golden_bytes_yields_fixture_records() {
    assert_eq!(decode_golden_bytes(), fixture_records());
}

#[test]
fn decode_then_encode_roundtrips_bit_exactly() {
    let bytes = golden_bytes();
    let mut enc = TraceEncoder::new();
    for r in decode_golden_bytes() {
        enc.push(&r);
    }
    let enc = enc.finish();
    assert_eq!(enc.len_bits(), GOLDEN_BITS);
    assert_eq!(enc.bytes(), &bytes[..], "decode->encode must be bit-exact");
}

/// The layout-v2 codec must agree with the golden vector's *meaning*
/// while beating its v1 size: same nine records back out, strictly
/// fewer bits in. (The v2 byte stream itself is pinned by its own unit
/// tests; here we anchor it to the v1 golden fixture.)
#[test]
fn v2_encoding_of_the_golden_fixture_cross_checks() {
    let trace = Trace::from_records(fixture_records());
    let v2 = trace.encode_v2();
    assert_eq!(
        v2.decode().expect("v2 decodes its own stream").records(),
        fixture_records()
    );
    assert!(
        v2.len_bits() < GOLDEN_BITS,
        "v2 ({} bits) should beat the byte-aligned v1 golden vector ({GOLDEN_BITS} bits)",
        v2.len_bits()
    );
}

#[test]
fn per_record_bit_costs_are_pinned() {
    let mut enc = TraceEncoder::new();
    let mut prev = 0;
    for (i, r) in fixture_records().iter().enumerate() {
        enc.push(r);
        let now = enc.stats().total_bits();
        assert_eq!(
            now - prev,
            GOLDEN_RECORD_BITS[i],
            "record {i} ({r}) changed encoded size"
        );
        prev = now;
    }
    // Sanity on the layout arithmetic the docs promise: a sequential O
    // record with no registers costs header(4) + class(2) + 3 flag bits
    // = 9 bits, padded to 16; the implicit-PC mult above costs 24 (two
    // register fields present).
    assert_eq!(GOLDEN_RECORD_BITS.iter().sum::<u64>(), GOLDEN_BITS);
}
