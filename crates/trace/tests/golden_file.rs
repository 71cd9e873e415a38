//! Golden vectors pinning the on-disk trace-container layout.
//!
//! The header bytes below are the contract `docs/guide.md` documents and
//! other tools may rely on; if this test fails, either bump
//! `TRACE_CONTAINER_VERSION` / `TRACE_LAYOUT_VERSION` and re-pin, or
//! revert the accidental layout change.

use resim_trace::{
    FileSource, OpClass, OtherRecord, Trace, TraceFileHeader, TraceRecord, TraceSource,
    TRACE_CONTAINER_VERSION, TRACE_LAYOUT_VERSION,
};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn tiny_trace() -> Trace {
    let mut t = Trace::new();
    // Two sequential ALU ops: the first PC is explicit, the second rides
    // the delta-compression chain — 8 + 4 bytes of body.
    t.push(TraceRecord::Other(OtherRecord {
        pc: 0x0040_1000,
        class: OpClass::IntAlu,
        dest: None,
        src1: None,
        src2: None,
        wrong_path: false,
    }));
    t.push(TraceRecord::Other(OtherRecord {
        pc: 0x0040_1004,
        class: OpClass::IntAlu,
        dest: None,
        src1: None,
        src2: None,
        wrong_path: false,
    }));
    t
}

/// The header golden vector, field by field:
///
/// ```text
/// 52535452          magic "RSTR"
/// 0100              container version 1 (LE u16)
/// 0100              record bit-layout version 1
/// 0200000000000000  record count 2
/// 0200000000000000  correct-path count 2
/// 4000000000000000  payload bits 64 (6 + 2 bytes)
/// d907000000000000  workload seed 2009
/// ed5eedfe00000000  tracegen fingerprint 0xFEED5EED
/// 0400              workload id length 4
/// 677a6970          "gzip"
/// ```
#[test]
fn golden_header_hex() {
    let trace = tiny_trace();
    let encoded = trace.encode();
    assert_eq!(
        encoded.len_bits(),
        64,
        "body layout drifted; fix before re-pinning"
    );
    let header =
        TraceFileHeader::for_trace(&encoded, "gzip", 2009, 0xFEED_5EED).with_correct_records(2);
    let mut buf = Vec::new();
    header.write_to(&mut buf).unwrap();
    assert_eq!(
        hex(&buf),
        concat!(
            "52535452",
            "0100",
            "0100",
            "0200000000000000",
            "0200000000000000",
            "4000000000000000",
            "d907000000000000",
            "ed5eedfe00000000",
            "0400",
            "677a6970",
        )
    );
    assert_eq!(buf.len(), header.encoded_len());
}

/// The version constants are part of the pinned surface: bumping one
/// without re-pinning the golden header must fail loudly here, not
/// silently shift the layout.
#[test]
fn pinned_versions() {
    assert_eq!(TRACE_CONTAINER_VERSION, 1);
    assert_eq!(TRACE_LAYOUT_VERSION, 1);
}

/// A full container (header + codec body) decoded by a reader built only
/// from the golden bytes: guards the framing end to end.
#[test]
fn golden_container_roundtrip() {
    let trace = tiny_trace();
    let encoded = trace.encode();
    let header =
        TraceFileHeader::for_trace(&encoded, "gzip", 2009, 0xFEED_5EED).with_correct_records(2);
    let mut buf = Vec::new();
    header.write_trace(&mut buf, &encoded).unwrap();
    // Explicit-PC record: 4 + 32 + 2 + 3 = 41 bits → 48 padded (6 bytes);
    // implicit-PC record: 9 bits → 16 (2 bytes).
    assert_eq!(buf.len(), header.encoded_len() + 8);

    let mut src = FileSource::from_reader(&buf[..]).unwrap();
    assert_eq!(src.header(), &header);
    let round: Vec<TraceRecord> = std::iter::from_fn(|| src.next_record()).collect();
    assert_eq!(round, trace.records());
    assert!(src.error().is_none());
}
