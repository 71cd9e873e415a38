//! Property tests for the layout-v2 (delta/run-length) codec: lossless
//! round-trips for arbitrary record sequences, accounting that matches
//! the stream, agreement with the v1 codec on what the records *are*,
//! and graceful failure on truncation (of both layouts).

use proptest::prelude::*;
use resim_trace::{
    BranchKind, BranchRecord, DecodeError, FileError, FileSource, MemKind, MemRecord, MemSize,
    OpClass, OtherRecord, Reg, Trace, TraceFileHeader, TraceRecord, TraceSource,
    TRACE_LAYOUT_VERSION, TRACE_LAYOUT_VERSION_V2,
};

// A deliberate copy of `proptest_roundtrip`'s strategy (integration
// tests compile separately; the duplication keeps each file
// self-contained, same as the golden vectors).
fn arb_reg() -> impl Strategy<Value = Option<Reg>> {
    prop_oneof![Just(None), (0u8..64).prop_map(|i| Some(Reg::new(i))),]
}

fn arb_record() -> impl Strategy<Value = TraceRecord> {
    let other = (
        any::<u32>(),
        0u32..4,
        arb_reg(),
        arb_reg(),
        arb_reg(),
        any::<bool>(),
    )
        .prop_map(|(pc, class, dest, src1, src2, wrong_path)| {
            TraceRecord::Other(OtherRecord {
                pc,
                class: OpClass::ALL[class as usize],
                dest,
                src1,
                src2,
                wrong_path,
            })
        });
    let mem = (
        any::<u32>(),
        any::<u32>(),
        0u32..4,
        any::<bool>(),
        arb_reg(),
        arb_reg(),
        any::<bool>(),
    )
        .prop_map(|(pc, addr, size, store, base, data, wrong_path)| {
            TraceRecord::Mem(MemRecord {
                pc,
                addr,
                size: MemSize::ALL[size as usize],
                kind: if store { MemKind::Store } else { MemKind::Load },
                base,
                data,
                wrong_path,
            })
        });
    let branch = (
        any::<u32>(),
        any::<u32>(),
        any::<bool>(),
        0u32..6,
        arb_reg(),
        arb_reg(),
        any::<bool>(),
    )
        .prop_map(|(pc, target, taken, kind, src1, src2, wrong_path)| {
            TraceRecord::Branch(BranchRecord {
                pc,
                target,
                taken: taken || BranchKind::ALL[kind as usize].is_unconditional(),
                kind: BranchKind::ALL[kind as usize],
                src1,
                src2,
                wrong_path,
            })
        });
    prop_oneof![other, mem, branch]
}

/// A "realistic" stream: mostly-sequential PCs with occasional jumps,
/// the regime the delta codec is built for (and where its grouping
/// logic has the most state to get wrong).
fn arb_sequential_trace() -> impl Strategy<Value = Vec<TraceRecord>> {
    (
        any::<u32>(),
        prop::collection::vec((arb_record(), 0u8..8), 0..150),
    )
        .prop_map(|(start, steps)| {
            let mut pc = start;
            steps
                .into_iter()
                .map(|(mut r, gap)| {
                    // Mostly pc += 4; occasionally a bigger hop.
                    pc = pc.wrapping_add(4 + 4 * u32::from(gap / 6));
                    match &mut r {
                        TraceRecord::Other(o) => o.pc = pc,
                        TraceRecord::Mem(m) => m.pc = pc,
                        TraceRecord::Branch(b) => b.pc = pc,
                    }
                    r
                })
                .collect()
        })
}

proptest! {
    /// decode(encode_v2(x)) == x for arbitrary record sequences.
    #[test]
    fn v2_roundtrip_lossless(records in prop::collection::vec(arb_record(), 0..200)) {
        let trace = Trace::from_records(records);
        let encoded = trace.encode_v2();
        prop_assert_eq!(encoded.layout_version(), TRACE_LAYOUT_VERSION_V2);
        let decoded = encoded.decode().expect("own encoding must decode");
        prop_assert_eq!(trace.records(), decoded.records());
    }

    /// Same, for the mostly-sequential streams the codec optimizes.
    #[test]
    fn v2_roundtrip_sequential(records in arb_sequential_trace()) {
        let trace = Trace::from_records(records);
        let decoded = trace.encode_v2().decode().expect("must decode");
        prop_assert_eq!(trace.records(), decoded.records());
    }

    /// v1 and v2 always decode to the same records, and the accounting
    /// of each matches its own stream.
    #[test]
    fn v1_and_v2_agree(records in arb_sequential_trace()) {
        let trace = Trace::from_records(records.clone());
        let v1 = trace.encode();
        let v2 = trace.encode_v2();
        prop_assert_eq!(v1.layout_version(), TRACE_LAYOUT_VERSION);
        prop_assert_eq!(
            v1.decode().expect("v1 decodes").records(),
            v2.decode().expect("v2 decodes").records()
        );
        for enc in [&v1, &v2] {
            prop_assert_eq!(enc.stats().total_bits(), enc.len_bits());
            prop_assert_eq!(enc.stats().total_records(), records.len() as u64);
        }
    }

    /// Truncating a v1 or v2 stream at any bit yields a clean prefix of
    /// the records followed by `DecodeError::Truncated` — never a panic,
    /// never an invented record, never a clean end. The container's
    /// header declares `len_bits = cut` over the clipped bytes, so even
    /// a sub-byte cut ends inside the reader's bit budget, not at an I/O
    /// short read.
    #[test]
    fn v2_truncation_is_graceful(
        records in prop::collection::vec(arb_record(), 1..60),
        cut_fraction in 0.0f64..1.0,
        v2 in any::<bool>(),
    ) {
        let trace = Trace::from_records(records);
        let encoded = if v2 { trace.encode_v2() } else { trace.encode() };
        let cut = ((encoded.len_bits() as f64) * cut_fraction) as u64;
        prop_assert!(cut < encoded.len_bits());
        let header = TraceFileHeader {
            len_bits: cut,
            ..TraceFileHeader::for_trace(&encoded, "clipped", 0, 0)
        };
        let mut container = Vec::new();
        header.write_to(&mut container).unwrap();
        container.extend_from_slice(&encoded.bytes()[..(cut as usize).div_ceil(8)]);
        let mut src = FileSource::from_reader(&container[..]).expect("header is well-formed");
        let mut n = 0usize;
        while let Some(r) = src.next_record() {
            // Every record produced must be a true prefix element.
            prop_assert_eq!(&r, &trace.records()[n]);
            n += 1;
        }
        prop_assert!(n < trace.len());
        prop_assert_eq!(
            src.error(),
            Some(&FileError::Decode(DecodeError::Truncated)),
            "cut at bit {} of {}",
            cut,
            encoded.len_bits()
        );
    }
}
