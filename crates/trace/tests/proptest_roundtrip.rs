//! Property tests: the bit-exact codec round-trips arbitrary record
//! sequences losslessly, and its accounting matches the bit stream.

use proptest::prelude::*;
use resim_trace::{
    BranchKind, BranchRecord, MemKind, MemRecord, MemSize, OpClass, OtherRecord, Reg, Trace,
    TraceRecord,
};

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

fn with_pc(mut record: TraceRecord, pc: u32) -> TraceRecord {
    match &mut record {
        TraceRecord::Other(o) => o.pc = pc,
        TraceRecord::Mem(m) => m.pc = pc,
        TraceRecord::Branch(b) => b.pc = pc,
    }
    record
}

/// Record streams whose PCs mostly follow the implied-PC chain (so the
/// encoder drops them), with random discontinuities mixed in.
fn arb_stream() -> impl Strategy<Value = Vec<TraceRecord>> {
    prop::collection::vec((arb_record(), 0u32..4), 0..200).prop_map(|pairs| {
        let mut next_pc = None;
        pairs
            .into_iter()
            .map(|(record, roll)| {
                // Three records in four follow the chain.
                let record = match next_pc {
                    Some(pc) if roll != 0 => with_pc(record, pc),
                    _ => record,
                };
                next_pc = Some(record.implied_next_pc());
                record
            })
            .collect()
    })
}

#[test]
fn empty_trace_sizes_to_zero() {
    let trace = Trace::new();
    assert_eq!(&trace.stats(), trace.encode().stats());
    assert_eq!(trace.stats().total_bits(), 0);
}

proptest! {
    /// Closed-form sizing agrees with the encoder on every field of the
    /// statistics, for streams mixing implied and explicit PCs.
    #[test]
    fn sizing_without_encoding_matches_the_encoder(records in arb_stream()) {
        let trace = Trace::from_records(records);
        let encoded = trace.encode();
        prop_assert_eq!(&trace.stats(), encoded.stats());
        prop_assert_eq!(trace.stats().total_bits(), encoded.len_bits());
    }

    /// encode(decode(x)) == x for arbitrary record sequences.
    #[test]
    fn roundtrip_lossless(records in prop::collection::vec(arb_record(), 0..200)) {
        let trace = Trace::from_records(records);
        let encoded = trace.encode();
        let decoded = encoded.decode().expect("own encoding must decode");
        prop_assert_eq!(trace.records(), decoded.records());
    }

    /// The stats' bit total always equals the stream length, records are
    /// byte-aligned, and per-format counts sum to the total.
    #[test]
    fn accounting_consistent(records in prop::collection::vec(arb_record(), 0..200)) {
        let trace = Trace::from_records(records.clone());
        let encoded = trace.encode();
        let stats = encoded.stats();
        prop_assert_eq!(stats.total_bits(), encoded.len_bits());
        prop_assert_eq!(stats.total_records(), records.len() as u64);
        prop_assert_eq!(encoded.len_bits() % 8, 0);
        prop_assert_eq!(
            stats.branch_records() + stats.mem_records() + stats.other_records(),
            stats.total_records()
        );
        let wrong = records.iter().filter(|r| r.wrong_path()).count() as u64;
        prop_assert_eq!(stats.wrong_path_records(), wrong);
    }

    /// Concatenating encoders equals one encoder (streaming = batch).
    #[test]
    fn incremental_equals_batch(
        a in prop::collection::vec(arb_record(), 0..60),
        b in prop::collection::vec(arb_record(), 0..60),
    ) {
        let mut both = a.clone();
        both.extend(b.iter().copied());
        let batch = Trace::from_records(both).encode();

        let mut enc = resim_trace::TraceEncoder::new();
        for r in a.iter().chain(b.iter()) {
            enc.push(r);
        }
        let streamed = enc.finish();
        prop_assert_eq!(batch.bytes(), streamed.bytes());
        prop_assert_eq!(batch.len_bits(), streamed.len_bits());
    }
}
