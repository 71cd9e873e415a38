//! Differential tests for the batched [`TraceSource::fill`] frontend.
//!
//! Both specialized block decoders — [`SliceSource`]'s sub-slice copy
//! and [`FileSource`]'s bit-stream loop, over an in-memory v1 or v2
//! body and over a container — must agree record-for-record with the
//! trait's default one-at-a-time implementation, at every batch size and
//! from every stream offset. The fixture is the golden-codec vector
//! (one record of every interesting shape: implicit and explicit PCs,
//! wrong-path tag, all three formats), so a disagreement pins down a
//! decode divergence, not a workload accident.

use resim_trace::{
    BranchKind, BranchRecord, MemKind, MemRecord, MemSize, OpClass, OtherRecord, Reg, Trace,
    TraceFileHeader, TraceRecord, TraceSource,
};

/// The golden-codec fixture shapes: sequential O records (implicit PC),
/// M load/store, a taken branch, a wrong-path entry, and a post-branch
/// record whose PC is implied by the taken target.
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
        TraceRecord::Other(OtherRecord {
            pc: 0x0040_0100,
            class: OpClass::IntDiv,
            dest: Some(Reg::new(8)),
            src1: Some(Reg::new(8)),
            src2: Some(Reg::new(9)),
            wrong_path: false,
        }),
    ]
}

/// Forces the default `fill` implementation by hiding every override
/// behind a `next_record`-only shim.
struct DefaultFillOnly<S>(S);

impl<S: TraceSource> TraceSource for DefaultFillOnly<S> {
    fn next_record(&mut self) -> Option<TraceRecord> {
        self.0.next_record()
    }
}

fn pad() -> TraceRecord {
    TraceRecord::Other(OtherRecord {
        pc: 0,
        class: OpClass::Nop,
        dest: None,
        src1: None,
        src2: None,
        wrong_path: false,
    })
}

/// Drains `src` through `fill` calls of `batch` records and returns
/// everything produced.
fn drain_via_fill(mut src: impl TraceSource, batch: usize) -> Vec<TraceRecord> {
    let mut out = Vec::new();
    let mut buf = vec![pad(); batch];
    loop {
        let n = src.fill(&mut buf);
        out.extend_from_slice(&buf[..n]);
        if n < batch {
            return out;
        }
    }
}

fn file_container(trace: &Trace) -> Vec<u8> {
    let encoded = trace.encode();
    let header = TraceFileHeader::for_trace(&encoded, "fixture", 1, 0)
        .with_correct_records(trace.correct_path_len() as u64);
    let mut buf = Vec::new();
    header.write_trace(&mut buf, &encoded).unwrap();
    buf
}

#[test]
fn specialized_fill_agrees_with_default_fill_on_the_golden_vector() {
    let trace = Trace::from_records(fixture_records());
    let encoded = trace.encode();
    let encoded_v2 = trace.encode_v2();
    let container = file_container(&trace);

    for batch in [1usize, 2, 3, 5, 7, 64] {
        let via_slice = drain_via_fill(trace.source(), batch);
        let via_slice_default = drain_via_fill(DefaultFillOnly(trace.source()), batch);
        let via_encoded = drain_via_fill(encoded.source(), batch);
        let via_encoded_default = drain_via_fill(DefaultFillOnly(encoded.source()), batch);
        let via_v2 = drain_via_fill(encoded_v2.source(), batch);
        let via_v2_default = drain_via_fill(DefaultFillOnly(encoded_v2.source()), batch);
        let via_file = drain_via_fill(
            resim_trace::FileSource::from_reader(&container[..]).unwrap(),
            batch,
        );
        let via_file_default = drain_via_fill(
            DefaultFillOnly(resim_trace::FileSource::from_reader(&container[..]).unwrap()),
            batch,
        );

        assert_eq!(via_slice, trace.records(), "slice fill, batch {batch}");
        assert_eq!(via_slice_default, trace.records());
        assert_eq!(via_encoded, trace.records(), "encoded fill, batch {batch}");
        assert_eq!(via_encoded_default, trace.records());
        assert_eq!(via_v2, trace.records(), "v2 fill, batch {batch}");
        assert_eq!(via_v2_default, trace.records());
        assert_eq!(via_file, trace.records(), "file fill, batch {batch}");
        assert_eq!(via_file_default, trace.records());
    }
}

#[test]
fn fill_interleaves_with_next_record_without_losing_position() {
    // Alternate single pulls and block pulls: the PC chain (implicit
    // encodings) must survive arbitrary interleavings.
    let trace = Trace::from_records(fixture_records());
    let encoded = trace.encode();
    let mut src = encoded.source();
    let mut got = Vec::new();
    let mut buf = vec![pad(); 2];
    while let Some(r) = src.next_record() {
        got.push(r);
        let n = src.fill(&mut buf);
        got.extend_from_slice(&buf[..n]);
        if n < buf.len() {
            break;
        }
    }
    assert_eq!(got, trace.records());
}

#[test]
fn short_fill_means_end_of_trace() {
    let trace = Trace::from_records(fixture_records());
    let mut src = trace.source();
    let mut buf = vec![pad(); 100];
    assert_eq!(src.fill(&mut buf), trace.len());
    assert_eq!(src.fill(&mut buf), 0, "fused after end");
    assert!(src.next_record().is_none());
}

#[test]
fn window_fill_clamps_to_its_budget() {
    let trace = Trace::from_records(fixture_records());
    let mut src = trace.source();
    let mut w = src.window(3);
    let mut buf = vec![pad(); 100];
    assert_eq!(w.fill(&mut buf), 3, "window caps the block");
    assert_eq!(w.fill(&mut buf), 0);
    assert_eq!(
        src.next_record().unwrap(),
        fixture_records()[3],
        "records past the window stay in the source"
    );
}

#[test]
fn boxed_and_borrowed_sources_forward_fill() {
    let trace = Trace::from_records(fixture_records());
    let encoded = trace.encode();

    let mut boxed: Box<dyn TraceSource + '_> = Box::new(encoded.source());
    let mut buf = vec![pad(); 4];
    assert_eq!(boxed.fill(&mut buf), 4);
    assert_eq!(buf, trace.records()[..4]);

    // Monomorphize over `&mut S` so the forwarding impl (not the
    // concrete source) is the one filling.
    fn fill_via<S: TraceSource>(mut src: S, buf: &mut [TraceRecord]) -> usize {
        src.fill(buf)
    }
    let mut inner = encoded.source();
    assert_eq!(fill_via(&mut inner, &mut buf), 4);
    assert_eq!(buf, trace.records()[..4]);
}
