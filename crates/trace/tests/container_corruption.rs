//! Adversarial container inputs: every single-byte corruption and every
//! truncation of a well-formed v1 or v2 trace container must come back
//! as a typed error (or a shorter-but-valid decode) — never a panic,
//! and never a silently *wrong* record stream passed off as clean.
//!
//! The tests are exhaustive rather than randomized: the container under
//! test is small enough (< 200 bytes) to try every byte position and
//! every prefix length deterministically.

use resim_trace::{
    BranchKind, BranchRecord, FileSource, Fnv64, MemKind, MemRecord, MemSize, OpClass, OtherRecord,
    Reg, Trace, TraceFileHeader, TraceRecord, TraceSource,
};

fn sample_trace() -> Trace {
    let mut t = Trace::new();
    for i in 0..12u32 {
        t.push(TraceRecord::Other(OtherRecord {
            pc: 0x0040_0000 + i * 4,
            class: OpClass::ALL[(i % 4) as usize],
            dest: Some(Reg::new((i % 32) as u8)),
            src1: Some(Reg::new(1)),
            src2: None,
            wrong_path: false,
        }));
        t.push(TraceRecord::Mem(MemRecord {
            pc: 0x0040_0030 + i * 4,
            addr: 0x1000_0000 + i * 8,
            size: MemSize::Word,
            kind: MemKind::Load,
            base: Some(Reg::new(29)),
            data: Some(Reg::new(5)),
            wrong_path: false,
        }));
    }
    t
}

fn container(layout: u16) -> Vec<u8> {
    let trace = sample_trace();
    let encoded = match layout {
        1 => trace.encode(),
        2 => trace.encode_v2(),
        other => panic!("no layout {other}"),
    };
    let header = TraceFileHeader::for_trace(&encoded, "gzip", 2009, 0xFEED)
        .with_correct_records(trace.correct_path_len() as u64);
    let mut buf = Vec::new();
    header.write_trace(&mut buf, &encoded).unwrap();
    buf
}

/// Drains a source built from possibly hostile bytes. Returns the
/// records it produced; any panic fails the test by propagating.
fn drain(bytes: &[u8]) -> Option<(Vec<TraceRecord>, bool)> {
    let mut src = FileSource::from_reader(bytes).ok()?;
    let records: Vec<TraceRecord> = std::iter::from_fn(|| src.next_record()).collect();
    Some((records, src.error().is_some()))
}

#[test]
fn every_single_byte_flip_is_handled() {
    for layout in [1u16, 2] {
        let good = container(layout);
        let clean = drain(&good).expect("pristine container parses");
        assert!(!clean.1, "pristine container must drain cleanly");
        for pos in 0..good.len() {
            for mask in [0x01u8, 0x80, 0xFF] {
                let mut bad = good.clone();
                bad[pos] ^= mask;
                // Three legal outcomes: header rejection, a stream that
                // terminates with a recorded error, or a decode that
                // still terminates (a flipped body bit can produce a
                // different-but-well-formed stream — that is the
                // digest's job to catch, one level up in RSSN). The
                // illegal outcome, a panic, propagates out of drain().
                let _ = drain(&bad);
            }
        }
    }
}

#[test]
fn every_truncation_is_handled() {
    for layout in [1u16, 2] {
        let good = container(layout);
        let full = drain(&good).expect("pristine container parses").0;
        for len in 0..good.len() {
            match drain(&good[..len]) {
                // Header didn't survive the cut: fine.
                None => {}
                Some((records, errored)) => {
                    // Body cut: whatever decoded must be a true prefix,
                    // and losing records must not look like a clean end.
                    assert!(
                        records.len() <= full.len() && records == full[..records.len()],
                        "layout {layout}, cut at {len}: decoded records are not a prefix"
                    );
                    if records.len() < full.len() {
                        assert!(
                            errored,
                            "layout {layout}, cut at {len}: lost records without an error"
                        );
                    }
                }
            }
        }
    }
}

/// Growing the file (declared lengths larger than the actual body) must
/// also terminate with an error, not spin or panic.
#[test]
fn inflated_declared_lengths_are_handled() {
    for layout in [1u16, 2] {
        let mut buf = container(layout);
        // records count lives at offset 8, len_bits at offset 24.
        buf[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        buf[24..32].copy_from_slice(&(u64::MAX / 2).to_le_bytes());
        if let Some((_, errored)) = drain(&buf) {
            assert!(errored, "layout {layout}: inflated header must error");
        }
    }
}

/// A fixture with every record shape the codecs distinguish: O records
/// of every class, loads and stores of every size, branches of every
/// kind taken and not taken (so the v1 PC chain is broken and resumed),
/// and wrong-path runs after the mispredicted ones.
fn mixed_trace() -> Trace {
    let mut t = Trace::new();
    let mut pc = 0x0040_0000u32;
    for i in 0..12u32 {
        let reg = |k: u32| Some(Reg::new(((i * 7 + k) % 64) as u8));
        t.push(TraceRecord::Other(OtherRecord {
            pc,
            class: OpClass::ALL[(i % 4) as usize],
            dest: reg(1),
            src1: reg(2),
            src2: if i % 3 == 0 { None } else { reg(3) },
            wrong_path: false,
        }));
        for kind in [MemKind::Store, MemKind::Load] {
            pc += 4;
            t.push(TraceRecord::Mem(MemRecord {
                pc,
                addr: 0x1000_0000 + i * 0x148,
                size: MemSize::ALL[(i % 4) as usize],
                kind,
                base: Some(Reg::new(29)),
                data: reg(5),
                wrong_path: false,
            }));
        }
        pc += 4;
        let kind = BranchKind::ALL[(i % 6) as usize];
        let branch = BranchRecord {
            pc,
            target: 0x0040_0000 + (i * 0x1_0344) % 0x8000,
            taken: kind.is_unconditional() || i % 4 == 0,
            kind,
            src1: if kind.is_indirect() { reg(4) } else { None },
            src2: if kind == BranchKind::Cond {
                reg(6)
            } else {
                None
            },
            wrong_path: false,
        };
        t.push(TraceRecord::Branch(branch));
        if i % 3 == 1 {
            // Mispredicted: a short wrong-path run down the other way.
            let wrong = if branch.taken {
                branch.fallthrough()
            } else {
                branch.target
            };
            t.push(TraceRecord::Other(OtherRecord {
                pc: wrong,
                class: OpClass::IntAlu,
                dest: reg(7),
                src1: None,
                src2: None,
                wrong_path: true,
            }));
            t.push(TraceRecord::Mem(MemRecord {
                pc: wrong + 4,
                addr: 0x2000_0000 + i,
                size: MemSize::Byte,
                kind: MemKind::Load,
                base: reg(8),
                data: reg(9),
                wrong_path: true,
            }));
        }
        pc = branch.next_pc();
    }
    t
}

fn mixed_container(layout: u16) -> Vec<u8> {
    let trace = mixed_trace();
    let encoded = match layout {
        1 => trace.encode(),
        2 => trace.encode_v2(),
        other => panic!("no layout {other}"),
    };
    let header = TraceFileHeader::for_trace(&encoded, "vpr", 7, 0xBEEF)
        .with_correct_records(trace.correct_path_len() as u64);
    let mut buf = Vec::new();
    header.write_trace(&mut buf, &encoded).unwrap();
    buf
}

/// The three ways a consumer drains a source.
#[derive(Debug, Clone, Copy)]
enum Drain {
    NextRecord,
    /// `fill` with an odd batch size, so batches straddle record shapes.
    Fill(usize),
    /// `skip` in steps of this many records.
    Skip(u64),
}

const DRAINS: [Drain; 3] = [Drain::NextRecord, Drain::Fill(5), Drain::Skip(3)];

/// Folds the exact outcome of draining `bytes` one way into `h`: header
/// rejection (and why), every record yielded (or every skip count), the
/// terminal error with its I/O kind, and `records_decoded()`.
fn fold_outcome(h: &mut Fnv64, bytes: &[u8], drain: Drain) {
    let mut src = match FileSource::from_reader(bytes) {
        Ok(src) => src,
        Err(e) => {
            h.write_u8(0);
            h.write_str(&format!("{e:?}"));
            return;
        }
    };
    h.write_u8(1);
    let mut yielded = 0u64;
    match drain {
        Drain::NextRecord => {
            while let Some(r) = src.next_record() {
                h.write_str(&format!("{r:?}"));
                yielded += 1;
            }
        }
        Drain::Fill(batch) => {
            let mut buf = vec![sample_trace().records()[0]; batch];
            loop {
                let n = src.fill(&mut buf);
                if n == 0 {
                    break;
                }
                for r in &buf[..n] {
                    h.write_str(&format!("{r:?}"));
                }
                yielded += n as u64;
            }
        }
        Drain::Skip(step) => loop {
            let n = src.skip(step);
            if n == 0 {
                break;
            }
            h.write_u64(n);
            yielded += n;
        },
    }
    h.write_u64(yielded);
    h.write_str(&format!("{:?}", src.error()));
    h.write_u64(src.records_decoded());
}

/// One digest over every truncation and every single-byte flip (masks
/// 0x01, 0x10, 0x80, 0xFF) of the mixed container, each drained through
/// `next_record`, `fill` and `skip`.
fn corruption_outcome_digest(layout: u16) -> u64 {
    let good = mixed_container(layout);
    let mut h = Fnv64::new();
    for len in 0..=good.len() {
        for drain in DRAINS {
            fold_outcome(&mut h, &good[..len], drain);
        }
    }
    for pos in 0..good.len() {
        for mask in [0x01u8, 0x10, 0x80, 0xFF] {
            let mut bad = good.clone();
            bad[pos] ^= mask;
            for drain in DRAINS {
                fold_outcome(&mut h, &bad, drain);
            }
        }
    }
    h.finish()
}

/// Pins where and how every damaged container stops, not only that it
/// stops with a prefix and an error: a reader that fails one record
/// early (or late), or with a different error, moves a digest. The
/// values were taken from the bit-serial reader and must not change
/// when the reader does.
#[test]
fn corruption_outcomes_are_pinned() {
    const PINNED: [(u16, u64); 2] = [(1, 0x0e31_ef00_87cf_30a8), (2, 0x64ab_dc54_3fd4_1a85)];
    let trace = mixed_trace();
    for (layout, _) in PINNED {
        let (records, errored) = drain(&mixed_container(layout)).expect("pristine header parses");
        assert!(
            !errored,
            "layout {layout}: pristine container must drain cleanly"
        );
        assert_eq!(
            records,
            trace.records(),
            "layout {layout}: pristine round trip"
        );
    }
    let mut mismatches = Vec::new();
    for (layout, want) in PINNED {
        let got = corruption_outcome_digest(layout);
        if got != want {
            mismatches.push(format!(
                "layout {layout}: digest {got:#018x}, pinned {want:#018x}"
            ));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
