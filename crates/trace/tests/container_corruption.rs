//! Adversarial container inputs: every single-byte corruption and every
//! truncation of a well-formed v1 or v2 trace container must come back
//! as a typed error (or a shorter-but-valid decode) — never a panic,
//! and never a silently *wrong* record stream passed off as clean.
//!
//! The small-container tests are exhaustive rather than randomized: the
//! container under test is small enough (< 200 bytes) to try every byte
//! position and every prefix length deterministically. The multi-block
//! tests cut a 40 KiB body around each read-block edge and its end, and
//! flip its bytes at a stride.

use resim_trace::{
    BranchKind, BranchRecord, FileSource, Fnv64, MemKind, MemRecord, MemSize, OpClass, OtherRecord,
    Reg, Trace, TraceFileHeader, TraceRecord, TraceSource,
};
use std::io::{self, Read};

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

/// Folds a record into `h` as its `Debug` text.
fn fold_debug(h: &mut Fnv64, r: &TraceRecord) {
    h.write_str(&format!("{r:?}"));
}

/// Folds the exact outcome of draining `bytes` one way into `h`.
fn fold_outcome(h: &mut Fnv64, bytes: &[u8], drain: Drain) {
    fold_source(h, bytes, drain, fold_debug);
}

/// Folds the exact outcome of draining `reader` one way into `h`: header
/// rejection (and why), every record yielded (through `fold_record`) or
/// every skip count, the terminal error with its I/O kind, and
/// `records_decoded()`.
fn fold_source<R: Read>(
    h: &mut Fnv64,
    reader: R,
    drain: Drain,
    fold_record: fn(&mut Fnv64, &TraceRecord),
) {
    let mut src = match FileSource::from_reader(reader) {
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
                fold_record(h, &r);
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
                    fold_record(h, r);
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

/// The body block `FileSource` reads at a time (`bits::BLOCK_BYTES`).
const BLOCK_BYTES: usize = 16 * 1024;

/// SplitMix64, for the multi-block fixture.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A v2 trace whose body spans three read blocks: every record shape,
/// PC runs broken by small and escaped jumps, strided and wild
/// addresses, biased branch outcomes and wrong-path records.
fn long_trace() -> Trace {
    let mut rng = Rng(2009);
    let mut t = Trace::new();
    let mut pc = 0x0040_0000u32;
    let mut addr = 0x1000_0000u32;
    let mut taken_bias = true;
    for _ in 0..11_000 {
        let reg = |rng: &mut Rng| (rng.below(4) != 0).then(|| Reg::new(rng.below(64) as u8));
        let wrong_path = rng.below(16) == 0;
        let record = match rng.below(8) {
            0..=3 => TraceRecord::Other(OtherRecord {
                pc,
                class: OpClass::ALL[rng.below(4) as usize],
                dest: reg(&mut rng),
                src1: reg(&mut rng),
                src2: reg(&mut rng),
                wrong_path,
            }),
            4 | 5 => {
                addr = match rng.below(8) {
                    0 => rng.next() as u32,
                    1 => addr.wrapping_sub(rng.below(1 << 12) as u32),
                    _ => addr.wrapping_add(4 * rng.below(8) as u32),
                };
                TraceRecord::Mem(MemRecord {
                    pc,
                    addr,
                    size: MemSize::ALL[rng.below(4) as usize],
                    kind: if rng.below(3) == 0 {
                        MemKind::Store
                    } else {
                        MemKind::Load
                    },
                    base: reg(&mut rng),
                    data: reg(&mut rng),
                    wrong_path,
                })
            }
            _ => {
                if rng.below(6) == 0 {
                    taken_bias = !taken_bias;
                }
                let kind = BranchKind::ALL[rng.below(6) as usize];
                let target = if rng.below(8) == 0 {
                    rng.next() as u32 & !3
                } else {
                    pc.wrapping_add(4 * rng.below(512) as u32)
                        .wrapping_sub(1024)
                };
                TraceRecord::Branch(BranchRecord {
                    pc,
                    target,
                    taken: kind.is_unconditional() || (rng.below(5) != 0) == taken_bias,
                    kind,
                    src1: reg(&mut rng),
                    src2: reg(&mut rng),
                    wrong_path,
                })
            }
        };
        t.push(record);
        pc = match rng.below(24) {
            0 => rng.next() as u32 & !3,
            1 => record
                .implied_next_pc()
                .wrapping_add(4 * rng.below(64) as u32),
            _ => record.implied_next_pc(),
        };
    }
    t
}

/// An `io::Read` that hands out 1, 2 or 3 bytes per call in turn, so
/// every field may straddle a refill.
struct Dribble<'a> {
    body: &'a [u8],
    calls: usize,
}

impl Read for Dribble<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.calls += 1;
        let n = (1 + self.calls % 3).min(buf.len()).min(self.body.len());
        buf[..n].copy_from_slice(&self.body[..n]);
        self.body = &self.body[n..];
        Ok(n)
    }
}

/// Folds a record into `h` field by field: the same content as its
/// `Debug` text, cheap enough for tens of millions of records.
fn fold_fields(h: &mut Fnv64, r: &TraceRecord) {
    let reg = |r: Option<Reg>| r.map_or(0xFF, Reg::index);
    match *r {
        TraceRecord::Other(o) => h.write(&[
            0,
            o.class as u8,
            reg(o.dest),
            reg(o.src1),
            reg(o.src2),
            u8::from(o.wrong_path),
        ]),
        TraceRecord::Mem(m) => {
            h.write(&[
                1,
                m.size as u8,
                m.kind as u8,
                reg(m.base),
                reg(m.data),
                u8::from(m.wrong_path),
            ]);
            h.write(&m.addr.to_le_bytes());
        }
        TraceRecord::Branch(b) => {
            h.write(&[
                2,
                b.kind as u8,
                u8::from(b.taken),
                reg(b.src1),
                reg(b.src2),
                u8::from(b.wrong_path),
            ]);
            h.write(&b.target.to_le_bytes());
        }
    }
    h.write(&r.pc().to_le_bytes());
}

/// Folds the outcome of every drain of `bytes`, over a slice and through
/// a [`Dribble`] reader.
fn fold_all_drains(h: &mut Fnv64, bytes: &[u8]) {
    for drain in DRAINS {
        fold_source(h, bytes, drain, fold_fields);
        let dribble = Dribble {
            body: bytes,
            calls: 0,
        };
        fold_source(h, dribble, drain, fold_fields);
    }
}

/// The multi-block fixture as a container, with the offset of its body.
fn long_container() -> (Vec<u8>, usize) {
    let trace = long_trace();
    let encoded = trace.encode_v2();
    let body = encoded.bytes().len();
    assert!(
        body >= 40 * 1024,
        "fixture body of {body} bytes must span 3 blocks"
    );
    let header = TraceFileHeader::for_trace(&encoded, "vpr", 2009, 0xFEED)
        .with_correct_records(trace.correct_path_len() as u64);
    let mut good = Vec::new();
    header.write_trace(&mut good, &encoded).unwrap();
    let (records, errored) = drain(&good).expect("pristine header parses");
    assert!(!errored, "pristine container must drain cleanly");
    assert_eq!(records, trace.records(), "pristine round trip");
    let start = good.len() - body;
    (good, start)
}

/// Pins every stop point and error of a v2 body that spans read blocks,
/// cut at every byte within 64 bytes of each block edge and of the end,
/// each cut drained every way over a slice and a 1–3-byte reader. The
/// value was taken from the per-field checked reader and must not change
/// when the decoder does.
#[test]
fn multi_block_v2_cut_outcomes_are_pinned() {
    const PINNED: u64 = 0xd517_842d_ebd3_fc47;
    let (good, start) = long_container();
    let body = good.len() - start;
    let mut cuts: Vec<usize> = (1..=body / BLOCK_BYTES)
        .map(|k| start + k * BLOCK_BYTES)
        .chain([good.len()])
        .flat_map(|edge| edge - 64..=(edge + 64).min(good.len()))
        .collect();
    cuts.dedup();
    let mut h = Fnv64::new();
    for &len in &cuts {
        fold_all_drains(&mut h, &good[..len]);
    }
    let got = h.finish();
    assert_eq!(got, PINNED, "digest {got:#018x}, pinned {PINNED:#018x}");
}

/// The same pin for the pristine multi-block container and byte flips
/// (masks 0x01, 0x80, 0xFF) at a stride through its body.
#[test]
fn multi_block_v2_flip_outcomes_are_pinned() {
    const PINNED: u64 = 0x4ad4_419a_a211_4b89;
    let (good, start) = long_container();
    let mut h = Fnv64::new();
    fold_all_drains(&mut h, &good);
    for pos in (start..good.len()).step_by(1021) {
        for mask in [0x01u8, 0x80, 0xFF] {
            let mut bad = good.clone();
            bad[pos] ^= mask;
            fold_all_drains(&mut h, &bad);
        }
    }
    let got = h.finish();
    assert_eq!(got, PINNED, "digest {got:#018x}, pinned {PINNED:#018x}");
}
