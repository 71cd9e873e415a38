//! Golden pins of the correct-path streams the walker produces.
//!
//! Every trace ReSim simulates starts as one of these streams, so every
//! pinned statistic downstream (`golden_stats.rs`, the e2ebench digests,
//! the session corpus) depends on them. This file pins the streams
//! themselves, closer to the code that makes them: an FNV-1a digest over
//! a canonical field-by-field byte feed of the first [`RECORDS`] records
//! of each calibrated SPEC model and of the generic profile, at three
//! seeds. Any change to the walker — its data structures, its arithmetic,
//! the order it draws random numbers in — that moves a single field of a
//! single record turns this red.
//!
//! The literals were recorded before the walker was made allocation- and
//! hash-free; a change that is *meant* to alter the streams must re-pin
//! them deliberately and say so in review.

use resim_trace::{Fnv64, Reg, TraceRecord};
use resim_workloads::{SpecBenchmark, Workload, WorkloadProfile};

/// Records digested per stream.
const RECORDS: usize = 1_000_000;

/// Seeds pinned per workload: the bench default plus two held-out seeds.
const SEEDS: [u64; 3] = [2009, 7, 11];

/// `(workload, [digest at each of SEEDS])`.
const PINS: [(&str, [u64; 3]); 6] = [
    ("gzip", [0xed826e57eaf11f9a, 0xa4e4456a2485a812, 0x0560e48e527dff4a]),
    ("bzip2", [0xa57cfd976b7b7e3a, 0xaaf70c8a8eba6f5f, 0xbe844d9f5fde44bd]),
    ("parser", [0x9061ad491e8d9e34, 0xc80a02fe510c0ca2, 0x0962af959103b05b]),
    ("vortex", [0xb0dc898b9ce52d7d, 0x82cc14192615b1bb, 0xd6404bfdebfa7d76]),
    ("vpr", [0xfb280062c99dac5b, 0xaf6a4292eb27aabf, 0x0f200b25bd5947f2]),
    ("generic", [0xd002d44cca60abd7, 0xf82e7a5da2103c99, 0x02931c05112fbdc9]),
];

fn write_reg(h: &mut Fnv64, reg: Option<Reg>) {
    // 0 for "no register", else index + 1.
    h.write_u8(reg.map_or(0, |r| r.index() + 1));
}

/// Feeds every field of `record` in a fixed order.
fn write_record(h: &mut Fnv64, record: &TraceRecord) {
    match record {
        TraceRecord::Branch(b) => {
            h.write_u8(0);
            h.write(&b.pc.to_le_bytes());
            h.write(&b.target.to_le_bytes());
            h.write_u8(u8::from(b.taken));
            h.write_u8(b.kind as u8);
            write_reg(h, b.src1);
            write_reg(h, b.src2);
            h.write_u8(u8::from(b.wrong_path));
        }
        TraceRecord::Mem(m) => {
            h.write_u8(1);
            h.write(&m.pc.to_le_bytes());
            h.write(&m.addr.to_le_bytes());
            h.write_u8(m.size as u8);
            h.write_u8(m.kind as u8);
            write_reg(h, m.base);
            write_reg(h, m.data);
            h.write_u8(u8::from(m.wrong_path));
        }
        TraceRecord::Other(o) => {
            h.write_u8(2);
            h.write(&o.pc.to_le_bytes());
            h.write_u8(o.class as u8);
            write_reg(h, o.dest);
            write_reg(h, o.src1);
            write_reg(h, o.src2);
            h.write_u8(u8::from(o.wrong_path));
        }
    }
}

fn stream_digest(mut workload: Workload) -> u64 {
    let mut h = Fnv64::new();
    for _ in 0..RECORDS {
        write_record(&mut h, &workload.next_record());
    }
    h.finish()
}

fn instantiate(name: &str, seed: u64) -> Workload {
    match SpecBenchmark::ALL.iter().find(|b| b.name() == name) {
        Some(&b) => Workload::spec(b, seed),
        None => {
            assert_eq!(name, "generic", "unknown pinned workload");
            Workload::new(&WorkloadProfile::generic(), seed)
        }
    }
}

#[test]
fn pinned_streams_are_bit_identical() {
    let actual: Vec<(&str, [u64; 3])> = PINS
        .iter()
        .map(|&(name, _)| (name, SEEDS.map(|seed| stream_digest(instantiate(name, seed)))))
        .collect();
    let table: String = actual
        .iter()
        .map(|(name, d)| {
            format!(
                "    (\"{name}\", [{:#018x}, {:#018x}, {:#018x}]),\n",
                d[0], d[1], d[2]
            )
        })
        .collect();
    assert_eq!(
        actual.as_slice(),
        PINS.as_slice(),
        "the walker's streams moved; the digests now are:\n{table}"
    );
}

#[test]
fn pins_cover_every_spec_model() {
    for b in SpecBenchmark::ALL {
        assert!(
            PINS.iter().any(|(name, _)| *name == b.name()),
            "{} has no stream pin",
            b.name()
        );
    }
}
