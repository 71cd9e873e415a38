//! Golden pins of the bytes the two trace encoders write.
//!
//! `container_corruption.rs`, the session corpus and the e2ebench
//! digests all read containers that an encoder wrote, so a change to the
//! write path that moves one bit moves them too. This file pins the
//! encoders themselves: an FNV-1a digest over `bytes()`, `len_bits()` and
//! every `TraceStats` counter of `encode()` (layout 1) and
//! `encode_v2()` (layout 2), for each SPEC model at [`RECORDS`] records,
//! generated under the paper's predictor (wrong-path blocks included) and
//! under a perfect one.
//!
//! The literals were recorded before the writer accumulated whole words;
//! a change that is *meant* to alter a layout must re-pin them
//! deliberately and bump its layout version.

use resim_trace::{EncodedTrace, Fnv64};
use resim_tracegen::{generate_trace, TraceGenConfig};
use resim_workloads::{SpecBenchmark, Workload};

/// Records generated per trace.
const RECORDS: usize = 50_000;

/// `(workload, [v1 paper, v1 perfect, v2 paper, v2 perfect])`.
const PINS: [(&str, [u64; 4]); 5] = [
    (
        "gzip",
        [
            0x1e9181ff27426227,
            0x758ec2c1b2cb62c7,
            0x71ec3d80f48ae830,
            0x48abac1473a49a40,
        ],
    ),
    (
        "bzip2",
        [
            0xf65fed57b4141460,
            0x42b3cbbde254d06e,
            0xc2e052b5f7478f9f,
            0x85016ee07e72ead6,
        ],
    ),
    (
        "parser",
        [
            0x993908619df7a494,
            0x9c672e0a254e984a,
            0x4cec06445f69bbf8,
            0x2bb1560215069877,
        ],
    ),
    (
        "vortex",
        [
            0xbe78322fa5d87edc,
            0x5cad8ad1b4fe06b7,
            0x8425ad0b902619f2,
            0x8a76add65f8a5b91,
        ],
    ),
    (
        "vpr",
        [
            0x0b782d8d5d195b83,
            0x07db83a82ca022ed,
            0xe0aa9226dc8868de,
            0x1048d3919a996e20,
        ],
    ),
];

fn digest(encoded: &EncodedTrace) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(u64::from(encoded.layout_version()));
    h.write_u64(encoded.len_bits());
    h.write_u64(encoded.len());
    h.write(encoded.bytes());
    // Every counter, by name: a counter added to `TraceStats` re-pins.
    h.write_str(&format!("{:?}", encoded.stats()));
    h.finish()
}

fn digests(bench: SpecBenchmark) -> [u64; 4] {
    let [paper, perfect] = [TraceGenConfig::paper(), TraceGenConfig::perfect()]
        .map(|config| generate_trace(Workload::spec(bench, 2009), RECORDS, &config));
    [
        digest(&paper.encode()),
        digest(&perfect.encode()),
        digest(&paper.encode_v2()),
        digest(&perfect.encode_v2()),
    ]
}

#[test]
fn encoded_bytes_and_stats_are_pinned() {
    let actual: Vec<(&str, [u64; 4])> = PINS
        .iter()
        .map(|&(name, _)| {
            let bench = SpecBenchmark::by_name(name).expect("a pinned SPEC model");
            (name, digests(bench))
        })
        .collect();
    let table: String = actual
        .iter()
        .map(|(name, d)| {
            format!(
                "    (\n        \"{name}\",\n        [{:#018x}, {:#018x}, {:#018x}, {:#018x}],\n    ),\n",
                d[0], d[1], d[2], d[3]
            )
        })
        .collect();
    assert_eq!(
        actual.as_slice(),
        PINS.as_slice(),
        "the encoders' output moved; the digests now are:\n{table}"
    );
}

#[test]
fn pins_cover_every_spec_model() {
    let pinned: Vec<&str> = PINS.iter().map(|&(name, _)| name).collect();
    let all: Vec<&str> = SpecBenchmark::ALL.iter().map(|b| b.name()).collect();
    assert_eq!(pinned, all);
}
