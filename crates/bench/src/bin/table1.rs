//! Regenerates **Table 1**: ReSim's simulation performance.
//!
//! Left portion: 4-issue, two-level branch predictor, perfect memory,
//! optimized N+3 pipeline — simulated MIPS on Virtex-4 and Virtex-5.
//! Right portion: 2-issue, perfect branch prediction, 32 KB 8-way 64 B L1
//! I+D caches, improved N+4 pipeline — plus FAST's reported Muops/s
//! column for the head-to-head.
//!
//! The 2 × 5 grid of (configuration, benchmark) cells runs through the
//! `resim-sweep` worker pool rather than a hand-rolled serial loop.
//!
//! Usage: `table1 [instructions-per-benchmark]` (default 1,000,000).

use resim_bench::*;
use resim_fpga::{comparison, FpgaDevice};
use resim_sweep::SweepRunner;
use resim_workloads::SpecBenchmark;

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_INSTRUCTIONS);

    let paper_left = [
        ("gzip", 23.26, 29.07),
        ("bzip2", 27.55, 34.44),
        ("parser", 19.94, 24.92),
        ("vortex", 23.57, 29.46),
        ("vpr", 20.38, 25.48),
    ];
    let paper_right = [
        ("gzip", 20.44, 25.55),
        ("bzip2", 18.53, 23.16),
        ("parser", 16.70, 20.88),
        ("vortex", 16.83, 21.04),
        ("vpr", 19.16, 23.95),
    ];
    let fast = comparison::fast_table1_column();

    outln!("Table 1: ReSim simulation performance ({n} instructions per benchmark)");
    outln!("Left: 4-issue, 2-level BP, perfect memory (N+3 = 7 minor cycles).");
    outln!("Right: 2-issue, perfect BP, 32KB 8-way 64B L1 I+D (N+4 = 6 minor cycles).");
    outln!("'paper' columns are the publication's values for comparison.\n");
    outln!(
        "{:8} | {:>8} {:>8} {:>8} {:>8} | {:>8} {:>8} {:>8} {:>8} | {:>8}",
        "SPEC",
        "V4 MIPS",
        "paper",
        "V5 MIPS",
        "paper",
        "V4 MIPS",
        "paper",
        "V5 MIPS",
        "paper",
        "FAST"
    );
    outln!("{}", rule(104));

    let (cfg_l, _) = table1_left();
    let (cfg_r, _) = table1_right();
    let report = SweepRunner::new(0)
        .run(&table1_scenario(n))
        .expect("Table 1 grid is valid");

    let mut sums = [0.0f64; 5];
    for (i, b) in SpecBenchmark::ALL.into_iter().enumerate() {
        let rl = report.get(LEFT, b.name()).expect("left cell ran");
        let rr = report.get(RIGHT, b.name()).expect("right cell ran");
        let l4 = cell_speed(rl, &cfg_l, FpgaDevice::Virtex4Lx40).mips;
        let l5 = cell_speed(rl, &cfg_l, FpgaDevice::Virtex5Lx50t).mips;
        let r4 = cell_speed(rr, &cfg_r, FpgaDevice::Virtex4Lx40).mips;
        let r5 = cell_speed(rr, &cfg_r, FpgaDevice::Virtex5Lx50t).mips;
        sums[0] += l4;
        sums[1] += l5;
        sums[2] += r4;
        sums[3] += r5;
        sums[4] += fast[i].1;
        outln!(
            "{:8} | {:>8.2} {:>8.2} {:>8.2} {:>8.2} | {:>8.2} {:>8.2} {:>8.2} {:>8.2} | {:>8.2}",
            b.name(),
            l4,
            paper_left[i].1,
            l5,
            paper_left[i].2,
            r4,
            paper_right[i].1,
            r5,
            paper_right[i].2,
            fast[i].1,
        );
    }
    outln!("{}", rule(104));
    outln!(
        "{:8} | {:>8.2} {:>8.2} {:>8.2} {:>8.2} | {:>8.2} {:>8.2} {:>8.2} {:>8.2} | {:>8.2}",
        "Average",
        sums[0] / 5.0,
        22.94,
        sums[1] / 5.0,
        28.67,
        sums[2] / 5.0,
        18.33,
        sums[3] / 5.0,
        22.92,
        sums[4] / 5.0,
    );
    outln!(
        "\nReSim (2-issue, V4) over FAST: {:.2}x  (paper reports 6.57x for the common technology)",
        (sums[2] / 5.0) / (sums[4] / 5.0)
    );
    outln!(
        "[sweep: {} cells on {} threads in {:.2?}; {} traces generated]",
        report.len(),
        report.threads,
        report.wall,
        report.trace_cache_misses
    );
}
