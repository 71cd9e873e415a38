//! Regenerates **Table 3**: ReSim throughput statistics — trace bits per
//! instruction, simulation throughput *including* mis-speculated
//! instructions, and the resulting trace bandwidth demand in MByte/s
//! (4-issue, 2-level BP, perfect memory, Virtex-4). The 1 × 5 benchmark
//! grid runs through the `resim-sweep` worker pool.
//!
//! Also reproduces the §V analysis: the average demand (~1.1 Gb/s in the
//! paper) exceeds Gigabit Ethernet but fits a DRC-class CPU–FPGA bus.
//!
//! Usage: `table3 [instructions-per-benchmark]`.

use resim_bench::*;
use resim_fpga::{effective_mips, FpgaDevice, TraceLink};
use resim_sweep::SweepRunner;
use resim_workloads::SpecBenchmark;

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_INSTRUCTIONS);

    let paper = [
        ("gzip", 41.74, 26.37, 137.56),
        ("bzip2", 41.16, 29.43, 151.39),
        ("parser", 43.66, 22.83, 124.58),
        ("vortex", 47.14, 24.47, 144.20),
        ("vpr", 43.52, 24.44, 132.94),
    ];

    outln!("Table 3: ReSim throughput statistics ({n} instructions/benchmark)");
    outln!("4-issue, 2-level BP, perfect memory, Virtex-4. 'p:' columns = paper.\n");
    outln!(
        "{:8} | {:>10} {:>8} | {:>10} {:>8} | {:>10} {:>8} | {:>7}",
        "SPEC",
        "bits/instr",
        "p:bits",
        "MIPS",
        "p:MIPS",
        "MB/s",
        "p:MB/s",
        "wp %"
    );
    outln!("{}", rule(92));

    let (cfg, _) = table1_left();
    let report = SweepRunner::new(0)
        .run(&table1_left_scenario(n))
        .expect("Table 3 grid is valid");

    let (mut sb, mut sm, mut st) = (0.0, 0.0, 0.0);
    for (i, b) in SpecBenchmark::ALL.into_iter().enumerate() {
        let r = report.get(LEFT, b.name()).expect("cell ran");
        let sp = cell_speed(r, &cfg, FpgaDevice::Virtex4Lx40);
        let bits = sp.bits_per_instruction.expect("trace stats supplied");
        let mbps = sp.trace_mbytes_per_sec.expect("trace stats supplied");
        sb += bits;
        sm += sp.mips_including_wrong_path;
        st += mbps;
        outln!(
            "{:8} | {:>10.2} {:>8.2} | {:>10.2} {:>8.2} | {:>10.2} {:>8.2} | {:>7.2}",
            b.name(),
            bits,
            paper[i].1,
            sp.mips_including_wrong_path,
            paper[i].2,
            mbps,
            paper[i].3,
            100.0 * r.stats.wrong_path_fraction(),
        );
    }
    outln!("{}", rule(92));
    outln!(
        "{:8} | {:>10.2} {:>8.2} | {:>10.2} {:>8.2} | {:>10.2} {:>8.2} |",
        "Average",
        sb / 5.0,
        43.44,
        sm / 5.0,
        25.51,
        st / 5.0,
        138.13
    );

    let gbps = (st / 5.0) * 8.0 / 1000.0;
    outln!("\nAverage trace demand: {gbps:.2} Gb/s (paper: ~1.1 Gb/s)");
    for link in TraceLink::ALL {
        let eff = effective_mips(sm / 5.0, sb / 5.0, link);
        let verdict = if eff + 1e-9 >= sm / 5.0 {
            "sustains full speed"
        } else {
            "THROTTLES"
        };
        outln!(
            "  over {:20} -> {:>6.2} MIPS  ({verdict})",
            link.to_string(),
            eff
        );
    }
    outln!(
        "[sweep: {} cells on {} threads in {:.2?}]",
        report.len(),
        report.threads,
        report.wall
    );
}
