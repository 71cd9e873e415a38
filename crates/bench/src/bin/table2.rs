//! Regenerates **Table 2**: architectural-simulator performance
//! comparison.
//!
//! Literature rows carry the numbers the paper itself cites (mostly as
//! collected by the FAST paper); the two ReSim rows are computed by this
//! repository's engine and device model on Virtex-5, exactly like the
//! paper's Table 2. Both configurations run as one `resim-sweep` grid.
//!
//! Usage: `table2 [instructions-per-benchmark]`.

use resim_bench::*;
use resim_fpga::{comparison, FpgaDevice};
use resim_sweep::SweepRunner;

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_INSTRUCTIONS);

    let (cfg_l, _) = table1_left();
    let (cfg_r, _) = table1_right();
    let report = SweepRunner::new(0)
        .run(&table1_scenario(n))
        .expect("Table 2 grid is valid");

    // Average simulated MIPS over the five benchmarks, per configuration.
    let avg = |name: &str, cfg: &resim_core::EngineConfig| -> f64 {
        let (sum, count) = report
            .cells_for_config(name)
            .map(|cell| cell_speed(cell, cfg, FpgaDevice::Virtex5Lx50t).mips)
            .fold((0.0, 0usize), |(s, c), m| (s + m, c + 1));
        sum / count as f64
    };
    let resim_4wide = avg(LEFT, &cfg_l);
    let resim_2wide = avg(RIGHT, &cfg_r);

    outln!("Table 2: architectural simulator performance ({n} instructions/benchmark)\n");
    outln!("{:36} {:>10} {:>11}", "Simulator / ISA", "MIPS", "source");
    outln!("{}", rule(60));
    for row in comparison::literature_rows() {
        outln!(
            "{:36} {:>10.2} {:>11}",
            format!("{} ({})", row.name, row.isa),
            row.speed_mips,
            row.provenance.to_string()
        );
    }
    outln!(
        "{:36} {:>10.2} {:>11}",
        "ReSim (PISA, 2-wide, perfect BP, V5)",
        resim_2wide,
        "computed"
    );
    outln!(
        "{:36} {:>10.2} {:>11}",
        "ReSim (PISA, 4-wide, 2-lev BP, V5)",
        resim_4wide,
        "computed"
    );
    outln!("{}", rule(60));
    outln!("paper's ReSim rows: 22.92 and 28.67 MIPS");
    let best_hw = 4.70f64;
    outln!(
        "\nReSim vs best prior hardware simulator (A-Ports, 4.70 MIPS): {:.1}x",
        resim_4wide / best_hw
    );
    outln!(
        "ReSim vs sim-outorder (0.30 MIPS): {:.0}x",
        resim_4wide / 0.30
    );
    outln!("(the paper reports 'more than a factor of 5' over FAST and A-Ports)");
    outln!(
        "[sweep: {} cells on {} threads in {:.2?}]",
        report.len(),
        report.threads,
        report.wall
    );
}
