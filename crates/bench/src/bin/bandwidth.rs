//! Regenerates the §V trace-bandwidth feasibility analysis: delivered
//! simulation speed per benchmark over each modelled host-to-FPGA link,
//! for both FPGA devices. Each benchmark simulates once through the
//! `resim-sweep` grid; the per-device, per-link numbers are derived from
//! the same cells.
//!
//! Usage: `bandwidth [instructions]`.

use resim_bench::*;
use resim_fpga::{effective_mips, FpgaDevice, TraceLink};
use resim_sweep::SweepRunner;
use resim_workloads::SpecBenchmark;

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_INSTRUCTIONS / 2);

    let (cfg, _) = table1_left();
    let report = SweepRunner::new(0)
        .run(&table1_left_scenario(n))
        .expect("bandwidth grid is valid");

    outln!("Trace-link feasibility (4-issue, 2-level BP, perfect memory; {n} instrs)\n");
    for device in FpgaDevice::PAPER {
        outln!("--- {device} ---");
        outln!(
            "{:8} {:>10} {:>10} | {:>10} {:>10} {:>10} {:>10}",
            "SPEC",
            "demand",
            "Gb/s",
            "GigE",
            "PCIe x4",
            "DRC HT",
            "on-board"
        );
        for b in SpecBenchmark::ALL {
            let r = report.get(LEFT, b.name()).expect("cell ran");
            let sp = cell_speed(r, &cfg, device);
            let bits = sp.bits_per_instruction.expect("trace stats");
            let demand = sp.mips_including_wrong_path;
            let gbps = demand * bits / 1000.0;
            let eff = |l| effective_mips(demand, bits, l);
            outln!(
                "{:8} {:>10.2} {:>10.2} | {:>10.2} {:>10.2} {:>10.2} {:>10.2}",
                b.name(),
                demand,
                gbps,
                eff(TraceLink::GigabitEthernet),
                eff(TraceLink::PcieX4Gen1),
                eff(TraceLink::DrcHyperTransport),
                eff(TraceLink::OnBoardMemory),
            );
        }
        outln!();
    }
    outln!("The paper's observation: the ~1.1 Gb/s demand exceeds Gigabit Ethernet,");
    outln!("but tightly-coupled CPU-FPGA buses (the DRC board) sustain it easily.");
    outln!(
        "[sweep: {} cells on {} threads in {:.2?}; both device tables share them]",
        report.len(),
        report.threads,
        report.wall
    );
}
