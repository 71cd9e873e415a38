//! Design-space exploration — the paper's motivating use case ("bulk
//! simulations with varying design parameters", §I).
//!
//! Sweeps reorder-buffer size, LSQ size and issue width on one workload
//! and reports simulated IPC plus the engine-side cost of each point
//! (simulated MIPS on a Virtex-4 and estimated FPGA area), exactly the
//! trade-off a ReSim user would explore before committing RTL.
//!
//! Run with: `cargo run --release --example design_space [instructions]`

use resim::core::FuConfig;
use resim::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(200_000);
    let trace = generate_trace(
        Workload::spec(SpecBenchmark::Gzip, 2009),
        n,
        &TraceGenConfig::paper(),
    );
    let trace_stats = trace.stats();
    let area_model = AreaModel::new();
    let throughput = ThroughputModel::new(FpgaDevice::Virtex4Lx40);

    println!("design-space sweep on gzip ({n} instructions)\n");
    println!(
        "{:>5} {:>5} {:>5} | {:>7} {:>9} {:>9} {:>8}",
        "width", "RB", "LSQ", "IPC", "V4 MIPS", "slices", "BRAMs"
    );
    println!("{}", "-".repeat(56));

    for width in [2usize, 4] {
        for rb in [8usize, 16, 32, 64] {
            for lsq in [4usize, 8, 16] {
                if lsq > rb {
                    continue;
                }
                let config = EngineConfig {
                    width,
                    rb_size: rb,
                    lsq_size: lsq,
                    fus: FuConfig {
                        alus: width,
                        ..FuConfig::paper()
                    },
                    mem_read_ports: width - 1,
                    ..EngineConfig::paper_4wide()
                };
                let mut engine = Engine::new(config.clone())?;
                let stats = engine.run(trace.source());
                let speed = throughput.speed(&config, &stats, Some(&trace_stats));
                let area = area_model.estimate(&config);
                println!(
                    "{:>5} {:>5} {:>5} | {:>7.3} {:>9.2} {:>9.0} {:>8}",
                    width,
                    rb,
                    lsq,
                    stats.ipc(),
                    speed.mips,
                    area.total_slices(),
                    area.total_brams()
                );
            }
        }
    }
    println!("\nLarger windows buy IPC with diminishing returns while the engine");
    println!("slows down (more minor cycles at higher width) and grows on-chip.");
    Ok(())
}
