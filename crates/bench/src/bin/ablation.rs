//! Ablation studies for the design decisions the paper motivates:
//!
//! 1. **Parallel vs. serial fetch** (§IV): the measured data point that a
//!    4-wide parallel fetch unit is 4× the area and 22 % slower — the
//!    observation that led to the serial minor-cycle engine.
//! 2. **Pipeline organization sweep** (§IV.A/B): the same workload under
//!    the simple (2N+3), improved (N+4) and optimized (N+3) organizations
//!    — identical simulated timing, different engine throughput.
//! 3. **Width sweep**: how simulated IPC and engine MIPS scale with the
//!    simulated processor width.
//!
//! Sweeps 2 and 3 run through the `resim-sweep` worker pool with one
//! shared trace cache, so the gzip trace is generated exactly once for
//! all seven simulated cells.
//!
//! Usage: `ablation [instructions]`.

use resim_bench::*;
use resim_core::EngineConfig;
use resim_fpga::{parallel_fetch_ablation, FpgaDevice, ThroughputModel};
use resim_sweep::{Scenario, SweepRunner, WorkloadPoint};
use resim_workloads::SpecBenchmark;
use std::time::Instant;

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_INSTRUCTIONS / 2);

    // --- 1. parallel vs serial fetch --------------------------------
    outln!("Ablation 1 (SIV): parallel vs serial fetch front end");
    outln!(
        "{:>6} {:>12} {:>12} {:>22}",
        "width",
        "area ratio",
        "freq ratio",
        "per-area throughput"
    );
    for w in [1usize, 2, 4, 8] {
        let a = parallel_fetch_ablation(w);
        // A parallel engine would retire one simulated cycle per engine
        // cycle; the serial engine needs N+3. Throughput per unit area:
        let serial = 1.0 / (w as f64 + 3.0);
        let parallel = a.freq_ratio / a.area_ratio;
        outln!(
            "{:>6} {:>12.1} {:>12.2} {:>14.3} vs {:.3}",
            w,
            a.area_ratio,
            a.freq_ratio,
            parallel,
            serial
        );
    }
    outln!("(paper's measured point: width 4 -> 4x area, 22% slower)\n");

    // One runner for both sweeps: the shared trace cache generates the
    // gzip trace once and every cell of both grids reuses it.
    let t0 = Instant::now();
    let runner = SweepRunner::new(0);
    let (_, tg) = table1_left();
    let gzip = || WorkloadPoint::spec(SpecBenchmark::Gzip);

    // --- 2. pipeline organization sweep ------------------------------
    outln!("Ablation 2 (SIV.A/B): pipeline organizations, gzip, 4-wide, Virtex-4");
    let org_points = EngineConfig::paper_4wide()
        .grid()
        .pipelines(resim_core::PipelineDescription::builtins())
        .build();
    let org_scenario = Scenario::new()
        .config_grid(org_points.clone(), tg)
        .workload(gzip())
        .budgets([n])
        .seeds([DEFAULT_SEED]);
    let org_report = runner.run(&org_scenario).expect("pipeline grid is valid");

    outln!(
        "{:>10} {:>12} {:>12} {:>10} {:>10}",
        "pipeline",
        "minor/major",
        "sim cycles",
        "IPC",
        "V4 MIPS"
    );
    let mut cycles_seen = Vec::new();
    for (name, config) in &org_points {
        let cell = org_report.get(name, "gzip").expect("org cell ran");
        let mips = ThroughputModel::new(FpgaDevice::Virtex4Lx40)
            .speed(config, &cell.stats, None)
            .mips;
        outln!(
            "{:>10} {:>12} {:>12} {:>10.3} {:>10.2}",
            name,
            config.minor_cycles_per_major(),
            cell.stats.cycles,
            cell.stats.ipc(),
            mips
        );
        cycles_seen.push(cell.stats.cycles);
    }
    assert!(
        cycles_seen.windows(2).all(|w| w[0] == w[1]),
        "the three organizations must produce identical simulated timing"
    );
    outln!("simulated cycle counts identical across organizations: OK\n");

    // --- 3. width sweep ----------------------------------------------
    outln!("Ablation 3: simulated-width sweep, gzip, perfect memory, Virtex-4");
    let width_points = EngineConfig::paper_4wide()
        .grid()
        .widths([1, 2, 4, 8])
        .build();
    let width_scenario = Scenario::new()
        .config_grid(width_points.clone(), tg)
        .workload(gzip())
        .budgets([n])
        .seeds([DEFAULT_SEED]);
    let width_report = runner.run(&width_scenario).expect("width grid is valid");

    outln!(
        "{:>6} {:>10} {:>12} {:>10} {:>10}",
        "width",
        "pipeline",
        "minor/major",
        "IPC",
        "V4 MIPS"
    );
    for (name, config) in &width_points {
        let cell = width_report.get(name, "gzip").expect("width cell ran");
        let mips = ThroughputModel::new(FpgaDevice::Virtex4Lx40)
            .speed(config, &cell.stats, None)
            .mips;
        outln!(
            "{:>6} {:>10} {:>12} {:>10.3} {:>10.2}",
            config.width,
            config.pipeline.name(),
            config.minor_cycles_per_major(),
            cell.stats.ipc(),
            mips
        );
    }
    outln!("\nNote the engine-throughput sweet spot: wider simulated processors");
    outln!("raise IPC sub-linearly but pay N+3 minor cycles per simulated cycle.");
    outln!(
        "[sweeps: {} cells on {} threads in {:.2?}; traces generated {}, cache hits {}]",
        org_report.len() + width_report.len(),
        runner.threads(),
        t0.elapsed(),
        runner.cache().misses(),
        runner.cache().hits(),
    );
}
