//! CI smoke sweep: a 2×2×2 grid (2 configs × 2 workloads × 2 seeds) on
//! 2 threads, small enough to finish in seconds.
//!
//! Run with `cargo run --release -p resim-sweep --example smoke`.
//! Exits non-zero (panics) if any cell misbehaves, so CI can gate on it.

// A CI program, not library code: printing its report is its job.
#![allow(clippy::disallowed_macros)]

use resim_core::EngineConfig;
use resim_sweep::{Scenario, SweepRunner, WorkloadPoint};
use resim_tracegen::TraceGenConfig;
use resim_workloads::SpecBenchmark;

fn main() {
    let scenario = Scenario::new()
        .config_grid(
            EngineConfig::paper_4wide().grid().widths([2, 4]).build(),
            TraceGenConfig::paper(),
        )
        .workload(WorkloadPoint::spec(SpecBenchmark::Gzip))
        .workload(WorkloadPoint::spec(SpecBenchmark::Vpr))
        .budgets([20_000])
        .seeds([2009, 2010]);

    let runner = SweepRunner::new(2);
    let report = runner.run(&scenario).expect("smoke scenario is valid");
    print!("{}", report.to_markdown());

    assert_eq!(report.cells.len(), 8, "2 configs x 2 workloads x 2 seeds");
    assert_eq!(
        report.trace_cache_misses, 4,
        "each (workload, seed) trace is generated once and shared by both configs"
    );
    for cell in &report.cells {
        assert_eq!(
            cell.stats.committed, 20_000,
            "{}: short commit",
            cell.config
        );
        assert!(
            cell.stats.ipc() > 0.0 && cell.stats.ipc() <= 4.0,
            "{}/{}: IPC {} out of range",
            cell.config,
            cell.workload,
            cell.stats.ipc()
        );
    }
    println!("smoke sweep OK");
}
