//! CI smoke for sampled simulation: a small gzip trace, a 4-window plan,
//! asserting the sampled 95 % confidence interval contains the full
//! run's IPC and that the 100 %-coverage plan is bit-identical.
//!
//! Run with `cargo run --release -p resim-sample --example smoke`.
//! Exits non-zero (panics) on any violation, so CI can gate on it.

// A CI program, not library code: printing its report is its job.
#![allow(clippy::disallowed_macros)]

use resim_core::{Engine, EngineConfig};
use resim_sample::{run_sampled, SamplePlan};
use resim_tracegen::{generate_trace, TraceGenConfig};
use resim_workloads::{SpecBenchmark, Workload};

fn main() {
    let trace = generate_trace(
        Workload::spec(SpecBenchmark::Gzip, 2009),
        40_000,
        &TraceGenConfig::paper(),
    );
    let config = EngineConfig::paper_4wide();
    let full = Engine::new(config.clone())
        .expect("valid config")
        .run(trace.source());

    // 4 sampled windows: detail 1k of every other 5k-record interval.
    let plan = SamplePlan::systematic(5_000, 1_000, 2);
    let s = run_sampled(&config, trace.source(), &plan).expect("valid plan");
    let (lo, hi) = s.ci95();
    println!(
        "sampled IPC {:.4} [{lo:.4}, {hi:.4}] over {} windows ({:.1}% detailed) vs full {:.4}",
        s.mean_ipc(),
        s.n_windows(),
        100.0 * s.detailed_fraction(),
        full.ipc(),
    );
    assert!(
        s.n_windows() >= 4,
        "expected >= 4 windows, got {}",
        s.n_windows()
    );
    assert!(
        s.ci95_contains(full.ipc()),
        "full IPC {:.4} outside sampled CI [{lo:.4}, {hi:.4}]",
        full.ipc()
    );
    assert!(
        s.relative_error(full.ipc()) < 0.05,
        "relative error {:.2}% too high",
        100.0 * s.relative_error(full.ipc())
    );

    // And the exactness anchor: 100% coverage == Engine::run, bit for bit.
    let exact = run_sampled(&config, trace.source(), &SamplePlan::full_coverage(5_000))
        .expect("valid plan");
    assert_eq!(exact.sim, full, "100%-coverage plan must be bit-identical");
    println!("full-coverage plan bit-identical to Engine::run — ok");
}
