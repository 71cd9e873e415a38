//! Sampled-vs-full accuracy and speedup across all calibrated workloads.
//!
//! For every SPECINT model this runs the same generated trace (i) in
//! full detail and (ii) under two sampling plans — functional warmup and
//! bounded warmup with codec-level skip — and reports the IPC estimate
//! with its 95 % confidence interval, the relative error against the
//! full run, and two speedups: wall-clock and record throughput
//! (records/s, the metric that is host-load independent).
//!
//! Run with `cargo run --release -p resim-bench --bin sampling`.

use resim_bench::{outln, DEFAULT_SEED};
use resim_core::{Engine, EngineConfig, SimStats};
use resim_sample::{run_sampled, SamplePlan, SampledStats, WarmupMode};
use resim_trace::Trace;
use resim_tracegen::{generate_trace, TraceGenConfig};
use resim_workloads::{SpecBenchmark, Workload};
use std::time::{Duration, Instant};

/// Enough records that detailed windows dominate neither the trace nor
/// the timer noise, small enough for CI-adjacent runtimes.
const INSTRUCTIONS: usize = 300_000;

/// The sampling grid: detail 1k of every other 10k-record interval
/// (5 % coverage, ~15 windows on the 300k-instruction traces).
fn plans() -> [(&'static str, SamplePlan); 2] {
    let base = SamplePlan::systematic(10_000, 1_000, 2);
    [
        ("functional", base),
        ("bounded-4k", base.with_warmup(WarmupMode::Bounded(4_000))),
    ]
}

struct FullRun {
    stats: SimStats,
    wall: Duration,
}

fn time_full(config: &EngineConfig, trace: &Trace) -> FullRun {
    let mut engine = Engine::new(config.clone()).expect("valid config");
    let t0 = Instant::now();
    let stats = engine.run(trace.source());
    FullRun {
        stats,
        wall: t0.elapsed(),
    }
}

fn time_sampled(
    config: &EngineConfig,
    trace: &Trace,
    plan: &SamplePlan,
) -> (SampledStats, Duration) {
    let t0 = Instant::now();
    let s = run_sampled(config, trace.source(), plan).expect("valid plan");
    (s, t0.elapsed())
}

fn rate(records: u64, wall: Duration) -> f64 {
    records as f64 / wall.as_secs_f64().max(1e-9)
}

fn main() {
    let config = EngineConfig::paper_4wide();
    let tracegen = TraceGenConfig::paper();

    outln!(
        "sampled-vs-full — paper_4wide, {INSTRUCTIONS} instructions/workload, plans at 5% coverage"
    );
    outln!();
    outln!(
        "| workload | plan | full IPC | sampled IPC (95% CI) | err % | in CI | wall speedup | rec-thpt speedup |"
    );
    outln!("|---|---|---:|---:|---:|---|---:|---:|");

    for benchmark in SpecBenchmark::ALL {
        let trace = generate_trace(
            Workload::spec(benchmark, DEFAULT_SEED),
            INSTRUCTIONS,
            &tracegen,
        );
        let full = time_full(&config, &trace);
        let full_rate = rate(trace.len() as u64, full.wall);

        for (plan_name, plan) in plans() {
            let (s, wall) = time_sampled(&config, &trace, &plan);
            let (lo, hi) = s.ci95();
            let err = 100.0 * s.relative_error(full.stats.ipc());
            let wall_speedup = full.wall.as_secs_f64() / wall.as_secs_f64().max(1e-9);
            let thpt_speedup = rate(s.records_total, wall) / full_rate;
            outln!(
                "| {} | {} | {:.4} | {:.4} [{:.4}, {:.4}] | {:.2} | {} | {:.1}x | {:.1}x |",
                benchmark.name(),
                plan_name,
                full.stats.ipc(),
                s.mean_ipc(),
                lo,
                hi,
                err,
                if s.ci95_contains(full.stats.ipc()) {
                    "yes"
                } else {
                    "no"
                },
                wall_speedup,
                thpt_speedup,
            );
        }
    }

    outln!();
    outln!(
        "coverage {:.1}% detailed; bounded plan skips via the codec fast path \
         (TraceSource::skip) and warms the last 4k records before each window",
        100.0 * plans()[0].1.coverage()
    );
}
