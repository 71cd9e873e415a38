//! Regenerates the "Engine throughput" tables in `EXPERIMENTS.md`.
//!
//! Prints two Markdown tables of committed-records-per-second:
//!
//! 1. frontend × pipeline organization (gzip, the paper's reference
//!    workload), and
//! 2. workload on the cheapest supply path (`slice`, optimized N+3
//!    organization) across all five SPEC profiles.
//!
//! Methodology matches `bench_guard`: every cell is **best-of-N**
//! wall-clock over full engine runs (a fresh engine per run, the trace
//! pre-generated and shared). Best-of-N reports the capability of the
//! code, not the mood of the machine — on a busy host the mean is
//! dominated by scheduling noise while the best run converges quickly.
//!
//! ```text
//! cargo run --release -p resim-bench --example throughput_table
//! RESIM_TABLE_BUDGET=200000 RESIM_TABLE_RUNS=9 cargo run --release \
//!     -p resim-bench --example throughput_table
//! ```

use resim_core::{Engine, EngineConfig, PipelineDescription};
use resim_trace::{save_trace_file, EncodedTrace, FileSource, Trace, TraceFileHeader, TraceSource};
use resim_tracegen::{generate_trace, TraceGenConfig};
use resim_workloads::{SpecBenchmark, Workload};
use std::time::Instant;

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn time_once<S: TraceSource>(config: &EngineConfig, src: S) -> f64 {
    let mut engine = Engine::new(config.clone()).expect("valid config");
    let start = Instant::now();
    let stats = engine.run(src);
    let secs = start.elapsed().as_secs_f64();
    assert!(stats.committed > 0);
    stats.committed as f64 / secs
}

/// Best-of-N for one supply thunk.
fn best_of<S: TraceSource, F: FnMut() -> S>(
    config: &EngineConfig,
    runs: usize,
    mut source: F,
) -> f64 {
    (0..runs).fold(0.0f64, |best, _| best.max(time_once(config, source())))
}

fn mrecs(rate: f64) -> String {
    format!("{:.2}", rate / 1e6)
}

fn main() {
    let budget = env_usize("RESIM_TABLE_BUDGET", 200_000);
    let runs = env_usize("RESIM_TABLE_RUNS", 7);
    println!(
        "Engine throughput, committed records/s (millions); budget {budget}, best of {runs}\n"
    );

    let gzip: Trace = generate_trace(
        Workload::spec(SpecBenchmark::Gzip, 2009),
        budget,
        &TraceGenConfig::paper(),
    );
    let encoded: EncodedTrace = gzip.encode();
    let header = TraceFileHeader::for_trace(&encoded, "gzip", 2009, 0)
        .with_correct_records(gzip.correct_path_len() as u64);
    let path = std::env::temp_dir().join(format!("resim-table-{}.trace", std::process::id()));
    save_trace_file(&path, &header, &encoded).expect("write trace");

    let orgs: [(&str, PipelineDescription); 3] = [
        ("N+3 (optimized)", PipelineDescription::optimized()),
        ("N+4 (improved)", PipelineDescription::improved()),
        ("2N+3 (simple)", PipelineDescription::simple()),
    ];

    println!("| frontend | organization | Mrec/s |");
    println!("|----------|--------------|--------|");
    for (org_name, desc) in &orgs {
        let config = EngineConfig { pipeline: desc.clone(), ..EngineConfig::paper_4wide() };
        for frontend in ["slice", "encoded", "file"] {
            let rate = match frontend {
                "slice" => best_of(&config, runs, || gzip.source()),
                "encoded" => best_of(&config, runs, || encoded.source()),
                _ => best_of(&config, runs, || FileSource::open(&path).expect("trace readable")),
            };
            println!("| {frontend} | {org_name} | {} |", mrecs(rate));
        }
    }

    println!();
    println!("| workload (slice, N+3) | Mrec/s |");
    println!("|-----------------------|--------|");
    let config = EngineConfig::paper_4wide();
    for bench in SpecBenchmark::ALL {
        let trace = generate_trace(
            Workload::spec(bench, 2009),
            budget,
            &TraceGenConfig::paper(),
        );
        let rate = best_of(&config, runs, || trace.source());
        println!("| {} | {} |", bench.name(), mrecs(rate));
    }
    let _ = std::fs::remove_file(&path);
}
