//! Regenerates the host-throughput tables in `EXPERIMENTS.md`.
//!
//! Prints six Markdown tables, every cell a best-of-9 rate over
//! 200 000 correct-path records (seed 2009):
//!
//! 1. frontend (slice, file) × configuration on gzip: the three pipeline
//!    organizations of the Table 1 (left) machine, plus the Table 1
//!    (right) machine on its perfect-predictor trace;
//! 2. workload × frontend: all five SPEC profiles on the Table 1 (left)
//!    machine;
//! 3. RB size: gzip on the slice frontend, the Table 1 (left) machine at
//!    16, 64 and 256 RB entries — the per-window cost of wakeup and
//!    select;
//! 4. LSQ size: gzip and parser on the slice frontend, the Table 1
//!    (left) machine with a 64-entry RB at 8 and 32 LSQ entries, on
//!    perfect memory and split 32 KB L1 caches — the per-load cost of
//!    memory disambiguation;
//! 5. observation overhead: an engine without and with a
//!    `MetricsRecorder` attached (`Engine::observed`), asserting the two
//!    runs' `SimStats` are bit-identical;
//! 6. components: trace generation, v1 and v2 encode and decode (each
//!    decode through `EncodedTrace::decode`, the one reader), predictor,
//!    L1 cache and workload generation.
//!
//! Engine cells are committed records per second over full runs, a
//! fresh engine per run. Run with
//! `cargo run --release -p resim-bench --bin throughput_table`.

use resim_bench::outln;
use resim_bench::timing::{best_rate, Frontend, SuppliedTrace};
use resim_bpred::{BranchPredictor, PredictorConfig};
use resim_core::{Engine, EngineConfig, MetricsRecorder, PipelineDescription, SimStats};
use resim_mem::{Cache, CacheConfig, MemorySystemConfig};
use resim_trace::BranchKind;
use resim_tracegen::{generate_trace, TraceGenConfig};
use resim_workloads::{SpecBenchmark, Workload};
use std::hint::black_box;

const RECORDS: usize = 200_000;
const RUNS: usize = 9;

fn mrate(rate: f64) -> String {
    format!("{:.2}", rate / 1e6)
}

fn frontend_by_configuration(gzip: &SuppliedTrace) {
    outln!("| frontend | configuration | Mrec/s |");
    outln!("|----------|---------------|--------|");
    for (name, pipeline) in [
        ("N+3 (optimized)", PipelineDescription::optimized()),
        ("N+4 (improved)", PipelineDescription::improved()),
        ("2N+3 (simple)", PipelineDescription::simple()),
    ] {
        let config = EngineConfig {
            pipeline,
            ..EngineConfig::paper_4wide()
        };
        for frontend in Frontend::ALL {
            let rate = gzip.engine_rate(&config, frontend, RUNS);
            outln!("| {} | {name} | {} |", frontend.name(), mrate(rate));
        }
    }
    let (config, tracegen) = resim_bench::table1_right();
    let right = SuppliedTrace::generate(SpecBenchmark::Gzip, RECORDS, &tracegen);
    for frontend in Frontend::ALL {
        let rate = right.engine_rate(&config, frontend, RUNS);
        outln!(
            "| {} | Table 1 right (2-wide, N+4, L1) | {} |",
            frontend.name(),
            mrate(rate)
        );
    }
}

fn workload_by_frontend() {
    let config = EngineConfig::paper_4wide();
    outln!("| workload | slice | file |");
    outln!("|----------|-------|------|");
    for bench in SpecBenchmark::ALL {
        let supplied = SuppliedTrace::generate(bench, RECORDS, &TraceGenConfig::paper());
        let rates: Vec<String> = Frontend::ALL
            .into_iter()
            .map(|frontend| mrate(supplied.engine_rate(&config, frontend, RUNS)))
            .collect();
        outln!("| {} | {} |", bench.name(), rates.join(" | "));
    }
}

fn rb_sizes(gzip: &SuppliedTrace) {
    outln!("| RB entries (gzip, slice, paper-4wide) | Mrec/s |");
    outln!("|---------------------------------------|--------|");
    for rb_size in [16, 64, 256] {
        let config = EngineConfig {
            rb_size,
            ..EngineConfig::paper_4wide()
        };
        let rate = gzip.engine_rate(&config, Frontend::Slice, RUNS);
        outln!("| {rb_size} | {} |", mrate(rate));
    }
}

fn lsq_sizes(gzip: &SuppliedTrace) {
    let parser = SuppliedTrace::generate(SpecBenchmark::Parser, RECORDS, &TraceGenConfig::paper());
    outln!("| workload (slice, paper-4wide, RB 64) | LSQ entries | memory | Mrec/s |");
    outln!("|--------------------------------------|-------------|--------|--------|");
    for (name, supplied) in [("gzip", gzip), ("parser", &parser)] {
        for lsq_size in [8, 32] {
            for (memory_name, memory) in [
                ("perfect", MemorySystemConfig::perfect()),
                ("l1_32k", MemorySystemConfig::l1_32k()),
            ] {
                let config = EngineConfig {
                    rb_size: 64,
                    lsq_size,
                    memory,
                    ..EngineConfig::paper_4wide()
                };
                let rate = supplied.engine_rate(&config, Frontend::Slice, RUNS);
                outln!("| {name} | {lsq_size} | {memory_name} | {} |", mrate(rate));
            }
        }
    }
}

fn observation_overhead(gzip: &SuppliedTrace) {
    let config = EngineConfig::paper_4wide();
    let mut off_stats: Option<SimStats> = None;
    let off = best_rate(RUNS, || {
        let stats = Engine::new(config.clone())
            .expect("paper config is valid")
            .run(gzip.trace.source());
        off_stats.insert(stats).committed
    });
    let mut on_stats: Option<SimStats> = None;
    let on = best_rate(RUNS, || {
        let stats = Engine::observed(config.clone(), MetricsRecorder::new())
            .expect("paper config is valid")
            .run(gzip.trace.source());
        on_stats.insert(stats).committed
    });
    // The recorder observes; it must never feed back into the run.
    assert_eq!(
        off_stats, on_stats,
        "observation changed the simulated statistics"
    );
    outln!("| observation (slice, N+3) | Mrec/s | vs. off |");
    outln!("|--------------------------|--------|---------|");
    outln!("| off | {} | — |", mrate(off));
    outln!(
        "| on (`MetricsRecorder`) | {} | {:+.0} % |",
        mrate(on),
        100.0 * (on / off - 1.0)
    );
}

fn components(gzip: &SuppliedTrace) {
    let n = RECORDS as u64;
    let v2 = gzip.trace.encode_v2();
    // (component, what it counts, best rate)
    let rows: [(&str, &str, f64); 8] = [
        (
            "trace generation (gzip)",
            "records",
            best_rate(RUNS, || {
                let workload = Workload::spec(SpecBenchmark::Gzip, resim_bench::DEFAULT_SEED);
                generate_trace(workload, RECORDS, &TraceGenConfig::paper()).len() as u64
            }),
        ),
        (
            "v1 encode",
            "records",
            best_rate(RUNS, || black_box(gzip.trace.encode()).len() as u64),
        ),
        (
            "v1 decode",
            "records",
            best_rate(RUNS, || decoded_len(&gzip.encoded)),
        ),
        (
            "v2 encode",
            "records",
            best_rate(RUNS, || black_box(gzip.trace.encode_v2()).len() as u64),
        ),
        ("v2 decode", "records", best_rate(RUNS, || decoded_len(&v2))),
        (
            "two-level predict+resolve",
            "branches",
            best_rate(RUNS, || {
                let mut bp = BranchPredictor::new(PredictorConfig::paper_two_level());
                for i in 0..n {
                    let pc = 0x1000 + ((i * 13) % 512) as u32 * 4;
                    let taken = (i / 7) % 3 != 0;
                    bp.predict(pc, BranchKind::Cond, taken, pc + 64);
                    bp.resolve(pc, BranchKind::Cond, taken, pc + 64);
                }
                black_box(bp.stats());
                n
            }),
        ),
        (
            "L1 access (32 KB, 8-way)",
            "accesses",
            best_rate(RUNS, || {
                let mut cache = Cache::new(CacheConfig::l1_32k());
                for i in 0..n {
                    cache.access(((i * 97) % 65_536) as u32, i % 5 == 0);
                }
                black_box(cache.stats());
                n
            }),
        ),
        (
            "workload generation (parser)",
            "records",
            best_rate(RUNS, || {
                let mut workload = Workload::spec(SpecBenchmark::Parser, resim_bench::DEFAULT_SEED);
                black_box(workload.generate(RECORDS)).len() as u64
            }),
        ),
    ];
    outln!("| component | counts | M/s |");
    outln!("|-----------|--------|-----|");
    for (name, counts, rate) in rows {
        outln!("| {name} | {counts} | {} |", mrate(rate));
    }
}

fn decoded_len(encoded: &resim_trace::EncodedTrace) -> u64 {
    encoded.decode().expect("well-formed encoding").len() as u64
}

fn main() {
    outln!("Host throughput, millions per second; {RECORDS} records, best of {RUNS}\n");
    let gzip = SuppliedTrace::generate(SpecBenchmark::Gzip, RECORDS, &TraceGenConfig::paper());
    frontend_by_configuration(&gzip);
    outln!();
    workload_by_frontend();
    outln!();
    rb_sizes(&gzip);
    outln!();
    lsq_sizes(&gzip);
    outln!();
    observation_overhead(&gzip);
    outln!();
    components(&gzip);
}
