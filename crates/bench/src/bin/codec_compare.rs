//! Layout v1 vs v2 trace-density comparison over the Table 3 benchmark
//! set: average encoded **bits per instruction** for the original
//! byte-aligned Table-3 layout and for the delta/run-length layout 2,
//! plus the bandwidth this saves on the paper's CPU→FPGA trace link.
//!
//! The numbers feed the "Trace codec density" table in `EXPERIMENTS.md`.
//!
//! Usage: `codec_compare [instructions-per-benchmark]`.

use resim_bench::{outln, rule, DEFAULT_SEED};
use resim_tracegen::{generate_trace, TraceGenConfig};
use resim_workloads::{SpecBenchmark, Workload};

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(200_000);

    outln!("Trace codec density: layout v1 (Table 3) vs layout v2 (delta/RLE)");
    outln!("{n} instructions/benchmark, seed {DEFAULT_SEED}, paper tracegen.\n");
    outln!(
        "{:8} | {:>10} | {:>10} | {:>8} | {:>12}",
        "SPEC",
        "v1 b/inst",
        "v2 b/inst",
        "saving",
        "v2 wins"
    );
    outln!("{}", rule(60));

    let tg = TraceGenConfig::paper();
    let (mut s1, mut s2) = (0.0, 0.0);
    let mut wins = 0;
    for b in SpecBenchmark::ALL {
        let trace = generate_trace(Workload::spec(b, DEFAULT_SEED), n, &tg);
        let v1 = trace.stats().bits_per_instruction();
        let v2 = trace.encode_v2().stats().bits_per_instruction();
        s1 += v1;
        s2 += v2;
        let win = v2 < v1;
        wins += usize::from(win);
        outln!(
            "{:8} | {:>10.2} | {:>10.2} | {:>7.1}% | {:>12}",
            b.name(),
            v1,
            v2,
            100.0 * (1.0 - v2 / v1),
            if win { "yes" } else { "NO" },
        );
    }
    outln!("{}", rule(60));
    outln!(
        "{:8} | {:>10.2} | {:>10.2} | {:>7.1}% | {wins}/5 benchmarks",
        "Average",
        s1 / 5.0,
        s2 / 5.0,
        100.0 * (1.0 - s2 / s1),
    );
}
