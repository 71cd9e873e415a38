//! # resim-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! ReSim paper (Fytraki & Pnevmatikatos, DATE 2009). See `EXPERIMENTS.md`
//! at the repository root for the paper-vs-measured record.
//!
//! Binaries:
//!
//! | binary | regenerates |
//! |---|---|
//! | `table1` | Table 1 — simulation MIPS, both configurations, V4+V5 |
//! | `table2` | Table 2 — simulator comparison |
//! | `table3` | Table 3 — bits/instr, MIPS incl. wrong path, trace MB/s |
//! | `table4` | Table 4 — per-stage area on xc4vlx40 |
//! | `fig1`…`fig4` | Figure 1 block diagram, Figures 2–4 pipelines |
//! | `ablation` | §IV parallel-fetch ablation + pipeline/width sweeps |
//! | `bandwidth` | §V trace-link feasibility analysis |
//! | `sampling` | sampled-vs-full IPC error and speedup (`resim-sample`) |
//! | `throughput_table` | host throughput: frontends, workloads, recorder, components |
//! | `bench_guard` | CI gate: engine throughput per frontend vs `BENCH_BASELINE.json` |
//!
//! Every binary prints through [`outln!`], so a closed pipe ends it with
//! exit status 1 and a one-line message, not a panic.
//!
//! Both host-speed binaries time through [`timing`]: best-of-N rates
//! over one trace supplied as a slice, a v1 encoding and a file.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod timing;

use std::io::Write;

use resim_core::{Engine, EngineConfig, SimStats};
use resim_fpga::{FpgaDevice, SimulationSpeed, ThroughputModel};
use resim_sweep::{CellResult, Scenario};
use resim_trace::{Trace, TraceStats};
use resim_tracegen::{generate_trace, TraceGenConfig};
use resim_workloads::{SpecBenchmark, Workload};

/// `println!` for the report binaries, through [`write_stdout`]: a
/// failed write (a closed pipe, say) ends the process with exit status 1
/// and `cannot write output: <error>` on stderr, as `resim` does, rather
/// than a panic.
#[macro_export]
macro_rules! outln {
    () => {
        $crate::write_stdout(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        $crate::write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// Writes `args` to stdout and flushes; on failure, reports
/// `cannot write output: <error>` on stderr and exits with status 1.
pub fn write_stdout(args: std::fmt::Arguments<'_>) {
    let mut out = std::io::stdout().lock();
    if let Err(e) = out.write_fmt(args).and_then(|()| out.flush()) {
        let _ = writeln!(std::io::stderr(), "cannot write output: {e}");
        std::process::exit(1);
    }
}

/// Default instruction budget per benchmark run (correct-path records).
pub const DEFAULT_INSTRUCTIONS: usize = 1_000_000;

/// Default workload seed — fixed so every table is reproducible.
pub const DEFAULT_SEED: u64 = 2009;

/// The result of simulating one benchmark under one configuration.
#[derive(Debug, Clone)]
pub struct BenchmarkRun {
    /// Which SPECINT model ran.
    pub benchmark: SpecBenchmark,
    /// Engine statistics.
    pub stats: SimStats,
    /// Encoded-trace statistics (bits per instruction etc.).
    pub trace_stats: TraceStats,
}

impl BenchmarkRun {
    /// Simulated speed of this run on `device`.
    pub fn speed(&self, config: &EngineConfig, device: FpgaDevice) -> SimulationSpeed {
        ThroughputModel::new(device).speed(config, &self.stats, Some(&self.trace_stats))
    }
}

/// Generates the tagged trace for `benchmark` under `tracegen` and runs
/// it through an engine configured as `config`.
///
/// # Panics
///
/// Panics if `config` is structurally invalid.
pub fn run_spec(
    benchmark: SpecBenchmark,
    config: &EngineConfig,
    tracegen: &TraceGenConfig,
    instructions: usize,
    seed: u64,
) -> BenchmarkRun {
    let workload = Workload::spec(benchmark, seed);
    let trace = generate_trace(workload, instructions, tracegen);
    run_trace(benchmark, &trace, config)
}

/// Runs a pre-generated trace through an engine configured as `config`.
pub fn run_trace(benchmark: SpecBenchmark, trace: &Trace, config: &EngineConfig) -> BenchmarkRun {
    let mut engine = Engine::new(config.clone()).expect("valid benchmark configuration");
    let stats = engine.run(trace.source());
    BenchmarkRun {
        benchmark,
        stats,
        trace_stats: trace.stats(),
    }
}

/// The Table 1 (left) experiment configuration: 4-issue, two-level BP,
/// perfect memory, optimized N+3 pipeline.
pub fn table1_left() -> (EngineConfig, TraceGenConfig) {
    (EngineConfig::paper_4wide(), TraceGenConfig::paper())
}

/// The Table 1 (right) experiment configuration: 2-issue, perfect BP,
/// 32 KB L1 caches, improved N+4 pipeline.
pub fn table1_right() -> (EngineConfig, TraceGenConfig) {
    (
        EngineConfig::paper_2wide_cached(),
        TraceGenConfig::perfect(),
    )
}

/// Scenario name of the Table 1 left configuration.
pub const LEFT: &str = "4wide-2lev";

/// Scenario name of the Table 1 right configuration.
pub const RIGHT: &str = "2wide-perfect";

/// The Table 1 grid as `resim sweep` reads it: a TOML scenario in the
/// `docs/guide.md` schema. `table1` resolves this through
/// [`Scenario::from_table`] — the same declarative path as the CLI —
/// rather than a bespoke builder chain; the budget placeholder is
/// re-set at runtime from the binary's argument.
pub const TABLE1_SCENARIO_TOML: &str = r#"
[sweep]
workloads = ["gzip", "bzip2", "parser", "vortex", "vpr"]
budgets = [1000000] # placeholder; table1 re-budgets to its CLI argument
seeds = [2009]

# Left portion: 4-issue, two-level BP, perfect memory, optimized N+3.
[[sweep.config]]
name = "4wide-2lev"
[sweep.config.engine]
preset = "paper-4wide"

# Right portion: 2-issue, perfect BP, 32 KB L1s, improved N+4. The
# generator predictor follows the engine's (perfect), so the trace is
# untagged — exactly TraceGenConfig::perfect().
[[sweep.config]]
name = "2wide-perfect"
[sweep.config.engine]
preset = "paper-2wide-cached"
"#;

/// The Table 1 sweep grid: both paper configurations over all five
/// SPECINT models at `n` instructions, seeded with [`DEFAULT_SEED`] —
/// resolved from [`TABLE1_SCENARIO_TOML`].
pub fn table1_scenario(n: usize) -> Scenario {
    let doc = resim_toml::parse(TABLE1_SCENARIO_TOML).expect("embedded scenario parses");
    let sweep = doc
        .opt_table("sweep")
        .expect("sweep is a table")
        .expect("[sweep] section present");
    Scenario::from_table(sweep, None)
        .expect("embedded scenario is valid")
        .budgets([n])
}

/// The Table 1 *left-only* grid (the Table 3 / bandwidth experiments).
pub fn table1_left_scenario(n: usize) -> Scenario {
    let (cfg_l, tg_l) = table1_left();
    Scenario::new()
        .config(LEFT, cfg_l, tg_l)
        .all_spec_workloads()
        .budgets([n])
        .seeds([DEFAULT_SEED])
}

/// Simulated speed of one sweep cell on `device`.
pub fn cell_speed(cell: &CellResult, config: &EngineConfig, device: FpgaDevice) -> SimulationSpeed {
    ThroughputModel::new(device).speed(config, &cell.stats, Some(&cell.trace_stats))
}

/// Formats one numeric cell at `prec` decimals, right-aligned to `w`.
pub fn cell(v: f64, w: usize, prec: usize) -> String {
    format!("{v:>w$.prec$}")
}

/// Prints a horizontal rule of `n` dashes.
pub fn rule(n: usize) -> String {
    "-".repeat(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_spec_commits_requested_instructions() {
        let (cfg, tg) = table1_left();
        let r = run_spec(SpecBenchmark::Gzip, &cfg, &tg, 20_000, 1);
        assert_eq!(r.stats.committed, 20_000);
        assert!(r.trace_stats.bits_per_instruction() > 20.0);
        let sp = r.speed(&cfg, FpgaDevice::Virtex4Lx40);
        assert!(sp.mips > 0.0);
    }

    #[test]
    fn table_scenarios_are_valid_grids() {
        let s = table1_scenario(1_000);
        assert_eq!(s.len(), 10, "2 configs x 5 benchmarks");
        s.validate().expect("Table 1 grid validates");
        // The TOML-resolved grid must be exactly the programmatic one.
        let (cfg_l, tg_l) = table1_left();
        let (cfg_r, tg_r) = table1_right();
        assert_eq!(s.configs()[0].name, LEFT);
        assert_eq!(s.configs()[0].engine, cfg_l);
        assert_eq!(s.configs()[0].tracegen, tg_l);
        assert_eq!(s.configs()[1].name, RIGHT);
        assert_eq!(s.configs()[1].engine, cfg_r);
        assert_eq!(s.configs()[1].tracegen, tg_r);
        assert_eq!(s.budget_values(), [1_000]);
        assert_eq!(s.seed_values(), [DEFAULT_SEED]);
        let s = table1_left_scenario(1_000);
        assert_eq!(s.len(), 5);
        s.validate().expect("Table 3 grid validates");
    }

    #[test]
    fn sweep_cell_speed_matches_run_spec() {
        use resim_sweep::SweepRunner;
        let n = 10_000;
        let (cfg, tg) = table1_left();
        let direct = run_spec(SpecBenchmark::Gzip, &cfg, &tg, n, DEFAULT_SEED);
        let report = SweepRunner::new(2)
            .run(&table1_left_scenario(n))
            .expect("valid grid");
        let cell = report.get(LEFT, "gzip").expect("gzip cell ran");
        assert_eq!(cell.stats, direct.stats, "sweep and direct runs must agree");
        let a = cell_speed(cell, &cfg, FpgaDevice::Virtex4Lx40);
        let b = direct.speed(&cfg, FpgaDevice::Virtex4Lx40);
        assert_eq!(a.mips, b.mips);
    }
}
