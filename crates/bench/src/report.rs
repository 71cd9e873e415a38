//! The paper report: every table, figure and analysis of the ReSim paper
//! that this reproduction regenerates, as one Markdown document. The
//! `paper_report` binary writes it, `docs/paper_report.md` is the
//! committed copy, and CI fails when the two differ.
//!
//! Where the paper publishes a number, the report sets the paper's value
//! ([`comparison`]), ours and the delta side by side. Every number is a
//! pure function of the code: the simulated sections read one sweep on
//! one [`SweepRunner`], so each trace is generated and each machine
//! simulated once, and no host-timed figure (wall time, thread count,
//! speedup) appears.

use std::io::{self, Write};

use resim_core::{block_diagram, EngineConfig, PipelineDescription};
use resim_fpga::comparison::{self, PaperBenchmark, PAPER_BENCHMARKS};
use resim_fpga::{
    effective_mips, parallel_fetch_ablation, AreaModel, FpgaDevice, SimulationSpeed,
    ThroughputModel, TraceLink, TABLE4, TABLE4_LUTS, TABLE4_SLICES,
};
use resim_sample::{SamplePlan, WarmupMode};
use resim_sweep::{CellMode, CellResult, Scenario, SweepReport, SweepRunner};
use resim_tracegen::{TraceGenConfig, TraceKey};

use crate::{table1_left, table1_right, DEFAULT_SEED};

/// Correct-path instructions per benchmark in every simulated section
/// but the 5 %-coverage sampling table.
const BUDGET: usize = 1_000_000;

/// Correct-path instructions per benchmark of the 5 %-coverage sampling
/// table.
const SAMPLING_BUDGET: usize = 300_000;

/// Scenario name of the Table 1 left configuration.
const LEFT: &str = "4wide-2lev";

/// Scenario name of the Table 1 right configuration.
const RIGHT: &str = "2wide-perfect";

/// Grid name of the Table 1 left machine with a 64-entry RB, the machine
/// of the replay-plan sampling rows.
const RB64: &str = "rb64";

/// Simulated speed of one sweep cell on `device`.
fn cell_speed(cell: &CellResult, config: &EngineConfig, device: FpgaDevice) -> SimulationSpeed {
    ThroughputModel::new(device).speed(config, &cell.stats, Some(&cell.trace_stats))
}

/// Ablation 2: the Table 1 left machine under the paper's three
/// pipeline organizations.
fn organizations() -> Vec<(String, EngineConfig)> {
    EngineConfig::paper_4wide()
        .grid()
        .pipelines(PipelineDescription::builtins())
        .build()
}

/// Ablation 3: the Table 1 left machine at simulated widths 1–8.
fn widths() -> Vec<(String, EngineConfig)> {
    EngineConfig::paper_4wide()
        .grid()
        .widths([1, 2, 4, 8])
        .build()
}

/// The 5 %-coverage plans: detail 1 k of every other 10 k-record
/// interval (about 15 windows at [`SAMPLING_BUDGET`]), warming every
/// skipped record or only the last 4 k before each window.
fn coverage_plans() -> [SamplePlan; 2] {
    let base = SamplePlan::systematic(10_000, 1_000, 2);
    [base, base.with_warmup(WarmupMode::Bounded(4_000))]
}

/// The plan e2ebench `replay` samples with: a 500-record window every
/// 10 000 records, functional warming between them.
fn replay_plan() -> SamplePlan {
    SamplePlan::systematic(10_000, 500, 1)
}

/// The one grid every simulated section reads, and the positions of the
/// cells the report runs. The grid is the cross product of its axes;
/// only these cells of it run:
/// - at [`BUDGET`], in full: both Table 1 machines and [`RB64`] on every
///   model, and every ablation machine on gzip;
/// - at [`BUDGET`], sampled: [`RB64`] under [`replay_plan`];
/// - at [`SAMPLING_BUDGET`]: the Table 1 left machine, in full and under
///   the [`coverage_plans`].
///
/// The ablation's optimized organization and RB 64 machine share their
/// trace, and the former its run, with the Table 1 left cells.
fn report_grid() -> (Scenario, Vec<usize>) {
    let (left, tracegen) = table1_left();
    let (right, right_tracegen) = table1_right();
    let replay = CellMode::Sampled(replay_plan());
    let modes = [CellMode::Full, replay]
        .into_iter()
        .chain(coverage_plans().map(CellMode::Sampled));
    let scenario = Scenario::new()
        .config(LEFT, left.clone(), tracegen)
        .config(RIGHT, right, right_tracegen)
        .config_grid(organizations(), tracegen)
        .config_grid(widths(), tracegen)
        .config_grid(left.grid().rb_sizes([64]).build(), tracegen)
        .all_spec_workloads()
        .budgets([BUDGET, SAMPLING_BUDGET])
        .seeds([DEFAULT_SEED])
        .modes(modes);
    let all_modes = scenario.mode_values();
    let indices = scenario
        .cells()
        .iter()
        .filter(|c| {
            let config = scenario.configs()[c.config].name.as_str();
            let gzip = scenario.workloads()[c.workload].name == "gzip";
            match (c.budget, all_modes[c.mode]) {
                (BUDGET, CellMode::Full) => [LEFT, RIGHT, RB64].contains(&config) || gzip,
                (BUDGET, mode) => config == RB64 && mode == replay,
                (_, mode) => config == LEFT && mode != replay,
            }
        })
        .map(|c| c.index)
        .collect();
    (scenario, indices)
}

/// Every simulated cell the report reads, from one sweep.
struct Runs {
    report: SweepReport,
    runner: SweepRunner,
}

impl Runs {
    fn simulate() -> Self {
        let (scenario, indices) = report_grid();
        let runner = SweepRunner::new(0);
        let report = runner
            .run_subset(&scenario, &indices, |_| {})
            .expect("the report grid is valid");
        Self { report, runner }
    }

    fn cell(&self, config: &str, workload: &str, budget: usize, mode: CellMode) -> &CellResult {
        let mode = mode.name();
        self.report
            .cells
            .iter()
            .find(|c| {
                c.config == config && c.workload == workload && c.budget == budget && c.mode == mode
            })
            .expect("the report grid ran this cell")
    }

    /// The full-detail cell of `config` on `workload` at [`BUDGET`].
    fn full(&self, config: &str, workload: &str) -> &CellResult {
        self.cell(config, workload, BUDGET, CellMode::Full)
    }
}

/// `v` at `prec` decimals with a sign; a value that rounds to zero
/// prints as `+0.0`, never `-0.0`.
fn signed(v: f64, prec: usize) -> String {
    let zero = v.abs() < 0.5 * 10f64.powi(-(prec as i32));
    format!("{:+.prec$}", if zero { 0.0 } else { v })
}

/// `ours` relative to `paper`, in percent with a sign.
fn delta(ours: f64, paper: f64) -> String {
    format!("{} %", signed(100.0 * (ours / paper - 1.0), 1))
}

/// `paper | ours | delta` table cells at `prec` decimals.
fn versus(paper: f64, ours: f64, prec: usize) -> String {
    format!("{paper:.prec$} | {ours:.prec$} | {}", delta(ours, paper))
}

fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let values: Vec<f64> = values.into_iter().collect();
    values.iter().sum::<f64>() / values.len() as f64
}

/// Writes the whole report to `out`. The title goes out before the
/// sweep runs, so a closed pipe is found at once.
///
/// # Errors
///
/// The first failed write.
pub fn write_report(out: &mut dyn Write) -> io::Result<()> {
    writeln!(
        out,
        "# ReSim paper report

The tables, figures and analyses of *ReSim, a Trace-Driven, Reconfigurable
ILP Processor Simulator* (Fytraki & Pnevmatikatos, DATE 2009), as this
repository regenerates them. `cargo run --release -p resim-bench --bin
paper_report` writes this file, and CI fails when the two differ. Every
number is a pure function of the code; no host-timed figure appears.

Simulated sections run {BUDGET} correct-path instructions per benchmark,
workload seed {DEFAULT_SEED}, unless they say otherwise. Where the paper
publishes a value, a table gives the paper's, ours, and Δ: ours relative
to the paper's.
"
    )?;
    let runs = Runs::simulate();
    let v5 = table1(out, &runs)?;
    table2(out, v5)?;
    table3(out, &runs)?;
    table4(out)?;
    figures(out)?;
    ablations(out, &runs)?;
    links(out, &runs)?;
    calibration(out, &runs)?;
    codec(out, &runs)?;
    sampling(out, &runs)
}

/// One comparison row: `(paper, ours)` pairs, then single-valued cells.
type Row = (Vec<(f64, f64)>, Vec<f64>);

/// Writes a per-benchmark comparison under `head`: a row per benchmark
/// holding a `paper | ours | Δ` group for each pair that `row` gives,
/// then its single-valued cells, all at `prec` decimals, and an Average
/// row of every column. Returns the pairs' averages.
fn per_benchmark(
    out: &mut dyn Write,
    head: &str,
    prec: usize,
    row: impl Fn(&PaperBenchmark) -> Row,
) -> io::Result<Vec<(f64, f64)>> {
    let rows: Vec<(&str, Row)> = PAPER_BENCHMARKS.iter().map(|b| (b.name, row(b))).collect();
    let mean_of = |cell: &dyn Fn(&Row) -> f64| mean(rows.iter().map(|(_, row)| cell(row)));
    let (pairs, singles) = (rows[0].1 .0.len(), rows[0].1 .1.len());
    let average = (
        "Average",
        (
            (0..pairs)
                .map(|i| (mean_of(&|r| r.0[i].0), mean_of(&|r| r.0[i].1)))
                .collect(),
            (0..singles).map(|i| mean_of(&|r| r.1[i])).collect(),
        ),
    );
    writeln!(out, "{head}")?;
    for (name, (pairs, singles)) in rows.iter().chain([&average]) {
        let groups = pairs.iter().map(|&(paper, ours)| versus(paper, ours, prec));
        let cells: Vec<String> = groups
            .chain(singles.iter().map(|v| format!("{v:.prec$}")))
            .collect();
        writeln!(out, "| {name} | {} |", cells.join(" | "))?;
    }
    writeln!(out)?;
    Ok(average.1 .0)
}

/// Table 1, whose Virtex-5 averages (paper, ours) of the left and the
/// right machine it returns for Table 2.
fn table1(out: &mut dyn Write, runs: &Runs) -> io::Result<[(f64, f64); 2]> {
    let mips = |name: &str, config: &EngineConfig, b: &PaperBenchmark, paper: [f64; 2]| {
        let ours = FpgaDevice::PAPER.map(|d| cell_speed(runs.full(name, b.name), config, d).mips);
        vec![(paper[0], ours[0]), (paper[1], ours[1])]
    };
    let (left, right) = (table1_left().0, table1_right().0);
    let head = "| SPEC | V4 paper | V4 ours | Δ | V5 paper | V5 ours | Δ |";
    let rule = "|---|---:|---:|---:|---:|---:|---:|";
    writeln!(
        out,
        "## Table 1: simulation performance (MIPS)

Left: 4-issue, two-level BP, perfect memory, optimized N+3 pipeline
(7 minor cycles per major cycle).
"
    )?;
    let l = per_benchmark(out, &format!("{head}\n{rule}"), 2, |b| {
        (mips(LEFT, &left, b, b.left_mips), vec![])
    })?;
    writeln!(
        out,
        "Right: 2-issue, perfect BP, 32 KB 8-way 64 B L1 I+D, improved N+4
pipeline (6 minor cycles), beside FAST's Muops/s as the paper reports
them.
"
    )?;
    let r = per_benchmark(
        out,
        &format!("{head} FAST Muops/s |\n{rule}---:|"),
        2,
        |b| (mips(RIGHT, &right, b, b.right_mips), vec![b.fast_muops]),
    )?;
    let fast = mean(PAPER_BENCHMARKS.iter().map(|b| b.fast_muops));
    writeln!(
        out,
        "ReSim (2-issue, V4) over FAST: paper {:.2}×, ours {:.2}×.\n",
        r[0].0 / fast,
        r[0].1 / fast
    )?;
    Ok([l[1], r[1]])
}

/// Table 2, given the Virtex-5 averages of the Table 1 machines.
fn table2(out: &mut dyn Write, [left, right]: [(f64, f64); 2]) -> io::Result<()> {
    writeln!(
        out,
        "## Table 2: architectural simulator performance

| simulator (ISA) | MIPS paper | MIPS ours | Δ | source |
|---|---:|---:|---:|---|"
    )?;
    let literature = comparison::literature_rows();
    for row in &literature {
        writeln!(
            out,
            "| {} ({}) | {:.2} | | | {} |",
            row.name, row.isa, row.speed_mips, row.provenance
        )?;
    }
    writeln!(
        out,
        "| ReSim (PISA, 2-wide, perfect BP, V5) | {} | computed |
| ReSim (PISA, 4-wide, 2-lev BP, V5) | {} | computed |
",
        versus(right.0, right.1, 2),
        versus(left.0, left.1, 2)
    )?;
    for (name, prec) in [("A-Ports", 1), ("sim-outorder", 0)] {
        let row = literature.iter().find(|r| r.name == name);
        let m = row.expect("a literature row").speed_mips;
        writeln!(
            out,
            "ReSim (4-wide, V5) over {name} ({m:.2} MIPS): paper {:.prec$}×, ours {:.prec$}×.",
            left.0 / m,
            left.1 / m
        )?;
    }
    writeln!(
        out,
        "The paper reports \"more than a factor of 5\" over FAST and A-Ports.\n"
    )
}

fn table3(out: &mut dyn Write, runs: &Runs) -> io::Result<()> {
    let config = table1_left().0;
    writeln!(
        out,
        "## Table 3: throughput statistics

4-issue, two-level BP, perfect memory, Virtex-4. MIPS count wrong-path
instructions too; MB/s is the trace bandwidth they demand.
"
    )?;
    let head = "| SPEC | bits/instr paper | ours | Δ | MIPS paper | ours | Δ | MB/s paper | ours | Δ | wrong path % |
|---|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|";
    let avg = per_benchmark(out, head, 2, |b| {
        let cell = runs.full(LEFT, b.name);
        let sp = cell_speed(cell, &config, FpgaDevice::Virtex4Lx40);
        let pairs = vec![
            (
                b.bits_per_instr,
                sp.bits_per_instruction.expect("trace stats supplied"),
            ),
            (b.mips_with_wrong_path, sp.mips_including_wrong_path),
            (
                b.trace_mbytes_per_sec,
                sp.trace_mbytes_per_sec.expect("trace stats supplied"),
            ),
        ];
        (pairs, vec![100.0 * cell.stats.wrong_path_fraction()])
    })?;
    let mbytes = avg[2];
    writeln!(
        out,
        "Average trace demand: {:.2} Gb/s (paper: ~{:.1} Gb/s). §V below gives the
MIPS each link delivers.
",
        mbytes.1 * 8.0 / 1000.0,
        mbytes.0 * 8.0 / 1000.0,
    )
}

fn table4(out: &mut dyn Write) -> io::Result<()> {
    let model = AreaModel::new();
    let est = model.estimate(&AreaModel::calibration_config());
    writeln!(
        out,
        "## Table 4: area cost on Virtex-4 (xc4vlx40)

The 4-wide reference design. Δ is in percentage points of the total.

| structure | slices % paper | ours | Δ | slices | LUTs | BRAMs |
|---|---:|---:|---:|---:|---:|---:|"
    )?;
    for (s, &(name, paper, _, _)) in est.stages().iter().zip(&TABLE4) {
        assert_eq!(s.name, name, "Table 4 order");
        let ours = 100.0 * s.slices / est.total_slices();
        writeln!(
            out,
            "| {name} | {paper:.1} | {ours:.1} | {} | {:.0} | {:.0} | {} |",
            signed(ours - paper, 1),
            s.slices,
            s.luts,
            s.brams
        )?;
    }
    let brams: u64 = TABLE4.iter().map(|s| s.3).sum();
    writeln!(
        out,
        "| total, paper | | | | {TABLE4_SLICES:.0} | {TABLE4_LUTS:.0} | {brams} |
| total, ours | | | | {:.0} | {:.0} | {} |
",
        est.total_slices(),
        est.total_luts(),
        est.total_brams(),
    )?;
    let no_cache = model.estimate(&EngineConfig::paper_4wide());
    writeln!(
        out,
        "FAST 4-wide on Virtex-4 takes {} slices and {} BRAMs: {:.1}× and {:.0}×
ReSim's (paper: 2.4× and 24×).

An engine-only (perfect-memory) instance takes {:.0} slices; an xc4vlx40
fits {} of them.
",
        comparison::FAST_AREA_SLICES,
        comparison::FAST_AREA_BRAMS,
        comparison::FAST_AREA_SLICES / est.total_slices(),
        comparison::FAST_AREA_BRAMS as f64 / est.total_brams() as f64,
        no_cache.total_slices(),
        no_cache.instances_on(FpgaDevice::Virtex4Lx40)
    )
}

fn figures(out: &mut dyn Write) -> io::Result<()> {
    writeln!(
        out,
        "## Figure 1: block diagram

```
{}

{}
```
",
        block_diagram(&EngineConfig::paper_4wide()).trim_end(),
        block_diagram(&EngineConfig::paper_2wide_cached()).trim_end()
    )?;
    let figures = [
        (
            2,
            PipelineDescription::simple(),
            "Writeback and Lsq_refresh minor cycles precede Issue (paper §IV.A);
DPL and CA stand for Decouple and Cache Access.",
        ),
        (
            3,
            PipelineDescription::improved(),
            "Writeback is scheduled one cycle early (pipelined control, paper §IV.B);
the cache access precedes writeback; bookkeeping fills the last minor cycle.",
        ),
        (
            4,
            PipelineDescription::optimized(),
            "The first Issue slot considers no loads, so it needs no cache access and
can share its minor cycle with Lsq_refresh (paper §IV.B).",
        ),
    ];
    for (n, pipeline, note) in figures {
        let schedule = pipeline.schedule(4).expect("a 4-wide schedule");
        writeln!(
            out,
            "## Figure {n}: {} pipeline, 4-wide\n\n```\n{}\n```\n\n{note}\n",
            pipeline.name(),
            schedule.render().trim_end()
        )?;
    }
    Ok(())
}

fn ablations(out: &mut dyn Write, runs: &Runs) -> io::Result<()> {
    writeln!(
        out,
        "## §IV ablations

### 1. Parallel vs serial fetch

Per-area throughput: a parallel front end simulates one cycle per engine
cycle at its frequency and area; the serial one needs N+3 minor cycles.
The paper's measured point: 4-wide, 4× the area and 22 % slower.

| width | area ratio | freq ratio | parallel | serial |
|---:|---:|---:|---:|---:|"
    )?;
    for w in [1usize, 2, 4, 8] {
        let a = parallel_fetch_ablation(w);
        writeln!(
            out,
            "| {w} | {:.1} | {:.2} | {:.3} | {:.3} |",
            a.area_ratio,
            a.freq_ratio,
            a.freq_ratio / a.area_ratio,
            1.0 / (w as f64 + 3.0)
        )?;
    }
    let machines = "| width | pipeline | minor/major | sim cycles | IPC | V4 MIPS |
|---:|---|---:|---:|---:|---:|";
    writeln!(
        out,
        "
### 2. Pipeline organizations

gzip, 4-wide, Virtex-4.

{machines}"
    )?;
    let cycles = gzip_rows(out, runs, organizations())?;
    let same = if cycles.windows(2).all(|w| w[0] == w[1]) {
        "yes"
    } else {
        "no"
    };
    writeln!(
        out,
        "
Simulated cycle counts identical across organizations: {same}.

### 3. Simulated width

gzip, perfect memory, Virtex-4. Wider processors raise IPC sub-linearly
but pay more minor cycles per simulated cycle.

{machines}"
    )?;
    gzip_rows(out, runs, widths())?;
    writeln!(out)
}

/// One ablation row per machine, run on gzip. Returns the simulated
/// cycle counts.
fn gzip_rows(
    out: &mut dyn Write,
    runs: &Runs,
    machines: Vec<(String, EngineConfig)>,
) -> io::Result<Vec<u64>> {
    let mut cycles = Vec::new();
    for (name, config) in machines {
        let cell = runs.full(&name, "gzip");
        writeln!(
            out,
            "| {} | {} | {} | {} | {:.3} | {:.2} |",
            config.width,
            config.pipeline.name(),
            config.minor_cycles_per_major(),
            cell.stats.cycles,
            cell.stats.ipc(),
            cell_speed(cell, &config, FpgaDevice::Virtex4Lx40).mips
        )?;
        cycles.push(cell.stats.cycles);
    }
    Ok(cycles)
}

fn links(out: &mut dyn Write, runs: &Runs) -> io::Result<()> {
    let config = table1_left().0;
    writeln!(
        out,
        "## §V trace-link feasibility

The Table 3 machine: the MIPS (wrong path included) and trace bandwidth
each benchmark demands, and the MIPS each link delivers. The Average
row is a benchmark of average demand and density. The ~1.1 Gb/s demand
exceeds Gigabit Ethernet; tightly coupled CPU–FPGA buses sustain it.
"
    )?;
    let names = TraceLink::ALL.map(|l| l.to_string());
    for device in FpgaDevice::PAPER {
        writeln!(
            out,
            "### {device}\n\n| SPEC | demand MIPS | Gb/s | {} |\n|---|---:|---:|{}",
            names.join(" | "),
            "---:|".repeat(names.len())
        )?;
        let demands: Vec<(&str, f64, f64)> = PAPER_BENCHMARKS
            .iter()
            .map(|b| {
                let sp = cell_speed(runs.full(LEFT, b.name), &config, device);
                let bits = sp.bits_per_instruction.expect("trace stats supplied");
                (b.name, sp.mips_including_wrong_path, bits)
            })
            .collect();
        let average = (
            "Average",
            mean(demands.iter().map(|d| d.1)),
            mean(demands.iter().map(|d| d.2)),
        );
        for (name, demand, bits) in demands.into_iter().chain([average]) {
            let delivered =
                TraceLink::ALL.map(|l| format!("{:.2}", effective_mips(demand, bits, l)));
            writeln!(
                out,
                "| {name} | {demand:.2} | {:.2} | {} |",
                demand * bits / 1000.0,
                delivered.join(" | ")
            )?;
        }
        writeln!(out)?;
    }
    Ok(())
}

fn calibration(out: &mut dyn Write, runs: &Runs) -> io::Result<()> {
    writeln!(
        out,
        "## Calibration targets

The workload models were tuned to IPC and wrong-path targets that the
paper's Tables 1 and 3 imply (see DESIGN.md), and to Table 3's
bits/instr, so these deltas measure the calibration, not a validation.
The DL1 hit rate is the Table 1 right machine's.
"
    )?;
    let head = "| SPEC | IPC left target | ours | Δ | IPC right target | ours | Δ | wrong path % target | ours | Δ | DL1 hit rate |
|---|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|";
    per_benchmark(out, head, 3, |b| {
        let (left, right) = (runs.full(LEFT, b.name), runs.full(RIGHT, b.name));
        let pairs = vec![
            (b.ipc_left, left.stats.ipc()),
            (b.ipc_right, right.stats.ipc()),
            (
                100.0 * b.wrong_path,
                100.0 * left.stats.wrong_path_fraction(),
            ),
        ];
        (pairs, vec![right.stats.memory.l1d.hit_rate()])
    })?;
    Ok(())
}

fn codec(out: &mut dyn Write, runs: &Runs) -> io::Result<()> {
    writeln!(
        out,
        "## Trace codec density: layout v1 vs v2

Encoded bits per instruction, wrong-path records included, of the
Table 3 traces in the paper's byte-aligned layout (v1) and the
delta/run-length layout (v2); Δ is v2 relative to v1.
"
    )?;
    let head = "| SPEC | v1 bits/instr | v2 bits/instr | Δ |\n|---|---:|---:|---:|";
    per_benchmark(out, head, 2, |b| {
        let key = TraceKey {
            workload: b.name.to_string(),
            seed: DEFAULT_SEED,
            n_correct: BUDGET,
            config: TraceGenConfig::paper(),
        };
        let cached = runs
            .runner
            .cache()
            .get(&key)
            .expect("Table 3 traces are cached");
        let v2 = cached.trace.encode_v2().stats().bits_per_instruction();
        (vec![(cached.stats.bits_per_instruction(), v2)], vec![])
    })?;
    Ok(())
}

/// One sampled-vs-full table: for each model and plan, the full-run IPC,
/// the sampled estimate with its 95 % confidence interval, the signed
/// error and whether the interval holds the full-run IPC.
fn sampling_table(
    out: &mut dyn Write,
    runs: &Runs,
    config: &str,
    budget: usize,
    plans: &[SamplePlan],
) -> io::Result<()> {
    writeln!(
        out,
        "| workload | plan | full IPC | sampled IPC (95 % CI) | error | CI holds full IPC |\n\
         |---|---|---:|---:|---:|---|"
    )?;
    for b in &PAPER_BENCHMARKS {
        let full = runs
            .cell(config, b.name, budget, CellMode::Full)
            .stats
            .ipc();
        for &plan in plans {
            let cell = runs.cell(config, b.name, budget, CellMode::Sampled(plan));
            let s = cell.sampled_estimate().expect("a sampled cell");
            let (lo, hi) = s.ci95();
            writeln!(
                out,
                "| {} | {} | {full:.4} | {:.4} [{lo:.4}, {hi:.4}] | {} % | {} |",
                b.name,
                plan.name(),
                s.mean_ipc(),
                signed(100.0 * (s.mean_ipc() / full - 1.0), 2),
                if s.ci95_contains(full) { "yes" } else { "no" }
            )?;
        }
    }
    writeln!(out)
}

fn sampling(out: &mut dyn Write, runs: &Runs) -> io::Result<()> {
    let plans = coverage_plans();
    writeln!(
        out,
        "## Sampling: sampled vs full IPC

### 5 % coverage

The Table 1 left machine at {SAMPLING_BUDGET} instructions per workload.
Both plans detail {:.1} % of the records: 1 k of every other 10 k-record
interval, about 15 windows. The `b4000` plan skips through the codec and
warms only the last 4 k records before each window.
",
        100.0 * plans[0].coverage()
    )?;
    sampling_table(out, runs, LEFT, SAMPLING_BUDGET, &plans)?;
    writeln!(
        out,
        "### The replay plan

The plan e2ebench `replay` uses, on the Table 1 left machine with a
64-entry RB at {BUDGET} instructions. These rows pin a known bias: the
estimates read low. The likely cause is that each detailed window
starts with empty queues and drains at its end, and those cycles count
in its IPC.
"
    )?;
    sampling_table(out, runs, RB64, BUDGET, &[replay_plan()])
}

#[cfg(test)]
mod tests {
    use super::*;
    use resim_core::Engine;
    use resim_sweep::WorkloadPoint;
    use resim_tracegen::generate_trace;
    use resim_workloads::{SpecBenchmark, Workload};

    #[test]
    fn report_grid_runs_only_the_cells_the_report_reads() {
        let (scenario, indices) = report_grid();
        scenario.validate().expect("the report grid validates");
        // Table 1 (10), RB 64 full and sampled (5 + 5), the ablation
        // machines on gzip (3 organizations + 4 widths), and the 5 %
        // sampling table (5 models x full + 2 plans).
        assert_eq!(indices.len(), 10 + 10 + 7 + 15);
        assert_eq!(replay_plan().name(), "u10000d500k1f");
    }

    #[test]
    fn sweep_cell_speed_matches_a_direct_run() {
        let n = 10_000;
        let (cfg, tg) = table1_left();
        let trace = generate_trace(Workload::spec(SpecBenchmark::Gzip, DEFAULT_SEED), n, &tg);
        let direct = Engine::new(cfg.clone())
            .expect("valid configuration")
            .run(trace.source());
        assert_eq!(direct.committed, n as u64);
        let scenario = Scenario::new()
            .config(LEFT, cfg.clone(), tg)
            .workload(WorkloadPoint::spec(SpecBenchmark::Gzip))
            .budgets([n])
            .seeds([DEFAULT_SEED]);
        let report = SweepRunner::new(2).run(&scenario).expect("valid grid");
        let cell = report.get(LEFT, "gzip").expect("gzip cell ran");
        assert_eq!(cell.stats, direct, "sweep and direct runs must agree");
        let device = FpgaDevice::Virtex4Lx40;
        let a = cell_speed(cell, &cfg, device);
        let b = ThroughputModel::new(device).speed(&cfg, &direct, Some(&trace.stats()));
        assert_eq!(a.mips, b.mips);
        assert_eq!(a.trace_mbytes_per_sec, b.trace_mbytes_per_sec);
    }
}
