//! The CLI fidelity contract:
//!
//! 1. a trace written by `resim trace` and replayed through
//!    [`FileSource`] produces `SimStats` **bit-identical** to
//!    `Engine::run` over the same in-memory generated trace;
//! 2. a TOML-driven `resim sweep` reproduces the **byte-identical**
//!    stable CSV of the equivalent programmatic [`SweepRunner`] grid.

use resim_cli::{run_for_test, ScenarioDoc};
use resim_core::{Engine, EngineConfig};
use resim_sweep::{Scenario, SweepRunner, WorkloadPoint};
use resim_trace::FileSource;
use resim_tracegen::TraceGenConfig;
use resim_workloads::SpecBenchmark;
use std::fs;
use std::path::PathBuf;

/// A per-test scratch directory (no tempfile crate in this workspace).
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("resim-cli-{test}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

const SCENARIO: &str = r#"
[engine]
preset = "paper-4wide"
rb_size = 32

[workload]
name = "bzip2"
seed = 77
budget = 15000

[sample]
interval = 3000
detailed = 1000
period = 2
"#;

#[test]
fn file_replay_is_bit_identical_to_in_memory_run() {
    let dir = scratch("replay");
    let scenario_path = dir.join("s.toml");
    let trace_path = dir.join("bzip2.trace");
    fs::write(&scenario_path, SCENARIO).unwrap();

    // Write the container through the real CLI path.
    let (code, out, err) = run_for_test(&[
        "trace",
        "-s",
        scenario_path.to_str().unwrap(),
        "-o",
        trace_path.to_str().unwrap(),
    ]);
    assert_eq!(code, 0, "stderr: {err}");
    assert!(out.contains("15000 correct"), "{out}");

    // Reference: the same generation, never touching disk.
    let doc = ScenarioDoc::parse_str(SCENARIO).unwrap();
    let trace = doc.generate();
    let reference = Engine::new(doc.engine.clone()).unwrap().run(trace.source());

    // Replay the file.
    let mut src = FileSource::open(&trace_path).unwrap();
    assert_eq!(src.header().workload, "bzip2");
    assert_eq!(src.header().correct_records, 15000);
    assert_eq!(
        src.header().tracegen_fingerprint,
        doc.tracegen.fingerprint()
    );
    let replayed = Engine::new(doc.engine.clone()).unwrap().run(&mut src);
    assert!(src.error().is_none());

    assert_eq!(replayed, reference, "SimStats must be bit-identical");

    // And the sampled path sees the identical stream too.
    let plan = doc.sample.unwrap();
    let mut src = FileSource::open(&trace_path).unwrap();
    let from_file = resim_sample::run_sampled(&doc.engine, &mut src, &plan).unwrap();
    let in_memory = resim_sample::run_sampled(&doc.engine, trace.source(), &plan).unwrap();
    assert_eq!(from_file.sim, in_memory.sim);
    assert_eq!(from_file.windows, in_memory.windows);

    fs::remove_dir_all(&dir).unwrap();
}

const SWEEP_SCENARIO: &str = r#"
[sweep]
workloads = ["gzip", "vpr"]
budgets = [8000]
seeds = [2009, 2010]
threads = 2

[[sweep.config]]
name = "cached"
[sweep.config.engine]
preset = "paper-2wide-cached"

[sweep.grid]
rb_sizes = [16, 32]
"#;

/// The same grid, built through the library API only.
fn programmatic_scenario() -> Scenario {
    Scenario::new()
        .config(
            "cached",
            EngineConfig::paper_2wide_cached(),
            // The CLI defaults the generator predictor to the engine's.
            TraceGenConfig {
                predictor: EngineConfig::paper_2wide_cached().predictor,
                ..TraceGenConfig::paper()
            },
        )
        .config_grid(
            EngineConfig::paper_4wide()
                .grid()
                .rb_sizes([16, 32])
                .build(),
            TraceGenConfig::paper(),
        )
        .workload(WorkloadPoint::spec(SpecBenchmark::Gzip))
        .workload(WorkloadPoint::spec(SpecBenchmark::Vpr))
        .budgets([8000])
        .seeds([2009, 2010])
}

#[test]
fn toml_sweep_matches_programmatic_sweep_byte_for_byte() {
    let dir = scratch("sweep");
    let scenario_path = dir.join("s.toml");
    let csv_path = dir.join("report.csv");
    fs::write(&scenario_path, SWEEP_SCENARIO).unwrap();

    let (code, out, err) = run_for_test(&[
        "sweep",
        "-s",
        scenario_path.to_str().unwrap(),
        "--stable-csv",
        csv_path.to_str().unwrap(),
    ]);
    assert_eq!(code, 0, "stderr: {err}");
    assert!(out.contains("12 cells on 2 threads"), "{out}");
    let cli_csv = fs::read_to_string(&csv_path).unwrap();

    let report = SweepRunner::new(2).run(&programmatic_scenario()).unwrap();
    assert_eq!(
        cli_csv,
        report.to_csv_stable(),
        "CSV must be byte-identical"
    );

    fs::remove_dir_all(&dir).unwrap();
}

/// `resim sweep` reports how many engine runs served its cells. On a
/// `grid-deep`-shaped grid at `-j 1` that is exactly the count a brute
/// force gives: every config simulated directly, then in descending RB
/// order each config runs unless an earlier run covers it.
#[test]
fn sweep_reports_engine_runs() {
    let dir = scratch("engine-runs");
    let scenario_path = dir.join("s.toml");
    let text = r#"
[sweep]
workloads = ["gzip"]
budgets = [10000]
seeds = [2009]

[sweep.grid]
rb_sizes = [8, 12, 16, 24, 32, 48, 64, 96]
pipelines = ["simple", "optimized", "improved"]
"#;
    fs::write(&scenario_path, text).unwrap();
    let s = scenario_path.to_str().unwrap();
    let (code, out, err) = run_for_test(&["sweep", "-s", s, "-j", "1"]);
    assert_eq!(code, 0, "stderr: {err}");

    let scenario = ScenarioDoc::parse_str(text)
        .unwrap()
        .sweep_scenario()
        .unwrap();
    let cell = scenario.cells()[0];
    let trace = resim_tracegen::generate_trace(
        scenario.workloads()[0].instantiate(cell.seed),
        cell.budget,
        &scenario.configs()[0].tracegen,
    );
    let mut configs: Vec<&EngineConfig> = scenario.configs().iter().map(|c| &c.engine).collect();
    configs.sort_by_key(|e| std::cmp::Reverse(e.rb_size));
    let mut runs: Vec<(&EngineConfig, resim_core::SimStats)> = Vec::new();
    for config in configs {
        let stats = Engine::new(config.clone()).unwrap().run(trace.source());
        if !runs.iter().any(|(ran, s)| s.covers(ran, config)) {
            runs.push((config, stats));
        }
    }
    assert!(
        runs.len() < 8,
        "the largest RBs never fill: {} runs",
        runs.len()
    );
    let line = format!("engine runs {} for 24 cells", runs.len());
    assert!(out.contains(&line), "expected {line:?} in:\n{out}");

    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn sweep_replays_preloaded_trace_files() {
    let dir = scratch("preload");
    let scenario_path = dir.join("s.toml");
    let trace_path = dir.join("gzip.trace");
    let csv_path = dir.join("a.csv");
    let csv2_path = dir.join("b.csv");
    let scenario = r#"
[workload]
name = "gzip"
seed = 2009
budget = 6000

[sweep]
workloads = ["gzip"]
budgets = [6000]
seeds = [2009]
threads = 1

[sweep.grid]
rb_sizes = [16, 32]
"#;
    fs::write(&scenario_path, scenario).unwrap();
    let s = scenario_path.to_str().unwrap();

    let (code, _, err) = run_for_test(&["trace", "-s", s, "-o", trace_path.to_str().unwrap()]);
    assert_eq!(code, 0, "stderr: {err}");

    // Once with the file preloaded, once regenerating.
    let (code, out, err) = run_for_test(&[
        "sweep",
        "-s",
        s,
        "--trace-file",
        trace_path.to_str().unwrap(),
        "--stable-csv",
        csv_path.to_str().unwrap(),
    ]);
    assert_eq!(code, 0, "stderr: {err}");
    assert!(out.contains("preloaded"), "{out}");
    assert!(out.contains("traces generated 0, cache hits 1"), "{out}");

    let (code, out, err) = run_for_test(&[
        "sweep",
        "-s",
        s,
        "--stable-csv",
        csv2_path.to_str().unwrap(),
    ]);
    assert_eq!(code, 0, "stderr: {err}");
    assert!(out.contains("traces generated 1"), "{out}");

    assert_eq!(
        fs::read_to_string(&csv_path).unwrap(),
        fs::read_to_string(&csv2_path).unwrap(),
        "replaying the file must not change a single byte of the results"
    );

    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn mismatched_trace_files_fall_back_to_generation() {
    let dir = scratch("mismatch");
    let scenario_path = dir.join("s.toml");
    let trace_path = dir.join("t.trace");
    // Trace written with seed 1...
    fs::write(
        &scenario_path,
        "[workload]\nname = \"gzip\"\nseed = 1\nbudget = 2000\n\n[sweep]\nworkloads = [\"gzip\"]\nbudgets = [2000]\nseeds = [2]\nthreads = 1\n[[sweep.config]]\nname = \"base\"\n",
    )
    .unwrap();
    let s = scenario_path.to_str().unwrap();
    let (code, _, _) = run_for_test(&["trace", "-s", s, "-o", trace_path.to_str().unwrap()]);
    assert_eq!(code, 0);

    // ...cannot serve a sweep over seed 2.
    let (code, out, err) = run_for_test(&[
        "sweep",
        "-s",
        s,
        "--trace-file",
        trace_path.to_str().unwrap(),
    ]);
    assert_eq!(code, 0, "stderr: {err}");
    assert!(out.contains("warning"), "{out}");
    assert!(out.contains("traces generated 1"), "{out}");

    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn describe_reports_the_scheduler_stage_roster() {
    // The stage-graph contract surfaces to the operator: `describe`
    // prints the minor-cycle scheduler's roster in evaluation order.
    let dir = scratch("describe-roster");
    let scenario_path = dir.join("s.toml");
    fs::write(&scenario_path, SCENARIO).unwrap();
    let (code, out, err) = run_for_test(&["describe", "-s", scenario_path.to_str().unwrap()]);
    assert_eq!(code, 0, "stderr: {err}");
    assert!(
        out.contains(
            "stage roster: Commit -> Writeback -> Lsq_refresh -> Issue -> Dispatch -> Fetch"
        ),
        "describe must report the stage roster:\n{out}"
    );
    assert!(out.contains("7 minor cycles per simulated cycle"), "{out}");

    // And `run` reports the scheduler's per-stage activity totals.
    let (code, out, err) = run_for_test(&["run", "-s", scenario_path.to_str().unwrap()]);
    assert_eq!(code, 0, "stderr: {err}");
    assert!(
        out.contains("stage activity (ops): Commit 15000, Writeback "),
        "run must report per-stage activity (all 15000 committed):\n{out}"
    );
    fs::remove_dir_all(&dir).unwrap();
}
