//! The stable-seeding contract: the same `(workload, seed, config)` cell
//! produces byte-identical `SimStats` whether it runs serially by hand or
//! through `resim-sweep` at any thread count.

use resim_bpred::{DirectionConfig, PredictorConfig};
use resim_core::{Engine, EngineConfig, PipelineDescription, SimStats};
use resim_sample::{run_sampled, SamplePlan, SampledStats};
use resim_sweep::{
    Cell, CellMode, Scenario, ScenarioDoc, SweepPhase, SweepReport, SweepRunner, WorkloadPoint,
};
use resim_tracegen::{generate_trace, TraceGenConfig};
use resim_workloads::SpecBenchmark;
use std::cmp::Reverse;
use std::collections::HashSet;
use std::sync::Mutex;

const BUDGET: usize = 10_000;

/// An 8-cell grid: 2 configs × 2 workloads × 1 budget × 2 seeds.
fn eight_cell_scenario() -> Scenario {
    Scenario::new()
        .config(
            "4wide",
            EngineConfig::paper_4wide(),
            TraceGenConfig::paper(),
        )
        .config(
            "rb32",
            EngineConfig {
                rb_size: 32,
                ..EngineConfig::paper_4wide()
            },
            TraceGenConfig::paper(),
        )
        .workload(WorkloadPoint::spec(SpecBenchmark::Gzip))
        .workload(WorkloadPoint::spec(SpecBenchmark::Vpr))
        .budgets([BUDGET])
        .seeds([2009, 2010])
}

/// The hand-rolled serial reference: no runner, no cache, no threads —
/// exactly what every `resim-bench` binary did before the sweep crate.
fn serial_reference(scenario: &Scenario) -> Vec<SimStats> {
    let cells = scenario.cells();
    cells
        .iter()
        .map(|cell| {
            let config = &scenario.configs()[cell.config];
            let workload = &scenario.workloads()[cell.workload];
            let trace = generate_trace(
                workload.instantiate(cell.seed),
                cell.budget,
                &config.tracegen,
            );
            Engine::new(config.engine.clone())
                .expect("valid config")
                .run(trace.source())
        })
        .collect()
}

#[test]
fn sweep_matches_serial_reference_at_1_2_and_8_threads() {
    let scenario = eight_cell_scenario();
    let reference = serial_reference(&scenario);
    assert_eq!(reference.len(), 8);

    for threads in [1usize, 2, 8] {
        // A fresh runner (fresh cache) per thread count: nothing shared.
        let report = SweepRunner::new(threads)
            .run(&scenario)
            .expect("scenario is valid");
        assert_eq!(
            report.all_stats(),
            reference,
            "{threads}-thread sweep diverged from the serial reference"
        );
    }
}

#[test]
fn repeated_parallel_sweeps_are_bit_identical() {
    let scenario = eight_cell_scenario();
    let a = SweepRunner::new(4).run(&scenario).expect("valid");
    let b = SweepRunner::new(4).run(&scenario).expect("valid");
    assert_eq!(a.all_stats(), b.all_stats());
    // Cell metadata is stable too: order, names, budgets, seeds.
    for (x, y) in a.cells.iter().zip(&b.cells) {
        assert_eq!(x.config, y.config);
        assert_eq!(x.workload, y.workload);
        assert_eq!(x.budget, y.budget);
        assert_eq!(x.seed, y.seed);
    }
}

#[test]
fn shared_cache_does_not_perturb_results() {
    // Running two sweeps on one runner (warm cache) must match a cold
    // runner cell for cell.
    let scenario = eight_cell_scenario();
    let runner = SweepRunner::new(2);
    let cold = runner.run(&scenario).expect("valid");
    let warm = runner.run(&scenario).expect("valid");
    assert_eq!(cold.all_stats(), warm.all_stats());
    assert_eq!(
        cold.trace_cache_misses, 4,
        "4 unique (workload, seed) traces"
    );
    assert_eq!(warm.trace_cache_misses, 0, "warm sweep generates nothing");
}

/// The determinism contract extends to the sampled execution mode: a grid
/// mixing full and sampled cells produces bit-identical per-cell stats —
/// and identical per-window confidence data — at any thread count.
#[test]
fn sampled_sweeps_are_thread_count_invariant() {
    let scenario = eight_cell_scenario()
        .mode(CellMode::Full)
        .mode(CellMode::Sampled(resim_sample::SamplePlan::systematic(
            2_000, 500, 2,
        )));
    let reference = SweepRunner::new(1).run(&scenario).expect("valid");
    assert_eq!(reference.cells.len(), 16, "mode axis doubles the grid");

    for threads in [2usize, 8] {
        let report = SweepRunner::new(threads).run(&scenario).expect("valid");
        assert_eq!(
            report.all_stats(),
            reference.all_stats(),
            "{threads}-thread sampled sweep diverged"
        );
        for (a, b) in report.cells.iter().zip(&reference.cells) {
            assert_eq!(a.mode, b.mode);
            assert_eq!(a.sampled, b.sampled, "window data must be identical");
        }
    }

    // Sampled cells share the full cells' traces: still 4 unique keys.
    assert_eq!(reference.trace_cache_misses, 4);

    // And each sampled estimate lands near its full counterpart.
    for full in reference.cells.iter().filter(|c| c.mode == "full") {
        let sampled = reference
            .cells
            .iter()
            .find(|c| {
                c.mode != "full"
                    && c.config == full.config
                    && c.workload == full.workload
                    && c.seed == full.seed
            })
            .expect("every full cell has a sampled twin");
        let s = sampled
            .sampled
            .as_ref()
            .expect("sampled cell carries windows");
        assert!(
            s.relative_error(full.stats.ipc()) < 0.15,
            "sampled {} vs full {} ({} / {} / seed {})",
            s.mean_ipc(),
            full.stats.ipc(),
            full.config,
            full.workload,
            full.seed
        );
    }
}

#[test]
fn subset_runs_match_the_full_run_cell_for_cell() {
    let scenario = eight_cell_scenario();
    let full = SweepRunner::new(2).run(&scenario).expect("valid scenario");

    // A scattered subset, out of dispatch order and at several thread
    // counts: each cell must be bit-identical to the full run's, and the
    // report must follow the requested order.
    let indices = [5usize, 0, 3];
    for threads in [1usize, 4] {
        let subset = SweepRunner::new(threads)
            .run_subset(&scenario, &indices, |_| {})
            .expect("valid subset");
        assert_eq!(subset.cells.len(), indices.len());
        for (slot, &index) in indices.iter().enumerate() {
            assert_eq!(
                subset.cells[slot].stats.digest(),
                full.cells[index].stats.digest(),
                "cell {index} diverges at {threads} threads"
            );
            assert_eq!(subset.cells[slot].config, full.cells[index].config);
            assert_eq!(subset.cells[slot].workload, full.cells[index].workload);
        }
    }

    // A subset generates only the traces it needs.
    let runner = SweepRunner::new(1);
    let report = runner
        .run_subset(&scenario, &[0, 1], |_| {})
        .expect("valid subset");
    assert_eq!(
        report.trace_cache_misses, 1,
        "cells 0 and 1 share one trace"
    );

    // An index outside the grid is a typed error, not a panic.
    let err = SweepRunner::new(1)
        .run_subset(&scenario, &[8], |_| {})
        .unwrap_err();
    assert!(err.to_string().contains("outside the grid"), "{err}");
}

#[test]
fn cell_fingerprints_key_on_content_not_names() {
    let scenario = eight_cell_scenario();
    let cells = scenario.cells();
    // All 8 cells are distinct design points: distinct fingerprints.
    let mut fps: Vec<u64> = cells.iter().map(|c| scenario.cell_fingerprint(c)).collect();
    fps.sort_unstable();
    fps.dedup();
    assert_eq!(fps.len(), 8);

    // Renaming a config does not move the fingerprint; changing the
    // engine does.
    let renamed = Scenario::new()
        .config(
            "other-name",
            EngineConfig::paper_4wide(),
            TraceGenConfig::paper(),
        )
        .workload(WorkloadPoint::spec(SpecBenchmark::Gzip))
        .budgets([BUDGET])
        .seeds([2009]);
    assert_eq!(
        renamed.cell_fingerprint(&renamed.cells()[0]),
        scenario.cell_fingerprint(&cells[0]),
    );
}

/// A pipelines × RB sizes grid, pipeline axis outermost so the cells of
/// one timing point are not adjacent in the dispatch order, run both
/// full and sampled: 9 configs × 2 modes = 18 cells, 6 timing points.
fn pipeline_grid() -> Scenario {
    let mut scenario = Scenario::new();
    for org in PipelineDescription::builtins() {
        for rb_size in [8usize, 16, 32] {
            scenario = scenario.config(
                format!("{org}-rb{rb_size}"),
                EngineConfig {
                    rb_size,
                    pipeline: org.clone(),
                    ..EngineConfig::paper_4wide()
                },
                TraceGenConfig::paper(),
            );
        }
    }
    scenario
        .workload(WorkloadPoint::spec(SpecBenchmark::Gzip))
        .budgets([6_000])
        .seeds([2009])
        .mode(CellMode::Full)
        .mode(CellMode::Sampled(SamplePlan::systematic(2_000, 500, 2)))
}

/// One cell simulated on its own: a fresh trace and a direct engine (or
/// sampled) run of exactly that cell's configuration.
fn direct_run(scenario: &Scenario, cell: &Cell) -> (SimStats, Option<SampledStats>) {
    let config = &scenario.configs()[cell.config];
    let trace = generate_trace(
        scenario.workloads()[cell.workload].instantiate(cell.seed),
        cell.budget,
        &config.tracegen,
    );
    match scenario.cell_mode(cell) {
        CellMode::Full => {
            let stats = Engine::new(config.engine.clone())
                .expect("valid config")
                .run(trace.source());
            (stats, None)
        }
        CellMode::Sampled(plan) => {
            let s = run_sampled(&config.engine, trace.source(), &plan).expect("valid plan");
            (s.sim, Some(s))
        }
    }
}

fn assert_matches_direct(scenario: &Scenario, cells: &[Cell], report: &SweepReport, what: &str) {
    assert_eq!(report.cells.len(), cells.len());
    for (cell, result) in cells.iter().zip(&report.cells) {
        let (stats, sampled) = direct_run(scenario, cell);
        let name = &scenario.configs()[cell.config].name;
        assert_eq!(result.config, *name);
        assert_eq!(
            result.stats, stats,
            "{what}: {name} ({}) diverged",
            result.mode
        );
        assert_eq!(result.stats.digest(), stats.digest());
        assert_eq!(
            result.sampled, sampled,
            "{what}: {name} window data diverged"
        );
    }
}

/// Sharing one engine run across pipeline organizations is invisible:
/// every cell — minor cycles and digest included, full and sampled —
/// equals a direct run of its own configuration, at any thread count
/// and through `run_subset`.
#[test]
fn pipeline_sharing_is_invisible() {
    let scenario = pipeline_grid();
    let cells = scenario.cells();
    assert_eq!(cells.len(), 18);
    assert_eq!(scenario.timing_groups(&cells).len(), 6);
    for threads in [1usize, 3] {
        let report = SweepRunner::new(threads).run(&scenario).expect("valid");
        assert_matches_direct(&scenario, &cells, &report, &format!("{threads} threads"));
        // The organizations really do differ in engine cost.
        let minor: HashSet<u64> = report.cells.iter().map(|c| c.stats.minor_cycles).collect();
        assert!(
            minor.len() > 6,
            "re-costing must give each organization its own charge"
        );
    }

    // A subset holding only a non-representative cell: improved-rb16,
    // sampled, whose group's first cell (simple-rb16) is not in it.
    let groups = scenario.timing_groups(&cells);
    let index = cells
        .iter()
        .position(|c| scenario.configs()[c.config].name == "improved-rb16" && c.mode == 1)
        .expect("cell exists");
    assert!(
        groups.iter().all(|g| g[0] != index) && groups.iter().any(|g| g.contains(&index)),
        "the chosen cell is not its group's representative"
    );
    let subset = SweepRunner::new(1)
        .run_subset(&scenario, &[index], |_| {})
        .expect("valid subset");
    assert_matches_direct(&scenario, &[cells[index]], &subset, "subset");
}

/// Progress still counts cells, not engine runs.
#[test]
fn shared_cells_each_report_progress() {
    let scenario = pipeline_grid();
    let samples = Mutex::new(Vec::new());
    SweepRunner::new(3)
        .run_with_progress(&scenario, |p| {
            if p.phase == SweepPhase::Simulate {
                samples.lock().unwrap().push((p.done, p.total));
            }
        })
        .expect("valid");
    let mut samples = samples.into_inner().unwrap();
    samples.sort_unstable();
    let expected: Vec<(usize, usize)> = (0..=18).map(|d| (d, 18)).collect();
    assert_eq!(samples, expected, "one start sample plus one per cell");
}

/// Identical engines behind different trace-generation configurations
/// see different traces, so they must not share a run.
#[test]
fn configs_with_different_tracegen_do_not_share() {
    let scenario = Scenario::new()
        .config(
            "paper",
            EngineConfig::paper_4wide(),
            TraceGenConfig::paper(),
        )
        .config(
            "perfect",
            EngineConfig::paper_4wide(),
            TraceGenConfig::perfect(),
        )
        .config(
            "paper-again",
            EngineConfig::paper_4wide(),
            TraceGenConfig::paper(),
        )
        .workload(WorkloadPoint::spec(SpecBenchmark::Gzip))
        .budgets([3_000])
        .seeds([2009]);
    let cells = scenario.cells();
    assert_eq!(scenario.timing_groups(&cells), vec![vec![0, 2], vec![1]]);
    let report = SweepRunner::new(2).run(&scenario).expect("valid");
    assert_matches_direct(&scenario, &cells, &report, "tracegen");
    assert_ne!(report.cells[0].stats, report.cells[1].stats);
}

/// The engine runs a one-thread sweep of `scenario` must make, found by
/// brute force: every timing point simulated directly, then the
/// covering rule applied in descending `(rb, lsq, ifq)` order, where a
/// point runs unless an earlier run over the same trace and mode covers
/// it.
fn reference_engine_runs(scenario: &Scenario) -> u64 {
    let cells = scenario.cells();
    let config = |c: &Cell| &scenario.configs()[c.config];
    let mut points: Vec<(Cell, SimStats)> = scenario
        .timing_groups(&cells)
        .iter()
        .map(|g| (cells[g[0]], direct_run(scenario, &cells[g[0]]).0))
        .collect();
    points.sort_by_key(|(c, _)| {
        let e = &config(c).engine;
        Reverse((e.rb_size, e.lsq_size, e.ifq_size))
    });
    let mut runs: Vec<(Cell, SimStats)> = Vec::new();
    for (cell, stats) in points {
        let covered = runs.iter().any(|(ran, ran_stats)| {
            scenario.trace_key(ran) == scenario.trace_key(&cell)
                && ran.mode == cell.mode
                && ran_stats.covers(&config(ran).engine, &config(&cell).engine)
        });
        if !covered {
            runs.push((cell, stats));
        }
    }
    runs.len() as u64
}

/// Runs `scenario` at 1 and 3 threads: every cell must equal its direct
/// run, the one-thread engine-run count must equal
/// [`reference_engine_runs`], and the three-thread count must lie
/// between that and the number of timing points. Returns the reference.
fn assert_queue_sharing_is_invisible(scenario: &Scenario, what: &str) -> u64 {
    let cells = scenario.cells();
    let points = scenario.timing_groups(&cells).len() as u64;
    let reference = reference_engine_runs(scenario);
    for threads in [1usize, 3] {
        let runner = SweepRunner::new(threads);
        let report = runner.run(scenario).expect("valid");
        let what = format!("{what}, {threads} threads");
        assert_matches_direct(scenario, &cells, &report, &what);
        let runs = runner.engine_runs();
        if threads == 1 {
            assert_eq!(runs, reference, "{what}: engine runs");
        } else {
            assert!(
                (reference..=points).contains(&runs),
                "{what}: {runs} engine runs, reference {reference}, {points} timing points"
            );
        }
    }
    reference
}

/// Serving a queue size from a run that never filled that queue is
/// invisible: over RB {8..96} × LSQ {8, 32} × two organizations, full
/// and sampled, every cell equals a direct run of its own
/// configuration, and on one thread the sweep makes exactly the engine
/// runs the covering rule allows.
#[test]
fn queue_sharing_is_invisible() {
    let mut scenario = Scenario::new();
    for rb_size in [8usize, 16, 32, 48, 64, 96] {
        for lsq_size in [8usize, 32] {
            for org in [
                PipelineDescription::simple(),
                PipelineDescription::optimized(),
            ] {
                scenario = scenario.config(
                    format!("rb{rb_size}-lsq{lsq_size}-{org}"),
                    EngineConfig {
                        rb_size,
                        lsq_size,
                        pipeline: org.clone(),
                        ..EngineConfig::paper_4wide()
                    },
                    TraceGenConfig::paper(),
                );
            }
        }
    }
    let scenario = scenario
        .workload(WorkloadPoint::spec(SpecBenchmark::Gzip))
        .workload(WorkloadPoint::spec(SpecBenchmark::Parser))
        .budgets([6_000])
        .seeds([2009])
        .mode(CellMode::Full)
        .mode(CellMode::Sampled(SamplePlan::systematic(2_000, 500, 2)));
    let cells = scenario.cells();
    assert_eq!(cells.len(), 96);
    let groups = scenario.timing_groups(&cells);
    assert_eq!(groups.len(), 48);
    let families = scenario.queue_families(&cells, &groups);
    assert_eq!(families.len(), 4, "2 workloads x 2 modes");
    for family in &families {
        let sizes: Vec<(usize, usize)> = family
            .iter()
            .map(|&g| {
                let e = &scenario.configs()[cells[groups[g][0]].config].engine;
                (e.rb_size, e.lsq_size)
            })
            .collect();
        assert_eq!(sizes.len(), 12);
        assert!(
            sizes.windows(2).all(|w| w[0] > w[1]),
            "largest queues first: {sizes:?}"
        );
    }
    let reference = assert_queue_sharing_is_invisible(&scenario, "queues");
    assert!(
        reference < 48,
        "some timing point must be served by a larger one ({reference} runs)"
    );
}

/// The `grid-deep` shape — one trace, 8 RB sizes × 3 organizations,
/// built through the scenario-file path — has 8 timing points, each
/// serving exactly the three organizations of one RB size, and the
/// large RBs that never fill serve the smaller sizes above their
/// occupancy, so fewer than 8 engines run.
#[test]
fn grid_deep_shape_maps_24_cells_to_8_runs() {
    let doc = ScenarioDoc::parse_str(
        "[sweep]\n\
         workloads = [\"gzip\"]\n\
         budgets = [10000]\n\
         seeds = [2009]\n\
         [sweep.grid]\n\
         rb_sizes = [8, 12, 16, 24, 32, 48, 64, 96]\n\
         pipelines = [\"simple\", \"optimized\", \"improved\"]\n",
    )
    .expect("parses");
    let scenario = doc.sweep_scenario().expect("valid grid");
    let cells = scenario.cells();
    assert_eq!(cells.len(), 24);
    let groups = scenario.timing_groups(&cells);
    assert_eq!(groups.len(), 8);
    for group in &groups {
        let engines: Vec<&EngineConfig> = group
            .iter()
            .map(|&p| &scenario.configs()[cells[p].config].engine)
            .collect();
        let pipelines: HashSet<&str> = engines.iter().map(|e| e.pipeline.name()).collect();
        assert_eq!(
            pipelines.len(),
            3,
            "one run per RB size serves all three organizations"
        );
        assert!(engines.iter().all(|e| e.rb_size == engines[0].rb_size));
    }
    assert_eq!(scenario.queue_families(&cells, &groups).len(), 1);
    let reference = assert_queue_sharing_is_invisible(&scenario, "grid-deep");
    assert!(reference < 8, "{reference} engine runs");
}

/// Three trace-generation configurations that differ in predictor and
/// in wrong-path block length, each on its own engine.
fn tracegen_configs() -> Vec<(&'static str, EngineConfig, TraceGenConfig)> {
    let tracegen = |direction, wrong_path_len| TraceGenConfig {
        predictor: PredictorConfig {
            direction,
            ..PredictorConfig::paper_two_level()
        },
        wrong_path_len,
        ..TraceGenConfig::paper()
    };
    vec![
        (
            "two-level-32",
            EngineConfig::paper_4wide(),
            TraceGenConfig::paper(),
        ),
        (
            "bimodal-8",
            EngineConfig {
                rb_size: 32,
                ..EngineConfig::paper_4wide()
            },
            tracegen(DirectionConfig::Bimodal { size: 2048 }, 8),
        ),
        (
            "taken-16",
            EngineConfig::paper_2wide_cached(),
            tracegen(DirectionConfig::Taken, 16),
        ),
    ]
}

fn tracegen_grid(
    configs: &[(&'static str, EngineConfig, TraceGenConfig)],
    workloads: &[SpecBenchmark],
    budgets: &[usize],
) -> Scenario {
    let mut scenario = Scenario::new();
    for (name, engine, tracegen) in configs {
        scenario = scenario.config(*name, engine.clone(), *tracegen);
    }
    for &w in workloads {
        scenario = scenario.workload(WorkloadPoint::spec(w));
    }
    scenario.budgets(budgets.iter().copied()).seeds([2009])
}

/// Every cell equals a direct run over its own freshly generated trace,
/// and every cached trace equals generating it, bit for bit.
fn assert_traces_and_cells_match_direct(
    runner: &SweepRunner,
    scenario: &Scenario,
    report: &SweepReport,
    what: &str,
) {
    let cells = scenario.cells();
    assert_matches_direct(scenario, &cells, report, what);
    for (cell, result) in cells.iter().zip(&report.cells) {
        let key = scenario.trace_key(cell);
        let direct = generate_trace(
            scenario.workloads()[cell.workload].instantiate(cell.seed),
            cell.budget,
            &key.config,
        );
        assert_eq!(result.trace_stats, direct.stats(), "{what}: trace stats");
        let cached = runner
            .cache()
            .get(&key)
            .expect("the sweep cached every key");
        assert!(
            cached.trace == direct,
            "{what}: cached trace differs from generating it"
        );
    }
}

/// Phase 1 walks each `(workload, seed, budget)` stream once and derives
/// the other configurations' traces from it. That must be invisible:
/// the same traces, statistics and cache counters as generating every
/// key from its own walk, at any thread count and on a warm cache.
#[test]
fn derived_traces_are_invisible() {
    let configs = tracegen_configs();
    let workloads = [SpecBenchmark::Vpr, SpecBenchmark::Parser];
    let budgets = [4_000, 7_000];
    let scenario = tracegen_grid(&configs, &workloads, &budgets);
    let cells = scenario.cells();
    let unique: HashSet<_> = cells.iter().map(|c| scenario.trace_key(c)).collect();
    assert_eq!(
        unique.len(),
        12,
        "3 tracegen configs x 2 workloads x 2 budgets"
    );
    assert_eq!(scenario.stream_groups(&cells).len(), 4);

    for threads in [1usize, 3] {
        let what = format!("{threads} threads");
        let runner = SweepRunner::new(threads);
        let generate = Mutex::new(Vec::new());
        let report = runner
            .run_with_progress(&scenario, |p| {
                if p.phase == SweepPhase::Generate {
                    generate
                        .lock()
                        .unwrap()
                        .push((p.done, p.total, p.cache_misses));
                }
            })
            .expect("valid");
        assert_traces_and_cells_match_direct(&runner, &scenario, &report, &what);
        assert_eq!(
            report.trace_cache_misses, 12,
            "{what}: one miss per unique key"
        );
        assert_eq!(report.trace_cache_hits, 0, "{what}");
        let mut generate = generate.into_inner().unwrap();
        generate.sort_unstable();
        let done: Vec<(usize, usize)> = generate.iter().map(|&(d, t, _)| (d, t)).collect();
        let expected: Vec<(usize, usize)> = (0..=12).map(|d| (d, 12)).collect();
        assert_eq!(done, expected, "{what}: one tracegen unit per unique key");
        assert_eq!(generate.last().unwrap().2, 12, "{what}");

        // A fourth configuration on the warm cache: its one new key per
        // stream is derived from a cached trace. Over one stream point
        // that is exactly one miss.
        let mut more = configs.clone();
        more.push((
            "perfect",
            EngineConfig::paper_4wide(),
            TraceGenConfig::perfect(),
        ));
        let second = tracegen_grid(&more, &workloads[..1], &budgets[..1]);
        let report = runner.run(&second).expect("valid");
        assert_eq!(
            report.trace_cache_misses, 1,
            "{what}: only the new key misses"
        );
        assert_eq!(report.trace_cache_hits, 3, "{what}: the cached keys hit");
        assert_traces_and_cells_match_direct(&runner, &second, &report, &format!("{what}, warm"));
    }
}
