//! `table1` and `grid-deep`: a `[sweep]` grid through `resim sweep`.

use crate::check;
use crate::spans::Tracer;
use crate::workload::{cli, note_sim, IterOut, Workload};
use resim_cli::ScenarioDoc;
use resim_core::Engine;
use resim_sample::run_sampled;
use resim_sweep::{CellMode, CellResult, Scenario, SweepPhase, SweepReport, SweepRunner};
use resim_trace::{Trace, TraceStats};
use resim_tracegen::{generate_trace, TraceKey};
use std::collections::HashMap;
use std::fs;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A sweep workload over one scenario text.
pub struct SweepWorkload {
    text: String,
    scenario_path: String,
    csv_path: String,
    /// The CLI's stable CSV from the first untraced iteration.
    reference: Option<String>,
}

impl SweepWorkload {
    /// A sweep of `text`, keeping its files under `dir`; writes the
    /// scenario file the CLI reads.
    pub fn new(text: String, dir: &std::path::Path) -> Result<Self, String> {
        let path = |f: &str| -> String { dir.join(f).to_string_lossy().into_owned() };
        let scenario_path = path("scenario.toml");
        fs::write(&scenario_path, &text).map_err(|e| e.to_string())?;
        Ok(Self {
            text,
            scenario_path,
            csv_path: path("stable.csv"),
            reference: None,
        })
    }
}

/// Parses and validates a sweep document.
fn parse(text: &str) -> Result<Scenario, String> {
    let doc = ScenarioDoc::parse_str(text).map_err(|e| e.to_string())?;
    let scenario = doc.sweep_scenario().map_err(|e| e.to_string())?;
    scenario.validate().map_err(|e| e.to_string())?;
    Ok(scenario)
}

fn iter_out(csv: String) -> Result<IterOut, String> {
    let rows = check::csv_rows(&csv)?;
    Ok(IterOut {
        ops: rows.len() as u64,
        committed: rows.iter().map(|r| r.committed).sum(),
        artifact: csv,
    })
}

/// Runs `scenario` cell by cell through the public crate calls, in the
/// order and with the inputs `SweepRunner` uses on one thread: first
/// every unique trace (stream, tag, encode statistics), then every cell.
pub fn traced_sweep(tr: &mut Tracer, scenario: &Scenario) -> SweepReport {
    tr.span("sweep.run", |tr| {
        let t0 = Instant::now();
        let cells = scenario.cells();
        let mut traces: HashMap<TraceKey, (Trace, TraceStats)> = HashMap::new();
        for c in &cells {
            let key = scenario.trace_key(c);
            if traces.contains_key(&key) {
                continue;
            }
            let point = &scenario.workloads()[c.workload];
            let stream = tr.counted("workloads.stream", |_| {
                let records = point.instantiate(c.seed).generate(c.budget);
                let n = records.len() as u64;
                (records, n)
            });
            let trace = tr.counted("tracegen.gen", |_| {
                let trace = generate_trace(stream, c.budget, &key.config);
                let n = trace.len() as u64;
                (trace, n)
            });
            tr.note("tracegen.records", trace.len() as f64);
            tr.note("tracegen.correct", trace.correct_path_len() as f64);
            let stats = tr.counted("trace.stats", |_| (trace.stats(), trace.len() as u64));
            tr.note("trace.bits", stats.total_bits() as f64);
            tr.note("trace.instrs", stats.total_records() as f64);
            traces.insert(key, (trace, stats));
        }
        let n_traces = traces.len() as u64;
        let mut results = Vec::with_capacity(cells.len());
        for c in &cells {
            let (trace, trace_stats) = &traces[&scenario.trace_key(c)];
            let config = &scenario.configs()[c.config];
            let mode = scenario.cell_mode(c);
            let cell_t0 = Instant::now();
            let (stats, sampled) = match &mode {
                CellMode::Full => {
                    let stats = tr.counted("core.run", |_| {
                        let stats = Engine::new(config.engine.clone())
                            .expect("the scenario validated every config")
                            .run(trace.source());
                        (stats, stats.trace_records_consumed())
                    });
                    note_sim(tr, &config.engine, &stats);
                    (stats, None)
                }
                CellMode::Sampled(plan) => {
                    let s = tr.counted("sample.run", |_| {
                        let s = run_sampled(&config.engine, trace.source(), plan)
                            .expect("the scenario validated every plan");
                        (s, trace.len() as u64)
                    });
                    (s.sim, Some(s))
                }
            };
            results.push(CellResult {
                config: config.name.clone(),
                workload: scenario.workloads()[c.workload].name.clone(),
                mode: mode.name(),
                budget: c.budget,
                seed: c.seed,
                stats,
                sampled,
                trace_stats: trace_stats.clone(),
                wall: cell_t0.elapsed(),
            });
        }
        SweepReport {
            cells: results,
            threads: 1,
            wall: t0.elapsed(),
            trace_cache_hits: cells.len() as u64 - n_traces,
            trace_cache_misses: n_traces,
        }
    })
}

/// Runs `scenario` through `SweepRunner` on one thread and notes the
/// runner's own overhead: its wall time minus the generate phase minus
/// the summed cell times. Returns the stable CSV.
pub fn sweep_probe(tr: &mut Tracer, scenario: &Scenario) -> Result<String, String> {
    let phase_starts: Mutex<[Option<Instant>; 2]> = Mutex::new([None; 2]);
    let report = tr.span("bench.sweep_runner", |_| {
        SweepRunner::new(1).run_with_progress(scenario, |p| {
            if p.done == 0 {
                let i = usize::from(p.phase == SweepPhase::Simulate);
                phase_starts.lock().expect("no panics under this lock")[i] = Some(Instant::now());
            }
        })
    });
    let report = report.map_err(|e| e.to_string())?;
    let [Some(gen), Some(sim)] = phase_starts
        .into_inner()
        .expect("no panics under this lock")
    else {
        return Err("the sweep runner reported no phase starts".to_string());
    };
    let cells: Duration = report.cells.iter().map(|c| c.wall).sum();
    let overhead = report.wall.as_secs_f64() - (sim - gen).as_secs_f64() - cells.as_secs_f64();
    tr.note("sweep.overhead_ms", overhead * 1e3);
    Ok(tr.span("cli.report", |_| report.to_csv_stable()))
}

impl Workload for SweepWorkload {
    fn setup(&mut self) -> Result<(), String> {
        parse(&self.text).map(|_| ())
    }

    fn setup_traced(&mut self, tr: &mut Tracer) -> Result<(), String> {
        tr.span("toml.parse", |_| parse(&self.text)).map(|_| ())
    }

    fn iterate(&mut self) -> Result<IterOut, String> {
        cli(&[
            "sweep",
            "-s",
            &self.scenario_path,
            "--stable-csv",
            &self.csv_path,
        ])?;
        let csv = fs::read_to_string(&self.csv_path).map_err(|e| e.to_string())?;
        if self.reference.is_none() {
            self.reference = Some(csv.clone());
        }
        iter_out(csv)
    }

    fn iterate_traced(&mut self, tr: &mut Tracer) -> Result<IterOut, String> {
        let text = fs::read_to_string(&self.scenario_path).map_err(|e| e.to_string())?;
        let scenario = tr.span("toml.parse", |_| parse(&text))?;
        let report = traced_sweep(tr, &scenario);
        let csv = tr.span("cli.report", |_| {
            std::hint::black_box(report.to_markdown());
            let csv = report.to_csv_stable();
            fs::write(&self.csv_path, &csv).map(|()| csv)
        });
        let csv = csv.map_err(|e| e.to_string())?;
        if let Some(err) = check::table1_ipc_err_pct(&check::csv_rows(&csv)?) {
            tr.note("core.ipc_err_table1_pct", err);
        }
        iter_out(csv)
    }

    fn layer_probes(&mut self, tr: &mut Tracer) -> Result<(), String> {
        let csv = sweep_probe(tr, &parse(&self.text)?)?;
        match &self.reference {
            Some(r) if *r != csv => {
                Err("SweepRunner's CSV differs from `resim sweep`'s".to_string())
            }
            _ => Ok(()),
        }
    }
}
