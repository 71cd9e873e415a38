//! Probes: the functional-warmup layers measured on their own, and the
//! fixed probe that gives every traced run a value for layers its
//! workload does not exercise.

use crate::replay::ReplayWorkload;
use crate::serve::ServeWorkload;
use crate::spans::Tracer;
use crate::sweeps::{sweep_probe, traced_sweep};
use crate::workload::Workload;
use resim_bpred::{BranchPredictor, PredictorConfig};
use resim_cli::ScenarioDoc;
use resim_mem::{MemorySystem, MemorySystemConfig};
use resim_trace::TraceRecord;
use std::path::Path;

/// Correct-path instructions of the fixed probe's replay container.
const PROBE_REPLAY_BUDGET: usize = 100_000;
/// Correct-path instructions per cell of the fixed probe's Table 1 grid.
const PROBE_TABLE1_BUDGET: usize = 20_000;

/// Times the public `warm_record` of the paper's two-level predictor and
/// of the 32 KB L1 caches over `records` (sampled simulation's
/// functional warmup, one layer at a time).
pub fn warm_probe(tr: &mut Tracer, records: &[TraceRecord]) {
    let n = records.len() as u64;
    tr.counted("bpred.warm", |_| {
        let mut bp = BranchPredictor::new(PredictorConfig::paper_two_level());
        for r in records {
            bp.warm_record(r);
        }
        std::hint::black_box(&bp);
        ((), n)
    });
    tr.counted("mem.warm", |_| {
        let mut mem = MemorySystem::new(MemorySystemConfig::l1_32k());
        for r in records {
            mem.warm_record(r);
        }
        std::hint::black_box(&mem);
        ((), n)
    });
}

/// Exercises every layer once at a small size: a replayed container, a
/// Table 1 grid decomposed into its public calls, the sweep runner, and
/// a serve round. Runs under the caller's current iteration id.
pub fn fixed_probe(tr: &mut Tracer, seed: u64, dir: &Path) -> Result<(), String> {
    let mut replay = ReplayWorkload::new(seed, PROBE_REPLAY_BUDGET, dir)?;
    replay.setup()?;
    replay.setup_traced(tr)?;
    replay.iterate_traced(tr)?;
    replay.layer_probes(tr)?;

    let text = crate::scenarios::table1(seed, PROBE_TABLE1_BUDGET);
    let scenario = tr.span("toml.parse", |_| {
        ScenarioDoc::parse_str(&text).and_then(|d| d.sweep_scenario())
    });
    let scenario = scenario.map_err(|e| e.to_string())?;
    let report = traced_sweep(tr, &scenario);
    let csv = tr.span("cli.report", |_| report.to_csv_stable());
    if let Some(err) = crate::check::table1_ipc_err_pct(&crate::check::csv_rows(&csv)?) {
        tr.note("core.ipc_err_table1_pct", err);
    }
    if sweep_probe(tr, &scenario)? != csv {
        return Err("fixed probe: SweepRunner's CSV differs from the decomposed sweep's".into());
    }

    let mut serve = ServeWorkload::new(seed, dir);
    serve.setup()?;
    serve.iterate()?;
    serve.iterate_traced(tr)?;
    serve.layer_probes(tr)?;
    serve.finish()
}
