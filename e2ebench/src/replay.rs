//! `replay`: a layout-v2 container written at set-up, then `resim run`
//! and `resim sample` on it every iteration.

use crate::probe::warm_probe;
use crate::spans::Tracer;
use crate::workload::{cli, note_sim, IterOut, Workload};
use resim_cli::ScenarioDoc;
use resim_core::{Engine, SimStats, DEFAULT_BATCH};
use resim_sample::{run_sampled, SamplePlan, SampledStats};
use resim_trace::{
    save_trace_file, FileSource, OpClass, OtherRecord, TraceFileHeader, TraceRecord, TraceSource,
};
use resim_tracegen::generate_trace;
use std::fs;
use std::path::Path;

/// The replay workload's files and text.
pub struct ReplayWorkload {
    text: String,
    scenario_path: String,
    trace_path: String,
    /// Where the traced set-up writes its own copy of the container.
    traced_trace_path: String,
    budget: usize,
}

impl ReplayWorkload {
    /// Replays a `budget`-instruction vpr container under `dir`; writes
    /// the scenario file the CLI reads.
    pub fn new(seed: u64, budget: usize, dir: &Path) -> Result<Self, String> {
        let path = |f: &str| -> String { dir.join(f).to_string_lossy().into_owned() };
        let trace_path = path("vpr.trace");
        let text = crate::scenarios::replay(seed, budget, &trace_path);
        let scenario_path = path("scenario.toml");
        fs::write(&scenario_path, &text).map_err(|e| e.to_string())?;
        Ok(Self {
            text,
            scenario_path,
            traced_trace_path: path("vpr-traced.trace"),
            trace_path,
            budget,
        })
    }
}

fn parse(text: &str) -> Result<ScenarioDoc, String> {
    ScenarioDoc::parse_str(text).map_err(|e| e.to_string())
}

/// Opens a container for streaming, as `resim run` and `resim sample` do.
fn open(path: &str) -> Result<FileSource<std::io::BufReader<fs::File>>, String> {
    FileSource::open(path).map_err(|e| format!("cannot replay trace {path:?}: {e}"))
}

/// Fails when the stream ended on a decode error rather than at the end.
fn ended_cleanly<R: std::io::Read>(src: &FileSource<R>, path: &str) -> Result<(), String> {
    match src.error() {
        Some(e) => Err(format!("trace {path:?} ended abnormally: {e}")),
        None => Ok(()),
    }
}

/// Streams a whole container through `FileSource::fill` in the engine's
/// batch size, handing each batch to `batch`.
fn for_each_batch(path: &str, mut batch: impl FnMut(&[TraceRecord])) -> Result<(), String> {
    let mut src = open(path)?;
    let filler = TraceRecord::Other(OtherRecord {
        pc: 0,
        class: OpClass::IntAlu,
        dest: None,
        src1: None,
        src2: None,
        wrong_path: false,
    });
    let mut buf = vec![filler; DEFAULT_BATCH];
    loop {
        let n = src.fill(&mut buf);
        batch(&buf[..n]);
        if n < buf.len() {
            break;
        }
    }
    ended_cleanly(&src, path)
}

/// Decodes a whole container into memory.
pub fn decode(path: &str) -> Result<Vec<TraceRecord>, String> {
    let mut records = Vec::new();
    for_each_batch(path, |b| records.extend_from_slice(b))?;
    Ok(records)
}

/// `resim run`'s simulation: the engine streaming the container.
fn run_file(doc: &ScenarioDoc, path: &str) -> Result<SimStats, String> {
    let mut engine = Engine::new(doc.engine.clone()).map_err(|e| e.to_string())?;
    let mut src = open(path)?;
    let stats = engine.run(&mut src);
    ended_cleanly(&src, path).map(|()| stats)
}

/// `resim sample`'s simulation: the sampler streaming the container.
fn sample_file(doc: &ScenarioDoc, plan: &SamplePlan, path: &str) -> Result<SampledStats, String> {
    let mut src = open(path)?;
    let sampled = run_sampled(&doc.engine, &mut src, plan).map_err(|e| e.to_string())?;
    ended_cleanly(&src, path).map(|()| sampled)
}

/// The deterministic part of `resim run`'s output: the statistics dump
/// and the closing IPC line.
fn stable_run(out: &str) -> Result<String, String> {
    let start = out
        .find("sim_cycle")
        .ok_or("`resim run` printed no statistics")?;
    let end = out
        .find("stage activity")
        .ok_or("`resim run` printed no stage activity")?;
    let ipc = out
        .lines()
        .rev()
        .find(|l| l.starts_with("IPC "))
        .ok_or("no IPC line")?;
    Ok(format!("{}{ipc}\n", &out[start..end]))
}

/// The deterministic part of `resim sample`'s output.
fn stable_sample(out: &str) -> String {
    out.lines()
        .filter(|l| {
            l.starts_with("plan ") || l.starts_with("records detailed") || l.starts_with("IPC ")
        })
        .map(|l| format!("{l}\n"))
        .collect()
}

/// `stable_sample` of what `resim sample` prints for `s` (a sampled,
/// not full-coverage, plan).
fn render_sample(plan_name: &str, s: &SampledStats) -> String {
    let (lo, hi) = s.ci95();
    format!(
        "plan {plan_name}: {} windows, {:.2}% of {} records detailed\n\
         records detailed {} / warmed {} / skipped {}\n\
         IPC {:.4} ± {:.4} (95% CI [{lo:.4}, {hi:.4}])\n",
        s.n_windows(),
        100.0 * s.detailed_fraction(),
        s.records_total,
        s.records_detailed,
        s.records_warmed,
        s.records_skipped,
        s.mean_ipc(),
        s.ci95_half_width(),
    )
}

impl Workload for ReplayWorkload {
    fn setup(&mut self) -> Result<(), String> {
        parse(&self.text)?;
        cli(&["trace", "-s", &self.scenario_path, "--layout", "2"]).map(|_| ())
    }

    fn setup_traced(&mut self, tr: &mut Tracer) -> Result<(), String> {
        let doc = tr.span("toml.parse", |_| parse(&self.text))?;
        let budget = self.budget;
        let stream = tr.counted("workloads.stream", |_| {
            let records: Vec<TraceRecord> = doc.workload_stream().take(budget).collect();
            let n = records.len() as u64;
            (records, n)
        });
        let trace = tr.counted("tracegen.gen", |_| {
            let trace = generate_trace(stream, budget, &doc.tracegen);
            let n = trace.len() as u64;
            (trace, n)
        });
        tr.note("tracegen.records", trace.len() as f64);
        tr.note("tracegen.correct", trace.correct_path_len() as f64);
        let encoded = tr.counted("trace.encode_v2", |_| {
            (trace.encode_v2(), trace.len() as u64)
        });
        tr.note("trace.bits", encoded.len_bits() as f64);
        tr.note("trace.instrs", encoded.len() as f64);
        let saved = tr.counted("trace.save", |_| {
            let header = TraceFileHeader::for_trace(
                &encoded,
                doc.workload.name.clone(),
                doc.workload.seed,
                doc.tracegen.fingerprint(),
            )
            .with_correct_records(trace.correct_path_len() as u64);
            (
                save_trace_file(&self.traced_trace_path, &header, &encoded),
                encoded.len(),
            )
        });
        saved.map_err(|e| e.to_string())?;
        let cli_bytes = fs::read(&self.trace_path).map_err(|e| e.to_string())?;
        let traced_bytes = fs::read(&self.traced_trace_path).map_err(|e| e.to_string())?;
        if cli_bytes != traced_bytes {
            return Err("the traced set-up wrote a different container than `resim trace`".into());
        }
        Ok(())
    }

    fn iterate(&mut self) -> Result<IterOut, String> {
        let run = cli(&["run", "-s", &self.scenario_path])?;
        let sample = cli(&["sample", "-s", &self.scenario_path])?;
        let stable = stable_run(&run)?;
        let committed = stable
            .lines()
            .find_map(|l| l.strip_prefix("sim_num_insn"))
            .and_then(|v| v.trim().parse().ok())
            .ok_or("`resim run` printed no sim_num_insn")?;
        Ok(IterOut {
            artifact: stable + &stable_sample(&sample),
            ops: 2,
            committed,
        })
    }

    fn iterate_traced(&mut self, tr: &mut Tracer) -> Result<IterOut, String> {
        let text = fs::read_to_string(&self.scenario_path).map_err(|e| e.to_string())?;
        let doc = tr.span("toml.parse", |_| parse(&text))?;
        let plan = doc
            .sample
            .ok_or("the replay scenario has no [sample] plan")?;
        let path = doc
            .trace_path(None)
            .ok_or("the replay scenario has no [trace] file")?;

        // Both runs stream the container through `FileSource`, as the
        // CLI does, so decoding is timed inside `core.run` and
        // `sample.run`; the layer probe times it on its own.
        let stats = tr.counted("core.run", |_| {
            let stats = run_file(&doc, path);
            let n = stats.as_ref().map_or(0, |s| s.trace_records_consumed());
            (stats, n)
        })?;
        note_sim(tr, &doc.engine, &stats);
        let run = tr.span("cli.report", |_| {
            format!(
                "{}IPC {:.4} over {} cycles\n",
                stats.report(),
                stats.ipc(),
                stats.cycles
            )
        });

        let sampled = tr.counted("sample.run", |_| {
            let sampled = sample_file(&doc, &plan, path);
            let n = sampled.as_ref().map_or(0, |s| s.records_total);
            (sampled, n)
        })?;
        tr.note("sample.detailed_frac", sampled.detailed_fraction());
        tr.note(
            "sample.ipc_err_pct",
            100.0 * (sampled.mean_ipc() - stats.ipc()).abs() / stats.ipc(),
        );
        let sample = tr.span("cli.report", |_| render_sample(&plan.name(), &sampled));
        Ok(IterOut {
            artifact: run + &sample,
            ops: 2,
            committed: stats.committed,
        })
    }

    /// Decoding on its own (one streaming pass in the engine's batch
    /// size, records discarded), then the functional-warmup layers over
    /// the decoded records.
    fn layer_probes(&mut self, tr: &mut Tracer) -> Result<(), String> {
        let path = &self.trace_path;
        tr.counted("trace.fill", |_| {
            let mut n = 0;
            let r = for_each_batch(path, |b| n += b.len() as u64);
            (r, n)
        })?;
        warm_probe(tr, &decode(path)?);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stable_parts_of_cli_output() {
        let run = "replaying x: 5 records\nsim_cycle 10\nsim_num_insn 5\nstage activity (ops): a 1\n\nIPC 0.5000 over 10 cycles\n";
        assert_eq!(
            stable_run(run).unwrap(),
            "sim_cycle 10\nsim_num_insn 5\nIPC 0.5000 over 10 cycles\n"
        );
        let sample = "replaying x\nplan u1d1k1f: 1 windows\nrecords detailed 1 / warmed 0 / skipped 0\nIPC 1.0 ± 0.1\n";
        assert_eq!(stable_sample(sample).lines().count(), 3);
    }
}
