//! The subcommand implementations.
//!
//! Every command writes to a caller-supplied sink so the golden and
//! round-trip tests drive the exact binary code paths; failures are
//! plain strings already carrying file/line context.

use resim_core::{block_diagram, Engine, EngineConfig, SIM_STATS_FIELDS};
use resim_obs::{write_events_jsonl, Counter, MetricsDoc, MetricsRecorder, TraceDoc};
use resim_sample::{simulate, RunOutcome, SampleError, SamplePlan};
use resim_serve::{Client, ResultCache, Server};
use resim_session::SessionRecord;
use resim_sweep::{ScenarioDoc, SweepProgress, SweepRunner, WorkloadPoint, MAX_BUDGET};
use resim_toml::json::JsonValue;
use resim_trace::{
    save_trace_file, FileError, FileSource, Trace, TraceFileHeader, TraceSource,
    TRACE_CONTAINER_VERSION, TRACE_LAYOUT_VERSION,
};
use resim_tracegen::{generate_trace, TraceCache, TraceGenConfig, TraceKey};
use std::fmt::Write as _;
use std::fs;
use std::io::{self, Read, Write};
use std::sync::Arc;

pub(crate) type CmdResult = Result<(), String>;

/// Loads and resolves a scenario file, contextualizing every diagnostic
/// with the path.
pub(crate) fn load_scenario(path: &str) -> Result<ScenarioDoc, String> {
    let input =
        fs::read_to_string(path).map_err(|e| format!("cannot read scenario {path:?}: {e}"))?;
    ScenarioDoc::parse_str(&input).map_err(|e| e.display_in(path))
}

fn emit(out: &mut dyn Write, text: &str) -> CmdResult {
    out.write_all(text.as_bytes())
        .map_err(|e| format!("cannot write output: {e}"))
}

/// `resim trace`: generate the scenario's workload trace and write the
/// container.
pub(crate) fn trace(
    scenario_path: &str,
    out_path: Option<&str>,
    budget: Option<usize>,
    seed: Option<u64>,
    layout: Option<u16>,
    out: &mut dyn Write,
) -> CmdResult {
    let mut doc = load_scenario(scenario_path)?;
    if let Some(b) = budget {
        if b == 0 {
            return Err("--budget must be non-zero".to_string());
        }
        if b > MAX_BUDGET {
            return Err(format!("--budget {b} exceeds the maximum of {MAX_BUDGET}"));
        }
        doc.workload.budget = b;
    }
    if let Some(s) = seed {
        doc.workload.seed = s;
    }
    let default_path = format!("{}.trace", doc.workload.name);
    let path = out_path
        .or(doc.trace_file.as_deref())
        .unwrap_or(&default_path);

    let trace = doc.generate();
    let encoded = match layout.unwrap_or(TRACE_LAYOUT_VERSION) {
        resim_trace::TRACE_LAYOUT_VERSION => trace.encode(),
        resim_trace::TRACE_LAYOUT_VERSION_V2 => trace.encode_v2(),
        other => {
            return Err(format!(
                "--layout {other} is not supported (supported: 1, 2)"
            ))
        }
    };
    let header = TraceFileHeader::for_trace(
        &encoded,
        doc.workload.name.clone(),
        doc.workload.seed,
        doc.tracegen.fingerprint(),
    )
    .with_correct_records(trace.correct_path_len() as u64);
    save_trace_file(path, &header, &encoded)
        .map_err(|e| format!("cannot write trace {path:?}: {e}"))?;

    let mut s = String::new();
    let _ = writeln!(
        s,
        "wrote {path}: workload \"{}\" (seed {}), tracegen fingerprint {:#018x}",
        doc.workload.name,
        doc.workload.seed,
        doc.tracegen.fingerprint(),
    );
    let _ = writeln!(
        s,
        "  records  {} ({} correct, {} wrong-path; expansion {:.2}x)",
        trace.len(),
        trace.correct_path_len(),
        trace.wrong_path_len(),
        trace.len() as f64 / trace.correct_path_len().max(1) as f64,
    );
    let _ = writeln!(
        s,
        "  encoded  {} bytes, {:.2} bits/instruction",
        header.encoded_len() + encoded.bytes().len(),
        encoded.stats().bits_per_instruction(),
    );
    // The default layout stays silent so existing tooling that parses
    // this banner is unaffected; opting in to v2 is worth a mention.
    if encoded.layout_version() != TRACE_LAYOUT_VERSION {
        let _ = writeln!(
            s,
            "  layout   v{} (delta/run-length body)",
            encoded.layout_version(),
        );
    }
    emit(out, &s)
}

/// A trace container as every run reads it, from a file or from the
/// bytes a session embeds. One reader type for both builds the engine
/// loop once for containers; the reader is called once per 16 KiB block.
type Container<'a> = FileSource<Box<dyn Read + 'a>>;

/// Reads the header of the container `reader` is positioned at.
fn container<'a>(reader: impl Read + 'a) -> Result<Container<'a>, FileError> {
    FileSource::from_reader(Box::new(reader) as Box<dyn Read + 'a>)
}

/// The diagnostic for a container at `path` that cannot be read.
fn cannot_replay(path: &str, e: FileError) -> String {
    format!("cannot replay trace {path:?}: {path}: {e}")
}

/// The input trace of one run: a container, or a trace generated in
/// memory. [`Source::simulate`] runs it, and every command that runs a
/// container checks its end through [`Source::check_end`].
enum Source<'a> {
    /// A container and the path it was read from; `None` for the
    /// container a session embeds.
    File(Box<Container<'a>>, Option<String>),
    /// A trace generated in memory.
    Generated(Trace),
}

impl Source<'_> {
    /// The input of `run`, `profile` and `sample`: an explicit container
    /// path (flag or `[trace]` key) is replayed, otherwise the trace is
    /// generated in memory.
    fn resolve(doc: &ScenarioDoc, trace_flag: Option<&str>) -> Result<Self, String> {
        match doc.trace_path(trace_flag) {
            Some(path) => {
                let file = fs::File::open(path)
                    .map_err(|e| cannot_replay(path, FileError::Io(e.kind())))?;
                let src =
                    container(io::BufReader::new(file)).map_err(|e| cannot_replay(path, e))?;
                Ok(Source::File(Box::new(src), Some(path.to_string())))
            }
            None => Ok(Source::Generated(doc.generate())),
        }
    }

    /// Fails if the container stopped before its declared end: a cut or
    /// corrupt body is a diagnostic, never a silently short run.
    fn check_end<R: Read>(src: &FileSource<R>, path: Option<&str>) -> CmdResult {
        let Some(e) = src.error() else {
            return Ok(());
        };
        let name = path.map_or_else(|| "embedded trace".to_string(), |p| format!("trace {p:?}"));
        Err(format!("{name} ended abnormally: {e}"))
    }

    /// Runs the trace on `config`, every record in detail or under
    /// `plan`. A failed run reads `invalid engine configuration: …`
    /// without a plan and `sampled run failed: …` with one.
    fn simulate(
        self,
        config: &EngineConfig,
        plan: Option<&SamplePlan>,
    ) -> Result<RunOutcome, String> {
        let outcome = match self {
            Source::File(mut src, path) => {
                let outcome = simulate(config, &mut *src, plan);
                Self::check_end(&src, path.as_deref())?;
                outcome
            }
            Source::Generated(trace) => simulate(config, trace.source(), plan),
        };
        outcome.map_err(|e| match (plan, e) {
            (None, SampleError::Config(e)) => format!("invalid engine configuration: {e}"),
            (_, e) => format!("sampled run failed: {e}"),
        })
    }

    /// The `replaying …` / `generated in memory …` banner of `run`,
    /// `profile` and `sample`, with warnings when a container does not
    /// match the scenario.
    fn describe(&self, doc: &ScenarioDoc) -> String {
        match self {
            Source::File(src, path) => {
                let h = src.header();
                let mut s = format!(
                    "replaying {}: {} records of \"{}\" (seed {})\n",
                    path.as_deref().unwrap_or("embedded trace"),
                    h.records,
                    h.workload,
                    h.seed
                );
                // Same contract the sweep preloader enforces via the cache
                // key: wrong-path tags are only meaningful when the trace
                // was generated under the scenario's tracegen settings.
                if h.tracegen_fingerprint != doc.tracegen.fingerprint() {
                    s.push_str(
                        "warning: trace was generated under a different tracegen configuration \
                         (fingerprint mismatch); wrong-path behaviour may not match this scenario\n",
                    );
                }
                // An explicitly pinned [workload] is cross-checked too, so
                // replaying a stale file after editing the scenario does
                // not silently attribute results to the wrong inputs.
                if doc.workload_explicit
                    && (h.workload != doc.workload.name
                        || h.seed != doc.workload.seed
                        || h.correct_records != doc.workload.budget as u64)
                {
                    let _ = writeln!(
                        s,
                        "warning: trace file is \"{}\" seed {} budget {}, but the scenario's \
                         [workload] says \"{}\" seed {} budget {}",
                        h.workload,
                        h.seed,
                        h.correct_records,
                        doc.workload.name,
                        doc.workload.seed,
                        doc.workload.budget,
                    );
                }
                s
            }
            Source::Generated(trace) => format!(
                "generated in memory: {} records of \"{}\" (seed {})\n",
                trace.len(),
                doc.workload.name,
                doc.workload.seed
            ),
        }
    }
}

/// `resim run`: full-detail simulation. With `--profile` the run is
/// executed through the `resim profile` path instead (same simulated
/// statistics — the recorder only observes).
pub(crate) fn run(
    scenario_path: &str,
    trace_flag: Option<&str>,
    profile_flag: bool,
    out: &mut dyn Write,
) -> CmdResult {
    if profile_flag {
        return profile(scenario_path, trace_flag, None, None, None, out);
    }
    let doc = load_scenario(scenario_path)?;
    let source = Source::resolve(&doc, trace_flag)?;
    let banner = source.describe(&doc);
    let RunOutcome {
        stats, activity, ..
    } = source.simulate(&doc.engine, None)?;

    let mut s = banner;
    s.push_str(&stats.report());
    let activity = activity
        .into_iter()
        .map(|(stage, ops)| format!("{stage} {ops}"))
        .collect::<Vec<_>>()
        .join(", ");
    let _ = writeln!(s, "stage activity (ops): {activity}");
    let _ = writeln!(s, "\nIPC {:.4} over {} cycles", stats.ipc(), stats.cycles);
    emit(out, &s)
}

/// `resim profile`: the `run` simulation with a collecting
/// [`MetricsRecorder`] attached — per-stage wall time, occupancy
/// heatmap, derived rates and the versioned metrics/events exports.
pub(crate) fn profile(
    scenario_path: &str,
    trace_flag: Option<&str>,
    metrics_out: Option<&str>,
    events_out: Option<&str>,
    journal: Option<usize>,
    out: &mut dyn Write,
) -> CmdResult {
    let doc = load_scenario(scenario_path)?;
    let recorder = match journal {
        Some(cap) => MetricsRecorder::with_journal_capacity(cap),
        None => MetricsRecorder::new(),
    };
    let mut engine = Engine::observed(doc.engine.clone(), recorder)
        .map_err(|e| format!("invalid engine configuration: {e}"))?;
    let source = Source::resolve(&doc, trace_flag)?;
    let banner = source.describe(&doc);

    let t0 = std::time::Instant::now();
    let (stats, trace_doc) = match source {
        Source::File(mut src, path) => {
            let stats = engine.run(&mut *src);
            Source::check_end(&src, path.as_deref())?;
            let trace_doc = TraceDoc {
                source: format!("file {}", path.unwrap_or_default()),
                decoded: src.records_decoded(),
                fills: src.batch_fills(),
                ..TraceDoc::default()
            };
            (stats, trace_doc)
        }
        Source::Generated(trace) => {
            let source = format!("generated {}", doc.workload.name);
            let trace_doc = TraceDoc {
                source,
                ..TraceDoc::default()
            };
            (engine.run(trace.source()), trace_doc)
        }
    };
    let wall = t0.elapsed();
    let rec = engine.recorder().expect("the engine is observed");

    let mut s = banner;
    s.push_str(&stats.report());
    s.push_str(&stats.utilization_report(
        doc.engine.ifq_size,
        doc.engine.rb_size,
        doc.engine.lsq_size,
    ));
    s.push('\n');
    s.push_str(&rec.render_span_table());
    s.push('\n');
    s.push_str(&rec.occupancy().render([
        doc.engine.ifq_size as u64,
        doc.engine.rb_size as u64,
        doc.engine.lsq_size as u64,
    ]));
    let j = rec.journal();
    let _ = writeln!(
        s,
        "event journal: {} recorded, {} retained, {} dropped (capacity {})",
        j.recorded(),
        j.len(),
        j.dropped(),
        j.capacity(),
    );
    let _ = writeln!(s, "\nIPC {:.4} over {} cycles", stats.ipc(), stats.cycles);

    if metrics_out.is_some() || events_out.is_some() {
        let mut mdoc = MetricsDoc::new(scenario_path, doc.engine.pipeline.name());
        mdoc.cycles = stats.cycles;
        mdoc.wall_ns = u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX);
        mdoc.rate("ipc", stats.ipc())
            .rate("processed_per_cycle", stats.processed_per_cycle())
            .rate("wrong_path", stats.wrong_path_fraction())
            .rate("branch_mispredict", stats.mispredict_rate())
            .rate("il1_miss", stats.il1_miss_rate())
            .rate("dl1_miss", stats.dl1_miss_rate());
        mdoc.populate(rec);
        mdoc.trace = TraceDoc {
            records: stats.trace_records_consumed(),
            ..trace_doc
        };
        if let Some(path) = metrics_out {
            fs::write(path, mdoc.to_json()).map_err(|e| format!("cannot write {path:?}: {e}"))?;
            let _ = writeln!(s, "wrote {path}");
        }
        if let Some(path) = events_out {
            fs::write(path, write_events_jsonl(rec.journal()))
                .map_err(|e| format!("cannot write {path:?}: {e}"))?;
            let _ = writeln!(s, "wrote {path}");
        }
    }
    emit(out, &s)
}

/// `resim sample`: SMARTS sampled simulation under the `[sample]` plan.
pub(crate) fn sample(
    scenario_path: &str,
    trace_flag: Option<&str>,
    out: &mut dyn Write,
) -> CmdResult {
    let doc = load_scenario(scenario_path)?;
    let plan = doc
        .sample
        .ok_or_else(|| format!("scenario {scenario_path:?} has no [sample] section"))?;
    let source = Source::resolve(&doc, trace_flag)?;
    let banner = source.describe(&doc);
    let sampled = source
        .simulate(&doc.engine, Some(&plan))?
        .sampled
        .expect("a run with a plan is sampled");

    let mut s = banner;
    let (lo, hi) = sampled.ci95();
    let _ = writeln!(
        s,
        "plan {}: {} windows, {:.2}% of {} records detailed",
        plan.name(),
        sampled.n_windows(),
        100.0 * sampled.detailed_fraction(),
        sampled.records_total,
    );
    let _ = writeln!(
        s,
        "records detailed {} / warmed {} / skipped {}",
        sampled.records_detailed, sampled.records_warmed, sampled.records_skipped,
    );
    if sampled.full_coverage {
        let _ = writeln!(
            s,
            "IPC {:.4} (exact: 100% coverage is bit-identical to `resim run`)",
            sampled.sim.ipc(),
        );
    } else {
        let _ = writeln!(
            s,
            "IPC {:.4} ± {:.4} (95% CI [{lo:.4}, {hi:.4}])",
            sampled.mean_ipc(),
            sampled.ci95_half_width(),
        );
    }
    emit(out, &s)
}

/// `resim sweep`: run the `[sweep]` grid, preloading any matching trace
/// containers into the cache.
#[allow(clippy::too_many_arguments)]
pub(crate) fn sweep(
    scenario_path: &str,
    threads: Option<usize>,
    csv: Option<&str>,
    stable_csv: Option<&str>,
    md: Option<&str>,
    trace_file_flags: &[String],
    progress: bool,
    out: &mut dyn Write,
) -> CmdResult {
    let doc = load_scenario(scenario_path)?;
    let scenario = doc
        .sweep_scenario()
        .map_err(|e| e.display_in(scenario_path))?;
    let threads = match threads {
        Some(t) => t,
        None => doc
            .sweep_threads()
            .map_err(|e| e.display_in(scenario_path))?,
    };

    let mut trace_files = doc
        .sweep_trace_files()
        .map_err(|e| e.display_in(scenario_path))?;
    trace_files.extend(trace_file_flags.iter().cloned());

    let cache = Arc::new(TraceCache::new());
    let mut s = String::new();
    for note in scenario.grid_notes() {
        let _ = writeln!(s, "note: {note}");
    }
    for path in &trace_files {
        let preloaded = preload(&cache, &scenario, path)?;
        if preloaded == 0 {
            let _ = writeln!(
                s,
                "warning: {path} matches no grid cell (workload/seed/budget/tracegen \
                 must all appear in the scenario); it will be regenerated"
            );
        } else {
            let _ = writeln!(s, "preloaded {path} into {preloaded} trace-cache slot(s)");
        }
    }

    let runner = SweepRunner::with_cache(threads, cache);
    // Progress samples may come from worker threads; collect them under
    // a lock and flush into the output in arrival order.
    let lines = std::sync::Mutex::new(Vec::new());
    let report = runner
        .run_with_progress(&scenario, |p: &SweepProgress| {
            if progress {
                lines.lock().expect("progress lines poisoned").push(format!(
                    "progress: {} {}/{}",
                    p.phase.label(),
                    p.done,
                    p.total
                ));
            }
        })
        .map_err(|e| format!("invalid scenario: {e}"))?;
    for line in lines.into_inner().expect("progress lines poisoned") {
        let _ = writeln!(s, "{line}");
    }

    s.push_str(&report.to_markdown());
    let _ = writeln!(
        s,
        "engine runs {} for {} cells",
        runner.engine_runs(),
        report.cells.len()
    );
    if let Some(path) = csv {
        fs::write(path, report.to_csv()).map_err(|e| format!("cannot write {path:?}: {e}"))?;
        let _ = writeln!(s, "wrote {path}");
    }
    if let Some(path) = stable_csv {
        fs::write(path, report.to_csv_stable())
            .map_err(|e| format!("cannot write {path:?}: {e}"))?;
        let _ = writeln!(s, "wrote {path}");
    }
    if let Some(path) = md {
        fs::write(path, report.to_markdown()).map_err(|e| format!("cannot write {path:?}: {e}"))?;
        let _ = writeln!(s, "wrote {path}");
    }
    emit(out, &s)
}

/// Decodes `path` and inserts it under every grid cell key it can
/// serve; returns how many cache slots were filled.
fn preload(
    cache: &TraceCache,
    scenario: &resim_sweep::Scenario,
    path: &str,
) -> Result<usize, String> {
    let mut src =
        FileSource::open(path).map_err(|e| format!("cannot preload trace {path:?}: {e}"))?;
    let header = src.header().clone();

    // Decide from the header alone before decoding a single record, so
    // a mismatched multi-gigabyte container costs O(header), not a
    // full in-memory decode. An untrusted count that does not even fit
    // in usize cannot match any budget axis.
    let Ok(budget) = usize::try_from(header.correct_records) else {
        return Ok(0);
    };
    let workload_known = scenario
        .workloads()
        .iter()
        .any(|w| w.name == header.workload);
    let axes_match = workload_known
        && scenario.seed_values().contains(&header.seed)
        && scenario.budget_values().contains(&budget);
    let served: Vec<_> = scenario
        .configs()
        .iter()
        .filter(|p| p.tracegen.fingerprint() == header.tracegen_fingerprint)
        .map(|p| p.tracegen)
        .collect();
    if !axes_match || served.is_empty() {
        return Ok(0);
    }

    let records: Vec<_> = std::iter::from_fn(|| src.next_record()).collect();
    Source::check_end(&src, Some(path))?;
    let trace = Trace::from_records(records);

    let mut inserted = 0;
    for config in served {
        let key = TraceKey {
            workload: header.workload.clone(),
            seed: header.seed,
            n_correct: budget,
            config,
        };
        if cache.get(&key).is_none() {
            cache.insert(key, trace.clone());
            inserted += 1;
        }
    }
    Ok(inserted)
}

/// `resim serve`: run the persistent simulation service until a
/// `shutdown` verb arrives, then print what it served.
pub(crate) fn serve(
    addr: &str,
    cache_dir: Option<&str>,
    threads: Option<usize>,
    out: &mut dyn Write,
) -> CmdResult {
    let cache = match cache_dir {
        Some(dir) => ResultCache::with_dir(dir)
            .map_err(|e| format!("cannot open cache directory {dir:?}: {e}"))?,
        None => ResultCache::in_memory(),
    };
    let preloaded = cache.len();
    let server = Server::bind(addr, cache, threads.unwrap_or(0))
        .map_err(|e| format!("cannot bind {addr:?}: {e}"))?;

    let mut s = String::new();
    let _ = writeln!(s, "resim-serve listening on {}", server.local_addr());
    let _ = match cache_dir {
        Some(dir) => writeln!(
            s,
            "  cache    {dir} ({preloaded} entries in memory at start)"
        ),
        None => writeln!(
            s,
            "  cache    in-memory only (results do not survive a restart)"
        ),
    };
    emit(out, &s)?;
    // The banner must reach a supervising process (CI polls for it)
    // before run() blocks.
    out.flush()
        .map_err(|e| format!("cannot write output: {e}"))?;

    server
        .run()
        .map_err(|e| format!("serve loop failed: {e}"))?;

    let mut s = String::new();
    let _ = writeln!(
        s,
        "shut down cleanly: {} requests ({} errors), {} jobs submitted, {} completed",
        server.counter(Counter::ServeRequests),
        server.counter(Counter::ServeErrors),
        server.counter(Counter::ServeJobsSubmitted),
        server.counter(Counter::ServeJobsCompleted),
    );
    let _ = writeln!(
        s,
        "  cells    {} simulated, {} served from memory, {} from disk, {} rejected",
        server.counter(Counter::ServeCellsSimulated),
        server.counter(Counter::ServeCellsMemHits),
        server.counter(Counter::ServeCellsDiskHits),
        server.counter(Counter::ServeCacheRejected),
    );
    let _ = writeln!(s, "  cache    {} entries resident", server.cache().len());
    emit(out, &s)
}

/// Pulls a named integer out of a server response, defaulting to 0 so
/// a rendering change degrades the summary, not the command.
fn response_u64(v: &JsonValue, key: &str) -> u64 {
    v.get(key).and_then(JsonValue::as_u64).unwrap_or(0)
}

/// `resim submit`: drive a running server over one connection — ping,
/// scenario submission, metrics snapshot and shutdown, in that order,
/// each enabled by its flag.
#[allow(clippy::too_many_arguments)]
pub(crate) fn submit(
    scenario_path: Option<&str>,
    addr: &str,
    progress: bool,
    ping: bool,
    metrics: bool,
    shutdown: bool,
    out: &mut dyn Write,
) -> CmdResult {
    let mut client = Client::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let mut s = String::new();

    if ping {
        let r = client.ping().map_err(|e| format!("ping failed: {e}"))?;
        let _ = writeln!(s, "{}", r.render());
    }

    if let Some(path) = scenario_path {
        let text =
            fs::read_to_string(path).map_err(|e| format!("cannot read scenario {path:?}: {e}"))?;
        let mut lines: Vec<String> = Vec::new();
        let status = client
            .submit_and_wait(&text, |event| {
                if progress {
                    lines.push(format!(
                        "progress: {} {}/{}",
                        event
                            .get("phase")
                            .and_then(JsonValue::as_str)
                            .unwrap_or("?"),
                        response_u64(event, "done"),
                        response_u64(event, "total"),
                    ));
                }
            })
            .map_err(|e| format!("submission failed: {e}"))?;
        for line in lines {
            let _ = writeln!(s, "{line}");
        }
        if let Some(job_error) = status.get("job_error").and_then(JsonValue::as_str) {
            emit(out, &s)?;
            return Err(format!("job failed on the server: {job_error}"));
        }
        if let Some(csv) = status.get("csv").and_then(JsonValue::as_str) {
            s.push_str(csv);
        }
        let _ = writeln!(
            s,
            "job {}: {} cells, {} simulated, {} served from memory, {} from disk \
             (fingerprint {})",
            response_u64(&status, "job"),
            response_u64(&status, "cells"),
            response_u64(&status, "simulated"),
            response_u64(&status, "served_mem"),
            response_u64(&status, "served_disk"),
            status
                .get("fingerprint")
                .and_then(JsonValue::as_str)
                .unwrap_or("?"),
        );
    }

    if metrics {
        let r = client
            .metrics()
            .map_err(|e| format!("metrics failed: {e}"))?;
        let _ = writeln!(s, "{}", r.render());
    }

    if shutdown {
        client
            .shutdown()
            .map_err(|e| format!("shutdown failed: {e}"))?;
        let _ = writeln!(s, "server at {addr} is shutting down");
    }

    emit(out, &s)
}

/// `resim record`: execute the scenario's run (full, sampled, or one
/// sweep cell) and capture every nondeterministic input plus the
/// resulting statistics in an RSSN session file.
pub(crate) fn record(
    scenario_path: &str,
    trace_flag: Option<&str>,
    out_path: Option<&str>,
    cell: Option<usize>,
    out: &mut dyn Write,
) -> CmdResult {
    let scenario_text = fs::read_to_string(scenario_path)
        .map_err(|e| format!("cannot read scenario {scenario_path:?}: {e}"))?;
    let doc = ScenarioDoc::parse_str(&scenario_text).map_err(|e| e.display_in(scenario_path))?;

    let mut rec = SessionRecord {
        tool_version: crate::help::VERSION.to_string(),
        trace_container_version: TRACE_CONTAINER_VERSION,
        trace_layout_version: TRACE_LAYOUT_VERSION,
        scenario_toml: scenario_text,
        ..SessionRecord::default()
    };

    if cell.is_some() && trace_flag.is_some() {
        return Err(
            "--cell regenerates the cell's trace; it cannot be combined with --trace".to_string(),
        );
    }
    // A container is read once: the session embeds the very bytes the
    // run simulates, so a file replaced meanwhile cannot split them.
    let file = match doc.trace_path(trace_flag) {
        Some(path) if cell.is_none() => {
            let bytes = fs::read(path).map_err(|e| cannot_replay(path, FileError::Io(e.kind())))?;
            Some((path, bytes))
        }
        _ => None,
    };
    let (engine, source) = if let Some(n) = cell {
        let inputs = RunInputs::cell(&doc, scenario_path, n as u64, |cells| {
            format!("--cell {n} is out of range: the scenario has {cells} cell(s)")
        })?;
        inputs.stamp(&mut rec);
        rec.cell_index = Some(n as u64);
        inputs.into_run()
    } else {
        RunInputs::of(&doc).stamp(&mut rec);
        let source = match &file {
            Some((path, bytes)) => {
                let src = container(bytes.as_slice()).map_err(|e| cannot_replay(path, e))?;
                // The file's header, not the scenario, says what is
                // actually simulated — record it, and embed the whole
                // container so the session replays self-contained.
                let h = src.header().clone();
                rec.tracegen_fingerprint = h.tracegen_fingerprint;
                rec.workload = h.workload;
                rec.seed = h.seed;
                rec.budget = h.correct_records;
                rec.trace_container_version = h.container_version;
                rec.trace_layout_version = h.layout_version;
                Source::File(Box::new(src), Some(path.to_string()))
            }
            None => Source::Generated(doc.generate()),
        };
        (doc.engine.clone(), source)
    };
    // A sampled session records the merged detailed-window statistics:
    // the per-window data is a deterministic function of the same
    // inputs, so the merged stats are the bit-identity witness.
    rec.stats = source.simulate(&engine, rec.sample.as_ref())?.stats;
    rec.embedded_trace = file.map(|(_, bytes)| bytes);

    let default_path = match cell {
        Some(n) => format!("{}-cell{n}.rssn", rec.workload),
        None => format!("{}.rssn", rec.workload),
    };
    let path = out_path.unwrap_or(&default_path);
    rec.save(path)
        .map_err(|e| format!("cannot write session: {e}"))?;

    let mut s = String::new();
    let _ = writeln!(
        s,
        "recorded {path}: workload \"{}\" (seed {}, budget {})",
        rec.workload, rec.seed, rec.budget,
    );
    let mode = match &rec.sample {
        Some(plan) => format!("sampled {}", plan.name()),
        None => "full".to_string(),
    };
    let _ = writeln!(s, "  mode     {mode}{}", cell_note(&doc, rec.cell_index));
    let _ = match &rec.embedded_trace {
        Some(bytes) => writeln!(
            s,
            "  trace    embedded ({} bytes, container v{} layout v{})",
            bytes.len(),
            rec.trace_container_version,
            rec.trace_layout_version,
        ),
        None => writeln!(s, "  trace    regenerated at replay"),
    };
    let _ = writeln!(
        s,
        "  engine   fingerprint {:#018x}, tracegen {:#018x}",
        rec.engine_fingerprint, rec.tracegen_fingerprint,
    );
    let _ = writeln!(
        s,
        "  stats    digest {:#018x} ({} fields)",
        rec.stats.digest(),
        SIM_STATS_FIELDS.len(),
    );
    emit(out, &s)
}

/// What a generated run simulates, as a session records it: a grid
/// cell's inputs, or the document's own sections. `resim record` stamps
/// a session with them, and `resim replay` checks a session against
/// them before it runs anything.
struct RunInputs {
    engine: EngineConfig,
    tracegen: TraceGenConfig,
    workload: WorkloadPoint,
    seed: u64,
    budget: usize,
    plan: Option<SamplePlan>,
}

impl RunInputs {
    /// The run of the document's `[engine]`, `[tracegen]`, `[workload]`
    /// and `[sample]`.
    fn of(doc: &ScenarioDoc) -> Self {
        Self {
            engine: doc.engine.clone(),
            tracegen: doc.tracegen,
            workload: WorkloadPoint::named(&doc.workload.name)
                .expect("name validated at parse time"),
            seed: doc.workload.seed,
            budget: doc.workload.budget,
            plan: doc.sample,
        }
    }

    /// Cell `n` of the document's grid: the `[sweep]` grid when there
    /// is one, else the document's single cell. These are the indices
    /// `resim-serve` stores its entries under. `doc_name` names the
    /// document in diagnostics; `out_of_range` words the error for an
    /// index past the grid's cell count.
    fn cell(
        doc: &ScenarioDoc,
        doc_name: &str,
        n: u64,
        out_of_range: impl FnOnce(usize) -> String,
    ) -> Result<Self, String> {
        let scenario = doc.to_scenario().map_err(|e| e.display_in(doc_name))?;
        scenario
            .validate()
            .map_err(|e| format!("invalid scenario: {e}"))?;
        let cells = scenario.cells();
        let cell = usize::try_from(n)
            .ok()
            .and_then(|n| cells.get(n))
            .ok_or_else(|| out_of_range(cells.len()))?;
        let config = &scenario.configs()[cell.config];
        Ok(Self {
            engine: config.engine.clone(),
            tracegen: config.tracegen,
            workload: scenario.workloads()[cell.workload].clone(),
            seed: cell.seed,
            budget: cell.budget,
            plan: scenario.cell_mode(cell).plan().copied(),
        })
    }

    /// Records the inputs in `rec`.
    fn stamp(&self, rec: &mut SessionRecord) {
        rec.engine_fingerprint = self.engine.fingerprint();
        rec.tracegen_fingerprint = self.tracegen.fingerprint();
        rec.workload = self.workload.name.clone();
        rec.seed = self.seed;
        rec.budget = self.budget as u64;
        rec.sample = self.plan;
    }

    /// Fails unless `rec` was recorded from these machines and this
    /// workload, seed and budget; `what` introduces the inputs in the
    /// error (`what "gzip" seed 1 budget 500, but the record says …`).
    fn check(&self, rec: &SessionRecord, what: &str) -> CmdResult {
        let engine = self.engine.fingerprint();
        check_fingerprint("engine", rec.engine_fingerprint, engine)?;
        let tracegen = self.tracegen.fingerprint();
        check_fingerprint("tracegen", rec.tracegen_fingerprint, tracegen)?;
        let (name, seed, budget) = (&self.workload.name, self.seed, self.budget);
        if *name != rec.workload || seed != rec.seed || budget as u64 != rec.budget {
            return Err(format!(
                "{what} \"{name}\" seed {seed} budget {budget}, but the record says \"{}\" \
                 seed {} budget {}",
                rec.workload, rec.seed, rec.budget,
            ));
        }
        Ok(())
    }

    /// The engine to run and the trace it runs, generated as the sweep
    /// runner generates a cell's.
    fn into_run(self) -> (EngineConfig, Source<'static>) {
        let stream = self.workload.instantiate(self.seed);
        let trace = generate_trace(stream, self.budget, &self.tracegen);
        (self.engine, Source::Generated(trace))
    }
}

/// The `, sweep cell N` suffix of a cell session's summary lines; a
/// document without `[sweep]` has no sweep, so its one cell is `, cell 0`.
fn cell_note(doc: &ScenarioDoc, cell_index: Option<u64>) -> String {
    match cell_index {
        Some(i) if doc.has_sweep() => format!(", sweep cell {i}"),
        Some(i) => format!(", cell {i}"),
        None => String::new(),
    }
}

/// A fingerprint cross-check failure message, or `Ok`.
fn check_fingerprint(kind: &str, recorded: u64, resolved: u64) -> Result<(), String> {
    if recorded == resolved {
        Ok(())
    } else {
        Err(format!(
            "{kind} fingerprint mismatch: session recorded {recorded:#018x}, scenario resolves \
             to {resolved:#018x} (the {kind} configuration semantics changed since recording; \
             a replay would not re-execute the same machine)"
        ))
    }
}

/// `resim replay`: re-execute a recorded session and diff the resulting
/// statistics field for field against what was recorded.
pub(crate) fn replay(session_path: &str, out: &mut dyn Write) -> CmdResult {
    let rec = SessionRecord::load(session_path).map_err(|e| e.to_string())?;
    let embedded_name = format!("{session_path} (embedded scenario)");
    let doc =
        ScenarioDoc::parse_str(&rec.scenario_toml).map_err(|e| e.display_in(&embedded_name))?;

    let (engine, source) = match (rec.cell_index, &rec.embedded_trace) {
        (Some(n), _) => {
            let inputs = RunInputs::cell(&doc, &embedded_name, n, |cells| {
                format!(
                    "session records sweep cell {n}, but the embedded scenario's grid has \
                     {cells} cells"
                )
            })?;
            inputs.check(&rec, &format!("session cell {n} resolves to workload"))?;
            inputs.into_run()
        }
        (None, Some(bytes)) => {
            // A self-contained file-frontend session: the engine still
            // has to match, but the trace bytes are authoritative as-is.
            check_fingerprint("engine", rec.engine_fingerprint, doc.engine.fingerprint())?;
            let src = container(bytes.as_slice())
                .map_err(|e| format!("embedded trace container is invalid: {e}"))?;
            (doc.engine.clone(), Source::File(Box::new(src), None))
        }
        (None, None) => {
            let inputs = RunInputs::of(&doc);
            inputs.check(&rec, "embedded scenario's [workload] is")?;
            inputs.into_run()
        }
    };
    let stats = source.simulate(&engine, rec.sample.as_ref())?.stats;

    let mut s = String::new();
    let _ = writeln!(
        s,
        "replaying {session_path}: workload \"{}\" (seed {}, budget {}){}",
        rec.workload,
        rec.seed,
        rec.budget,
        cell_note(&doc, rec.cell_index),
    );
    if let Some(plan) = &rec.sample {
        let _ = writeln!(s, "  sampled plan {}", plan.name());
    }
    let diffs = rec.diff_stats(&stats);
    if diffs.is_empty() {
        let _ = writeln!(
            s,
            "SimStats bit-identical: {}/{} fields match (digest {:#018x})",
            SIM_STATS_FIELDS.len(),
            SIM_STATS_FIELDS.len(),
            stats.digest(),
        );
        emit(out, &s)
    } else {
        for d in &diffs {
            let _ = writeln!(s, "  {d}");
        }
        emit(out, &s)?;
        Err(format!(
            "replay DIVERGED from session {session_path:?}: {}/{} fields differ",
            diffs.len(),
            SIM_STATS_FIELDS.len(),
        ))
    }
}

/// `resim describe`: dump the resolved configuration without running.
pub(crate) fn describe(scenario_path: &str, out: &mut dyn Write) -> CmdResult {
    let doc = load_scenario(scenario_path)?;
    let mut s = block_diagram(&doc.engine);
    // The minor-cycle schedule grid (the paper's Figures 2-4, or the
    // scenario's custom [pipeline] laid out the same way).
    if let Ok(schedule) = doc.engine.pipeline.schedule(doc.engine.width) {
        s.push('\n');
        s.push_str(&schedule.render());
    }
    let _ = writeln!(s, "engine fingerprint: {:#018x}", doc.engine.fingerprint());
    let _ = writeln!(
        s,
        "trace generator: wrong-path block {}, synthesis seed {:#x}, fingerprint {:#018x}{}",
        doc.tracegen.wrong_path_len,
        doc.tracegen.seed,
        doc.tracegen.fingerprint(),
        if doc.tracegen.predictor == doc.engine.predictor {
            " (predictor matches engine)"
        } else {
            " (predictor DIFFERS from engine: wrong-path tags may be meaningless)"
        },
    );
    let _ = writeln!(
        s,
        "workload: \"{}\", seed {}, budget {}",
        doc.workload.name, doc.workload.seed, doc.workload.budget,
    );
    if let Some(file) = &doc.trace_file {
        let _ = writeln!(s, "trace file: {file}");
    }
    if let Some(plan) = &doc.sample {
        let _ = writeln!(
            s,
            "sample plan: {} ({:.2}% coverage)",
            plan.name(),
            100.0 * plan.coverage(),
        );
    }
    if doc.has_sweep() {
        let scenario = doc
            .sweep_scenario()
            .map_err(|e| e.display_in(scenario_path))?;
        let _ = writeln!(
            s,
            "sweep grid: {} configs x {} workloads x {} budgets x {} seeds x {} modes = {} cells",
            scenario.configs().len(),
            scenario.workloads().len(),
            scenario.budget_values().len(),
            scenario.seed_values().len(),
            scenario.mode_values().len(),
            scenario.len(),
        );
        for note in scenario.grid_notes() {
            let _ = writeln!(s, "note: {note}");
        }
    }
    emit(out, &s)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Scenario files cannot carry an invalid engine (parsing validates
    /// it), so the run path's diagnostics are pinned here.
    #[test]
    fn a_failed_run_keeps_each_commands_diagnostic() {
        let config = EngineConfig {
            width: 0,
            ..EngineConfig::paper_4wide()
        };
        let run = |plan: Option<&SamplePlan>| {
            let trace = ScenarioDoc::default().generate();
            Source::Generated(trace)
                .simulate(&config, plan)
                .unwrap_err()
        };
        let full = run(None);
        assert!(full.starts_with("invalid engine configuration: "), "{full}");
        let sampled = run(Some(&SamplePlan::systematic(1_000, 100, 2)));
        assert!(
            sampled.starts_with("sampled run failed: cannot build sampling engine: "),
            "{sampled}"
        );
    }
}
