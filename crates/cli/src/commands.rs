//! The subcommand implementations.
//!
//! Every command writes to a caller-supplied sink so the golden and
//! round-trip tests drive the exact binary code paths; failures are
//! plain strings already carrying file/line context.

use resim_sweep::ScenarioDoc;
use resim_core::{block_diagram, Engine, EngineConfig, SimStats, SIM_STATS_FIELDS};
use resim_obs::{write_events_jsonl, Counter, MetricsDoc, MetricsRecorder, TraceDoc};
use resim_sample::{run_sampled, SamplePlan};
use resim_serve::{Client, ResultCache, Server};
use resim_session::SessionRecord;
use resim_sweep::{CellMode, SweepProgress, SweepRunner};
use resim_toml::json::JsonValue;
use resim_trace::{
    save_trace_file, FileSource, Trace, TraceFileHeader, TraceSource, TRACE_CONTAINER_VERSION,
    TRACE_LAYOUT_VERSION,
};
use resim_tracegen::{generate_trace, TraceCache, TraceKey};
use std::fmt::Write as _;
use std::fs;
use std::io::Write;
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
        other => return Err(format!("--layout {other} is not supported (supported: 1, 2)")),
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

/// Resolves the input trace for `run`/`sample`: an explicit container
/// path (flag or `[trace]` key) is replayed, otherwise the trace is
/// generated in memory.
enum Source {
    File(Box<FileSource<std::io::BufReader<fs::File>>>, String),
    Generated(Trace),
}

fn resolve_source(doc: &ScenarioDoc, trace_flag: Option<&str>) -> Result<Source, String> {
    match doc.trace_path(trace_flag) {
        Some(path) => {
            let src = FileSource::open(path)
                .map_err(|e| format!("cannot replay trace {path:?}: {e}"))?;
            Ok(Source::File(Box::new(src), path.to_string()))
        }
        None => Ok(Source::Generated(doc.generate())),
    }
}

fn describe_source(doc: &ScenarioDoc, source: &Source) -> String {
    match source {
        Source::File(src, path) => {
            let h = src.header();
            let mut s = format!(
                "replaying {path}: {} records of \"{}\" (seed {})\n",
                h.records, h.workload, h.seed
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
    let mut engine = Engine::new(doc.engine.clone())
        .map_err(|e| format!("invalid engine configuration: {e}"))?;
    let source = resolve_source(&doc, trace_flag)?;
    let banner = describe_source(&doc, &source);

    let stats = match source {
        Source::File(mut src, path) => {
            let stats = engine.run(&mut *src);
            if let Some(e) = src.error() {
                return Err(format!("trace {path:?} ended abnormally: {e}"));
            }
            stats
        }
        Source::Generated(trace) => engine.run(trace.source()),
    };

    let mut s = banner;
    s.push_str(&stats.report());
    let activity = engine
        .scheduler()
        .activity()
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
    let mut engine = Engine::with_recorder(doc.engine.clone(), recorder)
        .map_err(|e| format!("invalid engine configuration: {e}"))?;
    let source = resolve_source(&doc, trace_flag)?;
    let banner = describe_source(&doc, &source);

    let t0 = std::time::Instant::now();
    let (stats, trace_doc) = match source {
        Source::File(mut src, path) => {
            let stats = engine.run(&mut *src);
            if let Some(e) = src.error() {
                return Err(format!("trace {path:?} ended abnormally: {e}"));
            }
            let trace_doc = TraceDoc {
                source: format!("file {path}"),
                records: stats.trace_records_consumed(),
                cache_hits: 0,
                cache_misses: 0,
                decoded: src.records_decoded(),
                fills: src.batch_fills(),
            };
            (stats, trace_doc)
        }
        Source::Generated(trace) => {
            let stats = engine.run(trace.source());
            let trace_doc = TraceDoc {
                source: format!("generated {}", doc.workload.name),
                records: stats.trace_records_consumed(),
                cache_hits: 0,
                cache_misses: 0,
                decoded: 0,
                fills: 0,
            };
            (stats, trace_doc)
        }
    };
    let wall = t0.elapsed();
    let rec = engine.recorder();

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
        mdoc.trace = trace_doc;
        if let Some(path) = metrics_out {
            fs::write(path, mdoc.to_json())
                .map_err(|e| format!("cannot write {path:?}: {e}"))?;
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
    let source = resolve_source(&doc, trace_flag)?;
    let banner = describe_source(&doc, &source);

    let sampled = match source {
        Source::File(mut src, path) => {
            let sampled = run_sampled(&doc.engine, &mut *src, &plan)
                .map_err(|e| format!("sampled run failed: {e}"))?;
            if let Some(e) = src.error() {
                return Err(format!("trace {path:?} ended abnormally: {e}"));
            }
            sampled
        }
        Source::Generated(trace) => run_sampled(&doc.engine, trace.source(), &plan)
            .map_err(|e| format!("sampled run failed: {e}"))?,
    };

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
        None => doc.sweep_threads().map_err(|e| e.display_in(scenario_path))?,
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
    let report = if progress {
        // Progress samples may come from worker threads; collect them
        // under a lock and flush into the output in arrival order.
        let lines: std::sync::Mutex<Vec<String>> = std::sync::Mutex::new(Vec::new());
        let report = runner
            .run_with_progress(&scenario, |p: &SweepProgress| {
                lines
                    .lock()
                    .expect("progress lines poisoned")
                    .push(format!("progress: {} {}/{}", p.phase.label(), p.done, p.total));
            })
            .map_err(|e| format!("invalid scenario: {e}"))?;
        for line in lines.into_inner().expect("progress lines poisoned") {
            let _ = writeln!(s, "{line}");
        }
        report
    } else {
        runner
            .run(&scenario)
            .map_err(|e| format!("invalid scenario: {e}"))?
    };

    s.push_str(&report.to_markdown());
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
        fs::write(path, report.to_markdown())
            .map_err(|e| format!("cannot write {path:?}: {e}"))?;
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
    let workload_known = scenario.workloads().iter().any(|w| w.name == header.workload);
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
    if let Some(e) = src.error() {
        return Err(format!("trace {path:?} ended abnormally: {e}"));
    }
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

/// Runs `source` on `config`, cycle-accurately or under `plan`.
///
/// Sampled runs record/replay the merged detailed-window statistics
/// (`SampledStats::sim`): the full per-window confidence data is a
/// deterministic function of the same inputs, so the merged stats are
/// the right bit-identity witness.
fn execute(
    config: &EngineConfig,
    source: impl TraceSource,
    plan: Option<&SamplePlan>,
) -> Result<SimStats, String> {
    match plan {
        None => {
            let mut engine = Engine::new(config.clone())
                .map_err(|e| format!("invalid engine configuration: {e}"))?;
            Ok(engine.run(source))
        }
        Some(plan) => run_sampled(config, source, plan)
            .map(|sampled| sampled.sim)
            .map_err(|e| format!("sampled run failed: {e}")),
    }
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
        Some(dir) => writeln!(s, "  cache    {dir} ({preloaded} entries in memory at start)"),
        None => writeln!(s, "  cache    in-memory only (results do not survive a restart)"),
    };
    emit(out, &s)?;
    // The banner must reach a supervising process (CI polls for it)
    // before run() blocks.
    out.flush().map_err(|e| format!("cannot write output: {e}"))?;

    server.run().map_err(|e| format!("serve loop failed: {e}"))?;

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
    let mut client =
        Client::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let mut s = String::new();

    if ping {
        let r = client.ping().map_err(|e| format!("ping failed: {e}"))?;
        let _ = writeln!(s, "{}", r.render());
    }

    if let Some(path) = scenario_path {
        let text = fs::read_to_string(path)
            .map_err(|e| format!("cannot read scenario {path:?}: {e}"))?;
        let mut lines: Vec<String> = Vec::new();
        let status = client
            .submit_and_wait(&text, |event| {
                if progress {
                    lines.push(format!(
                        "progress: {} {}/{}",
                        event.get("phase").and_then(JsonValue::as_str).unwrap_or("?"),
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
        let r = client.metrics().map_err(|e| format!("metrics failed: {e}"))?;
        let _ = writeln!(s, "{}", r.render());
    }

    if shutdown {
        client.shutdown().map_err(|e| format!("shutdown failed: {e}"))?;
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

    if let Some(n) = cell {
        if trace_flag.is_some() {
            return Err(
                "--cell regenerates the cell's trace; it cannot be combined with --trace"
                    .to_string(),
            );
        }
        let scenario = doc
            .sweep_scenario()
            .map_err(|e| e.display_in(scenario_path))?;
        scenario
            .validate()
            .map_err(|e| format!("invalid scenario: {e}"))?;
        let cells = scenario.cells();
        let Some(cell) = cells.get(n) else {
            return Err(format!(
                "--cell {n} is out of range: the [sweep] grid has {} cells",
                cells.len()
            ));
        };
        let config = &scenario.configs()[cell.config];
        let workload = &scenario.workloads()[cell.workload];
        let trace = generate_trace(workload.instantiate(cell.seed), cell.budget, &config.tracegen);
        rec.engine_fingerprint = config.engine.fingerprint();
        rec.tracegen_fingerprint = config.tracegen.fingerprint();
        rec.workload = workload.name.clone();
        rec.seed = cell.seed;
        rec.budget = cell.budget as u64;
        rec.cell_index = Some(cell.index as u64);
        rec.sample = match scenario.cell_mode(cell) {
            CellMode::Full => None,
            CellMode::Sampled(plan) => Some(plan),
        };
        rec.stats = execute(&config.engine, trace.source(), rec.sample.as_ref())?;
    } else {
        rec.engine_fingerprint = doc.engine.fingerprint();
        rec.sample = doc.sample;
        match resolve_source(&doc, trace_flag)? {
            Source::File(mut src, path) => {
                // The file's header, not the scenario, says what was
                // actually simulated — record it, and embed the whole
                // container so the session replays self-contained.
                let h = src.header().clone();
                rec.tracegen_fingerprint = h.tracegen_fingerprint;
                rec.workload = h.workload;
                rec.seed = h.seed;
                rec.budget = h.correct_records;
                rec.trace_container_version = h.container_version;
                rec.trace_layout_version = h.layout_version;
                rec.stats = execute(&doc.engine, &mut *src, rec.sample.as_ref())?;
                if let Some(e) = src.error() {
                    return Err(format!("trace {path:?} ended abnormally: {e}"));
                }
                rec.embedded_trace = Some(
                    fs::read(&path).map_err(|e| format!("cannot re-read trace {path:?}: {e}"))?,
                );
            }
            Source::Generated(trace) => {
                rec.tracegen_fingerprint = doc.tracegen.fingerprint();
                rec.workload = doc.workload.name.clone();
                rec.seed = doc.workload.seed;
                rec.budget = doc.workload.budget as u64;
                rec.stats = execute(&doc.engine, trace.source(), rec.sample.as_ref())?;
            }
        }
    }

    let default_path = match cell {
        Some(n) => format!("{}-cell{n}.rssn", rec.workload),
        None => format!("{}.rssn", rec.workload),
    };
    let path = out_path.unwrap_or(&default_path);
    rec.save(path).map_err(|e| format!("cannot write session: {e}"))?;

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
    let cell_note = match rec.cell_index {
        Some(i) => format!(", sweep cell {i}"),
        None => String::new(),
    };
    let _ = writeln!(s, "  mode     {mode}{cell_note}");
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

    let stats = if let Some(cell_index) = rec.cell_index {
        let scenario = doc
            .sweep_scenario()
            .map_err(|e| e.display_in(&embedded_name))?;
        let cells = scenario.cells();
        let n = usize::try_from(cell_index)
            .ok()
            .filter(|n| *n < cells.len())
            .ok_or_else(|| {
                format!(
                    "session records sweep cell {cell_index}, but the embedded scenario's grid \
                     has {} cells",
                    cells.len()
                )
            })?;
        let cell = &cells[n];
        let config = &scenario.configs()[cell.config];
        let workload = &scenario.workloads()[cell.workload];
        check_fingerprint("engine", rec.engine_fingerprint, config.engine.fingerprint())?;
        check_fingerprint(
            "tracegen",
            rec.tracegen_fingerprint,
            config.tracegen.fingerprint(),
        )?;
        if workload.name != rec.workload || cell.seed != rec.seed || cell.budget as u64 != rec.budget
        {
            return Err(format!(
                "session cell {n} resolves to workload \"{}\" seed {} budget {}, but the record \
                 says \"{}\" seed {} budget {}",
                workload.name, cell.seed, cell.budget, rec.workload, rec.seed, rec.budget,
            ));
        }
        let trace = generate_trace(workload.instantiate(cell.seed), cell.budget, &config.tracegen);
        execute(&config.engine, trace.source(), rec.sample.as_ref())?
    } else if let Some(bytes) = &rec.embedded_trace {
        // A self-contained file-frontend session: the engine still has
        // to match, but the trace bytes are authoritative as-is.
        check_fingerprint("engine", rec.engine_fingerprint, doc.engine.fingerprint())?;
        let mut src = FileSource::from_reader(std::io::Cursor::new(bytes.as_slice()))
            .map_err(|e| format!("embedded trace container is invalid: {e}"))?;
        let stats = execute(&doc.engine, &mut src, rec.sample.as_ref())?;
        if let Some(e) = src.error() {
            return Err(format!("embedded trace ended abnormally: {e}"));
        }
        stats
    } else {
        check_fingerprint("engine", rec.engine_fingerprint, doc.engine.fingerprint())?;
        check_fingerprint(
            "tracegen",
            rec.tracegen_fingerprint,
            doc.tracegen.fingerprint(),
        )?;
        if doc.workload.name != rec.workload
            || doc.workload.seed != rec.seed
            || doc.workload.budget as u64 != rec.budget
        {
            return Err(format!(
                "embedded scenario's [workload] is \"{}\" seed {} budget {}, but the record says \
                 \"{}\" seed {} budget {}",
                doc.workload.name,
                doc.workload.seed,
                doc.workload.budget,
                rec.workload,
                rec.seed,
                rec.budget,
            ));
        }
        let trace = doc.generate();
        execute(&doc.engine, trace.source(), rec.sample.as_ref())?
    };

    let mut s = String::new();
    let cell_note = match rec.cell_index {
        Some(i) => format!(", sweep cell {i}"),
        None => String::new(),
    };
    let _ = writeln!(
        s,
        "replaying {session_path}: workload \"{}\" (seed {}, budget {}){cell_note}",
        rec.workload, rec.seed, rec.budget,
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
