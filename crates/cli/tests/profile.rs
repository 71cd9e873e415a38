//! Integration tests for `resim profile` (and `resim run --profile`,
//! `resim sweep --progress`): the observability surface of PR 8.
//!
//! The profiling contract: attaching the metrics recorder never
//! changes the simulated statistics, so everything `resim run` prints
//! before its stage-activity line reappears byte-identically at the
//! head of the `resim profile` output. Only the span table's wall
//! times are nondeterministic; stripping that one block makes two
//! profile runs comparable line for line.

use resim_cli::run_for_test;
use std::fs;
use std::path::PathBuf;

/// A custom `[pipeline]` scenario with no `[trace]` key: the trace is
/// generated in memory, so `profile` works without any setup.
const FUSED: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../examples/pipelines/fused.toml"
);

/// A per-test scratch directory (no tempfile crate in this workspace).
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("resim-profile-{test}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Drops the span-table block (header through the following blank
/// line) — the only output whose numbers depend on host wall time.
fn strip_span_table(out: &str) -> String {
    let mut kept = String::new();
    let mut in_table = false;
    for line in out.lines() {
        if line.starts_with("stage wall time") {
            in_table = true;
        }
        if !in_table {
            kept.push_str(line);
            kept.push('\n');
        }
        if in_table && line.is_empty() {
            in_table = false;
        }
    }
    kept
}

#[test]
fn profile_works_on_a_custom_pipeline_scenario() {
    let (code, out, err) = run_for_test(&["profile", "-s", FUSED]);
    assert_eq!(code, 0, "stderr: {err}");
    assert!(out.contains("generated in memory"), "{out}");
    for marker in [
        "# derived rates",
        "util_ifq_peak",
        "stage wall time (engine-side, per stage evaluation):",
        "occupancy heatmap over",
        "event journal:",
        "IPC ",
    ] {
        assert!(out.contains(marker), "missing {marker:?} in:\n{out}");
    }
    // The bounded journal records at least the per-cycle occupancy
    // samples and never silently loses the accounting line.
    assert!(
        out.contains("dropped (capacity 65536)"),
        "default journal capacity line missing:\n{out}"
    );
}

#[test]
fn profile_output_starts_with_the_plain_run_report() {
    let (code, run_out, _) = run_for_test(&["run", "-s", FUSED]);
    assert_eq!(code, 0);
    let (code, profile_out, _) = run_for_test(&["profile", "-s", FUSED]);
    assert_eq!(code, 0);

    // Banner + SimStats::report() are common; `run` then prints its
    // stage-activity line where `profile` starts the utilization table.
    let cut = run_out
        .find("stage activity (ops):")
        .expect("run output lost its stage-activity line");
    assert!(
        profile_out.starts_with(&run_out[..cut]),
        "recorder changed the simulated report:\nrun:\n{run_out}\nprofile:\n{profile_out}"
    );
}

#[test]
fn run_profile_flag_is_the_profile_subcommand() {
    let (code, via_flag, _) = run_for_test(&["run", "-s", FUSED, "--profile"]);
    assert_eq!(code, 0);
    let (code, via_subcommand, _) = run_for_test(&["profile", "-s", FUSED]);
    assert_eq!(code, 0);
    assert_eq!(
        strip_span_table(&via_flag),
        strip_span_table(&via_subcommand),
        "run --profile must match `resim profile` modulo wall times"
    );
}

#[test]
fn profile_exports_versioned_metrics_and_events() {
    let dir = scratch("exports");
    let metrics = dir.join("m.json");
    let events = dir.join("e.jsonl");
    let journal_cap = "4096";

    let (code, out, err) = run_for_test(&[
        "profile",
        "-s",
        FUSED,
        "--journal",
        journal_cap,
        "--metrics-out",
        metrics.to_str().unwrap(),
        "--events-out",
        events.to_str().unwrap(),
    ]);
    assert_eq!(code, 0, "stderr: {err}");
    assert!(out.contains("dropped (capacity 4096)"), "{out}");
    assert!(
        out.contains(&format!("wrote {}", metrics.display())),
        "{out}"
    );
    assert!(
        out.contains(&format!("wrote {}", events.display())),
        "{out}"
    );

    let m = fs::read_to_string(&metrics).unwrap();
    assert!(
        m.starts_with("{\n  \"schema\": \"resim.metrics/1\",\n"),
        "{m}"
    );
    for key in [
        "\"organization\": \"fused\"",
        "\"rates\"",
        "\"ipc\"",
        "\"counters\"",
        "\"histograms\"",
        "\"spans\"",
        "\"gauges\"",
        "\"journal\"",
        "\"source\": \"generated gzip\"",
    ] {
        assert!(m.contains(key), "metrics JSON missing {key}:\n{m}");
    }
    assert!(m.ends_with("}\n"), "document must end with a newline");

    let e = fs::read_to_string(&events).unwrap();
    let mut lines = e.lines();
    let header = lines.next().unwrap();
    assert!(
        header.starts_with("{\"schema\":\"resim.events/1\","),
        "{header}"
    );
    let mut n = 0;
    for line in lines {
        assert!(line.starts_with("{\"cycle\":"), "bad event line: {line}");
        assert!(line.ends_with('}'), "bad event line: {line}");
        n += 1;
    }
    assert!(n > 0, "no events retained");
    assert!(n <= 4096, "journal bound violated: {n} events");

    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn profile_replays_a_trace_file_and_reports_decode_counters() {
    let dir = scratch("replay");
    let scenario = dir.join("s.toml");
    let trace = dir.join("vpr.trace");
    let metrics = dir.join("m.json");
    fs::write(
        &scenario,
        "[engine]\npreset = \"paper-4wide\"\n\n[workload]\nname = \"vpr\"\nseed = 9\nbudget = 6000\n",
    )
    .unwrap();

    let (code, _, err) = run_for_test(&[
        "trace",
        "-s",
        scenario.to_str().unwrap(),
        "-o",
        trace.to_str().unwrap(),
    ]);
    assert_eq!(code, 0, "stderr: {err}");

    let (code, out, err) = run_for_test(&[
        "profile",
        "-s",
        scenario.to_str().unwrap(),
        "-t",
        trace.to_str().unwrap(),
        "--metrics-out",
        metrics.to_str().unwrap(),
    ]);
    assert_eq!(code, 0, "stderr: {err}");
    assert!(out.contains("replaying"), "{out}");

    // The FileSource decode counters surface in the trace section.
    let m = fs::read_to_string(&metrics).unwrap();
    assert!(m.contains("\"source\": \"file "), "{m}");
    let decoded = m
        .lines()
        .find_map(|l| l.trim().strip_prefix("\"decoded\": "))
        .and_then(|v| v.trim_end_matches(',').parse::<u64>().ok())
        .expect("decoded counter missing");
    assert!(decoded >= 6000, "decoded {decoded} < correct-path budget");

    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn sweep_progress_reports_both_phases() {
    // fused.toml's [sweep]: 1 workload point to generate, then a 2x2
    // grid (widths x pipelines) of simulate cells. -j 1 keeps the
    // sample order deterministic.
    let (code, out, err) = run_for_test(&["sweep", "-s", FUSED, "--progress", "-j", "1"]);
    assert_eq!(code, 0, "stderr: {err}");
    for marker in [
        "progress: tracegen 0/1",
        "progress: tracegen 1/1",
        "progress: simulate 0/4",
        "progress: simulate 4/4",
    ] {
        assert!(out.contains(marker), "missing {marker:?} in:\n{out}");
    }
    // Progress lines precede the report.
    let last_progress = out.rfind("progress: simulate 4/4").unwrap();
    let report = out.find("sweep:").unwrap_or(out.len());
    assert!(last_progress < report || report == out.len(), "{out}");

    // Without the flag, no progress lines at all.
    let (code, quiet, _) = run_for_test(&["sweep", "-s", FUSED, "-j", "1"]);
    assert_eq!(code, 0);
    assert!(!quiet.contains("progress:"), "{quiet}");
}
