//! The session record/replay contract, end to end through the CLI:
//! `resim record` captures a run, `resim replay` re-executes it and
//! must find every statistics field bit-identical — across generated,
//! file-frontend (v1 and v2 containers), sampled, and sweep-cell runs.

use resim_cli::run_for_test;
use resim_session::SessionRecord;
use std::fs;
use std::path::{Path, PathBuf};

/// A per-test scratch directory (no tempfile crate in this workspace).
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("resim-session-{test}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn record_and_replay(dir: &Path, scenario: &str, extra: &[&str]) -> (String, String) {
    let scenario_path = dir.join("s.toml");
    let session_path = dir.join("s.rssn");
    fs::write(&scenario_path, scenario).unwrap();
    let mut args = vec![
        "record",
        "-s",
        scenario_path.to_str().unwrap(),
        "-o",
        session_path.to_str().unwrap(),
    ];
    args.extend_from_slice(extra);
    let (code, rec_out, err) = run_for_test(&args);
    assert_eq!(code, 0, "record failed: {err}");

    let (code, out, err) = run_for_test(&["replay", "-s", session_path.to_str().unwrap()]);
    assert_eq!(code, 0, "replay failed: {err}");
    assert!(out.contains("bit-identical"), "{out}");
    (rec_out, out)
}

#[test]
fn generated_run_replays_bit_identically() {
    let dir = scratch("generated");
    let (rec_out, out) = record_and_replay(
        &dir,
        "[workload]\nname = \"gzip\"\nseed = 7\nbudget = 4000\n",
        &[],
    );
    assert!(rec_out.contains("mode     full"), "{rec_out}");
    assert!(rec_out.contains("regenerated at replay"), "{rec_out}");
    assert!(out.contains("42/42 fields match"), "{out}");
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn sampled_run_replays_bit_identically() {
    let dir = scratch("sampled");
    let (rec_out, out) = record_and_replay(
        &dir,
        "[workload]\nname = \"vpr\"\nseed = 3\nbudget = 6000\n\
         [sample]\ninterval = 1000\ndetailed = 400\nperiod = 2\n",
        &[],
    );
    assert!(
        rec_out.contains("mode     sampled u1000d400k2f"),
        "{rec_out}"
    );
    assert!(out.contains("sampled plan u1000d400k2f"), "{out}");
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn file_frontend_run_embeds_the_container_and_replays() {
    for layout in ["1", "2"] {
        let dir = scratch(&format!("file-v{layout}"));
        let scenario = "[workload]\nname = \"parser\"\nseed = 11\nbudget = 3000\n";
        let scenario_path = dir.join("s.toml");
        let trace_path = dir.join("t.trace");
        fs::write(&scenario_path, scenario).unwrap();
        let (code, _, err) = run_for_test(&[
            "trace",
            "-s",
            scenario_path.to_str().unwrap(),
            "-o",
            trace_path.to_str().unwrap(),
            "--layout",
            layout,
        ]);
        assert_eq!(code, 0, "trace failed: {err}");

        let (rec_out, replay_out) =
            record_and_replay(&dir, scenario, &["-t", trace_path.to_str().unwrap()]);
        assert!(
            rec_out.contains(&format!("layout v{layout}")),
            "layout {layout}: {rec_out}"
        );
        assert!(rec_out.contains("trace    embedded"), "{rec_out}");
        assert!(replay_out.contains("42/42 fields match"), "{replay_out}");

        // The session embeds the container byte for byte.
        let session_path = dir.join("s.rssn");
        let session = SessionRecord::load(&session_path).unwrap();
        assert_eq!(
            session.embedded_trace.as_deref(),
            Some(fs::read(&trace_path).unwrap().as_slice()),
            "layout {layout}: embedded bytes differ from the file"
        );

        // The session is self-contained: replay works with the trace
        // file gone.
        fs::remove_file(&trace_path).unwrap();
        let (code, out, err) = run_for_test(&["replay", "-s", session_path.to_str().unwrap()]);
        assert_eq!(code, 0, "replay after deleting the trace: {err}");
        assert!(out.contains("42/42 fields match"), "{out}");
        fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn sweep_cell_records_and_replays() {
    let dir = scratch("cell");
    let scenario = "\
[sweep]
workloads = [\"gzip\", \"vpr\"]
budgets = [2500]
seeds = [2009]

[sweep.grid]
rb_sizes = [16, 32]
";
    let (rec_out, out) = record_and_replay(&dir, scenario, &["--cell", "3"]);
    assert!(
        rec_out.contains("  mode     full, sweep cell 3\n"),
        "{rec_out}"
    );
    assert!(
        out.contains("(seed 2009, budget 2500), sweep cell 3\n"),
        "{out}"
    );

    // Out-of-range cells are a clean runtime error.
    let scenario_path = dir.join("s.toml");
    let (code, _, err) = run_for_test(&[
        "record",
        "-s",
        scenario_path.to_str().unwrap(),
        "--cell",
        "99",
    ]);
    assert_eq!(code, 1);
    assert!(err.contains("out of range"), "{err}");
    fs::remove_dir_all(&dir).unwrap();
}

/// `--cell` resolves through the same grid as `resim replay`: a
/// document without `[sweep]` is one cell, full or sampled.
#[test]
fn single_cell_documents_record_and_replay_by_cell() {
    let dir = scratch("single-cell");
    for scenario in [
        "[workload]\nname = \"gzip\"\nseed = 5\nbudget = 3000\n",
        "[workload]\nname = \"vpr\"\nseed = 3\nbudget = 6000\n\
         [sample]\ninterval = 1000\ndetailed = 400\nperiod = 2\n",
    ] {
        // No `[sweep]`, so no "sweep" in the cell's name.
        let (rec_out, out) = record_and_replay(&dir, scenario, &["--cell", "0"]);
        assert!(rec_out.contains(", cell 0\n"), "{rec_out}");
        assert!(
            !rec_out.contains("sweep") && !out.contains("sweep"),
            "{rec_out}{out}"
        );
        assert!(out.contains(", cell 0\n"), "{out}");
        assert!(out.contains("42/42 fields match"), "{out}");

        let scenario_path = dir.join("s.toml");
        let (code, _, err) = run_for_test(&[
            "record",
            "-s",
            scenario_path.to_str().unwrap(),
            "--cell",
            "1",
        ]);
        assert_eq!(code, 1);
        assert!(
            err.contains("--cell 1 is out of range: the scenario has 1 cell(s)"),
            "{err}"
        );
    }
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn tampered_stats_make_replay_diverge() {
    let dir = scratch("diverge");
    let scenario = "[workload]\nname = \"gzip\"\nseed = 5\nbudget = 2000\n";
    record_and_replay(&dir, scenario, &[]);
    let session_path = dir.join("s.rssn");

    // Rewrite the session with one statistics field off by one — the
    // digest is recomputed by save(), so the file itself is valid and
    // the divergence must be caught by re-execution.
    let mut rec = SessionRecord::load(&session_path).unwrap();
    rec.stats.cycles += 1;
    rec.save(&session_path).unwrap();

    let (code, out, err) = run_for_test(&["replay", "-s", session_path.to_str().unwrap()]);
    assert_eq!(code, 1, "divergence must exit non-zero");
    assert!(out.contains("cycles: recorded"), "{out}");
    assert!(err.contains("DIVERGED"), "{err}");
    assert!(err.contains("1/42 fields differ"), "{err}");
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn fingerprint_drift_is_rejected_before_running() {
    let dir = scratch("drift");
    let scenario = "[workload]\nname = \"gzip\"\nseed = 5\nbudget = 2000\n";
    record_and_replay(&dir, scenario, &[]);
    let session_path = dir.join("s.rssn");

    let mut rec = SessionRecord::load(&session_path).unwrap();
    rec.engine_fingerprint ^= 1;
    rec.save(&session_path).unwrap();

    let (code, _, err) = run_for_test(&["replay", "-s", session_path.to_str().unwrap()]);
    assert_eq!(code, 1);
    assert!(err.contains("engine fingerprint mismatch"), "{err}");
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupt_session_files_are_typed_errors() {
    let dir = scratch("corrupt");
    let bogus = dir.join("bogus.rssn");
    fs::write(&bogus, b"not a session").unwrap();
    let (code, _, err) = run_for_test(&["replay", "-s", bogus.to_str().unwrap()]);
    assert_eq!(code, 1);
    assert!(err.contains("bogus.rssn"), "{err}");
    assert!(err.contains("not a session record"), "{err}");

    let missing = dir.join("missing.rssn");
    let (code, _, err) = run_for_test(&["replay", "-s", missing.to_str().unwrap()]);
    assert_eq!(code, 1);
    assert!(err.contains("missing.rssn"), "{err}");
    fs::remove_dir_all(&dir).unwrap();
}
