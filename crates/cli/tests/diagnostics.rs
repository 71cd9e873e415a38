//! Scenario-file problems must surface as `file:line:` diagnostics on
//! stderr with exit code 1 — the CLI's reason to exist over editing
//! Rust.

use resim_cli::run_for_test;
use std::fs;
use std::path::PathBuf;

fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("resim-diag-{test}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn run_on(test: &str, scenario: &str, args: &[&str]) -> (i32, String, String) {
    let dir = scratch(test);
    let path = dir.join("s.toml");
    fs::write(&path, scenario).unwrap();
    let mut full = args.to_vec();
    full.extend(["-s", path.to_str().unwrap()]);
    let result = run_for_test(&full);
    fs::remove_dir_all(&dir).unwrap();
    result
}

#[test]
fn typo_in_key_reports_file_and_line() {
    let (code, out, err) = run_on("typo", "[engine]\nwidth = 4\nwidht = 2\n", &["describe"]);
    assert_eq!(code, 1);
    assert_eq!(out, "");
    assert!(err.contains("s.toml:3:"), "diagnostic must carry file:line — got {err}");
    assert!(err.contains("widht"), "{err}");
}

#[test]
fn structural_config_errors_are_diagnostics_too() {
    let (code, _, err) = run_on("structural", "[engine]\nmem_read_ports = 4\n", &["describe"]);
    assert_eq!(code, 1);
    assert!(err.contains("memory ports"), "{err}");

    let (code, _, err) = run_on(
        "geometry",
        "[engine.predictor]\nkind = \"bimodal\"\nsize = 1000\n",
        &["describe"],
    );
    assert_eq!(code, 1);
    assert!(err.contains("s.toml:3:"), "{err}");
    assert!(err.contains("power of two"), "{err}");
}

#[test]
fn syntax_errors_carry_their_line() {
    let (code, _, err) = run_on("syntax", "[engine]\nwidth = \n", &["run"]);
    assert_eq!(code, 1);
    assert!(err.contains("s.toml:2:"), "{err}");
}

#[test]
fn missing_scenario_file_is_reported() {
    let (code, _, err) = run_for_test(&["run", "-s", "/nonexistent/s.toml"]);
    assert_eq!(code, 1);
    assert!(err.contains("cannot read scenario"), "{err}");
}

#[test]
fn sample_without_plan_is_pointed_out() {
    let (code, _, err) = run_on("noplan", "[engine]\nwidth = 4\n", &["sample"]);
    assert_eq!(code, 1);
    assert!(err.contains("[sample]"), "{err}");
}

#[test]
fn sweep_problems_resolve_lazily_with_context() {
    // `describe` must resolve the sweep and report its problems...
    let (code, _, err) = run_on(
        "badsweep",
        "[sweep]\nworkloads = [\"gzip\"]\nbudgets = [100]\nseeds = [1]\n",
        &["describe"],
    );
    assert_eq!(code, 1);
    assert!(err.contains("at least one configuration"), "{err}");

    // ...while `run` on the same file does not care.
    let (code, _, err) = run_on(
        "badsweep2",
        "[workload]\nbudget = 500\n[sweep]\nworkloads = [\"gzip\"]\nbudgets = [100]\nseeds = [1]\n",
        &["run"],
    );
    assert_eq!(code, 0, "stderr: {err}");
}

#[test]
fn replaying_a_foreign_trace_warns_about_the_fingerprint() {
    let dir = scratch("fingerprint");
    let perfect = dir.join("perfect.toml");
    let twolevel = dir.join("twolevel.toml");
    let trace = dir.join("t.trace");
    fs::write(
        &perfect,
        "[engine.predictor]\nkind = \"perfect\"\n[workload]\nbudget = 2000\n",
    )
    .unwrap();
    fs::write(&twolevel, "[workload]\nbudget = 2000\n").unwrap();

    let (code, _, err) = run_for_test(&[
        "trace", "-s", perfect.to_str().unwrap(), "-o", trace.to_str().unwrap(),
    ]);
    assert_eq!(code, 0, "stderr: {err}");

    // Replaying a perfect-predictor trace on the two-level scenario
    // runs, but says what it is doing.
    let (code, out, err) = run_for_test(&[
        "run", "-s", twolevel.to_str().unwrap(), "--trace", trace.to_str().unwrap(),
    ]);
    assert_eq!(code, 0, "stderr: {err}");
    assert!(out.contains("fingerprint mismatch"), "{out}");

    // The matching scenario replays without the warning.
    let (code, out, _) = run_for_test(&[
        "run", "-s", perfect.to_str().unwrap(), "--trace", trace.to_str().unwrap(),
    ]);
    assert_eq!(code, 0);
    assert!(!out.contains("fingerprint mismatch"), "{out}");

    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn replaying_a_stale_trace_warns_on_explicit_workload_mismatch() {
    let dir = scratch("stale");
    let scenario = dir.join("s.toml");
    let engine_only = dir.join("engine-only.toml");
    let trace = dir.join("t.trace");
    fs::write(&scenario, "[workload]\nname = \"gzip\"\nseed = 1\nbudget = 2000\n").unwrap();
    fs::write(&engine_only, "[engine]\nrb_size = 32\n").unwrap();

    // The trace is written with an overridden seed...
    let (code, _, err) = run_for_test(&[
        "trace", "-s", scenario.to_str().unwrap(),
        "--seed", "999",
        "-o", trace.to_str().unwrap(),
    ]);
    assert_eq!(code, 0, "stderr: {err}");

    // ...so replaying it against the scenario's [workload] warns.
    let (code, out, err) = run_for_test(&[
        "run", "-s", scenario.to_str().unwrap(), "--trace", trace.to_str().unwrap(),
    ]);
    assert_eq!(code, 0, "stderr: {err}");
    assert!(out.contains("seed 999") && out.contains("seed 1"), "{out}");

    // A scenario with no [workload] section replays anything quietly.
    let (code, out, err) = run_for_test(&[
        "run", "-s", engine_only.to_str().unwrap(), "--trace", trace.to_str().unwrap(),
    ]);
    assert_eq!(code, 0, "stderr: {err}");
    assert!(!out.contains("warning"), "{out}");

    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn replaying_an_alien_file_is_an_error() {
    let dir = scratch("alien");
    let scenario = dir.join("s.toml");
    let bogus = dir.join("bogus.trace");
    fs::write(&scenario, "[workload]\nbudget = 100\n").unwrap();
    fs::write(&bogus, b"ELF!not-a-trace").unwrap();
    let (code, _, err) = run_for_test(&[
        "run",
        "-s",
        scenario.to_str().unwrap(),
        "--trace",
        bogus.to_str().unwrap(),
    ]);
    assert_eq!(code, 1);
    assert!(err.contains("RSTR"), "magic mismatch must be explained: {err}");
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_roster_without_a_divider_is_a_diagnostic_not_a_deadlock() {
    let (code, out, err) = run_on(
        "nodiv-run",
        "[workload]\nbudget = 2000\n\n[engine.fu]\ndivs = 0\n",
        &["run"],
    );
    assert_eq!(code, 1, "stdout: {out}\nstderr: {err}");
    assert!(err.contains("s.toml:4:"), "{err}");
    assert!(err.contains("at least one divider"), "{err}");

    let (code, out, err) = run_on(
        "nodiv-sweep",
        "[sweep]\nworkloads = [\"gzip\"]\nbudgets = [2000]\nseeds = [1]\n\n\
         [sweep.grid]\nrb_sizes = [16]\n\n[sweep.grid.base.fu]\ndivs = 0\n",
        &["sweep"],
    );
    assert_eq!(code, 1, "stdout: {out}\nstderr: {err}");
    assert!(err.contains("s.toml:9:"), "{err}");
    assert!(err.contains("at least one divider"), "{err}");
}

#[test]
fn sweep_notes_an_engine_table_its_grid_does_not_use() {
    let sweep = "[sweep]\nworkloads = [\"gzip\"]\nbudgets = [500]\nseeds = [1]\n\
                 [sweep.grid]\nrb_sizes = [16]\n";
    let note = "note: [engine] differs from the sweep grid's base";
    let dir = scratch("engine-note-csv");
    let csv = |name: &str| dir.join(name).to_str().unwrap().to_string();

    let (code, out, err) = run_on(
        "engine-ignored",
        &format!("[engine.fu]\nalu_latency = 5\n{sweep}"),
        &["sweep", "--stable-csv", &csv("ignored.csv")],
    );
    assert_eq!(code, 0, "stderr: {err}");
    assert!(out.contains(note), "{out}");
    assert!(out.contains("[sweep.grid.base]"), "{out}");

    // An [engine] that is the grid base gets no note, and the note
    // changes nothing the cells report.
    let (code, out, err) = run_on(
        "engine-agrees",
        &format!("[engine]\npreset = \"paper-4wide\"\n{sweep}"),
        &["sweep", "--stable-csv", &csv("agreed.csv")],
    );
    assert_eq!(code, 0, "stderr: {err}");
    assert!(!out.contains("note:"), "{out}");
    assert_eq!(
        fs::read_to_string(csv("ignored.csv")).unwrap(),
        fs::read_to_string(csv("agreed.csv")).unwrap()
    );
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn oversized_allocating_keys_are_diagnostics_not_crashes() {
    // Each of these keys sizes an allocation, so an unbounded value
    // would panic on capacity overflow or abort out of memory. `{v}` is
    // replaced by each oversized value; `line` is where the diagnostic
    // must point.
    let cases: [(&str, &str, usize); 12] = [
        ("rb_size", "[engine]\nrb_size = {v}\n", 1),
        ("ifq_size", "[engine]\nifq_size = {v}\n", 1),
        ("lsq_size", "[engine]\nlsq_size = {v}\n", 1),
        ("divs", "[engine.fu]\ndivs = {v}\n", 1),
        ("l1_size", "[engine.predictor]\nl1_size = {v}\n", 2),
        ("l2_size", "[engine.predictor]\nl2_size = {v}\n", 2),
        ("btb_entries", "[engine.predictor]\nbtb_entries = {v}\n", 2),
        ("ras_entries", "[engine.predictor]\nras_entries = {v}\n", 2),
        ("size", "[engine.predictor]\nkind = \"bimodal\"\nsize = {v}\n", 3),
        (
            "size_bytes",
            "[engine.memory]\nkind = \"split\"\n[engine.memory.l1d]\nsize_bytes = {v}\n",
            4,
        ),
        ("wrong_path_len", "[tracegen]\nwrong_path_len = {v}\n", 2),
        (
            "rb_size",
            "[sweep]\nworkloads = [\"gzip\"]\nbudgets = [500]\nseeds = [1]\n\
             [sweep.grid]\nrb_sizes = [16]\n[sweep.grid.base]\nrb_size = {v}\n",
            7,
        ),
    ];
    for value in ["1099511627776", "9223372036854775807"] {
        for (i, (key, template, line)) in cases.iter().enumerate() {
            let scenario = template.replace("{v}", value);
            let verb = if scenario.starts_with("[sweep]") { "sweep" } else { "run" };
            let (code, out, err) = run_on(&format!("oversized-{i}-{value}"), &scenario, &[verb]);
            assert_eq!(code, 1, "{key} = {value}: stdout: {out}\nstderr: {err}");
            assert!(err.contains(&format!("s.toml:{line}:")), "{key} = {value}: {err}");
            assert!(err.contains(key), "{key} = {value}: {err}");
        }
    }
}

#[test]
fn the_removed_sweep_stats_key_is_an_unknown_key() {
    for mode in ["lite", "full"] {
        let scenario = format!(
            "[workload]\nbudget = 500\n[sweep]\nstats = \"{mode}\"\nworkloads = [\"gzip\"]\n\
             budgets = [500]\nseeds = [1]\n[[sweep.config]]\nname = \"a\"\n"
        );
        for verb in ["run", "sweep"] {
            let (code, out, err) = run_on(&format!("stats-{mode}-{verb}"), &scenario, &[verb]);
            assert_eq!(code, 1, "{verb} with stats = {mode:?}: stdout: {out}\nstderr: {err}");
            assert!(err.contains("s.toml:4:"), "{err}");
            assert!(err.contains("unknown key \"stats\""), "{err}");
        }
    }
}
