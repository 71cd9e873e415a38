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
    assert!(
        err.contains("s.toml:3:"),
        "diagnostic must carry file:line — got {err}"
    );
    assert!(err.contains("widht"), "{err}");
}

#[test]
fn structural_config_errors_are_diagnostics_too() {
    let (code, _, err) = run_on(
        "structural",
        "[engine]\nmem_read_ports = 4\n",
        &["describe"],
    );
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
fn unknown_pipeline_names_list_every_nameable_organization() {
    // The names list is part of the diagnostic: the three built-ins,
    // plus the scenario's own `[pipeline]` when it declares one, for
    // both the `[engine]` key and the `[sweep.grid]` axis.
    let custom = "[pipeline]\nname = \"dual\"\n\
                  [[pipeline.stage]]\nname = \"Fetch\"\nslots = \"i\"\n\
                  [[pipeline.stage]]\nname = \"Commit\"\nslots = \"i+1\"\n";
    let sweep = "[sweep]\nworkloads = [\"gzip\"]\nbudgets = [500]\nseeds = [1]\n\
                 [sweep.grid]\npipelines = [\"improved\", \"x\"]\n";
    let builtins_only = "(expected simple, improved or optimized)";
    let with_custom = "(expected simple, improved, optimized or the scenario's \"dual\")";
    let cases = [
        (
            "engine",
            "[engine]\nwidth = 4\npipeline = \"x\"\n".to_string(),
            3,
            builtins_only,
        ),
        (
            "engine-custom",
            format!("{custom}[engine]\npipeline = \"x\"\n"),
            10,
            with_custom,
        ),
        ("grid", sweep.to_string(), 6, builtins_only),
        ("grid-custom", format!("{custom}{sweep}"), 14, with_custom),
    ];
    for (name, scenario, line, expected) in cases {
        let (code, out, err) = run_on(
            &format!("unknown-pipeline-{name}"),
            &scenario,
            &["describe"],
        );
        assert_eq!(code, 1, "{name}: stdout: {out}");
        let want = format!("s.toml:{line}: unknown pipeline \"x\" {expected}\n");
        assert!(err.contains(&want), "{name}: want {want:?}, got {err:?}");
    }
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
        "trace",
        "-s",
        perfect.to_str().unwrap(),
        "-o",
        trace.to_str().unwrap(),
    ]);
    assert_eq!(code, 0, "stderr: {err}");

    // Replaying a perfect-predictor trace on the two-level scenario
    // runs, but says what it is doing.
    let (code, out, err) = run_for_test(&[
        "run",
        "-s",
        twolevel.to_str().unwrap(),
        "--trace",
        trace.to_str().unwrap(),
    ]);
    assert_eq!(code, 0, "stderr: {err}");
    assert!(out.contains("fingerprint mismatch"), "{out}");

    // The matching scenario replays without the warning.
    let (code, out, _) = run_for_test(&[
        "run",
        "-s",
        perfect.to_str().unwrap(),
        "--trace",
        trace.to_str().unwrap(),
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
    fs::write(
        &scenario,
        "[workload]\nname = \"gzip\"\nseed = 1\nbudget = 2000\n",
    )
    .unwrap();
    fs::write(&engine_only, "[engine]\nrb_size = 32\n").unwrap();

    // The trace is written with an overridden seed...
    let (code, _, err) = run_for_test(&[
        "trace",
        "-s",
        scenario.to_str().unwrap(),
        "--seed",
        "999",
        "-o",
        trace.to_str().unwrap(),
    ]);
    assert_eq!(code, 0, "stderr: {err}");

    // ...so replaying it against the scenario's [workload] warns.
    let (code, out, err) = run_for_test(&[
        "run",
        "-s",
        scenario.to_str().unwrap(),
        "--trace",
        trace.to_str().unwrap(),
    ]);
    assert_eq!(code, 0, "stderr: {err}");
    assert!(out.contains("seed 999") && out.contains("seed 1"), "{out}");

    // A scenario with no [workload] section replays anything quietly.
    let (code, out, err) = run_for_test(&[
        "run",
        "-s",
        engine_only.to_str().unwrap(),
        "--trace",
        trace.to_str().unwrap(),
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
    assert!(
        err.contains("RSTR"),
        "magic mismatch must be explained: {err}"
    );
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
        (
            "size",
            "[engine.predictor]\nkind = \"bimodal\"\nsize = {v}\n",
            3,
        ),
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
            let verb = if scenario.starts_with("[sweep]") {
                "sweep"
            } else {
                "run"
            };
            let (code, out, err) = run_on(&format!("oversized-{i}-{value}"), &scenario, &[verb]);
            assert_eq!(code, 1, "{key} = {value}: stdout: {out}\nstderr: {err}");
            assert!(
                err.contains(&format!("s.toml:{line}:")),
                "{key} = {value}: {err}"
            );
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
            assert_eq!(
                code, 1,
                "{verb} with stats = {mode:?}: stdout: {out}\nstderr: {err}"
            );
            assert!(err.contains("s.toml:4:"), "{err}");
            assert!(err.contains("unknown key \"stats\""), "{err}");
        }
    }
}

/// Every penalty and latency key, as the section that holds it plus the
/// key's name in diagnostics; each scenario line sets `key = {v}`.
const TIMING_KEYS: [(&str, &str); 10] = [
    ("[engine]", "mispredict_penalty"),
    ("[engine]", "misfetch_penalty"),
    ("[engine.fu]", "alu_latency"),
    ("[engine.fu]", "mult_latency"),
    ("[engine.fu]", "div_latency"),
    ("[engine.memory]", "latency"),
    ("[engine.memory.l1i]", "l1i.hit_latency"),
    ("[engine.memory.l1i]", "l1i.miss_penalty"),
    ("[engine.memory.l1d]", "l1d.hit_latency"),
    ("[engine.memory.l1d]", "l1d.miss_penalty"),
];

/// The `[engine]` sections setting every key of `keys` to `value`, with
/// split caches when any key lives under an L1 table.
fn timing_sections(keys: &[(&str, &str)], value: &str) -> String {
    let mut out = String::new();
    let mut last = "";
    for &(section, key) in keys {
        if section.starts_with("[engine.memory.l1") && !out.contains("kind = \"split\"") {
            out.push_str("[engine.memory]\nkind = \"split\"\n");
        }
        if section != last {
            out.push_str(&format!("{section}\n"));
            last = section;
        }
        let name = key.rsplit('.').next().unwrap();
        out.push_str(&format!("{name} = {value}\n"));
    }
    out
}

#[test]
fn oversized_timing_keys_are_diagnostics_not_crashes() {
    // An unbounded penalty or latency stalls the pipeline past the
    // deadlock watchdog (a panic) or, near u32::MAX, for hours. The
    // engine table, line 1, carries the diagnostic; a sweep's carries it
    // at its `[sweep.grid.base]` line.
    let sweep = "[sweep]\nworkloads = [\"gzip\"]\nbudgets = [500]\nseeds = [1]\n\
                 [sweep.grid]\nrb_sizes = [16]\n";
    for value in ["16385", "4294967295"] {
        for (i, entry) in TIMING_KEYS.iter().enumerate() {
            let (_, key) = entry;
            let scenario = timing_sections(std::slice::from_ref(entry), value);
            let (code, out, err) = run_on(&format!("slow-{i}-{value}"), &scenario, &["run"]);
            assert_eq!(code, 1, "{key} = {value}: stdout: {out}\nstderr: {err}");
            assert!(err.contains("s.toml:1:"), "{key} = {value}: {err}");
            assert!(err.contains(key), "{key} = {value}: {err}");
        }
        let scenario = format!("{sweep}[sweep.grid.base]\nmispredict_penalty = {value}\n");
        let (code, _, err) = run_on(&format!("slow-sweep-{value}"), &scenario, &["sweep"]);
        assert_eq!(code, 1, "{err}");
        assert!(
            err.contains("s.toml:7:") && err.contains("mispredict_penalty"),
            "{err}"
        );
    }
}

#[test]
fn every_timing_key_at_its_bound_completes_on_every_workload() {
    // Both memory systems, every penalty and latency at the 2^14 bound
    // together: slow, but it must simulate to completion.
    for keys in [
        &TIMING_KEYS[..6],
        &[&TIMING_KEYS[..5], &TIMING_KEYS[6..]].concat(),
    ] {
        for workload in ["gzip", "bzip2", "parser", "vortex", "vpr"] {
            let scenario = format!(
                "{}[workload]\nname = \"{workload}\"\nbudget = 300\n",
                timing_sections(keys, "16384")
            );
            let (code, out, err) = run_on(&format!("bound-{workload}"), &scenario, &["run"]);
            assert_eq!(code, 0, "{workload}: stdout: {out}\nstderr: {err}");
            let committed = out.lines().find_map(|l| l.strip_prefix("sim_num_insn"));
            assert_eq!(committed.map(str::trim), Some("300"), "{workload}: {out}");
        }
    }
}

#[test]
fn over_bound_budgets_are_rejected_on_every_path() {
    let huge = i64::MAX.to_string();
    let over = (resim_sweep::MAX_BUDGET + 1).to_string();
    for budget in [huge.as_str(), over.as_str()] {
        let (code, _, err) = run_on(
            "workload-budget",
            &format!("[workload]\nname = \"gzip\"\nbudget = {budget}\n"),
            &["run"],
        );
        assert_eq!(code, 1);
        assert!(err.contains("s.toml:3:"), "{err}");
        assert!(err.contains("exceeds the maximum"), "{err}");

        let (code, _, err) = run_on(
            "sweep-budgets",
            &format!(
                "[sweep]\nworkloads = [\"gzip\"]\nbudgets = [1000, {budget}]\nseeds = [1]\n\
                 [[sweep.config]]\nname = \"a\"\n"
            ),
            &["describe"],
        );
        assert_eq!(code, 1);
        assert!(err.contains("s.toml:3:"), "{err}");
        assert!(err.contains("exceeds the maximum"), "{err}");

        let (code, _, err) = run_on("flag-budget", "", &["trace", "--budget", budget]);
        assert_eq!(code, 1);
        assert!(
            err.contains("--budget") && err.contains("exceeds the maximum"),
            "{err}"
        );
    }
}

/// A container cut mid-body is a diagnostic on every command that runs
/// it, never a silently short run: `run`, `profile`, `sample` and
/// `record` all exit 1 naming the file, and `record` writes no session.
#[test]
fn a_container_cut_mid_body_ends_abnormally_on_every_run_command() {
    for layout in ["1", "2"] {
        let dir = scratch(&format!("cut-v{layout}"));
        let scenario = dir.join("s.toml");
        let trace = dir.join("t.trace");
        let session = dir.join("s.rssn");
        let (s, t) = (scenario.to_str().unwrap(), trace.to_str().unwrap());
        fs::write(
            &scenario,
            "[workload]\nname = \"gzip\"\nseed = 3\nbudget = 4000\n\
             [sample]\ninterval = 1000\ndetailed = 400\nperiod = 2\n",
        )
        .unwrap();
        let (code, _, err) = run_for_test(&["trace", "-s", s, "-o", t, "--layout", layout]);
        assert_eq!(code, 0, "{err}");
        let bytes = fs::read(&trace).unwrap();
        fs::write(&trace, &bytes[..bytes.len() * 2 / 3]).unwrap();

        let expected = format!("trace {t:?} ended abnormally: ");
        for command in ["run", "profile", "sample", "record"] {
            let mut args = vec![command, "-s", s, "--trace", t];
            if command == "record" {
                args.extend(["-o", session.to_str().unwrap()]);
            }
            let (code, out, err) = run_for_test(&args);
            assert_eq!(code, 1, "{command} v{layout}: {out}{err}");
            assert_eq!(out, "", "{command} v{layout}");
            assert!(err.contains(&expected), "{command} v{layout}: {err}");
        }
        assert!(!session.exists(), "a failed record must write no session");
        fs::remove_dir_all(&dir).unwrap();
    }
}
