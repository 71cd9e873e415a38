//! Declarative `[pipeline]` fidelity: each built-in organization,
//! re-expressed as a literal `[pipeline]` TOML section, must be
//! indistinguishable from the enum path — bit-identical [`SimStats`]
//! and minor-cycle accounting on the golden 10k gzip fixture, and the
//! same schedule grid cells in `resim describe`.

use resim_cli::{run_for_test, ScenarioDoc};
use resim_core::{Engine, EngineConfig, PipelineDescription};
use std::fs;
use std::path::PathBuf;

/// A per-test scratch directory (no tempfile crate in this workspace).
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("resim-pipe-{test}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// The golden fixture workload (see `crates/core/tests/golden_stats.rs`):
/// gzip, seed 2009, 10 000 correct-path instructions.
const GOLDEN_WORKLOAD: &str = "
[workload]
name = \"gzip\"
seed = 2009
budget = 10000
";

/// Figure 2 (`2N+3`) spelled out literally. Built-in names are
/// reserved, so the declarative twin gets its own name; everything
/// else — rows, labels, formulas — is the built-in's table verbatim.
const SIMPLE_DECL: &str = r#"
[pipeline]
name = "simple-decl"
pipelined = false

[[pipeline.stage]]
name = "Fetch"
slots = "i"
[[pipeline.stage]]
name = "Decouple"
label = "DPL"
slots = "i+1"
[[pipeline.stage]]
name = "Dispatch"
slots = "i+2"
[[pipeline.stage]]
name = "Writeback"
slots = "i"
[[pipeline.stage]]
name = "Lsq_refresh"
label = "LR"
slots = "n"
ways = 1
[[pipeline.stage]]
name = "Issue-1"
label = "I"
slots = "n+1+i"
[[pipeline.stage]]
name = "Issue-2"
label = "E"
slots = "n+2+i"
[[pipeline.stage]]
name = "CacheAccess"
label = "CA"
slots = "n+3+i"
[[pipeline.stage]]
name = "Commit"
slots = "i+2"
"#;

/// Figure 3 (`N+4`).
const IMPROVED_DECL: &str = r#"
[pipeline]
name = "improved-decl"
pipelined = true

[[pipeline.stage]]
name = "Fetch"
slots = "i"
[[pipeline.stage]]
name = "Decouple"
label = "DPL"
slots = "i+1"
[[pipeline.stage]]
name = "Dispatch"
slots = "i+2"
[[pipeline.stage]]
name = "Lsq_refresh"
label = "LR"
slots = "0"
ways = 1
[[pipeline.stage]]
name = "Issue"
slots = "1+i"
[[pipeline.stage]]
name = "CacheAccess"
label = "CA"
slots = "2+i"
[[pipeline.stage]]
name = "Writeback"
slots = "3+i"
[[pipeline.stage]]
name = "Commit"
slots = "i+1"
[[pipeline.stage]]
name = "Bookkeeping"
label = "BK"
slots = "n+3"
ways = 1
"#;

/// Figure 4 (`N+3`), including the bars-loads flag and the truncated
/// cache-access row (ways 1..N share the issue column's ports).
const OPTIMIZED_DECL: &str = r#"
[pipeline]
name = "optimized-decl"
pipelined = true
restrict_first_slot_loads = true

[[pipeline.stage]]
name = "Fetch"
slots = "i"
[[pipeline.stage]]
name = "Decouple"
label = "DPL"
slots = "i+1"
[[pipeline.stage]]
name = "Dispatch"
slots = "i+2"
[[pipeline.stage]]
name = "Lsq_refresh"
label = "LR"
slots = "0"
ways = 1
[[pipeline.stage]]
name = "Issue"
slots = "i"
[[pipeline.stage]]
name = "CacheAccess"
label = "CA"
slots = "i+2"
ways = "n-1"
first_way = 1
[[pipeline.stage]]
name = "Writeback"
slots = "i+3"
[[pipeline.stage]]
name = "Commit"
slots = "i+1"
"#;

fn pairs() -> [(&'static str, PipelineDescription); 3] {
    [
        (SIMPLE_DECL, PipelineDescription::simple()),
        (IMPROVED_DECL, PipelineDescription::improved()),
        (OPTIMIZED_DECL, PipelineDescription::optimized()),
    ]
}

#[test]
fn declarative_builtins_are_bit_identical_on_the_golden_fixture() {
    for (decl, org) in pairs() {
        let doc = ScenarioDoc::parse_str(&format!("{decl}{GOLDEN_WORKLOAD}")).unwrap();
        let trace = doc.generate();

        let declarative = Engine::new(doc.engine.clone()).unwrap().run(trace.source());
        let reference_config = EngineConfig {
            pipeline: org.clone(),
            ..EngineConfig::paper_4wide()
        };
        let reference = Engine::new(reference_config.clone())
            .unwrap()
            .run(trace.source());

        assert_eq!(
            declarative,
            reference,
            "{}: SimStats must be bit-identical to the built-in {}",
            doc.engine.pipeline.name(),
            org.name(),
        );

        // Minor-cycle accounting: same per-major cost, same totals.
        let cost = doc.engine.minor_cycles_per_major();
        assert_eq!(cost, org.minor_cycles_per_major(doc.engine.width).unwrap());
        assert_eq!(declarative.minor_cycles, declarative.cycles * cost);
    }
}

#[test]
fn declarative_builtins_render_the_same_schedule_grid() {
    for (decl, org) in pairs() {
        let doc = ScenarioDoc::parse_str(decl).unwrap();
        for width in [2usize, 4, 8] {
            let custom = doc.engine.pipeline.schedule(width).unwrap();
            let builtin = org.schedule(width).unwrap();
            // The header names the organization (and the figure for
            // built-ins); every grid line below it must match exactly.
            let custom_render = custom.render();
            let builtin_render = builtin.render();
            let custom_grid: Vec<&str> = custom_render.lines().skip(1).collect();
            let builtin_grid: Vec<&str> = builtin_render.lines().skip(1).collect();
            assert_eq!(
                custom_grid,
                builtin_grid,
                "{} grid at width {width} differs from {}",
                doc.engine.pipeline.name(),
                org.name(),
            );
            assert_eq!(custom.minor_cycles(), builtin.minor_cycles());
        }
    }
}

#[test]
fn describe_renders_the_declarative_grid() {
    let dir = scratch("describe");
    let path = dir.join("s.toml");
    fs::write(&path, format!("{OPTIMIZED_DECL}{GOLDEN_WORKLOAD}")).unwrap();

    let (code, out, err) = run_for_test(&["describe", "-s", path.to_str().unwrap()]);
    assert_eq!(code, 0, "stderr: {err}");
    assert!(
        out.contains("optimized-decl pipeline (custom), 4-wide: 7 minor cycles"),
        "{out}"
    );
    // The grid itself: the shared Lsq_refresh cell and a per-way cell.
    assert!(out.contains("Lsq_refresh"), "{out}");
    assert!(out.contains("engine fingerprint:"), "{out}");
}

#[test]
fn run_end_to_end_matches_between_paths() {
    let dir = scratch("run");
    let decl_path = dir.join("decl.toml");
    let builtin_path = dir.join("builtin.toml");
    fs::write(&decl_path, format!("{IMPROVED_DECL}{GOLDEN_WORKLOAD}")).unwrap();
    fs::write(
        &builtin_path,
        format!("[engine]\npipeline = \"improved\"\n{GOLDEN_WORKLOAD}"),
    )
    .unwrap();

    let (code_a, out_a, err_a) = run_for_test(&["run", "-s", decl_path.to_str().unwrap()]);
    let (code_b, out_b, err_b) = run_for_test(&["run", "-s", builtin_path.to_str().unwrap()]);
    assert_eq!(code_a, 0, "stderr: {err_a}");
    assert_eq!(code_b, 0, "stderr: {err_b}");
    assert_eq!(out_a, out_b, "run reports must be identical");
}
