//! Every shipped `examples/pipelines/*.toml` must be a working
//! scenario: its `[pipeline]` section parses, validates and schedules
//! at the widths its sweep uses, drives the engine end-to-end, and
//! feeds the FPGA area model. The CLI smoke in CI exercises the same
//! files through `resim describe` / `resim sweep`; this test covers
//! the library path (and the area model, which has no subcommand).

use resim::core::{Engine, EngineConfig, PipelineDescription};
use resim::fpga::AreaModel;
use resim::tracegen::{generate_trace, TraceGenConfig};
use resim::workloads::{SpecBenchmark, Workload};
use std::fs;
use std::path::Path;

fn example_description(file: &str) -> PipelineDescription {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("examples/pipelines")
        .join(file);
    let input = fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path:?}: {e}"));
    let doc = resim::toml::parse(&input).expect("example parses");
    let table = doc
        .opt_table("pipeline")
        .unwrap()
        .expect("example has a [pipeline] section");
    PipelineDescription::from_table(table).expect("example pipeline is valid")
}

#[test]
fn every_example_parses_and_schedules() {
    for (file, mcs4) in [
        ("simple.toml", 11),
        ("improved.toml", 8),
        ("optimized.toml", 7),
        ("fused.toml", 6),
    ] {
        let desc = example_description(file);
        for width in [2usize, 4] {
            desc.validate_at(width)
                .unwrap_or_else(|e| panic!("{file} invalid at width {width}: {e}"));
        }
        assert_eq!(
            desc.minor_cycles_per_major(4).unwrap(),
            mcs4,
            "{file}: 4-wide minor-cycle cost"
        );
    }
}

#[test]
fn novel_organization_runs_end_to_end_with_area_estimation() {
    let fused = example_description("fused.toml");
    assert_eq!(fused.rows().len(), 5, "the novel organization is 5-stage");

    let config = EngineConfig {
        pipeline: fused.clone(),
        ..EngineConfig::paper_4wide()
    };
    config.validate().expect("fused config validates");

    // Same fixture as the golden stats: gzip, seed 2009, 10k correct.
    let trace = generate_trace(
        Workload::spec(SpecBenchmark::Gzip, 2009),
        10_000,
        &TraceGenConfig::paper(),
    );
    let stats = Engine::new(config.clone()).unwrap().run(trace.source());

    // Identical simulated timing to the built-ins (the organization
    // only changes engine cost), one minor cycle per major cheaper
    // than Figure 4's N+3.
    let reference = Engine::new(EngineConfig::paper_4wide())
        .unwrap()
        .run(trace.source());
    assert_eq!(stats.cycles, reference.cycles);
    assert_eq!(stats.committed, reference.committed);
    assert_eq!(stats.minor_cycles, stats.cycles * 6);
    assert_eq!(reference.minor_cycles, reference.cycles * 7);

    // FPGA area: the fused roster has no LSQ-refresh stage row, so its
    // stage logic vanishes, while every structure stays charged.
    let est = AreaModel::new().estimate(&config);
    let full = AreaModel::new().estimate(&EngineConfig::paper_4wide());
    assert!(est.total_slices() > 0.0);
    assert!(
        est.total_slices() < full.total_slices(),
        "5-stage roster must be smaller than the full 6-stage logic"
    );
    let slices = |e: &resim::fpga::AreaEstimate, n: &str| {
        e.stages().iter().find(|s| s.name == n).unwrap().slices
    };
    assert_eq!(slices(&est, "lsq"), 0.0);
    assert!(slices(&est, "fetch") > 0.0);
    assert!(
        slices(&est, "disp") > 0.0,
        "Dispatch row keeps the disp logic"
    );
    assert_eq!(slices(&est, "RB"), slices(&full, "RB"));
}

#[test]
fn example_builtin_twins_match_the_builtin_grids() {
    for builtin in PipelineDescription::builtins() {
        let file = format!("{}.toml", builtin.name());
        let desc = example_description(&file);
        for width in [2usize, 4] {
            assert_eq!(
                desc.minor_cycles_per_major(width).unwrap(),
                builtin.minor_cycles_per_major(width).unwrap(),
                "{file} at width {width}"
            );
        }
    }
}
