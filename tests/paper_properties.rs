//! Tests that pin the paper's headline quantitative claims — the "shape"
//! of every table — against this reproduction.

use resim::prelude::*;
use resim_fpga::comparison;

const N: usize = 120_000;

fn run(b: SpecBenchmark, config: &EngineConfig, tg: &TraceGenConfig) -> (SimStats, f64) {
    run_seeded(b, 2009, config, tg)
}

fn run_seeded(
    b: SpecBenchmark,
    seed: u64,
    config: &EngineConfig,
    tg: &TraceGenConfig,
) -> (SimStats, f64) {
    let trace = generate_trace(Workload::spec(b, seed), N, tg);
    let stats = Engine::new(config.clone()).unwrap().run(trace.source());
    (stats, trace.stats().bits_per_instruction())
}

fn left() -> (EngineConfig, TraceGenConfig) {
    (EngineConfig::paper_4wide(), TraceGenConfig::paper())
}

fn right() -> (EngineConfig, TraceGenConfig) {
    (
        EngineConfig::paper_2wide_cached(),
        TraceGenConfig::perfect(),
    )
}

/// Table 1 left: every benchmark lands in the paper's 19–35 MIPS band and
/// the Virtex-5 column is exactly 1.25x the Virtex-4 column.
#[test]
fn table1_left_band_and_device_ratio() {
    let (cfg, tg) = left();
    for b in SpecBenchmark::ALL {
        let (stats, _) = run(b, &cfg, &tg);
        let v4 = ThroughputModel::new(FpgaDevice::Virtex4Lx40)
            .speed(&cfg, &stats, None)
            .mips;
        let v5 = ThroughputModel::new(FpgaDevice::Virtex5Lx50t)
            .speed(&cfg, &stats, None)
            .mips;
        assert!((17.0..36.0).contains(&v4), "{b}: V4 {v4:.2} MIPS");
        assert!((v5 / v4 - 1.25).abs() < 1e-9, "{b}: V5/V4 ratio");
    }
}

/// Table 1: bzip2 is the fastest benchmark with perfect memory but loses
/// its lead in the cached configuration (the paper's crossover).
///
/// The synthetic workload models have per-seed structural variance, so
/// the ordering is asserted on the mean IPC over a few seeds rather than
/// on one draw.
#[test]
fn table1_bzip2_crossover() {
    let (cl, tl) = left();
    let (cr, tr) = right();
    const SEEDS: [u64; 3] = [2009, 2010, 2011];
    let ipc = |b, c: &EngineConfig, t: &TraceGenConfig| -> f64 {
        SEEDS
            .iter()
            .map(|&seed| run_seeded(b, seed, c, t).0.ipc())
            .sum::<f64>()
            / SEEDS.len() as f64
    };
    let bzip2_l = ipc(SpecBenchmark::Bzip2, &cl, &tl);
    let gzip_l = ipc(SpecBenchmark::Gzip, &cl, &tl);
    let bzip2_r = ipc(SpecBenchmark::Bzip2, &cr, &tr);
    let gzip_r = ipc(SpecBenchmark::Gzip, &cr, &tr);
    assert!(
        bzip2_l > gzip_l,
        "perfect memory: bzip2 {bzip2_l} > gzip {gzip_l}"
    );
    assert!(
        gzip_r > bzip2_r,
        "32K caches: gzip {gzip_r} > bzip2 {bzip2_r}"
    );
}

/// Table 2: ReSim outperforms the best reported hardware simulators by
/// more than a factor of 5, and software simulators by orders of
/// magnitude.
#[test]
fn table2_speedups() {
    let (cfg, tg) = left();
    let mut total = 0.0;
    for b in SpecBenchmark::ALL {
        let (stats, _) = run(b, &cfg, &tg);
        total += ThroughputModel::new(FpgaDevice::Virtex5Lx50t)
            .speed(&cfg, &stats, None)
            .mips;
    }
    let resim = total / 5.0;
    let aports = 4.70;
    let sim_outorder = 0.30;
    assert!(resim / aports > 5.0, "vs A-Ports: {:.1}x", resim / aports);
    assert!(
        resim / sim_outorder > 50.0,
        "vs sim-outorder: {:.0}x",
        resim / sim_outorder
    );
}

/// Table 2 right column: ReSim (2-wide, V4, perfect BP) vs FAST's average
/// 2.79 Muops — the paper computes 6.57x; accept 4–9x.
#[test]
fn table1_right_fast_factor() {
    let (cfg, tg) = right();
    let mut total = 0.0;
    for b in SpecBenchmark::ALL {
        let (stats, _) = run(b, &cfg, &tg);
        total += ThroughputModel::new(FpgaDevice::Virtex4Lx40)
            .speed(&cfg, &stats, None)
            .mips;
    }
    let fast_avg: f64 = comparison::fast_table1_column()
        .iter()
        .map(|(_, v)| v)
        .sum::<f64>()
        / 5.0;
    let factor = (total / 5.0) / fast_avg;
    assert!(
        (4.0..9.0).contains(&factor),
        "ReSim/FAST factor {factor:.2} (paper: 6.57)"
    );
}

/// Table 3: bits/instruction in the 38–50 band, vortex the largest;
/// average demand exceeds Gigabit Ethernet.
#[test]
fn table3_bits_and_bandwidth() {
    let (cfg, tg) = left();
    let mut bits = Vec::new();
    let mut demand = 0.0;
    for b in SpecBenchmark::ALL {
        let (stats, bpi) = run(b, &cfg, &tg);
        assert!((38.0..50.0).contains(&bpi), "{b}: {bpi:.1} bits/instr");
        bits.push((b.name(), bpi));
        demand += ThroughputModel::new(FpgaDevice::Virtex4Lx40)
            .speed(&cfg, &stats, None)
            .mips_including_wrong_path
            * bpi;
    }
    let vortex = bits.iter().find(|(n, _)| *n == "vortex").unwrap().1;
    for (n, b) in &bits {
        if *n != "vortex" {
            assert!(vortex > *b, "vortex must have the highest bits/instr");
        }
    }
    let avg_gbps = demand / 5.0 / 1000.0;
    assert!(
        avg_gbps > 1.0,
        "average demand {avg_gbps:.2} Gb/s must exceed GigE (paper: 1.1)"
    );
}

/// Table 3: wrong-path overhead ~10% on average; vpr worst, vortex best.
#[test]
fn table3_wrong_path_shape() {
    let (cfg, tg) = left();
    let wp = |b| run(b, &cfg, &tg).0.wrong_path_fraction();
    let fractions: Vec<(SpecBenchmark, f64)> =
        SpecBenchmark::ALL.into_iter().map(|b| (b, wp(b))).collect();
    let avg: f64 = fractions.iter().map(|(_, f)| f).sum::<f64>() / 5.0;
    assert!((0.04..0.20).contains(&avg), "average wrong-path {avg:.3}");
    let get = |b: SpecBenchmark| fractions.iter().find(|(x, _)| *x == b).unwrap().1;
    assert!(
        get(SpecBenchmark::Vpr) > get(SpecBenchmark::Bzip2),
        "vpr most mispredict-bound"
    );
    assert!(
        get(SpecBenchmark::Vortex) < get(SpecBenchmark::Gzip),
        "vortex least mispredict-bound"
    );
}

/// Table 4 + §V.C: FAST is ~2.4x the slices and ~24x the BRAMs.
#[test]
fn table4_fast_area_ratios() {
    let est = AreaModel::new().estimate(&AreaModel::calibration_config());
    let slice_ratio = comparison::FAST_AREA_SLICES / est.total_slices();
    let bram_ratio = comparison::FAST_AREA_BRAMS as f64 / est.total_brams() as f64;
    assert!(
        (2.2..2.6).contains(&slice_ratio),
        "slices ratio {slice_ratio:.2}"
    );
    assert!(
        (20.0..28.0).contains(&bram_ratio),
        "bram ratio {bram_ratio:.1}"
    );
}

/// §IV: the three pipeline organizations simulate identically; only the
/// engine's minor-cycle budget (and hence MIPS) differs, 11 vs 8 vs 7.
#[test]
fn pipeline_organizations_equivalent_but_faster() {
    let trace = generate_trace(
        Workload::spec(SpecBenchmark::Gzip, 11),
        30_000,
        &TraceGenConfig::paper(),
    );
    let mut mips = Vec::new();
    let mut cycles = Vec::new();
    for org in PipelineOrganization::ALL {
        let config = EngineConfig {
            pipeline: org.description(),
            ..EngineConfig::paper_4wide()
        };
        let stats = Engine::new(config.clone()).unwrap().run(trace.source());
        cycles.push(stats.cycles);
        mips.push(
            ThroughputModel::new(FpgaDevice::Virtex4Lx40)
                .speed(&config, &stats, None)
                .mips,
        );
    }
    assert_eq!(cycles[0], cycles[1]);
    assert_eq!(cycles[1], cycles[2]);
    // simple : improved : optimized = 1/11 : 1/8 : 1/7 at equal clocks.
    assert!((mips[1] / mips[0] - 11.0 / 8.0).abs() < 1e-9);
    assert!((mips[2] / mips[0] - 11.0 / 7.0).abs() < 1e-9);
}

/// Conclusions: the engine (without caches) fits in about 10K slices.
#[test]
fn engine_fits_ten_k_slices() {
    let est = AreaModel::new().estimate(&EngineConfig::paper_4wide());
    assert!(
        (9_000.0..11_500.0).contains(&est.total_slices()),
        "engine-only area {:.0} slices (paper: 'about 10K')",
        est.total_slices()
    );
}
