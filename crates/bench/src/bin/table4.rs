//! Regenerates **Table 4**: area cost on a Virtex-4 (xc4vlx40) device —
//! per-stage/structure percentages of slices, 4-input LUTs and BRAMs,
//! plus the FAST area comparison of §V.C.

use resim_bench::{outln, rule};
use resim_fpga::{comparison, AreaModel, FpgaDevice};

fn main() {
    let model = AreaModel::new();
    let config = AreaModel::calibration_config();
    let est = model.estimate(&config);

    let paper_slices = [
        ("fetch", 25.0),
        ("disp", 9.0),
        ("issue", 5.0),
        ("lsq", 14.0),
        ("wb", 3.0),
        ("cmt", 2.0),
        ("RT", 3.0),
        ("RB", 13.0),
        ("LSQ", 6.0),
        ("BP", 2.0),
        ("D-C", 17.0),
        ("I-C", 1.0),
    ];

    outln!("Table 4: area cost on Virtex-4 (xc4vlx40), 4-wide reference design\n");
    outln!(
        "{:10} {:>8} {:>9} {:>9} {:>9} {:>7}",
        "structure",
        "slices",
        "slices %",
        "paper %",
        "LUTs",
        "BRAMs"
    );
    outln!("{}", rule(58));
    for (s, &(pname, ppct)) in est.stages().iter().zip(paper_slices.iter()) {
        assert_eq!(s.name, pname, "table ordering");
        outln!(
            "{:10} {:>8.0} {:>9.1} {:>9.1} {:>9.0} {:>7}",
            s.name,
            s.slices,
            100.0 * s.slices / est.total_slices(),
            ppct,
            s.luts,
            s.brams
        );
    }
    outln!("{}", rule(58));
    outln!(
        "{:10} {:>8.0} {:>9} {:>9} {:>9.0} {:>7}",
        "total",
        est.total_slices(),
        "",
        "",
        est.total_luts(),
        est.total_brams()
    );
    outln!("paper totals: 12273 slices, 17175 LUTs, 7 BRAMs\n");

    outln!(
        "FAST 4-wide on Virtex-4: {} slices, {} BRAMs -> {:.1}x and {:.0}x larger than ReSim",
        comparison::FAST_AREA_SLICES,
        comparison::FAST_AREA_BRAMS,
        comparison::FAST_AREA_SLICES / est.total_slices(),
        comparison::FAST_AREA_BRAMS as f64 / est.total_brams() as f64
    );
    outln!("(paper: 2.4x and 24x)\n");

    // §VI: multi-instance fitting (the multi-core argument).
    let no_cache = model.estimate(&resim_core::EngineConfig::paper_4wide());
    outln!(
        "Engine-only (perfect-memory) instance: {:.0} slices; {} instances fit an xc4vlx40",
        no_cache.total_slices(),
        no_cache.instances_on(FpgaDevice::Virtex4Lx40)
    );
}
