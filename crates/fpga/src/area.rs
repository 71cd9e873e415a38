//! Parametric FPGA area model, calibrated against the paper's Table 4.
//!
//! Table 4 breaks the 4-wide reference design on a Virtex-4 (xc4vlx40)
//! into per-stage/per-structure percentages of 12 273 slices, 17 175
//! 4-input LUTs and 7 BRAMs, with BRAMs used only by the Branch Predictor
//! (71 %) and the I-cache tags (29 %). This module reproduces those
//! numbers exactly at the calibration point and extrapolates to other
//! configurations with documented first-order scaling laws (storage
//! scales with entry count, per-way logic with width, tag arrays with
//! set × way count). The paper notes the caches are tag-only — "we need
//! to provide only the hit/miss indication" — so a perfect-memory
//! configuration spends no cache area at all.
//!
//! Also here: the §IV parallel-fetch ablation (a 4-wide parallel fetch
//! unit measured 4× the cost of the serial one and 22 % slower — the
//! observation that motivated the whole serial minor-cycle design) and
//! multi-instance fitting (§VI: "it is possible to fit multiple ReSim
//! instances in a single FPGA").

use crate::device::FpgaDevice;
use resim_bpred::DirectionConfig;
use resim_core::EngineConfig;
use resim_mem::MemorySystemConfig;

/// Calibration anchors from Table 4 (percent of total, paper order):
/// (name, slices %, LUTs %, BRAM blocks).
pub const TABLE4: [(&str, f64, f64, u64); 12] = [
    ("fetch", 25.0, 23.0, 0),
    ("disp", 9.0, 5.0, 0),
    ("issue", 5.0, 7.0, 0),
    ("lsq", 14.0, 19.0, 0),
    ("wb", 3.0, 4.0, 0),
    ("cmt", 2.0, 2.0, 0),
    ("RT", 3.0, 4.0, 0),
    ("RB", 13.0, 14.0, 0),
    ("LSQ", 6.0, 4.0, 0),
    ("BP", 2.0, 2.0, 5),
    ("D-C", 17.0, 15.0, 0),
    ("I-C", 1.0, 1.0, 2),
];

/// Total slices of the calibration design (Table 4, last column).
pub const TABLE4_SLICES: f64 = 12_273.0;
/// Total 4-input LUTs of the calibration design (Table 4, last column).
pub const TABLE4_LUTS: f64 = 17_175.0;

/// Resource usage of one stage or structure.
#[derive(Debug, Clone, PartialEq)]
pub struct StageArea {
    /// Structure name as in Table 4.
    pub name: &'static str,
    /// Estimated slices.
    pub slices: f64,
    /// Estimated 4-input LUTs.
    pub luts: f64,
    /// Estimated 18 Kb BRAM blocks.
    pub brams: u64,
}

/// A complete area estimate for one engine instance.
#[derive(Debug, Clone, PartialEq)]
pub struct AreaEstimate {
    stages: Vec<StageArea>,
}

impl AreaEstimate {
    /// Per-structure breakdown, in Table 4 order.
    pub fn stages(&self) -> &[StageArea] {
        &self.stages
    }

    /// Total slices.
    pub fn total_slices(&self) -> f64 {
        self.stages.iter().map(|s| s.slices).sum()
    }

    /// Total LUTs.
    pub fn total_luts(&self) -> f64 {
        self.stages.iter().map(|s| s.luts).sum()
    }

    /// Total BRAM blocks.
    pub fn total_brams(&self) -> u64 {
        self.stages.iter().map(|s| s.brams).sum()
    }

    /// Percentage share of `name` in total slices.
    pub fn slice_percent(&self, name: &str) -> f64 {
        let total = self.total_slices();
        if total == 0.0 {
            return 0.0;
        }
        self.stages
            .iter()
            .find(|s| s.name == name)
            .map_or(0.0, |s| 100.0 * s.slices / total)
    }

    /// How many instances of this design fit on `device` (the §VI
    /// multi-core argument).
    pub fn instances_on(&self, device: FpgaDevice) -> u64 {
        let by_slices = (device.slices() as f64 / self.total_slices()).floor() as u64;
        let brams = self.total_brams();
        let by_brams = device.brams().checked_div(brams).unwrap_or(u64::MAX);
        by_slices.min(by_brams)
    }
}

/// The calibrated, parametric area estimator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AreaModel;

impl AreaModel {
    /// Creates the model.
    pub fn new() -> Self {
        Self
    }

    /// The configuration Table 4 measures: the paper's 4-wide reference
    /// machine with the 32 KB L1 caches attached.
    pub fn calibration_config() -> EngineConfig {
        EngineConfig {
            memory: MemorySystemConfig::l1_32k(),
            ..EngineConfig::paper_4wide()
        }
    }

    /// Estimates the per-structure area of `config`.
    ///
    /// At [`AreaModel::calibration_config`] this returns Table 4's
    /// absolute numbers exactly; elsewhere each structure scales with
    /// its governing parameters (first-order models, documented inline).
    ///
    /// The six per-stage logic rows (`fetch` … `cmt`) are charged only
    /// when the configuration's pipeline description maps a stage row
    /// onto them (its *area keys*): an organization without, say, a
    /// bookkeeping writeback row spends no `wb` logic. The storage
    /// structures (RT/RB/LSQ/BP and the caches) exist regardless of the
    /// minor-cycle organization and are always charged. All three
    /// built-ins carry all six keys, so their estimates equal the
    /// original closed-world model.
    pub fn estimate(&self, config: &EngineConfig) -> AreaEstimate {
        let cal = Self::calibration_config();
        let w = config.width as f64 / cal.width as f64;
        let ifq = config.ifq_size as f64 / cal.ifq_size as f64;
        let rb = config.rb_size as f64 / cal.rb_size as f64;
        let lsq = config.lsq_size as f64 / cal.lsq_size as f64;
        let fus = (config.fus.alus + config.fus.mults + config.fus.divs) as f64
            / (cal.fus.alus + cal.fus.mults + cal.fus.divs) as f64;
        let area_keys = config.pipeline.area_keys();

        let stages = TABLE4
            .iter()
            .map(|&(name, s_pct, l_pct, brams)| {
                let is_stage_logic = resim_core::STAGE_AREA_KEYS.contains(&name);
                if is_stage_logic && !area_keys.contains(&name) {
                    return StageArea {
                        name,
                        slices: 0.0,
                        luts: 0.0,
                        brams: 0,
                    };
                }
                let scale = self.scale_of(name, config, w, ifq, rb, lsq, fus);
                let brams_scaled = self.brams_of(name, config, brams);
                StageArea {
                    name,
                    slices: s_pct / 100.0 * TABLE4_SLICES * scale,
                    luts: l_pct / 100.0 * TABLE4_LUTS * scale,
                    brams: brams_scaled,
                }
            })
            .collect();
        AreaEstimate { stages }
    }

    /// First-order slice/LUT scaling of each structure.
    #[allow(clippy::too_many_arguments)]
    fn scale_of(
        &self,
        name: &str,
        config: &EngineConfig,
        w: f64,
        ifq: f64,
        rb: f64,
        lsq: f64,
        fus: f64,
    ) -> f64 {
        let cal = Self::calibration_config();
        match name {
            // Fetch logic scales with width, its IFQ storage with depth.
            "fetch" => 0.6 * w + 0.4 * ifq,
            // Dispatch and the decouple buffer are per-way logic.
            "disp" => w,
            // Select logic grows with width and the FU count.
            "issue" => 0.5 * w + 0.5 * fus,
            // The lsq_refresh CAM compares every load against every
            // older store: entries × width effects.
            "lsq" => 0.5 * lsq + 0.5 * (lsq * w).sqrt(),
            // Writeback/commit are per-way multiplexing.
            "wb" | "cmt" => w,
            // The rename table is a fixed 64-entry map; its read/write
            // port count follows width.
            "RT" => 0.4 + 0.6 * w,
            // RB storage dominates; ports add a width term.
            "RB" => 0.7 * rb + 0.3 * rb * w,
            // LSQ payload storage.
            "LSQ" => lsq,
            // Predictor slice logic follows the RAS and BTB control
            // (tables live in BRAM).
            "BP" => {
                let ras = config.predictor.ras_entries as f64 / cal.predictor.ras_entries as f64;
                0.5 + 0.5 * ras
            }
            // Tag-only caches: distributed-RAM tag arrays scale with
            // set × way count; a perfect memory system has no caches.
            "D-C" | "I-C" => match config.memory {
                MemorySystemConfig::Perfect { .. } => 0.0,
                MemorySystemConfig::Split { l1i, l1d } => {
                    let c = if name == "D-C" { l1d } else { l1i };
                    let (cal_i, cal_d) = match Self::calibration_config().memory {
                        MemorySystemConfig::Split { l1i, l1d } => (l1i, l1d),
                        MemorySystemConfig::Perfect { .. } => {
                            unreachable!("calibration has caches")
                        }
                    };
                    let cal_c = if name == "D-C" { cal_d } else { cal_i };
                    (c.sets() * c.associativity) as f64
                        / (cal_c.sets() * cal_c.associativity) as f64
                }
            },
            _ => 1.0,
        }
    }

    /// BRAM scaling: predictor tables and I-cache tags.
    fn brams_of(&self, name: &str, config: &EngineConfig, cal_brams: u64) -> u64 {
        match name {
            "BP" => {
                // Calibrated: the paper's PHT-4096 + BTB-512 + RAS uses 5
                // blocks; scale with total predictor table bits.
                let bits = |cfg: &resim_bpred::PredictorConfig| -> f64 {
                    let dir_bits = match cfg.direction {
                        DirectionConfig::TwoLevel(t) => {
                            (t.l2_size as f64) * t.counter_bits as f64
                                + t.l1_size as f64 * t.history_bits as f64
                        }
                        DirectionConfig::Bimodal { size } => size as f64 * 2.0,
                        _ => 0.0,
                    };
                    // BTB entry: ~21-bit tag + 32-bit target.
                    dir_bits + cfg.btb.entries as f64 * 53.0 + cfg.ras_entries as f64 * 32.0
                };
                let cal = Self::calibration_config();
                let ratio = bits(&config.predictor) / bits(&cal.predictor);
                (cal_brams as f64 * ratio).ceil() as u64
            }
            "I-C" => match config.memory {
                MemorySystemConfig::Perfect { .. } => 0,
                MemorySystemConfig::Split { l1i, .. } => {
                    let cal_sets_ways = 64.0 * 8.0;
                    let ratio = (l1i.sets() * l1i.associativity) as f64 / cal_sets_ways;
                    (cal_brams as f64 * ratio).ceil() as u64
                }
            },
            _ => cal_brams,
        }
    }
}

/// The §IV parallel-fetch ablation: what an N-way *parallel* engine
/// front end would cost relative to the serial one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FetchAblation {
    /// Area multiple of the parallel unit over the serial unit.
    pub area_ratio: f64,
    /// Clock-frequency multiple (below 1.0: parallel is slower).
    pub freq_ratio: f64,
}

/// Models the measured §IV data point — "besides the four-fold increase
/// in cost, the unit was also 22 % slower than fetching a single
/// instruction" — and extrapolates to other widths (cost grows with the
/// port count, frequency degrades with mux depth ~ log₂ N).
pub fn parallel_fetch_ablation(width: usize) -> FetchAblation {
    assert!(width >= 1, "width must be at least 1");
    let n = width as f64;
    FetchAblation {
        area_ratio: n,
        freq_ratio: 1.0 - 0.22 * (n.log2() / 4f64.log2()).max(0.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_point_reproduces_table4() {
        let est = AreaModel::new().estimate(&AreaModel::calibration_config());
        assert!((est.total_slices() - TABLE4_SLICES).abs() < 1.0);
        assert!((est.total_luts() - TABLE4_LUTS).abs() < 1.0);
        assert_eq!(est.total_brams(), 7);
        // Spot-check the headline percentages.
        assert!((est.slice_percent("fetch") - 25.0).abs() < 0.1);
        assert!((est.slice_percent("D-C") - 17.0).abs() < 0.1);
        assert!((est.slice_percent("RB") - 13.0).abs() < 0.1);
        let bp = est.stages().iter().find(|s| s.name == "BP").unwrap();
        assert_eq!(bp.brams, 5);
    }

    #[test]
    fn perfect_memory_drops_cache_area() {
        let est = AreaModel::new().estimate(&EngineConfig::paper_4wide());
        assert_eq!(est.slice_percent("D-C"), 0.0);
        let ic = est.stages().iter().find(|s| s.name == "I-C").unwrap();
        assert_eq!(ic.brams, 0);
        assert!(est.total_slices() < TABLE4_SLICES);
    }

    #[test]
    fn area_monotone_in_structure_sizes() {
        let base = AreaModel::new().estimate(&AreaModel::calibration_config());
        let bigger = EngineConfig {
            rb_size: 64,
            lsq_size: 32,
            ifq_size: 32,
            ..AreaModel::calibration_config()
        };
        let big = AreaModel::new().estimate(&bigger);
        assert!(big.total_slices() > base.total_slices());
    }

    #[test]
    fn width_scales_per_way_logic() {
        let cal = AreaModel::calibration_config();
        let w8 = EngineConfig {
            width: 8,
            mem_read_ports: 2,
            ..cal.clone()
        };
        let a4 = AreaModel::new().estimate(&cal);
        let a8 = AreaModel::new().estimate(&w8);
        let pick =
            |e: &AreaEstimate, n: &str| e.stages().iter().find(|s| s.name == n).unwrap().slices;
        assert!((pick(&a8, "wb") / pick(&a4, "wb") - 2.0).abs() < 1e-9);
        assert!(pick(&a8, "fetch") > pick(&a4, "fetch"));
    }

    #[test]
    fn custom_descriptions_pay_only_their_stage_logic() {
        use resim_core::{PipelineDescription, SlotExpr, StageRow};
        // A two-row organization touching only fetch and commit logic.
        let skeleton = PipelineDescription::new(
            "skeleton",
            true,
            false,
            vec![
                StageRow::per_way("Fetch", "F", SlotExpr::new(1, 0, 0)),
                StageRow::per_way("Commit", "C", SlotExpr::new(1, 0, 1)),
            ],
        );
        let config = EngineConfig {
            pipeline: skeleton,
            ..AreaModel::calibration_config()
        };
        let est = AreaModel::new().estimate(&config);
        let full = AreaModel::new().estimate(&AreaModel::calibration_config());
        for gone in ["disp", "issue", "lsq", "wb"] {
            assert_eq!(est.slice_percent(gone), 0.0, "{gone} logic must vanish");
        }
        // Stage logic shrinks; storage structures are untouched.
        assert!(est.total_slices() < full.total_slices());
        let pick =
            |e: &AreaEstimate, n: &str| e.stages().iter().find(|s| s.name == n).unwrap().slices;
        assert_eq!(pick(&est, "RB"), pick(&full, "RB"));
        assert_eq!(pick(&est, "BP"), pick(&full, "BP"));
        assert!(pick(&est, "fetch") > 0.0);
    }

    #[test]
    fn paper_design_fits_multiple_times_without_caches() {
        // §VI: "ReSim is also very small ... possible to fit multiple
        // ReSim instances in a single FPGA".
        let est = AreaModel::new().estimate(&EngineConfig::paper_4wide());
        assert!(est.instances_on(FpgaDevice::Virtex4Lx40) >= 1);
    }

    #[test]
    fn fast_area_comparison_shape() {
        // §V.C: FAST's 4-wide configuration is 29 230 slices and 172
        // BRAMs — "2.4 times and 24 times larger" than ReSim.
        let est = AreaModel::new().estimate(&AreaModel::calibration_config());
        let slice_ratio = 29_230.0 / est.total_slices();
        let bram_ratio = 172.0 / est.total_brams() as f64;
        assert!((slice_ratio - 2.4).abs() < 0.1);
        assert!((bram_ratio - 24.0).abs() < 1.0);
    }

    #[test]
    fn ablation_matches_measured_point() {
        let a = parallel_fetch_ablation(4);
        assert_eq!(a.area_ratio, 4.0);
        assert!((a.freq_ratio - 0.78).abs() < 1e-9);
        let serial = parallel_fetch_ablation(1);
        assert_eq!(serial.freq_ratio, 1.0);
    }
}
