//! FPGA device models.

/// A Xilinx FPGA part, with the calibrated clock the paper's engine
/// achieves on it and the part's resource capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FpgaDevice {
    /// Virtex-4 xc4vlx40 (ISE 9.1i): 84 MHz minor-cycle clock (§V.C).
    Virtex4Lx40,
    /// Virtex-5 xc5vlx50t (ISE 9.1i): 105 MHz minor-cycle clock (§V.C).
    Virtex5Lx50t,
    /// Virtex-2 Pro (the device A-Ports reports on, for context).
    Virtex2Pro,
    /// Virtex-4 xc4vlx160 — a larger part of the same family, used for
    /// the §VI multi-core (multi-instance) projection.
    Virtex4Lx160,
}

impl FpgaDevice {
    /// The devices the paper evaluates on, in table order.
    pub const PAPER: [FpgaDevice; 2] = [FpgaDevice::Virtex4Lx40, FpgaDevice::Virtex5Lx50t];

    /// Marketing/part name.
    pub fn name(self) -> &'static str {
        match self {
            FpgaDevice::Virtex4Lx40 => "Virtex-4 (xc4vlx40)",
            FpgaDevice::Virtex5Lx50t => "Virtex-5 (xc5vlx50t)",
            FpgaDevice::Virtex2Pro => "Virtex-2 Pro",
            FpgaDevice::Virtex4Lx160 => "Virtex-4 (xc4vlx160)",
        }
    }

    /// Short column label as used in Table 1.
    pub fn label(self) -> &'static str {
        match self {
            FpgaDevice::Virtex4Lx40 => "Virtex 4",
            FpgaDevice::Virtex5Lx50t => "Virtex 5",
            FpgaDevice::Virtex2Pro => "Virtex 2Pro",
            FpgaDevice::Virtex4Lx160 => "Virtex 4 LX160",
        }
    }

    /// Calibrated minor-cycle clock of the ReSim engine on this device,
    /// in MHz. These are the paper's measured synthesis results, used as
    /// model constants (see DESIGN.md).
    pub fn minor_cycle_mhz(self) -> f64 {
        match self {
            FpgaDevice::Virtex4Lx40 => 84.0,
            FpgaDevice::Virtex5Lx50t => 105.0,
            // Scaled from the Virtex-4 figure by the typical V2Pro/V4
            // speed-grade gap; used only for the A-Ports context row.
            FpgaDevice::Virtex2Pro => 60.0,
            // Same fabric generation as the lx40.
            FpgaDevice::Virtex4Lx160 => 84.0,
        }
    }

    /// Logic capacity in slices.
    ///
    /// Note Virtex-5 slices are larger (four 6-LUTs) than Virtex-4
    /// slices (two 4-LUTs); fitting computations stay within one family.
    pub fn slices(self) -> u64 {
        match self {
            FpgaDevice::Virtex4Lx40 => 18_432,
            FpgaDevice::Virtex5Lx50t => 7_200,
            FpgaDevice::Virtex2Pro => 13_696, // xc2vp30
            FpgaDevice::Virtex4Lx160 => 67_584,
        }
    }

    /// Block RAM capacity (18 Kb-equivalent blocks).
    pub fn brams(self) -> u64 {
        match self {
            FpgaDevice::Virtex4Lx40 => 96,
            FpgaDevice::Virtex5Lx50t => 120, // 60 x 36Kb = 120 x 18Kb
            FpgaDevice::Virtex2Pro => 136,
            FpgaDevice::Virtex4Lx160 => 288,
        }
    }
}

impl std::fmt::Display for FpgaDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_frequencies() {
        assert_eq!(FpgaDevice::Virtex4Lx40.minor_cycle_mhz(), 84.0);
        assert_eq!(FpgaDevice::Virtex5Lx50t.minor_cycle_mhz(), 105.0);
        // The exact 1.25x ratio visible throughout Table 1.
        let ratio =
            FpgaDevice::Virtex5Lx50t.minor_cycle_mhz() / FpgaDevice::Virtex4Lx40.minor_cycle_mhz();
        assert!((ratio - 1.25).abs() < 1e-12);
    }

    #[test]
    fn names_and_capacity() {
        assert!(FpgaDevice::Virtex4Lx40.name().contains("xc4vlx40"));
        assert!(
            FpgaDevice::Virtex4Lx40.slices() > 12_273,
            "paper design fits"
        );
    }
}
