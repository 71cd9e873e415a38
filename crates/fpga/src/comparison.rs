//! The simulator-comparison datapoints of Table 2.
//!
//! The paper compares ReSim against software simulators (PTLsim,
//! `sim-outorder`, GEMS) and hardware simulators (FAST, A-Ports) using
//! *their published numbers* (mostly as collected by the FAST paper).
//! We cannot rerun proprietary simulators either, so the same literature
//! constants are encoded here with provenance tags; ReSim rows are
//! computed by this repository's engine + throughput model, and an
//! honestly *measured* host-software row can be added from the Criterion
//! benchmarks.

/// Where a Table 2 number comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Provenance {
    /// Reported in the cited literature (the paper's own practice).
    Reported,
    /// Computed by this repository's engine + device model.
    Computed,
    /// Measured on the host running this repository's software engine.
    Measured,
}

impl std::fmt::Display for Provenance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Provenance::Reported => "reported",
            Provenance::Computed => "computed",
            Provenance::Measured => "measured",
        })
    }
}

/// One row of Table 2.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulatorEntry {
    /// Simulator name.
    pub name: &'static str,
    /// ISA / configuration notes as given in the table.
    pub isa: &'static str,
    /// Simulation speed in MIPS (Muops for FAST, as the paper scales).
    pub speed_mips: f64,
    /// Number provenance.
    pub provenance: Provenance,
}

/// The literature rows of Table 2 (everything except the ReSim rows).
pub fn literature_rows() -> Vec<SimulatorEntry> {
    vec![
        SimulatorEntry {
            name: "PTLsim",
            isa: "x86-64",
            speed_mips: 0.27,
            provenance: Provenance::Reported,
        },
        SimulatorEntry {
            name: "sim-outorder",
            isa: "PISA",
            speed_mips: 0.30,
            provenance: Provenance::Reported,
        },
        SimulatorEntry {
            name: "GEMS",
            isa: "Sparc",
            speed_mips: 0.07,
            provenance: Provenance::Reported,
        },
        SimulatorEntry {
            name: "FAST",
            isa: "x86, gshare BP",
            speed_mips: 1.2,
            provenance: Provenance::Reported,
        },
        SimulatorEntry {
            name: "FAST",
            isa: "x86, perfect BP",
            speed_mips: 2.79,
            provenance: Provenance::Reported,
        },
        SimulatorEntry {
            name: "A-Ports",
            isa: "MIPS subset, 4-wide",
            speed_mips: 4.70,
            provenance: Provenance::Reported,
        },
    ]
}

/// The per-benchmark FAST column of Table 1 (right): simulated Muops/s
/// with perfect branch prediction, as the paper scales them from x86
/// MIPS.
pub fn fast_table1_column() -> [(&'static str, f64); 5] {
    [
        ("gzip", 2.95),
        ("bzip2", 3.51),
        ("parser", 2.82),
        ("vortex", 2.19),
        ("vpr", 2.48),
    ]
}

/// FAST's 4-wide area on Virtex-4, for the Table 4 comparison
/// ("29230 Slices and 172 BRAMs ... 2.4 times and 24 times larger").
pub const FAST_AREA_SLICES: f64 = 29_230.0;
/// See [`FAST_AREA_SLICES`].
pub const FAST_AREA_BRAMS: u64 = 172;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_literature_values() {
        let rows = literature_rows();
        assert_eq!(rows.len(), 6);
        let find = |n: &str, isa: &str| {
            rows.iter()
                .find(|r| r.name == n && r.isa == isa)
                .unwrap()
                .speed_mips
        };
        assert_eq!(find("PTLsim", "x86-64"), 0.27);
        assert_eq!(find("sim-outorder", "PISA"), 0.30);
        assert_eq!(find("GEMS", "Sparc"), 0.07);
        assert_eq!(find("FAST", "x86, perfect BP"), 2.79);
        assert_eq!(find("A-Ports", "MIPS subset, 4-wide"), 4.70);
        assert!(rows.iter().all(|r| r.provenance == Provenance::Reported));
    }

    #[test]
    fn fast_column_average_matches_paper() {
        let avg: f64 = fast_table1_column().iter().map(|(_, v)| v).sum::<f64>() / 5.0;
        assert!((avg - 2.79).abs() < 0.01, "Table 1 reports 2.79 average");
    }
}
