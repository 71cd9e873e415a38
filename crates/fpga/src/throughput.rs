//! Simulation-throughput model: from engine statistics to simulated MIPS.
//!
//! The hardware engine retires one simulated cycle per major cycle, and a
//! major cycle costs a fixed number of minor cycles (the pipeline
//! organization's latency). Its simulation speed is therefore
//!
//! ```text
//! major-cycle rate = f_minor / minor_cycles_per_major
//! MIPS             = major-cycle rate × IPC
//! ```
//!
//! which is exactly how the paper's Table 1 numbers arise (observe the
//! constant ×1.25 between the Virtex-4 and Virtex-5 columns — the clock
//! ratio). Table 3's "throughput including mis-speculated instructions"
//! replaces IPC with trace records processed per cycle, and the trace
//! bandwidth demand is that rate times bits-per-instruction.

use crate::device::FpgaDevice;
use resim_core::{EngineConfig, SimStats};
use resim_trace::TraceStats;

/// Simulated-speed figures for one run on one device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimulationSpeed {
    /// Major-cycle (simulated-cycle) rate in MHz.
    pub major_cycle_mhz: f64,
    /// Correct-path simulation speed in MIPS (Table 1).
    pub mips: f64,
    /// Speed including wrong-path records (Table 3).
    pub mips_including_wrong_path: f64,
    /// Trace bandwidth demand in MByte/s (Table 3), if trace statistics
    /// were supplied.
    pub trace_mbytes_per_sec: Option<f64>,
    /// Average trace bits per instruction, if supplied.
    pub bits_per_instruction: Option<f64>,
}

/// Computes simulated speeds from engine results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThroughputModel {
    device: FpgaDevice,
}

impl ThroughputModel {
    /// A model for `device`.
    pub fn new(device: FpgaDevice) -> Self {
        Self { device }
    }

    /// The modelled device.
    pub fn device(self) -> FpgaDevice {
        self.device
    }

    /// The engine's major-cycle rate for `config`, in MHz.
    pub fn major_cycle_mhz(self, config: &EngineConfig) -> f64 {
        self.device.minor_cycle_mhz() / config.minor_cycles_per_major() as f64
    }

    /// Converts a run's statistics into simulated speed.
    ///
    /// Pass the encoded trace's [`TraceStats`] to also obtain the
    /// Table 3 bandwidth columns.
    pub fn speed(
        self,
        config: &EngineConfig,
        stats: &SimStats,
        trace: Option<&TraceStats>,
    ) -> SimulationSpeed {
        let major_mhz = self.major_cycle_mhz(config);
        let mips = major_mhz * stats.ipc();
        let mips_wp = major_mhz * stats.processed_per_cycle();
        let bits = trace.map(|t| t.bits_per_instruction());
        let mbytes = bits.map(|b| mips_wp * 1e6 * b / 8.0 / 1e6);
        SimulationSpeed {
            major_cycle_mhz: major_mhz,
            mips,
            mips_including_wrong_path: mips_wp,
            trace_mbytes_per_sec: mbytes,
            bits_per_instruction: bits,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resim_core::PipelineDescription;

    fn stats(cycles: u64, committed: u64, wrong: u64) -> SimStats {
        SimStats {
            cycles,
            committed,
            wrong_path_fetched: wrong,
            ..SimStats::default()
        }
    }

    #[test]
    fn paper_4wide_major_rate() {
        // N+3 = 7 minor cycles at 84 / 105 MHz -> 12 / 15 M major/s.
        let cfg = EngineConfig::paper_4wide();
        let v4 = ThroughputModel::new(FpgaDevice::Virtex4Lx40).major_cycle_mhz(&cfg);
        let v5 = ThroughputModel::new(FpgaDevice::Virtex5Lx50t).major_cycle_mhz(&cfg);
        assert!((v4 - 12.0).abs() < 1e-9);
        assert!((v5 - 15.0).abs() < 1e-9);
    }

    #[test]
    fn mips_is_rate_times_ipc() {
        // IPC 2.0 on the 4-wide machine: 24 MIPS on V4 — squarely in
        // Table 1's 20–28 MIPS band.
        let cfg = EngineConfig::paper_4wide();
        let m = ThroughputModel::new(FpgaDevice::Virtex4Lx40);
        let s = m.speed(&cfg, &stats(1000, 2000, 0), None);
        assert!((s.mips - 24.0).abs() < 1e-9);
        assert_eq!(s.trace_mbytes_per_sec, None);
    }

    #[test]
    fn v5_is_exactly_25_percent_faster() {
        let cfg = EngineConfig::paper_4wide();
        let st = stats(1000, 1940, 110);
        let v4 = ThroughputModel::new(FpgaDevice::Virtex4Lx40).speed(&cfg, &st, None);
        let v5 = ThroughputModel::new(FpgaDevice::Virtex5Lx50t).speed(&cfg, &st, None);
        assert!((v5.mips / v4.mips - 1.25).abs() < 1e-12);
    }

    #[test]
    fn wrong_path_raises_processed_rate() {
        let cfg = EngineConfig::paper_4wide();
        let m = ThroughputModel::new(FpgaDevice::Virtex4Lx40);
        let s = m.speed(&cfg, &stats(1000, 2000, 200), None);
        assert!(s.mips_including_wrong_path > s.mips);
        let ratio = s.mips_including_wrong_path / s.mips;
        assert!((ratio - 1.1).abs() < 1e-9, "10% wrong-path overhead");
    }

    #[test]
    fn two_wide_improved_matches_table1_band() {
        // Table 1 right: N+4 = 6 minor cycles, 84 MHz -> 14 M major/s;
        // an IPC of 1.46 gives gzip's 20.44 MIPS.
        let cfg = EngineConfig::paper_2wide_cached();
        assert_eq!(cfg.pipeline, PipelineDescription::improved());
        let m = ThroughputModel::new(FpgaDevice::Virtex4Lx40);
        let s = m.speed(&cfg, &stats(10_000, 14_600, 0), None);
        assert!((s.mips - 20.44).abs() < 0.01);
    }

    #[test]
    fn bandwidth_columns_from_trace_stats() {
        use resim_trace::{OpClass, OtherRecord, Trace, TraceRecord};
        let t: Trace = (0..100u32)
            .map(|i| {
                TraceRecord::Other(OtherRecord {
                    pc: i * 4,
                    class: OpClass::IntAlu,
                    dest: None,
                    src1: None,
                    src2: None,
                    wrong_path: false,
                })
            })
            .collect();
        let ts = t.stats();
        let cfg = EngineConfig::paper_4wide();
        let m = ThroughputModel::new(FpgaDevice::Virtex4Lx40);
        let s = m.speed(&cfg, &stats(100, 100, 0), Some(&ts));
        let bits = s.bits_per_instruction.unwrap();
        let expect = s.mips_including_wrong_path * bits / 8.0;
        assert!((s.trace_mbytes_per_sec.unwrap() - expect).abs() < 1e-9);
    }
}
