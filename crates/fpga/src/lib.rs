//! # resim-fpga
//!
//! FPGA device, frequency, area and trace-bandwidth models for ReSim
//! (Fytraki & Pnevmatikatos, DATE 2009).
//!
//! The paper implements the engine on Xilinx Virtex-4 (xc4vlx40) and
//! Virtex-5 (xc5vlx50t) parts with Xilinx ISE 9.1i, reaching minor-cycle
//! clocks of 84 MHz and 105 MHz (§V.C). We cannot synthesise hardware, so
//! this crate *models* the device instead (the substitution is detailed in
//! DESIGN.md):
//!
//! * [`FpgaDevice`] — calibrated minor-cycle frequencies and resource
//!   capacities;
//! * [`ThroughputModel`] — turns an engine run's statistics into simulated
//!   MIPS exactly the way the hardware's numbers arise:
//!   `MIPS = f_minor / minor_cycles_per_major × IPC` (Tables 1–3);
//! * [`AreaModel`] — a per-structure area estimator calibrated against
//!   Table 4 (slices / LUTs / BRAMs, with first-order scaling in the
//!   configuration parameters), plus multi-instance fitting (§VI);
//! * [`TraceLink`] — trace-delivery bandwidth models for the Table 3
//!   analysis (Gigabit Ethernet vs. tightly-coupled CPU–FPGA buses);
//! * [`comparison`] — the literature datapoints of Table 2 (FAST,
//!   A-Ports, PTLsim, GEMS, `sim-outorder`) with provenance tags, and
//!   the paper's per-benchmark Table 1 and Table 3 cells.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod area;
mod bandwidth;
pub mod comparison;
mod device;
mod throughput;

pub use area::{
    parallel_fetch_ablation, AreaEstimate, AreaModel, FetchAblation, StageArea, TABLE4,
    TABLE4_LUTS, TABLE4_SLICES,
};
pub use bandwidth::{effective_mips, TraceLink};
pub use device::FpgaDevice;
pub use throughput::{SimulationSpeed, ThroughputModel};
