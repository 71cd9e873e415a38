//! # resim-sweep
//!
//! A deterministic, multi-threaded scenario-grid runner for ReSim
//! (Fytraki & Pnevmatikatos, DATE 2009).
//!
//! The point of a *reconfigurable* simulator is cheap exploration of many
//! design points: the paper reruns the same traces across widths,
//! pipeline organizations, predictors and memory systems. This crate
//! turns that pattern into a subsystem:
//!
//! * a [`Scenario`] is the cross product of engine configurations
//!   ([`ConfigPoint`]), workloads ([`WorkloadPoint`]), correct-path
//!   instruction budgets and workload seeds;
//! * a [`SweepRunner`] dispatches the cells to a `std::thread` worker
//!   pool (no external dependencies). Each cell's seeding comes from the
//!   scenario definition, never from scheduling, so every
//!   [`SimStats`](resim_core::SimStats) is **bit-identical regardless of
//!   thread count or interleaving**;
//! * traces for identical `(workload, seed, budget, tracegen)` inputs
//!   are generated **once** and shared behind an `Arc` through
//!   [`resim_tracegen::TraceCache`] — the dominant redundant cost of a
//!   naive sweep — and each `(workload, seed, budget)` stream is walked
//!   once, the traces of further tracegen configs re-tagging the first
//!   trace's correct path;
//! * results collect into a [`SweepReport`]: per-cell
//!   [`CellResult`]s (stats, trace stats, wall time) plus grid-level
//!   aggregates, renderable as CSV or Markdown;
//! * an execution-mode axis ([`CellMode`]) trades accuracy for
//!   wall-clock per cell: `CellMode::Sampled` runs a cell through
//!   `resim-sample`'s SMARTS-style sampled simulation (functional warmup
//!   between detailed windows) and reports the window-mean IPC with a
//!   95 % confidence interval next to the exact cells.
//!
//! ## Example
//!
//! ```
//! use resim_core::EngineConfig;
//! use resim_sweep::{Scenario, SweepRunner, WorkloadPoint};
//! use resim_tracegen::TraceGenConfig;
//! use resim_workloads::SpecBenchmark;
//!
//! // 2 configs × 2 workloads × 1 budget × 1 seed = 4 cells.
//! let scenario = Scenario::new()
//!     .config_grid(
//!         EngineConfig::paper_4wide().grid().rb_sizes([16, 32]).build(),
//!         TraceGenConfig::paper(),
//!     )
//!     .workload(WorkloadPoint::spec(SpecBenchmark::Gzip))
//!     .workload(WorkloadPoint::spec(SpecBenchmark::Vpr))
//!     .budgets([5_000])
//!     .seeds([2009]);
//!
//! let report = SweepRunner::new(2).run(&scenario).expect("valid grid");
//! assert_eq!(report.cells.len(), 4);
//! // Two workload traces serve all four cells.
//! assert_eq!(report.trace_cache_misses, 2);
//! println!("{}", report.to_markdown());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod doc;
mod from_table;
mod report;
mod runner;
mod scenario;

pub use doc::{ScenarioDoc, WorkloadSpec, SECTION_KEYS, TRACE_KEYS, WORKLOAD_KEYS};
pub use from_table::{resolve_tracegen, CONFIG_KEYS, SWEEP_KEYS};
pub use report::{stable_csv_header, stable_csv_row, CellResult, SweepReport};
pub use runner::{SweepPhase, SweepProgress, SweepRunner};
pub use scenario::{
    cell_key, Cell, CellMode, ConfigPoint, Scenario, ScenarioError, WorkloadPoint, MAX_BUDGET,
};
