//! # resim-core
//!
//! The ReSim timing engine — a Rust reproduction of the trace-driven,
//! reconfigurable ILP processor simulator of Fytraki & Pnevmatikatos
//! (DATE 2009).
//!
//! ReSim simulates the *timing* of a modern out-of-order, speculative
//! superscalar processor without executing instructions: a pre-decoded
//! trace (see `resim-trace`) supplies resolved branches and effective
//! addresses, and the engine replays it through a detailed pipeline model
//! with an IFQ, rename table, reorder buffer, load/store queue,
//! reservation-station issue, a parametric branch predictor and tag-only
//! L1 caches.
//!
//! The paper's hardware engine processes the N ways of the simulated
//! processor *serially*: each simulated **major cycle** is split into
//! **minor cycles**, and three internal pipeline organizations trade
//! engine latency for implementation simplicity
//! ([`PipelineDescription::builtins`], Figures 2–4: `2N+3`, `N+4`, `N+3`
//! minor cycles). In this reproduction the engine is that structure made
//! explicit: each of the six stages is a fixed unit over the shared
//! [`CoreState`], and the [`MinorCycleScheduler`] calls them directly in
//! the fixed evaluation order. The minor-cycle cost belongs to the
//! configuration ([`EngineConfig::minor_cycles_per_major`], derived from
//! the description's schedule grid) and is charged by one rule,
//! [`SimStats::with_minor_cycle_cost`] — exactly as the grid determines
//! the FPGA engine's MIPS (`resim-fpga` turns it into simulated MIPS).
//!
//! ## Quick start
//!
//! ```
//! use resim_core::{Engine, EngineConfig};
//! use resim_tracegen::{generate_trace, TraceGenConfig};
//! use resim_workloads::{SpecBenchmark, Workload};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // The paper's reference machine: 4-issue, RB 16, LSQ 8, 2-level BP.
//! let mut engine = Engine::new(EngineConfig::paper_4wide())?;
//!
//! let trace = generate_trace(
//!     Workload::spec(SpecBenchmark::Bzip2, 42),
//!     50_000,
//!     &TraceGenConfig::paper(),
//! );
//! let stats = engine.run(trace.source());
//!
//! println!("{}", stats.report());
//! assert!(stats.ipc() > 1.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod cursor;
mod describe;
mod description;
mod engine;
mod from_table;
mod grid;
mod lsq;
mod pipeline;
mod rob;
mod scheduler;
mod stages;
mod state;
mod stats;

pub use config::{ConfigError, EngineConfig, FuConfig};
pub use cursor::{TraceCursor, DEFAULT_BATCH};
pub use describe::block_diagram;
pub use description::{
    infer_area_key, DescriptionError, FormulaError, PipelineDescription, SlotExpr, SlotSpec,
    StageRow, MAX_SLOT, STAGE_AREA_KEYS,
};
pub use engine::Engine;
pub use from_table::{ENGINE_KEYS, FU_KEYS, GRID_KEYS, PIPELINE_KEYS, STAGE_KEYS};
pub use grid::ConfigGrid;
pub use lsq::{LoadReady, LoadStoreQueue, LsqEntry};
pub use pipeline::{Schedule, ScheduleRow};
pub use rob::{
    InstState, PendingSet, Producer, ReorderBuffer, RobEntry, RobEntryMut, RobEntryView,
};
pub use scheduler::MinorCycleScheduler;
pub use state::CoreState;
pub use stats::{SimStats, SIM_STATS_FIELDS};

// The workspace content hash, re-exported so callers that key on engine
// fingerprints need not name `resim-trace`.
pub use resim_trace::Fnv64;

// The recorder `Engine::observed` attaches, re-exported so engine users
// can observe a run without naming `resim-obs`.
pub use resim_obs::MetricsRecorder;
