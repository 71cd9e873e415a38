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
//! ([`PipelineOrganization`], Figures 2–4: `2N+3`, `N+4`, `N+3` minor
//! cycles). In this reproduction the engine is that structure made
//! explicit: each of the six stages is a fixed unit over the shared
//! [`CoreState`], and the [`MinorCycleScheduler`] calls them directly in
//! the fixed evaluation order and owns the per-organization minor-cycle
//! accounting — derived from the organization's schedule grid, exactly
//! as the grid determines the FPGA engine's MIPS (`resim-fpga` turns it
//! into simulated MIPS).
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

mod checkpoint;
mod config;
mod cursor;
mod describe;
mod description;
mod engine;
mod from_table;
mod grid;
mod lsq;
mod multicore;
mod pipeline;
mod rob;
mod scheduler;
mod state;
mod stages;
mod stats;

pub use checkpoint::{
    Checkpoint, CheckpointError, ResumeError, CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
};
pub use config::{ConfigError, EngineConfig, FuConfig};
pub use cursor::{TraceCursor, DEFAULT_BATCH};
pub use describe::block_diagram;
pub use description::{
    infer_area_key, DescriptionError, FormulaError, PipelineDescription, SlotExpr, SlotSpec,
    StageRow, MAX_SLOT, STAGE_AREA_KEYS,
};
pub use engine::Engine;
pub use grid::ConfigGrid;
pub use lsq::{LoadReady, LoadStoreQueue, LsqEntry};
pub use multicore::{MultiCore, MultiCoreError};
pub use pipeline::{PipelineOrganization, Schedule, ScheduleRow};
pub use rob::{InstState, PendingSet, ReorderBuffer, RobEntry, RobEntryMut, RobEntryView};
pub use scheduler::MinorCycleScheduler;
pub use state::CoreState;
pub use stats::{SimStats, SIM_STATS_FIELDS};

// The workspace content hash, re-exported so callers that key on engine
// fingerprints need not name `resim-trace`.
pub use resim_trace::Fnv64;

// The instrumentation seam the engine is generic over, re-exported so
// engine users can attach a recorder without naming `resim-obs`.
pub use resim_obs::{MetricsRecorder, NullRecorder, Recorder};
