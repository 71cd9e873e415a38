//! # resim
//!
//! A complete Rust reproduction of **ReSim**, the trace-driven,
//! reconfigurable ILP processor simulator of S. Fytraki and
//! D. Pnevmatikatos (DATE 2009).
//!
//! This umbrella crate re-exports the whole workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`trace`] | `resim-trace` | B/M/O pre-decoded record formats, bit-exact codec, trace sources |
//! | [`bpred`] | `resim-bpred` | two-level/gshare/bimodal/perfect predictors, BTB, RAS |
//! | [`mem`] | `resim-mem` | tag-only L1 caches and the perfect memory system |
//! | [`isa`] | `resim-isa` | mini-PISA ISA, assembler, functional simulator, sample programs |
//! | [`workloads`] | `resim-workloads` | calibrated synthetic SPECINT CPU2000 models |
//! | [`tracegen`] | `resim-tracegen` | `sim-bpred`-style trace generation with wrong-path blocks |
//! | [`core`] | `resim-core` | the out-of-order timing engine and minor-cycle pipeline models |
//! | [`obs`] | `resim-obs` | observation: the metrics recorder, event journal, versioned exports |
//! | [`sample`] | `resim-sample` | SMARTS-style sampled simulation: functional warmup, warm state moved into each detailed window, confidence-bounded IPC |
//! | [`session`] | `resim-session` | RSSN record/replay artifacts: every nondeterministic input of a run plus its stats digest |
//! | [`sweep`] | `resim-sweep` | deterministic multi-threaded scenario-grid sweeps with trace sharing |
//! | [`serve`] | `resim-serve` | persistent TCP simulation service with a content-addressed, restart-surviving result cache |
//! | [`fpga`] | `resim-fpga` | device/frequency/area/bandwidth models and Table 2 comparison data |
//! | [`toml`] | `resim-toml` | dependency-free TOML reader with line-numbered diagnostics (scenario files) |
//!
//! The `resim` **binary** (crate `resim-cli`) drives all of this from
//! declarative TOML scenario files and an on-disk trace container —
//! see `docs/guide.md` for the CLI quickstart and reference.
//!
//! ## End-to-end in five lines
//!
//! ```
//! use resim::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let config = EngineConfig::paper_4wide();
//! let trace = generate_trace(Workload::spec(SpecBenchmark::Gzip, 7), 30_000,
//!                            &TraceGenConfig::paper());
//! let stats = Engine::new(config.clone())?.run(trace.source());
//! let trace_stats = trace.stats();
//! let speed = ThroughputModel::new(FpgaDevice::Virtex4Lx40)
//!     .speed(&config, &stats, Some(&trace_stats));
//! println!("{:.2} simulated MIPS at IPC {:.2}", speed.mips, stats.ipc());
//! # Ok(())
//! # }
//! ```
//!
//! See `README.md` for the architecture overview, `docs/guide.md` for
//! the CLI user guide, `DESIGN.md` for the system inventory and
//! substitution notes, and `EXPERIMENTS.md` for the paper-vs-measured
//! record of every table and figure.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use resim_bpred as bpred;
pub use resim_core as core;
pub use resim_fpga as fpga;
pub use resim_isa as isa;
pub use resim_mem as mem;
pub use resim_obs as obs;
pub use resim_sample as sample;
pub use resim_serve as serve;
pub use resim_session as session;
pub use resim_sweep as sweep;
pub use resim_toml as toml;
pub use resim_trace as trace;
pub use resim_tracegen as tracegen;
pub use resim_workloads as workloads;

/// The most common imports in one place.
pub mod prelude {
    pub use resim_bpred::{BranchPredictor, PredictorConfig};
    pub use resim_core::{
        block_diagram, CoreState, Engine, EngineConfig, MinorCycleScheduler, PipelineDescription,
        SimStats, SlotExpr, SlotSpec, StageRow, TraceCursor,
    };
    pub use resim_fpga::{effective_mips, AreaModel, FpgaDevice, ThroughputModel, TraceLink};
    pub use resim_isa::{programs, Assembler, FunctionalSimulator};
    pub use resim_mem::{CacheConfig, MemorySystem, MemorySystemConfig};
    pub use resim_obs::MetricsRecorder;
    pub use resim_sample::{run_sampled, FunctionalWarmer, SamplePlan, SampledStats, WarmupMode};
    pub use resim_session::SessionRecord;
    pub use resim_sweep::{CellMode, Scenario, SweepReport, SweepRunner, WorkloadPoint};
    pub use resim_trace::{
        save_trace_file, FileSource, Trace, TraceFileHeader, TraceRecord, TraceSource,
    };
    pub use resim_tracegen::{generate_trace, TraceCache, TraceGenConfig, TraceStream};
    pub use resim_workloads::{SpecBenchmark, Workload, WorkloadProfile};
}
