//! # resim-sample
//!
//! SMARTS-style sampled simulation for ReSim (Fytraki & Pnevmatikatos,
//! DATE 2009).
//!
//! ReSim's reason to exist is cheap bulk design-space exploration; the
//! paper accelerates the detailed model with an FPGA, and the classic
//! software-side lever is **statistical sampling**: simulate short
//! detailed windows, keep the long-lived microarchitectural state warm in
//! between with a functional model that is an order of magnitude cheaper
//! per record, and report the mean per-window IPC with a confidence
//! interval (Wunderlich et al., SMARTS, ISCA 2003).
//!
//! The subsystem in this crate:
//!
//! * [`SamplePlan`] — systematic interval sampling: interval length,
//!   detailed-window length, sampling period/offset, and a [`WarmupMode`]
//!   choosing between full functional warming and bounded warming with
//!   codec-level fast-forward
//!   ([`TraceSource::skip`](resim_trace::TraceSource::skip));
//! * [`FunctionalWarmer`] — drives the stats-silent `warm_record` entry
//!   points of `resim-bpred` and `resim-mem` (branch tables, BTB, RAS,
//!   cache tag arrays) with no out-of-order engine at all;
//! * the warm-state hand-off by move — at each sampling point the
//!   warmer's live predictor and memory system move into a detailed
//!   engine ([`Engine::resume`](resim_core::Engine::resume), which zeroes
//!   only their counters), and after the window the same objects move
//!   back ([`Engine::into_warm`](resim_core::Engine::into_warm)); no
//!   table is ever copied;
//! * [`run_sampled`] — the driver, with a contiguous fast path that makes
//!   a 100 %-coverage plan **bit-identical** to
//!   [`Engine::run`](resim_core::Engine::run);
//! * [`simulate`] — the one fallible run path of the `resim` commands
//!   and the sweep runner: one [`Engine::run`](resim_core::Engine::run)
//!   without a plan, [`run_sampled`] with one, and a [`RunOutcome`]
//!   either way;
//! * [`SampledStats`] — per-window IPCs, their mean, variance and a
//!   Student-t 95 % confidence interval.
//!
//! `resim-sweep` exposes all of this as a first-class cell execution mode
//! (`CellMode::Sampled`, run through [`simulate`]), so scenario grids can
//! trade accuracy for wall-clock per cell.
//!
//! ## Example
//!
//! ```
//! use resim_core::{Engine, EngineConfig};
//! use resim_sample::{run_sampled, SamplePlan};
//! use resim_tracegen::{generate_trace, TraceGenConfig};
//! use resim_workloads::{SpecBenchmark, Workload};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let trace = generate_trace(
//!     Workload::spec(SpecBenchmark::Gzip, 2009),
//!     40_000,
//!     &TraceGenConfig::paper(),
//! );
//! let config = EngineConfig::paper_4wide();
//!
//! // Detail 1k of every other 4k-record interval (12.5 % coverage).
//! let plan = SamplePlan::systematic(4_000, 1_000, 2);
//! let sampled = run_sampled(&config, trace.source(), &plan)?;
//!
//! let full = Engine::new(config)?.run(trace.source());
//! let (lo, hi) = sampled.ci95();
//! println!(
//!     "sampled IPC {:.3} [{lo:.3}, {hi:.3}] vs full {:.3} over {} windows",
//!     sampled.mean_ipc(), full.ipc(), sampled.n_windows(),
//! );
//! assert!(sampled.relative_error(full.ipc()) < 0.1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod from_table;
mod plan;
mod runner;
mod stats;
mod warm;

pub use plan::{PlanError, SamplePlan, WarmupMode};
pub use runner::{run_sampled, simulate, RunOutcome, SampleError};
pub use stats::{SampledStats, WindowStats};
pub use warm::FunctionalWarmer;
