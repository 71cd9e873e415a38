//! # resim-bpred
//!
//! Branch prediction models for ReSim (Fytraki & Pnevmatikatos, DATE 2009).
//!
//! The paper's Branch Predictor block (§III) is fully parametric and
//! contains three cooperating structures, each reproduced here:
//!
//! * a **direction predictor** — the reference configuration is a two-level
//!   scheme with a 4-entry Branch History Table, 8-bit history registers
//!   and a 4096-entry Pattern History Table of 2-bit counters
//!   ([`DirectionPredictor`]);
//! * a **Branch Target Buffer** — 512-entry direct-mapped by default
//!   ([`Btb`]);
//! * a **Return Address Stack** — 16 entries by default ([`Ras`]).
//!
//! [`BranchPredictor`] combines the three and classifies every control-flow
//! instruction the way ReSim's Fetch stage does: correct prediction,
//! **misfetch** ("a control flow instruction is predicted taken but the
//! predicted target PC is incorrect", fixed by setting the PC to the next
//! sequential address after a misfetch penalty), or full **direction
//! misprediction** (which sends fetch down the wrong path until the branch
//! resolves).
//!
//! The same model serves both the trace generator (the paper's modified
//! `sim-bpred`, which decides where wrong-path blocks go) and the timing
//! engine (misfetch detection and predictor statistics).
//!
//! ## Example
//!
//! ```
//! use resim_bpred::{BranchPredictor, PredictorConfig, Resolution};
//! use resim_trace::BranchKind;
//!
//! // The paper's reference predictor: 2-level + 512-entry BTB + 16-deep RAS.
//! let mut bp = BranchPredictor::new(PredictorConfig::paper_two_level());
//!
//! // A loop branch at 0x1000, taken 100 times: the 2-level predictor locks on.
//! let mut correct = 0;
//! for _ in 0..100 {
//!     let p = bp.predict(0x1000, BranchKind::Cond, true, 0x0800);
//!     if p.outcome() == Resolution::CorrectTaken { correct += 1; }
//!     bp.resolve(0x1000, BranchKind::Cond, true, 0x0800);
//! }
//! assert!(correct > 90);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod btb;
mod counter;
mod direction;
mod from_table;
mod predictor;
mod ras;
mod tournament;

pub use btb::{Btb, BtbConfig};
pub use counter::SatCounter;
pub use direction::{DirectionConfig, DirectionPredictor, TwoLevelConfig};
pub use predictor::{BranchPredictor, Prediction, PredictorConfig, PredictorStats, Resolution};
pub use ras::Ras;
pub use tournament::{TournamentConfig, TournamentPredictor};
