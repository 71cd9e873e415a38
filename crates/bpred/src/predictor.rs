//! The combined branch predictor: direction + BTB + RAS.
//!
//! [`BranchPredictor::predict`] classifies a control-flow instruction the
//! way ReSim's Fetch stage does (§III):
//!
//! * **correct** (taken or not-taken) — fetch proceeds without penalty;
//! * **misfetch** — the direction was right (or the branch unconditional)
//!   but the predicted target PC was wrong or unknown; the front end
//!   inserts a fetch bubble of `misfetch_penalty` cycles ("PC is set to
//!   the next sequential address, a misfetch delayed penalty is imposed");
//! * **direction misprediction** — fetch streams down the wrong path until
//!   the branch resolves; the trace generator materialises this wrong path
//!   as a tagged block.
//!
//! Prediction and training are separate so the engine can train at Commit
//! ("updates the Branch Predictor in case of branch", §III) while the trace
//! generator trains in program order.

use crate::btb::{Btb, BtbConfig};
use crate::direction::{DirectionConfig, DirectionPredictor};
use crate::ras::Ras;
use resim_trace::{BranchKind, TraceRecord};

/// Configuration of the combined predictor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PredictorConfig {
    /// Direction predictor selection.
    pub direction: DirectionConfig,
    /// BTB geometry.
    pub btb: BtbConfig,
    /// RAS depth.
    pub ras_entries: usize,
}

impl PredictorConfig {
    /// The paper's reference predictor: two-level (BHT 4, history 8,
    /// PHT 4096), 512-entry direct-mapped BTB, 16-entry RAS.
    pub fn paper_two_level() -> Self {
        Self {
            direction: DirectionConfig::paper_two_level(),
            btb: BtbConfig::paper(),
            ras_entries: 16,
        }
    }

    /// A perfect predictor: right direction *and* right target, always.
    ///
    /// Used by the paper's Table 1 right-hand configuration (2-issue,
    /// perfect BP) to compare against FAST's perfect-BP numbers.
    pub fn perfect() -> Self {
        Self {
            direction: DirectionConfig::Perfect,
            btb: BtbConfig::paper(),
            ras_entries: 16,
        }
    }

    /// A gshare configuration (FAST's trained predictor flavour).
    pub fn gshare(history_bits: u32, pht_size: usize) -> Self {
        Self {
            direction: DirectionConfig::TwoLevel(crate::direction::TwoLevelConfig::gshare(
                history_bits,
                pht_size,
            )),
            btb: BtbConfig::paper(),
            ras_entries: 16,
        }
    }
}

impl Default for PredictorConfig {
    fn default() -> Self {
        Self::paper_two_level()
    }
}

/// How a prediction compared against the resolved outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Resolution {
    /// Predicted not-taken, was not-taken.
    CorrectNotTaken,
    /// Predicted taken with the right target.
    CorrectTaken,
    /// Right direction (or unconditional) but wrong/unknown target:
    /// a fetch-time bubble of the misfetch penalty.
    Misfetch,
    /// Wrong direction: wrong-path fetch until the branch resolves.
    DirMispredict,
}

impl Resolution {
    /// Whether fetch continues down a wrong path after this branch.
    pub fn starts_wrong_path(self) -> bool {
        matches!(self, Resolution::DirMispredict)
    }

    /// Whether the branch was predicted without any penalty.
    pub fn is_correct(self) -> bool {
        matches!(self, Resolution::CorrectNotTaken | Resolution::CorrectTaken)
    }
}

/// The outcome of predicting one control-flow instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Prediction {
    pred_taken: bool,
    pred_target: Option<u32>,
    outcome: Resolution,
}

impl Prediction {
    /// Predicted direction.
    pub fn taken(&self) -> bool {
        self.pred_taken
    }

    /// Predicted target (from BTB or RAS), if any.
    pub fn target(&self) -> Option<u32> {
        self.pred_target
    }

    /// Classification against the resolved outcome.
    pub fn outcome(&self) -> Resolution {
        self.outcome
    }
}

/// 64-bit predictor statistics (paper §V.B: detailed branch information).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PredictorStats {
    /// Control-flow instructions predicted.
    pub branches: u64,
    /// Conditional branches among them.
    pub cond_branches: u64,
    /// Correct predictions (direction and target).
    pub correct: u64,
    /// Fetch-time target misfetches.
    pub misfetches: u64,
    /// Direction mispredictions.
    pub dir_mispredicts: u64,
    /// Returns predicted through the RAS.
    pub ras_predictions: u64,
    /// RAS predictions whose target was right.
    pub ras_correct: u64,
}

impl PredictorStats {
    /// Field-wise sum of two counter sets — composes the statistics of
    /// windowed runs (every field is a count; nothing needs weighting).
    pub fn merge(&self, other: &PredictorStats) -> PredictorStats {
        PredictorStats {
            branches: self.branches + other.branches,
            cond_branches: self.cond_branches + other.cond_branches,
            correct: self.correct + other.correct,
            misfetches: self.misfetches + other.misfetches,
            dir_mispredicts: self.dir_mispredicts + other.dir_mispredicts,
            ras_predictions: self.ras_predictions + other.ras_predictions,
            ras_correct: self.ras_correct + other.ras_correct,
        }
    }

    /// Direction accuracy over conditional branches.
    pub fn cond_accuracy(&self) -> f64 {
        if self.cond_branches == 0 {
            0.0
        } else {
            1.0 - self.dir_mispredicts as f64 / self.cond_branches as f64
        }
    }

    /// Overall no-penalty rate.
    pub fn address_accuracy(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.correct as f64 / self.branches as f64
        }
    }
}

/// Direction predictor + BTB + RAS, with ReSim's fetch-time classification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BranchPredictor {
    direction: DirectionPredictor,
    btb: Btb,
    ras: Ras,
    perfect: bool,
    stats: PredictorStats,
}

impl BranchPredictor {
    /// Instantiates the predictor described by `config`.
    pub fn new(config: PredictorConfig) -> Self {
        let perfect = matches!(config.direction, DirectionConfig::Perfect);
        Self {
            direction: DirectionPredictor::new(config.direction),
            btb: Btb::new(config.btb),
            ras: Ras::new(config.ras_entries),
            perfect,
            stats: PredictorStats::default(),
        }
    }

    /// The configuration this predictor was built with.
    pub fn config(&self) -> PredictorConfig {
        PredictorConfig {
            direction: self.direction.config(),
            btb: self.btb.config(),
            ras_entries: self.ras.capacity(),
        }
    }

    /// Whether this is the perfect oracle (never mispredicts or misfetches).
    pub fn is_perfect(&self) -> bool {
        self.perfect
    }

    /// Predicts the control-flow instruction at `pc` and classifies the
    /// prediction against the resolved outcome carried by the trace.
    ///
    /// `actual_taken` / `actual_target` come from the trace record (the
    /// functional side has already resolved them). Speculative RAS
    /// push/pop happens here, at prediction time, as in hardware.
    pub fn predict(
        &mut self,
        pc: u32,
        kind: BranchKind,
        actual_taken: bool,
        actual_target: u32,
    ) -> Prediction {
        self.stats.branches += 1;
        if kind == BranchKind::Cond {
            self.stats.cond_branches += 1;
        }

        if self.perfect {
            self.stats.correct += 1;
            return Prediction {
                pred_taken: actual_taken,
                pred_target: Some(actual_target),
                outcome: if actual_taken {
                    Resolution::CorrectTaken
                } else {
                    Resolution::CorrectNotTaken
                },
            };
        }

        // Direction.
        let pred_taken = if kind.is_unconditional() {
            true
        } else {
            self.direction.predict(pc, actual_taken)
        };

        // Target: RAS for returns, BTB otherwise.
        let pred_target = if kind.pops_ras() {
            let t = self.ras.pop();
            self.stats.ras_predictions += 1;
            if t == Some(actual_target) {
                self.stats.ras_correct += 1;
            }
            t
        } else {
            self.btb.lookup(pc)
        };
        // Calls push their return address speculatively.
        if kind.pushes_ras() {
            self.ras.push(pc.wrapping_add(4));
        }

        let outcome = if pred_taken != actual_taken {
            self.stats.dir_mispredicts += 1;
            Resolution::DirMispredict
        } else if !actual_taken {
            self.stats.correct += 1;
            Resolution::CorrectNotTaken
        } else if pred_target == Some(actual_target) {
            self.stats.correct += 1;
            Resolution::CorrectTaken
        } else {
            self.stats.misfetches += 1;
            Resolution::Misfetch
        };

        Prediction {
            pred_taken,
            pred_target,
            outcome,
        }
    }

    /// Trains the predictor with a resolved branch.
    ///
    /// ReSim performs this at Commit; the trace generator in program order.
    pub fn resolve(&mut self, pc: u32, kind: BranchKind, taken: bool, target: u32) {
        if kind == BranchKind::Cond {
            self.direction.update(pc, taken);
        }
        if taken {
            self.btb.update(pc, target);
        }
    }

    /// Applies one trace record's *training* effects without predicting
    /// and without touching any statistics counter — the functional-warmup
    /// entry point of sampled simulation.
    ///
    /// Non-branch records are ignored. For a branch, the tables end up as
    /// a detailed replay would leave them: the direction predictor trains
    /// on conditionals, the BTB learns taken targets, and calls/returns
    /// push/pop the RAS (whose internal traffic diagnostics do tick — they
    /// are not part of [`PredictorStats`]).
    pub fn warm_record(&mut self, record: &TraceRecord) {
        let TraceRecord::Branch(b) = record else {
            return;
        };
        self.warm(b.pc, b.kind, b.taken, b.target);
    }

    /// [`BranchPredictor::warm_record`] with the branch fields unpacked.
    pub fn warm(&mut self, pc: u32, kind: BranchKind, taken: bool, target: u32) {
        if self.perfect {
            return; // the oracle keeps no tables
        }
        if kind.pops_ras() {
            let _ = self.ras.pop();
        }
        if kind.pushes_ras() {
            self.ras.push(pc.wrapping_add(4));
        }
        if kind == BranchKind::Cond {
            self.direction.update(pc, taken);
        }
        if taken {
            self.btb.update(pc, target);
        }
    }

    /// Zeroes every counter — [`PredictorStats`], BTB lookups/hits and
    /// RAS traffic — keeping the tables warm. Afterwards the predictor
    /// equals a fresh one for the same configuration that had been
    /// trained into the same tables, which is what lets a sampled run
    /// hand one live predictor from window to window.
    pub fn reset_stats(&mut self) {
        self.stats = PredictorStats::default();
        self.btb.reset_stats();
        self.ras.reset_stats();
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> PredictorStats {
        self.stats
    }

    /// The BTB, for hit-rate statistics.
    pub fn btb(&self) -> &Btb {
        &self.btb
    }

    /// The RAS, for depth/overflow statistics.
    pub fn ras(&self) -> &Ras {
        &self.ras
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn predict_resolve(
        bp: &mut BranchPredictor,
        pc: u32,
        kind: BranchKind,
        taken: bool,
        target: u32,
    ) -> Resolution {
        let p = bp.predict(pc, kind, taken, target);
        bp.resolve(pc, kind, taken, target);
        p.outcome()
    }

    #[test]
    fn perfect_never_penalises() {
        let mut bp = BranchPredictor::new(PredictorConfig::perfect());
        assert!(bp.is_perfect());
        for i in 0..100u32 {
            let taken = i % 3 == 0;
            let o = predict_resolve(&mut bp, 0x1000 + i * 4, BranchKind::Cond, taken, 0x4000);
            assert!(o.is_correct());
        }
        let s = bp.stats();
        assert_eq!(s.dir_mispredicts, 0);
        assert_eq!(s.misfetches, 0);
        assert_eq!(s.correct, 100);
    }

    #[test]
    fn loop_branch_becomes_correct_taken() {
        let mut bp = BranchPredictor::new(PredictorConfig::paper_two_level());
        // First encounter: BTB cold -> misfetch or mispredict; then warm.
        let mut last = Resolution::Misfetch;
        for _ in 0..50 {
            last = predict_resolve(&mut bp, 0x100, BranchKind::Cond, true, 0x80);
        }
        assert_eq!(last, Resolution::CorrectTaken);
        assert!(bp.stats().cond_accuracy() > 0.9);
    }

    #[test]
    fn cold_unconditional_jump_misfetches_then_hits() {
        let mut bp = BranchPredictor::new(PredictorConfig::paper_two_level());
        let first = predict_resolve(&mut bp, 0x200, BranchKind::Jump, true, 0x900);
        assert_eq!(first, Resolution::Misfetch, "cold BTB has no target");
        let second = predict_resolve(&mut bp, 0x200, BranchKind::Jump, true, 0x900);
        assert_eq!(second, Resolution::CorrectTaken);
    }

    #[test]
    fn call_return_pair_uses_ras() {
        let mut bp = BranchPredictor::new(PredictorConfig::paper_two_level());
        // Call at 0x100 -> 0x800; RAS now holds 0x104.
        predict_resolve(&mut bp, 0x100, BranchKind::Call, true, 0x800);
        // Return from 0x900 -> 0x104: RAS predicts correctly even though
        // the BTB has never seen this return.
        let o = predict_resolve(&mut bp, 0x900, BranchKind::Return, true, 0x104);
        assert_eq!(o, Resolution::CorrectTaken);
        let s = bp.stats();
        assert_eq!(s.ras_predictions, 1);
        assert_eq!(s.ras_correct, 1);
    }

    #[test]
    fn return_with_empty_ras_misfetches() {
        let mut bp = BranchPredictor::new(PredictorConfig::paper_two_level());
        let o = predict_resolve(&mut bp, 0x900, BranchKind::Return, true, 0x104);
        assert_eq!(o, Resolution::Misfetch);
    }

    #[test]
    fn biased_not_taken_branch_mispredicts_when_taken() {
        let mut bp = BranchPredictor::new(PredictorConfig::paper_two_level());
        for _ in 0..20 {
            predict_resolve(&mut bp, 0x300, BranchKind::Cond, false, 0x600);
        }
        let o = predict_resolve(&mut bp, 0x300, BranchKind::Cond, true, 0x600);
        assert_eq!(o, Resolution::DirMispredict);
        assert!(o.starts_wrong_path());
        assert!(bp.stats().dir_mispredicts >= 1);
    }

    #[test]
    fn indirect_jump_with_changing_target_misfetches() {
        let mut bp = BranchPredictor::new(PredictorConfig::paper_two_level());
        predict_resolve(&mut bp, 0x400, BranchKind::IndirectJump, true, 0x1000);
        predict_resolve(&mut bp, 0x400, BranchKind::IndirectJump, true, 0x1000);
        // Target changes: BTB still predicts the old one -> misfetch.
        let o = predict_resolve(&mut bp, 0x400, BranchKind::IndirectJump, true, 0x2000);
        assert_eq!(o, Resolution::Misfetch);
    }

    /// A deterministic little branch stream covering all RAS/BTB/PHT paths.
    fn mixed_branches(n: u32) -> Vec<(u32, BranchKind, bool, u32)> {
        (0..n)
            .map(|i| match i % 5 {
                0 => (0x100 + (i % 7) * 4, BranchKind::Cond, i % 3 == 0, 0x40),
                1 => (0x200 + (i % 3) * 4, BranchKind::Jump, true, 0x900 + i * 8),
                2 => (0x300, BranchKind::Call, true, 0x800),
                3 => (0x900, BranchKind::Return, true, 0x304),
                _ => (0x400 + (i % 11) * 4, BranchKind::Cond, i % 2 == 0, 0x80),
            })
            .collect()
    }

    #[test]
    fn warm_leaves_same_tables_as_predict_resolve() {
        let mut detailed = BranchPredictor::new(PredictorConfig::paper_two_level());
        let mut warmed = BranchPredictor::new(PredictorConfig::paper_two_level());
        for (pc, kind, taken, target) in mixed_branches(500) {
            detailed.predict(pc, kind, taken, target);
            detailed.resolve(pc, kind, taken, target);
            warmed.warm(pc, kind, taken, target);
        }
        assert_eq!(warmed.stats(), PredictorStats::default(), "warm is stats-silent");
        assert!(detailed.stats().branches > 0);
        detailed.reset_stats();
        warmed.reset_stats();
        assert_eq!(detailed, warmed, "same tables");
    }

    #[test]
    fn warm_record_ignores_non_branches() {
        use resim_trace::{OpClass, OtherRecord};
        let mut bp = BranchPredictor::new(PredictorConfig::paper_two_level());
        let before = bp.clone();
        bp.warm_record(&TraceRecord::Other(OtherRecord {
            pc: 0x100,
            class: OpClass::IntAlu,
            dest: None,
            src1: None,
            src2: None,
            wrong_path: false,
        }));
        assert_eq!(bp, before);
    }

    #[test]
    fn reset_stats_zeroes_counters_and_keeps_future_behaviour() {
        let mut warm = BranchPredictor::new(PredictorConfig::paper_two_level());
        for (pc, kind, taken, target) in mixed_branches(300) {
            warm.predict(pc, kind, taken, target);
            warm.resolve(pc, kind, taken, target);
        }
        let mut reset = warm.clone();
        reset.reset_stats();
        assert_eq!(reset.stats(), PredictorStats::default());
        assert_eq!((reset.btb().lookups(), reset.btb().hits()), (0, 0));
        assert_eq!((reset.ras().pushes(), reset.ras().pops()), (0, 0));
        assert_eq!(reset.ras().depth(), warm.ras().depth(), "RAS contents kept");
        // Identical behaviour from here on.
        for (pc, kind, taken, target) in mixed_branches(100) {
            let a = warm.predict(pc, kind, taken, target);
            let b = reset.predict(pc, kind, taken, target);
            assert_eq!(a, b);
            warm.resolve(pc, kind, taken, target);
            reset.resolve(pc, kind, taken, target);
        }
    }

    #[test]
    fn config_reads_back_from_the_live_predictor() {
        for config in [
            PredictorConfig::paper_two_level(),
            PredictorConfig::perfect(),
            PredictorConfig::gshare(4, 256),
            PredictorConfig {
                direction: DirectionConfig::Bimodal { size: 64 },
                btb: BtbConfig {
                    entries: 8,
                    associativity: 2,
                },
                ras_entries: 4,
            },
            PredictorConfig {
                direction: DirectionConfig::NotTaken,
                ..PredictorConfig::default()
            },
        ] {
            assert_eq!(BranchPredictor::new(config).config(), config);
        }
    }

    #[test]
    fn perfect_predictor_warm_is_noop() {
        let mut bp = BranchPredictor::new(PredictorConfig::perfect());
        let before = bp.clone();
        bp.warm(0x100, BranchKind::Call, true, 0x800);
        assert_eq!(bp, before);
    }

    #[test]
    fn stats_merge_adds_fieldwise() {
        let a = PredictorStats {
            branches: 10,
            cond_branches: 6,
            correct: 5,
            misfetches: 2,
            dir_mispredicts: 3,
            ras_predictions: 1,
            ras_correct: 1,
        };
        let b = PredictorStats {
            branches: 1,
            cond_branches: 1,
            correct: 1,
            misfetches: 0,
            dir_mispredicts: 0,
            ras_predictions: 0,
            ras_correct: 0,
        };
        let m = a.merge(&b);
        assert_eq!(m.branches, 11);
        assert_eq!(m.correct, 6);
        assert_eq!(m.merge(&PredictorStats::default()), m);
    }

    #[test]
    fn stats_accounting_consistency() {
        let mut bp = BranchPredictor::new(PredictorConfig::paper_two_level());
        for i in 0..200u32 {
            let taken = (i / 7) % 2 == 0;
            predict_resolve(&mut bp, 0x100 + (i % 13) * 4, BranchKind::Cond, taken, 0x40);
        }
        let s = bp.stats();
        assert_eq!(s.branches, 200);
        assert_eq!(s.cond_branches, 200);
        assert_eq!(s.correct + s.misfetches + s.dir_mispredicts, 200);
        assert!(s.cond_accuracy() >= 0.0 && s.cond_accuracy() <= 1.0);
    }
}
