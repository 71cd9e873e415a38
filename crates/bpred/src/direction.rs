//! Direction predictors: static, bimodal, two-level adaptive and gshare.
//!
//! The paper's reference configuration (§V.C) is a two-level scheme with a
//! Branch History Table of 4 history registers, 8 bits of history each, and
//! a 4096-entry PHT of 2-bit counters — [`TwoLevelConfig::paper`]. A
//! "perfect" direction predictor (used in the Table 1 right-hand
//! configuration and in FAST's reported numbers) is provided as
//! [`DirectionConfig::Perfect`]; its prediction is the resolved direction,
//! so it never sends fetch down a wrong path.

use crate::counter::SatCounter;

/// Configuration of a two-level adaptive predictor (SimpleScalar `2lev`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TwoLevelConfig {
    /// Number of level-1 history registers (BHT entries); power of two.
    pub l1_size: usize,
    /// History register length in bits (1–16).
    pub history_bits: u32,
    /// Number of level-2 pattern-history counters; power of two.
    pub l2_size: usize,
    /// XOR the history with the PC when indexing the PHT (gshare-style).
    pub xor: bool,
    /// Width of the PHT saturating counters (2 in the paper).
    pub counter_bits: u32,
}

impl TwoLevelConfig {
    /// The paper's configuration: BHT 4 × 8-bit history, 4096-entry PHT.
    pub fn paper() -> Self {
        Self {
            l1_size: 4,
            history_bits: 8,
            l2_size: 4096,
            xor: false,
            counter_bits: 2,
        }
    }

    /// A gshare predictor: single global history register XOR-ed with the
    /// PC (the configuration FAST reports for its non-perfect results).
    pub fn gshare(history_bits: u32, pht_size: usize) -> Self {
        Self {
            l1_size: 1,
            history_bits,
            l2_size: pht_size,
            xor: true,
            counter_bits: 2,
        }
    }

    fn validate(&self) {
        assert!(
            self.l1_size.is_power_of_two(),
            "two-level l1_size must be a power of two, got {}",
            self.l1_size
        );
        assert!(
            self.l2_size.is_power_of_two(),
            "two-level l2_size must be a power of two, got {}",
            self.l2_size
        );
        assert!(
            (1..=16).contains(&self.history_bits),
            "history length {} out of 1..=16",
            self.history_bits
        );
    }
}

/// Which direction predictor to instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DirectionConfig {
    /// Always predict the resolved direction (no direction mispredictions).
    Perfect,
    /// Always predict taken.
    Taken,
    /// Always predict not-taken.
    NotTaken,
    /// PC-indexed table of 2-bit counters.
    Bimodal {
        /// Table size (power of two).
        size: usize,
    },
    /// Two-level adaptive predictor.
    TwoLevel(TwoLevelConfig),
}

impl DirectionConfig {
    /// The paper's two-level reference configuration.
    pub fn paper_two_level() -> Self {
        DirectionConfig::TwoLevel(TwoLevelConfig::paper())
    }
}

/// A concrete direction predictor instance.
///
/// Prediction is split from update so callers can model delayed training
/// (ReSim updates the predictor at Commit, §III).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DirectionPredictor {
    /// See [`DirectionConfig::Perfect`].
    Perfect,
    /// See [`DirectionConfig::Taken`].
    Taken,
    /// See [`DirectionConfig::NotTaken`].
    NotTaken,
    /// PC-indexed counter table.
    Bimodal {
        /// Counter table, indexed by PC word address.
        table: Vec<SatCounter>,
    },
    /// Two-level adaptive: per-set history registers selecting PHT entries.
    TwoLevel {
        /// Level-1 history registers.
        histories: Vec<u16>,
        /// Level-2 pattern history counters.
        pht: Vec<SatCounter>,
        /// Static geometry.
        config: TwoLevelConfig,
    },
}

impl DirectionPredictor {
    /// Instantiates the predictor described by `config`.
    ///
    /// # Panics
    ///
    /// Panics if table sizes are not powers of two or history length is
    /// out of range.
    pub fn new(config: DirectionConfig) -> Self {
        match config {
            DirectionConfig::Perfect => DirectionPredictor::Perfect,
            DirectionConfig::Taken => DirectionPredictor::Taken,
            DirectionConfig::NotTaken => DirectionPredictor::NotTaken,
            DirectionConfig::Bimodal { size } => {
                assert!(
                    size.is_power_of_two(),
                    "bimodal table size must be a power of two, got {size}"
                );
                DirectionPredictor::Bimodal {
                    table: vec![SatCounter::two_bit(); size],
                }
            }
            DirectionConfig::TwoLevel(c) => {
                c.validate();
                DirectionPredictor::TwoLevel {
                    histories: vec![0; c.l1_size],
                    pht: vec![SatCounter::new(c.counter_bits); c.l2_size],
                    config: c,
                }
            }
        }
    }

    /// The configuration this predictor was built with.
    pub fn config(&self) -> DirectionConfig {
        match self {
            DirectionPredictor::Perfect => DirectionConfig::Perfect,
            DirectionPredictor::Taken => DirectionConfig::Taken,
            DirectionPredictor::NotTaken => DirectionConfig::NotTaken,
            DirectionPredictor::Bimodal { table } => DirectionConfig::Bimodal { size: table.len() },
            DirectionPredictor::TwoLevel { config, .. } => DirectionConfig::TwoLevel(*config),
        }
    }

    /// Whether this predictor is the perfect oracle.
    pub fn is_perfect(&self) -> bool {
        matches!(self, DirectionPredictor::Perfect)
    }

    /// Predicts the direction of the conditional branch at `pc`.
    ///
    /// `actual` is the resolved direction; only the perfect predictor
    /// consults it.
    pub fn predict(&self, pc: u32, actual: bool) -> bool {
        match self {
            DirectionPredictor::Perfect => actual,
            DirectionPredictor::Taken => true,
            DirectionPredictor::NotTaken => false,
            DirectionPredictor::Bimodal { table } => {
                table[Self::pc_index(pc, table.len())].predicts_taken()
            }
            DirectionPredictor::TwoLevel {
                histories,
                pht,
                config,
            } => {
                let idx = Self::pht_index(pc, histories, config, pht.len());
                pht[idx].predicts_taken()
            }
        }
    }

    /// Trains the predictor with the resolved direction of the branch at
    /// `pc`.
    pub fn update(&mut self, pc: u32, taken: bool) {
        match self {
            DirectionPredictor::Perfect
            | DirectionPredictor::Taken
            | DirectionPredictor::NotTaken => {}
            DirectionPredictor::Bimodal { table } => {
                let len = table.len();
                table[Self::pc_index(pc, len)].update(taken);
            }
            DirectionPredictor::TwoLevel {
                histories,
                pht,
                config,
            } => {
                let pht_len = pht.len();
                let idx = Self::pht_index(pc, histories, config, pht_len);
                pht[idx].update(taken);
                let h_idx = Self::pc_index(pc, histories.len());
                let mask = (1u32 << config.history_bits) - 1;
                histories[h_idx] =
                    (((u32::from(histories[h_idx]) << 1) | u32::from(taken)) & mask) as u16;
            }
        }
    }

    fn pc_index(pc: u32, len: usize) -> usize {
        ((pc >> 2) as usize) & (len - 1)
    }

    fn pht_index(pc: u32, histories: &[u16], config: &TwoLevelConfig, pht_len: usize) -> usize {
        let h = u32::from(histories[Self::pc_index(pc, histories.len())]);
        let raw = if config.xor {
            h ^ (pc >> 2)
        } else {
            // SimpleScalar concatenates history below PC bits.
            (h) | ((pc >> 2) << config.history_bits)
        };
        (raw as usize) & (pht_len - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_always_matches_actual() {
        let p = DirectionPredictor::new(DirectionConfig::Perfect);
        assert!(p.predict(0x10, true));
        assert!(!p.predict(0x10, false));
        assert!(p.is_perfect());
    }

    #[test]
    fn static_predictors() {
        assert!(DirectionPredictor::new(DirectionConfig::Taken).predict(0, false));
        assert!(!DirectionPredictor::new(DirectionConfig::NotTaken).predict(0, true));
    }

    #[test]
    fn bimodal_learns_bias() {
        let mut p = DirectionPredictor::new(DirectionConfig::Bimodal { size: 64 });
        for _ in 0..4 {
            p.update(0x100, false);
        }
        assert!(!p.predict(0x100, true));
        // A different (non-aliasing) branch keeps its own counter.
        assert!(p.predict(0x104, true));
    }

    #[test]
    fn two_level_learns_alternating_pattern() {
        // Bimodal cannot learn a strict T/NT alternation; two-level can.
        let mut p = DirectionPredictor::new(DirectionConfig::TwoLevel(TwoLevelConfig::paper()));
        let pc = 0x2000;
        let mut taken = false;
        // Warm up.
        for _ in 0..64 {
            p.update(pc, taken);
            taken = !taken;
        }
        // Now every prediction should be correct.
        let mut correct = 0;
        for _ in 0..32 {
            if p.predict(pc, taken) == taken {
                correct += 1;
            }
            p.update(pc, taken);
            taken = !taken;
        }
        assert_eq!(correct, 32, "two-level must lock onto alternation");
    }

    #[test]
    fn gshare_learns_correlated_branches() {
        let mut p =
            DirectionPredictor::new(DirectionConfig::TwoLevel(TwoLevelConfig::gshare(8, 4096)));
        // Pattern of period 4 on one branch.
        let pat = [true, true, false, true];
        for i in 0..400usize {
            let t = pat[i % 4];
            if i >= 100 {
                assert_eq!(
                    p.predict(0x500, t),
                    t,
                    "gshare should have locked on by {i}"
                );
            }
            p.update(0x500, t);
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_bimodal_size_panics() {
        let _ = DirectionPredictor::new(DirectionConfig::Bimodal { size: 100 });
    }

    #[test]
    fn paper_config_geometry() {
        let c = TwoLevelConfig::paper();
        assert_eq!(c.l1_size, 4);
        assert_eq!(c.history_bits, 8);
        assert_eq!(c.l2_size, 4096);
        let p = DirectionPredictor::new(DirectionConfig::TwoLevel(c));
        match p {
            DirectionPredictor::TwoLevel { histories, pht, .. } => {
                assert_eq!(histories.len(), 4);
                assert_eq!(pht.len(), 4096);
            }
            _ => unreachable!(),
        }
    }
}
