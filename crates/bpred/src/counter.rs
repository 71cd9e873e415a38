//! Saturating up/down counters — the PHT cell of every dynamic predictor.

/// An n-bit saturating counter (default 2-bit, as in the paper's PHT).
///
/// The counter predicts *taken* when in the upper half of its range. A
/// 2-bit counter therefore implements the classic strongly/weakly
/// taken/not-taken state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SatCounter {
    value: u8,
    max: u8,
}

impl SatCounter {
    /// Creates a counter with `bits` width (1–7), initialised weakly taken.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or greater than 7.
    pub fn new(bits: u32) -> Self {
        assert!((1..=7).contains(&bits), "counter width {bits} out of 1..=7");
        let max = (1u8 << bits) - 1;
        Self {
            // Weakly taken: the lowest value that still predicts taken.
            value: (max / 2) + 1,
            max,
        }
    }

    /// The classic 2-bit counter initialised weakly taken.
    pub fn two_bit() -> Self {
        Self::new(2)
    }

    /// Current raw value.
    pub fn value(self) -> u8 {
        self.value
    }

    /// Maximum (saturated) value.
    pub fn max(self) -> u8 {
        self.max
    }

    /// Whether the counter currently predicts taken.
    pub fn predicts_taken(self) -> bool {
        self.value > self.max / 2
    }

    /// Trains the counter toward the resolved direction.
    ///
    /// Branchless: the ±1 move is computed arithmetically and saturated
    /// with a clamp (which lowers to conditional moves), so the hottest
    /// predictor write in the simulator never takes a data-dependent
    /// branch. Bit-identical to the classic two-branch formulation.
    pub fn update(&mut self, taken: bool) {
        let next = i16::from(self.value) + (i16::from(taken) * 2 - 1);
        self.value = next.clamp(0, i16::from(self.max)) as u8;
    }
}

impl Default for SatCounter {
    fn default() -> Self {
        Self::two_bit()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_bit_state_machine() {
        let mut c = SatCounter::two_bit();
        assert_eq!(c.value(), 2); // weakly taken
        assert!(c.predicts_taken());
        c.update(false);
        assert!(!c.predicts_taken()); // weakly not-taken
        c.update(false);
        assert_eq!(c.value(), 0); // strongly not-taken
        c.update(false);
        assert_eq!(c.value(), 0); // saturates
        c.update(true);
        assert!(!c.predicts_taken()); // needs two to flip from strong
        c.update(true);
        assert!(c.predicts_taken());
        c.update(true);
        c.update(true);
        assert_eq!(c.value(), 3); // saturates high
    }

    #[test]
    fn hysteresis_tolerates_one_off() {
        // A saturated-taken counter should survive one not-taken outcome.
        let mut c = SatCounter::two_bit();
        c.update(true);
        c.update(true);
        c.update(false);
        assert!(c.predicts_taken());
    }

    #[test]
    fn one_bit_counter_has_no_hysteresis() {
        let mut c = SatCounter::new(1);
        c.update(false);
        assert!(!c.predicts_taken());
        c.update(true);
        assert!(c.predicts_taken());
    }

    #[test]
    #[should_panic(expected = "out of 1..=7")]
    fn zero_width_panics() {
        let _ = SatCounter::new(0);
    }

    #[test]
    fn three_bit_range() {
        let mut c = SatCounter::new(3);
        assert_eq!(c.max(), 7);
        for _ in 0..10 {
            c.update(true);
        }
        assert_eq!(c.value(), 7);
    }
}
