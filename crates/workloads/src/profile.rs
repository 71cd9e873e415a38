//! The knobs of a synthetic workload.

/// Statistical shape of a synthetic benchmark.
///
/// Fractions are of *non-terminator* instruction slots unless noted; block
/// terminators (branches, jumps, calls, returns) are controlled by the
/// `frac_*` terminator fields. The dynamic instruction mix emerges from
/// both together: with a mean block length of `L` slots, roughly
/// `1/(L+1)` of the dynamic stream is control flow.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadProfile {
    /// Display name (e.g. `"gzip"`).
    pub name: &'static str,

    // --- instruction mix (fractions of non-terminator slots) ---
    /// Load fraction.
    pub frac_load: f64,
    /// Store fraction.
    pub frac_store: f64,
    /// Multiply-class fraction.
    pub frac_mult: f64,
    /// Divide-class fraction.
    pub frac_div: f64,
    /// Nop fraction.
    pub frac_nop: f64,

    // --- control structure ---
    /// Number of basic blocks in the main code region (code footprint).
    pub num_blocks: usize,
    /// Minimum slots per block (excluding the terminator).
    pub block_len_min: usize,
    /// Maximum slots per block.
    pub block_len_max: usize,
    /// Of terminators: fraction that are unconditional jumps.
    pub frac_jump: f64,
    /// Of terminators: fraction that are calls into a function region.
    pub frac_call: f64,
    /// Of terminators: fraction with no control transfer at all.
    pub frac_fallthrough: f64,
    /// Of *conditional* terminators: loop back-edges (highly predictable).
    pub frac_loop_branches: f64,
    /// Of conditional terminators: 50/50 random branches (unpredictable).
    pub frac_random_branches: f64,
    /// Taken probability of biased (non-loop, non-random) branches.
    pub bias_strength: f64,
    /// Mean trip count of loop back-edges.
    pub mean_loop_trips: u32,
    /// Number of callable functions.
    pub num_functions: usize,
    /// Blocks per function body.
    pub func_len_blocks: usize,

    // --- data dependencies ---
    /// Mean distance (in instructions) from a source operand to its
    /// producer; smaller means longer serial chains and lower ILP. The
    /// sustainable IPC of an unconstrained machine is roughly
    /// `1 + dep_distance_mean`.
    pub dep_distance_mean: f64,
    /// Fraction of ALU slots with a second source operand.
    pub frac_src2: f64,
    /// Fraction of memory ops whose address base depends on a recent
    /// producer (pointer-chasing pressure).
    pub frac_addr_dep: f64,

    // --- memory behaviour ---
    /// Total data working set in bytes.
    pub working_set_bytes: u32,
    /// Fraction of accesses that walk a sequential stream.
    pub frac_seq_access: f64,
    /// Fraction of accesses that hit a hot 4 KB stack region.
    pub frac_stack_access: f64,
    /// Stride of the sequential stream in bytes.
    pub seq_stride: u32,
    /// Of the remaining (non-sequential, non-stack) accesses: fraction
    /// that stay inside a hot subset of the working set (temporal
    /// locality); the rest scatter across the whole working set.
    pub frac_random_hot: f64,
    /// Size of that hot subset in bytes.
    pub hot_bytes: u32,
}

impl WorkloadProfile {
    /// A neutral, general-purpose integer-code profile.
    pub fn generic() -> Self {
        Self {
            name: "generic",
            frac_load: 0.22,
            frac_store: 0.10,
            frac_mult: 0.015,
            frac_div: 0.002,
            frac_nop: 0.01,
            num_blocks: 600,
            block_len_min: 3,
            block_len_max: 8,
            frac_jump: 0.10,
            frac_call: 0.05,
            frac_fallthrough: 0.15,
            frac_loop_branches: 0.45,
            frac_random_branches: 0.10,
            bias_strength: 0.85,
            mean_loop_trips: 12,
            num_functions: 24,
            func_len_blocks: 5,
            dep_distance_mean: 6.0,
            frac_src2: 0.45,
            frac_addr_dep: 0.25,
            working_set_bytes: 64 * 1024,
            frac_seq_access: 0.45,
            frac_stack_access: 0.25,
            seq_stride: 8,
            frac_random_hot: 0.85,
            hot_bytes: 12 * 1024,
        }
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if any fraction is outside `[0, 1]`, fraction groups exceed
    /// 1, or structural sizes are zero.
    pub fn validate(&self) {
        let fracs = [
            ("frac_load", self.frac_load),
            ("frac_store", self.frac_store),
            ("frac_mult", self.frac_mult),
            ("frac_div", self.frac_div),
            ("frac_nop", self.frac_nop),
            ("frac_jump", self.frac_jump),
            ("frac_call", self.frac_call),
            ("frac_fallthrough", self.frac_fallthrough),
            ("frac_loop_branches", self.frac_loop_branches),
            ("frac_random_branches", self.frac_random_branches),
            ("bias_strength", self.bias_strength),
            ("frac_src2", self.frac_src2),
            ("frac_addr_dep", self.frac_addr_dep),
            ("frac_seq_access", self.frac_seq_access),
            ("frac_stack_access", self.frac_stack_access),
            ("frac_random_hot", self.frac_random_hot),
        ];
        for (name, v) in fracs {
            assert!((0.0..=1.0).contains(&v), "{name} = {v} outside [0, 1]");
        }
        let slot_sum =
            self.frac_load + self.frac_store + self.frac_mult + self.frac_div + self.frac_nop;
        assert!(slot_sum <= 1.0, "slot fractions sum to {slot_sum} > 1");
        let term_sum = self.frac_jump + self.frac_call + self.frac_fallthrough;
        assert!(
            term_sum <= 1.0,
            "terminator fractions sum to {term_sum} > 1"
        );
        let cond_sum = self.frac_loop_branches + self.frac_random_branches;
        assert!(
            cond_sum <= 1.0,
            "conditional-branch class fractions sum to {cond_sum} > 1"
        );
        assert!(self.num_blocks > 0, "num_blocks must be non-zero");
        assert!(
            self.block_len_min >= 1 && self.block_len_min <= self.block_len_max,
            "block length range [{}, {}] invalid",
            self.block_len_min,
            self.block_len_max
        );
        assert!(self.mean_loop_trips >= 1, "mean_loop_trips must be >= 1");
        assert!(self.num_functions > 0, "num_functions must be non-zero");
        assert!(self.func_len_blocks > 0, "func_len_blocks must be non-zero");
        assert!(
            self.dep_distance_mean >= 0.05,
            "dep_distance_mean must be at least 0.05"
        );
        assert!(
            self.working_set_bytes >= 4096,
            "working set must be at least one page"
        );
        assert!(
            self.seq_stride >= 1,
            "sequential stride must be at least 1 byte"
        );
        assert!(
            self.hot_bytes >= 64 && self.hot_bytes <= self.working_set_bytes,
            "hot region must be between one block and the working set"
        );
    }

    /// Mean basic-block length in slots.
    pub fn mean_block_len(&self) -> f64 {
        (self.block_len_min + self.block_len_max) as f64 / 2.0
    }
}

impl Default for WorkloadProfile {
    fn default() -> Self {
        Self::generic()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generic_is_valid() {
        WorkloadProfile::generic().validate();
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn bad_fraction_panics() {
        let p = WorkloadProfile {
            frac_load: 1.5,
            ..WorkloadProfile::generic()
        };
        p.validate();
    }

    #[test]
    #[should_panic(expected = "sum to")]
    fn oversubscribed_slots_panic() {
        let p = WorkloadProfile {
            frac_load: 0.6,
            frac_store: 0.6,
            ..WorkloadProfile::generic()
        };
        p.validate();
    }

    #[test]
    #[should_panic(expected = "block length range")]
    fn inverted_block_range_panics() {
        let p = WorkloadProfile {
            block_len_min: 9,
            block_len_max: 3,
            ..WorkloadProfile::generic()
        };
        p.validate();
    }

    #[test]
    fn mean_block_len() {
        let p = WorkloadProfile {
            block_len_min: 3,
            block_len_max: 7,
            ..WorkloadProfile::generic()
        };
        assert_eq!(p.mean_block_len(), 5.0);
    }
}
