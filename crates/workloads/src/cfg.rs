//! Static control-flow graph synthesis.
//!
//! A workload is a randomly generated but *fixed* CFG: a main region of
//! basic blocks chained linearly (with loop back-edges, biased forward
//! skips, random branches, jumps and calls) plus a set of callable
//! function bodies ending in returns. Walking this CFG produces a dynamic
//! stream whose PCs, branch sites and targets repeat — which is what lets
//! the I-cache, BTB, RAS and two-level predictor behave as they would on
//! real code.

use crate::profile::WorkloadProfile;
use rand::rngs::SmallRng;
use rand::Rng;

/// Index of a basic block inside a [`StaticCfg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub usize);

impl BlockId {
    /// The underlying index.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Error-diffusion sampler: keeps every window of generated slots close
/// to the profile's instruction mix, so the *dynamic* mix matches the
/// profile no matter which blocks the hot loops land on.
#[derive(Debug, Clone, Default)]
struct SlotQuota {
    /// Accumulated credit per category:
    /// load, store, mult, div, nop, alu.
    acc: [f64; 6],
}

impl SlotQuota {
    fn next_kind(&mut self, profile: &WorkloadProfile, rng: &mut SmallRng) -> SlotKind {
        let alu = 1.0
            - profile.frac_load
            - profile.frac_store
            - profile.frac_mult
            - profile.frac_div
            - profile.frac_nop;
        let fracs = [
            profile.frac_load,
            profile.frac_store,
            profile.frac_mult,
            profile.frac_div,
            profile.frac_nop,
            alu,
        ];
        let mut best = 0;
        for (i, f) in fracs.iter().enumerate() {
            self.acc[i] += f;
            if self.acc[i] > self.acc[best] {
                best = i;
            }
        }
        self.acc[best] -= 1.0;
        match best {
            0 => SlotKind::Load,
            1 => SlotKind::Store,
            2 => SlotKind::Mult,
            3 => SlotKind::Div,
            4 => SlotKind::Nop,
            _ => SlotKind::Alu {
                src2: rng.gen_bool(profile.frac_src2),
            },
        }
    }
}

/// Error-diffusion sampler for terminator classes: keeps any contiguous
/// run of blocks (e.g. a hot loop body) close to the profile's terminator
/// mix, so dynamic branch behaviour does not depend on which blocks the
/// seed happens to make hot.
#[derive(Debug, Clone, Default)]
struct TermQuota {
    /// jump, call, fallthrough, loop, random, biased.
    acc: [f64; 6],
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TermClass {
    Jump,
    Call,
    FallThrough,
    Loop,
    Random,
    Biased,
}

impl TermQuota {
    fn next_class(&mut self, profile: &WorkloadProfile, in_function: bool) -> TermClass {
        let call = if in_function {
            profile.frac_call / 2.0
        } else {
            profile.frac_call
        };
        let cond = (1.0 - profile.frac_jump - call - profile.frac_fallthrough).max(0.0);
        let fracs = [
            profile.frac_jump,
            call,
            profile.frac_fallthrough,
            cond * profile.frac_loop_branches,
            cond * profile.frac_random_branches,
            cond * (1.0 - profile.frac_loop_branches - profile.frac_random_branches),
        ];
        let mut best = 0;
        for (i, f) in fracs.iter().enumerate() {
            self.acc[i] += f;
            if self.acc[i] > self.acc[best] {
                best = i;
            }
        }
        self.acc[best] -= 1.0;
        [
            TermClass::Jump,
            TermClass::Call,
            TermClass::FallThrough,
            TermClass::Loop,
            TermClass::Random,
            TermClass::Biased,
        ][best]
    }
}

/// A non-control instruction slot, fixed at CFG build time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SlotKind {
    /// Single-cycle ALU op; `src2` adds a second register source.
    Alu { src2: bool },
    /// Multiplier-class op.
    Mult,
    /// Divider-class op.
    Div,
    /// Nop.
    Nop,
    /// Load.
    Load,
    /// Store.
    Store,
}

/// How a basic block ends.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Terminator {
    /// Loop back-edge: taken `trips` times per entry, then falls through.
    Loop {
        /// Back-edge target.
        target: BlockId,
        /// Trip count per loop entry.
        trips: u32,
    },
    /// Statically biased conditional forward branch.
    Biased {
        /// Taken target.
        target: BlockId,
        /// Per-evaluation taken probability.
        p_taken: f64,
    },
    /// 50/50 data-dependent conditional branch.
    Random {
        /// Taken target.
        target: BlockId,
    },
    /// Unconditional direct jump.
    Jump {
        /// Target block.
        target: BlockId,
    },
    /// Direct call into a function region.
    Call {
        /// Function entry block.
        callee: BlockId,
    },
    /// Return to the caller (RAS-predicted).
    Return,
    /// No control transfer: execution continues into the next block.
    FallThrough,
}

impl Terminator {
    /// Whether the terminator occupies an instruction slot.
    pub fn is_instruction(&self) -> bool {
        !matches!(self, Terminator::FallThrough)
    }

    /// Whether this is a conditional branch.
    pub fn is_conditional(&self) -> bool {
        matches!(
            self,
            Terminator::Loop { .. } | Terminator::Biased { .. } | Terminator::Random { .. }
        )
    }
}

/// One basic block: a run of slots plus a terminator.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Block {
    pub start_pc: u32,
    pub slots: Vec<SlotKind>,
    pub terminator: Terminator,
}

impl Block {
    /// PC of the terminator instruction (valid when it is an instruction).
    pub fn terminator_pc(&self) -> u32 {
        self.start_pc + (self.slots.len() as u32) * 4
    }

    /// Total instructions including the terminator.
    pub fn len(&self) -> usize {
        self.slots.len() + usize::from(self.terminator.is_instruction())
    }
}

/// A complete static CFG: main region plus function bodies.
#[derive(Debug, Clone)]
pub struct StaticCfg {
    pub(crate) blocks: Vec<Block>,
    main_blocks: usize,
    func_entries: Vec<BlockId>,
    text_base: u32,
}

impl StaticCfg {
    /// Text-segment base for synthetic code.
    pub const TEXT_BASE: u32 = 0x0040_0000;

    /// Builds a CFG from `profile` using `rng` for all structural choices.
    pub(crate) fn build(profile: &WorkloadProfile, rng: &mut SmallRng) -> Self {
        let main = profile.num_blocks;
        let total = main + profile.num_functions * profile.func_len_blocks;
        let mut blocks = Vec::with_capacity(total);
        let mut func_entries = Vec::with_capacity(profile.num_functions);
        let mut quota = SlotQuota::default();
        let mut tquota = TermQuota::default();

        // --- main region ---
        for i in 0..main {
            let slots = Self::sample_slots(profile, rng, &mut quota);
            let terminator = if i + 1 == main {
                // Close the outer program loop.
                Terminator::Jump { target: BlockId(0) }
            } else {
                Self::sample_terminator(profile, rng, &mut tquota, i, main, false)
            };
            blocks.push(Block {
                start_pc: 0, // assigned below
                slots,
                terminator,
            });
        }

        // --- function region ---
        for f in 0..profile.num_functions {
            let entry = main + f * profile.func_len_blocks;
            func_entries.push(BlockId(entry));
            for j in 0..profile.func_len_blocks {
                let slots = Self::sample_slots(profile, rng, &mut quota);
                let terminator = if j + 1 == profile.func_len_blocks {
                    Terminator::Return
                } else {
                    Self::sample_terminator(
                        profile,
                        rng,
                        &mut tquota,
                        entry + j,
                        entry + profile.func_len_blocks,
                        true,
                    )
                };
                blocks.push(Block {
                    start_pc: 0,
                    slots,
                    terminator,
                });
            }
        }

        // Patch call targets now that function entries exist, then lay out
        // PCs.
        let n_funcs = func_entries.len();
        for b in &mut blocks {
            if let Terminator::Call { callee } = &mut b.terminator {
                if callee.0 == usize::MAX {
                    *callee = func_entries[rng.gen_range(0..n_funcs)];
                }
            }
        }
        let mut pc = Self::TEXT_BASE;
        for b in &mut blocks {
            b.start_pc = pc;
            pc += (b.len() as u32) * 4;
        }

        Self {
            blocks,
            main_blocks: main,
            func_entries,
            text_base: Self::TEXT_BASE,
        }
    }

    fn sample_slots(
        profile: &WorkloadProfile,
        rng: &mut SmallRng,
        quota: &mut SlotQuota,
    ) -> Vec<SlotKind> {
        let len = rng.gen_range(profile.block_len_min..=profile.block_len_max);
        let mut slots: Vec<SlotKind> = (0..len).map(|_| quota.next_kind(profile, rng)).collect();
        // Shuffle within the block so quota ordering leaves no periodic
        // pattern in the instruction stream.
        for i in (1..slots.len()).rev() {
            let j = rng.gen_range(0..=i);
            slots.swap(i, j);
        }
        slots
    }

    fn sample_terminator(
        profile: &WorkloadProfile,
        rng: &mut SmallRng,
        quota: &mut TermQuota,
        index: usize,
        region_end: usize,
        in_function: bool,
    ) -> Terminator {
        let forward = |rng: &mut SmallRng| {
            let lo = index + 2;
            let hi = (index + 8).min(region_end);
            if lo >= hi {
                BlockId(index + 1)
            } else {
                BlockId(rng.gen_range(lo..hi))
            }
        };
        match quota.next_class(profile, in_function) {
            TermClass::Jump => Terminator::Jump {
                target: forward(rng),
            },
            // Callee patched after function entries are known.
            TermClass::Call => Terminator::Call {
                callee: BlockId(usize::MAX),
            },
            TermClass::FallThrough => Terminator::FallThrough,
            TermClass::Loop if index > 0 => {
                let span = rng.gen_range(1..=3usize.min(index));
                // Exponentially distributed trip count around the mean,
                // with a floor so degenerate 1-trip "loops" (which behave
                // like noisy biased branches) stay rare.
                let mean = f64::from(profile.mean_loop_trips);
                let floor = (mean / 4.0).max(2.0);
                let trips = (floor + (-rng.gen::<f64>().max(1e-12).ln()) * (mean - floor).max(1.0))
                    .ceil() as u32;
                Terminator::Loop {
                    target: BlockId(index - span),
                    trips,
                }
            }
            TermClass::Loop => Terminator::FallThrough,
            TermClass::Random => Terminator::Random {
                target: forward(rng),
            },
            TermClass::Biased => {
                // Biased: half taken-biased, half not-taken-biased.
                let p = if rng.gen_bool(0.5) {
                    profile.bias_strength
                } else {
                    1.0 - profile.bias_strength
                };
                Terminator::Biased {
                    target: forward(rng),
                    p_taken: p,
                }
            }
        }
    }

    /// Number of blocks (main region + functions).
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Number of blocks in the main region.
    pub fn main_blocks(&self) -> usize {
        self.main_blocks
    }

    /// Entry blocks of the callable functions.
    pub fn func_entries(&self) -> &[BlockId] {
        &self.func_entries
    }

    /// Static code footprint in bytes.
    pub fn code_bytes(&self) -> u32 {
        self.blocks.iter().map(|b| (b.len() as u32) * 4).sum()
    }

    /// Base address of the synthetic text segment.
    pub fn text_base(&self) -> u32 {
        self.text_base
    }

    /// The terminator of block `id`.
    pub fn terminator(&self, id: BlockId) -> &Terminator {
        &self.blocks[id.0].terminator
    }

    /// The linear successor of block `id` (wrapping to the main region).
    pub(crate) fn next_linear(&self, id: BlockId) -> BlockId {
        let n = id.0 + 1;
        if n >= self.blocks.len() {
            BlockId(0)
        } else {
            BlockId(n)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn build(profile: &WorkloadProfile, seed: u64) -> StaticCfg {
        let mut rng = SmallRng::seed_from_u64(seed);
        StaticCfg::build(profile, &mut rng)
    }

    #[test]
    fn structure_matches_profile() {
        let p = WorkloadProfile::generic();
        let cfg = build(&p, 1);
        assert_eq!(cfg.main_blocks(), p.num_blocks);
        assert_eq!(
            cfg.num_blocks(),
            p.num_blocks + p.num_functions * p.func_len_blocks
        );
        assert_eq!(cfg.func_entries().len(), p.num_functions);
    }

    #[test]
    fn deterministic_for_seed() {
        let p = WorkloadProfile::generic();
        let a = build(&p, 7);
        let b = build(&p, 7);
        assert_eq!(a.blocks, b.blocks);
        let c = build(&p, 8);
        assert_ne!(a.blocks, c.blocks, "different seed, different CFG");
    }

    #[test]
    fn pcs_are_contiguous_and_word_aligned() {
        let p = WorkloadProfile::generic();
        let cfg = build(&p, 2);
        let mut expect = StaticCfg::TEXT_BASE;
        for b in &cfg.blocks {
            assert_eq!(b.start_pc, expect);
            assert_eq!(b.start_pc % 4, 0);
            expect += (b.len() as u32) * 4;
        }
        assert_eq!(cfg.code_bytes(), expect - StaticCfg::TEXT_BASE);
    }

    #[test]
    fn loops_point_backward_jumps_forward() {
        let p = WorkloadProfile::generic();
        let cfg = build(&p, 3);
        for (i, b) in cfg.blocks.iter().enumerate() {
            match b.terminator {
                Terminator::Loop { target, trips } => {
                    assert!(target.0 < i, "loop target must be a back-edge");
                    assert!(trips >= 1);
                }
                Terminator::Jump { target }
                    if i + 1 != cfg.main_blocks()
                    // Only the region-closing jump may point backwards.
                    && i < cfg.main_blocks() && target.0 != 0 =>
                {
                    assert!(target.0 > i);
                }
                _ => {}
            }
        }
    }

    #[test]
    fn calls_target_function_entries() {
        let p = WorkloadProfile::generic();
        let cfg = build(&p, 4);
        for b in &cfg.blocks {
            if let Terminator::Call { callee } = b.terminator {
                assert!(
                    cfg.func_entries().contains(&callee),
                    "call must target a function entry"
                );
            }
        }
    }

    #[test]
    fn functions_end_with_return() {
        let p = WorkloadProfile::generic();
        let cfg = build(&p, 5);
        for f in 0..p.num_functions {
            let last = p.num_blocks + f * p.func_len_blocks + p.func_len_blocks - 1;
            assert_eq!(cfg.blocks[last].terminator, Terminator::Return);
        }
    }

    #[test]
    fn main_region_closes_the_outer_loop() {
        let p = WorkloadProfile::generic();
        let cfg = build(&p, 6);
        assert_eq!(
            cfg.blocks[p.num_blocks - 1].terminator,
            Terminator::Jump { target: BlockId(0) }
        );
    }
}
