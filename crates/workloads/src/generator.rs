//! The CFG walker: turns a static CFG into an infinite dynamic
//! correct-path instruction stream.

use crate::cfg::{BlockId, SlotKind, StaticCfg, Terminator};
use crate::profile::WorkloadProfile;
use crate::spec::SpecBenchmark;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// Base address of the synthetic data segment.
const DATA_BASE: u32 = 0x1000_0000;
/// Base of the hot stack page.
const STACK_BASE: u32 = 0x7FFF_F000;
/// Maximum modelled call depth (calls beyond this become plain jumps).
const MAX_CALL_DEPTH: usize = 64;
/// How many recent destination registers feed dependency sampling.
const RECENT_DESTS: usize = 24;

use resim_trace::{
    BranchKind, BranchRecord, MemKind, MemRecord, MemSize, OpClass, OtherRecord, Reg, TraceRecord,
};

/// An infinite, deterministic synthetic instruction stream.
///
/// Construct with [`Workload::new`] (custom profile) or
/// [`Workload::spec`] (calibrated SPECINT model); pull records with
/// [`Workload::generate`], [`Workload::next_record`] or the [`Iterator`]
/// impl.
#[derive(Debug, Clone)]
pub struct Workload {
    cfg: StaticCfg,
    profile: WorkloadProfile,
    rng: SmallRng,
    cur: BlockId,
    /// Pending records of the block being emitted.
    pending: VecDeque<TraceRecord>,
    /// Remaining trips of each active loop back-edge, indexed by block.
    loop_state: Vec<Option<u32>>,
    /// Call stack of return blocks.
    call_stack: Vec<BlockId>,
    /// Recently written registers, newest first (dependency sampling
    /// pool); the first `recent_len` are valid.
    recent_dests: [Reg; RECENT_DESTS],
    recent_len: usize,
    /// Round-robin destination allocator state.
    next_dest: u8,
    /// Sequential-stream cursor.
    seq_cursor: u32,
    emitted: u64,
}

impl Workload {
    /// Builds a workload from a custom profile.
    ///
    /// The same `(profile, seed)` pair always produces the identical
    /// stream.
    ///
    /// # Panics
    ///
    /// Panics if the profile is inconsistent (see
    /// [`WorkloadProfile::validate`]).
    pub fn new(profile: &WorkloadProfile, seed: u64) -> Self {
        profile.validate();
        let mut build_rng = SmallRng::seed_from_u64(seed);
        let cfg = StaticCfg::build(profile, &mut build_rng);
        let loop_state = vec![None; cfg.blocks.len()];
        Self {
            cfg,
            profile: profile.clone(),
            rng: SmallRng::seed_from_u64(seed ^ 0x5DEE_CE66_D1CE_5EED),
            cur: BlockId(0),
            pending: VecDeque::new(),
            loop_state,
            call_stack: Vec::new(),
            recent_dests: [Reg::new(0); RECENT_DESTS],
            recent_len: 0,
            next_dest: 8,
            seq_cursor: DATA_BASE,
            emitted: 0,
        }
    }

    /// Builds one of the calibrated SPECINT CPU2000 models.
    pub fn spec(benchmark: SpecBenchmark, seed: u64) -> Self {
        Self::new(&benchmark.profile(), seed)
    }

    /// The workload name (profile name).
    pub fn name(&self) -> &str {
        self.profile.name
    }

    /// The synthesised static CFG.
    pub fn cfg(&self) -> &StaticCfg {
        &self.cfg
    }

    /// The profile this workload was built from.
    pub fn profile(&self) -> &WorkloadProfile {
        &self.profile
    }

    /// Records emitted so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Generates the next `n` records.
    pub fn generate(&mut self, n: usize) -> Vec<TraceRecord> {
        (0..n).map(|_| self.next_record()).collect()
    }

    /// Produces the next record (the stream never ends).
    pub fn next_record(&mut self) -> TraceRecord {
        loop {
            if let Some(r) = self.pending.pop_front() {
                self.emitted += 1;
                return r;
            }
            self.emit_block();
        }
    }

    /// Emits the current block's records into `pending` and advances.
    fn emit_block(&mut self) {
        let block = self.cur;
        let b = &self.cfg.blocks[block.0];
        let (mut pc, n_slots, terminator) = (b.start_pc, b.slots.len(), b.terminator);
        for i in 0..n_slots {
            let slot = self.cfg.blocks[block.0].slots[i];
            let r = self.emit_slot(pc, slot);
            self.pending.push_back(r);
            pc += 4;
        }
        debug_assert_eq!(pc, self.cfg.blocks[block.0].terminator_pc());
        let next = self.emit_terminator(block, pc, terminator);
        self.cur = next;
    }

    fn emit_slot(&mut self, pc: u32, slot: SlotKind) -> TraceRecord {
        match slot {
            SlotKind::Alu { src2 } => {
                let s1 = self.pick_source();
                let s2 = if src2 { Some(self.pick_source()) } else { None };
                let d = self.alloc_dest();
                TraceRecord::Other(OtherRecord {
                    pc,
                    class: OpClass::IntAlu,
                    dest: Some(d),
                    src1: Some(s1),
                    src2: s2,
                    wrong_path: false,
                })
            }
            SlotKind::Mult => {
                let s1 = self.pick_source();
                let s2 = self.pick_source();
                let d = self.alloc_dest();
                TraceRecord::Other(OtherRecord {
                    pc,
                    class: OpClass::IntMult,
                    dest: Some(d),
                    src1: Some(s1),
                    src2: Some(s2),
                    wrong_path: false,
                })
            }
            SlotKind::Div => {
                let s1 = self.pick_source();
                let s2 = self.pick_source();
                let d = self.alloc_dest();
                TraceRecord::Other(OtherRecord {
                    pc,
                    class: OpClass::IntDiv,
                    dest: Some(d),
                    src1: Some(s1),
                    src2: Some(s2),
                    wrong_path: false,
                })
            }
            SlotKind::Nop => TraceRecord::Other(OtherRecord {
                pc,
                class: OpClass::Nop,
                dest: None,
                src1: None,
                src2: None,
                wrong_path: false,
            }),
            SlotKind::Load => {
                let addr = self.pick_address();
                let base = self.pick_base();
                let d = self.alloc_dest();
                TraceRecord::Mem(MemRecord {
                    pc,
                    addr,
                    size: self.pick_size(),
                    kind: MemKind::Load,
                    base: Some(base),
                    data: Some(d),
                    wrong_path: false,
                })
            }
            SlotKind::Store => {
                let addr = self.pick_address();
                let base = self.pick_base();
                let data = self.pick_source();
                TraceRecord::Mem(MemRecord {
                    pc,
                    addr,
                    size: self.pick_size(),
                    kind: MemKind::Store,
                    base: Some(base),
                    data: Some(data),
                    wrong_path: false,
                })
            }
        }
    }

    /// Emits the terminator record (if any) and returns the next block.
    fn emit_terminator(&mut self, block: BlockId, pc: u32, term: Terminator) -> BlockId {
        let linear = self.cfg.next_linear(block);
        match term {
            Terminator::FallThrough => linear,
            Terminator::Jump { target } => {
                self.push_branch(pc, BranchKind::Jump, true, self.block_pc(target), None);
                target
            }
            Terminator::Call { callee } => {
                if self.call_stack.len() >= MAX_CALL_DEPTH {
                    // Depth cap: degrade to a plain jump (documented model
                    // simplification; keeps the return stack bounded).
                    self.push_branch(pc, BranchKind::Jump, true, self.block_pc(callee), None);
                } else {
                    self.call_stack.push(linear);
                    self.push_branch(pc, BranchKind::Call, true, self.block_pc(callee), None);
                }
                callee
            }
            Terminator::Return => {
                let back = self.call_stack.pop().unwrap_or(BlockId(0));
                let src = Some(Reg::new(31));
                self.push_branch(pc, BranchKind::Return, true, self.block_pc(back), src);
                back
            }
            Terminator::Loop { target, trips } => {
                let state = &mut self.loop_state[block.0];
                let remaining = state.get_or_insert(trips);
                let taken = *remaining > 0;
                if taken {
                    *remaining -= 1;
                } else {
                    // Re-arm for the next loop entry.
                    *state = None;
                }
                let src = Some(self.pick_source());
                self.push_branch(pc, BranchKind::Cond, taken, self.block_pc(target), src);
                if taken {
                    target
                } else {
                    linear
                }
            }
            Terminator::Biased { target, p_taken } => {
                let taken = self.rng.gen_bool(p_taken);
                let src = Some(self.pick_source());
                self.push_branch(pc, BranchKind::Cond, taken, self.block_pc(target), src);
                if taken {
                    target
                } else {
                    linear
                }
            }
            Terminator::Random { target } => {
                let taken = self.rng.gen_bool(0.5);
                let src = Some(self.pick_source());
                self.push_branch(pc, BranchKind::Cond, taken, self.block_pc(target), src);
                if taken {
                    target
                } else {
                    linear
                }
            }
        }
    }

    fn push_branch(
        &mut self,
        pc: u32,
        kind: BranchKind,
        taken: bool,
        target: u32,
        src1: Option<Reg>,
    ) {
        self.pending.push_back(TraceRecord::Branch(BranchRecord {
            pc,
            target,
            taken,
            kind,
            src1,
            src2: None,
            wrong_path: false,
        }));
    }

    fn block_pc(&self, id: BlockId) -> u32 {
        self.cfg.blocks[id.0].start_pc
    }

    /// Picks a source register at a geometric dependence distance.
    fn pick_source(&mut self) -> Reg {
        if self.recent_len == 0 {
            // Stable, long-lived register (always ready).
            return Reg::new(29);
        }
        let mean = self.profile.dep_distance_mean;
        let u: f64 = self.rng.gen::<f64>().max(1e-12);
        // Non-negative and finite, so truncation is `floor` without the
        // libm call.
        let dist = ((-u.ln()) * mean) as usize;
        self.recent_dests[dist.min(self.recent_len - 1)]
    }

    /// Picks a base register for an address: dependent or stable.
    fn pick_base(&mut self) -> Reg {
        if self.recent_len > 0 && self.rng.gen_bool(self.profile.frac_addr_dep) {
            self.pick_source()
        } else {
            Reg::new(30)
        }
    }

    /// Allocates a destination register and records it as recent.
    fn alloc_dest(&mut self) -> Reg {
        // Walk r8..r27 to avoid the stable pointer/stack registers.
        let d = Reg::new(self.next_dest);
        self.next_dest = if self.next_dest >= 27 { 8 } else { self.next_dest + 1 };
        self.recent_dests.copy_within(..RECENT_DESTS - 1, 1);
        self.recent_dests[0] = d;
        self.recent_len = (self.recent_len + 1).min(RECENT_DESTS);
        d
    }

    fn pick_size(&mut self) -> MemSize {
        let x: f64 = self.rng.gen();
        if x < 0.80 {
            MemSize::Word
        } else if x < 0.92 {
            MemSize::Byte
        } else {
            MemSize::Half
        }
    }

    /// Produces an effective address per the profile's locality model:
    /// a sequential stream, a hot stack page, a hot temporal-locality
    /// subset and a cold scatter over the full working set.
    fn pick_address(&mut self) -> u32 {
        let ws = self.profile.working_set_bytes;
        let x: f64 = self.rng.gen();
        if x < self.profile.frac_seq_access {
            let a = self.seq_cursor;
            self.seq_cursor = DATA_BASE + ((a - DATA_BASE) + self.profile.seq_stride) % ws;
            a & !3
        } else if x < self.profile.frac_seq_access + self.profile.frac_stack_access {
            STACK_BASE + (self.rng.gen_range(0..1024u32) * 4) % 4096
        } else if self.rng.gen_bool(self.profile.frac_random_hot) {
            let hot = self.profile.hot_bytes.max(64);
            DATA_BASE + (self.rng.gen_range(0..hot / 4)) * 4
        } else {
            DATA_BASE + (self.rng.gen_range(0..ws / 4)) * 4
        }
    }
}

impl Iterator for Workload {
    type Item = TraceRecord;

    fn next(&mut self) -> Option<TraceRecord> {
        Some(self.next_record())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn mix(records: &[TraceRecord]) -> (f64, f64, f64) {
        let n = records.len() as f64;
        let loads = records.iter().filter(|r| r.is_load()).count() as f64;
        let stores = records.iter().filter(|r| r.is_store()).count() as f64;
        let branches = records.iter().filter(|r| r.is_branch()).count() as f64;
        (loads / n, stores / n, branches / n)
    }

    #[test]
    fn deterministic_stream() {
        let p = WorkloadProfile::generic();
        let a = Workload::new(&p, 11).generate(5_000);
        let b = Workload::new(&p, 11).generate(5_000);
        assert_eq!(a, b);
        let c = Workload::new(&p, 12).generate(5_000);
        assert_ne!(a, c);
    }

    #[test]
    fn mix_tracks_profile() {
        let p = WorkloadProfile::generic();
        let recs = Workload::new(&p, 3).generate(60_000);
        let (l, s, b) = mix(&recs);
        // Slot fractions are diluted by terminators (~1/6 of the stream).
        assert!((l - 0.22 * 0.85).abs() < 0.05, "load fraction {l}");
        assert!((s - 0.10 * 0.85).abs() < 0.04, "store fraction {s}");
        assert!(b > 0.08 && b < 0.25, "branch fraction {b}");
    }

    #[test]
    fn pcs_repeat_code_footprint_is_static() {
        let p = WorkloadProfile::generic();
        let mut w = Workload::new(&p, 4);
        let recs = w.generate(50_000);
        let mut pcs: Vec<u32> = recs.iter().map(|r| r.pc()).collect();
        pcs.sort_unstable();
        pcs.dedup();
        let footprint = (pcs.len() as u32) * 4;
        assert!(
            footprint <= w.cfg().code_bytes(),
            "dynamic footprint {footprint} must fit the static code"
        );
    }

    #[test]
    fn branch_targets_are_stable_per_site() {
        // Every conditional/jump site must always announce the same
        // target, otherwise the BTB could never work.
        let p = WorkloadProfile::generic();
        let recs = Workload::new(&p, 5).generate(80_000);
        let mut site_target: HashMap<u32, u32> = HashMap::new();
        for r in &recs {
            if let TraceRecord::Branch(b) = r {
                if matches!(b.kind, BranchKind::Cond | BranchKind::Jump | BranchKind::Call) {
                    let prev = site_target.insert(b.pc, b.target);
                    if let Some(t) = prev {
                        assert_eq!(t, b.target, "site {:#x} changed target", b.pc);
                    }
                }
            }
        }
    }

    #[test]
    fn calls_and_returns_balance_approximately() {
        let p = WorkloadProfile::generic();
        let recs = Workload::new(&p, 6).generate(100_000);
        let calls = recs
            .iter()
            .filter(
                |r| matches!(r, TraceRecord::Branch(b) if b.kind == BranchKind::Call),
            )
            .count() as i64;
        let rets = recs
            .iter()
            .filter(
                |r| matches!(r, TraceRecord::Branch(b) if b.kind == BranchKind::Return),
            )
            .count() as i64;
        assert!(calls > 0, "profile must exercise calls");
        assert!((calls - rets).abs() <= MAX_CALL_DEPTH as i64 + 1);
    }

    #[test]
    fn addresses_stay_in_modelled_regions() {
        let p = WorkloadProfile::generic();
        let recs = Workload::new(&p, 7).generate(30_000);
        for r in &recs {
            if let TraceRecord::Mem(m) = r {
                let in_data = m.addr >= DATA_BASE && m.addr < DATA_BASE + p.working_set_bytes;
                let in_stack = m.addr >= STACK_BASE && m.addr < STACK_BASE + 4096;
                assert!(in_data || in_stack, "address {:#x} outside model", m.addr);
            }
        }
    }

    #[test]
    fn loops_actually_iterate() {
        // The same loop-branch PC must appear with taken=true multiple
        // times in a row somewhere in the stream.
        let p = WorkloadProfile::generic();
        let recs = Workload::new(&p, 8).generate(50_000);
        let mut max_consecutive = 0u32;
        let mut counts: HashMap<u32, u32> = HashMap::new();
        for r in &recs {
            if let TraceRecord::Branch(b) = r {
                if b.kind == BranchKind::Cond && b.taken && b.target < b.pc {
                    let c = counts.entry(b.pc).or_insert(0);
                    *c += 1;
                    max_consecutive = max_consecutive.max(*c);
                }
            }
        }
        assert!(max_consecutive >= 4, "back-edges should iterate");
    }

    #[test]
    fn iterator_interface() {
        let p = WorkloadProfile::generic();
        let w = Workload::new(&p, 9);
        let v: Vec<_> = w.take(100).collect();
        assert_eq!(v.len(), 100);
    }
}
