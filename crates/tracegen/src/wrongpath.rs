//! Wrong-path block synthesis.
//!
//! After a mispredicted branch, real hardware fetches and partially
//! executes whatever code lives at the wrongly-predicted continuation.
//! The paper's trace generator materialises that code as a tagged block in
//! the trace so the timing engine can "model their effects in instruction
//! processing, caches, etc." (§V.A).
//!
//! When the correct-path stream comes from a functional simulator we do
//! not know what actually lives at the wrong address, so the block is
//! synthesised: a plausible straight-line run of ALU/memory instructions
//! starting at the wrong continuation PC, with memory accesses landing
//! near recently observed data addresses (so the cache pollution is
//! realistic). This is a documented substitution — see DESIGN.md — and is
//! exactly as observable to the engine as real wrong-path code would be:
//! the engine never compares wrong-path instructions against anything.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use resim_trace::{MemKind, MemRecord, MemSize, OpClass, OtherRecord, Reg, TraceRecord};

/// Ring of recently seen data addresses used to localise pollution.
const ADDR_HISTORY: usize = 8;

/// Synthesises tagged wrong-path instruction blocks.
#[derive(Debug, Clone)]
pub struct WrongPathSynth {
    rng: SmallRng,
    recent_addrs: [u32; ADDR_HISTORY],
    addr_cursor: usize,
}

impl WrongPathSynth {
    /// Creates a synthesiser with the given seed.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: SmallRng::seed_from_u64(seed),
            recent_addrs: [0x1000_0000; ADDR_HISTORY],
            addr_cursor: 0,
        }
    }

    /// Observes a correct-path record (collects address locality).
    pub fn observe(&mut self, record: &TraceRecord) {
        if let TraceRecord::Mem(m) = record {
            self.recent_addrs[self.addr_cursor] = m.addr;
            self.addr_cursor = (self.addr_cursor + 1) % ADDR_HISTORY;
        }
    }

    /// Appends a tagged straight-line block of `len` instructions
    /// starting at `start_pc` to `out`.
    pub fn block(&mut self, start_pc: u32, len: usize, out: &mut Vec<TraceRecord>) {
        out.reserve(len);
        let mut pc = start_pc;
        for _ in 0..len {
            let x: f64 = self.rng.gen();
            let r = if x < 0.25 {
                self.mem_record(pc, MemKind::Load)
            } else if x < 0.35 {
                self.mem_record(pc, MemKind::Store)
            } else {
                TraceRecord::Other(OtherRecord {
                    pc,
                    class: if x < 0.37 {
                        OpClass::IntMult
                    } else {
                        OpClass::IntAlu
                    },
                    dest: Some(self.rand_reg()),
                    src1: Some(self.rand_reg()),
                    src2: (x < 0.7).then(|| self.rand_reg()),
                    wrong_path: true,
                })
            };
            out.push(r);
            pc = pc.wrapping_add(4);
        }
    }

    fn mem_record(&mut self, pc: u32, kind: MemKind) -> TraceRecord {
        let near = self.recent_addrs[self.rng.gen_range(0..ADDR_HISTORY)];
        // Pollute within +/- 1 KB of a recently touched address.
        let delta = self.rng.gen_range(-256i32..256) * 4;
        let addr = near.wrapping_add(delta as u32) & !3;
        TraceRecord::Mem(MemRecord {
            pc,
            addr,
            size: MemSize::Word,
            kind,
            base: Some(self.rand_reg()),
            data: Some(self.rand_reg()),
            wrong_path: true,
        })
    }

    fn rand_reg(&mut self) -> Reg {
        Reg::new(self.rng.gen_range(1..28))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(s: &mut WrongPathSynth, start_pc: u32, len: usize) -> Vec<TraceRecord> {
        let mut out = Vec::new();
        s.block(start_pc, len, &mut out);
        out
    }

    #[test]
    fn block_is_tagged_sequential_and_sized() {
        let mut s = WrongPathSynth::new(1);
        let b = block(&mut s, 0x4000, 16);
        assert_eq!(b.len(), 16);
        for (i, r) in b.iter().enumerate() {
            assert!(r.wrong_path(), "all block records carry the tag");
            assert_eq!(r.pc(), 0x4000 + (i as u32) * 4, "straight-line PCs");
        }
    }

    #[test]
    fn pollution_lands_near_observed_addresses() {
        let mut s = WrongPathSynth::new(2);
        s.observe(&TraceRecord::Mem(MemRecord {
            pc: 0,
            addr: 0x2000_0000,
            size: MemSize::Word,
            kind: MemKind::Load,
            base: None,
            data: None,
            wrong_path: false,
        }));
        let b = block(&mut s, 0x100, 64);
        let near_either = b.iter().all(|r| match r {
            TraceRecord::Mem(m) => {
                let d1 = (m.addr as i64 - 0x2000_0000i64).abs();
                let d2 = (m.addr as i64 - 0x1000_0000i64).abs();
                d1 <= 1024 || d2 <= 1024
            }
            _ => true,
        });
        assert!(near_either, "pollution must stay near observed addresses");
    }

    #[test]
    fn deterministic_for_seed() {
        let mut a = WrongPathSynth::new(3);
        let mut b = WrongPathSynth::new(3);
        assert_eq!(block(&mut a, 0x0, 32), block(&mut b, 0x0, 32));
    }

    #[test]
    fn block_appends_to_the_buffer() {
        let mut out = block(&mut WrongPathSynth::new(5), 0x0, 4);
        let first = out.clone();
        WrongPathSynth::new(5).block(0x0, 4, &mut out);
        assert_eq!(out.len(), 8);
        assert_eq!(&out[..4], first.as_slice(), "earlier records stay in place");
        assert_eq!(&out[4..], first.as_slice());
    }

    #[test]
    fn blocks_contain_no_branches() {
        let mut s = WrongPathSynth::new(4);
        let b = block(&mut s, 0x800, 128);
        assert!(b.iter().all(|r| !r.is_branch()));
    }
}
