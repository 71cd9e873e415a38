//! The functional simulator: executes programs and emits the pre-decoded
//! dynamic instruction stream.
//!
//! This plays the role of SimpleScalar's functional core in the paper's
//! trace-generation flow: it resolves every branch and effective address so
//! the timing engine never has to execute anything. Output records are
//! always correct-path; the trace generator (`resim-tracegen`) adds the
//! wrong-path blocks.

use crate::asm::Program;
use crate::inst::{Inst, TEXT_BASE};
use resim_trace::{
    BranchKind, BranchRecord, MemKind, MemRecord, MemSize, OpClass, OtherRecord, Reg, TraceRecord,
};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// Conventional stack pointer register.
pub const SP: u8 = 29;
/// Conventional return-address (link) register.
pub const RA: u8 = 31;

/// Initial stack pointer value.
const STACK_TOP: u32 = 0x7FFF_F000;
/// Sparse memory page size in bytes.
const PAGE: u32 = 4096;

/// Errors raised during functional execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// The PC left the text segment.
    PcOutOfRange {
        /// The offending program counter.
        pc: u32,
    },
    /// The step budget ran out before `halt`.
    OutOfFuel {
        /// The number of steps executed.
        steps: u64,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::PcOutOfRange { pc } => write!(f, "pc {pc:#010x} left the text segment"),
            ExecError::OutOfFuel { steps } => {
                write!(f, "program did not halt within {steps} steps")
            }
        }
    }
}

impl Error for ExecError {}

/// Executes a [`Program`], producing one [`TraceRecord`] per dynamic
/// instruction.
#[derive(Debug, Clone)]
pub struct FunctionalSimulator<'p> {
    program: &'p Program,
    regs: [u32; 32],
    pages: HashMap<u32, Vec<u8>>,
    pc: u32,
    halted: bool,
    steps: u64,
}

impl<'p> FunctionalSimulator<'p> {
    /// Creates a simulator at the program's entry, with an initialised
    /// stack pointer (r29) and zeroed registers/memory.
    pub fn new(program: &'p Program) -> Self {
        let mut regs = [0u32; 32];
        regs[SP as usize] = STACK_TOP;
        Self {
            program,
            regs,
            pages: HashMap::new(),
            pc: program.pc_of(program.entry()),
            halted: false,
            steps: 0,
        }
    }

    /// Current value of register `r` (r0 is always 0).
    pub fn reg(&self, r: u8) -> u32 {
        self.regs[r as usize & 31]
    }

    /// Sets register `r` (writes to r0 are ignored).
    pub fn set_reg(&mut self, r: u8, value: u32) {
        if r != 0 {
            self.regs[r as usize & 31] = value;
        }
    }

    /// Reads a 32-bit little-endian word from memory.
    pub fn read_mem32(&self, addr: u32) -> u32 {
        let b = |i: u32| u32::from(self.read_byte(addr.wrapping_add(i)));
        b(0) | (b(1) << 8) | (b(2) << 16) | (b(3) << 24)
    }

    /// Writes a 32-bit little-endian word to memory.
    pub fn write_mem32(&mut self, addr: u32, value: u32) {
        for i in 0..4 {
            self.write_byte(addr.wrapping_add(i), (value >> (8 * i)) as u8);
        }
    }

    /// Whether the program has executed `halt`.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Dynamic instructions executed so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Current program counter.
    pub fn pc(&self) -> u32 {
        self.pc
    }

    fn read_byte(&self, addr: u32) -> u8 {
        match self.pages.get(&(addr / PAGE)) {
            Some(p) => p[(addr % PAGE) as usize],
            None => 0,
        }
    }

    fn write_byte(&mut self, addr: u32, value: u8) {
        let page = self
            .pages
            .entry(addr / PAGE)
            .or_insert_with(|| vec![0; PAGE as usize]);
        page[(addr % PAGE) as usize] = value;
    }

    fn read_sized(&self, addr: u32, size: MemSize, signed: bool) -> u32 {
        match size {
            MemSize::Byte => {
                let v = self.read_byte(addr);
                if signed {
                    v as i8 as i32 as u32
                } else {
                    u32::from(v)
                }
            }
            MemSize::Half => {
                let v =
                    u32::from(self.read_byte(addr)) | (u32::from(self.read_byte(addr + 1)) << 8);
                if signed {
                    v as u16 as i16 as i32 as u32
                } else {
                    v
                }
            }
            _ => self.read_mem32(addr),
        }
    }

    /// Converts a mini-ISA register into a trace register name, hiding r0.
    fn treg(r: u8) -> Option<Reg> {
        (r != 0).then(|| Reg::new(r))
    }

    /// Executes one instruction; `Ok(None)` once halted.
    ///
    /// # Errors
    ///
    /// [`ExecError::PcOutOfRange`] if control flow escapes the program.
    pub fn step(&mut self) -> Result<Option<TraceRecord>, ExecError> {
        if self.halted {
            return Ok(None);
        }
        let idx = self
            .pc
            .checked_sub(TEXT_BASE)
            .map(|off| off / 4)
            .filter(|&i| (i as usize) < self.program.len())
            .ok_or(ExecError::PcOutOfRange { pc: self.pc })?;
        let inst = self.program.insts()[idx as usize];
        let pc = self.pc;
        self.steps += 1;

        let mut next_pc = pc.wrapping_add(4);
        let record = match inst {
            Inst::Halt => {
                self.halted = true;
                return Ok(None);
            }
            Inst::Nop => other(pc, OpClass::Nop, 0, 0, 0),
            Inst::Add(d, s, t) => self.alu3(pc, d, s, t, u32::wrapping_add),
            Inst::Sub(d, s, t) => self.alu3(pc, d, s, t, u32::wrapping_sub),
            Inst::And(d, s, t) => self.alu3(pc, d, s, t, |a, b| a & b),
            Inst::Or(d, s, t) => self.alu3(pc, d, s, t, |a, b| a | b),
            Inst::Xor(d, s, t) => self.alu3(pc, d, s, t, |a, b| a ^ b),
            Inst::Slt(d, s, t) => self.alu3(pc, d, s, t, |a, b| ((a as i32) < (b as i32)) as u32),
            Inst::Sllv(d, s, t) => self.alu3(pc, d, s, t, |a, b| a << (b & 31)),
            Inst::Srlv(d, s, t) => self.alu3(pc, d, s, t, |a, b| a >> (b & 31)),
            Inst::Addi(d, s, imm) => {
                self.set_reg(d, self.reg(s).wrapping_add(imm as i32 as u32));
                other(pc, OpClass::IntAlu, d, s, 0)
            }
            Inst::Andi(d, s, imm) => {
                self.set_reg(d, self.reg(s) & u32::from(imm));
                other(pc, OpClass::IntAlu, d, s, 0)
            }
            Inst::Ori(d, s, imm) => {
                self.set_reg(d, self.reg(s) | u32::from(imm));
                other(pc, OpClass::IntAlu, d, s, 0)
            }
            Inst::Xori(d, s, imm) => {
                self.set_reg(d, self.reg(s) ^ u32::from(imm));
                other(pc, OpClass::IntAlu, d, s, 0)
            }
            Inst::Slti(d, s, imm) => {
                self.set_reg(d, ((self.reg(s) as i32) < i32::from(imm)) as u32);
                other(pc, OpClass::IntAlu, d, s, 0)
            }
            Inst::Slli(d, s, sh) => {
                self.set_reg(d, self.reg(s) << (sh & 31));
                other(pc, OpClass::IntAlu, d, s, 0)
            }
            Inst::Srli(d, s, sh) => {
                self.set_reg(d, self.reg(s) >> (sh & 31));
                other(pc, OpClass::IntAlu, d, s, 0)
            }
            Inst::Srai(d, s, sh) => {
                self.set_reg(d, ((self.reg(s) as i32) >> (sh & 31)) as u32);
                other(pc, OpClass::IntAlu, d, s, 0)
            }
            Inst::Lui(d, imm) => {
                self.set_reg(d, u32::from(imm) << 16);
                other(pc, OpClass::IntAlu, d, 0, 0)
            }
            Inst::Mult(d, s, t) => {
                self.set_reg(d, self.reg(s).wrapping_mul(self.reg(t)));
                other(pc, OpClass::IntMult, d, s, t)
            }
            Inst::Div(d, s, t) => {
                let b = self.reg(t) as i32;
                let a = self.reg(s) as i32;
                self.set_reg(d, if b == 0 { 0 } else { a.wrapping_div(b) as u32 });
                other(pc, OpClass::IntDiv, d, s, t)
            }
            Inst::Rem(d, s, t) => {
                let b = self.reg(t) as i32;
                let a = self.reg(s) as i32;
                self.set_reg(
                    d,
                    if b == 0 {
                        a as u32
                    } else {
                        a.wrapping_rem(b) as u32
                    },
                );
                other(pc, OpClass::IntDiv, d, s, t)
            }
            Inst::Lw(t, base, off) => self.load(pc, t, base, off, MemSize::Word, false),
            Inst::Lh(t, base, off) => self.load(pc, t, base, off, MemSize::Half, true),
            Inst::Lb(t, base, off) => self.load(pc, t, base, off, MemSize::Byte, true),
            Inst::Lbu(t, base, off) => self.load(pc, t, base, off, MemSize::Byte, false),
            Inst::Sw(t, base, off) => self.store(pc, t, base, off, MemSize::Word),
            Inst::Sh(t, base, off) => self.store(pc, t, base, off, MemSize::Half),
            Inst::Sb(t, base, off) => self.store(pc, t, base, off, MemSize::Byte),
            Inst::Beq(s, t, tgt) => {
                self.branch(pc, s, t, tgt, self.reg(s) == self.reg(t), &mut next_pc)
            }
            Inst::Bne(s, t, tgt) => {
                self.branch(pc, s, t, tgt, self.reg(s) != self.reg(t), &mut next_pc)
            }
            Inst::Blt(s, t, tgt) => self.branch(
                pc,
                s,
                t,
                tgt,
                (self.reg(s) as i32) < (self.reg(t) as i32),
                &mut next_pc,
            ),
            Inst::Bge(s, t, tgt) => self.branch(
                pc,
                s,
                t,
                tgt,
                (self.reg(s) as i32) >= (self.reg(t) as i32),
                &mut next_pc,
            ),
            Inst::J(tgt) => {
                let target = self.program.pc_of(tgt);
                next_pc = target;
                jump(pc, BranchKind::Jump, target, None)
            }
            Inst::Jal(tgt) => {
                let target = self.program.pc_of(tgt);
                self.set_reg(RA, pc.wrapping_add(4));
                next_pc = target;
                jump(pc, BranchKind::Call, target, None)
            }
            Inst::Jr(s) => {
                let target = self.reg(s);
                next_pc = target;
                let kind = if s == RA {
                    BranchKind::Return
                } else {
                    BranchKind::IndirectJump
                };
                jump(pc, kind, target, Self::treg(s))
            }
            Inst::Jalr(d, s) => {
                let target = self.reg(s);
                self.set_reg(d, pc.wrapping_add(4));
                next_pc = target;
                jump(pc, BranchKind::IndirectCall, target, Self::treg(s))
            }
        };
        self.pc = next_pc;
        Ok(Some(record))
    }

    fn alu3(&mut self, pc: u32, d: u8, s: u8, t: u8, f: impl Fn(u32, u32) -> u32) -> TraceRecord {
        self.set_reg(d, f(self.reg(s), self.reg(t)));
        other(pc, OpClass::IntAlu, d, s, t)
    }

    fn load(
        &mut self,
        pc: u32,
        t: u8,
        base: u8,
        off: i16,
        size: MemSize,
        signed: bool,
    ) -> TraceRecord {
        let addr = self.reg(base).wrapping_add(off as i32 as u32);
        let v = self.read_sized(addr, size, signed);
        self.set_reg(t, v);
        TraceRecord::Mem(MemRecord {
            pc,
            addr,
            size,
            kind: MemKind::Load,
            base: Self::treg(base),
            data: Self::treg(t),
            wrong_path: false,
        })
    }

    fn store(&mut self, pc: u32, t: u8, base: u8, off: i16, size: MemSize) -> TraceRecord {
        let addr = self.reg(base).wrapping_add(off as i32 as u32);
        let v = self.reg(t);
        match size {
            MemSize::Byte => self.write_byte(addr, v as u8),
            MemSize::Half => {
                self.write_byte(addr, v as u8);
                self.write_byte(addr.wrapping_add(1), (v >> 8) as u8);
            }
            _ => self.write_mem32(addr, v),
        }
        TraceRecord::Mem(MemRecord {
            pc,
            addr,
            size,
            kind: MemKind::Store,
            base: Self::treg(base),
            data: Self::treg(t),
            wrong_path: false,
        })
    }

    fn branch(
        &mut self,
        pc: u32,
        s: u8,
        t: u8,
        tgt: u32,
        taken: bool,
        next_pc: &mut u32,
    ) -> TraceRecord {
        let target = self.program.pc_of(tgt);
        if taken {
            *next_pc = target;
        }
        TraceRecord::Branch(BranchRecord {
            pc,
            target,
            taken,
            kind: BranchKind::Cond,
            src1: Self::treg(s),
            src2: Self::treg(t),
            wrong_path: false,
        })
    }

    /// Runs until `halt`, returning the dynamic instruction stream.
    ///
    /// # Errors
    ///
    /// [`ExecError::OutOfFuel`] if `max_steps` elapse first, or
    /// [`ExecError::PcOutOfRange`] on a control-flow escape.
    pub fn run(&mut self, max_steps: u64) -> Result<Vec<TraceRecord>, ExecError> {
        let mut out = Vec::new();
        while !self.halted {
            if self.steps >= max_steps {
                return Err(ExecError::OutOfFuel { steps: self.steps });
            }
            match self.step()? {
                Some(r) => out.push(r),
                None => break,
            }
        }
        Ok(out)
    }
}

fn other(pc: u32, class: OpClass, d: u8, s: u8, t: u8) -> TraceRecord {
    TraceRecord::Other(OtherRecord {
        pc,
        class,
        dest: FunctionalSimulator::treg(d),
        src1: FunctionalSimulator::treg(s),
        src2: FunctionalSimulator::treg(t),
        wrong_path: false,
    })
}

fn jump(pc: u32, kind: BranchKind, target: u32, src: Option<Reg>) -> TraceRecord {
    TraceRecord::Branch(BranchRecord {
        pc,
        target,
        taken: true,
        kind,
        src1: src,
        src2: None,
        wrong_path: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Assembler;

    #[test]
    fn arithmetic_and_halt() {
        let mut a = Assembler::new();
        a.addi(1, 0, 7);
        a.addi(2, 0, 5);
        a.add(3, 1, 2);
        a.sub(4, 1, 2);
        a.mult(5, 1, 2);
        a.div(6, 1, 2);
        a.rem(7, 1, 2);
        a.halt();
        let p = a.assemble().unwrap();
        let mut sim = FunctionalSimulator::new(&p);
        let trace = sim.run(100).unwrap();
        assert_eq!(trace.len(), 7);
        assert_eq!(sim.reg(3), 12);
        assert_eq!(sim.reg(4), 2);
        assert_eq!(sim.reg(5), 35);
        assert_eq!(sim.reg(6), 1);
        assert_eq!(sim.reg(7), 2);
        assert!(sim.is_halted());
    }

    #[test]
    fn r0_is_hardwired_zero() {
        let mut a = Assembler::new();
        a.addi(0, 0, 99);
        a.add(1, 0, 0);
        a.halt();
        let p = a.assemble().unwrap();
        let mut sim = FunctionalSimulator::new(&p);
        sim.run(10).unwrap();
        assert_eq!(sim.reg(0), 0);
        assert_eq!(sim.reg(1), 0);
    }

    #[test]
    fn div_by_zero_is_defined() {
        let mut a = Assembler::new();
        a.addi(1, 0, 10);
        a.div(2, 1, 0);
        a.rem(3, 1, 0);
        a.halt();
        let p = a.assemble().unwrap();
        let mut sim = FunctionalSimulator::new(&p);
        sim.run(10).unwrap();
        assert_eq!(sim.reg(2), 0);
        assert_eq!(sim.reg(3), 10);
    }

    #[test]
    fn memory_roundtrip_all_sizes() {
        let mut a = Assembler::new();
        a.li(1, 0x1_0000); // data base
        a.li(2, 0xDEAD_BEEF);
        a.sw(2, 1, 0);
        a.lw(3, 1, 0);
        a.lbu(4, 1, 3); // 0xDE
        a.lb(5, 1, 3); // sign-extended 0xDE
        a.lh(6, 1, 0); // sign-extended 0xBEEF
        a.sb(2, 1, 8);
        a.lbu(7, 1, 8); // 0xEF
        a.sh(2, 1, 12);
        a.lh(8, 1, 12);
        a.halt();
        let p = a.assemble().unwrap();
        let mut sim = FunctionalSimulator::new(&p);
        sim.run(100).unwrap();
        assert_eq!(sim.reg(3), 0xDEAD_BEEF);
        assert_eq!(sim.reg(4), 0xDE);
        assert_eq!(sim.reg(5), 0xDEu8 as i8 as i32 as u32);
        assert_eq!(sim.reg(6), 0xBEEFu16 as i16 as i32 as u32);
        assert_eq!(sim.reg(7), 0xEF);
        assert_eq!(sim.reg(8), 0xBEEFu16 as i16 as i32 as u32);
    }

    #[test]
    fn branch_records_carry_outcome() {
        let mut a = Assembler::new();
        a.addi(1, 0, 2);
        a.label("loop").unwrap();
        a.addi(1, 1, -1);
        a.bne(1, 0, "loop");
        a.halt();
        let p = a.assemble().unwrap();
        let mut sim = FunctionalSimulator::new(&p);
        let trace = sim.run(100).unwrap();
        let branches: Vec<_> = trace
            .iter()
            .filter_map(|r| match r {
                TraceRecord::Branch(b) => Some(*b),
                _ => None,
            })
            .collect();
        assert_eq!(branches.len(), 2);
        assert!(branches[0].taken, "first iteration loops back");
        assert!(!branches[1].taken, "second iteration falls through");
        assert_eq!(branches[0].kind, BranchKind::Cond);
    }

    #[test]
    fn call_return_records() {
        let mut a = Assembler::new();
        a.jal("f");
        a.halt();
        a.label("f").unwrap();
        a.addi(2, 0, 1);
        a.ret();
        let p = a.assemble().unwrap();
        let mut sim = FunctionalSimulator::new(&p);
        let trace = sim.run(100).unwrap();
        let kinds: Vec<_> = trace
            .iter()
            .filter_map(|r| match r {
                TraceRecord::Branch(b) => Some(b.kind),
                _ => None,
            })
            .collect();
        assert_eq!(kinds, vec![BranchKind::Call, BranchKind::Return]);
        assert_eq!(sim.reg(2), 1);
    }

    #[test]
    fn out_of_fuel_reported() {
        let mut a = Assembler::new();
        a.label("spin").unwrap();
        a.j("spin");
        let p = a.assemble().unwrap();
        let mut sim = FunctionalSimulator::new(&p);
        assert!(matches!(sim.run(10), Err(ExecError::OutOfFuel { .. })));
    }

    #[test]
    fn pc_escape_reported() {
        let mut a = Assembler::new();
        a.addi(1, 0, 0x100);
        a.jr(1); // jumps outside the text segment
        let p = a.assemble().unwrap();
        let mut sim = FunctionalSimulator::new(&p);
        assert!(matches!(
            sim.run(10),
            Err(ExecError::PcOutOfRange { pc: 0x100 })
        ));
    }

    #[test]
    fn step_after_halt_is_none() {
        let mut a = Assembler::new();
        a.halt();
        let p = a.assemble().unwrap();
        let mut sim = FunctionalSimulator::new(&p);
        assert_eq!(sim.step().unwrap(), None);
        assert_eq!(sim.step().unwrap(), None);
    }
}
