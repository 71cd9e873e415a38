//! The three pre-decoded record formats: Branch (B), Memory (M), Other (O).
//!
//! The field inventory follows the paper's §V.A: each dynamic instruction is
//! stored in one of three formats, "each with its own fields and length",
//! and every format carries a *Tag Bit* used for mis-speculation handling.
//! The concrete fields are the minimum a trace-driven timing model needs:
//! program counter (for I-cache and BTB indexing), register names (for the
//! rename table and wakeup), effective addresses (for the LSQ and D-cache),
//! and branch outcome/target (for misfetch and misprediction modelling).

use std::fmt;

/// Maximum number of architectural register names in a trace (6-bit field).
pub const MAX_REGS: u8 = 64;

/// An architectural register name as carried in the trace.
///
/// Registers are a flat 6-bit namespace (0–63): enough for PISA's or
/// Alpha's 32 integer registers plus 32 more names for FP/HI/LO without the
/// engine caring which ISA produced the trace. The timing engine only
/// compares names for equality when renaming.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(u8);

impl Reg {
    /// Creates a register name.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 64` (names are a 6-bit trace field).
    #[inline]
    pub fn new(index: u8) -> Self {
        assert!(
            index < MAX_REGS,
            "register index {index} out of range 0..64"
        );
        Reg(index)
    }

    /// Creates a register name, returning `None` when out of range.
    pub fn try_new(index: u8) -> Option<Self> {
        (index < MAX_REGS).then_some(Reg(index))
    }

    /// The raw 6-bit index.
    pub fn index(self) -> u8 {
        self.0
    }

    /// Which half of the namespace this name belongs to.
    pub fn class(self) -> RegClass {
        if self.0 < 32 {
            RegClass::Int
        } else {
            RegClass::Ext
        }
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.class() {
            RegClass::Int => write!(f, "r{}", self.0),
            RegClass::Ext => write!(f, "x{}", self.0 - 32),
        }
    }
}

/// Register namespace halves (integer vs. extended/FP names).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegClass {
    /// Integer register file names (0–31).
    Int,
    /// Extended names (32–63): FP, HI/LO, or other ISA-specific state.
    Ext,
}

/// Operation class of an *Other* (non-memory, non-branch) record.
///
/// The class selects which functional-unit pool the instruction needs and
/// thereby its execution latency (paper §V.C: four ALUs, one multiplier and
/// one divider with 1-, 3- and 10-cycle latencies in the reference
/// configuration).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum OpClass {
    /// Single-cycle integer ALU operation (also carries FP-add class ops).
    #[default]
    IntAlu,
    /// Multiply-class operation (3-cycle default latency).
    IntMult,
    /// Divide-class operation (10-cycle default latency).
    IntDiv,
    /// No-operation: occupies fetch/dispatch/commit slots but no FU.
    Nop,
}

impl OpClass {
    /// All classes, in encoding order.
    pub const ALL: [OpClass; 4] = [
        OpClass::IntAlu,
        OpClass::IntMult,
        OpClass::IntDiv,
        OpClass::Nop,
    ];

    /// 2-bit trace encoding.
    pub(crate) fn encode(self) -> u32 {
        match self {
            OpClass::IntAlu => 0,
            OpClass::IntMult => 1,
            OpClass::IntDiv => 2,
            OpClass::Nop => 3,
        }
    }

    #[inline]
    pub(crate) fn decode(v: u32) -> Option<Self> {
        Some(match v {
            0 => OpClass::IntAlu,
            1 => OpClass::IntMult,
            2 => OpClass::IntDiv,
            3 => OpClass::Nop,
            _ => return None,
        })
    }
}

impl fmt::Display for OpClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OpClass::IntAlu => "alu",
            OpClass::IntMult => "mult",
            OpClass::IntDiv => "div",
            OpClass::Nop => "nop",
        };
        f.write_str(s)
    }
}

/// Control-flow kind of a Branch record.
///
/// The kind drives the branch predictor: conditional branches consult the
/// direction predictor, calls push the RAS, returns pop it, and indirect
/// jumps rely purely on the BTB.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BranchKind {
    /// Conditional direct branch.
    #[default]
    Cond,
    /// Unconditional direct jump.
    Jump,
    /// Direct call (pushes return address on the RAS).
    Call,
    /// Return (pops the RAS).
    Return,
    /// Indirect jump through a register.
    IndirectJump,
    /// Indirect call through a register (pushes the RAS).
    IndirectCall,
}

impl BranchKind {
    /// All kinds, in encoding order.
    pub const ALL: [BranchKind; 6] = [
        BranchKind::Cond,
        BranchKind::Jump,
        BranchKind::Call,
        BranchKind::Return,
        BranchKind::IndirectJump,
        BranchKind::IndirectCall,
    ];

    /// Whether this kind is unconditional (always taken).
    pub fn is_unconditional(self) -> bool {
        !matches!(self, BranchKind::Cond)
    }

    /// Whether this kind pushes a return address onto the RAS.
    pub fn pushes_ras(self) -> bool {
        matches!(self, BranchKind::Call | BranchKind::IndirectCall)
    }

    /// Whether this kind pops the RAS.
    pub fn pops_ras(self) -> bool {
        matches!(self, BranchKind::Return)
    }

    /// Whether the target comes from a register (BTB-predicted only).
    pub fn is_indirect(self) -> bool {
        matches!(
            self,
            BranchKind::Return | BranchKind::IndirectJump | BranchKind::IndirectCall
        )
    }

    pub(crate) fn encode(self) -> u32 {
        match self {
            BranchKind::Cond => 0,
            BranchKind::Jump => 1,
            BranchKind::Call => 2,
            BranchKind::Return => 3,
            BranchKind::IndirectJump => 4,
            BranchKind::IndirectCall => 5,
        }
    }

    #[inline]
    pub(crate) fn decode(v: u32) -> Option<Self> {
        Some(match v {
            0 => BranchKind::Cond,
            1 => BranchKind::Jump,
            2 => BranchKind::Call,
            3 => BranchKind::Return,
            4 => BranchKind::IndirectJump,
            5 => BranchKind::IndirectCall,
            _ => return None,
        })
    }
}

impl fmt::Display for BranchKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BranchKind::Cond => "cond",
            BranchKind::Jump => "jump",
            BranchKind::Call => "call",
            BranchKind::Return => "ret",
            BranchKind::IndirectJump => "ijump",
            BranchKind::IndirectCall => "icall",
        };
        f.write_str(s)
    }
}

/// Direction of a Memory record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MemKind {
    /// Load: reads memory into `data` (destination register).
    #[default]
    Load,
    /// Store: writes register `data` to memory at commit.
    Store,
}

impl MemKind {
    pub(crate) fn encode(self) -> u32 {
        match self {
            MemKind::Load => 0,
            MemKind::Store => 1,
        }
    }
}

impl fmt::Display for MemKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            MemKind::Load => "load",
            MemKind::Store => "store",
        })
    }
}

/// Access size of a Memory record (2-bit field).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MemSize {
    /// One byte.
    Byte,
    /// Two bytes.
    Half,
    /// Four bytes.
    #[default]
    Word,
    /// Eight bytes.
    Double,
}

impl MemSize {
    /// All sizes, in encoding order.
    pub const ALL: [MemSize; 4] = [MemSize::Byte, MemSize::Half, MemSize::Word, MemSize::Double];

    /// Size in bytes.
    pub fn bytes(self) -> u32 {
        match self {
            MemSize::Byte => 1,
            MemSize::Half => 2,
            MemSize::Word => 4,
            MemSize::Double => 8,
        }
    }

    pub(crate) fn encode(self) -> u32 {
        match self {
            MemSize::Byte => 0,
            MemSize::Half => 1,
            MemSize::Word => 2,
            MemSize::Double => 3,
        }
    }

    #[inline]
    pub(crate) fn decode(v: u32) -> Option<Self> {
        Some(match v {
            0 => MemSize::Byte,
            1 => MemSize::Half,
            2 => MemSize::Word,
            3 => MemSize::Double,
            _ => return None,
        })
    }
}

/// A Branch (B) format record: one dynamic control-flow instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BranchRecord {
    /// Program counter of the branch.
    pub pc: u32,
    /// Actual (resolved) target address.
    pub target: u32,
    /// Actual (resolved) direction. Always `true` for unconditional kinds.
    pub taken: bool,
    /// Control-flow kind.
    pub kind: BranchKind,
    /// First source register (condition or target operand), if any.
    pub src1: Option<Reg>,
    /// Second source register, if any.
    pub src2: Option<Reg>,
    /// Tag bit: `true` marks a wrong-path (mis-speculated) instruction.
    pub wrong_path: bool,
}

impl BranchRecord {
    /// The fall-through address (next sequential PC).
    pub fn fallthrough(&self) -> u32 {
        self.pc.wrapping_add(4)
    }

    /// The address fetch should proceed from after this branch resolves.
    pub fn next_pc(&self) -> u32 {
        if self.taken {
            self.target
        } else {
            self.fallthrough()
        }
    }
}

/// A Memory (M) format record: one dynamic load or store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemRecord {
    /// Program counter of the memory instruction.
    pub pc: u32,
    /// Effective (virtual) address, already resolved by the functional side.
    pub addr: u32,
    /// Access width.
    pub size: MemSize,
    /// Load or store.
    pub kind: MemKind,
    /// Address base register (source dependency for address generation).
    pub base: Option<Reg>,
    /// For loads: destination register. For stores: data source register.
    pub data: Option<Reg>,
    /// Tag bit: `true` marks a wrong-path instruction.
    pub wrong_path: bool,
}

impl MemRecord {
    /// Whether this record is a load.
    pub fn is_load(&self) -> bool {
        self.kind == MemKind::Load
    }

    /// Whether this record is a store.
    pub fn is_store(&self) -> bool {
        self.kind == MemKind::Store
    }

    /// Whether `self` and `other` touch overlapping byte ranges.
    pub fn overlaps(&self, other: &MemRecord) -> bool {
        let a0 = self.addr as u64;
        let a1 = a0 + self.size.bytes() as u64;
        let b0 = other.addr as u64;
        let b1 = b0 + other.size.bytes() as u64;
        a0 < b1 && b0 < a1
    }
}

/// An Other (O) format record: any non-memory, non-branch instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OtherRecord {
    /// Program counter.
    pub pc: u32,
    /// Functional-unit class (determines execution latency).
    pub class: OpClass,
    /// Destination register, if the instruction writes one.
    pub dest: Option<Reg>,
    /// First source register, if any.
    pub src1: Option<Reg>,
    /// Second source register, if any.
    pub src2: Option<Reg>,
    /// Tag bit: `true` marks a wrong-path instruction.
    pub wrong_path: bool,
}

/// One pre-decoded dynamic instruction in the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceRecord {
    /// Control-flow instruction (B format).
    Branch(BranchRecord),
    /// Load or store (M format).
    Mem(MemRecord),
    /// Everything else (O format).
    Other(OtherRecord),
}

impl TraceRecord {
    /// Program counter of the instruction.
    pub fn pc(&self) -> u32 {
        match self {
            TraceRecord::Branch(b) => b.pc,
            TraceRecord::Mem(m) => m.pc,
            TraceRecord::Other(o) => o.pc,
        }
    }

    /// The Tag bit: whether this is a wrong-path instruction.
    pub fn wrong_path(&self) -> bool {
        match self {
            TraceRecord::Branch(b) => b.wrong_path,
            TraceRecord::Mem(m) => m.wrong_path,
            TraceRecord::Other(o) => o.wrong_path,
        }
    }

    /// Sets the Tag bit.
    pub fn set_wrong_path(&mut self, tag: bool) {
        match self {
            TraceRecord::Branch(b) => b.wrong_path = tag,
            TraceRecord::Mem(m) => m.wrong_path = tag,
            TraceRecord::Other(o) => o.wrong_path = tag,
        }
    }

    /// Destination register written by this instruction, if any.
    ///
    /// Loads write their `data` register; stores write nothing; branches
    /// write nothing at the timing level (link registers are modelled as
    /// part of the call's `Other` micro-sequence by the front ends that
    /// need them).
    pub fn dest(&self) -> Option<Reg> {
        match self {
            TraceRecord::Branch(_) => None,
            TraceRecord::Mem(m) => m.is_load().then_some(m.data).flatten(),
            TraceRecord::Other(o) => o.dest,
        }
    }

    /// Source registers read by this instruction (up to two).
    pub fn sources(&self) -> [Option<Reg>; 2] {
        match self {
            TraceRecord::Branch(b) => [b.src1, b.src2],
            TraceRecord::Mem(m) => match m.kind {
                MemKind::Load => [m.base, None],
                MemKind::Store => [m.base, m.data],
            },
            TraceRecord::Other(o) => [o.src1, o.src2],
        }
    }

    /// The PC the *next sequential* record would have if no control flow
    /// transfer happens (taken branches redirect to their target instead).
    #[inline]
    pub fn implied_next_pc(&self) -> u32 {
        match self {
            TraceRecord::Branch(b) => b.next_pc(),
            _ => self.pc().wrapping_add(4),
        }
    }

    /// Whether this record is a branch.
    pub fn is_branch(&self) -> bool {
        matches!(self, TraceRecord::Branch(_))
    }

    /// Whether this record is a load.
    pub fn is_load(&self) -> bool {
        matches!(self, TraceRecord::Mem(m) if m.is_load())
    }

    /// Whether this record is a store.
    pub fn is_store(&self) -> bool {
        matches!(self, TraceRecord::Mem(m) if m.is_store())
    }
}

impl From<BranchRecord> for TraceRecord {
    fn from(b: BranchRecord) -> Self {
        TraceRecord::Branch(b)
    }
}

impl From<MemRecord> for TraceRecord {
    fn from(m: MemRecord) -> Self {
        TraceRecord::Mem(m)
    }
}

impl From<OtherRecord> for TraceRecord {
    fn from(o: OtherRecord) -> Self {
        TraceRecord::Other(o)
    }
}

impl fmt::Display for TraceRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let tag = if self.wrong_path() { " [wp]" } else { "" };
        match self {
            TraceRecord::Branch(b) => write!(
                f,
                "{:#010x}: B {} -> {:#010x} ({}){}",
                b.pc,
                b.kind,
                b.target,
                if b.taken { "taken" } else { "not-taken" },
                tag
            ),
            TraceRecord::Mem(m) => write!(
                f,
                "{:#010x}: M {} @{:#010x} x{}{}",
                m.pc,
                m.kind,
                m.addr,
                m.size.bytes(),
                tag
            ),
            TraceRecord::Other(o) => write!(f, "{:#010x}: O {}{}", o.pc, o.class, tag),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reg_roundtrip_and_class() {
        let r = Reg::new(5);
        assert_eq!(r.index(), 5);
        assert_eq!(r.class(), RegClass::Int);
        assert_eq!(Reg::new(40).class(), RegClass::Ext);
        assert_eq!(format!("{}", Reg::new(40)), "x8");
        assert_eq!(format!("{}", Reg::new(7)), "r7");
        assert!(Reg::try_new(63).is_some());
        assert!(Reg::try_new(64).is_none());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn reg_out_of_range_panics() {
        let _ = Reg::new(64);
    }

    #[test]
    fn branch_next_pc() {
        let b = BranchRecord {
            pc: 0x100,
            target: 0x200,
            taken: true,
            kind: BranchKind::Cond,
            src1: None,
            src2: None,
            wrong_path: false,
        };
        assert_eq!(b.next_pc(), 0x200);
        assert_eq!(b.fallthrough(), 0x104);
        let nt = BranchRecord { taken: false, ..b };
        assert_eq!(nt.next_pc(), 0x104);
    }

    #[test]
    fn branch_kind_properties() {
        assert!(BranchKind::Call.pushes_ras());
        assert!(BranchKind::IndirectCall.pushes_ras());
        assert!(BranchKind::Return.pops_ras());
        assert!(BranchKind::Return.is_indirect());
        assert!(!BranchKind::Cond.is_unconditional());
        assert!(BranchKind::Jump.is_unconditional());
        for k in BranchKind::ALL {
            assert_eq!(BranchKind::decode(k.encode()), Some(k));
        }
        assert_eq!(BranchKind::decode(7), None);
    }

    #[test]
    fn opclass_roundtrip() {
        for c in OpClass::ALL {
            assert_eq!(OpClass::decode(c.encode()), Some(c));
        }
        assert_eq!(OpClass::decode(9), None);
    }

    #[test]
    fn memsize_roundtrip() {
        for s in MemSize::ALL {
            assert_eq!(MemSize::decode(s.encode()), Some(s));
            assert!(s.bytes().is_power_of_two());
        }
    }

    #[test]
    fn mem_overlap() {
        let mk = |addr, size| MemRecord {
            pc: 0,
            addr,
            size,
            kind: MemKind::Load,
            base: None,
            data: None,
            wrong_path: false,
        };
        assert!(mk(100, MemSize::Word).overlaps(&mk(102, MemSize::Half)));
        assert!(!mk(100, MemSize::Word).overlaps(&mk(104, MemSize::Word)));
        assert!(mk(100, MemSize::Byte).overlaps(&mk(100, MemSize::Byte)));
        assert!(!mk(101, MemSize::Byte).overlaps(&mk(100, MemSize::Byte)));
    }

    #[test]
    fn record_sources_and_dest() {
        let load = TraceRecord::Mem(MemRecord {
            pc: 0,
            addr: 0x80,
            size: MemSize::Word,
            kind: MemKind::Load,
            base: Some(Reg::new(4)),
            data: Some(Reg::new(9)),
            wrong_path: false,
        });
        assert_eq!(load.dest(), Some(Reg::new(9)));
        assert_eq!(load.sources(), [Some(Reg::new(4)), None]);

        let store = TraceRecord::Mem(MemRecord {
            pc: 0,
            addr: 0x80,
            size: MemSize::Word,
            kind: MemKind::Store,
            base: Some(Reg::new(4)),
            data: Some(Reg::new(9)),
            wrong_path: false,
        });
        assert_eq!(store.dest(), None);
        assert_eq!(store.sources(), [Some(Reg::new(4)), Some(Reg::new(9))]);
    }

    #[test]
    fn display_formats() {
        let o = TraceRecord::Other(OtherRecord {
            pc: 0x1000,
            class: OpClass::IntMult,
            dest: None,
            src1: None,
            src2: None,
            wrong_path: true,
        });
        let s = format!("{o}");
        assert!(s.contains("mult"));
        assert!(s.contains("[wp]"));
    }
}
