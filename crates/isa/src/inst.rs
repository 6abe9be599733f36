//! Instruction and terminator definitions for the MicroVM ISA.
//!
//! The ISA is deliberately RISC-like: all arithmetic happens between
//! registers and immediates, memory is touched only through [`Inst::Load`]
//! and [`Inst::Store`], and control flow is confined to block
//! [`Terminator`]s. This regularity is what makes per-block reverse
//! analysis (write sets, havocking, forward re-execution) tractable for
//! the RES engine.

use mvm_json::{json_enum, json_newtype};

use crate::program::{BlockId, FuncId, GlobalId};

/// A general-purpose register.
///
/// The MicroVM exposes [`Reg::COUNT`] 64-bit registers per thread,
/// `r0`..`r31`. By calling convention, arguments arrive in `r0..rN` and a
/// function's return value is produced by its `ret` terminator rather
/// than a dedicated register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(pub u8);

impl Reg {
    /// Number of general-purpose registers per thread.
    pub const COUNT: usize = 32;

    /// Returns the register's index as a `usize` for table lookups.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for Reg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Either a register or a 64-bit immediate.
///
/// Allowing immediates directly in instruction operands keeps the
/// synthetic workload programs compact without a separate `li`-style
/// materialization step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// Read the value of a register.
    Reg(Reg),
    /// A literal 64-bit constant.
    Imm(u64),
}

impl Operand {
    /// Returns the register if this operand reads one.
    #[inline]
    pub fn as_reg(self) -> Option<Reg> {
        match self {
            Operand::Reg(r) => Some(r),
            Operand::Imm(_) => None,
        }
    }
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Self {
        Operand::Reg(r)
    }
}

impl From<u64> for Operand {
    fn from(v: u64) -> Self {
        Operand::Imm(v)
    }
}

impl std::fmt::Display for Operand {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::Imm(v) => write!(f, "{v}"),
        }
    }
}

/// Access width of a memory operation, in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Width {
    /// One byte.
    W1,
    /// Two bytes.
    W2,
    /// Four bytes.
    W4,
    /// Eight bytes (a full machine word).
    W8,
}

impl Width {
    /// The width in bytes.
    #[inline]
    pub fn bytes(self) -> u64 {
        match self {
            Width::W1 => 1,
            Width::W2 => 2,
            Width::W4 => 4,
            Width::W8 => 8,
        }
    }

    /// Mask selecting the low `bytes()*8` bits of a word.
    #[inline]
    pub fn mask(self) -> u64 {
        match self {
            Width::W1 => 0xff,
            Width::W2 => 0xffff,
            Width::W4 => 0xffff_ffff,
            Width::W8 => u64::MAX,
        }
    }
}

impl std::fmt::Display for Width {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.bytes())
    }
}

/// Two-operand ALU operations.
///
/// Comparison operators produce `1` or `0` in the destination register;
/// there are no condition flags. Signedness is explicit in the operator
/// (`LtS` vs `LtU`), mirroring LLVM's `icmp` predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Unsigned division; divide-by-zero faults the machine.
    DivU,
    /// Unsigned remainder; divide-by-zero faults the machine.
    RemU,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Logical shift left (shift amount taken modulo 64).
    Shl,
    /// Logical shift right (shift amount taken modulo 64).
    Shr,
    /// Arithmetic shift right (shift amount taken modulo 64).
    Sar,
    /// Equality comparison, producing 0 or 1.
    Eq,
    /// Inequality comparison, producing 0 or 1.
    Ne,
    /// Unsigned less-than, producing 0 or 1.
    LtU,
    /// Unsigned less-or-equal, producing 0 or 1.
    LeU,
    /// Signed less-than, producing 0 or 1.
    LtS,
    /// Signed less-or-equal, producing 0 or 1.
    LeS,
}

impl BinOp {
    /// Returns `true` for the comparison operators that yield 0/1.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::LtU | BinOp::LeU | BinOp::LtS | BinOp::LeS
        )
    }

    /// Evaluates the operation on concrete values.
    ///
    /// Division and remainder by zero return `None`; the machine turns
    /// that into a fault.
    pub fn eval(self, a: u64, b: u64) -> Option<u64> {
        Some(match self {
            BinOp::Add => a.wrapping_add(b),
            BinOp::Sub => a.wrapping_sub(b),
            BinOp::Mul => a.wrapping_mul(b),
            BinOp::DivU => a.checked_div(b)?,
            BinOp::RemU => a.checked_rem(b)?,
            BinOp::And => a & b,
            BinOp::Or => a | b,
            BinOp::Xor => a ^ b,
            BinOp::Shl => a.wrapping_shl(b as u32),
            BinOp::Shr => a.wrapping_shr(b as u32),
            BinOp::Sar => (a as i64).wrapping_shr(b as u32) as u64,
            BinOp::Eq => u64::from(a == b),
            BinOp::Ne => u64::from(a != b),
            BinOp::LtU => u64::from(a < b),
            BinOp::LeU => u64::from(a <= b),
            BinOp::LtS => u64::from((a as i64) < (b as i64)),
            BinOp::LeS => u64::from((a as i64) <= (b as i64)),
        })
    }

    /// The assembler mnemonic for this operation.
    pub fn mnemonic(self) -> &'static str {
        match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::DivU => "divu",
            BinOp::RemU => "remu",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::Shl => "shl",
            BinOp::Shr => "shr",
            BinOp::Sar => "sar",
            BinOp::Eq => "eq",
            BinOp::Ne => "ne",
            BinOp::LtU => "ltu",
            BinOp::LeU => "leu",
            BinOp::LtS => "lts",
            BinOp::LeS => "les",
        }
    }
}

/// One-operand ALU operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Bitwise negation.
    Not,
    /// Two's-complement negation.
    Neg,
}

impl UnOp {
    /// Evaluates the operation on a concrete value.
    pub fn eval(self, a: u64) -> u64 {
        match self {
            UnOp::Not => !a,
            UnOp::Neg => a.wrapping_neg(),
        }
    }

    /// The assembler mnemonic for this operation.
    pub fn mnemonic(self) -> &'static str {
        match self {
            UnOp::Not => "not",
            UnOp::Neg => "neg",
        }
    }
}

/// Classification of external inputs.
///
/// The kind matters for the exploitability use case (§3.1 of the paper):
/// data arriving via [`InputKind::Network`] is attacker-controlled, so an
/// overflow fed by it is classified as remotely exploitable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InputKind {
    /// A value read from the network (attacker-controlled).
    Network,
    /// A value read from a local file.
    File,
    /// The current time.
    Time,
    /// An OS-provided random value.
    Random,
    /// An environment/configuration value.
    Env,
}

impl InputKind {
    /// Returns `true` if an attacker can influence inputs of this kind
    /// remotely.
    pub fn attacker_controlled(self) -> bool {
        matches!(self, InputKind::Network)
    }

    /// The assembler name of this input kind.
    pub fn name(self) -> &'static str {
        match self {
            InputKind::Network => "net",
            InputKind::File => "file",
            InputKind::Time => "time",
            InputKind::Random => "rand",
            InputKind::Env => "env",
        }
    }
}

/// Output channels observable outside the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Channel {
    /// Ordinary program output (stdout-like).
    Out,
    /// Error-log output. Log records double as the coarse-grained
    /// execution "breadcrumbs" of §2.4 of the paper.
    Log,
}

impl Channel {
    /// The assembler name of this channel.
    pub fn name(self) -> &'static str {
        match self {
            Channel::Out => "out",
            Channel::Log => "log",
        }
    }
}

/// A straight-line (non-control-flow) instruction.
///
/// Every variant writes at most one register and at most one memory
/// location, which keeps the write sets that drive backward havocking
/// (§2.4 of the paper) trivially computable.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Inst {
    /// `dst = src`.
    Mov {
        /// Destination register.
        dst: Reg,
        /// Source operand.
        src: Operand,
    },
    /// `dst = op(lhs, rhs)`.
    Bin {
        /// ALU operation.
        op: BinOp,
        /// Destination register.
        dst: Reg,
        /// Left operand.
        lhs: Operand,
        /// Right operand.
        rhs: Operand,
    },
    /// `dst = op(src)`.
    Un {
        /// Unary operation.
        op: UnOp,
        /// Destination register.
        dst: Reg,
        /// Source operand.
        src: Operand,
    },
    /// `dst = zero_extend(mem[addr + offset], width)`.
    Load {
        /// Destination register.
        dst: Reg,
        /// Base address operand.
        addr: Operand,
        /// Constant byte offset added to the base.
        offset: i64,
        /// Access width.
        width: Width,
    },
    /// `mem[addr + offset] = truncate(src, width)`.
    Store {
        /// Value to store.
        src: Operand,
        /// Base address operand.
        addr: Operand,
        /// Constant byte offset added to the base.
        offset: i64,
        /// Access width.
        width: Width,
    },
    /// `dst = address_of(global)`.
    AddrOf {
        /// Destination register.
        dst: Reg,
        /// The global whose address is taken.
        global: GlobalId,
    },
    /// `dst = fresh external input` of the given kind.
    ///
    /// During reverse synthesis these become unconstrained symbolic
    /// values (§2.4); the synthesized suffix records the concrete values
    /// the solver chose so replay is deterministic.
    Input {
        /// Destination register.
        dst: Reg,
        /// What produced the input.
        kind: InputKind,
    },
    /// Emit `src` on an output channel.
    Output {
        /// Value to emit.
        src: Operand,
        /// Target channel.
        channel: Channel,
    },
    /// `dst = heap_alloc(size)` — returns the address of a fresh block.
    Alloc {
        /// Destination register receiving the block address.
        dst: Reg,
        /// Requested size in bytes.
        size: Operand,
    },
    /// Releases a heap block previously returned by [`Inst::Alloc`].
    Free {
        /// Block address to free.
        addr: Operand,
    },
    /// Acquires the mutex identified by the word at `addr`.
    ///
    /// Mutexes are addressed by memory location, like pthread mutexes.
    Lock {
        /// Mutex address.
        addr: Operand,
    },
    /// Releases the mutex identified by the word at `addr`.
    Unlock {
        /// Mutex address.
        addr: Operand,
    },
    /// `dst = spawn(func, arg)` — starts a new thread, yielding its id.
    Spawn {
        /// Destination register receiving the thread id.
        dst: Reg,
        /// Thread entry function; receives `arg` in `r0`.
        func: FuncId,
        /// Argument passed to the new thread.
        arg: Operand,
    },
    /// Blocks until the thread named by `tid` halts.
    Join {
        /// Thread id operand.
        tid: Operand,
    },
    /// Faults the machine if `cond` is zero — a semantic failure.
    Assert {
        /// Condition that must be non-zero.
        cond: Operand,
        /// Diagnostic message recorded in the fault.
        msg: String,
    },
    /// Does nothing. Useful as padding in generated workloads.
    Nop,
}

impl Inst {
    /// The register this instruction writes, if any.
    pub fn def_reg(&self) -> Option<Reg> {
        match self {
            Inst::Mov { dst, .. }
            | Inst::Bin { dst, .. }
            | Inst::Un { dst, .. }
            | Inst::Load { dst, .. }
            | Inst::AddrOf { dst, .. }
            | Inst::Input { dst, .. }
            | Inst::Alloc { dst, .. }
            | Inst::Spawn { dst, .. } => Some(*dst),
            Inst::Store { .. }
            | Inst::Output { .. }
            | Inst::Free { .. }
            | Inst::Lock { .. }
            | Inst::Unlock { .. }
            | Inst::Join { .. }
            | Inst::Assert { .. }
            | Inst::Nop => None,
        }
    }

    /// The registers this instruction reads.
    pub fn used_regs(&self) -> Vec<Reg> {
        let mut out = Vec::new();
        let mut push = |op: &Operand| {
            if let Operand::Reg(r) = op {
                out.push(*r);
            }
        };
        match self {
            Inst::Mov { src, .. } | Inst::Un { src, .. } => push(src),
            Inst::Bin { lhs, rhs, .. } => {
                push(lhs);
                push(rhs);
            }
            Inst::Load { addr, .. } => push(addr),
            Inst::Store { src, addr, .. } => {
                push(src);
                push(addr);
            }
            Inst::Output { src, .. } => push(src),
            Inst::Alloc { size, .. } => push(size),
            Inst::Free { addr } | Inst::Lock { addr } | Inst::Unlock { addr } => push(addr),
            Inst::Spawn { arg, .. } => push(arg),
            Inst::Join { tid } => push(tid),
            Inst::Assert { cond, .. } => push(cond),
            Inst::AddrOf { .. } | Inst::Input { .. } | Inst::Nop => {}
        }
        out
    }

    /// Returns `true` if this instruction may write memory.
    pub fn writes_memory(&self) -> bool {
        matches!(
            self,
            Inst::Store { .. }
                | Inst::Alloc { .. }
                | Inst::Free { .. }
                | Inst::Lock { .. }
                | Inst::Unlock { .. }
        )
    }
}

/// A basic-block terminator: the only instructions that transfer control.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Terminator {
    /// Unconditional jump to another block of the same function.
    Jump(BlockId),
    /// Two-way branch on `cond != 0`.
    Branch {
        /// Condition operand.
        cond: Operand,
        /// Successor when `cond != 0`.
        then_b: BlockId,
        /// Successor when `cond == 0`.
        else_b: BlockId,
    },
    /// Calls `func` with `args`; on return, `ret` (if any) receives the
    /// callee's return value and control continues at `cont`.
    Call {
        /// Callee.
        func: FuncId,
        /// Argument operands, copied into the callee's `r0..rN`.
        args: Vec<Operand>,
        /// Register receiving the return value, if used.
        ret: Option<Reg>,
        /// Block executed after the callee returns.
        cont: BlockId,
    },
    /// Returns from the current function with an optional value.
    Return(Option<Operand>),
    /// Halts the current thread normally.
    Halt,
}

impl Terminator {
    /// Intra-procedural successor blocks of this terminator.
    ///
    /// A [`Terminator::Call`] reports its continuation block: from the
    /// caller's CFG perspective the call "falls through" to `cont`.
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            Terminator::Jump(b) => vec![*b],
            Terminator::Branch { then_b, else_b, .. } => {
                if then_b == else_b {
                    vec![*then_b]
                } else {
                    vec![*then_b, *else_b]
                }
            }
            Terminator::Call { cont, .. } => vec![*cont],
            Terminator::Return(_) | Terminator::Halt => vec![],
        }
    }

    /// The registers this terminator reads.
    pub fn used_regs(&self) -> Vec<Reg> {
        match self {
            Terminator::Branch { cond, .. } => cond.as_reg().into_iter().collect(),
            Terminator::Call { args, .. } => args.iter().filter_map(|a| a.as_reg()).collect(),
            Terminator::Return(Some(v)) => v.as_reg().into_iter().collect(),
            Terminator::Jump(_) | Terminator::Return(None) | Terminator::Halt => vec![],
        }
    }
}

// JSON wire format: serde's externally-tagged layout, kept compatible
// with dumps written by the pre-hermetic build (see `mvm_json`).
json_newtype!(Reg);
json_enum!(Operand { Reg(Reg), Imm(u64) });
json_enum!(Width { W1, W2, W4, W8 });
json_enum!(BinOp {
    Add,
    Sub,
    Mul,
    DivU,
    RemU,
    And,
    Or,
    Xor,
    Shl,
    Shr,
    Sar,
    Eq,
    Ne,
    LtU,
    LeU,
    LtS,
    LeS,
});
json_enum!(UnOp { Not, Neg });
json_enum!(InputKind {
    Network,
    File,
    Time,
    Random,
    Env
});
json_enum!(Channel { Out, Log });
json_enum!(Inst {
    Mov { dst: Reg, src: Operand },
    Bin { op: BinOp, dst: Reg, lhs: Operand, rhs: Operand },
    Un { op: UnOp, dst: Reg, src: Operand },
    Load { dst: Reg, addr: Operand, offset: i64, width: Width },
    Store { src: Operand, addr: Operand, offset: i64, width: Width },
    AddrOf { dst: Reg, global: GlobalId },
    Input { dst: Reg, kind: InputKind },
    Output { src: Operand, channel: Channel },
    Alloc { dst: Reg, size: Operand },
    Free { addr: Operand },
    Lock { addr: Operand },
    Unlock { addr: Operand },
    Spawn { dst: Reg, func: FuncId, arg: Operand },
    Join { tid: Operand },
    Assert { cond: Operand, msg: String },
    Nop,
});
json_enum!(Terminator {
    Jump(BlockId),
    Branch { cond: Operand, then_b: BlockId, else_b: BlockId },
    Call { func: FuncId, args: Vec<Operand>, ret: Option<Reg>, cont: BlockId },
    Return(Option<Operand>),
    Halt,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binop_eval_arithmetic() {
        assert_eq!(BinOp::Add.eval(u64::MAX, 1), Some(0));
        assert_eq!(BinOp::Sub.eval(0, 1), Some(u64::MAX));
        assert_eq!(BinOp::Mul.eval(1 << 63, 2), Some(0));
        assert_eq!(BinOp::DivU.eval(7, 2), Some(3));
        assert_eq!(BinOp::RemU.eval(7, 2), Some(1));
    }

    #[test]
    fn binop_eval_div_zero_is_none() {
        assert_eq!(BinOp::DivU.eval(1, 0), None);
        assert_eq!(BinOp::RemU.eval(1, 0), None);
    }

    #[test]
    fn binop_eval_comparisons() {
        assert_eq!(BinOp::Eq.eval(3, 3), Some(1));
        assert_eq!(BinOp::Ne.eval(3, 3), Some(0));
        assert_eq!(BinOp::LtU.eval(1, u64::MAX), Some(1));
        // -1 < 1 signed, but not unsigned.
        assert_eq!(BinOp::LtS.eval(u64::MAX, 1), Some(1));
        assert_eq!(BinOp::LtU.eval(u64::MAX, 1), Some(0));
        assert_eq!(BinOp::LeS.eval(5, 5), Some(1));
    }

    #[test]
    fn binop_eval_shifts() {
        assert_eq!(BinOp::Shl.eval(1, 4), Some(16));
        assert_eq!(BinOp::Shr.eval(0x8000_0000_0000_0000, 63), Some(1));
        assert_eq!(BinOp::Sar.eval(u64::MAX, 8), Some(u64::MAX));
    }

    #[test]
    fn unop_eval() {
        assert_eq!(UnOp::Not.eval(0), u64::MAX);
        assert_eq!(UnOp::Neg.eval(1), u64::MAX);
    }

    #[test]
    fn width_masks() {
        assert_eq!(Width::W1.mask(), 0xff);
        assert_eq!(Width::W2.bytes(), 2);
        assert_eq!(Width::W8.mask(), u64::MAX);
    }

    #[test]
    fn def_and_use_regs() {
        let i = Inst::Bin {
            op: BinOp::Add,
            dst: Reg(2),
            lhs: Operand::Reg(Reg(0)),
            rhs: Operand::Imm(5),
        };
        assert_eq!(i.def_reg(), Some(Reg(2)));
        assert_eq!(i.used_regs(), vec![Reg(0)]);

        let s = Inst::Store {
            src: Operand::Reg(Reg(1)),
            addr: Operand::Reg(Reg(3)),
            offset: 8,
            width: Width::W8,
        };
        assert_eq!(s.def_reg(), None);
        assert_eq!(s.used_regs(), vec![Reg(1), Reg(3)]);
        assert!(s.writes_memory());
    }

    #[test]
    fn terminator_successors() {
        let t = Terminator::Branch {
            cond: Operand::Reg(Reg(0)),
            then_b: BlockId(1),
            else_b: BlockId(2),
        };
        assert_eq!(t.successors(), vec![BlockId(1), BlockId(2)]);
        let same = Terminator::Branch {
            cond: Operand::Reg(Reg(0)),
            then_b: BlockId(1),
            else_b: BlockId(1),
        };
        assert_eq!(same.successors(), vec![BlockId(1)]);
        assert!(Terminator::Halt.successors().is_empty());
    }

    #[test]
    fn input_kind_taint() {
        assert!(InputKind::Network.attacker_controlled());
        assert!(!InputKind::File.attacker_controlled());
        assert!(!InputKind::Time.attacker_controlled());
    }
}
