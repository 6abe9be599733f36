//! Program containers: functions, basic blocks, globals, code locations.

use mvm_json::{json_newtype, json_struct};

use crate::inst::{Inst, Terminator};
use crate::layout;

/// Identifies a function within a [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FuncId(pub u32);

/// Identifies a basic block within a [`Function`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

/// Identifies a global variable within a [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GlobalId(pub u32);

/// A code location: function, block, and instruction index.
///
/// `inst == block.insts.len()` denotes the block's terminator. This is
/// the MicroVM's program counter and the unit in which coredumps report
/// where each thread stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Loc {
    /// Containing function.
    pub func: FuncId,
    /// Containing basic block.
    pub block: BlockId,
    /// Instruction index within the block; the terminator sits at
    /// `insts.len()`.
    pub inst: u32,
}

impl Loc {
    /// A location at the start of the given block.
    pub fn block_start(func: FuncId, block: BlockId) -> Self {
        Loc {
            func,
            block,
            inst: 0,
        }
    }
}

impl std::fmt::Display for Loc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "f{}:b{}:i{}", self.func.0, self.block.0, self.inst)
    }
}

/// A basic block: straight-line instructions plus one terminator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BasicBlock {
    /// Human-readable label (unique within the function).
    pub label: String,
    /// Straight-line body.
    pub insts: Vec<Inst>,
    /// The unique control-flow transfer ending the block.
    pub terminator: Terminator,
}

impl BasicBlock {
    /// Number of execution steps in this block including the terminator.
    pub fn len(&self) -> usize {
        self.insts.len() + 1
    }

    /// Returns `true` if the block has no straight-line instructions.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }
}

/// A function: named, with declared arity and a block list.
///
/// Block 0 is the entry block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Function {
    /// Function name (unique within the program).
    pub name: String,
    /// Number of arguments, delivered in `r0..r{arity-1}`.
    pub arity: usize,
    /// Basic blocks; index 0 is the entry.
    pub blocks: Vec<BasicBlock>,
}

impl Function {
    /// The entry block id.
    pub fn entry(&self) -> BlockId {
        BlockId(0)
    }

    /// Access a block by id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range; ids obtained from the same
    /// program are always valid.
    pub fn block(&self, id: BlockId) -> &BasicBlock {
        &self.blocks[id.0 as usize]
    }

    /// Looks up a block id by label.
    pub fn block_by_label(&self, label: &str) -> Option<BlockId> {
        self.blocks
            .iter()
            .position(|b| b.label == label)
            .map(|i| BlockId(i as u32))
    }

    /// Iterates over `(BlockId, &BasicBlock)` pairs.
    pub fn iter_blocks(&self) -> impl Iterator<Item = (BlockId, &BasicBlock)> {
        self.blocks
            .iter()
            .enumerate()
            .map(|(i, b)| (BlockId(i as u32), b))
    }
}

/// A global variable with a fixed address and byte-level initializer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Global {
    /// Name (unique within the program).
    pub name: String,
    /// Size in bytes.
    pub size: u64,
    /// Assigned virtual address (set by [`Program::assign_addresses`]).
    pub addr: u64,
    /// Initial contents; shorter than `size` means zero-filled tail.
    pub init: Vec<u8>,
}

/// A complete MicroVM program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    /// All functions; indexed by [`FuncId`].
    pub funcs: Vec<Function>,
    /// All globals; indexed by [`GlobalId`], with assigned addresses.
    pub globals: Vec<Global>,
    /// The program entry function (conventionally `main`).
    pub entry: FuncId,
}

impl Program {
    /// Access a function by id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range; ids obtained from the same
    /// program are always valid.
    pub fn func(&self, id: FuncId) -> &Function {
        &self.funcs[id.0 as usize]
    }

    /// Looks up a function id by name.
    pub fn func_by_name(&self, name: &str) -> Option<FuncId> {
        self.funcs
            .iter()
            .position(|f| f.name == name)
            .map(|i| FuncId(i as u32))
    }

    /// Access a global by id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn global(&self, id: GlobalId) -> &Global {
        &self.globals[id.0 as usize]
    }

    /// Looks up a global id by name.
    pub fn global_by_name(&self, name: &str) -> Option<GlobalId> {
        self.globals
            .iter()
            .position(|g| g.name == name)
            .map(|i| GlobalId(i as u32))
    }

    /// Finds the global (if any) whose assigned range contains `addr`.
    pub fn global_at(&self, addr: u64) -> Option<(GlobalId, &Global)> {
        self.globals
            .iter()
            .enumerate()
            .find(|(_, g)| addr >= g.addr && addr < g.addr + g.size)
            .map(|(i, g)| (GlobalId(i as u32), g))
    }

    /// Access the basic block at a code location.
    ///
    /// # Panics
    ///
    /// Panics if the location's function or block id is out of range.
    pub fn block_at(&self, loc: Loc) -> &BasicBlock {
        self.func(loc.func).block(loc.block)
    }

    /// `true` when the program has the code location: its function,
    /// its block, and an instruction index no further than the block's
    /// terminator.
    pub fn has_loc(&self, loc: Loc) -> bool {
        self.funcs
            .get(loc.func.0 as usize)
            .and_then(|func| func.blocks.get(loc.block.0 as usize))
            .is_some_and(|block| loc.inst as usize <= block.insts.len())
    }

    /// Assigns addresses to globals in declaration order, 8-byte aligned,
    /// starting at [`layout::GLOBAL_BASE`].
    ///
    /// Builders call this automatically; it is idempotent.
    pub fn assign_addresses(&mut self) {
        let mut addr = layout::GLOBAL_BASE;
        for g in &mut self.globals {
            g.addr = addr;
            let sz = g.size.max(1);
            addr += (sz + 7) & !7;
        }
    }

    /// Total number of instructions (including terminators) in the
    /// program — a rough size metric used by the experiments.
    pub fn code_size(&self) -> usize {
        self.funcs
            .iter()
            .map(|f| f.blocks.iter().map(|b| b.len()).sum::<usize>())
            .sum()
    }

    /// Iterates over `(FuncId, &Function)` pairs.
    pub fn iter_funcs(&self) -> impl Iterator<Item = (FuncId, &Function)> {
        self.funcs
            .iter()
            .enumerate()
            .map(|(i, f)| (FuncId(i as u32), f))
    }
}

// JSON wire format (see `mvm_json`); ids serialize as bare integers.
json_newtype!(FuncId);
json_newtype!(BlockId);
json_newtype!(GlobalId);
json_struct!(Loc { func, block, inst });
json_struct!(BasicBlock {
    label,
    insts,
    terminator
});
json_struct!(Function {
    name,
    arity,
    blocks
});
json_struct!(Global {
    name,
    size,
    addr,
    init
});
json_struct!(Program {
    funcs,
    globals,
    entry
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::Terminator;

    fn tiny() -> Program {
        let mut p = Program {
            funcs: vec![Function {
                name: "main".into(),
                arity: 0,
                blocks: vec![BasicBlock {
                    label: "entry".into(),
                    insts: vec![],
                    terminator: Terminator::Halt,
                }],
            }],
            globals: vec![
                Global {
                    name: "a".into(),
                    size: 12,
                    addr: 0,
                    init: vec![1, 2, 3],
                },
                Global {
                    name: "b".into(),
                    size: 8,
                    addr: 0,
                    init: vec![],
                },
            ],
            entry: FuncId(0),
        };
        p.assign_addresses();
        p
    }

    #[test]
    fn address_assignment_is_aligned_and_disjoint() {
        let p = tiny();
        let a = p.global(GlobalId(0));
        let b = p.global(GlobalId(1));
        assert_eq!(a.addr, layout::GLOBAL_BASE);
        assert_eq!(a.addr % 8, 0);
        // 12 rounds up to 16.
        assert_eq!(b.addr, layout::GLOBAL_BASE + 16);
    }

    #[test]
    fn global_at_finds_containing_global() {
        let p = tiny();
        let (gid, g) = p.global_at(layout::GLOBAL_BASE + 5).unwrap();
        assert_eq!(gid, GlobalId(0));
        assert_eq!(g.name, "a");
        assert!(p.global_at(layout::GLOBAL_BASE + 13).is_none());
        assert!(p.global_at(0).is_none());
    }

    #[test]
    fn lookups_by_name() {
        let p = tiny();
        assert_eq!(p.func_by_name("main"), Some(FuncId(0)));
        assert_eq!(p.func_by_name("nope"), None);
        assert_eq!(p.global_by_name("b"), Some(GlobalId(1)));
    }

    #[test]
    fn code_size_counts_terminators() {
        let p = tiny();
        assert_eq!(p.code_size(), 1);
    }

    #[test]
    fn loc_display_and_order() {
        let l1 = Loc {
            func: FuncId(0),
            block: BlockId(1),
            inst: 2,
        };
        assert_eq!(l1.to_string(), "f0:b1:i2");
        let l0 = Loc::block_start(FuncId(0), BlockId(1));
        assert!(l0 < l1);
    }
}
