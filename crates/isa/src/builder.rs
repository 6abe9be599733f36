//! Fluent builders for constructing MicroVM programs in Rust code.
//!
//! The synthetic workloads (`res-workloads`) generate programs
//! programmatically; these builders keep that code readable and ensure
//! the result is validated and address-assigned.

use std::collections::HashMap;

use crate::inst::{BinOp, Channel, InputKind, Inst, Operand, Reg, Terminator, UnOp, Width};
use crate::program::{BasicBlock, BlockId, FuncId, Function, Global, GlobalId, Program};
use crate::validate::{validate, ValidateError};

/// Builds a [`Program`] function by function.
///
/// # Examples
///
/// ```
/// use mvm_isa::{ProgramBuilder, Reg, Operand, Terminator};
///
/// let mut pb = ProgramBuilder::new();
/// let g = pb.global_zeroed("counter", 8);
/// let main = pb.declare_func("main", 0);
/// {
///     let f = pb.func_mut(main);
///     let entry = f.block("entry");
///     f.select(entry);
///     f.addr_of(Reg(0), g);
///     f.store(Operand::Imm(41), Reg(0), 0);
///     f.terminate(Terminator::Halt);
/// }
/// let program = pb.finish().unwrap();
/// assert_eq!(program.global(g).name, "counter");
/// ```
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    funcs: Vec<FunctionBuilder>,
    func_ids: HashMap<String, FuncId>,
    globals: Vec<Global>,
    global_ids: HashMap<String, GlobalId>,
    entry: Option<FuncId>,
}

impl ProgramBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares a zero-initialized global of `size` bytes.
    ///
    /// # Panics
    ///
    /// Panics if a global with this name already exists.
    pub fn global_zeroed(&mut self, name: &str, size: u64) -> GlobalId {
        self.global_init(name, size, Vec::new())
    }

    /// Declares a global with explicit initial bytes (zero-extended to
    /// `size`).
    ///
    /// # Panics
    ///
    /// Panics if a global with this name already exists or if the
    /// initializer is longer than `size`.
    pub fn global_init(&mut self, name: &str, size: u64, init: Vec<u8>) -> GlobalId {
        assert!(
            init.len() as u64 <= size,
            "initializer longer than global size"
        );
        assert!(
            !self.global_ids.contains_key(name),
            "duplicate global {name:?}"
        );
        let id = GlobalId(self.globals.len() as u32);
        self.globals.push(Global {
            name: name.to_string(),
            size,
            addr: 0,
            init,
        });
        self.global_ids.insert(name.to_string(), id);
        id
    }

    /// Declares a global holding one 64-bit word with the given value.
    pub fn global_word(&mut self, name: &str, value: u64) -> GlobalId {
        self.global_init(name, 8, value.to_le_bytes().to_vec())
    }

    /// Declares a function and returns its id; the body is filled in via
    /// [`ProgramBuilder::func_mut`].
    ///
    /// # Panics
    ///
    /// Panics if a function with this name already exists.
    pub fn declare_func(&mut self, name: &str, arity: usize) -> FuncId {
        assert!(
            !self.func_ids.contains_key(name),
            "duplicate function {name:?}"
        );
        let id = FuncId(self.funcs.len() as u32);
        self.funcs.push(FunctionBuilder::new(name, arity));
        self.func_ids.insert(name.to_string(), id);
        if name == "main" {
            self.entry = Some(id);
        }
        id
    }

    /// Mutable access to a declared function's builder.
    ///
    /// # Panics
    ///
    /// Panics if the id was not returned by this builder.
    pub fn func_mut(&mut self, id: FuncId) -> &mut FunctionBuilder {
        &mut self.funcs[id.0 as usize]
    }

    /// Finalizes the program: assigns global addresses and validates.
    ///
    /// # Errors
    ///
    /// Returns a [`ValidateError`] if the program is malformed (dangling
    /// block references, missing terminators, bad arity, no entry...).
    pub fn finish(self) -> Result<Program, ValidateError> {
        let entry = self.entry.ok_or(ValidateError::NoEntry)?;
        let mut program = Program {
            funcs: self
                .funcs
                .into_iter()
                .map(FunctionBuilder::into_function)
                .collect(),
            globals: self.globals,
            entry,
        };
        program.assign_addresses();
        validate(&program)?;
        Ok(program)
    }
}

/// Builds one [`Function`], block by block.
///
/// Blocks are created with [`FunctionBuilder::block`] and instructions
/// are appended to the *selected* block (see [`FunctionBuilder::select`]).
/// Every block must eventually be sealed with
/// [`FunctionBuilder::terminate`].
#[derive(Debug)]
pub struct FunctionBuilder {
    name: String,
    arity: usize,
    blocks: Vec<(String, Vec<Inst>, Option<Terminator>)>,
    labels: HashMap<String, BlockId>,
    current: Option<BlockId>,
}

impl FunctionBuilder {
    fn new(name: &str, arity: usize) -> Self {
        FunctionBuilder {
            name: name.to_string(),
            arity,
            blocks: Vec::new(),
            labels: HashMap::new(),
            current: None,
        }
    }

    /// Creates (or returns the id of) a block with the given label.
    ///
    /// The first block created is the entry block.
    pub fn block(&mut self, label: &str) -> BlockId {
        if let Some(&id) = self.labels.get(label) {
            return id;
        }
        let id = BlockId(self.blocks.len() as u32);
        self.blocks.push((label.to_string(), Vec::new(), None));
        self.labels.insert(label.to_string(), id);
        id
    }

    /// Selects the block that subsequent instructions are appended to.
    pub fn select(&mut self, id: BlockId) {
        self.current = Some(id);
    }

    /// Appends a raw instruction to the selected block.
    ///
    /// # Panics
    ///
    /// Panics if no block is selected or the selected block is already
    /// terminated.
    pub fn push(&mut self, inst: Inst) {
        let cur = self.current.expect("no block selected");
        let (_, insts, term) = &mut self.blocks[cur.0 as usize];
        assert!(term.is_none(), "appending to terminated block");
        insts.push(inst);
    }

    /// Seals the selected block with a terminator.
    ///
    /// # Panics
    ///
    /// Panics if no block is selected or it is already terminated.
    pub fn terminate(&mut self, t: Terminator) {
        let cur = self.current.expect("no block selected");
        let (_, _, term) = &mut self.blocks[cur.0 as usize];
        assert!(term.is_none(), "block terminated twice");
        *term = Some(t);
    }

    // Convenience wrappers. Each appends to the selected block.

    /// `dst = src`.
    pub fn mov(&mut self, dst: Reg, src: impl Into<Operand>) {
        self.push(Inst::Mov {
            dst,
            src: src.into(),
        });
    }

    /// `dst = op(lhs, rhs)`.
    pub fn bin(&mut self, op: BinOp, dst: Reg, lhs: impl Into<Operand>, rhs: impl Into<Operand>) {
        self.push(Inst::Bin {
            op,
            dst,
            lhs: lhs.into(),
            rhs: rhs.into(),
        });
    }

    /// `dst = lhs + rhs`.
    pub fn add(&mut self, dst: Reg, lhs: impl Into<Operand>, rhs: impl Into<Operand>) {
        self.bin(BinOp::Add, dst, lhs, rhs);
    }

    /// `dst = lhs - rhs`.
    pub fn sub(&mut self, dst: Reg, lhs: impl Into<Operand>, rhs: impl Into<Operand>) {
        self.bin(BinOp::Sub, dst, lhs, rhs);
    }

    /// `dst = lhs * rhs`.
    pub fn mul(&mut self, dst: Reg, lhs: impl Into<Operand>, rhs: impl Into<Operand>) {
        self.bin(BinOp::Mul, dst, lhs, rhs);
    }

    /// `dst = op(src)`.
    pub fn un(&mut self, op: UnOp, dst: Reg, src: impl Into<Operand>) {
        self.push(Inst::Un {
            op,
            dst,
            src: src.into(),
        });
    }

    /// Word-sized load: `dst = mem[addr + offset]`.
    pub fn load(&mut self, dst: Reg, addr: Reg, offset: i64) {
        self.load_w(dst, addr, offset, Width::W8);
    }

    /// Load with explicit width.
    pub fn load_w(&mut self, dst: Reg, addr: Reg, offset: i64, width: Width) {
        self.push(Inst::Load {
            dst,
            addr: Operand::Reg(addr),
            offset,
            width,
        });
    }

    /// Word-sized store: `mem[addr + offset] = src`.
    pub fn store(&mut self, src: impl Into<Operand>, addr: Reg, offset: i64) {
        self.store_w(src, addr, offset, Width::W8);
    }

    /// Store with explicit width.
    pub fn store_w(&mut self, src: impl Into<Operand>, addr: Reg, offset: i64, width: Width) {
        self.push(Inst::Store {
            src: src.into(),
            addr: Operand::Reg(addr),
            offset,
            width,
        });
    }

    /// `dst = &global`.
    pub fn addr_of(&mut self, dst: Reg, global: GlobalId) {
        self.push(Inst::AddrOf { dst, global });
    }

    /// `dst = external input` of `kind`.
    pub fn input(&mut self, dst: Reg, kind: InputKind) {
        self.push(Inst::Input { dst, kind });
    }

    /// Emit `src` on `channel`.
    pub fn output(&mut self, src: impl Into<Operand>, channel: Channel) {
        self.push(Inst::Output {
            src: src.into(),
            channel,
        });
    }

    /// `dst = alloc(size)`.
    pub fn alloc(&mut self, dst: Reg, size: impl Into<Operand>) {
        self.push(Inst::Alloc {
            dst,
            size: size.into(),
        });
    }

    /// `free(addr)`.
    pub fn free(&mut self, addr: Reg) {
        self.push(Inst::Free {
            addr: Operand::Reg(addr),
        });
    }

    /// Acquire the mutex at `addr`.
    pub fn lock(&mut self, addr: Reg) {
        self.push(Inst::Lock {
            addr: Operand::Reg(addr),
        });
    }

    /// Release the mutex at `addr`.
    pub fn unlock(&mut self, addr: Reg) {
        self.push(Inst::Unlock {
            addr: Operand::Reg(addr),
        });
    }

    /// `dst = spawn(func, arg)`.
    pub fn spawn(&mut self, dst: Reg, func: FuncId, arg: impl Into<Operand>) {
        self.push(Inst::Spawn {
            dst,
            func,
            arg: arg.into(),
        });
    }

    /// Join the thread named by `tid`.
    pub fn join(&mut self, tid: Reg) {
        self.push(Inst::Join {
            tid: Operand::Reg(tid),
        });
    }

    /// Assert `cond != 0` with a diagnostic message.
    pub fn assert(&mut self, cond: impl Into<Operand>, msg: &str) {
        self.push(Inst::Assert {
            cond: cond.into(),
            msg: msg.to_string(),
        });
    }

    /// Seal with an unconditional jump.
    pub fn jump(&mut self, target: BlockId) {
        self.terminate(Terminator::Jump(target));
    }

    /// Seal with a conditional branch on `cond != 0`.
    pub fn branch(&mut self, cond: impl Into<Operand>, then_b: BlockId, else_b: BlockId) {
        self.terminate(Terminator::Branch {
            cond: cond.into(),
            then_b,
            else_b,
        });
    }

    /// Seal with a call; execution resumes at `cont`.
    pub fn call(&mut self, func: FuncId, args: Vec<Operand>, ret: Option<Reg>, cont: BlockId) {
        self.terminate(Terminator::Call {
            func,
            args,
            ret,
            cont,
        });
    }

    /// Seal with a return.
    pub fn ret(&mut self, val: Option<Operand>) {
        self.terminate(Terminator::Return(val));
    }

    /// Seal with a halt.
    pub fn halt(&mut self) {
        self.terminate(Terminator::Halt);
    }

    fn into_function(self) -> Function {
        Function {
            name: self.name,
            arity: self.arity,
            blocks: self
                .blocks
                .into_iter()
                .map(|(label, insts, term)| BasicBlock {
                    label,
                    insts,
                    // Unterminated blocks are caught by `validate`; encode
                    // them as `Halt` so conversion is total.
                    terminator: term.unwrap_or(Terminator::Halt),
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_two_block_function() {
        let mut pb = ProgramBuilder::new();
        let main = pb.declare_func("main", 0);
        let f = pb.func_mut(main);
        let entry = f.block("entry");
        let exit = f.block("exit");
        f.select(entry);
        f.mov(Reg(0), 1u64);
        f.branch(Reg(0), exit, exit);
        f.select(exit);
        f.halt();
        let p = pb.finish().unwrap();
        assert_eq!(p.func(main).blocks.len(), 2);
        assert_eq!(p.entry, main);
    }

    #[test]
    fn entry_defaults_to_main() {
        let mut pb = ProgramBuilder::new();
        let aux = pb.declare_func("aux", 0);
        pb.func_mut(aux).block("entry");
        pb.func_mut(aux).select(BlockId(0));
        pb.func_mut(aux).halt();
        let main = pb.declare_func("main", 0);
        pb.func_mut(main).block("entry");
        pb.func_mut(main).select(BlockId(0));
        pb.func_mut(main).halt();
        let p = pb.finish().unwrap();
        assert_eq!(p.entry, main);
    }

    #[test]
    fn missing_entry_is_error() {
        let mut pb = ProgramBuilder::new();
        let aux = pb.declare_func("aux", 0);
        pb.func_mut(aux).block("entry");
        pb.func_mut(aux).select(BlockId(0));
        pb.func_mut(aux).halt();
        assert!(matches!(pb.finish(), Err(ValidateError::NoEntry)));
    }

    #[test]
    #[should_panic(expected = "duplicate function")]
    fn duplicate_function_panics() {
        let mut pb = ProgramBuilder::new();
        pb.declare_func("f", 0);
        pb.declare_func("f", 0);
    }

    #[test]
    #[should_panic(expected = "terminated block")]
    fn push_after_terminate_panics() {
        let mut pb = ProgramBuilder::new();
        let main = pb.declare_func("main", 0);
        let f = pb.func_mut(main);
        let b = f.block("entry");
        f.select(b);
        f.halt();
        f.mov(Reg(0), 0u64);
    }

    #[test]
    fn globals_get_distinct_addresses() {
        let mut pb = ProgramBuilder::new();
        let a = pb.global_word("a", 1);
        let b = pb.global_zeroed("b", 64);
        let main = pb.declare_func("main", 0);
        let f = pb.func_mut(main);
        let e = f.block("entry");
        f.select(e);
        f.halt();
        let p = pb.finish().unwrap();
        assert_ne!(p.global(a).addr, p.global(b).addr);
        assert_eq!(p.global(a).init, 1u64.to_le_bytes().to_vec());
    }
}
