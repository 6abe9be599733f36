//! Symbolic snapshots (paper §2.3).
//!
//! A [`Snapshot`] is "an image of P's memory state in which some
//! locations do not have concrete values, but rather have stand-ins for
//! any possible value". Concretely: the coredump's memory is the
//! immutable concrete backing (shared behind an [`Rc`]), and a sparse
//! overlay of *cells* holds the symbolic expressions introduced by
//! havocking and by symbolic execution of candidate blocks. Register
//! files are symbolic per frame, per thread.
//!
//! Memory cells are keyed by `(address, width)` of the program's own
//! accesses. Mixed-width aliasing of the *same* bytes by concrete and
//! symbolic cells is resolved when all overlapping cells are concrete;
//! overlap involving a symbolic cell is reported to the caller, which
//! treats the hypothesis conservatively (see `DESIGN.md` §4).

use std::collections::BTreeMap;
use std::rc::Rc;

use mvm_core::Coredump;
use mvm_isa::{BlockId, FuncId, Loc, Reg, Width};
use mvm_machine::{Memory, ThreadId};
use mvm_symbolic::{Expr, ExprRef};

/// One symbolic memory cell.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Access width the cell was written with.
    pub width: Width,
    /// Value expression.
    pub expr: ExprRef,
}

/// A register file snapshot for one frame.
#[derive(Debug, Clone)]
pub struct FrameSnap {
    /// Function of the frame.
    pub func: FuncId,
    /// Block recorded in the dump (for parked callers this is the call's
    /// continuation block).
    pub block: BlockId,
    /// Instruction index recorded in the dump.
    pub inst: u32,
    /// Register expressions.
    pub regs: Vec<ExprRef>,
    /// Caller register receiving the return value, if any.
    pub ret_reg: Option<Reg>,
}

impl FrameSnap {
    /// The frame's code location.
    pub fn loc(&self) -> Loc {
        Loc {
            func: self.func,
            block: self.block,
            inst: self.inst,
        }
    }
}

/// Per-thread snapshot: the dump's frame stack with symbolic registers.
#[derive(Debug, Clone)]
pub struct ThreadSnap {
    /// Thread id.
    pub tid: ThreadId,
    /// Frames, outermost first (as in the dump).
    pub frames: Vec<FrameSnap>,
}

/// The result of a symbolic memory read.
#[derive(Debug, Clone)]
pub enum MemRead {
    /// A well-defined expression.
    Value(ExprRef),
    /// The read overlaps a symbolic cell with a different extent; the
    /// caller must treat the value as unknown.
    MixedSymbolic,
}

/// A symbolic program-state snapshot over a coredump backing.
///
/// A clone shares every thread's frames with the original; writing a
/// thread's registers or popping its frame copies that thread alone.
#[derive(Debug, Clone)]
pub struct Snapshot {
    base: Rc<Memory>,
    cells: BTreeMap<u64, Cell>,
    threads: BTreeMap<ThreadId, Rc<ThreadSnap>>,
    /// When set, base memory is *unknown* rather than concrete — the
    /// A2 "minidump mode" (stack and registers only, no memory image).
    opaque_base: bool,
}

impl Snapshot {
    /// Builds the fully concrete base-case snapshot from a coredump
    /// (`Spost` is "initialized with a copy of the coredump C", §2.4).
    pub fn from_coredump(dump: &Coredump) -> Self {
        let mut threads = BTreeMap::new();
        for t in &dump.threads {
            threads.insert(
                t.tid,
                Rc::new(ThreadSnap {
                    tid: t.tid,
                    frames: t
                        .frames
                        .iter()
                        .map(|f| FrameSnap {
                            func: f.func,
                            block: f.block,
                            inst: f.inst,
                            regs: f.regs.iter().map(|&v| Expr::konst(v)).collect(),
                            ret_reg: f.ret_reg,
                        })
                        .collect(),
                }),
            );
        }
        Snapshot {
            base: Rc::new(dump.memory.clone()),
            cells: BTreeMap::new(),
            threads,
            opaque_base: false,
        }
    }

    /// Switches the snapshot to minidump mode: reads not covered by an
    /// overlay cell return unknown instead of the dump's bytes
    /// (experiment A2 — what forward execution synthesis had to work
    /// with).
    pub fn set_opaque_base(&mut self, opaque: bool) {
        self.opaque_base = opaque;
    }

    /// The concrete backing memory.
    pub fn base(&self) -> &Memory {
        &self.base
    }

    /// The symbolic overlay cells, in address order.
    pub fn cells(&self) -> impl Iterator<Item = (u64, &Cell)> {
        self.cells.iter().map(|(&a, c)| (a, c))
    }

    /// Number of overlay cells.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// All thread snapshots.
    pub fn threads(&self) -> impl Iterator<Item = &ThreadSnap> {
        self.threads.values().map(|t| &**t)
    }

    /// One thread's snapshot.
    pub fn thread(&self, tid: ThreadId) -> Option<&ThreadSnap> {
        self.threads.get(&tid).map(|t| &**t)
    }

    /// Mutable thread access; copies the thread first while a clone of
    /// this snapshot shares it.
    pub fn thread_mut(&mut self, tid: ThreadId) -> Option<&mut ThreadSnap> {
        self.threads.get_mut(&tid).map(Rc::make_mut)
    }

    /// Reads register `r` of the frame at `depth` of thread `tid`.
    ///
    /// # Panics
    ///
    /// Panics if the thread or frame does not exist; search positions
    /// are derived from the same snapshot and are always valid.
    pub fn reg(&self, tid: ThreadId, depth: usize, r: Reg) -> ExprRef {
        self.threads[&tid].frames[depth].regs[r.index()].clone()
    }

    /// Writes register `r` of the frame at `depth` of thread `tid`.
    ///
    /// # Panics
    ///
    /// Panics if the thread or frame does not exist.
    pub fn set_reg(&mut self, tid: ThreadId, depth: usize, r: Reg, e: ExprRef) {
        self.thread_mut(tid).unwrap().frames[depth].regs[r.index()] = e;
    }

    /// Overlay cells overlapping `[addr, addr+width)`.
    fn overlapping(&self, addr: u64, width: Width) -> Vec<(u64, Cell)> {
        let lo = addr.saturating_sub(7);
        let hi = addr + width.bytes() - 1;
        self.cells
            .range(lo..=hi)
            .filter(|(&a, c)| {
                let a_end = a + c.width.bytes() - 1;
                a <= hi && a_end >= addr
            })
            .map(|(&a, c)| (a, c.clone()))
            .collect()
    }

    /// Reads memory symbolically.
    pub fn read_mem(&self, addr: u64, width: Width) -> MemRead {
        if let Some(c) = self.cells.get(&addr) {
            if c.width == width {
                return MemRead::Value(c.expr.clone());
            }
        }
        let overlap = self.overlapping(addr, width);
        if overlap.is_empty() {
            if self.opaque_base {
                return MemRead::MixedSymbolic;
            }
            return MemRead::Value(Expr::konst(self.base.read(addr, width)));
        }
        if self.opaque_base {
            return MemRead::MixedSymbolic;
        }
        // All overlapping cells concrete: materialize bytes over the
        // backing and read through.
        if overlap.iter().all(|(_, c)| c.expr.as_const().is_some()) {
            let mut bytes = [0u8; 8];
            let n = width.bytes() as usize;
            for (i, b) in bytes.iter_mut().enumerate().take(n) {
                *b = self.base.read_byte(addr + i as u64).unwrap_or(0);
            }
            for (a, c) in &overlap {
                let v = c.expr.as_const().unwrap();
                for i in 0..c.width.bytes() {
                    let byte_addr = a + i;
                    if byte_addr >= addr && byte_addr < addr + width.bytes() {
                        bytes[(byte_addr - addr) as usize] = (v >> (8 * i)) as u8;
                    }
                }
            }
            let mut out = 0u64;
            for (i, b) in bytes.iter().enumerate().take(n) {
                out |= (*b as u64) << (8 * i);
            }
            return MemRead::Value(Expr::konst(out));
        }
        MemRead::MixedSymbolic
    }

    /// Writes a memory cell, evicting any overlapping cells (their bytes
    /// are superseded; partial survivors would need byte surgery, which
    /// the engine avoids by treating mixed overlap conservatively on
    /// read).
    pub fn write_mem(&mut self, addr: u64, width: Width, expr: ExprRef) {
        let stale: Vec<u64> = self
            .overlapping(addr, width)
            .into_iter()
            .map(|(a, _)| a)
            .collect();
        for a in stale {
            self.cells.remove(&a);
        }
        self.cells.insert(addr, Cell { width, expr });
    }

    /// Drops the innermost frame of a thread (backward step past a
    /// function entry: reversal continues in the caller).
    ///
    /// # Panics
    ///
    /// Panics if the thread does not exist or has no frames.
    pub fn pop_frame(&mut self, tid: ThreadId) -> FrameSnap {
        self.thread_mut(tid)
            .unwrap()
            .frames
            .pop()
            .expect("pop on frameless thread")
    }

    /// Symbols appearing anywhere in the snapshot (registers of live
    /// frames and overlay cells).
    pub fn live_symbols(&self) -> std::collections::BTreeSet<mvm_symbolic::SymId> {
        let mut out = std::collections::BTreeSet::new();
        for t in self.threads.values() {
            for f in &t.frames {
                for r in &f.regs {
                    out.extend(r.symbols());
                }
            }
        }
        for c in self.cells.values() {
            out.extend(c.expr.symbols());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvm_isa::asm::assemble;
    use mvm_machine::{Machine, MachineConfig};

    fn dump() -> Coredump {
        let p = assemble(
            "global g 16 = 77\nfunc main() {\nentry:\n  addr r0, g\n  load r1, [r0]\n  assert 0, \"x\"\n  halt\n}",
        )
        .unwrap();
        let mut m = Machine::new(&p, MachineConfig::default());
        m.run();
        Coredump::capture(&m)
    }

    #[test]
    fn base_case_is_fully_concrete() {
        let d = dump();
        let s = Snapshot::from_coredump(&d);
        assert_eq!(s.cell_count(), 0);
        let g = mvm_isa::layout::GLOBAL_BASE;
        let MemRead::Value(v) = s.read_mem(g, Width::W8) else {
            panic!("mixed")
        };
        assert_eq!(v.as_const(), Some(77));
        // Registers reflect the dump.
        let r1 = s.reg(0, 0, Reg(1));
        assert_eq!(r1.as_const(), Some(77));
        assert!(s.live_symbols().is_empty());
    }

    #[test]
    fn overlay_shadows_base() {
        let d = dump();
        let mut s = Snapshot::from_coredump(&d);
        let g = mvm_isa::layout::GLOBAL_BASE;
        s.write_mem(g, Width::W8, Expr::sym(0));
        let MemRead::Value(v) = s.read_mem(g, Width::W8) else {
            panic!("mixed")
        };
        assert_eq!(v.as_sym(), Some(0));
        assert_eq!(s.live_symbols().len(), 1);
    }

    #[test]
    fn exact_width_required_for_symbolic_cells() {
        let d = dump();
        let mut s = Snapshot::from_coredump(&d);
        let g = mvm_isa::layout::GLOBAL_BASE;
        s.write_mem(g, Width::W8, Expr::sym(0));
        assert!(matches!(s.read_mem(g, Width::W4), MemRead::MixedSymbolic));
        assert!(matches!(
            s.read_mem(g + 4, Width::W8),
            MemRead::MixedSymbolic
        ));
    }

    #[test]
    fn concrete_overlap_materializes() {
        let d = dump();
        let mut s = Snapshot::from_coredump(&d);
        let g = mvm_isa::layout::GLOBAL_BASE;
        // Overwrite one byte concretely; a W8 read must merge it with
        // the base.
        s.write_mem(g, Width::W1, Expr::konst(0xaa));
        let MemRead::Value(v) = s.read_mem(g, Width::W8) else {
            panic!("mixed")
        };
        assert_eq!(v.as_const(), Some((77 & !0xff) | 0xaa));
    }

    #[test]
    fn write_evicts_overlapping_cells() {
        let d = dump();
        let mut s = Snapshot::from_coredump(&d);
        let g = mvm_isa::layout::GLOBAL_BASE;
        s.write_mem(g, Width::W1, Expr::sym(0));
        s.write_mem(g, Width::W8, Expr::konst(5));
        let MemRead::Value(v) = s.read_mem(g, Width::W8) else {
            panic!("mixed")
        };
        assert_eq!(v.as_const(), Some(5));
        assert_eq!(s.cell_count(), 1);
    }

    #[test]
    fn unrelated_cells_do_not_interfere() {
        let d = dump();
        let mut s = Snapshot::from_coredump(&d);
        let g = mvm_isa::layout::GLOBAL_BASE;
        s.write_mem(g, Width::W8, Expr::sym(0));
        s.write_mem(g + 8, Width::W8, Expr::sym(1));
        assert!(matches!(s.read_mem(g, Width::W8), MemRead::Value(_)));
        assert!(matches!(s.read_mem(g + 8, Width::W8), MemRead::Value(_)));
        assert_eq!(s.cell_count(), 2);
    }

    #[test]
    fn register_updates_are_per_frame() {
        let d = dump();
        let mut s = Snapshot::from_coredump(&d);
        s.set_reg(0, 0, Reg(5), Expr::sym(9));
        assert_eq!(s.reg(0, 0, Reg(5)).as_sym(), Some(9));
        assert!(s.reg(0, 0, Reg(6)).as_const().is_some());
    }

    #[test]
    fn a_child_register_write_leaves_parent_and_sibling() {
        let d = dump();
        let parent = Snapshot::from_coredump(&d);
        let before = parent.reg(0, 0, Reg(5));
        let (mut child, sibling) = (parent.clone(), parent.clone());
        child.set_reg(0, 0, Reg(5), Expr::sym(9));
        child.thread_mut(0).unwrap().frames[0].regs[6] = Expr::sym(10);
        assert_eq!(child.reg(0, 0, Reg(5)).as_sym(), Some(9));
        assert_eq!(child.reg(0, 0, Reg(6)).as_sym(), Some(10));
        for other in [&parent, &sibling] {
            assert_eq!(other.reg(0, 0, Reg(5)), before);
            assert!(other.reg(0, 0, Reg(6)).as_const().is_some());
        }
        // The untouched sibling still shares the parent's thread.
        assert!(Rc::ptr_eq(&parent.threads[&0], &sibling.threads[&0]));
        assert!(!Rc::ptr_eq(&parent.threads[&0], &child.threads[&0]));
    }
}
