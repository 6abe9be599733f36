//! Forward symbolic execution of one backward-step hypothesis.
//!
//! A *hypothesis* says: "thread `tid` executed the range starting at
//! block `start` and ending exactly at the current backward position".
//! To test it (paper §2.4), the executor:
//!
//! 1. treats every register and memory cell the range overwrites as an
//!    unconstrained symbol in `Spre` (discovered dynamically, with
//!    restarts, because store addresses are data-dependent),
//! 2. executes the range *forward* symbolically — reads of locations the
//!    range never writes take their values straight from `Spost`, reads
//!    of locations it overwrites later take fresh symbols (the two read
//!    cases of §2.4 fall out of the restart discipline),
//! 3. emits one equality constraint per overwritten location:
//!    `value-computed-by-range == value-in-Spost` — the `S' ⊇ Spost`
//!    compatibility check, plus path constraints for every conditional
//!    branch, lock acquisition, and allocator interaction inside the
//!    range.
//!
//! Completed calls inside the range are executed in full (bounded) —
//! the paper's §6 "re-execute the function instead of reverse-analyzing
//! it" strategy; this is also how hard-to-invert constructs such as hash
//! chains are traversed.

use std::collections::BTreeMap;

use mvm_isa::{
    BinOp,
    Channel,
    Inst,
    Loc,
    Operand,
    Program,
    Reg,
    Terminator,
    Width, //
};
use mvm_machine::{AllocMeta, AllocState, ThreadId};
use mvm_symbolic::{Expr, ExprRef, Model, SolveResult, SolverSession, SymId};

use crate::kernel::CutReason;
use crate::snapshot::{MemRead, Snapshot};
use crate::symctx::{SymCtx, SymOrigin};

/// Why a hypothesis was rejected without consulting the solver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Infeasible {
    /// Control flow cannot reach the required end point.
    Structural(&'static str),
    /// The constraint set was proven unsatisfiable during execution
    /// (e.g. an address concretization failed).
    Unsat,
    /// Mixed-width aliasing the cell model cannot express.
    MixedAliasing,
    /// Per-hypothesis budget exceeded (inconclusive, *not* a proof of
    /// infeasibility); carries the kernel's cut reason.
    Budget(CutReason),
    /// The range contains a `spawn`, which the block-granular engine
    /// treats as a backward barrier.
    SpawnBarrier,
    /// Allocator interaction inconsistent with the dump's heap table.
    HeapMismatch,
}

/// Why a constraint exists — the hardware-error analysis (§3.2)
/// relaxes compatibility constraints one location at a time to localize
/// a dump/execution inconsistency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tag {
    /// A path condition (branch direction, lock state, assert, ...).
    Path,
    /// `S'[cell] == Spost[cell]` for a memory cell the range wrote.
    MemCompat {
        /// Cell address.
        addr: u64,
        /// Cell width.
        width: Width,
    },
    /// `S'[reg] == Spost[reg]` for a register the range wrote.
    RegCompat {
        /// The register.
        reg: Reg,
    },
    /// Call-argument binding at a backward step past a function entry.
    CallBind {
        /// The callee entry register bound.
        reg: Reg,
    },
    /// An address-concretization pin.
    Pin,
}

/// A constraint with its provenance.
#[derive(Debug, Clone)]
pub struct Tagged {
    /// The constraint expression (truthy).
    pub expr: ExprRef,
    /// Why it exists.
    pub tag: Tag,
}

/// One control transfer taken inside a hypothesis (LBR matching).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transfer {
    /// Source location (the terminator).
    pub from: Loc,
    /// Destination location.
    pub to: Loc,
    /// `true` when the transfer is re-derivable offline from the CFG
    /// (unconditional jump, call, return).
    pub inferrable: bool,
}

/// Where a hypothesis range must end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EndPoint {
    /// 0 — ends in the same frame; +1 — ends by calling into a deeper
    /// frame (the `Spost` position is the callee's entry).
    pub depth_delta: i32,
    /// The `Spost` code location.
    pub loc: Loc,
}

/// A hypothesis to test.
#[derive(Debug, Clone)]
pub struct HypSpec<'a> {
    /// The program.
    pub program: &'a Program,
    /// Executing thread.
    pub tid: ThreadId,
    /// Frame index (into the snapshot's frame stack) the range executes
    /// in.
    pub frame_depth: usize,
    /// Range start (block entry, or mid-block for the initial partial
    /// range).
    pub start: Loc,
    /// Required end.
    pub end: EndPoint,
    /// Register state of the executed frame at `Spost` (the values the
    /// range must reproduce).
    pub spost_regs: &'a [ExprRef],
    /// For `depth_delta == +1`: the callee frame's entry register state
    /// in the snapshot, to be matched against the call's arguments.
    pub callee_entry_regs: Option<&'a [ExprRef]>,
    /// For `depth_delta == +1`: the callee frame's `ret_reg` and parked
    /// caller block, for structural call-site matching.
    pub callee_ret_reg: Option<Reg>,
    /// Dump heap table (address order = allocation order for the bump
    /// allocator).
    pub dump_allocs: &'a [AllocMeta],
    /// Number of allocations already attributed to later suffix steps.
    pub later_allocs: usize,
    /// Constraints accumulated by the search so far (context for
    /// concretization).
    pub base_constraints: &'a [ExprRef],
    /// Per-hypothesis instruction budget.
    pub max_steps: u64,
    /// Ablation A1: skip the `S' ⊇ Spost` compatibility constraints
    /// entirely (accept any predecessor the CFG allows).
    pub skip_compat: bool,
}

/// The result of a feasible (pre-solver) hypothesis execution.
#[derive(Debug, Clone)]
pub struct HypOutcome {
    /// Register state of the executed frame at range start (`Spre`).
    pub spre_regs: Vec<ExprRef>,
    /// Memory cells of `Spre`: one havoc symbol per cell the range
    /// overwrote.
    pub spre_cells: Vec<(u64, Width, ExprRef)>,
    /// Constraints added by this hypothesis (compatibility equalities +
    /// path constraints), tagged with provenance.
    pub constraints: Vec<Tagged>,
    /// Control transfers taken, in forward order.
    pub transfers: Vec<Transfer>,
    /// Error-log emissions `(site, value)`, forward order.
    pub logs: Vec<(Loc, ExprRef)>,
    /// Input symbols consumed, forward order.
    pub inputs: Vec<SymId>,
    /// Number of allocations performed by the range.
    pub allocs: usize,
    /// Payload bases freed by the range, forward order.
    pub frees: Vec<u64>,
    /// Concrete addresses read (read set, §3.3).
    pub reads: Vec<(u64, Width)>,
    /// Concrete addresses written (write set, §3.3).
    pub writes: Vec<(u64, Width)>,
    /// Instructions executed.
    pub steps: u64,
    /// `true` if a solver Unknown or an unsound shortcut was taken; the
    /// search keeps the hypothesis but flags the suffix.
    pub unknown_used: bool,
}

struct LocalFrame {
    func: mvm_isa::FuncId,
    block: mvm_isa::BlockId,
    inst: u32,
    regs: Vec<ExprRef>,
    ret_reg: Option<Reg>,
}

struct Attempt<'a, 'b> {
    spec: &'b HypSpec<'a>,
    snap: &'b Snapshot,
    ctx: &'b mut SymCtx,
    solver: &'b SolverSession,
    depth: usize,
    // Top-frame register discipline. The havoc sets are the restart
    // loop's, which only it grows.
    regs: Vec<ExprRef>,
    reg_written: [bool; Reg::COUNT],
    reg_read_pre: [bool; Reg::COUNT],
    reg_havoc: &'b [Option<ExprRef>],
    // Memory journal.
    mem_written: BTreeMap<u64, (Width, ExprRef)>,
    mem_read_pre: BTreeMap<u64, Width>,
    mem_havoc: &'b BTreeMap<u64, (Width, ExprRef)>,
    // Allocator replay.
    assumed_allocs: usize,
    local_allocs: usize,
    frees: Vec<u64>,
    // Products.
    constraints: Vec<Tagged>,
    transfers: Vec<Transfer>,
    logs: Vec<(Loc, ExprRef)>,
    inputs: Vec<SymId>,
    reads: Vec<(u64, Width)>,
    writes: Vec<(u64, Width)>,
    steps: u64,
    unknown_used: bool,
    // Nested call frames.
    locals: Vec<LocalFrame>,
}

enum Restart {
    HavocReg(Reg),
    HavocMem(u64, Width),
    AllocCount(usize),
}

enum Abort {
    Restart(Restart),
    Infeasible(Infeasible),
}

type StepResult<T> = Result<T, Abort>;

fn path(expr: ExprRef) -> Tagged {
    Tagged {
        expr,
        tag: Tag::Path,
    }
}

/// Runs a hypothesis, restarting as the havoc sets grow. Solver queries
/// go through the shared memoizing `SolverSession` — restarts re-ask
/// many of the same questions, so the cache pays off immediately.
pub fn run_hypothesis(
    spec: &HypSpec<'_>,
    snap: &Snapshot,
    ctx: &mut SymCtx,
    solver: &SolverSession,
    depth: usize,
) -> Result<HypOutcome, Infeasible> {
    let mut reg_havoc: [Option<ExprRef>; Reg::COUNT] = std::array::from_fn(|_| None);
    let mut mem_havoc: BTreeMap<u64, (Width, ExprRef)> = BTreeMap::new();
    let mut assumed_allocs = 0usize;
    for _ in 0..8 {
        let mut attempt = Attempt {
            spec,
            snap,
            ctx,
            solver,
            depth,
            regs: spec.spost_regs.to_vec(),
            reg_written: [false; Reg::COUNT],
            reg_read_pre: [false; Reg::COUNT],
            reg_havoc: &reg_havoc,
            mem_written: BTreeMap::new(),
            mem_read_pre: BTreeMap::new(),
            mem_havoc: &mem_havoc,
            assumed_allocs,
            local_allocs: 0,
            frees: Vec::new(),
            constraints: Vec::new(),
            transfers: Vec::new(),
            logs: Vec::new(),
            inputs: Vec::new(),
            reads: Vec::new(),
            writes: Vec::new(),
            steps: 0,
            unknown_used: false,
            locals: Vec::new(),
        };
        match attempt.run() {
            Ok(outcome) => return Ok(outcome),
            Err(Abort::Infeasible(i)) => return Err(i),
            Err(Abort::Restart(r)) => match r {
                Restart::HavocReg(reg) => {
                    let sym = ctx.fresh(SymOrigin::HavocReg {
                        tid: spec.tid,
                        reg,
                        depth,
                    });
                    reg_havoc[reg.index()] = Some(sym);
                }
                Restart::HavocMem(addr, width) => {
                    let sym = ctx.fresh(SymOrigin::HavocMem { addr, width, depth });
                    mem_havoc.insert(addr, (width, sym));
                }
                Restart::AllocCount(k) => {
                    assumed_allocs = k;
                }
            },
        }
    }
    // Restart quota exhausted: charged against the hypothesis's
    // instruction budget, like the in-range step cap.
    Err(Infeasible::Budget(CutReason::HypInstructions))
}

impl<'a, 'b> Attempt<'a, 'b> {
    fn run(&mut self) -> StepResult<HypOutcome> {
        let mut func = self.spec.start.func;
        let mut block = self.spec.start.block;
        let mut inst = self.spec.start.inst;
        let mut started = false;

        loop {
            // End check (not before the first step, so self-loop ranges
            // execute their body).
            let here = Loc { func, block, inst };
            let at_end_depth = match self.spec.end.depth_delta {
                0 => self.locals.is_empty(),
                _ => false, // +1 ends are detected at the Call itself.
            };
            if started && at_end_depth && here == self.spec.end.loc {
                return self.finish();
            }
            if self.steps >= self.spec.max_steps {
                return Err(Abort::Infeasible(Infeasible::Budget(
                    CutReason::HypInstructions,
                )));
            }
            self.steps += 1;
            started = true;

            // The program outlives the attempt: run its code in place.
            let program: &'a Program = self.spec.program;
            let blk = program.func(func).block(block);
            if let Some(i) = blk.insts.get(inst as usize) {
                self.exec_inst(i, here)?;
                inst += 1;
                continue;
            }
            // Terminator.
            match blk.terminator {
                Terminator::Jump(t) => {
                    let to = Loc::block_start(func, t);
                    self.transfers.push(Transfer {
                        from: here,
                        to,
                        inferrable: true,
                    });
                    block = t;
                    inst = 0;
                }
                Terminator::Branch {
                    cond,
                    then_b,
                    else_b,
                } => {
                    let c = self.eval(cond);
                    let (target, constraint) = self.pick_branch(c, then_b, else_b)?;
                    if let Some(k) = constraint {
                        self.constraints.push(path(k));
                    }
                    let to = Loc::block_start(func, target);
                    self.transfers.push(Transfer {
                        from: here,
                        to,
                        inferrable: then_b == else_b,
                    });
                    block = target;
                    inst = 0;
                }
                Terminator::Call {
                    func: callee,
                    ref args,
                    ret,
                    cont,
                } => {
                    let entry = Loc::block_start(callee, mvm_isa::BlockId(0));
                    let arg_vals: Vec<ExprRef> = args.iter().map(|a| self.eval(*a)).collect();
                    // Does this call end the range (backward step past a
                    // function entry)?
                    if self.locals.is_empty()
                        && self.spec.end.depth_delta == 1
                        && entry == self.spec.end.loc
                    {
                        return self.finish_call_into(here, &arg_vals, ret, cont);
                    }
                    // Otherwise the call completes inside the range:
                    // execute the callee (the §6 re-execution strategy).
                    let mut regs: Vec<ExprRef> = (0..Reg::COUNT).map(|_| Expr::konst(0)).collect();
                    for (i, v) in arg_vals.iter().enumerate() {
                        regs[i] = v.clone();
                    }
                    regs[31] = self.read_reg(Reg(31));
                    self.transfers.push(Transfer {
                        from: here,
                        to: entry,
                        inferrable: true,
                    });
                    let caller_regs = std::mem::replace(&mut self.regs, regs);
                    self.locals.push(LocalFrame {
                        func,
                        block: cont,
                        inst: 0,
                        regs: caller_regs,
                        ret_reg: ret,
                    });
                    func = callee;
                    block = mvm_isa::BlockId(0);
                    inst = 0;
                }
                Terminator::Return(val) => {
                    let v = val.map(|op| self.eval(op));
                    let Some(frame) = self.locals.pop() else {
                        // Returning out of the range's own frame: only the
                        // (unsupported) incremental-return step would need
                        // this.
                        return Err(Abort::Infeasible(Infeasible::Structural(
                            "return exits the hypothesis frame",
                        )));
                    };
                    let ret_to = Loc::block_start(frame.func, frame.block);
                    self.transfers.push(Transfer {
                        from: here,
                        to: ret_to,
                        inferrable: true,
                    });
                    func = frame.func;
                    block = frame.block;
                    inst = frame.inst;
                    let ret_reg = frame.ret_reg;
                    self.regs = frame.regs;
                    if let (Some(r), Some(v)) = (ret_reg, v) {
                        self.write_reg(r, v)?;
                    }
                }
                Terminator::Halt => {
                    return Err(Abort::Infeasible(Infeasible::Structural(
                        "halt inside hypothesis range",
                    )));
                }
            }
        }
    }

    fn in_nested(&self) -> bool {
        !self.locals.is_empty()
    }

    fn read_reg(&mut self, r: Reg) -> ExprRef {
        if self.in_nested() {
            return self.regs[r.index()].clone();
        }
        if self.reg_written[r.index()] {
            return self.regs[r.index()].clone();
        }
        if let Some(h) = &self.reg_havoc[r.index()] {
            return h.clone();
        }
        self.reg_read_pre[r.index()] = true;
        // Unwritten-so-far: optimistically the Spost value (correct when
        // the range never writes this register; a later write restarts).
        self.regs[r.index()].clone()
    }

    fn write_reg(&mut self, r: Reg, v: ExprRef) -> StepResult<()> {
        if self.in_nested() {
            self.regs[r.index()] = v;
            return Ok(());
        }
        if self.reg_read_pre[r.index()] && self.reg_havoc[r.index()].is_none() {
            return Err(Abort::Restart(Restart::HavocReg(r)));
        }
        self.reg_written[r.index()] = true;
        self.regs[r.index()] = v;
        Ok(())
    }

    fn eval(&mut self, op: Operand) -> ExprRef {
        match op {
            Operand::Reg(r) => self.read_reg(r),
            Operand::Imm(v) => Expr::konst(v),
        }
    }

    /// Concretizes an address expression, adding the pinning constraint.
    fn concretize(&mut self, e: &ExprRef) -> StepResult<u64> {
        if let Some(v) = e.as_const() {
            return Ok(v);
        }
        let all: Vec<ExprRef> = self
            .spec
            .base_constraints
            .iter()
            .cloned()
            .chain(self.constraints.iter().map(|t| t.expr.clone()))
            .collect();
        // Solve for a witness of the current path.
        let model = match self.solver.check(&all) {
            SolveResult::Sat(m) => m,
            SolveResult::Unsat => return Err(Abort::Infeasible(Infeasible::Unsat)),
            SolveResult::Unknown(_) => {
                self.unknown_used = true;
                Model::new()
            }
        };
        let v = model
            .eval_total(e)
            .ok_or(Abort::Infeasible(Infeasible::Unsat))?;
        self.constraints.push(Tagged {
            expr: Expr::bin(BinOp::Eq, e.clone(), Expr::konst(v)),
            tag: Tag::Pin,
        });
        Ok(v)
    }

    fn read_mem(&mut self, addr: u64, width: Width) -> StepResult<ExprRef> {
        self.reads.push((addr, width));
        if let Some((w, v)) = self.mem_written.get(&addr) {
            if *w == width {
                return Ok(v.clone());
            }
            return Err(Abort::Infeasible(Infeasible::MixedAliasing));
        }
        if self.overlaps_journal(addr, width) {
            return Err(Abort::Infeasible(Infeasible::MixedAliasing));
        }
        if let Some((w, sym)) = self.mem_havoc.get(&addr) {
            if *w == width {
                return Ok(sym.clone());
            }
            return Err(Abort::Infeasible(Infeasible::MixedAliasing));
        }
        match self.snap.read_mem(addr, width) {
            MemRead::Value(v) => {
                self.mem_read_pre.entry(addr).or_insert(width);
                Ok(v)
            }
            MemRead::MixedSymbolic => {
                // Unknown value: a fresh symbol, flagged.
                self.unknown_used = true;
                let sym = self.ctx.fresh(SymOrigin::HavocMem {
                    addr,
                    width,
                    depth: self.depth,
                });
                Ok(sym)
            }
        }
    }

    fn overlaps_journal(&self, addr: u64, width: Width) -> bool {
        let lo = addr.saturating_sub(7);
        let hi = addr + width.bytes() - 1;
        self.mem_written
            .range(lo..=hi)
            .any(|(&a, (w, _))| a != addr && a <= hi && a + w.bytes() - 1 >= addr)
            || self
                .mem_havoc
                .range(lo..=hi)
                .any(|(&a, (w, _))| a != addr && a <= hi && a + w.bytes() - 1 >= addr)
    }

    fn write_mem(&mut self, addr: u64, width: Width, v: ExprRef) -> StepResult<()> {
        self.writes.push((addr, width));
        if self.overlaps_journal(addr, width) {
            return Err(Abort::Infeasible(Infeasible::MixedAliasing));
        }
        if let Some(w) = self.mem_read_pre.get(&addr) {
            if !self.mem_havoc.contains_key(&addr) {
                let w = *w;
                if w != width {
                    return Err(Abort::Infeasible(Infeasible::MixedAliasing));
                }
                return Err(Abort::Restart(Restart::HavocMem(addr, w)));
            }
        }
        if let Some((w, _)) = self.mem_havoc.get(&addr) {
            if *w != width {
                return Err(Abort::Infeasible(Infeasible::MixedAliasing));
            }
        }
        if let Some((w, _)) = self.mem_written.get(&addr) {
            if *w != width {
                return Err(Abort::Infeasible(Infeasible::MixedAliasing));
            }
        }
        self.mem_written.insert(addr, (width, v));
        Ok(())
    }

    fn exec_inst(&mut self, i: &Inst, here: Loc) -> StepResult<()> {
        match i {
            Inst::Mov { dst, src } => {
                let v = self.eval(*src);
                self.write_reg(*dst, v)?;
            }
            Inst::Bin { op, dst, lhs, rhs } => {
                let a = self.eval(*lhs);
                let b = self.eval(*rhs);
                if matches!(op, BinOp::DivU | BinOp::RemU) {
                    match b.as_const() {
                        Some(0) => {
                            // Faulting mid-suffix contradicts the range
                            // completing.
                            return Err(Abort::Infeasible(Infeasible::Structural(
                                "division by zero inside range",
                            )));
                        }
                        Some(_) => {}
                        None => {
                            self.constraints.push(path(Expr::bin(
                                BinOp::Ne,
                                b.clone(),
                                Expr::konst(0),
                            )));
                        }
                    }
                }
                let v = Expr::bin(*op, a, b);
                self.write_reg(*dst, v)?;
            }
            Inst::Un { op, dst, src } => {
                let v = Expr::un(*op, self.eval(*src));
                self.write_reg(*dst, v)?;
            }
            Inst::Load {
                dst,
                addr,
                offset,
                width,
            } => {
                let base = self.eval(*addr);
                let ea = Expr::bin(BinOp::Add, base, Expr::konst(*offset as u64));
                let a = self.concretize(&ea)?;
                let v = self.read_mem(a, *width)?;
                self.write_reg(*dst, v)?;
            }
            Inst::Store {
                src,
                addr,
                offset,
                width,
            } => {
                let base = self.eval(*addr);
                let ea = Expr::bin(BinOp::Add, base, Expr::konst(*offset as u64));
                let a = self.concretize(&ea)?;
                let v = self.eval(*src);
                let narrowed = if *width == Width::W8 {
                    v
                } else {
                    Expr::bin(BinOp::And, v, Expr::konst(width.mask()))
                };
                self.write_mem(a, *width, narrowed)?;
            }
            Inst::AddrOf { dst, global } => {
                let a = self.spec.program.global(*global).addr;
                self.write_reg(*dst, Expr::konst(a))?;
            }
            Inst::Input { dst, kind } => {
                let sym = self.ctx.fresh(SymOrigin::Input {
                    tid: self.spec.tid,
                    kind: *kind,
                    site: here,
                });
                if let Some(id) = sym.as_sym() {
                    self.inputs.push(id);
                }
                self.write_reg(*dst, sym)?;
            }
            Inst::Output { src, channel } => {
                let v = self.eval(*src);
                if *channel == Channel::Log {
                    self.logs.push((here, v));
                }
            }
            Inst::Alloc { dst, size } => {
                let sz = self.eval(*size);
                let n = self.spec.dump_allocs.len();
                let consumed = self.spec.later_allocs + self.assumed_allocs;
                if self.local_allocs >= self.assumed_allocs {
                    // More allocations than assumed: restart with the
                    // larger count (bounded by the dump table).
                    if consumed >= n {
                        return Err(Abort::Infeasible(Infeasible::HeapMismatch));
                    }
                    return Err(Abort::Restart(Restart::AllocCount(self.local_allocs + 1)));
                }
                // Forward order within the range: the j-th local alloc is
                // the (n - later - assumed + j)-th dump entry.
                let idx = n - self.spec.later_allocs - self.assumed_allocs + self.local_allocs;
                let meta = self.spec.dump_allocs[idx];
                self.local_allocs += 1;
                match sz.as_const() {
                    Some(c) => {
                        if c.max(1) != meta.size {
                            return Err(Abort::Infeasible(Infeasible::HeapMismatch));
                        }
                    }
                    None => {
                        self.constraints.push(path(Expr::bin(
                            BinOp::Eq,
                            sz,
                            Expr::konst(meta.size),
                        )));
                    }
                }
                self.write_reg(*dst, Expr::konst(meta.base))?;
            }
            Inst::Free { addr } => {
                let a = self.eval(*addr);
                let base = self.concretize(&a)?;
                let Some(meta) = self.spec.dump_allocs.iter().find(|m| m.base == base) else {
                    return Err(Abort::Infeasible(Infeasible::HeapMismatch));
                };
                if meta.state != AllocState::Freed || self.frees.contains(&base) {
                    return Err(Abort::Infeasible(Infeasible::HeapMismatch));
                }
                self.frees.push(base);
            }
            Inst::Lock { addr } => {
                let a = self.eval(*addr);
                let m = self.concretize(&a)?;
                // Acquisition succeeded: the mutex word was 0, then
                // became tid+1 (the machine mirrors ownership in memory).
                let v = self.read_mem(m, Width::W8)?;
                match v.as_const() {
                    Some(0) => {}
                    Some(_) => {
                        return Err(Abort::Infeasible(Infeasible::Structural(
                            "lock acquired while held",
                        )))
                    }
                    None => self
                        .constraints
                        .push(path(Expr::bin(BinOp::Eq, v, Expr::konst(0)))),
                }
                self.write_mem(m, Width::W8, Expr::konst(self.spec.tid + 1))?;
            }
            Inst::Unlock { addr } => {
                let a = self.eval(*addr);
                let m = self.concretize(&a)?;
                let v = self.read_mem(m, Width::W8)?;
                let owner = self.spec.tid + 1;
                match v.as_const() {
                    Some(x) if x == owner => {}
                    Some(_) => {
                        return Err(Abort::Infeasible(Infeasible::Structural(
                            "unlock of unowned mutex",
                        )))
                    }
                    None => {
                        self.constraints
                            .push(path(Expr::bin(BinOp::Eq, v, Expr::konst(owner))))
                    }
                }
                self.write_mem(m, Width::W8, Expr::konst(0))?;
            }
            Inst::Spawn { .. } => {
                return Err(Abort::Infeasible(Infeasible::SpawnBarrier));
            }
            Inst::Join { tid } => {
                // The join completed inside the range, so the target was
                // already halted; only sanity-check a concrete target.
                let t = self.eval(*tid);
                if let Some(v) = t.as_const() {
                    if self.snap.thread(v).is_none() {
                        return Err(Abort::Infeasible(Infeasible::Structural(
                            "join of unknown thread",
                        )));
                    }
                }
            }
            Inst::Assert { cond, .. } => {
                let c = self.eval(*cond);
                match c.as_const() {
                    Some(0) => {
                        return Err(Abort::Infeasible(Infeasible::Structural(
                            "assert fails inside range",
                        )))
                    }
                    Some(_) => {}
                    None => self.constraints.push(path(c)),
                }
            }
            Inst::Nop => {}
        }
        Ok(())
    }

    fn pick_branch(
        &mut self,
        cond: ExprRef,
        then_b: mvm_isa::BlockId,
        else_b: mvm_isa::BlockId,
    ) -> StepResult<(mvm_isa::BlockId, Option<ExprRef>)> {
        if let Some(v) = cond.as_const() {
            return Ok((if v != 0 { then_b } else { else_b }, None));
        }
        if self.in_nested() {
            // Inside a re-executed callee: concretize the path with the
            // solver's witness.
            let all: Vec<ExprRef> = self
                .spec
                .base_constraints
                .iter()
                .cloned()
                .chain(self.constraints.iter().map(|t| t.expr.clone()))
                .collect();
            let taken_nonzero = match self.solver.check(&all) {
                SolveResult::Sat(m) => m.eval_total(&cond).unwrap_or(0) != 0,
                SolveResult::Unsat => return Err(Abort::Infeasible(Infeasible::Unsat)),
                SolveResult::Unknown(_) => {
                    self.unknown_used = true;
                    false
                }
            };
            let (target, k) = if taken_nonzero {
                (then_b, cond)
            } else {
                (else_b, Expr::bin(BinOp::Eq, cond, Expr::konst(0)))
            };
            return Ok((target, Some(k)));
        }
        // Top frame: the branch must reach the range's end block.
        let end_block = self.spec.end.loc.block;
        let callish = self.spec.end.depth_delta == 1;
        let want_then = !callish && then_b == end_block;
        let want_else = !callish && else_b == end_block;
        match (want_then, want_else) {
            (true, true) => Ok((then_b, None)),
            (true, false) => Ok((then_b, Some(cond))),
            (false, true) => Ok((else_b, Some(Expr::bin(BinOp::Eq, cond, Expr::konst(0))))),
            (false, false) => Err(Abort::Infeasible(Infeasible::Structural(
                "branch cannot reach end block",
            ))),
        }
    }

    /// Ends the range at a `Call` whose callee entry is the `Spost`
    /// position (backward step past a function entry).
    fn finish_call_into(
        &mut self,
        here: Loc,
        arg_vals: &[ExprRef],
        ret: Option<Reg>,
        cont: mvm_isa::BlockId,
    ) -> StepResult<HypOutcome> {
        let spec = self.spec;
        let entry_regs = spec
            .callee_entry_regs
            .expect("call-into requires callee entry regs");
        // Structural checks: same return register and continuation as
        // the dump's frames record.
        if ret != self.spec.callee_ret_reg {
            return Err(Abort::Infeasible(Infeasible::Structural(
                "call-site return register mismatch",
            )));
        }
        // The caller frame in the dump is parked at the continuation;
        // the search selected this candidate because its parked block
        // matches, but re-check when available.
        let _ = cont;
        // Bind arguments and the zero-initialized remainder.
        for (i, entry) in entry_regs.iter().enumerate() {
            let expected: ExprRef = if i < arg_vals.len() {
                arg_vals[i].clone()
            } else if i == 31 {
                self.read_reg(Reg(31))
            } else {
                Expr::konst(0)
            };
            let c = Expr::bin(BinOp::Eq, expected, entry.clone());
            match c.as_const() {
                Some(0) => {
                    return Err(Abort::Infeasible(Infeasible::Structural(
                        "call argument mismatch",
                    )))
                }
                Some(_) => {}
                None => self.constraints.push(Tagged {
                    expr: c,
                    tag: Tag::CallBind { reg: Reg(i as u8) },
                }),
            }
        }
        self.transfers.push(Transfer {
            from: here,
            to: self.spec.end.loc,
            inferrable: true,
        });
        self.finish()
    }

    fn finish(&mut self) -> StepResult<HypOutcome> {
        if !self.locals.is_empty() {
            return Err(Abort::Infeasible(Infeasible::Structural(
                "range ended inside a nested call",
            )));
        }
        let mut constraints = std::mem::take(&mut self.constraints);
        // Compatibility: every memory cell the range wrote must match
        // Spost.
        let mut spre_cells = Vec::new();
        for (&addr, (width, v)) in &self.mem_written {
            let spost = match self.snap.read_mem(addr, *width) {
                MemRead::Value(x) => x,
                MemRead::MixedSymbolic => {
                    if self.spec.skip_compat {
                        // No constraint possible or wanted.
                        let sym = match self.mem_havoc.get(&addr) {
                            Some((_, s)) => s.clone(),
                            None => self.ctx.fresh(SymOrigin::HavocMem {
                                addr,
                                width: *width,
                                depth: self.depth,
                            }),
                        };
                        spre_cells.push((addr, *width, sym));
                        continue;
                    }
                    // Minidump mode (A2): the post-state is unknown, so
                    // the write is unconstrained — accepted, flagged.
                    self.unknown_used = true;
                    let sym = match self.mem_havoc.get(&addr) {
                        Some((_, s)) => s.clone(),
                        None => self.ctx.fresh(SymOrigin::HavocMem {
                            addr,
                            width: *width,
                            depth: self.depth,
                        }),
                    };
                    spre_cells.push((addr, *width, sym));
                    continue;
                }
            };
            let spost = if *width == Width::W8 {
                spost
            } else {
                Expr::bin(BinOp::And, spost, Expr::konst(width.mask()))
            };
            let c = Expr::bin(BinOp::Eq, v.clone(), spost);
            if self.spec.skip_compat {
                // Ablation A1: drop the compatibility constraint.
            } else {
                match c.as_const() {
                    Some(0) => return Err(Abort::Infeasible(Infeasible::Unsat)),
                    Some(_) => {}
                    None => constraints.push(Tagged {
                        expr: c,
                        tag: Tag::MemCompat {
                            addr,
                            width: *width,
                        },
                    }),
                }
            }
            let sym = match self.mem_havoc.get(&addr) {
                Some((_, s)) => s.clone(),
                None => self.ctx.fresh(SymOrigin::HavocMem {
                    addr,
                    width: *width,
                    depth: self.depth,
                }),
            };
            spre_cells.push((addr, *width, sym));
        }
        // Compatibility: every register the range wrote must match
        // Spost; Spre gets its havoc symbol.
        let mut spre_regs = self.spec.spost_regs.to_vec();
        for r in 0..Reg::COUNT {
            if self.reg_written[r] {
                let c = Expr::bin(
                    BinOp::Eq,
                    self.regs[r].clone(),
                    self.spec.spost_regs[r].clone(),
                );
                if self.spec.skip_compat {
                    // Ablation A1: drop the compatibility constraint.
                } else {
                    match c.as_const() {
                        Some(0) => return Err(Abort::Infeasible(Infeasible::Unsat)),
                        Some(_) => {}
                        None => constraints.push(Tagged {
                            expr: c,
                            tag: Tag::RegCompat { reg: Reg(r as u8) },
                        }),
                    }
                }
                spre_regs[r] = match &self.reg_havoc[r] {
                    Some(s) => s.clone(),
                    None => self.ctx.fresh(SymOrigin::HavocReg {
                        tid: self.spec.tid,
                        reg: Reg(r as u8),
                        depth: self.depth,
                    }),
                };
            }
        }
        Ok(HypOutcome {
            spre_regs,
            spre_cells,
            constraints,
            transfers: std::mem::take(&mut self.transfers),
            logs: std::mem::take(&mut self.logs),
            inputs: std::mem::take(&mut self.inputs),
            allocs: self.local_allocs,
            frees: std::mem::take(&mut self.frees),
            reads: std::mem::take(&mut self.reads),
            writes: std::mem::take(&mut self.writes),
            steps: self.steps,
            unknown_used: self.unknown_used,
        })
    }
}
