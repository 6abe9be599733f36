//! Synthesized execution suffixes — the engine's output artifact
//! (paper §2.1: "a set of execution traces Ti ... corresponding to each
//! instruction trace, a partial memory image Mi").

use std::collections::BTreeMap;

use mvm_isa::{BinOp, BlockId, FuncId, InputKind, Loc, Reg, UnOp, Width};
use mvm_json::write_u64;
use mvm_machine::ThreadId;
use mvm_symbolic::{Expr, Model, SymId};

use crate::blockexec::{EndPoint, Tag, Tagged, Transfer};

/// One backward-discovered step of the suffix (a block-granular range
/// executed by one thread).
#[derive(Debug, Clone)]
pub struct SuffixStep {
    /// Executing thread.
    pub tid: ThreadId,
    /// Frame depth (index into the dump's frame stack) the range
    /// executes in.
    pub frame_depth: usize,
    /// Range start.
    pub start: Loc,
    /// Range end.
    pub end: EndPoint,
    /// Control transfers taken inside the range, forward order.
    pub transfers: Vec<Transfer>,
    /// Input symbols consumed, forward order.
    pub inputs: Vec<SymId>,
    /// Input kinds aligned with `inputs`.
    pub input_kinds: Vec<InputKind>,
    /// Allocations performed.
    pub allocs: usize,
    /// Frees performed (payload bases).
    pub frees: Vec<u64>,
    /// Concrete read set.
    pub reads: Vec<(u64, Width)>,
    /// Concrete write set.
    pub writes: Vec<(u64, Width)>,
    /// Instructions in the range.
    pub steps: u64,
}

/// A complete synthesized suffix, concretized by a solver model.
#[derive(Debug, Clone)]
pub struct ExecutionSuffix {
    /// Steps in *forward execution order* (the reverse of discovery
    /// order).
    pub steps: Vec<SuffixStep>,
    /// The satisfying model that concretizes havoc symbols and inputs.
    pub model: Model,
    /// The partial memory image `Mi`: concrete cell values to install
    /// before replaying.
    pub initial_cells: Vec<(u64, Width, u64)>,
    /// Initial register files: `(tid, frame_depth, regs)` for each
    /// thread at suffix start.
    pub initial_regs: BTreeMap<ThreadId, (usize, Vec<u64>)>,
    /// Start position per thread: `(frame_depth, loc)`.
    pub start_positions: BTreeMap<ThreadId, (usize, Loc)>,
    /// Concrete input values per thread, in consumption order.
    pub inputs: BTreeMap<ThreadId, Vec<u64>>,
    /// All constraints (flattened) the model satisfies.
    pub constraints: Vec<Tagged>,
    /// `true` if any solver Unknown or unsound shortcut was taken while
    /// building this suffix.
    pub approximate: bool,
}

impl ExecutionSuffix {
    /// Total instructions across all steps.
    pub fn total_steps(&self) -> u64 {
        self.steps.iter().map(|s| s.steps).sum()
    }

    /// Number of block-granular steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// `true` when the suffix has no steps.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Thread ids participating in the suffix, in first-use order.
    pub fn threads(&self) -> Vec<ThreadId> {
        let mut out = Vec::new();
        for s in &self.steps {
            if !out.contains(&s.tid) {
                out.push(s.tid);
            }
        }
        out
    }

    /// The block-granular schedule `(tid, steps)` for replay.
    pub fn schedule(&self) -> Vec<(ThreadId, u64)> {
        self.steps.iter().map(|s| (s.tid, s.steps)).collect()
    }

    /// The union read set (§3.3: "RES automatically focuses developers'
    /// attention on the recently read or written state").
    pub fn read_set(&self) -> Vec<(u64, Width)> {
        let mut out: Vec<(u64, Width)> = self.steps.iter().flat_map(|s| s.reads.clone()).collect();
        out.sort_unstable_by_key(|&(a, w)| (a, w.bytes()));
        out.dedup();
        out
    }

    /// The union write set.
    pub fn write_set(&self) -> Vec<(u64, Width)> {
        let mut out: Vec<(u64, Width)> = self.steps.iter().flat_map(|s| s.writes.clone()).collect();
        out.sort_unstable_by_key(|&(a, w)| (a, w.bytes()));
        out.dedup();
        out
    }

    /// Whether any input consumed in the suffix is attacker-controlled
    /// (network) — the §3.1 exploitability signal.
    pub fn consumes_attacker_input(&self) -> bool {
        self.steps
            .iter()
            .flat_map(|s| s.input_kinds.iter())
            .any(|k| k.attacker_controlled())
    }

    /// The suffix's identity text, the byte-identity currency of the
    /// triage answer and every determinism gate: exactly the bytes
    /// `format!("{self:?}")` produces, written without `fmt` into one
    /// pre-sized string. The derived `Debug` stays the reference. Every
    /// struct below is destructured in full and every enum matched
    /// without a wildcard, so a new field or variant fails to compile
    /// here instead of silently changing the identity.
    pub fn identity_bytes(&self) -> String {
        let ExecutionSuffix {
            steps,
            model,
            initial_cells,
            initial_regs,
            start_positions,
            inputs,
            constraints,
            approximate,
        } = self;
        // About 1.4 times the text of a `triage` suffix (12 steps, 20–28
        // constraints, 1–3 threads), so the writer does not reallocate.
        let mut out = String::with_capacity(
            512 + 640 * steps.len() + 160 * constraints.len() + 320 * initial_regs.len(),
        );
        out.push_str("ExecutionSuffix { steps: [");
        list(&mut out, steps, write_step);
        // `Model`'s one field is private; its `Debug` is `Model { values:
        // {..} }` over the same ordered map `iter` walks.
        out.push_str("], model: Model { values: {");
        list(&mut out, model.iter(), |out, (sym, v)| {
            write_u64(u64::from(sym), out);
            out.push_str(": ");
            write_u64(v, out);
        });
        out.push_str("} }, initial_cells: [");
        list(&mut out, initial_cells, |out, &(addr, width, v)| {
            out.push('(');
            write_u64(addr, out);
            out.push_str(", ");
            out.push_str(width_name(width));
            out.push_str(", ");
            write_u64(v, out);
            out.push(')');
        });
        out.push_str("], initial_regs: {");
        list(&mut out, initial_regs, |out, (&tid, (depth, regs))| {
            write_u64(tid, out);
            out.push_str(": (");
            write_u64(*depth as u64, out);
            out.push_str(", [");
            list(out, regs, |out, &r| write_u64(r, out));
            out.push_str("])");
        });
        out.push_str("}, start_positions: {");
        list(&mut out, start_positions, |out, (&tid, &(depth, loc))| {
            write_u64(tid, out);
            out.push_str(": (");
            write_u64(depth as u64, out);
            out.push_str(", ");
            write_loc(out, loc);
            out.push(')');
        });
        out.push_str("}, inputs: {");
        list(&mut out, inputs, |out, (&tid, values)| {
            write_u64(tid, out);
            out.push_str(": [");
            list(out, values, |out, &v| write_u64(v, out));
            out.push(']');
        });
        out.push_str("}, constraints: [");
        list(&mut out, constraints, |out, Tagged { expr, tag }| {
            out.push_str("Tagged { expr: ");
            write_expr(out, expr);
            out.push_str(", tag: ");
            write_tag(out, *tag);
            out.push_str(" }");
        });
        out.push_str("], approximate: ");
        out.push_str(if *approximate { "true" } else { "false" });
        out.push_str(" }");
        out
    }
}

/// Writes `items` separated by `", "`, the way `Debug` lists them.
fn list<I: IntoIterator>(out: &mut String, items: I, mut each: impl FnMut(&mut String, I::Item)) {
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        each(out, item);
    }
}

fn write_step(out: &mut String, step: &SuffixStep) {
    let SuffixStep {
        tid,
        frame_depth,
        start,
        end,
        transfers,
        inputs,
        input_kinds,
        allocs,
        frees,
        reads,
        writes,
        steps,
    } = step;
    out.push_str("SuffixStep { tid: ");
    write_u64(*tid, out);
    out.push_str(", frame_depth: ");
    write_u64(*frame_depth as u64, out);
    out.push_str(", start: ");
    write_loc(out, *start);
    let EndPoint { depth_delta, loc } = *end;
    out.push_str(", end: EndPoint { depth_delta: ");
    if depth_delta < 0 {
        out.push('-');
    }
    write_u64(u64::from(depth_delta.unsigned_abs()), out);
    out.push_str(", loc: ");
    write_loc(out, loc);
    out.push_str(" }, transfers: [");
    list(out, transfers, write_transfer);
    out.push_str("], inputs: [");
    list(out, inputs, |out, &sym| write_u64(u64::from(sym), out));
    out.push_str("], input_kinds: [");
    list(out, input_kinds, |out, &kind| {
        out.push_str(match kind {
            InputKind::Network => "Network",
            InputKind::File => "File",
            InputKind::Time => "Time",
            InputKind::Random => "Random",
            InputKind::Env => "Env",
        })
    });
    out.push_str("], allocs: ");
    write_u64(*allocs as u64, out);
    out.push_str(", frees: [");
    list(out, frees, |out, &base| write_u64(base, out));
    out.push_str("], reads: [");
    list(out, reads, write_access);
    out.push_str("], writes: [");
    list(out, writes, write_access);
    out.push_str("], steps: ");
    write_u64(*steps, out);
    out.push_str(" }");
}

fn write_transfer(out: &mut String, transfer: &Transfer) {
    let Transfer {
        from,
        to,
        inferrable,
    } = *transfer;
    out.push_str("Transfer { from: ");
    write_loc(out, from);
    out.push_str(", to: ");
    write_loc(out, to);
    out.push_str(", inferrable: ");
    out.push_str(if inferrable { "true" } else { "false" });
    out.push_str(" }");
}

fn write_access(out: &mut String, &(addr, width): &(u64, Width)) {
    out.push('(');
    write_u64(addr, out);
    out.push_str(", ");
    out.push_str(width_name(width));
    out.push(')');
}

fn write_loc(out: &mut String, loc: Loc) {
    let Loc {
        func: FuncId(func),
        block: BlockId(block),
        inst,
    } = loc;
    out.push_str("Loc { func: FuncId(");
    write_u64(u64::from(func), out);
    out.push_str("), block: BlockId(");
    write_u64(u64::from(block), out);
    out.push_str("), inst: ");
    write_u64(u64::from(inst), out);
    out.push_str(" }");
}

fn write_reg(out: &mut String, Reg(r): Reg) {
    out.push_str("Reg(");
    write_u64(u64::from(r), out);
    out.push(')');
}

fn write_tag(out: &mut String, tag: Tag) {
    match tag {
        Tag::Path => out.push_str("Path"),
        Tag::MemCompat { addr, width } => {
            out.push_str("MemCompat { addr: ");
            write_u64(addr, out);
            out.push_str(", width: ");
            out.push_str(width_name(width));
            out.push_str(" }");
        }
        Tag::RegCompat { reg } => {
            out.push_str("RegCompat { reg: ");
            write_reg(out, reg);
            out.push_str(" }");
        }
        Tag::CallBind { reg } => {
            out.push_str("CallBind { reg: ");
            write_reg(out, reg);
            out.push_str(" }");
        }
        Tag::Pin => out.push_str("Pin"),
    }
}

fn write_expr(out: &mut String, e: &Expr) {
    match e {
        Expr::Const(v) => {
            out.push_str("Const(");
            write_u64(*v, out);
        }
        Expr::Sym(s) => {
            out.push_str("Sym(");
            write_u64(u64::from(*s), out);
        }
        Expr::Bin(op, a, b) => {
            out.push_str("Bin(");
            out.push_str(match op {
                BinOp::Add => "Add",
                BinOp::Sub => "Sub",
                BinOp::Mul => "Mul",
                BinOp::DivU => "DivU",
                BinOp::RemU => "RemU",
                BinOp::And => "And",
                BinOp::Or => "Or",
                BinOp::Xor => "Xor",
                BinOp::Shl => "Shl",
                BinOp::Shr => "Shr",
                BinOp::Sar => "Sar",
                BinOp::Eq => "Eq",
                BinOp::Ne => "Ne",
                BinOp::LtU => "LtU",
                BinOp::LeU => "LeU",
                BinOp::LtS => "LtS",
                BinOp::LeS => "LeS",
            });
            out.push_str(", ");
            write_expr(out, a);
            out.push_str(", ");
            write_expr(out, b);
        }
        Expr::Un(op, a) => {
            out.push_str("Un(");
            out.push_str(match op {
                UnOp::Not => "Not",
                UnOp::Neg => "Neg",
            });
            out.push_str(", ");
            write_expr(out, a);
        }
    }
    out.push(')');
}

fn width_name(width: Width) -> &'static str {
    match width {
        Width::W1 => "W1",
        Width::W2 => "W2",
        Width::W4 => "W4",
        Width::W8 => "W8",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvm_isa::{BlockId, FuncId};

    fn step(tid: ThreadId, n: u64) -> SuffixStep {
        SuffixStep {
            tid,
            frame_depth: 0,
            start: Loc::block_start(FuncId(0), BlockId(0)),
            end: EndPoint {
                depth_delta: 0,
                loc: Loc::block_start(FuncId(0), BlockId(1)),
            },
            transfers: vec![],
            inputs: vec![],
            input_kinds: vec![InputKind::Network],
            allocs: 0,
            frees: vec![],
            reads: vec![(0x100, Width::W8)],
            writes: vec![(0x108, Width::W8), (0x100, Width::W8)],
            steps: n,
        }
    }

    fn suffix() -> ExecutionSuffix {
        ExecutionSuffix {
            steps: vec![step(0, 3), step(1, 2), step(0, 1)],
            model: Model::new(),
            initial_cells: vec![],
            initial_regs: BTreeMap::new(),
            start_positions: BTreeMap::new(),
            inputs: BTreeMap::new(),
            constraints: vec![],
            approximate: false,
        }
    }

    #[test]
    fn aggregates() {
        let s = suffix();
        assert_eq!(s.total_steps(), 6);
        assert_eq!(s.len(), 3);
        assert_eq!(s.threads(), vec![0, 1]);
        assert_eq!(s.schedule(), vec![(0, 3), (1, 2), (0, 1)]);
        assert!(s.consumes_attacker_input());
    }

    #[test]
    fn read_write_sets_dedup() {
        let s = suffix();
        assert_eq!(s.read_set(), vec![(0x100, Width::W8)]);
        assert_eq!(s.write_set(), vec![(0x100, Width::W8), (0x108, Width::W8)]);
    }
}
