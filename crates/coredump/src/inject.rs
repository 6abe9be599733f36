//! Post-hoc hardware-fault injection into coredumps.
//!
//! Paper §3.2: hardware errors (multi-bit DRAM failures, CPU
//! miscomputation, rogue DMA) produce coredumps that *no feasible
//! software execution explains*. To evaluate the RES hardware-error
//! verdict we need labeled examples of such dumps; these injectors
//! manufacture them by corrupting an otherwise-genuine software-bug dump
//! after capture — exactly how a flipped DRAM bit would present.

use mvm_json::json_enum;
use mvm_prng::XorShift64Star;

use mvm_isa::{Inst, Operand, Program, Reg};

use crate::dump::Coredump;

/// What an injector did, for ground-truth labels in experiments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InjectionReport {
    /// A memory bit was flipped.
    MemoryBitFlip {
        /// Corrupted address.
        addr: u64,
        /// Which bit (0..8) of the byte.
        bit: u8,
        /// Byte value before the flip.
        before: u8,
        /// Byte value after.
        after: u8,
    },
    /// A register in a thread frame was corrupted (proxy for a CPU
    /// datapath error whose wrong result was spilled or still live).
    RegisterCorrupt {
        /// Thread whose frame was corrupted.
        tid: u64,
        /// Frame index (0 = outermost).
        frame: usize,
        /// The register.
        reg: u8,
        /// Value before.
        before: u64,
        /// Value after.
        after: u64,
    },
}

json_enum!(InjectionReport {
    MemoryBitFlip { addr: u64, bit: u8, before: u8, after: u8 },
    RegisterCorrupt { tid: u64, frame: usize, reg: u8, before: u64, after: u64 },
});

/// Deterministic xorshift for seedable injection-site selection.
fn xorshift(state: &mut u64) -> u64 {
    XorShift64Star::step(state)
}

/// Flips one bit of the byte at a *specific* address.
pub fn flip_memory_bit_at(dump: &mut Coredump, addr: u64, bit: u8) -> InjectionReport {
    let before = dump.memory.read_byte(addr).unwrap_or(0);
    let after = before ^ (1 << (bit % 8));
    dump.memory.write_byte(addr, after);
    InjectionReport::MemoryBitFlip {
        addr,
        bit: bit % 8,
        before,
        after,
    }
}

/// Corrupts a register of the faulting thread's innermost frame, chosen
/// by `seed` (a CPU-error proxy: the bad ALU result is still live).
pub fn corrupt_register(dump: &mut Coredump, seed: u64) -> InjectionReport {
    let mut s = seed;
    let reg = (xorshift(&mut s) % Reg::COUNT as u64) as u8;
    let delta = xorshift(&mut s) | 1;
    let tid = dump.faulting_tid;
    let t = dump
        .threads
        .iter_mut()
        .find(|t| t.tid == tid)
        .expect("dump lacks faulting thread");
    let frame_idx = t.frames.len() - 1;
    let before = t.frames[frame_idx].reg(Reg(reg));
    let after = before ^ delta;
    t.frames[frame_idx].set_reg(Reg(reg), after);
    InjectionReport::RegisterCorrupt {
        tid,
        frame: frame_idx,
        reg,
        before,
        after,
    }
}

/// Corrupts a specific register (counting frames from the top of the
/// faulting thread's stack) by XOR-ing `xor` into it.
///
/// # Panics
///
/// Panics if the dump lacks the faulting thread or the frame index is
/// out of range.
pub fn corrupt_register_at(
    dump: &mut Coredump,
    frame_from_top: usize,
    reg: Reg,
    xor: u64,
) -> InjectionReport {
    let tid = dump.faulting_tid;
    let t = dump
        .threads
        .iter_mut()
        .find(|t| t.tid == tid)
        .expect("dump lacks faulting thread");
    let frame_idx = t.frames.len() - 1 - frame_from_top;
    let before = t.frames[frame_idx].reg(reg);
    let after = before ^ (xor | 1);
    t.frames[frame_idx].set_reg(reg, after);
    InjectionReport::RegisterCorrupt {
        tid,
        frame: frame_idx,
        reg: reg.0,
        before,
        after,
    }
}

/// Which hardware failure a post-hoc corruption imitates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HwFlavor {
    /// A flipped DRAM bit: one bit of a mapped memory byte.
    BitFlip,
    /// A CPU datapath error: a live register's value is wrong.
    RegCorrupt,
}

impl HwFlavor {
    /// Stable name for labels and reports.
    pub fn name(self) -> &'static str {
        match self {
            HwFlavor::BitFlip => "bit-flip",
            HwFlavor::RegCorrupt => "reg-corrupt",
        }
    }
}

/// Sites whose corruption is *consequential* — the §3.2 examples all
/// corrupt state involved in the failure (the miscomputed addition's
/// result, the value the program just wrote). Returns registers defined
/// and global addresses stored by the faulting block's already-executed
/// portion. When no rule names a memory site, the words that portion
/// loaded or stored are named instead, where the dump's registers still
/// hold their addresses.
pub fn consequential_sites(program: &Program, dump: &Coredump) -> (Vec<Reg>, Vec<u64>) {
    let pc = dump.fault_pc();
    let scan = |func: mvm_isa::FuncId, block: mvm_isa::BlockId, upto: usize| {
        let blk = program.func(func).block(block);
        let mut regs = Vec::new();
        let mut mems = Vec::new();
        let mut referenced_globals = Vec::new();
        // Track statically resolvable register contents (global
        // addresses; alloc results via the dump's heap table).
        let mut addr_regs: std::collections::HashMap<Reg, u64> = std::collections::HashMap::new();
        for inst in blk.insts.iter().take(upto) {
            match inst {
                Inst::AddrOf { dst, global } => {
                    let a = program.global(*global).addr;
                    addr_regs.insert(*dst, a);
                    referenced_globals.push(a);
                }
                Inst::Alloc { dst, .. } => {
                    if let Some(meta) = dump.heap_allocs.last() {
                        addr_regs.insert(*dst, meta.base);
                    }
                }
                _ => {}
            }
            if let Some(d) = inst.def_reg() {
                if !regs.contains(&d) {
                    regs.push(d);
                }
            }
            if let Inst::Store {
                addr: Operand::Reg(a),
                offset,
                ..
            } = inst
            {
                if let Some(base) = addr_regs.get(a) {
                    mems.push(base.wrapping_add(*offset as u64));
                }
            }
        }
        (regs, mems, referenced_globals)
    };
    let (regs, mems, referenced) = scan(pc.func, pc.block, pc.inst as usize);
    // Preference chain for registers: the partial range's own defs (the
    // most recently computed values — §3.2's "miscomputed addition"),
    // then the unique predecessor's defs.
    let mut out_regs = regs;
    let mut out_mems = mems;
    let mut out_referenced = referenced;
    if out_regs.is_empty() || out_mems.is_empty() {
        let cfg = mvm_isa::cfg::Cfg::build(program.func(pc.func));
        let preds = cfg.preds(pc.block);
        if preds.len() == 1 {
            let blen = program.func(pc.func).block(preds[0]).insts.len();
            let (pregs, pmems, preferenced) = scan(pc.func, preds[0], blen);
            if out_regs.is_empty() {
                out_regs = pregs;
            }
            if out_mems.is_empty() {
                out_mems = pmems;
            }
            out_referenced.extend(preferenced);
        }
    }
    // Memory fallback: a global the failing code names whose word is
    // non-zero (so some execution wrote or depends on it).
    if out_mems.is_empty() {
        let blk = program.func(pc.func).block(pc.block);
        for inst in &blk.insts {
            if let Inst::AddrOf { global, .. } = inst {
                out_referenced.push(program.global(*global).addr);
            }
        }
        for a in out_referenced {
            if dump.memory.read(a, mvm_isa::Width::W8) != 0 {
                out_mems.push(a);
                break;
            }
        }
    }
    if out_mems.is_empty() {
        out_mems = accessed_words(program, dump);
    }
    (out_regs, out_mems)
}

/// The mapped words the faulting block's executed portion loaded or
/// stored through a register, in program order. A base register that no
/// later instruction of the portion (nor the access itself) redefines
/// still holds, in the dump, the address it had at the access.
fn accessed_words(program: &Program, dump: &Coredump) -> Vec<u64> {
    let pc = dump.fault_pc();
    let Some(frame) = dump.faulting_thread().frames.last() else {
        return Vec::new();
    };
    let insts = &program.func(pc.func).block(pc.block).insts;
    let executed = &insts[..(pc.inst as usize).min(insts.len())];
    let mut out = Vec::new();
    for (i, inst) in executed.iter().enumerate() {
        let (base, offset) = match inst {
            Inst::Load {
                addr: Operand::Reg(base),
                offset,
                ..
            }
            | Inst::Store {
                addr: Operand::Reg(base),
                offset,
                ..
            } => (*base, *offset),
            _ => continue,
        };
        if executed[i..]
            .iter()
            .any(|later| later.def_reg() == Some(base))
        {
            continue;
        }
        let addr = frame.reg(base).wrapping_add(offset as u64);
        if dump.memory.read_byte(addr).is_some() && !out.contains(&addr) {
            out.push(addr);
        }
    }
    out
}

/// Corrupts `dump` at a consequential site (preferring state the
/// failing code actually computed). A bit flip with no consequential
/// memory site leaves the dump untouched and returns `None`; a register
/// corruption with no consequential register falls back to a random
/// register of the faulting frame. Deterministic in `seed`.
pub fn corrupt_consequential(
    program: &Program,
    dump: &mut Coredump,
    seed: u64,
    flavor: HwFlavor,
) -> Option<InjectionReport> {
    let (regs, mems) = consequential_sites(program, dump);
    match flavor {
        HwFlavor::BitFlip => mems
            .first()
            .map(|&addr| flip_memory_bit_at(dump, addr, (seed % 8) as u8)),
        HwFlavor::RegCorrupt => match regs.last() {
            Some(&reg) => Some(corrupt_register_at(dump, 0, reg, seed | 0x10)),
            None => Some(corrupt_register(dump, seed ^ 0xc0de)),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvm_isa::asm::assemble;
    use mvm_machine::{Machine, MachineConfig};

    fn dump() -> Coredump {
        let p = assemble(
            "global g 8 = 5\nfunc main() {\nentry:\n  addr r0, g\n  load r1, [r0]\n  assert 0, \"x\"\n  halt\n}",
        )
        .unwrap();
        let mut m = Machine::new(&p, MachineConfig::default());
        m.run();
        Coredump::capture(&m)
    }

    #[test]
    fn targeted_flip_hits_requested_address() {
        let mut d = dump();
        let g_addr = mvm_isa::layout::GLOBAL_BASE;
        let r = flip_memory_bit_at(&mut d, g_addr, 0);
        let InjectionReport::MemoryBitFlip { before, after, .. } = r else {
            panic!("wrong report kind")
        };
        assert_eq!(before, 5);
        assert_eq!(after, 4);
        assert_eq!(d.memory.read_byte(g_addr), Some(4));
    }

    /// A bit flip with no consequential memory site is no corruption:
    /// the dump stays as it was.
    #[test]
    fn bit_flip_without_a_consequential_site_is_none() {
        let p = assemble("func main() {\nentry:\n  assert 0, \"x\"\n  halt\n}").unwrap();
        let mut m = Machine::new(&p, MachineConfig::default());
        m.run();
        let mut d = Coredump::capture(&m);
        let orig = d.clone();
        assert_eq!(consequential_sites(&p, &d).1, Vec::<u64>::new());
        assert_eq!(
            corrupt_consequential(&p, &mut d, 3, HwFlavor::BitFlip),
            None
        );
        assert_eq!(d, orig);
    }

    #[test]
    fn register_corruption_changes_value() {
        let mut d = dump();
        let r = corrupt_register(&mut d, 99);
        let InjectionReport::RegisterCorrupt {
            tid,
            frame,
            reg,
            before,
            after,
        } = r
        else {
            panic!("wrong report kind")
        };
        assert_ne!(before, after);
        let t = d.thread(tid).unwrap();
        assert_eq!(t.frames[frame].reg(Reg(reg)), after);
    }
}
