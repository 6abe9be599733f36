//! Suffix identity: `ExecutionSuffix::identity_bytes` against the
//! derived `Debug`, its reference.
//!
//! A triage answer carries each suffix as its identity text
//! (`SuffixSummary::bytes`), written directly by `identity_bytes`. It
//! must equal `format!("{s:?}")`, the reference, byte for byte. The check
//! runs as a property on arbitrary suffixes (every enum variant, extreme
//! integers, empty and multi-entry maps, nested expression trees), and on
//! every suffix synthesized for dumps of every generator class, plain and
//! relaxed. Reproduce a property failure with
//! `RES_PROP_SEED=<seed> cargo test --test suffix_identity`.

use std::collections::BTreeMap;
use std::rc::Rc;

use mvm_prng::Xoshiro256StarStar;
use proptest_mini::{check, prop_assert_eq, Config, Gen};
use res_debugger::coredump::HwFlavor;
use res_debugger::isa::{BinOp, BlockId, FuncId, InputKind, Loc, Reg, UnOp, Width};
use res_debugger::res::blockexec::{EndPoint, Tag, Tagged, Transfer};
use res_debugger::res::{ExecutionSuffix, Relax, ResConfig, ResEngine, SuffixStep};
use res_debugger::symbolic::{Expr, ExprRef, Model};
use res_debugger::triage::{triage, TriageRequest};
use res_debugger::workloads::gen::{
    collect_failures, corpus_specs, generate, hardware_variant, GenClass,
};

const BIN_OPS: [BinOp; 17] = [
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
    BinOp::DivU,
    BinOp::RemU,
    BinOp::And,
    BinOp::Or,
    BinOp::Xor,
    BinOp::Shl,
    BinOp::Shr,
    BinOp::Sar,
    BinOp::Eq,
    BinOp::Ne,
    BinOp::LtU,
    BinOp::LeU,
    BinOp::LtS,
    BinOp::LeS,
];
const UN_OPS: [UnOp; 2] = [UnOp::Not, UnOp::Neg];
const WIDTHS: [Width; 4] = [Width::W1, Width::W2, Width::W4, Width::W8];
const INPUT_KINDS: [InputKind; 5] = [
    InputKind::Network,
    InputKind::File,
    InputKind::Time,
    InputKind::Random,
    InputKind::Env,
];

fn pick<T: Copy>(rng: &mut Xoshiro256StarStar, from: &[T]) -> T {
    from[rng.next_below(from.len() as u64) as usize]
}

/// A `u64` biased toward the edges the writer must get right: one and
/// two digits, the digit-count boundaries, and `u64::MAX`.
fn num(rng: &mut Xoshiro256StarStar) -> u64 {
    match rng.next_below(6) {
        0 => rng.next_below(10),
        1 => pick(rng, &[9, 10, 99, 100, 255, 256, 4096]),
        2 => u64::MAX - rng.next_below(2),
        3 => u64::from(u32::MAX) + rng.next_below(2),
        4 => rng.next_below(1 << 20),
        _ => rng.next_u64(),
    }
}

fn loc(rng: &mut Xoshiro256StarStar) -> Loc {
    Loc {
        func: FuncId(num(rng) as u32),
        block: BlockId(num(rng) as u32),
        inst: num(rng) as u32,
    }
}

fn expr(rng: &mut Xoshiro256StarStar, depth: u32) -> ExprRef {
    // Raw nodes, not the smart constructors: those fold constants and
    // would keep some shapes out of the population.
    let leaf = depth == 0 || rng.next_below(3) == 0;
    Rc::new(match rng.next_below(if leaf { 2 } else { 4 }) {
        0 => Expr::Const(num(rng)),
        1 => Expr::Sym(num(rng) as u32),
        2 => Expr::Bin(
            pick(rng, &BIN_OPS),
            expr(rng, depth - 1),
            expr(rng, depth - 1),
        ),
        _ => Expr::Un(pick(rng, &UN_OPS), expr(rng, depth - 1)),
    })
}

fn tag(rng: &mut Xoshiro256StarStar) -> Tag {
    match rng.next_below(5) {
        0 => Tag::Path,
        1 => Tag::MemCompat {
            addr: num(rng),
            width: pick(rng, &WIDTHS),
        },
        2 => Tag::RegCompat {
            reg: Reg(rng.next_u64() as u8),
        },
        3 => Tag::CallBind {
            reg: Reg(rng.next_u64() as u8),
        },
        _ => Tag::Pin,
    }
}

fn vec_of<T>(
    rng: &mut Xoshiro256StarStar,
    max: u64,
    mut f: impl FnMut(&mut Xoshiro256StarStar) -> T,
) -> Vec<T> {
    (0..rng.next_below(max + 1)).map(|_| f(rng)).collect()
}

fn step(rng: &mut Xoshiro256StarStar) -> SuffixStep {
    let depth_delta = match rng.next_below(5) {
        0 => 0,
        1 => 1,
        2 => -1 - rng.next_below(1000) as i32,
        3 => pick(rng, &[i32::MIN, i32::MAX]),
        _ => rng.next_u64() as i32,
    };
    SuffixStep {
        tid: num(rng),
        frame_depth: num(rng) as usize,
        start: loc(rng),
        end: EndPoint {
            depth_delta,
            loc: loc(rng),
        },
        transfers: vec_of(rng, 3, |rng| Transfer {
            from: loc(rng),
            to: loc(rng),
            inferrable: rng.next_bool(1, 2),
        }),
        inputs: vec_of(rng, 3, |rng| num(rng) as u32),
        input_kinds: vec_of(rng, 3, |rng| pick(rng, &INPUT_KINDS)),
        allocs: num(rng) as usize,
        frees: vec_of(rng, 2, num),
        reads: vec_of(rng, 3, |rng| (num(rng), pick(rng, &WIDTHS))),
        writes: vec_of(rng, 3, |rng| (num(rng), pick(rng, &WIDTHS))),
        steps: num(rng),
    }
}

fn map_of<V>(
    rng: &mut Xoshiro256StarStar,
    mut f: impl FnMut(&mut Xoshiro256StarStar) -> V,
) -> BTreeMap<u64, V> {
    (0..rng.next_below(4)).map(|_| (num(rng), f(rng))).collect()
}

fn suffix(rng: &mut Xoshiro256StarStar) -> ExecutionSuffix {
    let mut model = Model::new();
    for _ in 0..rng.next_below(5) {
        model.set(num(rng) as u32, num(rng));
    }
    ExecutionSuffix {
        steps: vec_of(rng, 3, step),
        model,
        initial_cells: vec_of(rng, 3, |rng| (num(rng), pick(rng, &WIDTHS), num(rng))),
        initial_regs: map_of(rng, |rng| (num(rng) as usize, vec_of(rng, 4, num))),
        start_positions: map_of(rng, |rng| (num(rng) as usize, loc(rng))),
        inputs: map_of(rng, |rng| vec_of(rng, 3, num)),
        constraints: vec_of(rng, 4, |rng| Tagged {
            expr: expr(rng, 4),
            tag: tag(rng),
        }),
        approximate: rng.next_bool(1, 2),
    }
}

/// Arbitrary suffixes, shrinking toward fewer steps and constraints.
fn suffixes() -> Gen<ExecutionSuffix> {
    Gen::new(suffix, |s: &ExecutionSuffix| {
        let mut out = Vec::new();
        for i in 0..s.steps.len() {
            let mut c = s.clone();
            c.steps.remove(i);
            out.push(c);
        }
        for i in 0..s.constraints.len() {
            let mut c = s.clone();
            c.constraints.remove(i);
            out.push(c);
        }
        out
    })
}

fn assert_identity(what: &str, s: &ExecutionSuffix) {
    assert_eq!(s.identity_bytes(), format!("{s:?}"), "{what}");
}

#[test]
fn arbitrary_suffixes_write_like_debug() {
    check(
        "arbitrary_suffixes_write_like_debug",
        &Config::new(),
        &suffixes(),
        |s| {
            prop_assert_eq!(s.identity_bytes(), format!("{s:?}"));
            Ok(())
        },
    );
}

#[test]
fn every_variant_and_edge_value_writes_like_debug() {
    let at = |i: u32| Loc {
        func: FuncId(i),
        block: BlockId(u32::MAX),
        inst: 0,
    };
    let steps = INPUT_KINDS
        .iter()
        .zip(WIDTHS.iter().cycle())
        .enumerate()
        .map(|(i, (&kind, &width))| SuffixStep {
            tid: i as u64,
            frame_depth: usize::MAX,
            start: at(i as u32),
            end: EndPoint {
                depth_delta: [0, 1, -1, i32::MIN, i32::MAX][i],
                loc: at(7),
            },
            transfers: vec![Transfer {
                from: at(1),
                to: at(2),
                inferrable: i % 2 == 0,
            }],
            inputs: vec![u32::MAX, 0],
            input_kinds: vec![kind],
            allocs: i,
            frees: vec![u64::MAX],
            reads: vec![(u64::MAX, width)],
            writes: vec![],
            steps: 10u64.pow(i as u32),
        })
        .collect();
    let mut constraints: Vec<Tagged> = BIN_OPS
        .iter()
        .map(|&op| Tagged {
            expr: Rc::new(Expr::Bin(op, Expr::sym(u32::MAX), Expr::konst(u64::MAX))),
            tag: Tag::Path,
        })
        .collect();
    let tags = [
        Tag::MemCompat {
            addr: 0,
            width: Width::W1,
        },
        Tag::RegCompat { reg: Reg(255) },
        Tag::CallBind { reg: Reg(0) },
        Tag::Pin,
    ];
    for (op, tag) in UN_OPS.iter().cycle().zip(tags) {
        let nested = Rc::new(Expr::Un(*op, Rc::new(Expr::Un(UnOp::Neg, Expr::konst(10)))));
        constraints.push(Tagged { expr: nested, tag });
    }
    let mut model = Model::new();
    model.set(0, u64::MAX);
    model.set(u32::MAX, 0);
    let full = ExecutionSuffix {
        steps,
        model,
        initial_cells: vec![(u64::MAX, Width::W8, 0), (1, Width::W2, 99)],
        initial_regs: [(0, (0, vec![])), (u64::MAX, (3, vec![1, u64::MAX]))].into(),
        start_positions: [(0, (0, at(0))), (1, (usize::MAX, at(3)))].into(),
        inputs: [(0, vec![]), (2, vec![5, 6])].into(),
        constraints,
        approximate: true,
    };
    assert_identity("every variant", &full);
    let empty = ExecutionSuffix {
        steps: vec![],
        model: Model::new(),
        initial_cells: vec![],
        initial_regs: BTreeMap::new(),
        start_positions: BTreeMap::new(),
        inputs: BTreeMap::new(),
        constraints: vec![],
        approximate: false,
    };
    assert_identity("empty", &empty);
}

/// Every suffix synthesized for dumps of every generator class, plain
/// and relaxed (`Relax::Reg` on genuine dumps, `Relax::Mem` over the
/// globals of hardware-corrupted ones), and every triage answer's bytes.
#[test]
fn synthesized_suffixes_write_like_debug() {
    let cfg = ResConfig::default();
    let (mut plain, mut relaxed) = (0, 0);
    for (i, class) in GenClass::ALL.into_iter().enumerate() {
        let gp = generate(corpus_specs(&[class], 1, 60 + i as u64, 1)[0]);
        let failures = collect_failures(&gp, 2);
        let program = &gp.program;
        let engine = ResEngine::new(program, cfg.clone());
        for (k, f) in failures.iter().enumerate() {
            let what = format!("{class:?} dump {k}");
            let result = engine.synthesize(&f.dump);
            for s in &result.suffixes {
                assert_identity(&what, s);
                plain += 1;
            }
            let resp = triage(&TriageRequest::new(program.clone(), f.dump.clone()), &cfg);
            let direct: Vec<String> = result.suffixes.iter().map(|s| format!("{s:?}")).collect();
            // A hang is answered from its blocked sites, without a search.
            if !resp.deadlock {
                let answered: Vec<String> = resp.suffixes.into_iter().map(|s| s.bytes).collect();
                assert_eq!(answered, direct, "{what}: triage bytes");
            }
            for reg in 0..4 {
                let relax = Relax::Reg { reg: Reg(reg) };
                for s in &engine.synthesize_relaxed(&f.dump, relax).suffixes {
                    assert_identity(&format!("{what} {relax:?}"), s);
                    relaxed += 1;
                }
            }
        }
        if let Some(f) = failures.first() {
            let (dump, _) = hardware_variant(&gp, f, HwFlavor::BitFlip);
            let globals = (dump.globals_end - res_debugger::isa::layout::GLOBAL_BASE) / 8;
            for w in 0..globals.min(8) {
                let relax = Relax::Mem {
                    addr: res_debugger::isa::layout::GLOBAL_BASE + 8 * w,
                };
                for s in &engine.synthesize_relaxed(&dump, relax).suffixes {
                    assert_identity(&format!("{class:?} corrupted {relax:?}"), s);
                    relaxed += 1;
                }
            }
        }
    }
    assert!(plain >= 10, "only {plain} plain suffixes checked");
    assert!(relaxed >= 10, "only {relaxed} relaxed suffixes checked");
}
