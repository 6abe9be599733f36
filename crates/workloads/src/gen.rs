//! `res-gen` — the seeded buggy-program generator.
//!
//! The handwritten programs in [`progs`](crate::progs) make the §3
//! claims *demonstrable*; this module makes them *statistical*. Given a
//! [`GenSpec`] it deterministically emits a well-formed MicroVM program
//! containing exactly one planted bug of a known [`GenClass`], plus the
//! labeled [`GroundTruth`] (class, root-cause site, and a schedule seed
//! under which the bug manifests). Corpus-scale experiments then run
//! E5/E6/E7 over hundreds of *distinct* generated programs instead of a
//! dozen fixed ones.
//!
//! # Determinism contract
//!
//! `generate` is a pure function of its `GenSpec`: same spec → byte-
//! identical assembly source, byte-identical assembled [`Program`], and
//! the same `schedule_hint` (pinned by `tests/gen_golden.rs`). All
//! randomness flows from one `mvm-prng` stream seeded by
//! `SplitMix64::mix(spec.seed, …)`; no ambient entropy (time, ASLR,
//! thread timing) is consulted. The surrounding *churn* — prefix-loop
//! length, scratch arithmetic, identifier names, constants — varies per
//! seed so that every generated program has a distinct fingerprint and
//! non-trivial code around the planted bug, while the bug template
//! itself stays small enough for the engine's default budgets.
//!
//! # Class taxonomy
//!
//! | class | manifests | fault class |
//! |---|---|---|
//! | `DataRace` | racy schedule | `assert-failed` (lost update) |
//! | `UseAfterFree` | always | `use-after-free` (1–3 input-selected deref paths) |
//! | `DoubleFree` | always | `double-free` |
//! | `Deadlock` | always | `deadlock` (join/lock cycle) |
//! | `LockInversion` | racy schedule | `deadlock` (ABBA) |
//! | `DivByZero` | always | `div-by-zero` |
//! | `AssertViolation` | always | `assert-failed` |
//! | `TaintedOverflow` | most input seeds | `heap-overflow`/`invalid-access` |
//! | `LocalOverflow` | always | `heap-overflow`/`invalid-access` |
//!
//! Hardware-corruption variants are produced post hoc from any
//! generated failure via [`hardware_variant`], which reuses the
//! `mvm-core` injectors at consequential sites (§3.2).

use mvm_core::{corrupt_consequential, Coredump, HwFlavor, InjectionReport, Minidump};
use mvm_isa::{asm::assemble, Program};
use mvm_prng::{SplitMix64, Xoshiro256StarStar};

use crate::corpus::run_to_failure;

/// The generator's bug classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GenClass {
    /// Unsynchronized counter increments; a final assertion over the
    /// expected total fails under a racy schedule.
    DataRace,
    /// Free then read through a published pointer; the deref path is
    /// selected by an (environment) input, so one bug manifests with
    /// several distinct call stacks — the §3.1 splitting phenomenon.
    UseAfterFree,
    /// The same block freed on two paths.
    DoubleFree,
    /// A join/lock cycle: the spawner holds the mutex its child needs
    /// and joins the child — deadlocks under every schedule.
    Deadlock,
    /// Two workers acquire two mutexes in opposite orders — deadlocks
    /// only under an interleaved schedule.
    LockInversion,
    /// A counter is drained to zero and then divided by.
    DivByZero,
    /// A parity invariant over a config cell is violated.
    AssertViolation,
    /// Heap store indexed by attacker-controlled (network) input.
    TaintedOverflow,
    /// Heap store indexed by a locally computed out-of-range value.
    LocalOverflow,
}

impl GenClass {
    /// Every class, for corpus sweeps.
    pub const ALL: [GenClass; 9] = [
        GenClass::DataRace,
        GenClass::UseAfterFree,
        GenClass::DoubleFree,
        GenClass::Deadlock,
        GenClass::LockInversion,
        GenClass::DivByZero,
        GenClass::AssertViolation,
        GenClass::TaintedOverflow,
        GenClass::LocalOverflow,
    ];

    /// A stable name for labels and reports.
    pub fn name(self) -> &'static str {
        match self {
            GenClass::DataRace => "data-race",
            GenClass::UseAfterFree => "use-after-free",
            GenClass::DoubleFree => "double-free",
            GenClass::Deadlock => "deadlock",
            GenClass::LockInversion => "lock-inversion",
            GenClass::DivByZero => "div-by-zero",
            GenClass::AssertViolation => "assert-violation",
            GenClass::TaintedOverflow => "tainted-overflow",
            GenClass::LocalOverflow => "local-overflow",
        }
    }

    /// `true` when the failing execution involves multiple threads.
    pub fn is_concurrent(self) -> bool {
        matches!(
            self,
            GenClass::DataRace | GenClass::Deadlock | GenClass::LockInversion
        )
    }

    /// The machine fault classes this bug is allowed to die with (the
    /// ground-truth check the property tests enforce). Overflow indexes
    /// can land in a redzone (`heap-overflow`) or past every mapping
    /// (`invalid-access`); every other class has exactly one outcome.
    pub fn expected_fault_classes(self) -> &'static [&'static str] {
        match self {
            GenClass::DataRace | GenClass::AssertViolation => &["assert-failed"],
            GenClass::UseAfterFree => &["use-after-free"],
            GenClass::DoubleFree => &["double-free"],
            GenClass::Deadlock | GenClass::LockInversion => &["deadlock"],
            GenClass::DivByZero => &["div-by-zero"],
            GenClass::TaintedOverflow | GenClass::LocalOverflow => {
                &["heap-overflow", "invalid-access"]
            }
        }
    }

    /// A per-class salt so the same numeric seed yields unrelated
    /// programs across classes.
    fn salt(self) -> u64 {
        match self {
            GenClass::DataRace => 0x7ace,
            GenClass::UseAfterFree => 0x0af0,
            GenClass::DoubleFree => 0xdbf0,
            GenClass::Deadlock => 0xdead,
            GenClass::LockInversion => 0x10c1,
            GenClass::DivByZero => 0xd1f0,
            GenClass::AssertViolation => 0xa55e,
            GenClass::TaintedOverflow => 0x7a1e,
            GenClass::LocalOverflow => 0x10ca,
        }
    }
}

/// What to generate. `generate` is a pure function of this value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GenSpec {
    /// Master seed: drives every random choice in the template.
    pub seed: u64,
    /// The planted bug class.
    pub class: GenClass,
    /// Churn scale: 0 = minimal prefix, larger = longer prefix loop and
    /// more scratch work (the "arbitrarily long" knob, like
    /// [`WorkloadParams::prefix_iters`](crate::WorkloadParams)).
    pub size: u32,
}

impl GenSpec {
    /// A spec with the default (small) size.
    pub fn new(class: GenClass, seed: u64) -> GenSpec {
        GenSpec {
            seed,
            class,
            size: 1,
        }
    }
}

/// The generator's label for the planted bug.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroundTruth {
    /// The planted class.
    pub class: GenClass,
    /// Root-cause site as `func:block` — the block containing the
    /// planted defect (for `UseAfterFree` the *free*, not the deref).
    pub site: String,
    /// A machine seed (for [`run_to_failure`]) under which the bug
    /// manifests with the expected fault class.
    pub schedule_hint: u64,
}

/// One generated program with its label.
#[derive(Debug, Clone)]
pub struct GeneratedProgram {
    /// The spec that produced it.
    pub spec: GenSpec,
    /// The assembly source (diagnostics; the program is its assembly).
    pub source: String,
    /// The assembled program.
    pub program: Program,
    /// The label.
    pub truth: GroundTruth,
}

/// One labeled failure of a generated program.
#[derive(Debug, Clone)]
pub struct GenFailure {
    /// The machine seed that produced this failure.
    pub seed: u64,
    /// The fault class the machine reported.
    pub fault_class: &'static str,
    /// The captured coredump.
    pub dump: Coredump,
    /// The WER-style minidump subset.
    pub minidump: Minidump,
}

/// How many schedule seeds to scan for a manifestation before rerolling
/// the template (concurrency bugs do not manifest under every
/// schedule; the deterministic classes hit the first seed).
const HINT_SCAN: u64 = 600;
/// Template rerolls before giving up (a reroll redraws every random
/// choice, so repeated failure indicates a template bug, not bad luck).
const MAX_REROLLS: u32 = 8;

/// Derives the `j`-th candidate machine seed for `spec`. Shared by hint
/// discovery and [`collect_failures`] so the hint is always the first
/// seed the scan visits.
fn machine_seed(spec: GenSpec, j: u64) -> u64 {
    SplitMix64::mix(spec.seed ^ spec.class.salt().rotate_left(32), j)
}

/// Generates the program for `spec`.
///
/// # Panics
///
/// Panics on internal template errors (a template that fails to
/// assemble or to manifest its bug within the reroll budget) — these
/// are generator bugs, deterministic in the spec, and caught by the
/// property tests over many specs.
pub fn generate(spec: GenSpec) -> GeneratedProgram {
    let mut rng = Xoshiro256StarStar::new(SplitMix64::mix(
        spec.seed ^ spec.class.salt(),
        0x9e57 + spec.size as u64,
    ));
    for _reroll in 0..MAX_REROLLS {
        let (source, site) = render_template(spec, &mut rng);
        let program = assemble(&source).unwrap_or_else(|e| {
            panic!(
                "generated {:?} program failed to assemble: {e}\n{source}",
                spec.class
            )
        });
        // Hint discovery: the first scanned seed whose failure carries
        // the expected fault class becomes the schedule hint.
        let expected = spec.class.expected_fault_classes();
        for j in 0..HINT_SCAN {
            let seed = machine_seed(spec, j);
            let Some(m) = run_to_failure(&program, seed) else {
                continue;
            };
            let dump = Coredump::capture(&m);
            if expected.contains(&dump.fault.class()) {
                return GeneratedProgram {
                    spec,
                    source,
                    program,
                    truth: GroundTruth {
                        class: spec.class,
                        site,
                        schedule_hint: seed,
                    },
                };
            }
        }
        // Reroll: the rng stream continues, so the next template is a
        // fresh (but still spec-deterministic) draw.
    }
    panic!("generator exhausted {MAX_REROLLS} rerolls without a manifestation for {spec:?}");
}

/// Collects the first `n` labeled failures of a generated program,
/// scanning the same deterministic seed sequence hint discovery used
/// (so `failures[0].seed == truth.schedule_hint`). Failures with an
/// unexpected fault class are skipped; the scan is bounded.
///
/// # Panics
///
/// Panics if fewer than `n` manifestations exist in the scan bound.
pub fn collect_failures(gp: &GeneratedProgram, n: usize) -> Vec<GenFailure> {
    let expected = gp.spec.class.expected_fault_classes();
    let mut out = Vec::with_capacity(n);
    let bound = HINT_SCAN + n as u64 * 200;
    for j in 0..bound {
        if out.len() >= n {
            break;
        }
        let seed = machine_seed(gp.spec, j);
        let Some(m) = run_to_failure(&gp.program, seed) else {
            continue;
        };
        let dump = Coredump::capture(&m);
        let class = dump.fault.class();
        if !expected.contains(&class) {
            continue;
        }
        let minidump = Minidump::from_coredump(&dump);
        out.push(GenFailure {
            seed,
            fault_class: class,
            dump,
            minidump,
        });
    }
    assert!(
        out.len() >= n,
        "only {} of {n} requested failures manifested for {:?}",
        out.len(),
        gp.spec
    );
    out
}

/// A §3.2 hardware-corruption variant of a generated failure: the dump
/// is corrupted post hoc at a consequential site, exactly how the
/// labeled-corpus hardware filter (E7) manufactures its positives.
pub fn hardware_variant(
    gp: &GeneratedProgram,
    failure: &GenFailure,
    flavor: HwFlavor,
) -> (Coredump, Option<InjectionReport>) {
    let mut dump = failure.dump.clone();
    let report = corrupt_consequential(&gp.program, &mut dump, failure.seed, flavor);
    (dump, report)
}

/// Round-robins `classes` over `programs` slots, deriving a distinct
/// per-program seed from `master_seed` — the corpus-scale experiments'
/// work list.
pub fn corpus_specs(
    classes: &[GenClass],
    programs: usize,
    master_seed: u64,
    size: u32,
) -> Vec<GenSpec> {
    assert!(!classes.is_empty(), "corpus needs at least one class");
    (0..programs)
        .map(|i| GenSpec {
            seed: SplitMix64::mix(master_seed, i as u64),
            class: classes[i % classes.len()],
            size,
        })
        .collect()
}

// ---------------------------------------------------------------------
// Template rendering.

/// Renders the randomized assembly for `spec`, returning the source and
/// the ground-truth site (`func:block`). Consumes draws from `rng`.
fn render_template(spec: GenSpec, rng: &mut Xoshiro256StarStar) -> (String, String) {
    let churn = Churn::draw(spec.size, rng);
    let (decls, body, site_block) = match spec.class {
        GenClass::DataRace => data_race(rng),
        GenClass::UseAfterFree => use_after_free(rng),
        GenClass::DoubleFree => double_free(rng),
        GenClass::Deadlock => deadlock(rng),
        GenClass::LockInversion => lock_inversion(rng),
        GenClass::DivByZero => div_by_zero(rng),
        GenClass::AssertViolation => assert_violation(rng),
        GenClass::TaintedOverflow => overflow(rng, true),
        GenClass::LocalOverflow => overflow(rng, false),
    };
    let source = format!(
        "{decls}{prefix}{body}            }}\n",
        prefix = churn.prefix()
    );
    (source, format!("main:{site_block}"))
}

/// A short random identifier suffix (hex), so generated programs have
/// distinct symbol tables (and therefore distinct fingerprints) even
/// when the same template shape is drawn.
fn tag(rng: &mut Xoshiro256StarStar) -> String {
    format!("{:04x}", rng.next_below(0x1_0000))
}

/// The randomized churn prefix: like `progs::prefix`, `main` runs a
/// scratch loop before entering the buggy region, but iteration count,
/// arithmetic, and names vary per draw.
struct Churn {
    scratch: String,
    iters: u64,
    ops: Vec<String>,
}

impl Churn {
    fn draw(size: u32, rng: &mut Xoshiro256StarStar) -> Churn {
        let scratch = format!("scr_{}", tag(rng));
        let lo = 2 + 4 * size as u64;
        let hi = 6 + 12 * size as u64;
        let iters = rng.next_in(lo, hi);
        let nops = rng.next_in(2, 4);
        // Only ops the suffix solver back-infers exactly (invertible
        // over u64): non-invertible ops like `or` compose into chains
        // the engine over-approximates, and the replay check would then
        // reject every candidate suffix that starts inside the loop.
        let ops = (0..nops)
            .map(|_| match rng.next_below(5) {
                0 => "add r23, r23, r20".to_string(),
                1 => format!("xor r23, r23, {}", rng.next_in(1, 255)),
                2 => format!("add r23, r23, {}", rng.next_in(1, 99)),
                3 => format!("sub r23, r23, {}", rng.next_in(1, 99)),
                _ => format!("mul r23, r23, {}", 2 * rng.next_in(1, 31) + 1),
            })
            .collect();
        Churn {
            scratch,
            iters,
            ops,
        }
    }

    fn prefix(&self) -> String {
        let ops: String = self
            .ops
            .iter()
            .map(|o| format!("                {o}\n"))
            .collect();
        format!(
            r#"            global {scratch} 8
            func main() {{
            entry:
                mov r20, {iters}
                addr r21, {scratch}
                jmp churn
            churn:
                eq r22, r20, 0
                br r22, bug_entry, churn_body
            churn_body:
                load r23, [r21]
{ops}                store r23, [r21]
                sub r20, r20, 1
                jmp churn
"#,
            scratch = self.scratch,
            iters = self.iters,
        )
    }
}

/// Lost-update data race: two workers increment a shared counter
/// without a lock; the final assertion expects the race-free total.
fn data_race(rng: &mut Xoshiro256StarStar) -> (String, String, &'static str) {
    let cnt = format!("cnt_{}", tag(rng));
    let exp = format!("exp_{}", tag(rng));
    let w = format!("bump_{}", tag(rng));
    let per = rng.next_in(6, 18);
    let decls = format!(
        r#"            global {cnt} 8
            global {exp} 8 = {total}
            func {w}(1) {{
            entry:
                mov r2, 0
                jmp loop
            loop:
                ltu r3, r2, {per}
                br r3, body, done
            body:
                load r6, [r0]
                add r6, r6, 1
                store r6, [r0]
                add r2, r2, 1
                jmp loop
            done:
                halt
            }}
"#,
        total = 2 * per,
    );
    let body = format!(
        r#"            bug_entry:
                addr r0, {cnt}
                spawn r1, {w}, r0
                spawn r2, {w}, r0
                join r1
                join r2
                jmp check
            check:
                load r3, [r0]
                addr r4, {exp}
                load r5, [r4]
                eq r6, r3, r5
                assert r6, "increments lost to a data race"
                halt
"#
    );
    (decls, body, "check")
}

/// Use-after-free with 1–3 input-selected deref helpers: the free (the
/// root cause) is one fixed site, the faulting deref is one of several
/// call stacks — WER splits, root-cause bucketing does not.
fn use_after_free(rng: &mut Xoshiro256StarStar) -> (String, String, &'static str) {
    let ptr = format!("ptr_{}", tag(rng));
    let helper = format!("deref_{}", tag(rng));
    let slots = rng.next_in(3, 4);
    let v = rng.next_in(1, 250);
    let paths = 1 + rng.next_below(3); // 1..=3 deref paths
    let mut decls = format!("            global {ptr} 8\n");
    for j in 0..paths {
        // Each path's helper body is *distinct* (different slot, extra
        // arithmetic) — identical duplicate functions would defeat the
        // engine's path discrimination, and real split-stack bugs
        // manifest through genuinely different code anyway.
        let off = 8 * (j % slots);
        let c = rng.next_in(1, 99);
        decls.push_str(&format!(
            r#"            func {helper}{j}(1) {{
            entry:
                load r1, [r0]
                load r2, [r1+{off}]
                add r2, r2, {c}
                ret r2
            }}
"#
        ));
    }
    let mut body = format!(
        r#"            bug_entry:
                alloc r1, {size}
                store {v}, [r1]
                addr r0, {ptr}
                store r1, [r0]
                free r1
                jmp pick
"#,
        size = 8 * slots,
    );
    match paths {
        1 => body.push_str(&format!(
            r#"            pick:
                call r7 = {helper}0(r0), done0
            done0:
                halt
"#
        )),
        2 => body.push_str(&format!(
            r#"            pick:
                input r3, env
                remu r4, r3, 2
                br r4, via0, via1
            via0:
                call r7 = {helper}0(r0), done0
            done0:
                halt
            via1:
                call r7 = {helper}1(r0), done1
            done1:
                halt
"#
        )),
        _ => body.push_str(&format!(
            r#"            pick:
                input r3, env
                remu r4, r3, 3
                eq r5, r4, 0
                br r5, via0, pick2
            pick2:
                eq r6, r4, 1
                br r6, via1, via2
            via0:
                call r7 = {helper}0(r0), done0
            done0:
                halt
            via1:
                call r7 = {helper}1(r0), done1
            done1:
                halt
            via2:
                call r7 = {helper}2(r0), done2
            done2:
                halt
"#
        )),
    }
    (decls, body, "bug_entry")
}

/// Double free with a little decoy work between the two frees.
fn double_free(rng: &mut Xoshiro256StarStar) -> (String, String, &'static str) {
    let size = 8 * rng.next_in(1, 4);
    let v = rng.next_in(1, 250);
    let c = rng.next_in(1, 99);
    let body = format!(
        r#"            bug_entry:
                alloc r0, {size}
                store {v}, [r0]
                free r0
                jmp again
            again:
                mov r2, {c}
                add r2, r2, 1
                free r0
                halt
"#
    );
    (String::new(), body, "again")
}

/// Join/lock cycle: main holds the mutex its child needs, then joins
/// the child. Every schedule ends with both threads blocked.
fn deadlock(rng: &mut Xoshiro256StarStar) -> (String, String, &'static str) {
    let m = format!("mtx_{}", tag(rng));
    let w = format!("grab_{}", tag(rng));
    let decls = format!(
        r#"            global {m} 8
            func {w}(1) {{
            entry:
                lock r0
                unlock r0
                halt
            }}
"#
    );
    let body = format!(
        r#"            bug_entry:
                addr r1, {m}
                lock r1
                spawn r2, {w}, r1
                join r2
                unlock r1
                halt
"#
    );
    (decls, body, "bug_entry")
}

/// ABBA lock inversion: main and a worker acquire two mutexes in
/// opposite orders; only an interleaved schedule deadlocks.
fn lock_inversion(rng: &mut Xoshiro256StarStar) -> (String, String, &'static str) {
    let a = format!("mtx_a_{}", tag(rng));
    let b = format!("mtx_b_{}", tag(rng));
    let w = format!("inv_{}", tag(rng));
    let decls = format!(
        r#"            global {a} 8
            global {b} 8
            func {w}(1) {{
            entry:
                addr r1, {b}
                lock r1
                addr r2, {a}
                lock r2
                unlock r2
                unlock r1
                halt
            }}
"#
    );
    let body = format!(
        r#"            bug_entry:
                addr r1, {a}
                lock r1
                spawn r3, {w}, 0
                addr r2, {b}
                lock r2
                unlock r2
                unlock r1
                join r3
                halt
"#
    );
    (decls, body, "bug_entry")
}

/// A counter drained to zero, then divided by.
fn div_by_zero(rng: &mut Xoshiro256StarStar) -> (String, String, &'static str) {
    let q = format!("quota_{}", tag(rng));
    let k = rng.next_in(1, 9);
    let n = rng.next_in(100, 5000);
    let decls = format!("            global {q} 8 = {k}\n");
    let body = format!(
        r#"            bug_entry:
                addr r0, {q}
                load r1, [r0]
                sub r1, r1, {k}
                store r1, [r0]
                jmp divide
            divide:
                load r2, [r0]
                divu r3, {n}, r2
                halt
"#
    );
    (decls, body, "divide")
}

/// A parity invariant the config value violates (the random arithmetic
/// between load and check preserves oddness).
fn assert_violation(rng: &mut Xoshiro256StarStar) -> (String, String, &'static str) {
    let cfg = format!("cfg_{}", tag(rng));
    let odd = 2 * rng.next_in(0, 100) + 1;
    let even = 2 * rng.next_in(1, 50);
    let decls = format!("            global {cfg} 8 = {odd}\n");
    let body = format!(
        r#"            bug_entry:
                addr r0, {cfg}
                load r1, [r0]
                add r1, r1, {even}
                jmp verify
            verify:
                remu r2, r1, 2
                eq r3, r2, 0
                assert r3, "config parity invariant violated"
                halt
"#
    );
    (decls, body, "verify")
}

/// Heap store with an out-of-range index — attacker-fed (`input net`,
/// `tainted`) or locally computed (a too-large constant in a global).
fn overflow(rng: &mut Xoshiro256StarStar, tainted: bool) -> (String, String, &'static str) {
    let slots = rng.next_in(2, 4);
    let size = 8 * slots;
    let v = rng.next_in(1, 250);
    if tainted {
        // Index = net input, scaled: almost every input value lands out
        // of bounds, so most input seeds manifest (like the handwritten
        // Figure-1 workload; in-bounds inputs are skipped by the seed
        // scan). No arithmetic the solver cannot invert sits between
        // the input and the faulting address.
        let body = format!(
            r#"            bug_entry:
                alloc r0, {size}
                input r1, net
                mul r3, r1, 8
                add r4, r0, r3
                store {v}, [r4]
                halt
"#
        );
        (String::new(), body, "bug_entry")
    } else {
        let lim = format!("lim_{}", tag(rng));
        let idx = slots + rng.next_below(2); // just past the payload
        let decls = format!("            global {lim} 8 = {idx}\n");
        let body = format!(
            r#"            bug_entry:
                alloc r0, {size}
                addr r1, {lim}
                load r2, [r1]
                mul r3, r2, 8
                add r4, r0, r3
                store {v}, [r4]
                halt
"#
        );
        (decls, body, "bug_entry")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generate_is_deterministic() {
        for class in GenClass::ALL {
            let spec = GenSpec::new(class, 7);
            let a = generate(spec);
            let b = generate(spec);
            assert_eq!(a.source, b.source, "{class:?}");
            assert_eq!(
                mvm_json::to_string(&a.program),
                mvm_json::to_string(&b.program),
                "{class:?}"
            );
            assert_eq!(a.truth, b.truth, "{class:?}");
        }
    }

    #[test]
    fn distinct_seeds_yield_distinct_programs() {
        let a = generate(GenSpec::new(GenClass::DivByZero, 1));
        let b = generate(GenSpec::new(GenClass::DivByZero, 2));
        assert_ne!(
            mvm_json::to_string(&a.program),
            mvm_json::to_string(&b.program)
        );
    }

    #[test]
    fn hint_manifests_with_expected_class() {
        for class in GenClass::ALL {
            let gp = generate(GenSpec::new(class, 42));
            let m = run_to_failure(&gp.program, gp.truth.schedule_hint)
                .unwrap_or_else(|| panic!("{class:?} hint did not fail"));
            let dump = Coredump::capture(&m);
            assert!(
                class.expected_fault_classes().contains(&dump.fault.class()),
                "{class:?} died with {}",
                dump.fault.class()
            );
        }
    }

    #[test]
    fn collect_failures_starts_at_the_hint() {
        let gp = generate(GenSpec::new(GenClass::UseAfterFree, 3));
        let fails = collect_failures(&gp, 3);
        assert_eq!(fails.len(), 3);
        assert_eq!(fails[0].seed, gp.truth.schedule_hint);
    }

    #[test]
    fn hardware_variant_changes_the_dump() {
        let gp = generate(GenSpec::new(GenClass::DivByZero, 5));
        let f = &collect_failures(&gp, 1)[0];
        let (hw_dump, report) = hardware_variant(&gp, f, HwFlavor::RegCorrupt);
        assert!(report.is_some());
        assert_ne!(mvm_json::to_string(&hw_dump), mvm_json::to_string(&f.dump));
    }

    /// Every memory word a consequential corruption flips in an E7c
    /// failure is one `consequential_sites` names, and every register it
    /// corrupts is one it names: the injector never reports a random
    /// site as a consequential one.
    #[test]
    fn consequential_corruptions_land_on_consequential_sites() {
        let classes = [
            GenClass::DataRace,
            GenClass::DivByZero,
            GenClass::LocalOverflow,
            GenClass::UseAfterFree,
        ];
        for spec in corpus_specs(&classes, 3 * classes.len(), 19, 1) {
            let gp = generate(spec);
            for f in collect_failures(&gp, 2) {
                let (regs, mems) = mvm_core::consequential_sites(&gp.program, &f.dump);
                for flavor in [HwFlavor::BitFlip, HwFlavor::RegCorrupt] {
                    match hardware_variant(&gp, &f, flavor).1 {
                        Some(InjectionReport::MemoryBitFlip { addr, .. }) => assert!(
                            mems.contains(&addr),
                            "{spec:?} {}: flipped {addr:#x}, sites {mems:x?}",
                            flavor.name()
                        ),
                        Some(InjectionReport::RegisterCorrupt { reg, .. }) => assert!(
                            regs.contains(&mvm_isa::Reg(reg)),
                            "{spec:?} {}: corrupted r{reg}, sites {regs:?}",
                            flavor.name()
                        ),
                        None => {}
                    }
                }
            }
        }
    }

    #[test]
    fn corpus_specs_round_robin_and_decorrelate() {
        let specs = corpus_specs(&[GenClass::DivByZero, GenClass::DoubleFree], 6, 9, 0);
        assert_eq!(specs.len(), 6);
        assert_eq!(specs[0].class, GenClass::DivByZero);
        assert_eq!(specs[1].class, GenClass::DoubleFree);
        let seeds: std::collections::HashSet<u64> = specs.iter().map(|s| s.seed).collect();
        assert_eq!(seeds.len(), 6);
    }
}
