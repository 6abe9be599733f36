//! The backward suffix search (paper §2.3–§2.4).
//!
//! Starting from the coredump, the engine repeatedly forms *predecessor
//! hypotheses* — which basic block (of which thread) executed
//! immediately before the earliest point reconstructed so far — and
//! keeps the hypotheses whose forward symbolic execution is compatible
//! with the later state. Each accepted hypothesis prepends one
//! block-granular step to the suffix; the search is depth-first with a
//! candidate-priority heuristic that prefers blocks writing memory the
//! suffix is known to read (the way a developer chases "who set this
//! value").
//!
//! Breadcrumbs (paper §2.4) prune aggressively when present: the
//! suffix's control transfers nearest the failure must match the dump's
//! LBR ring, and error-log emissions must match the retained log tail.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::rc::Rc;

use mvm_core::Coredump;
use mvm_isa::{
    cfg::CallGraph,
    BlockId,
    Inst,
    Loc,
    Program,
    Reg,
    Terminator, //
};
use mvm_json::{json_enum, json_struct};
use mvm_machine::ThreadId;
use mvm_symbolic::{
    ExprRef, Fixpoint, Model, SolveResult, SolverConfig, SolverSession, UnknownReason,
};
use res_obs::Recorder;
use res_store::{program_fingerprint, LoadOutcome, SolverStore};

use crate::blockexec::{run_hypothesis, EndPoint, HypSpec, Infeasible, Tag, Tagged};
use crate::hwerr::Relax;
use crate::kernel::{
    explore, Budget, ExploreConfig, Finalize, HypothesisGen, KernelStats, NodeScore,
    ParallelReport, StateTransform,
};
use crate::snapshot::Snapshot;
use crate::suffix::{ExecutionSuffix, SuffixStep};
use crate::symctx::{SymCtx, SymOrigin};

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct ResConfig {
    /// Maximum suffix length in block-granular steps.
    pub max_depth: usize,
    /// Maximum search nodes expanded.
    pub max_nodes: u64,
    /// Stop after this many complete suffixes.
    pub max_suffixes: usize,
    /// Per-hypothesis instruction budget.
    pub hyp_max_steps: u64,
    /// Cumulative solver-assignment budget for the whole search
    /// (`None` = unlimited; the solver's own per-query budget still
    /// applies).
    pub max_solver_assignments: Option<u64>,
    /// Wall-clock deadline for the whole search (`None` keeps the
    /// search fully deterministic).
    pub deadline: Option<std::time::Duration>,
    /// Ignored: the search runs on one thread. Kept only because the
    /// benchmark (`perfbench/`) sets it; it leaves together with the
    /// benchmark's `spec.w1`/`spec.w2` probes when the benchmark is
    /// next revised.
    pub workers: usize,
    /// Solver budgets.
    pub solver: SolverConfig,
    /// Persistent cross-run solver-result store (`res-store`). The
    /// engine absorbs the store before searching and appends every new
    /// renaming-equivariant result after each `synthesize*` call; a
    /// call that learns nothing new leaves the file untouched.
    /// Absorbed entries replay their original enumeration cost, so a
    /// warm run synthesizes byte-identical suffixes to a cold one.
    pub cache_path: Option<PathBuf>,
    /// Structured-tracing journal (JSONL, see `res-obs`). `None` (the
    /// default) disables tracing at near-zero cost. The recorder is
    /// strictly passive: enabling it cannot change which suffixes are
    /// found — the golden-fixture determinism gates run with it on.
    pub trace: Option<PathBuf>,
    /// Prune candidates against the dump's LBR ring.
    pub use_lbr: bool,
    /// Match only offline-underivable transfers (the §2.4 LBR filtering
    /// extension; must match how the ring was recorded).
    pub lbr_filtered: bool,
    /// Prune candidates against the dump's error-log tail.
    pub use_error_log: bool,
    /// Consider cross-thread predecessor hypotheses (schedule
    /// reconstruction).
    pub cross_thread: bool,
    /// Ablation A1: disable the `S' ⊇ Spost` over-approximation check.
    pub skip_compat_check: bool,
    /// Ablation A2: minidump mode — treat the dump's memory image as
    /// unavailable (stack and registers only).
    pub opaque_memory: bool,
}

impl Default for ResConfig {
    fn default() -> Self {
        ResConfig {
            max_depth: 12,
            max_nodes: 4000,
            max_suffixes: 4,
            hyp_max_steps: 4096,
            max_solver_assignments: None,
            deadline: None,
            workers: 1,
            solver: SolverConfig::default(),
            cache_path: None,
            trace: None,
            use_lbr: false,
            lbr_filtered: false,
            use_error_log: false,
            cross_thread: true,
            skip_compat_check: false,
            opaque_memory: false,
        }
    }
}

impl ResConfig {
    /// Starts a fluent [`ResConfigBuilder`] over the default config.
    pub fn builder() -> ResConfigBuilder {
        ResConfigBuilder::default()
    }

    /// The kernel [`Budget`] these knobs assemble into.
    pub fn budget(&self) -> Budget {
        Budget {
            max_nodes: self.max_nodes,
            hyp_max_steps: self.hyp_max_steps,
            max_solver_assignments: self.max_solver_assignments,
            deadline: self.deadline,
        }
    }
}

/// Fluent constructor for [`ResConfig`] — the supported way to deviate
/// from the defaults:
///
/// ```
/// use res_core::search::ResConfig;
///
/// let config = ResConfig::builder()
///     .max_depth(8)
///     .use_lbr(true)
///     .build();
/// assert_eq!(config.max_depth, 8);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ResConfigBuilder {
    config: ResConfig,
}

impl ResConfigBuilder {
    /// Maximum suffix length in block-granular steps.
    pub fn max_depth(mut self, v: usize) -> Self {
        self.config.max_depth = v;
        self
    }

    /// Maximum search nodes expanded.
    pub fn max_nodes(mut self, v: u64) -> Self {
        self.config.max_nodes = v;
        self
    }

    /// Stop after this many complete suffixes.
    pub fn max_suffixes(mut self, v: usize) -> Self {
        self.config.max_suffixes = v;
        self
    }

    /// Per-hypothesis instruction budget.
    pub fn hyp_max_steps(mut self, v: u64) -> Self {
        self.config.hyp_max_steps = v;
        self
    }

    /// Cumulative solver-assignment budget (`None` = unlimited).
    pub fn max_solver_assignments(mut self, v: Option<u64>) -> Self {
        self.config.max_solver_assignments = v;
        self
    }

    /// Wall-clock deadline for the whole search.
    pub fn deadline(mut self, v: Option<std::time::Duration>) -> Self {
        self.config.deadline = v;
        self
    }

    /// Sets every [`Budget`] dimension at once.
    pub fn budget(mut self, b: Budget) -> Self {
        self.config.max_nodes = b.max_nodes;
        self.config.hyp_max_steps = b.hyp_max_steps;
        self.config.max_solver_assignments = b.max_solver_assignments;
        self.config.deadline = b.deadline;
        self
    }

    /// Sets the ignored [`ResConfig::workers`]. Kept only because the
    /// benchmark (`perfbench/`) calls it; see there.
    pub fn workers(mut self, v: usize) -> Self {
        self.config.workers = v;
        self
    }

    /// Solver budgets.
    pub fn solver(mut self, v: SolverConfig) -> Self {
        self.config.solver = v;
        self
    }

    /// Persistent cross-run solver-result store (see
    /// [`ResConfig::cache_path`]).
    pub fn cache_path(mut self, p: impl Into<PathBuf>) -> Self {
        self.config.cache_path = Some(p.into());
        self
    }

    /// Journal every engine phase, kernel counter, solver hit, and
    /// store event to a JSONL trace at `p` (see [`ResConfig::trace`]).
    pub fn trace(mut self, p: impl Into<PathBuf>) -> Self {
        self.config.trace = Some(p.into());
        self
    }

    /// Prune candidates against the dump's LBR ring.
    pub fn use_lbr(mut self, v: bool) -> Self {
        self.config.use_lbr = v;
        self
    }

    /// Match only offline-underivable transfers.
    pub fn lbr_filtered(mut self, v: bool) -> Self {
        self.config.lbr_filtered = v;
        self
    }

    /// Prune candidates against the dump's error-log tail.
    pub fn use_error_log(mut self, v: bool) -> Self {
        self.config.use_error_log = v;
        self
    }

    /// Consider cross-thread predecessor hypotheses.
    pub fn cross_thread(mut self, v: bool) -> Self {
        self.config.cross_thread = v;
        self
    }

    /// Ablation A1: disable the `S' ⊇ Spost` check.
    pub fn skip_compat_check(mut self, v: bool) -> Self {
        self.config.skip_compat_check = v;
        self
    }

    /// Ablation A2: minidump mode.
    pub fn opaque_memory(mut self, v: bool) -> Self {
        self.config.opaque_memory = v;
        self
    }

    /// Finishes the build.
    pub fn build(self) -> ResConfig {
        self.config
    }
}

/// Per-call options for [`ResEngine::synthesize_with`].
///
/// ```
/// use res_core::search::SynthOptions;
/// use res_core::hwerr::Relax;
///
/// let opts = SynthOptions::new().relax(Relax::Mem { addr: 0x1000 });
/// assert_eq!(opts.relax, Relax::Mem { addr: 0x1000 });
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SynthOptions {
    /// Treat one dump location as unknown (the §3.2 localization probe).
    pub relax: Relax,
    /// Override every [`Budget`] dimension for this call — the
    /// per-request admission-control hook the triage daemon uses. The
    /// engine-wide budget assembled from [`ResConfig`] applies when
    /// unset.
    pub budget: Option<Budget>,
    /// Override just the wall-clock deadline for this call; applied on
    /// top of `budget` (or the engine-wide budget) last, so a caller
    /// can cap latency without restating resource limits.
    pub deadline: Option<std::time::Duration>,
    /// Use a persistent store at this path for this call only,
    /// overriding any engine-level [`ResConfig::cache_path`]: absorbed
    /// before the search, new entries committed after.
    pub cache_path: Option<PathBuf>,
    /// Journal this call to a JSONL trace at this path, overriding any
    /// engine-level [`ResConfig::trace`] for the duration of the call.
    pub trace: Option<PathBuf>,
}

impl SynthOptions {
    /// The defaults: no relaxation, the engine's configured budget and
    /// store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the relaxation.
    pub fn relax(mut self, relax: Relax) -> Self {
        self.relax = relax;
        self
    }

    /// Overrides every budget dimension for this call.
    pub fn budget(mut self, budget: Budget) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Overrides just the wall-clock deadline for this call.
    pub fn deadline(mut self, deadline: std::time::Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Overrides the persistent store for this call.
    pub fn cache_path(mut self, p: impl Into<PathBuf>) -> Self {
        self.cache_path = Some(p.into());
        self
    }

    /// Journals this call to a trace at `p`.
    pub fn trace(mut self, p: impl Into<PathBuf>) -> Self {
        self.trace = Some(p.into());
        self
    }

    /// The effective [`Budget`] this call runs under, given the
    /// engine-wide `config`: the per-call override (or the engine
    /// budget), with the per-call deadline applied last.
    pub fn effective_budget(&self, config: &ResConfig) -> Budget {
        let mut b = self.budget.unwrap_or_else(|| config.budget());
        if let Some(d) = self.deadline {
            b.deadline = Some(d);
        }
        b
    }
}

/// The engine's overall verdict for a dump (paper §2.1: if no feasible
/// path exists, "the coredump is likely due to hardware failure").
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// At least one feasible suffix was synthesized.
    SuffixFound,
    /// No feasible suffix exists within the explored horizon.
    NoFeasibleSuffix {
        /// `true` when every rejection was a proof (no budget cutoffs or
        /// solver Unknowns) — the basis for a hardware-error diagnosis.
        proven: bool,
    },
    /// The node budget ran out before any suffix completed.
    BudgetExhausted,
}

json_enum!(Verdict {
    SuffixFound,
    NoFeasibleSuffix { proven: bool },
    BudgetExhausted
});

/// Everything `synthesize` returns.
#[derive(Debug, Clone)]
pub struct SynthesisResult {
    /// Suffixes found, in discovery order.
    pub suffixes: Vec<ExecutionSuffix>,
    /// Search statistics.
    pub stats: KernelStats,
    /// Overall verdict.
    pub verdict: Verdict,
    /// Always `None`: the search runs on one thread. Kept only because
    /// the benchmark (`perfbench/`) reads it; see [`ParallelReport`].
    pub parallel: Option<ParallelReport>,
    /// Persistent-store accounting; `None` when no store is configured.
    pub store: Option<StoreReport>,
}

/// What the persistent cross-run store contributed to (and received
/// from) one synthesis call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreReport {
    /// How the store's on-disk bytes were classified when opened. Every
    /// outcome other than [`LoadOutcome::Loaded`] means this call
    /// started cold.
    pub outcome: LoadOutcome,
    /// Entries the store held when it was opened.
    pub loaded_entries: usize,
    /// New renaming-equivariant entries this call appended.
    pub appended_entries: usize,
    /// Solver queries this call answered from store-loaded entries.
    pub store_hits: u64,
    /// `true` when everything this call learned is on disk: its new
    /// entries were appended, or it had none and the file was left
    /// untouched. `false` when the post-call commit failed (I/O error),
    /// was deferred to the caller
    /// ([`synthesize_in_store`](ResEngine::synthesize_in_store)), or the
    /// store is read-only (program-fingerprint mismatch); the search
    /// result itself is unaffected either way.
    pub committed: bool,
}

json_struct!(StoreReport {
    outcome,
    loaded_entries,
    appended_entries,
    store_hits,
    committed
});

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ThreadPos {
    depth: usize,
    loc: Loc,
    partial_done: bool,
    barrier: bool,
}

/// The session's memo size when it was last merged into a store
/// (`None` before the first merge). Memo and store only grow, so while
/// the memo has not grown past the mark, a merge into that store would
/// add nothing and is skipped.
pub(crate) type MergeMark = Option<usize>;

/// The unrelaxed root of one dump's search (see [`ResEngine::root`]).
pub(crate) struct Root(Node);

#[derive(Clone)]
struct Node {
    snap: Snapshot,
    /// The accumulated constraints, the first step's first: exactly the
    /// list this node's global check asked.
    constraints: Vec<ExprRef>,
    /// The solver fixpoint of `constraints`, which each child's global
    /// check starts from.
    fixpoint: Fixpoint,
    /// The accepted steps, newest first, shared with every descendant.
    steps: Option<Rc<StepLink>>,
    positions: BTreeMap<ThreadId, ThreadPos>,
    suffix_allocs: usize,
    lbr_rem: usize,
    log_rem: usize,
    read_addrs: BTreeSet<u64>,
    unknown_used: bool,
    depth: usize,
}

/// One accepted step, with the tags of the constraints it added to the
/// node's list, linked to the steps accepted before it.
struct StepLink {
    step: SuffixStep,
    tags: Vec<Tag>,
    prev: Option<Rc<StepLink>>,
}

impl Node {
    /// The accepted steps, newest first: the suffix's forward order.
    fn steps(&self) -> impl Iterator<Item = &StepLink> {
        std::iter::successors(self.steps.as_deref(), |link| link.prev.as_deref())
    }
}

struct Candidate {
    tid: ThreadId,
    frame_depth: usize,
    start: Loc,
    end: EndPoint,
    callee_entry_regs: Option<Vec<ExprRef>>,
    callee_ret_reg: Option<Reg>,
    pops_frame: bool,
    priority: u8,
    /// The range was truncated at a `spawn`; the thread cannot be
    /// reversed past it (spawns are backward barriers).
    barrier_after: bool,
}

/// The reverse-execution-synthesis engine for one program.
pub struct ResEngine<'p> {
    program: &'p Program,
    callgraph: CallGraph,
    config: ResConfig,
    session: SolverSession,
    /// The engine-level persistent store ([`ResConfig::cache_path`]),
    /// opened once at construction and committed to after every
    /// `synthesize*` call, so a corpus sweep over one engine shares a
    /// single load and appends incrementally. A commit writes only
    /// when the call learned new entries: a warm sweep that learns
    /// nothing costs the store its open and absorb, and no write. The
    /// store is kept with its [`MergeMark`].
    store: RefCell<Option<(SolverStore, MergeMark)>>,
    /// The engine-level tracing recorder ([`ResConfig::trace`];
    /// disabled when unset). Strictly passive — the search never reads
    /// it, so tracing cannot perturb which suffixes are found.
    recorder: Recorder,
}

impl<'p> ResEngine<'p> {
    /// Builds an engine (CFGs and call graph are precomputed). When the
    /// config names a [`cache_path`](ResConfig::cache_path), the store
    /// is opened (any damage degrades to a cold start, never an error)
    /// and absorbed into the solver session here. When it names a
    /// [`trace`](ResConfig::trace), a JSONL journal recorder is opened
    /// at that path.
    pub fn new(program: &'p Program, config: ResConfig) -> Self {
        let recorder = config
            .trace
            .as_ref()
            .map(Recorder::journal)
            .unwrap_or_default();
        let session = SolverSession::with_config(config.solver);
        let store = config.cache_path.as_ref().map(|p| {
            let _absorb = recorder.span("absorb");
            let store =
                SolverStore::open_with(p, program_fingerprint(program), recorder.scoped("store"));
            absorb(&session, &store, &recorder);
            (store, None)
        });
        ResEngine {
            program,
            callgraph: CallGraph::build(program),
            config,
            session,
            store: RefCell::new(store),
            recorder,
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &ResConfig {
        &self.config
    }

    /// The engine's memoizing solver session. The cache persists across
    /// `synthesize` calls — the §3.2 localization sweep, which re-solves
    /// near-identical relaxed dumps, leans on this heavily.
    pub fn session(&self) -> &SolverSession {
        &self.session
    }

    /// Synthesizes execution suffixes for a coredump.
    ///
    /// Equivalent to [`synthesize_with`](ResEngine::synthesize_with)
    /// with default [`SynthOptions`].
    pub fn synthesize(&self, dump: &Coredump) -> SynthesisResult {
        self.synthesize_with(dump, SynthOptions::new())
    }

    /// Synthesizes with one dump location treated as unknown — the §3.2
    /// hardware-error localization probe.
    ///
    /// Equivalent to [`synthesize_with`](ResEngine::synthesize_with)
    /// with only the relaxation set.
    pub fn synthesize_relaxed(&self, dump: &Coredump, relax: Relax) -> SynthesisResult {
        self.synthesize_with(dump, SynthOptions::new().relax(relax))
    }

    /// The synthesis entry point: every other `synthesize*` method is a
    /// thin wrapper over this one. It runs the backward search once,
    /// depth-first, under the effective budget of `opts`.
    pub fn synthesize_with(&self, dump: &Coredump, opts: SynthOptions) -> SynthesisResult {
        self.run_synthesis(dump, &opts, None, usize::MAX, None, true)
    }

    /// [`synthesize_with`](ResEngine::synthesize_with) against a
    /// caller-owned, already-open [`SolverStore`]: the store is absorbed
    /// into this engine's session up front and new results are merged
    /// back afterwards, but **nothing is committed** — the
    /// caller decides when the accumulated state reaches disk. This is
    /// the triage daemon's hot path: one store instance stays warm
    /// across many requests and is committed only on hot-set eviction or
    /// shutdown, so per-request cost drops from open/absorb/commit to
    /// absorb-only. The returned [`StoreReport::committed`] is always
    /// `false` here.
    pub fn synthesize_in_store(
        &self,
        dump: &Coredump,
        opts: SynthOptions,
        store: &mut SolverStore,
    ) -> SynthesisResult {
        self.run_synthesis(
            dump,
            &opts,
            None,
            usize::MAX,
            Some((store, &mut None)),
            false,
        )
    }

    /// The unrelaxed search root of `dump`, for
    /// [`synthesize_from`](ResEngine::synthesize_from): a §3.2 sweep
    /// builds it once and starts every one of its searches from a clone.
    pub(crate) fn root(&self, dump: &Coredump) -> Root {
        Root(self.build_root(dump))
    }

    /// A search of `dump` from `root`, which [`root`](ResEngine::root)
    /// built from the same dump: [`synthesize_with`](ResEngine::synthesize_with)
    /// without a store, else
    /// [`synthesize_in_store`](ResEngine::synthesize_in_store) with the
    /// session's [`MergeMark`] for that store, which a caller keeps
    /// across its calls on the same store to skip the merges that would
    /// add nothing. The search stops at its first suffix of at least
    /// `settle_depth` steps (see [`ExploreConfig::settle_depth`]).
    pub(crate) fn synthesize_from(
        &self,
        root: &Root,
        dump: &Coredump,
        opts: SynthOptions,
        store: Option<(&mut SolverStore, &mut MergeMark)>,
        settle_depth: usize,
    ) -> SynthesisResult {
        let commit = store.is_none();
        self.run_synthesis(dump, &opts, Some(root), settle_depth, store, commit)
    }

    fn run_synthesis(
        &self,
        dump: &Coredump,
        opts: &SynthOptions,
        root: Option<&Root>,
        settle_depth: usize,
        mut external: Option<(&mut SolverStore, &mut MergeMark)>,
        commit: bool,
    ) -> SynthesisResult {
        let budget = opts.effective_budget(&self.config);
        // A per-call trace overrides the engine-level recorder for this
        // call only.
        let recorder = match &opts.trace {
            Some(path) => Recorder::journal(path),
            None => self.recorder.clone(),
        };
        let wall = std::time::Instant::now();
        let run = recorder.span("synthesize");
        // A per-call store overrides the engine-level one for this call.
        // An external (caller-owned) store takes precedence over both.
        // Either is absorbed here, so its mark lands in this call's
        // journal.
        let mut call_store = match &external {
            Some((store, _)) => {
                absorb(&self.session, store, &recorder);
                None
            }
            None => opts.cache_path.as_ref().map(|p| {
                let _absorb = run.child("absorb");
                let store = SolverStore::open_with(
                    p,
                    program_fingerprint(self.program),
                    recorder.scoped("store"),
                );
                absorb(&self.session, &store, &recorder);
                (store, None)
            }),
        };
        let t_absorb = wall.elapsed();
        let mut result = {
            let _search = run.child("search");
            self.search(dump, root, opts.relax, budget, settle_depth, &recorder)
        };
        let t_search = wall.elapsed() - t_absorb;
        result.store = {
            let _commit = run.child("commit");
            let opened = call_store.as_mut().map(|(store, mark)| (store, mark));
            self.export_to_store(
                external.take().or(opened),
                result.stats.solver.store_hits,
                commit,
            )
        };
        let t_commit = wall.elapsed() - t_search - t_absorb;
        drop(run);
        recorder.finish();
        if recorder.enabled() {
            // The common case should not need journal post-processing:
            // one line with the headline numbers. Hit attribution is
            // the search's solver delta — memo (exact in-session) or
            // store (cross-run).
            let s = &result.stats.solver;
            eprintln!(
                "res-trace: nodes={} suffixes={} verdict={:?} \
                 hits memo={} store={} \
                 wall absorb={}ms search={}ms commit={}ms",
                result.stats.nodes_expanded,
                result.suffixes.len(),
                result.verdict,
                s.cache_hits - s.store_hits,
                s.store_hits,
                t_absorb.as_millis(),
                t_search.as_millis(),
                t_commit.as_millis(),
            );
        }
        result
    }

    /// After a search that `store_hits` of its queries answered from
    /// store entries: feed that count back to the active store, merge
    /// the session's new renaming-equivariant results, and — unless
    /// `commit` is deferred to the caller (the `synthesize_in_store`
    /// hot path) — commit. The session keeps each memo entry's
    /// canonical form, so the export re-canonicalizes nothing; the
    /// merge is skipped while the memo has not grown since the last
    /// merge into the same store (see [`MergeMark`]), and the commit
    /// writes only when a merge added entries; the hit count rides
    /// along with the next write.
    fn export_to_store(
        &self,
        call_store: Option<(&mut SolverStore, &mut MergeMark)>,
        store_hits: u64,
        commit: bool,
    ) -> Option<StoreReport> {
        let mut engine_store = self.store.borrow_mut();
        let (store, mark) = match call_store {
            Some(target) => target,
            None => {
                let (store, mark) = engine_store.as_mut()?;
                (store, mark)
            }
        };
        let outcome = store.load_report().outcome;
        let loaded_entries = store.load_report().entries_loaded;
        store.note_hits(store_hits);
        let memo = self.session.cache_len();
        let appended_entries = if *mark == Some(memo) {
            0
        } else {
            *mark = Some(memo);
            store.merge(&self.session.export_portable())
        };
        let committed = commit && !store.read_only() && store.commit().is_ok();
        Some(StoreReport {
            outcome,
            loaded_entries,
            appended_entries,
            store_hits,
            committed,
        })
    }

    /// The backward search itself: the kernel exploration from `dump`'s
    /// root node under `budget`, with the session's solver work since
    /// the start attributed to its stats, and its verdict. The stats are
    /// journaled to `recorder` once, at the end.
    fn search(
        &self,
        dump: &Coredump,
        root: Option<&Root>,
        relax: Relax,
        budget: Budget,
        settle_depth: usize,
        recorder: &Recorder,
    ) -> SynthesisResult {
        let mut ctx = SymCtx::new();
        let root = match root {
            Some(Root(node)) => node.clone(),
            None => self.build_root(dump),
        };
        let root = Self::relax_root(root, dump, relax, &mut ctx);
        let session_before = self.session.stats();
        let mut driver = SearchDriver {
            engine: self,
            dump,
            ctx,
            assignments_before: session_before.assignments,
            hyp_max_steps: budget.hyp_max_steps,
        };
        let explore_config = ExploreConfig {
            budget,
            max_depth: self.config.max_depth,
            max_artifacts: self.config.max_suffixes,
            settle_depth,
        };
        let mut stats = KernelStats::default();
        let suffixes = explore(&mut driver, root, &explore_config, &mut stats);
        stats.solver = self.session.stats().delta_since(&session_before);
        journal_search(recorder, &stats, suffixes.len());
        let verdict = if !suffixes.is_empty() {
            Verdict::SuffixFound
        } else if stats.cut.is_some() {
            Verdict::BudgetExhausted
        } else {
            Verdict::NoFeasibleSuffix {
                proven: stats.rejected_budget == 0
                    && stats.unknown_accepted == 0
                    && stats.finalize_failed == 0,
            }
        };
        SynthesisResult {
            suffixes,
            stats,
            verdict,
            parallel: None,
            store: None,
        }
    }

    /// Builds the unrelaxed search root: the coredump's state.
    fn build_root(&self, dump: &Coredump) -> Node {
        let mut snap = Snapshot::from_coredump(dump);
        if self.config.opaque_memory {
            snap.set_opaque_base(true);
        }
        let mut positions = BTreeMap::new();
        for t in &dump.threads {
            let depth = t.frames.len() - 1;
            let loc = t.pc();
            // A partial range that would be empty after spawn truncation
            // leaves the thread already done (and unable to go further).
            let blk = self.program.func(loc.func).block(loc.block);
            let has_spawn_before = blk.insts[..(loc.inst as usize).min(blk.insts.len())]
                .iter()
                .any(|i| matches!(i, Inst::Spawn { .. }));
            let empty_after_spawn = has_spawn_before
                && self.spawn_adjusted_start(loc.func, loc.block, loc.inst).0 >= loc.inst;
            positions.insert(
                t.tid,
                ThreadPos {
                    depth,
                    loc,
                    partial_done: loc.inst == 0 || empty_after_spawn,
                    barrier: empty_after_spawn,
                },
            );
        }
        Node {
            snap,
            constraints: Vec::new(),
            fixpoint: Fixpoint::default(),
            steps: None,
            positions,
            suffix_allocs: 0,
            lbr_rem: dump.lbr.len(),
            log_rem: dump.error_log.len(),
            read_addrs: BTreeSet::new(),
            unknown_used: false,
            depth: 0,
        }
    }

    /// Applies `relax` to a root of `dump`, minting the relaxed
    /// location's symbol as the search's first.
    fn relax_root(mut root: Node, dump: &Coredump, relax: Relax, ctx: &mut SymCtx) -> Node {
        match relax {
            Relax::None => {}
            Relax::Mem { addr } => {
                let sym = ctx.fresh(SymOrigin::HavocMem {
                    addr,
                    width: mvm_isa::Width::W8,
                    depth: 0,
                });
                root.snap.write_mem(addr, mvm_isa::Width::W8, sym);
            }
            Relax::Reg { reg } => {
                let tid = dump.faulting_tid;
                let depth = root.positions[&tid].depth;
                let sym = ctx.fresh(SymOrigin::HavocReg { tid, reg, depth: 0 });
                root.snap.set_reg(tid, depth, reg, sym);
            }
        }
        root
    }

    fn enumerate(&self, node: &Node, dump: &Coredump) -> Vec<Candidate> {
        let mut out = Vec::new();
        // The very first backward step must reverse the faulting
        // thread's partial block — the latest range of the execution.
        if node.depth == 0 {
            let tid = dump.faulting_tid;
            let pos = node.positions[&tid];
            if !pos.partial_done {
                out.extend(self.partial_candidate(tid, pos));
                return out;
            }
        }
        let last_tid = node.steps.as_ref().map(|link| link.step.tid);
        for (&tid, pos) in &node.positions {
            if pos.barrier {
                continue;
            }
            if !self.config.cross_thread && tid != dump.faulting_tid {
                continue;
            }
            if !pos.partial_done {
                out.extend(self.partial_candidate(tid, *pos));
                continue;
            }
            debug_assert_eq!(pos.loc.inst, 0);
            let func = pos.loc.func;
            let cfg = self.callgraph.cfg(func);
            for &p in cfg.preds(pos.loc.block) {
                let blk_len = self.program.func(func).block(p).insts.len() as u32;
                let (start_inst, barrier_after) = self.spawn_adjusted_start(func, p, blk_len);
                let start = Loc {
                    func,
                    block: p,
                    inst: start_inst,
                };
                let priority = self.priority(node, tid, last_tid, func, p);
                out.push(Candidate {
                    tid,
                    frame_depth: pos.depth,
                    start,
                    end: EndPoint {
                        depth_delta: 0,
                        loc: pos.loc,
                    },
                    callee_entry_regs: None,
                    callee_ret_reg: None,
                    pops_frame: false,
                    priority,
                    barrier_after,
                });
            }
            // Backward past the function entry, via the dump's stack.
            if pos.loc.block == BlockId(0) && pos.depth > 0 {
                let t = node.snap.thread(tid).expect("thread in snapshot");
                let caller = &t.frames[pos.depth - 1];
                let callee_frame = &t.frames[pos.depth];
                let caller_func = self.program.func(caller.func);
                for (bid, block) in caller_func.iter_blocks() {
                    if let Terminator::Call { func: cf, cont, .. } = &block.terminator {
                        if *cf == func && *cont == caller.block {
                            let blk_len =
                                self.program.func(caller.func).block(bid).insts.len() as u32;
                            let (start_inst, barrier_after) =
                                self.spawn_adjusted_start(caller.func, bid, blk_len);
                            out.push(Candidate {
                                tid,
                                frame_depth: pos.depth - 1,
                                start: Loc {
                                    func: caller.func,
                                    block: bid,
                                    inst: start_inst,
                                },
                                end: EndPoint {
                                    depth_delta: 1,
                                    loc: pos.loc,
                                },
                                callee_entry_regs: Some(callee_frame.regs.clone()),
                                callee_ret_reg: callee_frame.ret_reg,
                                pops_frame: true,
                                priority: 1,
                                barrier_after,
                            });
                        }
                    }
                }
            }
        }
        out
    }

    /// Start instruction for a range over `block`, truncated past the
    /// last `spawn` among the first `end_inst` instructions. Spawns are
    /// backward barriers for the block-granular engine.
    fn spawn_adjusted_start(
        &self,
        func: mvm_isa::FuncId,
        block: BlockId,
        end_inst: u32,
    ) -> (u32, bool) {
        let blk = self.program.func(func).block(block);
        let upto = (end_inst as usize).min(blk.insts.len());
        let last_spawn = blk.insts[..upto]
            .iter()
            .rposition(|i| matches!(i, Inst::Spawn { .. }));
        match last_spawn {
            Some(j) => (j as u32 + 1, true),
            None => (0, false),
        }
    }

    fn partial_candidate(&self, tid: ThreadId, pos: ThreadPos) -> Option<Candidate> {
        let (start_inst, barrier_after) =
            self.spawn_adjusted_start(pos.loc.func, pos.loc.block, pos.loc.inst);
        if start_inst >= pos.loc.inst {
            // The partial range is empty (fault right after a spawn).
            return None;
        }
        Some(Candidate {
            tid,
            frame_depth: pos.depth,
            start: Loc {
                func: pos.loc.func,
                block: pos.loc.block,
                inst: start_inst,
            },
            end: EndPoint {
                depth_delta: 0,
                loc: pos.loc,
            },
            callee_entry_regs: None,
            callee_ret_reg: None,
            pops_frame: false,
            priority: 0,
            barrier_after,
        })
    }

    /// Candidate ordering: 0 is best. Blocks that store to globals the
    /// suffix has read explain mystery values — explore them first.
    fn priority(
        &self,
        node: &Node,
        tid: ThreadId,
        last_tid: Option<ThreadId>,
        func: mvm_isa::FuncId,
        block: BlockId,
    ) -> u8 {
        if self.block_stores_read_global(node, func, block) {
            return 0;
        }
        if Some(tid) == last_tid {
            1
        } else {
            2
        }
    }

    fn block_stores_read_global(&self, node: &Node, func: mvm_isa::FuncId, block: BlockId) -> bool {
        if node.read_addrs.is_empty() {
            return false;
        }
        let blk = self.program.func(func).block(block);
        let mut has_store = false;
        let mut touched: Vec<(u64, u64)> = Vec::new();
        for i in &blk.insts {
            match i {
                Inst::Store { .. } => has_store = true,
                Inst::AddrOf { global, .. } => {
                    let g = self.program.global(*global);
                    touched.push((g.addr, g.size.max(8)));
                }
                _ => {}
            }
        }
        if !has_store || touched.is_empty() {
            return false;
        }
        node.read_addrs.iter().any(|&a| {
            touched
                .iter()
                .any(|&(base, size)| a >= base && a < base + size)
        })
    }

    fn try_candidate(
        &self,
        node: &Node,
        cand: &Candidate,
        dump: &Coredump,
        ctx: &mut SymCtx,
        hyp_max_steps: u64,
        stats: &mut KernelStats,
    ) -> Option<Node> {
        let spost_regs = node
            .snap
            .thread(cand.tid)
            .expect("thread in snapshot")
            .frames[cand.frame_depth]
            .regs
            .clone();
        let spec = HypSpec {
            program: self.program,
            tid: cand.tid,
            frame_depth: cand.frame_depth,
            start: cand.start,
            end: cand.end,
            spost_regs,
            callee_entry_regs: cand.callee_entry_regs.clone(),
            callee_ret_reg: cand.callee_ret_reg,
            dump_allocs: &dump.heap_allocs,
            later_allocs: node.suffix_allocs,
            base_constraints: &node.constraints,
            max_steps: hyp_max_steps,
            skip_compat: self.config.skip_compat_check,
        };
        let outcome = match run_hypothesis(&spec, &node.snap, ctx, &self.session, node.depth) {
            Ok(o) => o,
            Err(Infeasible::Structural(_) | Infeasible::SpawnBarrier) => {
                stats.rejected_structural += 1;
                return None;
            }
            Err(Infeasible::Unsat | Infeasible::HeapMismatch | Infeasible::MixedAliasing) => {
                stats.rejected_exec += 1;
                return None;
            }
            Err(Infeasible::Budget(_)) => {
                stats.rejected_budget += 1;
                return None;
            }
        };

        // Breadcrumb pruning.
        let mut lbr_rem = node.lbr_rem;
        if self.config.use_lbr && lbr_rem > 0 {
            let relevant: Vec<_> = outcome
                .transfers
                .iter()
                .filter(|t| !self.config.lbr_filtered || !t.inferrable)
                .collect();
            let m = relevant.len().min(lbr_rem);
            let dump_slice = &dump.lbr[lbr_rem - m..lbr_rem];
            let mine = &relevant[relevant.len() - m..];
            for (entry, tr) in dump_slice.iter().zip(mine.iter()) {
                if entry.tid != cand.tid || entry.from != tr.from || entry.to != tr.to {
                    stats.rejected_lbr += 1;
                    return None;
                }
            }
            lbr_rem -= m;
        }
        let mut log_rem = node.log_rem;
        let mut log_constraints: Vec<Tagged> = Vec::new();
        if self.config.use_error_log && !outcome.logs.is_empty() {
            let k = outcome.logs.len();
            let m = k.min(log_rem);
            let dump_slice = &dump.error_log[log_rem - m..log_rem];
            let mine = &outcome.logs[k - m..];
            for (entry, (site, expr)) in dump_slice.iter().zip(mine.iter()) {
                if entry.tid != cand.tid || entry.at != *site {
                    stats.rejected_log += 1;
                    return None;
                }
                let c = mvm_symbolic::Expr::bin(
                    mvm_isa::BinOp::Eq,
                    expr.clone(),
                    mvm_symbolic::Expr::konst(entry.value),
                );
                match c.as_const() {
                    Some(0) => {
                        stats.rejected_log += 1;
                        return None;
                    }
                    Some(_) => {}
                    None => log_constraints.push(Tagged {
                        expr: c,
                        tag: crate::blockexec::Tag::Path,
                    }),
                }
            }
            log_rem -= m;
        }

        // Global satisfiability check (the paper's S' ⊇ Spost test over
        // the whole accumulated constraint set), from the parent's
        // solver fixpoint. The list it asks becomes the child's.
        let added = outcome.constraints.iter().chain(&log_constraints);
        let mut constraints = node.constraints.clone();
        constraints.extend(added.clone().map(|t| t.expr.clone()));
        let tags = added.map(|t| t.tag).collect();
        let mut unknown = outcome.unknown_used;
        let (verdict, fixpoint) = self.session.check_after(&constraints, &node.fixpoint);
        match verdict {
            SolveResult::Sat(_) => {}
            SolveResult::Unsat => {
                stats.rejected_solver += 1;
                return None;
            }
            SolveResult::Unknown(reason) => {
                unknown = true;
                stats.unknown_accepted += 1;
                match reason {
                    UnknownReason::BudgetExhausted => stats.unknown_accepted_budget += 1,
                    UnknownReason::Incomplete => stats.unknown_accepted_incomplete += 1,
                }
            }
        }
        stats.accepted += 1;

        // Build the child node.
        let mut snap = node.snap.clone();
        if cand.pops_frame {
            snap.pop_frame(cand.tid);
        }
        {
            let t = snap.thread_mut(cand.tid).expect("thread in snapshot");
            t.frames[cand.frame_depth].regs = outcome.spre_regs.clone();
        }
        for (addr, width, sym) in &outcome.spre_cells {
            snap.write_mem(*addr, *width, sym.clone());
        }
        let mut positions = node.positions.clone();
        positions.insert(
            cand.tid,
            ThreadPos {
                depth: cand.frame_depth,
                loc: cand.start,
                partial_done: true,
                barrier: cand.barrier_after,
            },
        );
        // A thread parked at its function's entry with no caller frame
        // and no loop back-edge cannot go further back.
        if cand.start.block == BlockId(0) && cand.start.inst == 0 && cand.frame_depth == 0 {
            let has_loop_pred = !self
                .callgraph
                .cfg(cand.start.func)
                .preds(BlockId(0))
                .is_empty();
            if !has_loop_pred {
                positions.get_mut(&cand.tid).unwrap().barrier = true;
            }
        }
        let mut read_addrs = node.read_addrs.clone();
        for (a, _) in &outcome.reads {
            if read_addrs.len() < 512 {
                read_addrs.insert(*a);
            }
        }
        let input_kinds = outcome
            .inputs
            .iter()
            .map(|&s| match ctx.origin(s) {
                Some(SymOrigin::Input { kind, .. }) => *kind,
                _ => mvm_isa::InputKind::Env,
            })
            .collect();
        let step = SuffixStep {
            tid: cand.tid,
            frame_depth: cand.frame_depth,
            start: cand.start,
            end: cand.end,
            transfers: outcome.transfers.clone(),
            inputs: outcome.inputs.clone(),
            input_kinds,
            allocs: outcome.allocs,
            frees: outcome.frees.clone(),
            reads: outcome.reads.clone(),
            writes: outcome.writes.clone(),
            steps: outcome.steps,
        };
        Some(Node {
            snap,
            constraints,
            fixpoint,
            steps: Some(Rc::new(StepLink {
                step,
                tags,
                prev: node.steps.clone(),
            })),
            positions,
            suffix_allocs: node.suffix_allocs + outcome.allocs,
            lbr_rem,
            log_rem,
            read_addrs,
            unknown_used: node.unknown_used || unknown,
            depth: node.depth + 1,
        })
    }

    fn finalize(
        &self,
        node: &Node,
        ctx: &SymCtx,
        stats: &mut KernelStats,
    ) -> Option<ExecutionSuffix> {
        node.steps.as_ref()?;
        // The node's own fixpoint: the memo key reuses its hash.
        let (verdict, _) = self.session.check_after(&node.constraints, &node.fixpoint);
        let (model, approximate) = match verdict {
            SolveResult::Sat(m) => (m, node.unknown_used),
            SolveResult::Unknown(_) => (Model::new(), true),
            SolveResult::Unsat => {
                stats.finalize_failed += 1;
                return None;
            }
        };
        let steps: Vec<SuffixStep> = node.steps().map(|link| link.step.clone()).collect();
        let chunks: Vec<&[Tag]> = node.steps().map(|link| link.tags.as_slice()).collect();
        let tags = chunks.into_iter().rev().flatten();
        let constraints: Vec<Tagged> = node
            .constraints
            .iter()
            .zip(tags)
            .map(|(expr, &tag)| Tagged {
                expr: expr.clone(),
                tag,
            })
            .collect();
        debug_assert_eq!(constraints.len(), node.constraints.len());
        // Concretize the suffix-start snapshot.
        let mut initial_cells = Vec::new();
        for (addr, cell) in node.snap.cells() {
            let v = model.eval_total(&cell.expr).unwrap_or(0);
            initial_cells.push((addr, cell.width, v));
        }
        let mut initial_regs = BTreeMap::new();
        let mut start_positions = BTreeMap::new();
        for (&tid, pos) in &node.positions {
            let t = node.snap.thread(tid).expect("thread in snapshot");
            let regs: Vec<u64> = t.frames[pos.depth]
                .regs
                .iter()
                .map(|e| model.eval_total(e).unwrap_or(0))
                .collect();
            initial_regs.insert(tid, (pos.depth, regs));
            start_positions.insert(tid, (pos.depth, pos.loc));
        }
        // Inputs in forward per-thread order.
        let mut inputs: BTreeMap<ThreadId, Vec<u64>> = BTreeMap::new();
        for s in &steps {
            for sym in &s.inputs {
                let v = model.get_or_zero(*sym);
                inputs.entry(s.tid).or_default().push(v);
            }
        }
        let _ = ctx;
        Some(ExecutionSuffix {
            steps,
            model,
            initial_cells,
            initial_regs,
            start_positions,
            inputs,
            constraints,
            approximate,
        })
    }
}

/// Absorbs `store` into `session` and, when the store holds entries,
/// journals a `solver.absorb` mark with their count and how many of
/// them the session did not hold yet.
fn absorb(session: &SolverSession, store: &SolverStore, recorder: &Recorder) {
    let new = store.absorb_into(session);
    if !store.is_empty() {
        recorder.event_with("solver.absorb", || {
            vec![
                ("entries".into(), store.len().to_string()),
                ("new".into(), new.to_string()),
            ]
        });
    }
}

/// Journals one search's counts, which its [`KernelStats`] own, as
/// `kernel.*` and `solver.*` counters, and a `kernel.cut` mark when a
/// budget cut the search. A name is journaled once something was
/// counted under it: `solver.assignments` with every cache miss and
/// store hit, whatever their cost.
fn journal_search(recorder: &Recorder, stats: &KernelStats, artifacts: usize) {
    if !recorder.enabled() {
        return;
    }
    let s = &stats.solver;
    for (name, n) in [
        ("kernel.nodes_expanded", stats.nodes_expanded),
        ("kernel.hypotheses", stats.hypotheses),
        ("kernel.artifacts", artifacts as u64),
        ("solver.queries", s.queries),
        ("solver.cache_hits", s.cache_hits),
        ("solver.cache_misses", s.cache_misses),
        ("solver.store_hits", s.store_hits),
        ("solver.sat", s.sat),
        ("solver.unsat", s.unsat),
        ("solver.unknown_budget", s.unknown_budget),
        ("solver.unknown_incomplete", s.unknown_incomplete),
    ] {
        if n > 0 {
            recorder.counter(name, n);
        }
    }
    if s.cache_misses + s.store_hits > 0 {
        recorder.counter("solver.assignments", s.assignments);
    }
    if let Some(cut) = stats.cut {
        recorder.event_with("kernel.cut", || {
            vec![
                ("reason".into(), format!("{cut:?}")),
                ("abandoned".into(), stats.abandoned.nodes.to_string()),
            ]
        });
    }
}

/// Adapter wiring the RES backward search into the kernel seams: the
/// engine's candidate enumeration is the hypothesis generator, havoc +
/// forward symbolic execution (plus breadcrumb pruning and the global
/// compatibility check) is the state transform, and suffix completion
/// is the finalizer.
struct SearchDriver<'e, 'p, 'd> {
    engine: &'e ResEngine<'p>,
    dump: &'d Coredump,
    ctx: SymCtx,
    assignments_before: u64,
    /// The effective per-hypothesis instruction budget for this run
    /// (per-call overrides land here, not in the engine config).
    hyp_max_steps: u64,
}

impl HypothesisGen for SearchDriver<'_, '_, '_> {
    type Node = Node;
    type Candidate = Candidate;

    fn generate(&mut self, node: &Node) -> Vec<Candidate> {
        self.engine.enumerate(node, self.dump)
    }
}

impl StateTransform for SearchDriver<'_, '_, '_> {
    fn transform(
        &mut self,
        node: &Node,
        cand: &Candidate,
        stats: &mut KernelStats,
    ) -> Option<(NodeScore, Node)> {
        let child = self.engine.try_candidate(
            node,
            cand,
            self.dump,
            &mut self.ctx,
            self.hyp_max_steps,
            stats,
        )?;
        let score = NodeScore {
            priority: cand.priority,
        };
        Some((score, child))
    }

    fn solver_spent(&self) -> u64 {
        self.engine.session.assignments_spent() - self.assignments_before
    }
}

impl Finalize for SearchDriver<'_, '_, '_> {
    type Artifact = ExecutionSuffix;

    fn depth(&self, node: &Node) -> usize {
        node.depth
    }

    fn finalize(&mut self, node: &Node, stats: &mut KernelStats) -> Option<ExecutionSuffix> {
        self.engine.finalize(node, &self.ctx, stats)
    }
}
