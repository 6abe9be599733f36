//! The daemon's hot store: an LRU cache of open per-program
//! [`SolverStore`]s.
//!
//! A triage stream is heavily skewed — most reports are re-crashes of a
//! few programs — so the daemon keeps the most recently used programs'
//! stores *open and absorbed in memory* between requests instead of
//! paying open/absorb/commit per call (the deferred-commit contract of
//! [`res_core::search::ResEngine::synthesize_in_store`]). A store is
//! committed to its `res-store` file only when its program falls out of
//! the hot set, and at shutdown ([`HotStore::flush_all`]). A commit
//! writes only when requests taught the store new entries.
//!
//! Stores never change answers (see `res-store`'s determinism
//! argument), so the hot set is purely a performance artifact: any
//! request served warm returns byte-identical results to a cold direct
//! library call.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use mvm_isa::Program;
use res_obs::Recorder;
use res_store::{program_fingerprint, SolverStore};

/// Locks one program's store. A job that panicked while holding the
/// lock poisons it; the store is still consistent, because it is
/// changed only by `merge`/`note_hits`, which run after a search has
/// returned. So a poisoned lock is taken over instead of failing every
/// later request for the program.
pub(crate) fn lock_store(store: &Mutex<SolverStore>) -> MutexGuard<'_, SolverStore> {
    store.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One open store plus its LRU bookkeeping.
struct Slot {
    store: Arc<Mutex<SolverStore>>,
    last_used: u64,
}

struct Inner {
    slots: HashMap<u64, Slot>,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// The LRU cache of open per-program stores. Thread-safe: checkouts
/// hand out `Arc<Mutex<SolverStore>>`, so two workers triaging the
/// same program serialize on its store while distinct programs proceed
/// in parallel.
pub struct HotStore {
    dir: PathBuf,
    cap: usize,
    /// `serve.hot.evict` marks. The daemon journals the hit, miss and
    /// eviction counts from [`counters`](HotStore::counters).
    rec: Recorder,
    /// Handed to each opened store, so store events (`store.open`,
    /// `store.commit`) land in the daemon's journal under the same
    /// names the library path uses.
    store_rec: Recorder,
    inner: Mutex<Inner>,
}

impl HotStore {
    /// A hot store over `dir` (one `<fingerprint>.resstore` file per
    /// program, the same layout `res_triage::store_path_for` uses)
    /// keeping at most `cap` programs warm. `recorder` is the daemon's
    /// root recorder.
    pub fn new(dir: impl Into<PathBuf>, cap: usize, recorder: &Recorder) -> HotStore {
        HotStore {
            dir: dir.into(),
            cap: cap.max(1),
            rec: recorder.scoped("serve.hot"),
            store_rec: recorder.scoped("store"),
            inner: Mutex::new(Inner {
                slots: HashMap::new(),
                tick: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
            }),
        }
    }

    /// The backing directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The store for `program`, warm if present, opened (and absorbed
    /// on first use by the engine) if not. Opening may evict the least
    /// recently used store, committing it first.
    pub fn checkout(&self, program: &Program) -> Arc<Mutex<SolverStore>> {
        let fp = program_fingerprint(program);
        let mut inner = self.inner.lock().expect("hot-store lock");
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(slot) = inner.slots.get_mut(&fp) {
            slot.last_used = tick;
            let store = Arc::clone(&slot.store);
            inner.hits += 1;
            return store;
        }
        inner.misses += 1;
        while inner.slots.len() >= self.cap {
            let victim = inner
                .slots
                .iter()
                .min_by_key(|(_, s)| s.last_used)
                .map(|(fp, _)| *fp)
                .expect("non-empty hot set");
            let slot = inner.slots.remove(&victim).expect("victim present");
            // Commit what has been merged so far. A worker still holding
            // the evicted Arc can keep searching against it; results it
            // merges after this point stay memory-only for that Arc's
            // remaining life — the store is a cache, never ground truth.
            let _ = lock_store(&slot.store).commit();
            inner.evictions += 1;
            self.rec
                .event_with("evict", || vec![("fp".into(), format!("{victim:016x}"))]);
        }
        let _ = std::fs::create_dir_all(&self.dir);
        let path = self.dir.join(format!("{fp:016x}.resstore"));
        let store = Arc::new(Mutex::new(SolverStore::open_with(
            path,
            fp,
            self.store_rec.clone(),
        )));
        inner.slots.insert(
            fp,
            Slot {
                store: Arc::clone(&store),
                last_used: tick,
            },
        );
        store
    }

    /// Commits every warm store (shutdown path). Returns how many
    /// commits succeeded.
    pub fn flush_all(&self) -> usize {
        let inner = self.inner.lock().expect("hot-store lock");
        inner
            .slots
            .values()
            .filter(|s| lock_store(&s.store).commit().is_ok())
            .count()
    }

    /// Programs currently warm.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("hot-store lock").slots.len()
    }

    /// `true` when nothing is warm.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `(hits, misses, evictions)` so far.
    pub fn counters(&self) -> (u64, u64, u64) {
        let inner = self.inner.lock().expect("hot-store lock");
        (inner.hits, inner.misses, inner.evictions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvm_symbolic::{CanonFp, PortableCache, PortableResult, PortableVerdict};
    use res_workloads::{build, BugKind, WorkloadParams};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("res-serve-hot-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A one-entry export with fingerprint `fp`.
    fn one_entry(fp: u128) -> PortableCache {
        PortableCache {
            entries: vec![(
                CanonFp(fp),
                PortableResult {
                    verdict: PortableVerdict::Unsat,
                    assignments: 0,
                },
            )],
        }
    }

    #[test]
    fn checkout_is_warm_on_the_second_request() {
        let dir = temp_dir("warm");
        let hot = HotStore::new(&dir, 2, &Recorder::disabled());
        let p = build(BugKind::DivByZero, WorkloadParams::default());
        let a = hot.checkout(&p);
        let b = hot.checkout(&p);
        assert!(Arc::ptr_eq(&a, &b), "same program, same open store");
        assert_eq!(hot.counters(), (1, 1, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn capacity_evicts_lru_and_commits_it() {
        let dir = temp_dir("evict");
        let hot = HotStore::new(&dir, 2, &Recorder::disabled());
        let progs: Vec<Program> = [
            BugKind::DivByZero,
            BugKind::UseAfterFree,
            BugKind::DoubleFree,
        ]
        .into_iter()
        .map(|k| build(k, WorkloadParams::default()))
        .collect();
        let first = hot.checkout(&progs[0]);
        // Dirty the second store so its eviction commit has something
        // to persist (commits with no new entry write nothing).
        hot.checkout(&progs[1]).lock().unwrap().merge(&one_entry(1));
        // Touch the first again so the second is the LRU victim.
        hot.checkout(&progs[0]);
        hot.checkout(&progs[2]);
        assert_eq!(hot.len(), 2);
        let (_, _, evictions) = hot.counters();
        assert_eq!(evictions, 1);
        // The evicted store's file exists on disk (the commit ran).
        let fp = program_fingerprint(&progs[1]);
        assert!(
            dir.join(format!("{fp:016x}.resstore")).exists(),
            "eviction must commit the store"
        );
        drop(first);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
