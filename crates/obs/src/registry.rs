//! The live metrics registry: lock-free fixed-bucket histograms with
//! quantile extraction.
//!
//! The [`Recorder`](crate::Recorder) answers *post-mortem* questions —
//! its metric totals reach the journal only when someone flushes them.
//! A serving daemon needs the complementary *live* view: latency
//! distributions that can be snapshotted mid-flight by a stats
//! endpoint without stalling the workers that are recording into them.
//!
//! A [`Registry`] is a named set of [`Histogram`]s. Each histogram is a
//! fixed array of power-of-two buckets backed by atomics, so:
//!
//! * **recording is wait-free** — one `fetch_add` per observation, no
//!   lock, no allocation;
//! * **snapshots never block recorders** — a snapshot just loads the
//!   bucket counters; writers keep writing;
//! * **memory is bounded** — [`BUCKETS`] counters per histogram, no
//!   per-observation state, regardless of how long the daemon runs;
//! * **quantiles are deterministic** — p50/p95/p99 are derived from the
//!   bucket counts with integer math only ([`quantile_from_buckets`]),
//!   so two snapshots of equal counts render identically.
//!
//! Like the recorder, a **disabled** registry ([`Registry::disabled`],
//! the default) hands out inert handles: every `record` call returns
//! immediately and allocates nothing (proven by
//! `tests/obs_determinism.rs` with an allocation counter).
//!
//! ```
//! use res_obs::Registry;
//!
//! let reg = Registry::new();
//! let rtt = reg.histogram("serve.rtt.triage_us");
//! rtt.record(120);
//! rtt.record(450);
//! let snap = &reg.snapshot()[0];
//! assert_eq!(snap.count, 2);
//! assert!(snap.p50 <= snap.p95 && snap.p95 <= snap.p99);
//! ```

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use mvm_json::json_struct;

use crate::recorder::Recorder;

/// Buckets per histogram: bucket 0 holds the value `0`, bucket `i ≥ 1`
/// holds values in `[2^(i-1), 2^i - 1]` — 65 buckets cover all of
/// `u64`, which for microsecond latencies spans 1µs to half a million
/// years in factor-of-two resolution.
pub const BUCKETS: usize = 65;

/// The bucket index a value lands in (`0` for 0, else
/// `64 - leading_zeros`).
#[inline]
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// The largest value bucket `i` can hold (`0`, `1`, `3`, `7`, … —
/// `2^i - 1`, saturating at `u64::MAX`).
#[inline]
pub fn bucket_upper_bound(i: usize) -> u64 {
    if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// The `pct`-th percentile of a bucketed distribution, as the upper
/// bound of the bucket where the cumulative count crosses
/// `ceil(count * pct / 100)`, clamped to the observed `max`. Integer
/// math only — deterministic for equal counts. Returns 0 for an empty
/// distribution.
pub fn quantile_from_buckets(buckets: &[u64], pct: u64, max: u64) -> u64 {
    let count: u64 = buckets.iter().sum();
    if count == 0 {
        return 0;
    }
    let target = (count * pct).div_ceil(100).max(1);
    let mut cum = 0u64;
    for (i, &b) in buckets.iter().enumerate() {
        cum += b;
        if cum >= target {
            return bucket_upper_bound(i).min(max);
        }
    }
    max
}

struct HistoCore {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    /// `u64::MAX` until the first observation.
    min: AtomicU64,
    max: AtomicU64,
}

impl HistoCore {
    fn new() -> HistoCore {
        HistoCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    fn snapshot(&self, name: &str) -> HistoSnapshot {
        // Read the buckets first: `count` is *derived* from what was
        // read, so a snapshot is always self-consistent (count equals
        // the sum of its own buckets) even while writers are recording.
        let mut buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count: u64 = buckets.iter().sum();
        while buckets.last() == Some(&0) {
            buckets.pop();
        }
        let min = self.min.load(Ordering::Relaxed);
        let max = self.max.load(Ordering::Relaxed);
        let (min, max) = if count == 0 { (0, 0) } else { (min, max) };
        HistoSnapshot {
            name: name.to_string(),
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if min == u64::MAX { 0 } else { min },
            max,
            p50: quantile_from_buckets(&buckets, 50, max),
            p95: quantile_from_buckets(&buckets, 95, max),
            p99: quantile_from_buckets(&buckets, 99, max),
            buckets,
        }
    }
}

/// A recording handle to one registered histogram. Cheap to clone;
/// inert (and allocation-free) when obtained from a disabled registry.
#[derive(Clone, Default)]
pub struct Histogram {
    core: Option<Arc<HistoCore>>,
}

impl Histogram {
    /// Records one observation. Wait-free: three relaxed atomic RMWs,
    /// no lock, no allocation; a no-op on a disabled registry.
    #[inline]
    pub fn record(&self, value: u64) {
        let Some(core) = &self.core else { return };
        core.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        core.sum.fetch_add(value, Ordering::Relaxed);
        core.min.fetch_min(value, Ordering::Relaxed);
        core.max.fetch_max(value, Ordering::Relaxed);
    }

    /// `true` when observations are being recorded.
    pub fn enabled(&self) -> bool {
        self.core.is_some()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("enabled", &self.enabled())
            .finish()
    }
}

/// A shared, thread-safe set of named histograms. Registration takes a
/// short lock; recording through the returned [`Histogram`] handles
/// never does.
#[derive(Clone, Default)]
pub struct Registry {
    inner: Option<Arc<Mutex<BTreeMap<String, Arc<HistoCore>>>>>,
}

impl Registry {
    /// An enabled, empty registry.
    pub fn new() -> Registry {
        Registry {
            inner: Some(Arc::new(Mutex::new(BTreeMap::new()))),
        }
    }

    /// The inert registry: every handle it hands out is a no-op and
    /// every call is allocation-free.
    pub fn disabled() -> Registry {
        Registry::default()
    }

    /// `true` when this registry retains observations.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The recording handle for `name`, registering the histogram on
    /// first use. Register once at startup and reuse the handle on the
    /// hot path — the lookup locks the name table.
    pub fn histogram(&self, name: &str) -> Histogram {
        let Some(inner) = &self.inner else {
            return Histogram::default();
        };
        let mut map = inner.lock().expect("registry lock");
        let core = map
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(HistoCore::new()));
        Histogram {
            core: Some(Arc::clone(core)),
        }
    }

    /// A consistent snapshot of every histogram, sorted by name.
    /// Recorders are never blocked: the name table is locked only long
    /// enough to clone the `Arc`s, and the counters are read with
    /// plain atomic loads.
    pub fn snapshot(&self) -> Vec<HistoSnapshot> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let cores: Vec<(String, Arc<HistoCore>)> = {
            let map = inner.lock().expect("registry lock");
            map.iter()
                .map(|(name, core)| (name.clone(), Arc::clone(core)))
                .collect()
        };
        cores
            .iter()
            .map(|(name, core)| core.snapshot(name))
            .collect()
    }

    /// Journals the current snapshot through `rec` as bucketed
    /// [`EventKind::Histo`](crate::EventKind::Histo) events, so a
    /// daemon's latency distributions survive into its JSONL journal
    /// (and `render` can print their quantiles post-mortem).
    pub fn flush_to(&self, rec: &Recorder) {
        for snap in self.snapshot() {
            rec.emit_histo(
                &snap.name,
                snap.count,
                snap.sum,
                snap.min,
                snap.max,
                Some(snap.buckets.clone()),
            );
        }
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("enabled", &self.enabled())
            .finish()
    }
}

/// One histogram's state at snapshot time, wire-serializable (this is
/// what a daemon's stats endpoint returns). All values are exact
/// integers; the quantiles are bucket upper bounds clamped to the
/// observed max ([`quantile_from_buckets`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistoSnapshot {
    /// Dot-scoped histogram name (e.g. `serve.rtt.triage_us`).
    pub name: String,
    /// Observations recorded (always equals the sum of `buckets`).
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation (0 when empty).
    pub max: u64,
    /// 50th percentile.
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Power-of-two bucket counts ([`bucket_index`]), trailing zero
    /// buckets trimmed.
    pub buckets: Vec<u64>,
}

json_struct!(HistoSnapshot {
    name,
    count,
    sum,
    min,
    max,
    p50,
    p95,
    p99,
    buckets
});

impl HistoSnapshot {
    /// This snapshot with every timing-derived field zeroed (sum, min,
    /// max, quantiles, bucket distribution), keeping only the fields
    /// that are deterministic for a fixed request sequence — the
    /// determinism currency of `tests/obs_determinism.rs`.
    pub fn normalized(&self) -> HistoSnapshot {
        HistoSnapshot {
            name: self.name.clone(),
            count: self.count,
            sum: 0,
            min: 0,
            max: 0,
            p50: 0,
            p95: 0,
            p99: 0,
            buckets: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_scheme_is_total_and_ordered() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        for i in 0..BUCKETS {
            assert_eq!(bucket_index(bucket_upper_bound(i)), i.max(0));
            assert!(i == 0 || bucket_upper_bound(i) > bucket_upper_bound(i - 1));
        }
    }

    #[test]
    fn quantiles_are_monotone_and_clamped() {
        let reg = Registry::new();
        let h = reg.histogram("h");
        for v in [1u64, 2, 3, 100, 1000, 1001, 1002, 90_000] {
            h.record(v);
        }
        let snap = &reg.snapshot()[0];
        assert_eq!(snap.count, 8);
        assert_eq!(snap.count, snap.buckets.iter().sum::<u64>());
        assert_eq!(snap.min, 1);
        assert_eq!(snap.max, 90_000);
        assert!(snap.p50 <= snap.p95);
        assert!(snap.p95 <= snap.p99);
        assert!(snap.p99 <= snap.max, "quantiles clamp to the observed max");
        assert!(snap.p50 >= 3, "p50 of 8 values is at or above the 4th");
    }

    #[test]
    fn empty_histogram_snapshots_to_zeros() {
        let reg = Registry::new();
        let _ = reg.histogram("empty");
        let snap = &reg.snapshot()[0];
        assert_eq!(
            (snap.count, snap.sum, snap.min, snap.max, snap.p50),
            (0, 0, 0, 0, 0)
        );
        assert!(snap.buckets.is_empty(), "trailing zeros are trimmed");
    }

    #[test]
    fn disabled_registry_hands_out_inert_handles() {
        let reg = Registry::disabled();
        assert!(!reg.enabled());
        let h = reg.histogram("h");
        assert!(!h.enabled());
        h.record(7);
        assert!(reg.snapshot().is_empty());
    }

    #[test]
    fn handles_share_state_across_clones_and_threads() {
        let reg = Registry::new();
        let h = reg.histogram("shared");
        std::thread::scope(|s| {
            for _ in 0..4 {
                let h = h.clone();
                s.spawn(move || {
                    for v in 0..100u64 {
                        h.record(v);
                    }
                });
            }
        });
        let snap = &reg.snapshot()[0];
        assert_eq!(snap.count, 400);
        assert_eq!(snap.count, snap.buckets.iter().sum::<u64>());
        // Re-registering the same name returns the same histogram.
        reg.histogram("shared").record(5);
        assert_eq!(reg.snapshot()[0].count, 401);
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let reg = Registry::new();
        let h = reg.histogram("rt");
        h.record(12);
        h.record(99);
        let snap = reg.snapshot().remove(0);
        let text = mvm_json::to_string(&snap);
        let back: HistoSnapshot = mvm_json::from_str(&text).expect("snapshot parses");
        assert_eq!(back, snap);
    }

    #[test]
    fn normalized_drops_every_timing_field() {
        let reg = Registry::new();
        let h = reg.histogram("n");
        h.record(1234);
        let norm = reg.snapshot()[0].normalized();
        assert_eq!(norm.count, 1);
        assert_eq!(
            (norm.sum, norm.min, norm.max, norm.p50, norm.p95),
            (0, 0, 0, 0, 0)
        );
        assert!(norm.buckets.is_empty());
    }

    #[test]
    fn flush_to_journals_bucketed_histo_events() {
        let rec = Recorder::memory();
        let reg = Registry::new();
        reg.histogram("serve.rtt.triage_us").record(250);
        reg.flush_to(&rec);
        let events = rec.snapshot();
        let found = events.iter().any(|e| {
            matches!(
                &e.kind,
                crate::EventKind::Histo { name, count, buckets: Some(b), .. }
                    if name == "serve.rtt.triage_us" && *count == 1 && b.iter().sum::<u64>() == 1
            )
        });
        assert!(found, "registry flush must emit a bucketed Histo event");
    }

    #[test]
    fn flush_to_journals_the_summary_and_the_buckets() {
        let rec = Recorder::memory();
        let reg = Registry::new();
        let h = reg.histogram("h");
        for v in [0, 1, 1000] {
            h.record(v);
        }
        reg.flush_to(&rec);
        let histo = rec.snapshot().iter().find_map(|e| match &e.kind {
            crate::EventKind::Histo {
                name,
                count,
                sum,
                min,
                max,
                buckets,
            } if name == "h" => Some((*count, *sum, *min, *max, buckets.clone())),
            _ => None,
        });
        let (count, sum, min, max, buckets) = histo.expect("flush emits a Histo event");
        assert_eq!((count, sum, min, max), (3, 1001, 0, 1000));
        let buckets = buckets.expect("registry histograms carry buckets");
        assert_eq!(buckets.iter().sum::<u64>(), 3);
        assert_eq!(buckets[0], 1, "zero lands in bucket 0");
        assert_eq!(buckets[1], 1);
        assert_eq!(buckets[bucket_index(1000)], 1);
    }
}
