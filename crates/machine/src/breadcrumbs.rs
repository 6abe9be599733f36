//! Execution breadcrumbs: cheap post-crash evidence (paper §2.4).
//!
//! The paper observes that RES "can benefit from coredumps augmented with
//! runtime information that is cheap to collect after the crash": the
//! Intel Last Branch Record (a hardware ring of the last ~16 branches,
//! recorded at essentially zero cost) and existing error logs. This
//! module models both.

use std::collections::VecDeque;

use mvm_json::json_struct;

use mvm_isa::Loc;

use crate::thread::ThreadId;

/// One taken control transfer: source and destination locations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LbrEntry {
    /// Thread that took the branch.
    pub tid: ThreadId,
    /// Location of the transferring terminator.
    pub from: Loc,
    /// Destination location.
    pub to: Loc,
    /// `true` if this entry came from a *conditional* branch whose
    /// outcome could be re-derived offline from the CFG — the class the
    /// paper suggests filtering out of the hardware ring to extend its
    /// effective length (§2.4).
    pub inferrable: bool,
}

/// A fixed-capacity ring of the last taken branches, like Intel LBR.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LbrRing {
    capacity: usize,
    entries: VecDeque<LbrEntry>,
    /// When `true`, conditional branches with a single feasible outcome
    /// are not recorded, extending the ring's reach (paper §2.4's
    /// "filter taken conditional branches" extension).
    filter_inferrable: bool,
}

impl LbrRing {
    /// Creates a ring with the given capacity (0 disables recording).
    pub fn new(capacity: usize) -> Self {
        LbrRing {
            capacity,
            entries: VecDeque::with_capacity(capacity),
            filter_inferrable: false,
        }
    }

    /// Enables the §2.4 filtering extension: inferrable entries are
    /// dropped instead of consuming ring slots.
    pub fn with_filtering(mut self, on: bool) -> Self {
        self.filter_inferrable = on;
        self
    }

    /// Records a taken branch (evicting the oldest entry when full).
    pub fn record(&mut self, entry: LbrEntry) {
        if self.capacity == 0 || (self.filter_inferrable && entry.inferrable) {
            return;
        }
        if self.entries.len() == self.capacity {
            self.entries.pop_front();
        }
        self.entries.push_back(entry);
    }

    /// The recorded entries, oldest first.
    pub fn entries(&self) -> impl Iterator<Item = &LbrEntry> {
        self.entries.iter()
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

/// One error-log record: a coarse execution breadcrumb (paper §2.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogRecord {
    /// Thread that logged.
    pub tid: ThreadId,
    /// Location of the `output ..., log` instruction.
    pub at: Loc,
    /// The logged value.
    pub value: u64,
    /// Global step count when logged.
    pub step: u64,
}

// Invoked here (not in a central serde module) because LbrRing's fields
// are private; the macro expands to impls that read them directly.
json_struct!(LbrEntry {
    tid,
    from,
    to,
    inferrable
});
json_struct!(LbrRing {
    capacity,
    entries,
    filter_inferrable
});
json_struct!(LogRecord {
    tid,
    at,
    value,
    step
});

#[cfg(test)]
mod tests {
    use super::*;
    use mvm_isa::{BlockId, FuncId};

    fn entry(i: u32, inferrable: bool) -> LbrEntry {
        LbrEntry {
            tid: 0,
            from: Loc {
                func: FuncId(0),
                block: BlockId(i),
                inst: 0,
            },
            to: Loc {
                func: FuncId(0),
                block: BlockId(i + 1),
                inst: 0,
            },
            inferrable,
        }
    }

    #[test]
    fn ring_evicts_oldest() {
        let mut r = LbrRing::new(3);
        for i in 0..5 {
            r.record(entry(i, false));
        }
        assert_eq!(r.len(), 3);
        let froms: Vec<u32> = r.entries().map(|e| e.from.block.0).collect();
        assert_eq!(froms, vec![2, 3, 4]);
    }

    #[test]
    fn zero_capacity_records_nothing() {
        let mut r = LbrRing::new(0);
        r.record(entry(0, false));
        assert!(r.is_empty());
    }

    #[test]
    fn filtering_extends_reach() {
        let mut plain = LbrRing::new(2);
        let mut filtered = LbrRing::new(2).with_filtering(true);
        for i in 0..4 {
            // Alternate inferrable and essential branches.
            let e = entry(i, i % 2 == 0);
            plain.record(e);
            filtered.record(e);
        }
        // Plain ring holds the last two entries regardless of kind;
        // the filtered ring holds the last two *essential* ones, which
        // reach further back in time.
        assert_eq!(plain.len(), 2);
        assert_eq!(filtered.len(), 2);
        assert!(filtered.entries().all(|e| !e.inferrable));
        let earliest_plain = plain.entries().next().unwrap().from.block.0;
        let earliest_filtered = filtered.entries().next().unwrap().from.block.0;
        assert!(earliest_filtered <= earliest_plain);
    }
}
