//! Pluggable exploration frontiers.
//!
//! The kernel hands each expanded node's surviving children — in
//! enumeration order, with their [`NodeScore`]s — to a [`Frontier`],
//! which decides what to explore next. Three orders are provided:
//!
//! * [`Dfs`] — byte-identical to the engine's historical worklist:
//!   children are stably sorted by descending priority value and
//!   appended to a stack, so the best (lowest) priority pops first and
//!   equal-priority children pop in enumeration order.
//! * [`Bfs`] — level order; children sorted best-first within a level.
//! * [`BestFirst`] — a global priority queue scored by breadcrumb/LBR
//!   agreement (related work frames backward debugging as exactly this
//!   search-strategy choice: FReD's binary search, Transition
//!   Watchpoints' prioritization).

use std::collections::{BinaryHeap, VecDeque};

/// How promising a frontier entry is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NodeScore {
    /// Candidate priority from hypothesis enumeration; 0 is best.
    pub priority: u8,
    /// Suffix depth of the node (block-granular steps reconstructed).
    pub depth: usize,
    /// Breadcrumbs (LBR entries + error-log entries) already matched by
    /// the path to this node; more agreement = more trustworthy.
    pub crumbs_matched: usize,
}

impl NodeScore {
    /// Score of the search root.
    pub fn root() -> Self {
        NodeScore::default()
    }
}

/// An exploration order over scored nodes.
pub trait Frontier<N> {
    /// Adds one expansion's children, given in enumeration order.
    fn extend(&mut self, children: Vec<(NodeScore, N)>);
    /// Removes the next node to explore.
    fn pop(&mut self) -> Option<(NodeScore, N)>;
    /// Entries currently queued.
    fn len(&self) -> usize;
    /// `true` when nothing is queued.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Removes and returns everything still queued — used to account
    /// for abandoned search space when a budget cuts the exploration.
    fn drain(&mut self) -> Vec<(NodeScore, N)>;
}

/// Depth-first order, reproducing the pre-kernel engine exactly.
#[derive(Debug, Default)]
pub struct Dfs<N> {
    stack: Vec<(NodeScore, N)>,
}

impl<N> Dfs<N> {
    /// An empty DFS frontier.
    pub fn new() -> Self {
        Dfs { stack: Vec::new() }
    }
}

impl<N> Frontier<N> for Dfs<N> {
    fn extend(&mut self, mut children: Vec<(NodeScore, N)>) {
        // Stable sort by *descending* priority value, then push in
        // order: the best (lowest value) lands on top of the stack, and
        // equal-priority children pop in enumeration order. This is
        // exactly the historical `sort_by(|a, b| b.0.cmp(&a.0))` +
        // push loop; do not "simplify" to ascending-sort-and-reverse,
        // which flips the equal-priority order.
        children.sort_by(|a, b| b.0.priority.cmp(&a.0.priority));
        self.stack.extend(children);
    }

    fn pop(&mut self) -> Option<(NodeScore, N)> {
        self.stack.pop()
    }

    fn len(&self) -> usize {
        self.stack.len()
    }

    fn drain(&mut self) -> Vec<(NodeScore, N)> {
        std::mem::take(&mut self.stack)
    }
}

/// Breadth-first (level) order.
#[derive(Debug, Default)]
pub struct Bfs<N> {
    queue: VecDeque<(NodeScore, N)>,
}

impl<N> Bfs<N> {
    /// An empty BFS frontier.
    pub fn new() -> Self {
        Bfs {
            queue: VecDeque::new(),
        }
    }
}

impl<N> Frontier<N> for Bfs<N> {
    fn extend(&mut self, mut children: Vec<(NodeScore, N)>) {
        // Best (lowest priority value) first within the sibling group;
        // stable, so equal priorities keep enumeration order.
        children.sort_by(|a, b| a.0.priority.cmp(&b.0.priority));
        self.queue.extend(children);
    }

    fn pop(&mut self) -> Option<(NodeScore, N)> {
        self.queue.pop_front()
    }

    fn len(&self) -> usize {
        self.queue.len()
    }

    fn drain(&mut self) -> Vec<(NodeScore, N)> {
        std::mem::take(&mut self.queue).into_iter().collect()
    }
}

struct HeapEntry<N> {
    score: NodeScore,
    seq: u64,
    node: N,
}

impl<N> HeapEntry<N> {
    /// Ranking key for the max-heap: most breadcrumbs matched, then
    /// best candidate priority, then deepest (closest to a complete
    /// suffix), then FIFO on insertion order for determinism.
    fn key(&self) -> (usize, std::cmp::Reverse<u8>, usize, std::cmp::Reverse<u64>) {
        (
            self.score.crumbs_matched,
            std::cmp::Reverse(self.score.priority),
            self.score.depth,
            std::cmp::Reverse(self.seq),
        )
    }
}

impl<N> PartialEq for HeapEntry<N> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<N> Eq for HeapEntry<N> {}
impl<N> PartialOrd for HeapEntry<N> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<N> Ord for HeapEntry<N> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

/// Global best-first order scored by breadcrumb agreement.
#[derive(Default)]
pub struct BestFirst<N> {
    heap: BinaryHeap<HeapEntry<N>>,
    seq: u64,
}

impl<N> BestFirst<N> {
    /// An empty best-first frontier.
    pub fn new() -> Self {
        BestFirst {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }
}

impl<N> Frontier<N> for BestFirst<N> {
    fn extend(&mut self, children: Vec<(NodeScore, N)>) {
        for (score, node) in children {
            let seq = self.seq;
            self.seq += 1;
            self.heap.push(HeapEntry { score, seq, node });
        }
    }

    fn pop(&mut self) -> Option<(NodeScore, N)> {
        self.heap.pop().map(|e| (e.score, e.node))
    }

    fn len(&self) -> usize {
        self.heap.len()
    }

    fn drain(&mut self) -> Vec<(NodeScore, N)> {
        std::mem::take(&mut self.heap)
            .into_sorted_vec()
            .into_iter()
            .map(|e| (e.score, e.node))
            .collect()
    }
}

/// Which frontier a config selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FrontierKind {
    /// Historical depth-first order (the default; byte-identical to the
    /// pre-kernel engine).
    #[default]
    Dfs,
    /// Breadth-first order.
    Bfs,
    /// Best-first by breadcrumb agreement.
    BestFirst,
}

impl FrontierKind {
    /// Instantiates the frontier.
    pub fn build<N: 'static>(self) -> Box<dyn Frontier<N>> {
        match self {
            FrontierKind::Dfs => Box::new(Dfs::new()),
            FrontierKind::Bfs => Box::new(Bfs::new()),
            FrontierKind::BestFirst => Box::new(BestFirst::new()),
        }
    }

    /// Short display name for harness tables.
    pub fn name(self) -> &'static str {
        match self {
            FrontierKind::Dfs => "dfs",
            FrontierKind::Bfs => "bfs",
            FrontierKind::BestFirst => "best-first",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scored(priority: u8, tag: u32) -> (NodeScore, u32) {
        (
            NodeScore {
                priority,
                ..NodeScore::default()
            },
            tag,
        )
    }

    /// The property the golden suffix fixture depends on: descending
    /// stable sort + stack append means the best (lowest) priority pops
    /// first, and among equal priorities the *later-enumerated* sibling
    /// pops first — exactly the historical engine's order.
    #[test]
    fn dfs_matches_legacy_order() {
        let mut f = Dfs::new();
        f.extend(vec![scored(2, 1), scored(0, 2), scored(0, 3), scored(1, 4)]);
        let popped: Vec<u32> = std::iter::from_fn(|| f.pop()).map(|(_, n)| n).collect();
        assert_eq!(popped, vec![3, 2, 4, 1]);
    }

    #[test]
    fn dfs_interleaves_expansions_like_a_stack() {
        let mut f = Dfs::new();
        f.extend(vec![scored(1, 10), scored(0, 11)]);
        assert_eq!(f.pop().unwrap().1, 11);
        f.extend(vec![scored(0, 20), scored(0, 21)]);
        let popped: Vec<u32> = std::iter::from_fn(|| f.pop()).map(|(_, n)| n).collect();
        assert_eq!(popped, vec![21, 20, 10]);
    }

    #[test]
    fn bfs_is_level_order() {
        let mut f = Bfs::new();
        f.extend(vec![scored(1, 1), scored(0, 2)]);
        assert_eq!(f.pop().unwrap().1, 2);
        f.extend(vec![scored(0, 3)]);
        assert_eq!(f.pop().unwrap().1, 1);
        assert_eq!(f.pop().unwrap().1, 3);
    }

    #[test]
    fn best_first_prefers_crumb_agreement_then_fifo() {
        let mut f = BestFirst::new();
        f.extend(vec![
            (
                NodeScore {
                    priority: 0,
                    depth: 1,
                    crumbs_matched: 0,
                },
                1u32,
            ),
            (
                NodeScore {
                    priority: 2,
                    depth: 1,
                    crumbs_matched: 3,
                },
                2,
            ),
            (
                NodeScore {
                    priority: 2,
                    depth: 1,
                    crumbs_matched: 3,
                },
                3,
            ),
        ]);
        assert_eq!(f.pop().unwrap().1, 2, "most crumbs wins");
        assert_eq!(f.pop().unwrap().1, 3, "FIFO among ties");
        assert_eq!(f.pop().unwrap().1, 1);
    }

    #[test]
    fn drain_empties_the_frontier() {
        for kind in [
            FrontierKind::Dfs,
            FrontierKind::Bfs,
            FrontierKind::BestFirst,
        ] {
            let mut f = kind.build::<u32>();
            f.extend(vec![scored(0, 1), scored(1, 2), scored(2, 3)]);
            let drained = f.drain();
            assert_eq!(drained.len(), 3, "{kind:?}");
            assert!(f.is_empty(), "{kind:?}");
            assert!(f.pop().is_none(), "{kind:?}");
        }
    }
}
