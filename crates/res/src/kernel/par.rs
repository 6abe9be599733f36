//! Deterministic thread fan-out for embarrassingly parallel work.
//!
//! One search runs on one thread; corpus-scale evaluation (hundreds of
//! generated programs, each an independent synthesize) and the
//! experiment harness parallelize *across* searches. The contract: the
//! thread count changes wall clock only, never a result byte.
//! [`parallel_map`] delivers that by making the output a pure
//! positional function of the input — workers race only for *which*
//! index they process next, and every result is placed by its input
//! index before the call returns.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Worker count from the machine's available parallelism, clamped to
/// `1..=8` (beyond 8, corpus runs saturate memory bandwidth first).
pub fn auto_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .clamp(1, 8)
}

/// Maps `f` over `items` on up to `threads` OS threads, returning the
/// results in input order.
///
/// Work is claimed from a shared atomic index (dynamic scheduling, so a
/// slow item does not stall a whole static chunk), but the output vector
/// is assembled positionally: `out[i] == f(i, &items[i])` regardless of
/// thread count or claim interleaving. `f` must itself be deterministic
/// for the call to be; nothing here injects ordering dependence.
///
/// # Panics
///
/// Propagates the first worker panic after all threads are joined.
pub fn parallel_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let threads = threads.max(1).min(items.len().max(1));
    if threads == 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let next = AtomicUsize::new(0);
    let mut out: Vec<Option<R>> = Vec::with_capacity(items.len());
    out.resize_with(items.len(), || None);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut got: Vec<(usize, R)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        got.push((i, f(i, &items[i])));
                    }
                    got
                })
            })
            .collect();
        let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
        for h in handles {
            match h.join() {
                Ok(chunk) => {
                    for (i, r) in chunk {
                        out[i] = Some(r);
                    }
                }
                Err(e) => panic = panic.or(Some(e)),
            }
        }
        if let Some(e) = panic {
            std::panic::resume_unwind(e);
        }
    });
    out.into_iter()
        .map(|o| o.expect("every index claimed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_positional_at_any_thread_count() {
        let items: Vec<u64> = (0..97).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [1usize, 2, 3, 8, 64] {
            let got = parallel_map(&items, threads, |_, x| x * x);
            assert_eq!(got, expect, "threads = {threads}");
        }
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let got: Vec<u64> = parallel_map(&[] as &[u64], 4, |_, x| *x);
        assert!(got.is_empty());
    }

    #[test]
    fn index_argument_matches_position() {
        let items = ["a", "b", "c", "d"];
        let got = parallel_map(&items, 2, |i, s| format!("{i}:{s}"));
        assert_eq!(got, vec!["0:a", "1:b", "2:c", "3:d"]);
    }

    #[test]
    fn auto_workers_is_clamped() {
        let n = auto_workers();
        assert!((1..=8).contains(&n));
    }
}
