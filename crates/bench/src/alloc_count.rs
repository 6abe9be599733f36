//! Heap allocations counted per thread.
//!
//! [`CountingAlloc`] forwards to the system allocator and counts each
//! new block (`alloc`, `alloc_zeroed`, `realloc`) made on a thread
//! while that thread runs [`count_allocations`]. Install it as the
//! binary's `#[global_allocator]`; the `search` benches print their
//! counts with it, and `tests/alloc_budget.rs` and
//! `tests/obs_determinism.rs` include this file to gate counts. Counts
//! are deterministic where the measured code is, so they can be gated
//! where timings cannot.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static COUNT: Cell<u64> = const { Cell::new(0) };
}

/// The counting global allocator.
pub struct CountingAlloc;

fn note() {
    // `try_with`: the allocator also runs while a thread's locals are
    // torn down.
    let counting = COUNTING.try_with(Cell::get).unwrap_or(false);
    if counting {
        let _ = COUNT.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every call forwards to `System` with the caller's arguments.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Runs `f`, returning its value and the allocations this thread made
/// while it ran (0 unless [`CountingAlloc`] is the global allocator).
pub fn count_allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = COUNT.with(Cell::get);
    COUNTING.with(|c| c.set(true));
    let value = f();
    COUNTING.with(|c| c.set(false));
    (value, COUNT.with(Cell::get) - before)
}
