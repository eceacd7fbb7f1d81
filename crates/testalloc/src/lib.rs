//! # eml-testalloc
//!
//! A counting global allocator for tests that pin how many heap
//! allocations a code path makes. It forwards every call to
//! [`std::alloc::System`] and counts, per thread, each allocation
//! (`alloc`, `alloc_zeroed`, and a `realloc`, which may move the block)
//! and the bytes requested. Counting per thread keeps the numbers exact
//! while other tests of the same binary run on other threads. A
//! process-wide tally of the same calls ([`count_process`]) counts
//! what helper threads allocate too; it is exact only in a binary that
//! runs one test at a time. So is the process's live heap
//! ([`live_bytes`]): the bytes of every block allocated and not yet
//! freed, which a teardown test reads to see that what it built was
//! given back.
//!
//! Dev-only: a test binary installs it with
//!
//! ```
//! #[global_allocator]
//! static ALLOC: eml_testalloc::Counting = eml_testalloc::Counting;
//!
//! let (v, allocs) = eml_testalloc::count(|| vec![1u8; 64]);
//! assert_eq!(allocs.count, 1);
//! assert_eq!(allocs.bytes, 64);
//! let held = eml_testalloc::live_bytes();
//! drop(v);
//! assert_eq!(held - eml_testalloc::live_bytes(), 64);
//! ```
//!
//! and no product crate depends on it. It holds the workspace's one
//! `unsafe impl GlobalAlloc` (see docs/INVARIANTS.md,
//! `unsafe-confinement`).

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

thread_local! {
    /// This thread's `(allocations, bytes requested)` so far. A const
    /// initialiser with no destructor: reading it never allocates, so
    /// the allocator can use it.
    static COUNTS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// Allocation calls made by every thread of the process so far.
static PROCESS: AtomicU64 = AtomicU64::new(0);

/// Bytes of the blocks every thread of the process holds right now.
static LIVE: AtomicU64 = AtomicU64::new(0);

/// Counts one allocation of `bytes`: in the process tally always, and
/// on the calling thread unless its locals are gone (during its exit).
fn note(bytes: usize) {
    PROCESS.fetch_add(1, Ordering::Relaxed);
    let _ = COUNTS.try_with(|c| {
        let (n, b) = c.get();
        c.set((n + 1, b + bytes as u64));
    });
}

/// The counting allocator: [`System`] plus per-thread and process-wide
/// counts.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counting;

/// Moves the live-heap tally from a block of `from` bytes to one of
/// `to` (0 for none) when `ptr`, the allocator's answer, is not null.
fn resize_live(ptr: *mut u8, from: usize, to: usize) -> *mut u8 {
    if !ptr.is_null() {
        // Wrapping: a shrink adds the two's complement of its size.
        LIVE.fetch_add((to as u64).wrapping_sub(from as u64), Ordering::Relaxed);
    }
    ptr
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counting touches only a
// const-initialised thread-local `Cell` and static atomics, and never
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: forwarded with the caller's layout (see above).
        resize_live(unsafe { System.alloc(layout) }, 0, layout.size())
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: forwarded with the caller's layout (see above).
        resize_live(unsafe { System.alloc_zeroed(layout) }, 0, layout.size())
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` was allocated by `System` with `layout` (every
        // allocation of this allocator is), forwarded unchanged. On
        // failure the old block stays allocated, and so counted.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        resize_live(moved, layout.size(), new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) };
        resize_live(ptr, layout.size(), 0);
    }
}

/// Heap allocations counted on one thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Allocs {
    /// Allocation calls (`alloc`, `alloc_zeroed`, `realloc`).
    pub count: u64,
    /// Bytes those calls requested.
    pub bytes: u64,
}

/// Runs `f` and returns its result with the allocations it made on the
/// calling thread. Counts are only kept while [`Counting`] is the
/// binary's global allocator; otherwise they read zero.
pub fn count<R>(f: impl FnOnce() -> R) -> (R, Allocs) {
    let before = COUNTS.with(Cell::get);
    let r = f();
    let after = COUNTS.with(Cell::get);
    let allocs = Allocs {
        count: after.0 - before.0,
        bytes: after.1 - before.1,
    };
    (r, allocs)
}

/// Runs `f` and returns its result with the allocation calls the whole
/// process made meanwhile, on any thread. Only a binary with a single
/// test gets an exact figure: a concurrent test's allocations count
/// too.
pub fn count_process<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = PROCESS.load(Ordering::SeqCst);
    let r = f();
    (r, PROCESS.load(Ordering::SeqCst) - before)
}

/// Bytes the whole process holds on the heap right now: every block
/// allocated (at its requested size) and not yet freed, on any thread.
/// Zero unless [`Counting`] is the binary's global allocator; like
/// [`count_process`], only a binary with a single test reads a figure
/// no other test moves.
pub fn live_bytes() -> u64 {
    LIVE.load(Ordering::SeqCst)
}
