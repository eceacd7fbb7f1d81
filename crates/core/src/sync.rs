//! Debug-build lock-order enforcement: [`RankedMutex`].
//!
//! The workspace's concurrency contract is a *total order* on its
//! mutexes: every subsystem's locks carry a numeric rank (see
//! [`rank`]), and a thread may only acquire a lock whose rank is
//! **strictly greater** than every rank it already holds. Acquiring in
//! increasing-rank order makes a cyclic wait — the necessary condition
//! for deadlock — impossible by construction.
//!
//! In debug builds every [`RankedMutex::lock`] checks the acquiring
//! thread's held-rank stack (a thread local) *before* blocking on the
//! OS mutex, and panics with both lock names on an out-of-order
//! acquisition — so every ordinary `cargo test` run doubles as a
//! lock-order checker, and a violation fails loudly at the acquisition
//! site instead of deadlocking some later run. In release builds the
//! bookkeeping compiles out entirely (`#[cfg(debug_assertions)]`);
//! what remains is a plain [`std::sync::Mutex`] behind a newtype.
//!
//! Poisoning is recovered (`PoisonError::into_inner`) — every critical
//! section in this workspace is short and state-restoring, and the
//! supervising layers (executor watchdog, connection reaper) own
//! crash recovery. Lock *data* after a panic is handled at those
//! layers; the lock itself stays usable.
//!
//! This check covers *every* pair of ranked locks and is the lock
//! order's enforcement of record; the invariant catalogue lives in
//! `docs/INVARIANTS.md`.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// The workspace lock-rank table: one constant per subsystem mutex,
/// globally ordered. A thread holding rank *r* may only acquire ranks
/// strictly greater than *r*.
///
/// The table is deliberately centralised (rather than per-crate) so
/// the *global* order — including cross-crate chains such as an
/// `eml-net` connection thread holding nothing while it calls into an
/// `eml-serve` submit that locks queue state — is documented in one
/// place. Gaps between values leave room for new locks without
/// renumbering (renumbering is fine, though: ranks are a build-time
/// contract, not a wire format).
pub mod rank {
    /// `eml-net` per-client admission registry.
    pub const NET_ADMISSION: u32 = 100;
    /// `eml-net` connection-thread handle list.
    pub const NET_CONNS: u32 = 110;
    /// `eml-serve` executor app map (registration/deregistration and
    /// name→runtime lookup). Below every per-app lock so lifecycle
    /// paths may resolve an app and then touch its queue/thread state.
    pub const EXEC_APPS: u32 = 190;
    /// `eml-serve` watchdog stop flag.
    pub const EXEC_WATCHDOG: u32 = 200;
    /// `eml-serve` shared worker-pool scheduler state (the app roster
    /// whose published EDF keys a claim scans, plus the pool stop
    /// flag). Below every per-app lock so a driver may hold the pool
    /// lock while it re-verifies its pick under that app's ledger.
    pub const EXEC_POOL: u32 = 215;
    /// `eml-serve` per-driver serving-thread handle.
    pub const EXEC_THREAD: u32 = 220;
    /// `eml-serve` per-driver current-app slot (which tenant a pool
    /// driver is serving right now; the watchdog confiscates through
    /// it).
    pub const EXEC_DRIVER: u32 = 225;
    /// `eml-serve` per-app ledger — queue, in-flight batch, every
    /// accounting counter and the latency window under one lock; the
    /// serving hot path.
    pub const EXEC_QUEUE: u32 = 230;
    /// `eml-serve` per-app model (held across a forward pass). Above
    /// the ledger: knob outcomes are recorded after the model lock is
    /// released, never under it.
    pub const EXEC_MODEL: u32 = 240;
    /// `eml-serve` per-app supervision (restart backoff) state.
    pub const EXEC_SUPERVISION: u32 = 260;
}

#[cfg(debug_assertions)]
mod held {
    use std::cell::RefCell;

    thread_local! {
        /// Ranks (and names, for the panic message) of every
        /// [`super::RankedMutex`] this thread currently holds, in
        /// acquisition order.
        static HELD: RefCell<Vec<(u32, &'static str)>> = const { RefCell::new(Vec::new()) };
    }

    /// Checks the order and records the acquisition. Called *before*
    /// blocking on the OS mutex, so a violation panics instead of
    /// deadlocking.
    pub(super) fn acquire(rank: u32, name: &'static str) {
        HELD.with(|h| {
            let mut h = h.borrow_mut();
            if let Some(&(top, top_name)) = h.last() {
                assert!(
                    rank > top,
                    "lock-order violation: acquiring `{name}` (rank {rank}) while holding \
                     `{top_name}` (rank {top}); ranks must strictly increase — \
                     see eml_core::sync::rank"
                );
            }
            h.push((rank, name));
        });
    }

    /// Releases the most recent acquisition of `rank`. Guards may drop
    /// out of order (that is legal and deadlock-free), so this removes
    /// the last matching entry rather than asserting a stack pop.
    pub(super) fn release(rank: u32) {
        HELD.with(|h| {
            let mut h = h.borrow_mut();
            if let Some(at) = h.iter().rposition(|&(r, _)| r == rank) {
                h.remove(at);
            }
        });
    }

    /// The number of ranked locks the current thread holds (test hook).
    #[cfg(test)]
    pub fn held_count() -> usize {
        HELD.with(|h| h.borrow().len())
    }
}

/// A [`std::sync::Mutex`] that participates in the workspace's global
/// lock-rank order. See the module docs for the contract; see
/// [`rank`] for the table.
#[derive(Debug)]
pub struct RankedMutex<T> {
    rank: u32,
    name: &'static str,
    inner: Mutex<T>,
}

impl<T> RankedMutex<T> {
    /// Wraps `value` in a mutex with the given rank and diagnostic
    /// name (conventionally a [`rank`] constant and its subsystem).
    pub const fn new(rank: u32, name: &'static str, value: T) -> Self {
        Self {
            rank,
            name,
            inner: Mutex::new(value),
        }
    }

    /// This lock's rank.
    pub fn rank(&self) -> u32 {
        self.rank
    }

    /// This lock's diagnostic name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Acquires the lock.
    ///
    /// In debug builds, panics if the calling thread already holds a
    /// ranked lock of equal or greater rank (an ordering violation
    /// that could deadlock under a different interleaving). Poisoning
    /// is recovered — see the module docs.
    pub fn lock(&self) -> RankedGuard<'_, T> {
        #[cfg(debug_assertions)]
        held::acquire(self.rank, self.name);
        let guard = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        RankedGuard {
            rank: self.rank,
            guard: Some(guard),
        }
    }

    /// Atomically releases `guard` and blocks on `cv`, reacquiring the
    /// lock on wake — [`Condvar::wait`] lifted to ranked guards. The
    /// rank stays on the thread's held stack across the wait: the
    /// caller still logically owns this lock's place in the order and
    /// wakes holding it again.
    pub fn wait<'a>(&self, cv: &Condvar, mut guard: RankedGuard<'a, T>) -> RankedGuard<'a, T> {
        if let Some(inner) = guard.guard.take() {
            guard.guard = Some(cv.wait(inner).unwrap_or_else(PoisonError::into_inner));
        }
        guard
    }

    /// [`RankedMutex::wait`] with a timeout; the boolean is `true` if
    /// the wait timed out.
    pub fn wait_timeout<'a>(
        &self,
        cv: &Condvar,
        mut guard: RankedGuard<'a, T>,
        timeout: Duration,
    ) -> (RankedGuard<'a, T>, bool) {
        let mut timed_out = false;
        if let Some(inner) = guard.guard.take() {
            let (inner, result) = cv
                .wait_timeout(inner, timeout)
                .unwrap_or_else(PoisonError::into_inner);
            timed_out = result.timed_out();
            guard.guard = Some(inner);
        }
        (guard, timed_out)
    }

    /// [`RankedMutex::wait_timeout`] until `condition` turns false —
    /// [`Condvar::wait_timeout_while`] lifted to ranked guards. The
    /// deadline is kept inside std: spurious and unrelated wakeups
    /// re-check `condition` and wait out only the remaining time. The
    /// boolean is `true` if the timeout elapsed with `condition` still
    /// true.
    pub fn wait_timeout_while<'a>(
        &self,
        cv: &Condvar,
        mut guard: RankedGuard<'a, T>,
        timeout: Duration,
        condition: impl FnMut(&mut T) -> bool,
    ) -> (RankedGuard<'a, T>, bool) {
        let mut timed_out = false;
        if let Some(inner) = guard.guard.take() {
            let (inner, result) = cv
                .wait_timeout_while(inner, timeout, condition)
                .unwrap_or_else(PoisonError::into_inner);
            timed_out = result.timed_out();
            guard.guard = Some(inner);
        }
        (guard, timed_out)
    }
}

/// The guard of a [`RankedMutex`]; releases the lock — and, in debug
/// builds, the thread's held-rank entry — on drop.
#[derive(Debug)]
pub struct RankedGuard<'a, T> {
    rank: u32,
    /// `None` only transiently inside `wait`/`wait_timeout`.
    guard: Option<MutexGuard<'a, T>>,
}

impl<T> std::ops::Deref for RankedGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        match &self.guard {
            Some(g) => g,
            // Unreachable: `guard` is `None` only while `wait` holds
            // the `RankedGuard` by value, when no deref can occur.
            None => unreachable!("ranked guard observed mid-wait"),
        }
    }
}

impl<T> std::ops::DerefMut for RankedGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        match &mut self.guard {
            Some(g) => g,
            None => unreachable!("ranked guard observed mid-wait"),
        }
    }
}

impl<T> Drop for RankedGuard<'_, T> {
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        held::release(self.rank);
        #[cfg(not(debug_assertions))]
        let _ = self.rank;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn in_order_acquisition_nests_and_releases() {
        let queue = RankedMutex::new(rank::EXEC_QUEUE, "queue", 1u32);
        let model = RankedMutex::new(rank::EXEC_MODEL, "model", 2u32);
        {
            let q = queue.lock();
            let m = model.lock();
            assert_eq!(*q + *m, 3);
        }
        // Everything released: the same order works again, and the
        // lower rank is reacquirable on its own.
        let q = queue.lock();
        assert_eq!(*q, 1);
        #[cfg(debug_assertions)]
        assert_eq!(held::held_count(), 1);
    }

    #[test]
    fn out_of_order_release_is_legal() {
        let a = RankedMutex::new(10, "a", ());
        let b = RankedMutex::new(20, "b", ());
        let ga = a.lock();
        let gb = b.lock();
        drop(ga); // release the *lower* rank first
        drop(gb);
        // The held stack is clean: a fresh ordered pair still works.
        let _ga = a.lock();
        let _gb = b.lock();
    }

    /// The acceptance-criteria test: an inverted acquisition (higher
    /// rank held, lower rank requested) panics in debug builds rather
    /// than setting up a potential deadlock.
    #[test]
    #[cfg_attr(
        not(debug_assertions),
        ignore = "rank checking compiles out in release builds"
    )]
    fn inverted_acquisition_panics_in_debug() {
        let queue = RankedMutex::new(rank::EXEC_QUEUE, "queue-state", ());
        let model = RankedMutex::new(rank::EXEC_MODEL, "model", ());
        let held = model.lock();
        let result = catch_unwind(AssertUnwindSafe(|| {
            let _violation = queue.lock();
        }));
        let panic = result.expect_err("inverted order must panic in debug");
        let msg = panic
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "<non-string payload>".into());
        assert!(
            msg.contains("lock-order violation")
                && msg.contains("queue-state")
                && msg.contains("model"),
            "diagnostic names both locks: {msg}"
        );
        drop(held);
        // The failed acquisition left no stale held-rank entry.
        #[cfg(debug_assertions)]
        assert_eq!(held::held_count(), 0);
        let _q = queue.lock();
        let _m = model.lock();
    }

    #[test]
    #[cfg_attr(
        not(debug_assertions),
        ignore = "rank checking compiles out in release builds"
    )]
    fn equal_rank_nesting_panics_in_debug() {
        let a = RankedMutex::new(50, "a", ());
        let b = RankedMutex::new(50, "b", ());
        let _ga = a.lock();
        assert!(catch_unwind(AssertUnwindSafe(|| {
            let _gb = b.lock();
        }))
        .is_err());
    }

    #[test]
    fn wait_timeout_reacquires_and_reports_expiry() {
        let m = RankedMutex::new(rank::EXEC_QUEUE, "queue", 7u32);
        let cv = Condvar::new();
        let g = m.lock();
        let (g, timed_out) = m.wait_timeout(&cv, g, Duration::from_millis(5));
        assert!(timed_out);
        assert_eq!(*g, 7, "woke up holding the lock again");
        drop(g);
        // A signalled wait wakes without the timeout flag.
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| {
                let mut g = m.lock();
                while *g != 99 {
                    let (got, timed_out) = m.wait_timeout(&cv, g, Duration::from_secs(5));
                    g = got;
                    if timed_out {
                        break;
                    }
                }
                *g
            });
            std::thread::sleep(Duration::from_millis(20));
            *m.lock() = 99;
            cv.notify_all();
            assert_eq!(waiter.join().expect("waiter"), 99);
        });
    }

    #[test]
    fn wait_timeout_while_rechecks_and_keeps_the_deadline() {
        let m = RankedMutex::new(rank::EXEC_QUEUE, "queue", 0u32);
        let cv = Condvar::new();
        // A false condition returns at once, holding the lock.
        let g = m.lock();
        let (g, timed_out) = m.wait_timeout_while(&cv, g, Duration::from_secs(60), |v| *v != 0);
        assert!(!timed_out && *g == 0);
        // Unrelated wakeups (the condition still true) do not end the
        // wait: it expires, holding the lock again.
        let (g, timed_out) = std::thread::scope(|scope| {
            scope.spawn(|| {
                for _ in 0..5 {
                    std::thread::sleep(Duration::from_millis(2));
                    *m.lock() += 1;
                    cv.notify_all();
                }
            });
            m.wait_timeout_while(&cv, g, Duration::from_millis(40), |v| *v < 1000)
        });
        assert!(timed_out);
        assert!(*g >= 1, "woke holding the lock again: {}", *g);
        #[cfg(debug_assertions)]
        assert_eq!(held::held_count(), 1, "the rank stays held across the wait");
        drop(g);
        // The condition turning false ends the wait without the flag.
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| {
                let g = m.lock();
                let (g, timed_out) =
                    m.wait_timeout_while(&cv, g, Duration::from_secs(5), |v| *v != 99);
                (*g, timed_out)
            });
            std::thread::sleep(Duration::from_millis(20));
            *m.lock() = 99;
            cv.notify_all();
            assert_eq!(waiter.join().expect("waiter"), (99, false));
        });
    }
}
