//! The shared pool's scheduler: which app a free driver claims next.
//!
//! Every driver pulls from one ready order ([`sched_key`]): among the
//! claimable apps, pending knob work goes first (cheap, and the control
//! plane's actuation latency rides on it), then weighted
//! earliest-deadline-first; ties break on registration order, so the
//! order is total and deterministic. A claim marks the app *busy*:
//! exactly one driver works an app at a time, which preserves per-app
//! FIFO completion order and keeps per-app results bit-identical
//! whether the app runs solo or among a hundred co-tenants.
//!
//! A claim is an O(roster) scan under the scheduler lock, peeking at
//! each app's ledger (ranks: `EXEC_POOL` below `EXEC_QUEUE`).

use std::sync::atomic::AtomicUsize;
use std::sync::{Arc, Condvar};
use std::time::{Duration, Instant};

use eml_core::sync::{rank, RankedMutex};

use super::ledger::Ledger;
use super::supervise::Driver;
use super::App;

/// Virtual-deadline budget (seconds) for apps registered without a
/// latency requirement: tight enough that best-effort tenants are not
/// starved behind every deadline-bearing tenant, loose enough that
/// real deadlines still dominate the EDF order.
const DEFAULT_EDF_BUDGET_SECS: f64 = 0.1;

/// The pool scheduler's shared state: the roster of registered DNN
/// apps the EDF scan walks, and the pool-wide stop flag.
pub(super) struct PoolState {
    pub(super) roster: Vec<Arc<App>>,
    pub(super) stopping: bool,
}

/// What every pool driver shares: the scheduler state, the wakeup
/// condvar, the live-driver census and the EDF epoch.
pub(super) struct PoolShared {
    /// Ranked *below* every per-app lock (`EXEC_POOL` < `EXEC_QUEUE`)
    /// so a driver may hold the scheduler across its scan while
    /// peeking at each app's ledger.
    pub(super) sched: RankedMutex<PoolState>,
    /// Signalled on submit / knob push / resume / release / stop.
    pub(super) work: Condvar,
    /// Drivers currently alive (spawned minus reaped-dead). Lifecycle
    /// paths consult it so a fully-dead pool cannot hang a drain.
    pub(super) live_drivers: AtomicUsize,
    /// The EDF time origin: virtual deadlines are offsets from here,
    /// so they are totally ordered plain `Duration`s.
    pub(super) epoch: Instant,
}

impl PoolShared {
    /// An empty, running pool whose EDF clock starts now.
    pub(super) fn new() -> Self {
        let state = PoolState {
            roster: Vec::new(),
            stopping: false,
        };
        Self {
            sched: RankedMutex::new(rank::EXEC_POOL, "exec-pool", state),
            work: Condvar::new(),
            live_drivers: AtomicUsize::new(0),
            epoch: Instant::now(),
        }
    }

    /// Wakes every driver for a rescan, without losing a wakeup: a
    /// scanning driver holds the scheduler lock continuously from its
    /// scan until its condvar wait (which releases atomically), so
    /// taking the lock here guarantees the notify lands after the
    /// driver either saw the new state or started waiting.
    pub(super) fn ring(&self) {
        drop(self.sched.lock());
        self.work.notify_all();
    }
}

/// The shared pool's scheduling key, in *ascending* urgency order:
/// smaller is sooner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum SchedKey {
    /// The app has queued knob commands (and is claimable): actuate
    /// before any batch work, in registration order.
    Knob(u64),
    /// Weighted earliest-deadline-first: the virtual deadline of the
    /// app's oldest pending request (offset from the pool epoch),
    /// then the registration-order tie-break.
    Edf(Duration, u64),
}

/// The claimability and urgency of one app, computed under its ledger
/// lock during a driver's roster scan. `None` means not claimable:
/// already claimed (`busy`), paused, stopped-and-empty, or simply
/// idle.
///
/// The virtual deadline is `arrival + budget / weight`: an app's
/// latency budget (its deadline requirement, or
/// [`DEFAULT_EDF_BUDGET_SECS`] for best-effort apps) scaled down by
/// its RTM band allocation. A fatter band means less slack added to
/// the arrival time — the pool serves better-allocated tenants
/// sooner, which is exactly the weighted share the starvation
/// regression pins.
fn sched_key(st: &Ledger, app: &App, pool_epoch: Instant) -> Option<SchedKey> {
    if st.busy {
        return None;
    }
    if st.stopping && st.depth() == 0 {
        return None;
    }
    if !st.knobs.is_empty() {
        return Some(SchedKey::Knob(app.reg_index));
    }
    if st.paused && !st.stopping {
        return None;
    }
    let oldest = st.oldest()?;
    let budget = app
        .deadline
        .map_or(DEFAULT_EDF_BUDGET_SECS, |d| d.as_secs().max(0.0));
    let weight = st.band_cap.max(1) as f64;
    let virtual_deadline = oldest.submitted.saturating_duration_since(pool_epoch)
        + Duration::from_secs_f64(budget / weight);
    Some(SchedKey::Edf(virtual_deadline, app.reg_index))
}

/// Claims the most urgent runnable app for this driver, or blocks
/// until one appears. Returns `None` only when the pool is stopping
/// and nothing is left to drain — the driver's exit condition.
///
/// The scan holds the pool scheduler lock throughout, and the condvar
/// wait releases it atomically — with [`PoolShared::ring`] taking the
/// same lock before notifying, a wakeup can never fall between a
/// driver's decision to sleep and its sleep.
pub(super) fn next_app(drv: &Driver) -> Option<Arc<App>> {
    let pool = &drv.pool;
    let mut ps = pool.sched.lock();
    loop {
        drv.beat();
        let mut best: Option<(SchedKey, &Arc<App>)> = None;
        for app in &ps.roster {
            let key = sched_key(&app.ledger.lock(), app, pool.epoch);
            if let Some(key) = key {
                // `match`, not `map_or`: the strict-less comparison
                // keeps the earliest key and the earliest-registered
                // app on ties.
                match &best {
                    Some((b, _)) if *b <= key => {}
                    _ => best = Some((key, app)),
                }
            }
        }
        if let Some((_, app)) = best {
            // Re-verify under the app lock before claiming: another
            // actor (watchdog confiscation, a racing drain) may have
            // changed the queue between the scan's peek and now.
            let mut st = app.ledger.lock();
            if sched_key(&st, app, pool.epoch).is_none() {
                continue;
            }
            st.busy = true;
            return Some(Arc::clone(app));
        }
        if ps.stopping {
            return None;
        }
        ps = pool.sched.wait(&pool.work, ps);
    }
}
