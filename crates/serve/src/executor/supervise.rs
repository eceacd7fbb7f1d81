//! Supervision of the pool drivers: heartbeats, the watchdog, restart
//! backoff.
//!
//! Each driver stores a heartbeat beacon before every scan and every
//! forward pass, and a watchdog thread (one per executor, ticking every
//! [`super::ExecutorConfig::watchdog_interval`]) checks every driver. A
//! driver that **died** (a panic escaping the forward's containment) has
//! the claimed app's in-flight batch failed with a typed
//! [`ServeError::Inference`], the app's busy mark cleared (so the
//! surviving drivers can serve it), and is restarted with bounded
//! exponential backoff ([`super::ExecutorConfig::restart_backoff`] ..
//! `restart_backoff_max`, doubling per consecutive crash); restarts
//! surface in [`crate::AppStatsSnapshot::restarts`] of the app whose
//! batch died. A driver that **wedged** — heartbeat stale past
//! [`super::ExecutorConfig::stall_timeout`] with work in flight — has
//! its batch confiscated and failed the same way
//! ([`crate::AppStatsSnapshot::stalls`]); if the forward later recovers,
//! its results are discarded (the riders were already answered).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use eml_core::sync::{rank, RankedMutex};

use super::driver::driver_loop;
use super::ledger::{LedgerGuard, Riders};
use super::sched::PoolShared;
use super::{App, ExecutorConfig};
use crate::error::ServeError;

/// Restart bookkeeping, owned by the watchdog and reset by a pool
/// driver on every completed batch.
#[derive(Default)]
pub(super) struct Supervision {
    /// Consecutive restarts without an intervening completed batch —
    /// the exponent of the restart backoff.
    pub(super) streak: u32,
    /// When the next restart may happen (set at death detection).
    restart_at: Option<Instant>,
}

/// One pool driver: its thread handle, its claim slot (which app it
/// is serving right now — the watchdog confiscates through it), its
/// supervision record and its heartbeat beacon.
pub(super) struct Driver {
    index: usize,
    pub(super) pool: Arc<PoolShared>,
    /// The app this driver currently has claimed (`busy` set). The
    /// watchdog reads it to know whose batch to fail when this driver
    /// dies or wedges.
    pub(super) current: RankedMutex<Option<Arc<App>>>,
    pub(super) thread: RankedMutex<Option<JoinHandle<()>>>,
    pub(super) supervision: RankedMutex<Supervision>,
    /// Liveness beacon: nanoseconds since the pool epoch, stored by
    /// the driver before every scan and every forward.
    heartbeat: AtomicU64,
}

impl Driver {
    /// Pool driver number `index`, not yet running
    /// ([`spawn_driver_thread`] starts it).
    pub(super) fn new(index: usize, pool: &Arc<PoolShared>) -> Arc<Self> {
        Arc::new(Self {
            index,
            pool: Arc::clone(pool),
            current: RankedMutex::new(rank::EXEC_DRIVER, "exec-driver-current", None),
            thread: RankedMutex::new(rank::EXEC_THREAD, "exec-thread", None),
            supervision: RankedMutex::new(
                rank::EXEC_SUPERVISION,
                "exec-supervision",
                Supervision::default(),
            ),
            heartbeat: AtomicU64::new(0),
        })
    }

    pub(super) fn beat(&self) {
        let now = self.pool.epoch.elapsed().as_nanos() as u64;
        self.heartbeat.store(now, Ordering::Relaxed);
    }

    fn heartbeat_age(&self) -> Duration {
        let last = Duration::from_nanos(self.heartbeat.load(Ordering::Relaxed));
        self.pool.epoch.elapsed().saturating_sub(last)
    }
}

/// The watchdog thread and its stop signal.
pub(super) struct Watchdog {
    stop: Arc<(RankedMutex<bool>, Condvar)>,
    thread: Option<JoinHandle<()>>,
}

impl Watchdog {
    /// Starts supervising `drivers` (the fixed set — supervision never
    /// needs a registry lock) on `cfg`'s watchdog timings.
    pub(super) fn spawn(drivers: Vec<Arc<Driver>>, cfg: ExecutorConfig) -> std::io::Result<Self> {
        let stop = Arc::new((
            RankedMutex::new(rank::EXEC_WATCHDOG, "exec-watchdog-stop", false),
            Condvar::new(),
        ));
        let signal = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("eml-serve-watchdog".into())
            .spawn(move || watchdog_loop(&signal, &drivers, &cfg))?;
        Ok(Self {
            stop,
            thread: Some(thread),
        })
    }

    /// Stops the watchdog and joins it: no restart can race what the
    /// caller does next.
    pub(super) fn stop(&mut self) {
        *self.stop.0.lock() = true;
        self.stop.1.notify_all();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

pub(super) fn spawn_driver_thread(drv: &Arc<Driver>) -> std::io::Result<JoinHandle<()>> {
    let drv = Arc::clone(drv);
    drv.beat(); // fresh beacon: a just-spawned driver is never "stale"
    std::thread::Builder::new()
        .name(format!("eml-serve-driver-{}", drv.index))
        .spawn(move || driver_loop(&drv))
}

/// The supervisor tick loop: scan every pool driver for death or
/// wedge until told to stop.
fn watchdog_loop(
    (stop, bell): &(RankedMutex<bool>, Condvar),
    drivers: &[Arc<Driver>],
    cfg: &ExecutorConfig,
) {
    let interval = cfg.watchdog_interval.max(Duration::from_millis(1));
    loop {
        {
            let stopped = stop.lock();
            if *stopped {
                return;
            }
            let (stopped, _timed_out) = stop.wait_timeout(bell, stopped, interval);
            if *stopped {
                return;
            }
        }
        for drv in drivers {
            supervise_driver(drv, cfg);
        }
    }
}

/// Schedules the driver's next restart: the base backoff doubled per
/// consecutive crash, capped.
fn backoff_delay(drv: &Driver, cfg: &ExecutorConfig) {
    let mut sup = drv.supervision.lock();
    let delay = cfg
        .restart_backoff
        .saturating_mul(2u32.saturating_pow(sup.streak.min(16)))
        .min(cfg.restart_backoff_max.max(cfg.restart_backoff));
    sup.restart_at = Some(Instant::now() + delay);
    sup.streak = sup.streak.saturating_add(1);
}

/// Fails the app's in-flight batch with a typed inference error (the
/// supervisor's path for dead and wedged drivers). Returns whether
/// there was a batch to fail, and the still-held ledger, so the caller
/// charges the failure in the same critical section: a deregistration
/// that sees the app idle has seen every count the watchdog makes.
fn fail_inflight<'a>(app: &'a App, reason: &str) -> (LedgerGuard<'a>, bool) {
    let mut st = app.ledger.lock();
    let confiscated = st.in_flight() > 0;
    app.ledger
        .fail(&mut st, Riders::InFlight, |_| ServeError::Inference {
            app: app.name.to_string(),
            reason: reason.into(),
        });
    (st, confiscated)
}

/// One supervision pass over one pool driver: join+restart a dead
/// driver (failing its claimed app's batch and freeing the claim),
/// confiscate a wedged driver's batch, or respawn after backoff.
fn supervise_driver(drv: &Arc<Driver>, cfg: &ExecutorConfig) {
    if drv.pool.sched.lock().stopping {
        return; // shutdown owns the drivers now
    }
    let mut th = drv.thread.lock();
    match th.as_ref() {
        Some(handle) if handle.is_finished() => {
            // The driver died (a panic escaped the forward's
            // containment). Collect it, fail the claimed app's
            // in-flight batch with a typed error, free the claim so
            // the surviving drivers can serve the app, and schedule a
            // bounded-backoff restart.
            if let Some(handle) = th.take() {
                let _ = handle.join();
            }
            drop(th);
            let victim = drv.current.lock().take();
            if let Some(app) = victim {
                let (mut st, _) = fail_inflight(
                    &app,
                    "pool driver died mid-batch; supervised restart pending",
                );
                // The restart is charged to the app whose batch killed
                // the driver — the per-tenant signal the control plane
                // and the chaos suites key off.
                st.busy = false;
                st.restarts += 1;
            }
            // Counted out after the victim is settled: a deregistration
            // that stops waiting on a dead pool has seen the restart.
            drv.pool.live_drivers.fetch_sub(1, Ordering::SeqCst);
            drv.pool.ring();
            backoff_delay(drv, cfg);
        }
        None => {
            // Dead and waiting out the backoff: respawn when due.
            let due = {
                let mut sup = drv.supervision.lock();
                let due = sup.restart_at.is_some_and(|at| Instant::now() >= at);
                if due {
                    sup.restart_at = None;
                }
                due
            };
            if !due {
                return;
            }
            match spawn_driver_thread(drv) {
                Ok(handle) => {
                    *th = Some(handle);
                    drop(th);
                    drv.pool.live_drivers.fetch_add(1, Ordering::SeqCst);
                    drv.pool.ring();
                }
                Err(_) => {
                    // The OS refused the thread (descriptor or thread
                    // exhaustion): re-arm the backoff and retry on a
                    // later watchdog tick instead of taking the
                    // supervisor down.
                    drop(th);
                    backoff_delay(drv, cfg);
                }
            }
        }
        Some(_) => {
            drop(th);
            // Alive but possibly wedged: a claim in flight with a
            // stale heartbeat means the forward has been stuck past
            // the stall budget. Confiscate the batch; if the forward
            // later recovers, the driver finds the in-flight slot
            // empty and discards its results. (An *idle* driver's
            // heartbeat also goes stale while it waits for work — but
            // idle drivers hold no claim, so `current` is `None` and
            // nothing is confiscated.)
            if drv.heartbeat_age() > cfg.stall_timeout.max(Duration::from_millis(1)) {
                let current = drv.current.lock().clone();
                if let Some(app) = current {
                    let (mut st, confiscated) =
                        fail_inflight(&app, "forward pass stalled past the stall timeout");
                    if confiscated {
                        st.stalls += 1;
                    }
                }
            }
        }
    }
}
