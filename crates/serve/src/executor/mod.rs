//! The multi-tenant serving executor.
//!
//! [`Executor`] owns a **fixed pool of driver threads** (sized by
//! [`ExecutorConfig::pool_workers`], *not* by the tenant count) that
//! serves every registered dynamic-DNN application from a shared ready
//! order. This file is the public surface and the lifecycle —
//! registration, submission, allocation, drain, shutdown; each of the
//! executor's other concerns has one home beneath it:
//!
//! - `ledger` — per app, the queue, the in-flight batch, every counter
//!   of `submitted + storm_injected == completed + errors + rejected +
//!   shed` and the latency window, under one lock; the only code that
//!   moves a request or counts one.
//! - `sched` — which app a free driver claims next (knob work, then
//!   weighted earliest-deadline-first; one driver per app at a time).
//! - `driver` — claim → deadline-aware micro-batch → forward on the
//!   real [`eml_dnn::DynamicDnn`] kernels → settle → release.
//! - `supervise` — heartbeats, the watchdog, typed failure of a dead or
//!   wedged driver's batch, bounded-backoff restart.
//! - [`crate::fault`] — everything an injected fault does, behind three
//!   calls from `driver`.
//!
//! Requests complete through per-request tickets, each reading its
//! outcome from a completion slot in the app's ledger (no channel, and
//! after warm-up no allocation but the logits row); queue overflow is a
//! typed [`crate::ServeError::QueueFull`] at submission, never a block
//! and never a silent drop. Every admitted request produces exactly one
//! completion (success or a typed error) in FIFO order per app, a
//! property the stress and property suites pin. Requests whose deadline
//! already expired in the queue are **shed** at dequeue with a typed
//! [`crate::ServeError::DeadlineExpired`] instead of burning a forward
//! pass on a doomed request — the biggest overload amplifier in a
//! deadline-driven server.
//!
//! An [`eml_core::rtm::Allocation`] is *actuated*, not interpreted:
//! [`Executor::apply_allocation`] translates it through
//! [`eml_core::knobs::commands_for`] and a pool driver executes the
//! application-layer commands before the app's next batch.
//!
//! ## Bounded registry
//!
//! Tenant state is a *capped* registry: registrations past
//! [`ExecutorConfig::max_apps`] are refused with the typed
//! [`crate::ServeError::OverCapacity`] — a whole-tenant refusal,
//! distinct from the per-request [`crate::ServeError::QueueFull`].
//! Deregistered tombstones do not count against the cap, so tenant
//! churn does not leak capacity.
//!
//! ## Lifecycle
//!
//! Registration is interior-mutable (`&self`): the app map lives
//! behind its own ranked lock (`eml_core::sync::rank::EXEC_APPS`,
//! below every per-app lock), so apps arrive and depart *mid-stream* —
//! from a scenario replay or a control thread — without exclusive
//! access to the executor, and without touching the driver pool.
//! [`Executor::deregister_dnn`] is the lifecycle inverse of
//! [`Executor::register_dnn`]: new submissions are refused with the
//! typed [`crate::ServeError::AppDeregistered`], the pool drains what
//! the app already admitted, anything stranded while no driver is
//! alive is failed with the same typed error (never a lost ticket),
//! and the app's band is released. A tombstone keeps the final
//! statistics readable and the refusal distinct from
//! [`crate::ServeError::UnknownApp`] until the name is registered
//! again; it holds those statistics, not the app, so the departed
//! model is freed once its last ticket drops. The extended accounting
//! invariant holds across the transition.
//!
//! ## Ownership
//!
//! Ownership is a tree: the executor owns the registry, the pool
//! (whose roster holds the serving apps) and the drivers (which share
//! the pool); an app owns its ledger and its model; a ticket owns its
//! app. Nothing points back up, so dropping the executor frees every
//! app no ticket still holds.

mod driver;
mod ledger;
mod sched;
mod supervise;

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use eml_core::knobs::{commands_for, KnobCommand};
use eml_core::requirements::Requirements;
use eml_core::rtm::Allocation;
use eml_core::sync::{rank, RankedMutex};
use eml_dnn::DynamicDnn;
use eml_platform::units::TimeSpan;

use self::ledger::{AppLedger, Riders, SlotId, SlotRead, Wait};
use self::sched::{KeyBasis, PoolShared};
use self::supervise::{spawn_driver_thread, Driver, Watchdog};
use crate::error::{Result, ServeError};
use crate::fault::{FaultKind, FaultPlan};
use crate::stats::{AppStatsSnapshot, PoolSnapshot};

/// Executor configuration.
#[derive(Debug, Clone)]
pub struct ExecutorConfig {
    /// Bounded per-app queue capacity; submissions beyond it are
    /// rejected with [`ServeError::QueueFull`].
    pub queue_capacity: usize,
    /// Maximum requests coalesced into one batched forward pass.
    pub batch_cap: usize,
    /// Sliding-window length of the per-app latency statistics.
    pub stats_window: usize,
    /// Number of shared pool driver threads. Fixed at construction and
    /// **independent of the tenant count**: registering the hundredth
    /// app spawns nothing. Clamped to at least 1.
    pub pool_workers: usize,
    /// Bounded app-registry capacity (DNN and rigid tenants together);
    /// registrations past it are refused with the typed
    /// [`ServeError::OverCapacity`]. Deregistered tombstones do not
    /// count.
    pub max_apps: usize,
    /// Cadence of the supervisor watchdog tick (dead/wedged-driver
    /// detection and restart scheduling).
    pub watchdog_interval: Duration,
    /// An in-flight batch whose driver heartbeat is older than this is
    /// declared wedged: the watchdog fails it with a typed error.
    pub stall_timeout: Duration,
    /// Base delay before restarting a dead pool driver; doubles per
    /// consecutive crash (without an intervening completed batch).
    pub restart_backoff: Duration,
    /// Upper bound of the exponential restart backoff.
    pub restart_backoff_max: Duration,
    /// Deterministic fault schedule (`None` — the default — injects
    /// nothing and costs nothing on the hot path).
    pub fault_plan: Option<Arc<FaultPlan>>,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 64,
            batch_cap: 8,
            stats_window: 256,
            pool_workers: 2,
            max_apps: 256,
            watchdog_interval: Duration::from_millis(5),
            stall_timeout: Duration::from_secs(5),
            restart_backoff: Duration::from_millis(10),
            restart_backoff_max: Duration::from_secs(2),
            fault_plan: None,
        }
    }
}

/// Where [`Executor::route_command`] sent a knob command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KnobRoute {
    /// Queued to the addressed app; a pool driver actuates it before
    /// the app's next batch, and the result lands in the app's stats
    /// ([`AppStatsSnapshot::knob_rejected`] on a model refusal).
    Queued,
    /// A device-layer knob (DVFS, core gating, placement) the executor
    /// does not own; untouched.
    DeviceKnob,
}

/// One completed request.
#[derive(Debug, Clone)]
pub struct Completion {
    /// The request's per-app FIFO sequence number.
    pub seq: u64,
    /// The sample's logits row.
    pub logits: Vec<f32>,
    /// Argmax class of the logits.
    pub pred: usize,
    /// End-to-end latency: submission to completion (queueing +
    /// batched inference).
    pub latency: TimeSpan,
    /// Duration of the batched forward pass this request rode.
    pub service: TimeSpan,
    /// Number of requests coalesced into that pass.
    pub batch_size: usize,
    /// Whether `latency` met the app's deadline (`None` when the app
    /// has no latency requirement).
    pub deadline_met: Option<bool>,
}

/// A handle to one submitted request: the app it was submitted to,
/// the completion slot its outcome is answered in (with the slot's
/// generation, so a recycled slot never answers it) and its sequence
/// number. Waiting takes only the app's ledger lock; dropping the
/// ticket frees the slot, or leaves it to the request's settle.
///
/// A ticket is `Send` but not `Sync`: one thread waits on it at a time.
pub struct Ticket {
    app: Arc<App>,
    slot: SlotId,
    seq: u64,
    /// The slot was read to the end (the outcome taken, or nothing
    /// left to take): later reads and the drop skip the lock. A `Cell`
    /// also keeps the ticket off other threads' shared references, so
    /// a slot has at most one waiter.
    done: Cell<bool>,
}

impl std::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticket")
            .field("app", &self.app.name)
            .field("seq", &self.seq)
            .finish_non_exhaustive()
    }
}

impl Ticket {
    /// The application this request was submitted to.
    pub fn app(&self) -> &str {
        &self.app.name
    }

    /// The request's per-app FIFO sequence number.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Blocks until the request completes.
    ///
    /// # Errors
    ///
    /// Returns the batch's [`ServeError::Inference`] error if the
    /// forward pass failed (or the supervisor failed a dead/wedged
    /// driver's batch), [`ServeError::DeadlineExpired`] if the request
    /// was shed past its deadline, or [`ServeError::AppStopped`] if
    /// the executor shut down before completing this request (or the
    /// outcome was already taken).
    pub fn wait(&self) -> Result<Completion> {
        loop {
            if let Some(outcome) = self.outcome(Wait::Forever) {
                return outcome;
            }
        }
    }

    /// [`Ticket::wait`] with an upper bound on *this wait*, not on the
    /// request: a timeout returns a typed
    /// [`ServeError::WaitTimeout`] and leaves the request **in
    /// flight** — it may still complete later (landing in the app's
    /// statistics like any other completion) and a subsequent
    /// `wait`/`wait_timeout` on the same ticket can still receive it.
    /// There is no lost-ticket accounting hole: timing out a wait
    /// never removes the request from the queue or the batch.
    ///
    /// # Errors
    ///
    /// As [`Ticket::wait`], plus [`ServeError::WaitTimeout`] when the
    /// bound elapses first.
    pub fn wait_timeout(&self, timeout: std::time::Duration) -> Result<Completion> {
        self.outcome(Wait::For(timeout)).unwrap_or_else(|| {
            Err(ServeError::WaitTimeout {
                app: self.app.name.to_string(),
            })
        })
    }

    /// [`Ticket::wait`] without blocking: `None` while the request is
    /// still in flight, its outcome once it has settled. A `None` takes
    /// nothing — a later `try_wait`/`wait`/`wait_timeout` on the same
    /// ticket still receives the outcome.
    pub fn try_wait(&self) -> Option<Result<Completion>> {
        self.outcome(Wait::No)
    }

    /// Reads the slot: `None` while the request is pending after
    /// `wait`, the outcome once settled, and a typed stop when there is
    /// nothing left to read.
    fn outcome(&self, wait: Wait) -> Option<Result<Completion>> {
        let read = if self.done.get() {
            SlotRead::Gone
        } else {
            self.app.ledger.take_outcome(self.slot, wait)
        };
        match read {
            SlotRead::Pending => None,
            SlotRead::Ready(outcome) => {
                self.done.set(true);
                Some(outcome)
            }
            SlotRead::Gone => {
                self.done.set(true);
                Some(Err(ServeError::AppStopped {
                    app: self.app.name.to_string(),
                }))
            }
        }
    }
}

impl Drop for Ticket {
    fn drop(&mut self) {
        if !self.done.get() {
            self.app.ledger.forget(self.slot);
        }
    }
}

/// Everything the pool drivers, the watchdog and the control plane
/// share about one DNN app. The model lives *here* (not on a driver's
/// stack) so any driver — including one freshly restarted — serves
/// the same model.
///
/// An app owns its ledger and its model and nothing above them: no
/// handle to the pool or the executor. The registry, the pool's roster,
/// a driver's claim and every ticket point *down* at it, so dropping
/// the executor (and the last ticket) frees it; whoever rings the pool
/// for an app reaches the pool through the executor
/// (docs/INVARIANTS.md, "Ownership is acyclic").
struct App {
    /// The registration's name, shared with the registry's key and the
    /// control plane's rows.
    name: Arc<str>,
    id: AppId,
    ledger: AppLedger,
    /// A panic mid-forward (injected or organic) poisons this lock;
    /// recovery (inside `RankedMutex`) is safe because the model's
    /// scratch is resize-then-overwrite — no torn state survives into
    /// the next forward.
    model: RankedMutex<DynamicDnn>,
    batch_cap: usize,
    queue_capacity: usize,
    sample_len: usize,
    sample_shape: Vec<usize>,
}

enum AppEntry {
    Dnn(Arc<App>),
    /// Rigid apps run outside the executor (a GPU renderer, a codec);
    /// registration only makes allocation bookkeeping visible.
    Rigid,
    /// Left by [`Executor::deregister_dnn`] while the pool drains the
    /// app: observers still read its live ledger, lookups get the
    /// distinct typed refusal, and the name is free for re-registration.
    Departing(Arc<App>),
    /// The tombstone the drained app leaves: its lifetime's final
    /// statistics and deadline, not the app, so a departed tenant's
    /// model is freed once its last ticket drops.
    Departed(Box<Tombstone>),
}

impl AppEntry {
    fn is_live(&self) -> bool {
        matches!(self, AppEntry::Dnn(_) | AppEntry::Rigid)
    }
}

/// What a departed app leaves readable under its name.
struct Tombstone {
    /// The departed registration (its slot may already serve another).
    id: AppId,
    stats: AppStatsSnapshot,
    deadline: Deadline,
}

/// An app's latency bound, from its registration requirements.
type Deadline = Option<TimeSpan>;

/// One registration of a DNN app: a dense slot index and the slot's
/// generation. A slot is reused only after its lifetime has drained,
/// and each reuse is the next generation, so an id names exactly one
/// lifetime: the control plane keys its per-app state by it, and a
/// generation it has not seen in a slot is a new lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct AppId {
    pub(crate) slot: u32,
    pub(crate) gen: u32,
}

/// The app registry: each name's entry, and the slots that give every
/// DNN registration its [`AppId`].
#[derive(Default)]
struct Registry {
    names: HashMap<Arc<str>, AppEntry>,
    /// Slots handed out so far.
    slots: u32,
    /// The next id of each drained slot, reused last-freed first.
    free: Vec<AppId>,
}

impl Registry {
    /// The id of a new lifetime: a drained slot's next, else a new slot.
    fn claim(&mut self) -> AppId {
        let slot = self.slots;
        self.free.pop().unwrap_or_else(|| {
            self.slots += 1;
            AppId { slot, gen: 0 }
        })
    }

    /// Ends `id`'s lifetime: its slot's next occupant is the next
    /// generation.
    fn release(&mut self, id: AppId) {
        let AppId { slot, gen } = id;
        self.free.push(AppId { slot, gen: gen + 1 });
    }

    fn live(&self) -> usize {
        self.names.values().filter(|e| e.is_live()).count()
    }
}

/// One DNN app in the control plane's bulk read: its registration, its
/// name (shared, not copied) and its snapshot.
pub(crate) type AppRow = (AppId, Arc<str>, AppStatsSnapshot);

thread_local! {
    /// The calling thread's handles of the apps a bulk read visits:
    /// kept between reads (empty, so no app is held alive), as
    /// [`crate::stats::with_scratch`] keeps the percentile scratch.
    static READING: Cell<Vec<Arc<App>>> = const { Cell::new(Vec::new()) };
}

/// The multi-tenant serving executor. See the module docs.
pub struct Executor {
    cfg: ExecutorConfig,
    /// The app map, ranked *below* every per-app lock so lifecycle
    /// paths may resolve a name and then touch its ledger while still
    /// holding the map.
    apps: RankedMutex<Registry>,
    pool: Arc<PoolShared>,
    drivers: Vec<Arc<Driver>>,
    watchdog: Watchdog,
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Executor({} apps, {} drivers, queue {}, batch cap {})",
            self.apps.lock().names.len(),
            self.drivers.len(),
            self.cfg.queue_capacity,
            self.cfg.batch_cap
        )
    }
}

impl Executor {
    /// Creates an executor, spawns its fixed driver pool
    /// ([`ExecutorConfig::pool_workers`] threads, at least one) and
    /// starts the supervisor watchdog.
    pub fn new(cfg: ExecutorConfig) -> Self {
        let pool = Arc::new(PoolShared::new());
        let drivers: Vec<Arc<Driver>> = (0..cfg.pool_workers.max(1))
            .map(|index| Driver::new(index, &pool))
            .collect();
        for drv in &drivers {
            let handle = spawn_driver_thread(drv).expect("spawn pool driver thread");
            *drv.thread.lock() = Some(handle);
            pool.live_drivers.fetch_add(1, Ordering::SeqCst);
        }
        let watchdog =
            Watchdog::spawn(drivers.clone(), cfg.clone()).expect("spawn watchdog thread");
        Self {
            cfg,
            apps: RankedMutex::new(rank::EXEC_APPS, "exec-apps", Registry::default()),
            pool,
            drivers,
            watchdog,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &ExecutorConfig {
        &self.cfg
    }

    /// Registered application names (DNN and rigid), **sorted** — a
    /// deterministic order, so health reports and scenario digests
    /// built from it are bit-stable run to run. Deregistered
    /// tombstones are excluded.
    pub fn app_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .apps
            .lock()
            .names
            .iter()
            .filter(|(_, e)| e.is_live())
            .map(|(n, _)| n.to_string())
            .collect();
        names.sort();
        names
    }

    /// A pool-level snapshot: driver census and the aggregate queue
    /// depth across every registered app. The pressure ladder keys its
    /// pool term off this; tests assert the driver count is
    /// independent of the tenant count through it.
    pub fn pool_stats(&self) -> PoolSnapshot {
        // Registry occupancy first (rank EXEC_APPS below EXEC_POOL),
        // then the roster's handles: the scheduler lock is held only to
        // clone them, so no driver's claim waits out the ledger sweep.
        let apps = self.apps.lock().live();
        let roster = self.pool.sched.lock().roster.clone();
        let mut queue_depth = 0;
        let mut in_flight = 0;
        for app in &roster {
            let st = app.ledger.lock();
            queue_depth += st.depth();
            in_flight += st.in_flight();
        }
        PoolSnapshot {
            drivers: self.drivers.len(),
            live_drivers: self.pool.live_drivers.load(Ordering::SeqCst),
            apps,
            serving: roster.len(),
            max_apps: self.cfg.max_apps,
            queue_depth,
            in_flight,
            queue_capacity: self.cfg.queue_capacity,
        }
    }

    /// Registers a dynamic-DNN application on the shared pool. No
    /// thread is spawned — the fixed driver pool picks the app up from
    /// the roster. The deadline, when `requirements` carries a latency
    /// budget, drives per-request `deadline_met` accounting, the
    /// micro-batcher's coalescing bound, deadline-expiry shedding at
    /// dequeue, and the app's EDF urgency on the shared pool.
    ///
    /// Registration is interior-mutable (`&self`): apps can arrive
    /// while other threads are serving, observing or deregistering. A
    /// name left behind by [`Executor::deregister_dnn`] may be
    /// registered again — the tombstone (and its final statistics) is
    /// replaced by the fresh app. Every registration is a new lifetime
    /// with an identity of its own, whatever its name.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::DuplicateApp`] if the name is taken, or
    /// [`ServeError::OverCapacity`] if the bounded registry is full
    /// (nothing is registered in that case).
    pub fn register_dnn(
        &self,
        name: impl Into<String>,
        dnn: DynamicDnn,
        requirements: &Requirements,
    ) -> Result<()> {
        let name: Arc<str> = name.into().into();
        // Hold the map for the whole registration so a concurrent
        // register/deregister of the same name serialises cleanly.
        let mut apps = self.apps.lock();
        self.admit_registration(&apps, &name)?;
        let sample_shape: Vec<usize> = dnn.network().input_shape().to_vec();
        let faults = self.cfg.fault_plan.as_ref().and_then(|p| p.for_app(&name));
        let app = Arc::new(App {
            name: Arc::clone(&name),
            id: apps.claim(),
            ledger: AppLedger::new(
                self.cfg.stats_window,
                dnn.level().index(),
                dnn.precision(),
                faults,
                KeyBasis {
                    deadline: requirements.max_latency(),
                    epoch: self.pool.epoch,
                },
            ),
            model: RankedMutex::new(rank::EXEC_MODEL, "exec-model", dnn),
            batch_cap: self.cfg.batch_cap.max(1),
            queue_capacity: self.cfg.queue_capacity,
            sample_len: sample_shape.iter().product(),
            sample_shape,
        });
        // Onto the end of the scheduler roster (ranks: EXEC_APPS 190 <
        // EXEC_POOL 215 — legal while holding the map): roster order is
        // registration order, the deterministic EDF tie-break, so equal
        // virtual deadlines are never served by hash order or thread
        // race. No ring needed: a fresh app has no work yet.
        self.pool.sched.lock().roster.push(Arc::clone(&app));
        apps.names.insert(name, AppEntry::Dnn(app));
        Ok(())
    }

    /// The registry's admission rule, shared by both registration
    /// surfaces: the name must be free (a tombstone is) and the live
    /// tenants below the cap.
    fn admit_registration(&self, apps: &Registry, name: &str) -> Result<()> {
        if apps.names.get(name).is_some_and(AppEntry::is_live) {
            return Err(ServeError::DuplicateApp { app: name.into() });
        }
        if apps.live() >= self.cfg.max_apps {
            return Err(ServeError::OverCapacity {
                app: name.into(),
                capacity: self.cfg.max_apps,
            });
        }
        Ok(())
    }

    /// Registers a rigid (non-DNN) application for allocation
    /// bookkeeping. Rigid tenants occupy registry capacity like DNN
    /// tenants — the cap bounds the *registry*, not just the pool's
    /// serving roster.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::DuplicateApp`] if the name is taken, or
    /// [`ServeError::OverCapacity`] if the bounded registry is full.
    pub fn register_rigid(&self, name: impl Into<String>) -> Result<()> {
        let name: Arc<str> = name.into().into();
        let mut apps = self.apps.lock();
        self.admit_registration(&apps, &name)?;
        apps.names.insert(name, AppEntry::Rigid);
        Ok(())
    }

    /// Deregisters a dynamic-DNN application — the lifecycle inverse of
    /// [`Executor::register_dnn`]. In order: new submissions start
    /// refusing with the typed [`ServeError::AppDeregistered`]; the
    /// pool drains every request the app already admitted; requests
    /// stranded with no live driver left to drain them (every driver
    /// dead awaiting backoff) are failed with the same typed error —
    /// never a lost ticket; the app leaves the scheduler roster and
    /// its band is released (`band_cap` 0, not admitted). The extended
    /// accounting invariant holds across the transition, and the final
    /// statistics snapshot is returned to the caller. A tombstone
    /// keeps late lookups typed (distinct from
    /// [`ServeError::UnknownApp`]) until the name is registered again.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownApp`] for unregistered or rigid names,
    /// [`ServeError::AppDeregistered`] when the app was already
    /// deregistered.
    pub fn deregister_dnn(&self, app: &str) -> Result<AppStatsSnapshot> {
        let d = {
            let mut apps = self.apps.lock();
            let d = Self::live_dnn(&apps, app)?;
            apps.names
                .insert(Arc::clone(&d.name), AppEntry::Departing(Arc::clone(&d)));
            d
        };
        // Stop admissions, typed. The pool still drains what the app
        // already admitted: a stopping app with queued work keeps its
        // EDF key until the queue empties.
        {
            let mut st = d.ledger.lock();
            st.departing = true;
            st.stopping = true;
        }
        self.pool.ring();
        // Wait for the pool to finish the app's admitted work. A
        // bounded re-check (not a pure condvar wait) because two of
        // the signals that end the wait are not the app's own idle
        // notification: the claiming driver dying (busy stays set
        // until the watchdog clears it) and the whole pool being dead
        // (no drain will ever come — the stranded work is settled
        // below).
        let mut st = d.ledger.lock();
        while (st.busy || !st.is_drained()) && self.pool.live_drivers.load(Ordering::SeqCst) > 0 {
            st = d.ledger.wait_for(st, Duration::from_millis(5));
        }
        // Anything left had no live driver to drain it. Fail it loud,
        // keep the accounting exact, release the band.
        st.busy = false;
        st.band_cap = 0;
        st.admitted = false;
        d.ledger
            .fail(&mut st, Riders::All, |_| ServeError::AppDeregistered {
                app: d.name.to_string(),
            });
        drop(st);
        d.ledger.wake_tickets();
        // Off the scheduler roster: no driver will claim it again.
        self.pool
            .sched
            .lock()
            .roster
            .retain(|a| !Arc::ptr_eq(a, &d));
        let stats = d.ledger.snapshot(true);
        // Nothing writes the ledger's statistics any more, so the
        // tombstone takes them in place of the app — unless the name
        // was registered again while the app drained. Either way the
        // lifetime is over, and its slot is free for the next one.
        let mut apps = self.apps.lock();
        if let Some(entry) = apps.names.get_mut(app) {
            if matches!(entry, AppEntry::Departing(a) if Arc::ptr_eq(a, &d)) {
                *entry = AppEntry::Departed(Box::new(Tombstone {
                    id: d.id,
                    stats: stats.clone(),
                    deadline: d.ledger.deadline(),
                }));
            }
        }
        apps.release(d.id);
        Ok(stats)
    }

    /// Resolves a *live* DNN app. A departed name gets the distinct
    /// typed refusal; rigid and unknown names are `UnknownApp`.
    fn live_dnn(apps: &Registry, app: &str) -> Result<Arc<App>> {
        match apps.names.get(app) {
            Some(AppEntry::Dnn(d)) => Ok(Arc::clone(d)),
            Some(AppEntry::Departing(_) | AppEntry::Departed(_)) => {
                Err(ServeError::AppDeregistered { app: app.into() })
            }
            _ => Err(ServeError::UnknownApp { app: app.into() }),
        }
    }

    fn dnn_app(&self, app: &str) -> Result<Arc<App>> {
        Self::live_dnn(&self.apps.lock(), app)
    }

    /// Reads a DNN app for *observation*, alive or departed (final
    /// statistics stay readable after deregistration): the
    /// registration read, the [`Executor::stats`] snapshot and the
    /// deadline. A live app (a draining one too) is read once the
    /// registry lock is released, a tombstone under it.
    pub(crate) fn observe(&self, app: &str) -> Result<(AppId, AppStatsSnapshot, Deadline)> {
        let d = match self.apps.lock().names.get(app) {
            Some(AppEntry::Dnn(d) | AppEntry::Departing(d)) => Arc::clone(d),
            Some(AppEntry::Departed(t)) => return Ok((t.id, t.stats.clone(), t.deadline)),
            _ => return Err(ServeError::UnknownApp { app: app.into() }),
        };
        Ok((d.id, d.ledger.snapshot(true), d.ledger.deadline()))
    }

    /// Submits one sample (the model's per-sample input, flattened) for
    /// inference. Non-blocking: the request is queued and served by the
    /// driver pool; the returned [`Ticket`] yields the completion.
    ///
    /// # Errors
    ///
    /// [`ServeError::QueueFull`] when the bounded queue is at capacity,
    /// [`ServeError::NotAdmitted`] when the current allocation left the
    /// app unplaced, [`ServeError::AppStopped`] after `shutdown()` or
    /// while a [`Executor::drain_app`] is in progress,
    /// [`ServeError::AppDeregistered`] during or after a
    /// [`Executor::deregister_dnn`],
    /// [`ServeError::ShapeMismatch`] / [`ServeError::UnknownApp`] as
    /// named.
    pub fn submit(&self, app: &str, sample: &[f32]) -> Result<Ticket> {
        let entry = self.dnn_app(app)?;
        if sample.len() != entry.sample_len {
            return Err(ServeError::ShapeMismatch {
                app: app.into(),
                expected: entry.sample_len,
                actual: sample.len(),
            });
        }
        let mut st = entry.ledger.lock();
        let (seq, slot) = st.admit(app, sample, self.cfg.queue_capacity)?;
        // Ring only when the enqueue made the app more urgent (an idle
        // app's queue went non-empty): a busy app is re-offered by its
        // release, and a queued one was already offered.
        if st.unlock() {
            self.pool.ring();
        }
        Ok(Ticket {
            app: entry,
            slot,
            seq,
            done: Cell::new(false),
        })
    }

    /// Actuates an RTM allocation on the registered applications:
    /// application-layer knob commands ([`commands_for`]) are queued to
    /// each addressed app, each placed app's band cap is set to its
    /// allocated core count (which is also its EDF weight on the
    /// shared pool), and apps the allocation left unplaced stop
    /// admitting new requests until a later allocation re-admits them.
    /// Registered apps absent from the allocation entirely (not
    /// placed, not unplaced) are untouched.
    ///
    /// Knob execution is asynchronous — a pool driver applies the
    /// commands before the app's next batch, so an in-flight batch
    /// finishes on the old operating point. Failures surface in
    /// [`AppStatsSnapshot::knob_errors`].
    pub fn apply_allocation(&self, alloc: &Allocation) {
        // Walk the allocation, not the registry: each addressed app is
        // one hash lookup, and its knob commands are grouped once.
        let cmds = commands_for(alloc);
        let mut knobs: HashMap<&str, Vec<KnobCommand>> = HashMap::new();
        for cmd in &cmds {
            if let KnobCommand::SetWidth { app, .. } | KnobCommand::SetPrecision { app, .. } = cmd {
                knobs.entry(app).or_default().push(cmd.clone());
            }
        }
        {
            let apps = self.apps.lock();
            for name in &alloc.unplaced {
                if let Some(AppEntry::Dnn(app)) = apps.names.get(name.as_str()) {
                    app.ledger.lock().admitted = false;
                }
            }
            for d in &alloc.dnns {
                let Some(AppEntry::Dnn(app)) = apps.names.get(d.app.as_str()) else {
                    continue;
                };
                let mut st = app.ledger.lock();
                st.band_cap = d.point.op.cores as usize;
                st.admitted = true;
                st.knobs
                    .extend(knobs.remove(d.app.as_str()).unwrap_or_default());
            }
        }
        // One pool-wide ring after all apps are updated: every driver
        // rescans against the new weights and knob queues.
        self.pool.ring();
    }

    /// Routes one knob command to the addressed application (the
    /// direct actuation path an RTM policy — or the degradation
    /// ladder — uses for knobs the allocator does not place, e.g.
    /// [`KnobCommand::SetPrecision`]). The typed result distinguishes
    /// "this command is not the executor's to apply"
    /// ([`KnobRoute::DeviceKnob`]) from "the addressed app does not
    /// exist" ([`ServeError::UnknownApp`]); actual actuation happens
    /// asynchronously on a pool driver, with failures counted per
    /// cause in [`AppStatsSnapshot::knob_rejected`] /
    /// [`AppStatsSnapshot::knob_faulted`].
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownApp`] when an app-layer command addresses
    /// an unregistered (or rigid) name.
    pub fn route_command(&self, cmd: &KnobCommand) -> Result<KnobRoute> {
        let name = match cmd {
            KnobCommand::SetWidth { app, .. } | KnobCommand::SetPrecision { app, .. } => app,
            _ => return Ok(KnobRoute::DeviceKnob),
        };
        let entry = self.dnn_app(name)?;
        entry.ledger.lock().knobs.push(cmd.clone());
        self.pool.ring();
        Ok(KnobRoute::Queued)
    }

    /// Arms a one-shot fault against `app`, consumed by its next
    /// dispatched batch (the runtime twin of a scheduled
    /// [`FaultPlan`] entry; the simulator's chaos hooks land here).
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownApp`] for unregistered or rigid names.
    pub fn inject_fault(&self, app: &str, fault: FaultKind) -> Result<()> {
        let entry = self.dnn_app(app)?;
        entry.ledger.lock().arm_fault(fault);
        self.pool.ring();
        Ok(())
    }

    /// Pauses an app after its current batch: the pool stops claiming
    /// it (queued requests stay queued; submissions still admit up to
    /// capacity). Deterministic test hook and maintenance valve.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownApp`] for unregistered or rigid names.
    pub fn pause(&self, app: &str) -> Result<()> {
        let entry = self.dnn_app(app)?;
        entry.ledger.lock().paused = true;
        Ok(())
    }

    /// Resumes a paused app.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownApp`] for unregistered or rigid names.
    pub fn resume(&self, app: &str) -> Result<()> {
        let entry = self.dnn_app(app)?;
        entry.ledger.lock().paused = false;
        self.pool.ring();
        Ok(())
    }

    /// The app's deadline (from its registration requirements).
    /// Readable on a departed app too.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownApp`] for unregistered or rigid names.
    pub fn deadline(&self, app: &str) -> Result<Option<TimeSpan>> {
        self.observe(app).map(|(_, _, deadline)| deadline)
    }

    /// A statistics snapshot of one app — one instant of it: every
    /// counter, `queue_depth`, `in_flight` and the latency window are
    /// read in a single critical section of the app's ledger, so the
    /// accounting equation holds on every read, not only on a quiesced
    /// executor. A *departed* app's final statistics remain readable
    /// until its name is registered again.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownApp`] for unregistered or rigid names.
    pub fn stats(&self, app: &str) -> Result<AppStatsSnapshot> {
        self.observe(app).map(|(_, stats, _)| stats)
    }

    /// The control plane's bulk read: every DNN app's row, sorted by
    /// name, refilled into the caller's `rows` from one pass — the
    /// registry lock taken once (not once per name, and only to clone
    /// the live apps' handles and copy the tombstones: submitters
    /// resolve names under the same lock) and the reading thread's
    /// handle list and percentile scratch for every tenant, so a warm
    /// read allocates nothing. Rigid apps have no serving
    /// surface and are skipped; departing apps and tombstones are
    /// visited only when `departed_too` (the [`Executor::stats`] view).
    /// Every bulk reader consumes the median only, so `p99` is left
    /// unselected; each snapshot is otherwise field-for-field what
    /// [`Executor::stats`] returns.
    pub(crate) fn dnn_snapshots(&self, departed_too: bool, rows: &mut Vec<AppRow>) {
        let mut apps = READING.take();
        rows.clear();
        for (name, entry) in &self.apps.lock().names {
            match entry {
                AppEntry::Dnn(d) => apps.push(Arc::clone(d)),
                AppEntry::Departing(d) if departed_too => apps.push(Arc::clone(d)),
                AppEntry::Departed(t) if departed_too => {
                    let stats = AppStatsSnapshot {
                        p99: None,
                        ..t.stats.clone()
                    };
                    rows.push((t.id, Arc::clone(name), stats));
                }
                _ => {}
            }
        }
        let tombstones = rows.len();
        apps.sort_unstable_by(|a, b| a.name.cmp(&b.name));
        rows.extend(
            apps.drain(..)
                .map(|app| (app.id, Arc::clone(&app.name), app.ledger.snapshot(false))),
        );
        if tombstones > 0 {
            rows.sort_unstable_by(|a, b| a.1.cmp(&b.1));
        }
        READING.set(apps);
    }

    /// Blocks until `app`'s queue is empty and nothing is in flight.
    /// Submissions arriving *during* the drain are refused with a typed
    /// [`ServeError::AppStopped`] so the drain terminates. A paused app
    /// with queued work never drains — resume it first.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownApp`] for unregistered or rigid names.
    pub fn drain_app(&self, app: &str) -> Result<()> {
        let entry = self.dnn_app(app)?;
        let mut st = entry.ledger.lock();
        st.draining += 1;
        while !st.is_drained() {
            st = entry.ledger.wait(st);
        }
        st.draining -= 1;
        Ok(())
    }

    /// [`Executor::drain_app`] over every registered DNN app.
    pub fn drain(&self) {
        for name in self.app_names() {
            // Rigid names have no queue to drain: their typed refusal
            // is the skip.
            let _ = self.drain_app(&name);
        }
    }

    /// Stops the watchdog and the driver pool (each driver after the
    /// pool drains every app's admitted queue), and joins them all.
    /// Requests stranded by a dead pool (no supervisor left to restart
    /// it) are failed with a typed [`ServeError::AppStopped`]. Called
    /// by `Drop`; explicit calls make shutdown ordering visible in
    /// tests.
    pub fn shutdown(&mut self) {
        // Watchdog first: no restarts may race the driver joins below.
        self.watchdog.stop();
        // Mark every app stopping (drivers drain queued work but take
        // nothing new), then stop the pool itself.
        {
            let apps = self.apps.lock();
            for entry in apps.names.values() {
                if let AppEntry::Dnn(app) = entry {
                    app.ledger.lock().stopping = true;
                }
            }
        }
        self.pool.sched.lock().stopping = true;
        self.pool.work.notify_all();
        for drv in &self.drivers {
            let handle = drv.thread.lock().take();
            if let Some(t) = handle {
                let _ = t.join();
            }
        }
        // A live pool drained every queue before exiting; anything
        // left was stranded by dead drivers. Fail it loud and keep the
        // accounting exact.
        let apps = self.apps.lock();
        for entry in apps.names.values() {
            let AppEntry::Dnn(app) = entry else { continue };
            let mut st = app.ledger.lock();
            st.busy = false;
            app.ledger
                .fail(&mut st, Riders::All, |_| ServeError::AppStopped {
                    app: app.name.to_string(),
                });
            drop(st);
            app.ledger.wake_tickets();
        }
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testbed;
    use eml_dnn::{Precision, WidthLevel};
    use eml_platform::soc::ClusterId;
    use std::sync::Weak;
    use std::time::Instant;

    const TIMEOUT: Duration = Duration::from_secs(20);

    fn tiny_executor(cfg: ExecutorConfig) -> Executor {
        let exec = Executor::new(cfg);
        exec.register_dnn(
            "cam",
            testbed::tiny_dnn(1),
            &Requirements::new().with_max_latency(TimeSpan::from_millis(50.0)),
        )
        .unwrap();
        exec
    }

    fn sample(v: f32) -> Vec<f32> {
        vec![v; 3 * 8 * 8]
    }

    /// The extended accounting invariant, asserted from a snapshot and
    /// the caller-side submit-attempt count.
    fn assert_accounting(s: &AppStatsSnapshot, attempts: u64) {
        assert_eq!(
            attempts + s.storm_injected,
            s.completed + s.errors + s.rejected + s.shed,
            "extended accounting: {s:?}"
        );
    }

    #[test]
    fn submit_completes_with_logits_and_stats() {
        let exec = tiny_executor(ExecutorConfig::default());
        let t = exec.submit("cam", &sample(0.2)).unwrap();
        let done = t.wait_timeout(TIMEOUT).unwrap();
        assert_eq!(done.logits.len(), 4);
        assert!(done.pred < 4);
        assert!(done.latency.as_secs() > 0.0);
        exec.drain();
        let s = exec.stats("cam").unwrap();
        assert_eq!(s.completed, 1);
        assert_eq!(s.rejected + s.errors + s.shed + s.out_of_order, 0);
        assert_eq!(s.window_len, 1);
        assert!(s.admitted);
        assert_eq!(s.restarts + s.stalls, 0);
        assert_accounting(&s, 1);
    }

    #[test]
    fn bulk_read_equals_per_name_stats_sorted_and_filtered() {
        let exec = Executor::new(ExecutorConfig::default());
        let req = Requirements::new().with_max_latency(TimeSpan::from_millis(50.0));
        for (i, name) in ["zeta", "alpha", "mid", "gone"].iter().enumerate() {
            exec.register_dnn(*name, testbed::tiny_dnn(i as u64 + 1), &req)
                .unwrap();
        }
        exec.register_rigid("render").unwrap();
        // Different histories per app, then quiesce: the two views are
        // only comparable field for field when nothing is moving.
        for (name, n) in [("zeta", 5), ("alpha", 1), ("gone", 3)] {
            for k in 0..n {
                exec.submit(name, &sample(0.1 * k as f32))
                    .unwrap()
                    .wait_timeout(TIMEOUT)
                    .unwrap();
            }
        }
        exec.drain();
        exec.deregister_dnn("gone").unwrap();

        let mut live = Vec::new();
        exec.dnn_snapshots(false, &mut live);
        let names: Vec<&str> = live.iter().map(|(_, name, _)| &**name).collect();
        assert_eq!(
            names,
            ["alpha", "mid", "zeta"],
            "sorted, rigid and departed skipped"
        );
        assert_eq!(live[2].2.completed, 5);
        assert!(live[2].2.p50.is_some() && live[1].2.p50.is_none());

        // The `stats()` view keeps the tombstone readable. Both views
        // differ from `stats()` in the unselected `p99` alone, and
        // every row carries the registration `stats()` read.
        let mut all = Vec::new();
        exec.dnn_snapshots(true, &mut all);
        let names: Vec<&str> = all.iter().map(|(_, name, _)| &**name).collect();
        assert_eq!(names, ["alpha", "gone", "mid", "zeta"]);
        for (id, name, snap) in live.iter().chain(&all) {
            let (solo_id, mut solo, _) = exec.observe(name).unwrap();
            assert_eq!((snap.p99, id), (None, &solo_id), "{name}");
            solo.p99 = None;
            assert_eq!(format!("{snap:?}"), format!("{solo:?}"), "{name}");
        }
        assert_eq!(
            all[1].2.completed, 3,
            "final statistics of the departed app"
        );
    }

    #[test]
    fn unknown_app_and_bad_shape_are_typed() {
        let exec = tiny_executor(ExecutorConfig::default());
        assert!(matches!(
            exec.submit("ghost", &sample(0.0)),
            Err(ServeError::UnknownApp { .. })
        ));
        assert!(matches!(
            exec.submit("cam", &[1.0, 2.0]),
            Err(ServeError::ShapeMismatch {
                expected,
                actual: 2,
                ..
            }) if expected == 3 * 8 * 8
        ));
    }

    #[test]
    fn overflow_rejects_with_queue_full_and_recovers() {
        let exec = tiny_executor(ExecutorConfig {
            queue_capacity: 3,
            batch_cap: 2,
            ..ExecutorConfig::default()
        });
        exec.pause("cam").unwrap();
        // The paused app is never claimed: exactly `capacity` fit.
        let tickets: Vec<Ticket> = (0..3)
            .map(|i| exec.submit("cam", &sample(i as f32 * 0.1)).unwrap())
            .collect();
        let err = exec.submit("cam", &sample(0.9)).unwrap_err();
        assert_eq!(
            err,
            ServeError::QueueFull {
                app: "cam".into(),
                capacity: 3
            }
        );
        exec.resume("cam").unwrap();
        for t in &tickets {
            t.wait_timeout(TIMEOUT).unwrap();
        }
        exec.drain();
        let s = exec.stats("cam").unwrap();
        assert_eq!(s.completed, 3);
        assert_eq!(s.rejected, 1);
        assert_eq!(s.max_queue_depth, 3);
        assert!(s.max_queue_depth <= exec.config().queue_capacity);
        // The claim serialises per-app batches even on a multi-driver
        // pool, so the resumed app coalesced: fewer batches than
        // requests.
        assert!(s.batches <= 2, "batch cap 2 over 3 queued: {s:?}");
        assert_accounting(&s, 4);
    }

    #[test]
    fn knob_commands_actuate_on_the_serving_thread() {
        let exec = tiny_executor(ExecutorConfig::default());
        assert_eq!(
            exec.route_command(&KnobCommand::SetWidth {
                app: "cam".into(),
                level: WidthLevel(1),
            }),
            Ok(KnobRoute::Queued)
        );
        assert_eq!(
            exec.route_command(&KnobCommand::SetPrecision {
                app: "cam".into(),
                precision: Precision::Int8,
            }),
            Ok(KnobRoute::Queued)
        );
        // Device knobs and unknown apps are not ours — and unlike the
        // retired boolean shim, the two refusals are distinguishable.
        assert_eq!(
            exec.route_command(&KnobCommand::SetOpp {
                cluster: ClusterId::from_index(0),
                opp_index: 0,
            }),
            Ok(KnobRoute::DeviceKnob)
        );
        assert_eq!(
            exec.route_command(&KnobCommand::SetWidth {
                app: "ghost".into(),
                level: WidthLevel(0),
            }),
            Err(ServeError::UnknownApp {
                app: "ghost".into()
            })
        );
        // A request forces the knob queue to drain before it runs.
        exec.submit("cam", &sample(0.3))
            .unwrap()
            .wait_timeout(TIMEOUT)
            .unwrap();
        exec.drain();
        let s = exec.stats("cam").unwrap();
        assert_eq!(s.level, 1);
        assert_eq!(s.precision, Precision::Int8);
        assert_eq!(s.knob_errors, 0);
        // An out-of-range width fails loud in the stats, not silently —
        // and counts as a model *rejection*, not an injected fault.
        exec.route_command(&KnobCommand::SetWidth {
            app: "cam".into(),
            level: WidthLevel(9),
        })
        .unwrap();
        exec.submit("cam", &sample(0.3))
            .unwrap()
            .wait_timeout(TIMEOUT)
            .unwrap();
        exec.drain();
        let s = exec.stats("cam").unwrap();
        assert_eq!(s.knob_errors, 1);
        assert_eq!((s.knob_rejected, s.knob_faulted), (1, 0));
        assert!(s.last_knob_error.is_some());
        assert_eq!(s.level, 1, "failed switch leaves the level alone");
    }

    #[test]
    fn route_command_distinguishes_unknown_app_from_device_knob() {
        let exec = tiny_executor(ExecutorConfig::default());
        assert_eq!(
            exec.route_command(&KnobCommand::SetWidth {
                app: "cam".into(),
                level: WidthLevel(2),
            }),
            Ok(KnobRoute::Queued)
        );
        assert_eq!(
            exec.route_command(&KnobCommand::SetOpp {
                cluster: ClusterId::from_index(0),
                opp_index: 0,
            }),
            Ok(KnobRoute::DeviceKnob)
        );
        assert!(matches!(
            exec.route_command(&KnobCommand::SetWidth {
                app: "ghost".into(),
                level: WidthLevel(0),
            }),
            Err(ServeError::UnknownApp { .. })
        ));
    }

    /// A hostile sample (NaN) must not wedge the tenant: the request
    /// completes (NaN visible in the logits on the f32 path, or a
    /// typed inference error if a kernel guard trips), and the pool
    /// keeps serving clean requests afterwards.
    #[test]
    fn nan_sample_does_not_wedge_the_serving_thread() {
        let exec = tiny_executor(ExecutorConfig::default());
        let poisoned = vec![f32::NAN; 3 * 8 * 8];
        let t = exec.submit("cam", &poisoned).unwrap();
        match t.wait_timeout(TIMEOUT) {
            Ok(done) => assert_eq!(done.logits.len(), 4, "a prediction, not a panic"),
            Err(ServeError::Inference { .. }) => {} // kernel guard: typed, loud
            Err(e) => panic!("unexpected: {e}"),
        }
        // The pool is alive and the queue drains.
        let done = exec
            .submit("cam", &sample(0.5))
            .unwrap()
            .wait_timeout(TIMEOUT)
            .expect("serving continues after a poisoned request");
        assert!(done.logits.iter().all(|l| l.is_finite()));
        exec.drain();
        let s = exec.stats("cam").unwrap();
        assert_eq!(s.completed + s.errors, 2, "{s:?}");
    }

    #[test]
    fn shutdown_drains_then_rejects() {
        let mut exec = tiny_executor(ExecutorConfig::default());
        let tickets: Vec<Ticket> = (0..5)
            .map(|_| exec.submit("cam", &sample(0.4)).unwrap())
            .collect();
        exec.shutdown();
        for t in &tickets {
            t.wait_timeout(TIMEOUT)
                .expect("queued requests complete before the pool exits");
        }
        assert!(matches!(
            exec.submit("cam", &sample(0.1)),
            Err(ServeError::AppStopped { .. })
        ));
    }

    #[test]
    fn duplicate_registration_rejected() {
        let exec = tiny_executor(ExecutorConfig::default());
        assert!(matches!(
            exec.register_rigid("cam"),
            Err(ServeError::DuplicateApp { .. })
        ));
        exec.register_rigid("vr").unwrap();
        assert!(matches!(
            exec.register_dnn("vr", testbed::tiny_dnn(2), &Requirements::new()),
            Err(ServeError::DuplicateApp { .. })
        ));
        assert_eq!(exec.app_names(), vec!["cam".to_string(), "vr".to_string()]);
        // Rigid apps have no serving surface.
        assert!(matches!(
            exec.stats("vr"),
            Err(ServeError::UnknownApp { .. })
        ));
    }

    #[test]
    fn expired_requests_are_shed_at_dequeue_with_typed_errors() {
        // 20 ms deadline; requests sit paused well past it.
        let exec = Executor::new(ExecutorConfig::default());
        exec.register_dnn(
            "cam",
            testbed::tiny_dnn(1),
            &Requirements::new().with_max_latency(TimeSpan::from_millis(20.0)),
        )
        .unwrap();
        exec.pause("cam").unwrap();
        let doomed: Vec<Ticket> = (0..3)
            .map(|_| exec.submit("cam", &sample(0.2)).unwrap())
            .collect();
        std::thread::sleep(Duration::from_millis(60));
        exec.resume("cam").unwrap();
        for t in &doomed {
            assert!(matches!(
                t.wait_timeout(TIMEOUT),
                Err(ServeError::DeadlineExpired { seq, .. }) if seq == t.seq()
            ));
        }
        exec.drain_app("cam").unwrap();
        let s = exec.stats("cam").unwrap();
        assert_eq!(s.shed, 3, "{s:?}");
        assert_eq!(s.completed, 0);
        assert_eq!(s.batches, 0, "no forward pass was burnt on doomed work");
        // Fresh work still serves.
        exec.submit("cam", &sample(0.1))
            .unwrap()
            .wait_timeout(TIMEOUT)
            .unwrap();
        exec.drain();
        let s = exec.stats("cam").unwrap();
        assert_eq!((s.completed, s.shed), (1, 3));
        assert_accounting(&s, 4);
    }

    #[test]
    fn forward_panic_fault_is_contained_and_one_shot() {
        let plan = FaultPlan::new().with_fault("cam", 0, FaultKind::PanicForward);
        let exec = tiny_executor(ExecutorConfig {
            fault_plan: Some(Arc::new(plan)),
            ..ExecutorConfig::default()
        });
        let t = exec.submit("cam", &sample(0.3)).unwrap();
        match t.wait_timeout(TIMEOUT) {
            Err(ServeError::Inference { reason, .. }) => {
                assert!(reason.contains("injected"), "{reason}");
            }
            other => panic!("expected a typed inference error, got {other:?}"),
        }
        // One-shot: the next request serves normally, no restart needed.
        exec.submit("cam", &sample(0.3))
            .unwrap()
            .wait_timeout(TIMEOUT)
            .unwrap();
        exec.drain();
        let s = exec.stats("cam").unwrap();
        assert_eq!((s.errors, s.completed, s.restarts), (1, 1, 0), "{s:?}");
        assert_accounting(&s, 2);
    }

    #[test]
    fn crash_fault_triggers_supervised_restart_with_typed_errors() {
        let plan = FaultPlan::new().with_fault("cam", 0, FaultKind::CrashThread);
        // One driver, so the follow-up request cannot be served until
        // the watchdog has reaped the corpse and respawned it — the
        // restart count is deterministically 1 when the second
        // completion arrives.
        let exec = tiny_executor(ExecutorConfig {
            fault_plan: Some(Arc::new(plan)),
            pool_workers: 1,
            watchdog_interval: Duration::from_millis(2),
            restart_backoff: Duration::from_millis(2),
            ..ExecutorConfig::default()
        });
        let t = exec.submit("cam", &sample(0.3)).unwrap();
        // The watchdog fails the dead driver's in-flight batch…
        assert!(matches!(
            t.wait_timeout(TIMEOUT),
            Err(ServeError::Inference { .. })
        ));
        // …and the restarted driver serves the next request.
        exec.submit("cam", &sample(0.4))
            .unwrap()
            .wait_timeout(TIMEOUT)
            .expect("restarted driver serves");
        exec.drain();
        let s = exec.stats("cam").unwrap();
        assert_eq!(s.restarts, 1, "{s:?}");
        assert_eq!((s.errors, s.completed), (1, 1));
        assert_accounting(&s, 2);
    }

    #[test]
    fn latency_spike_fault_delays_but_completes() {
        let plan = FaultPlan::new().with_fault(
            "cam",
            0,
            FaultKind::LatencySpike(TimeSpan::from_millis(80.0)),
        );
        // 50 ms deadline < 80 ms spike: the rider completes but misses.
        let exec = tiny_executor(ExecutorConfig {
            fault_plan: Some(Arc::new(plan)),
            ..ExecutorConfig::default()
        });
        let done = exec
            .submit("cam", &sample(0.3))
            .unwrap()
            .wait_timeout(TIMEOUT)
            .unwrap();
        assert!(done.latency.as_millis() >= 80.0, "{}", done.latency);
        assert_eq!(done.deadline_met, Some(false));
        exec.drain();
        let s = exec.stats("cam").unwrap();
        assert_eq!((s.completed, s.missed), (1, 1), "{s:?}");
        assert_eq!(
            s.stalls, 0,
            "a spike within the stall budget is not a stall"
        );
    }

    #[test]
    fn queue_storm_fault_floods_within_capacity_and_accounting_holds() {
        let plan = FaultPlan::new().with_fault("cam", 0, FaultKind::QueueStorm(5));
        let exec = tiny_executor(ExecutorConfig {
            fault_plan: Some(Arc::new(plan)),
            ..ExecutorConfig::default()
        });
        exec.submit("cam", &sample(0.3))
            .unwrap()
            .wait_timeout(TIMEOUT)
            .unwrap();
        exec.drain();
        let s = exec.stats("cam").unwrap();
        assert_eq!(s.storm_injected, 5, "{s:?}");
        // Synthetic riders complete into the stats like real ones
        // (some may shed if the storm outruns the 50 ms deadline).
        assert_eq!(s.completed + s.shed, 6);
        assert_accounting(&s, 1);
    }

    #[test]
    fn knob_failure_fault_counts_per_cause_and_leaves_the_point() {
        let plan = FaultPlan::new().with_fault("cam", 0, FaultKind::KnobFailure);
        let exec = tiny_executor(ExecutorConfig {
            fault_plan: Some(Arc::new(plan)),
            ..ExecutorConfig::default()
        });
        let before = exec.stats("cam").unwrap().level;
        // Arm the fault (first batch), then route a knob into it.
        exec.submit("cam", &sample(0.3))
            .unwrap()
            .wait_timeout(TIMEOUT)
            .unwrap();
        exec.route_command(&KnobCommand::SetWidth {
            app: "cam".into(),
            level: WidthLevel(1),
        })
        .unwrap();
        exec.submit("cam", &sample(0.3))
            .unwrap()
            .wait_timeout(TIMEOUT)
            .unwrap();
        exec.drain();
        let s = exec.stats("cam").unwrap();
        assert_eq!((s.knob_faulted, s.knob_rejected), (1, 0), "{s:?}");
        assert_eq!(s.knob_errors, 1);
        assert_eq!(s.level, before, "the faulted knob never actuated");
    }

    #[test]
    fn stalled_forward_is_confiscated_and_serving_recovers() {
        // A 300 ms spike against a 40 ms stall budget: the watchdog
        // declares the pass wedged, answers the rider with a typed
        // error, and the recovered driver's stale results are dropped.
        let plan = FaultPlan::new().with_fault(
            "cam",
            0,
            FaultKind::LatencySpike(TimeSpan::from_millis(300.0)),
        );
        // A deadline far above the spike: the follow-up request queued
        // behind the wedged pass must complete, not shed.
        let exec = Executor::new(ExecutorConfig {
            fault_plan: Some(Arc::new(plan)),
            watchdog_interval: Duration::from_millis(5),
            stall_timeout: Duration::from_millis(40),
            ..ExecutorConfig::default()
        });
        exec.register_dnn(
            "cam",
            testbed::tiny_dnn(1),
            &Requirements::new().with_max_latency(TimeSpan::from_secs(10.0)),
        )
        .unwrap();
        let t0 = Instant::now();
        let t = exec.submit("cam", &sample(0.3)).unwrap();
        assert!(matches!(
            t.wait_timeout(TIMEOUT),
            Err(ServeError::Inference { .. })
        ));
        assert!(
            t0.elapsed() < Duration::from_millis(290),
            "the rider was answered before the wedged pass finished"
        );
        // The driver recovered; fresh work serves. (The app stays
        // claimed — busy — for the whole wedge, so no other driver
        // interleaves with the stuck pass.)
        exec.submit("cam", &sample(0.2))
            .unwrap()
            .wait_timeout(TIMEOUT)
            .unwrap();
        exec.drain();
        let s = exec.stats("cam").unwrap();
        assert_eq!(s.stalls, 1, "{s:?}");
        assert_eq!(s.restarts, 0, "a wedge is not a death");
        assert_eq!((s.errors, s.completed), (1, 1));
        assert_accounting(&s, 2);
    }

    #[test]
    fn wait_timeout_is_typed_and_leaves_the_request_in_flight() {
        let exec = tiny_executor(ExecutorConfig::default());
        exec.pause("cam").unwrap();
        let t = exec.submit("cam", &sample(0.3)).unwrap();
        assert!(matches!(
            t.wait_timeout(Duration::from_millis(20)),
            Err(ServeError::WaitTimeout { .. })
        ));
        exec.resume("cam").unwrap();
        // The same ticket still receives the late completion.
        let done = t
            .wait_timeout(TIMEOUT)
            .expect("request was still in flight");
        assert_eq!(done.seq, t.seq());
        exec.drain();
        assert_eq!(exec.stats("cam").unwrap().completed, 1);
    }

    #[test]
    fn try_wait_polls_without_taking_the_outcome() {
        let mut exec = tiny_executor(ExecutorConfig::default());
        exec.pause("cam").unwrap();
        let t = exec.submit("cam", &sample(0.3)).unwrap();
        assert!(t.try_wait().is_none(), "in flight while the app is paused");
        assert!(t.try_wait().is_none());
        exec.resume("cam").unwrap();
        // A `None` took nothing: the blocking wait still gets the outcome.
        let done = t.wait_timeout(TIMEOUT).expect("completes after resume");
        assert_eq!(done.seq, t.seq());

        // Polled to completion, it is `Some(Ok(_))`.
        let t = exec.submit("cam", &sample(0.4)).unwrap();
        let deadline = Instant::now() + TIMEOUT;
        let polled = loop {
            if let Some(outcome) = t.try_wait() {
                break outcome;
            }
            assert!(Instant::now() < deadline, "never settled");
            std::thread::yield_now();
        };
        assert_eq!(polled.expect("completed").seq, t.seq());
        exec.drain();
        assert_eq!(exec.stats("cam").unwrap().completed, 2);

        // A request lost without an answer is a typed stop once the app
        // has closed, never a hang.
        exec.pause("cam").unwrap();
        let orphan = exec.submit("cam", &sample(0.5)).unwrap();
        assert!(exec.dnn_app("cam").unwrap().ledger.lock().drop_unsettled());
        assert!(orphan.try_wait().is_none(), "the app could still answer");
        exec.shutdown();
        assert!(matches!(
            orphan.try_wait(),
            Some(Err(ServeError::AppStopped { .. }))
        ));
        assert!(matches!(orphan.wait(), Err(ServeError::AppStopped { .. })));
    }

    #[test]
    fn a_blocked_wait_on_a_lost_request_ends_at_shutdown() {
        let mut exec = tiny_executor(ExecutorConfig::default());
        exec.pause("cam").unwrap();
        let orphan = exec.submit("cam", &sample(0.5)).unwrap();
        assert!(exec.dnn_app("cam").unwrap().ledger.lock().drop_unsettled());
        std::thread::scope(|scope| {
            let waiter = scope.spawn(move || orphan.wait());
            std::thread::sleep(Duration::from_millis(20));
            exec.shutdown();
            assert!(matches!(
                waiter.join().unwrap(),
                Err(ServeError::AppStopped { .. })
            ));
        });
    }

    #[test]
    fn submit_and_drop_cycles_recycle_the_slab() {
        let exec = tiny_executor(ExecutorConfig {
            queue_capacity: 16,
            ..ExecutorConfig::default()
        });
        let slab = || exec.dnn_app("cam").unwrap().ledger.lock().slab();
        let mut high_water = 0;
        for i in 0..10_000 {
            // Dropped at once: most tickets go while still pending, so
            // their settle frees the slot.
            match exec.submit("cam", &sample(0.1)) {
                Ok(ticket) => drop(ticket),
                Err(ServeError::QueueFull { .. }) => std::thread::yield_now(),
                Err(e) => panic!("cycle {i}: {e}"),
            }
            if i % 1000 == 999 {
                exec.drain();
                let (len, free) = slab();
                assert_eq!(free, len, "cycle {i}: a slot leaked");
                high_water = high_water.max(len);
            }
        }
        // A slot is live only for a queued or in-flight request: the slab
        // never outgrew the queue plus one batch.
        let (len, free) = slab();
        assert_eq!((len, free), (high_water, high_water));
        assert!(len <= 16 + 8, "slab grew to {len}");
        // Taken outcomes free their slots as well.
        for _ in 0..100 {
            exec.submit("cam", &sample(0.2))
                .unwrap()
                .wait_timeout(TIMEOUT)
                .unwrap();
        }
        assert_eq!(slab(), (high_water, high_water), "no growth");
    }

    #[test]
    fn a_stale_generation_never_reads_a_recycled_slot() {
        let exec = tiny_executor(ExecutorConfig::default());
        let first = exec.submit("cam", &sample(0.1)).unwrap();
        // Handles on the first request's slot and generation that never
        // took its outcome: once the slot is recycled they are stale.
        let (app, slot, seq) = (Arc::clone(&first.app), first.slot, first.seq);
        let stale = || Ticket {
            app: Arc::clone(&app),
            slot,
            seq,
            done: Cell::new(false),
        };
        assert_eq!(first.wait_timeout(TIMEOUT).unwrap().seq, seq);
        drop(first);
        let second = exec.submit("cam", &sample(0.9)).unwrap();
        assert_eq!(second.slot.index, slot.index, "the slot was reused");
        assert_ne!(second.slot.generation, slot.generation);
        exec.drain();
        // The second outcome is settled in the shared slot. A stale
        // handle cannot see it however it asks, and its drop leaves the
        // slot alone.
        assert!(matches!(
            stale().try_wait(),
            Some(Err(ServeError::AppStopped { .. }))
        ));
        assert!(matches!(
            stale().wait_timeout(TIMEOUT),
            Err(ServeError::AppStopped { .. })
        ));
        assert!(matches!(stale().wait(), Err(ServeError::AppStopped { .. })));
        let done = second.try_wait().expect("settled").unwrap();
        assert_eq!(done.seq, second.seq());
    }

    #[test]
    fn a_ticket_outlives_its_apps_deregistration_and_reuse_of_the_name() {
        let exec = tiny_executor(ExecutorConfig::default());
        exec.pause("cam").unwrap();
        let old: Vec<Ticket> = (0..3)
            .map(|i| exec.submit("cam", &sample(0.1 * i as f32)).unwrap())
            .collect();
        exec.resume("cam").unwrap();
        exec.deregister_dnn("cam").unwrap();
        exec.register_dnn(
            "cam",
            testbed::tiny_dnn(2),
            &Requirements::new().with_max_latency(TimeSpan::from_millis(50.0)),
        )
        .unwrap();
        let new = exec.submit("cam", &sample(0.1)).unwrap();
        assert_eq!(new.seq(), 0, "a fresh lifetime numbers from zero");
        let fresh = new.wait_timeout(TIMEOUT).unwrap();
        // Each old ticket resolves from its own lifetime's slab: its own
        // sequence number (or its own shed), not the new app's answer.
        for (seq, t) in old.iter().enumerate() {
            assert_eq!((t.app(), t.seq()), ("cam", seq as u64));
            match t.wait_timeout(TIMEOUT) {
                Ok(done) => {
                    assert_eq!(done.seq, seq as u64);
                    if seq == 0 {
                        assert_ne!(done.logits, fresh.logits, "answered by its own model");
                    }
                }
                Err(ServeError::DeadlineExpired { seq: shed, .. }) => assert_eq!(shed, seq as u64),
                Err(e) => panic!("old ticket {seq}: {e}"),
            }
        }
    }

    #[test]
    fn deregister_drains_joins_and_returns_final_snapshot() {
        let exec = tiny_executor(ExecutorConfig::default());
        let tickets: Vec<Ticket> = (0..4)
            .map(|_| exec.submit("cam", &sample(0.2)).unwrap())
            .collect();
        let snap = exec.deregister_dnn("cam").unwrap();
        // The pool drained everything the app had admitted before it
        // left the roster; every ticket is answered (completion or
        // typed shed).
        for t in &tickets {
            match t.wait_timeout(TIMEOUT) {
                Ok(_) | Err(ServeError::DeadlineExpired { .. }) => {}
                other => panic!("lost or mistyped ticket: {other:?}"),
            }
        }
        assert_accounting(&snap, 4);
        assert_eq!(snap.queue_depth + snap.in_flight, 0, "{snap:?}");
        assert_eq!(snap.band_cap, 0, "the band was released");
        assert!(!snap.admitted);
        // The tombstone: typed refusal distinct from UnknownApp, final
        // stats readable, name absent from the roster.
        assert!(matches!(
            exec.submit("cam", &sample(0.1)),
            Err(ServeError::AppDeregistered { .. })
        ));
        assert!(matches!(
            exec.pause("cam"),
            Err(ServeError::AppDeregistered { .. })
        ));
        assert_eq!(exec.stats("cam").unwrap().completed, snap.completed);
        assert!(exec.app_names().is_empty());
        // The name is free again: a fresh registration serves.
        exec.register_dnn(
            "cam",
            testbed::tiny_dnn(2),
            &Requirements::new().with_max_latency(TimeSpan::from_millis(50.0)),
        )
        .unwrap();
        exec.submit("cam", &sample(0.3))
            .unwrap()
            .wait_timeout(TIMEOUT)
            .unwrap();
        exec.drain();
        let s = exec.stats("cam").unwrap();
        assert_eq!(s.completed, 1, "fresh stats, not the tombstone's");
    }

    #[test]
    fn deregister_refusals_are_typed() {
        let exec = tiny_executor(ExecutorConfig::default());
        exec.register_rigid("vr").unwrap();
        assert!(matches!(
            exec.deregister_dnn("ghost"),
            Err(ServeError::UnknownApp { .. })
        ));
        assert!(matches!(
            exec.deregister_dnn("vr"),
            Err(ServeError::UnknownApp { .. })
        ));
        exec.deregister_dnn("cam").unwrap();
        assert!(matches!(
            exec.deregister_dnn("cam"),
            Err(ServeError::AppDeregistered { .. })
        ));
    }

    #[test]
    fn deregister_fails_a_dead_threads_stranded_queue_typed() {
        // Crash the pool's only driver on its first batch and park the
        // restart far in the future: the queue that accumulates behind
        // the corpse must be settled by deregistration, not lost.
        let plan = FaultPlan::new().with_fault("cam", 0, FaultKind::CrashThread);
        let exec = tiny_executor(ExecutorConfig {
            fault_plan: Some(Arc::new(plan)),
            pool_workers: 1,
            watchdog_interval: Duration::from_millis(2),
            restart_backoff: Duration::from_secs(30),
            restart_backoff_max: Duration::from_secs(30),
            ..ExecutorConfig::default()
        });
        let crashed = exec.submit("cam", &sample(0.3)).unwrap();
        assert!(matches!(
            crashed.wait_timeout(TIMEOUT),
            Err(ServeError::Inference { .. })
        ));
        let stranded: Vec<Ticket> = (0..3)
            .map(|_| exec.submit("cam", &sample(0.1)).unwrap())
            .collect();
        let snap = exec.deregister_dnn("cam").unwrap();
        for t in &stranded {
            assert!(matches!(
                t.wait_timeout(TIMEOUT),
                Err(ServeError::AppDeregistered { .. })
            ));
        }
        assert_eq!(snap.errors, 4, "crash rider + 3 stranded: {snap:?}");
        // The watchdog charged the restart with the crash rider's error,
        // so the final snapshot (and the tombstone) already counts it.
        assert_eq!(snap.restarts, 1, "{snap:?}");
        assert_accounting(&snap, 4);
    }

    #[test]
    fn submissions_during_drain_are_refused_typed() {
        // A generous deadline: the held requests must survive the pause,
        // not shed out of it.
        let exec = Executor::new(ExecutorConfig::default());
        exec.register_dnn(
            "cam",
            testbed::tiny_dnn(1),
            &Requirements::new().with_max_latency(TimeSpan::from_secs(10.0)),
        )
        .unwrap();
        exec.pause("cam").unwrap();
        let held: Vec<Ticket> = (0..3)
            .map(|_| exec.submit("cam", &sample(0.1)).unwrap())
            .collect();
        std::thread::scope(|scope| {
            let drainer = scope.spawn(|| exec.drain_app("cam").unwrap());
            // Give the drain time to register, then submit into it.
            std::thread::sleep(Duration::from_millis(50));
            assert!(matches!(
                exec.submit("cam", &sample(0.2)),
                Err(ServeError::AppStopped { .. })
            ));
            exec.resume("cam").unwrap();
            drainer.join().unwrap();
        });
        for t in &held {
            t.wait_timeout(TIMEOUT).unwrap();
        }
        // After the drain, submissions are admitted again.
        exec.submit("cam", &sample(0.3))
            .unwrap()
            .wait_timeout(TIMEOUT)
            .unwrap();
        exec.drain();
        assert_eq!(exec.stats("cam").unwrap().completed, 4);
    }

    #[test]
    fn registry_cap_refuses_with_typed_over_capacity() {
        let exec = Executor::new(ExecutorConfig {
            max_apps: 2,
            ..ExecutorConfig::default()
        });
        exec.register_dnn("cam", testbed::tiny_dnn(1), &Requirements::new())
            .unwrap();
        exec.register_rigid("vr").unwrap();
        // Both registration surfaces refuse past the cap, typed.
        assert_eq!(
            exec.register_dnn("mic", testbed::tiny_dnn(2), &Requirements::new())
                .unwrap_err(),
            ServeError::OverCapacity {
                app: "mic".into(),
                capacity: 2
            }
        );
        assert_eq!(
            exec.register_rigid("gps").unwrap_err(),
            ServeError::OverCapacity {
                app: "gps".into(),
                capacity: 2
            }
        );
        // Departing a tenant frees its slot: tombstones do not count
        // against the cap, so churn does not leak capacity.
        exec.deregister_dnn("cam").unwrap();
        exec.register_dnn("mic", testbed::tiny_dnn(2), &Requirements::new())
            .unwrap();
        exec.submit("mic", &sample(0.2))
            .unwrap()
            .wait_timeout(TIMEOUT)
            .unwrap();
        exec.drain();
        assert_eq!(exec.stats("mic").unwrap().completed, 1);
    }

    #[test]
    fn driver_pool_size_is_independent_of_tenant_count() {
        let exec = Executor::new(ExecutorConfig {
            pool_workers: 2,
            ..ExecutorConfig::default()
        });
        for i in 0..12u64 {
            exec.register_dnn(
                format!("app-{i:02}"),
                testbed::tiny_dnn(i),
                &Requirements::new().with_max_latency(TimeSpan::from_secs(10.0)),
            )
            .unwrap();
        }
        let p = exec.pool_stats();
        assert_eq!((p.drivers, p.live_drivers), (2, 2), "{p:?}");
        assert_eq!(p.apps, 12);
        // Serve one request per tenant through the two drivers.
        let tickets: Vec<Ticket> = (0..12)
            .map(|i| exec.submit(&format!("app-{i:02}"), &sample(0.1)).unwrap())
            .collect();
        for t in &tickets {
            t.wait_timeout(TIMEOUT).unwrap();
        }
        exec.drain();
        for i in 0..12 {
            let s = exec.stats(&format!("app-{i:02}")).unwrap();
            assert_eq!(s.completed, 1, "app-{i:02}: {s:?}");
            assert_eq!(s.out_of_order, 0);
        }
        // Twelve tenants, still exactly two drivers: the pool never
        // grew with the tenant count.
        let p = exec.pool_stats();
        assert_eq!(
            (p.drivers, p.live_drivers),
            (2, 2),
            "pool grew with tenants: {p:?}"
        );
    }

    /// Weak handles to every app the registry holds an `Arc` of (live
    /// or draining) and to the pool.
    fn weak_handles(exec: &Executor) -> (Vec<Weak<App>>, Weak<PoolShared>) {
        let apps = exec
            .apps
            .lock()
            .names
            .values()
            .filter_map(|e| match e {
                AppEntry::Dnn(d) | AppEntry::Departing(d) => Some(Arc::downgrade(d)),
                _ => None,
            })
            .collect();
        (apps, Arc::downgrade(&exec.pool))
    }

    fn assert_all_freed(apps: &[Weak<App>], pool: &Weak<PoolShared>) {
        for app in apps {
            assert!(app.upgrade().is_none(), "an app outlived its executor");
        }
        assert!(pool.upgrade().is_none(), "the pool outlived its executor");
    }

    #[test]
    fn dropping_the_executor_frees_every_app_and_the_pool() {
        let exec = Executor::new(ExecutorConfig::default());
        let req = Requirements::new();
        for (i, name) in ["cam", "mic", "imu"].iter().enumerate() {
            exec.register_dnn(*name, testbed::tiny_dnn(i as u64 + 1), &req)
                .unwrap();
            exec.submit(name, &sample(0.2))
                .unwrap()
                .wait_timeout(TIMEOUT)
                .unwrap();
        }
        exec.register_rigid("gpu").unwrap();
        let (apps, pool) = weak_handles(&exec);
        assert_eq!(apps.len(), 3);
        drop(exec);
        assert_all_freed(&apps, &pool);
    }

    #[test]
    fn a_restarted_driver_frees_its_victim_on_drop() {
        // One driver, crashed by the first batch and restarted by the
        // watchdog; its victim sat in the dead driver's claim.
        let plan = FaultPlan::new().with_fault("cam", 0, FaultKind::CrashThread);
        let exec = tiny_executor(ExecutorConfig {
            fault_plan: Some(Arc::new(plan)),
            pool_workers: 1,
            watchdog_interval: Duration::from_millis(2),
            restart_backoff: Duration::from_millis(2),
            ..ExecutorConfig::default()
        });
        let crashed = exec.submit("cam", &sample(0.3)).unwrap();
        assert!(matches!(
            crashed.wait_timeout(TIMEOUT),
            Err(ServeError::Inference { .. })
        ));
        drop(crashed);
        exec.submit("cam", &sample(0.4))
            .unwrap()
            .wait_timeout(TIMEOUT)
            .expect("restarted driver serves");
        assert_eq!(exec.stats("cam").unwrap().restarts, 1);
        let (apps, pool) = weak_handles(&exec);
        drop(exec);
        assert_all_freed(&apps, &pool);
    }

    #[test]
    fn a_drained_slot_is_reused_a_generation_on() {
        let exec = tiny_executor(ExecutorConfig::default());
        let req = Requirements::new();
        let id = |name: &str| exec.observe(name).unwrap().0;
        let cam = id("cam");
        exec.register_dnn("mic", testbed::tiny_dnn(2), &req)
            .unwrap();
        assert_ne!(id("mic").slot, cam.slot);
        exec.deregister_dnn("cam").unwrap();
        assert_eq!(id("cam"), cam, "the tombstone names its lifetime");
        // The freed slot serves the next registration, whatever its
        // name, as a new generation; the departed name gets a new id.
        exec.register_dnn("imu", testbed::tiny_dnn(3), &req)
            .unwrap();
        let next = AppId {
            slot: cam.slot,
            gen: cam.gen + 1,
        };
        assert_eq!(id("imu"), next);
        exec.register_dnn("cam", testbed::tiny_dnn(4), &req)
            .unwrap();
        assert!(![cam, next, id("mic")].contains(&id("cam")));
    }

    #[test]
    fn a_reborn_name_frees_both_lifetimes_on_drop() {
        let exec = tiny_executor(ExecutorConfig::default());
        let req = Requirements::new().with_max_latency(TimeSpan::from_millis(50.0));
        exec.submit("cam", &sample(0.1))
            .unwrap()
            .wait_timeout(TIMEOUT)
            .unwrap();
        let (mut apps, pool) = weak_handles(&exec);
        exec.deregister_dnn("cam").unwrap();
        exec.register_dnn("cam", testbed::tiny_dnn(2), &req)
            .unwrap();
        exec.submit("cam", &sample(0.2))
            .unwrap()
            .wait_timeout(TIMEOUT)
            .unwrap();
        apps.extend(weak_handles(&exec).0);
        assert_eq!(apps.len(), 2);
        drop(exec);
        assert_all_freed(&apps, &pool);
    }

    #[test]
    fn a_ticket_held_past_the_drop_keeps_only_its_own_app() {
        let exec = tiny_executor(ExecutorConfig::default());
        exec.register_dnn("mic", testbed::tiny_dnn(2), &Requirements::new())
            .unwrap();
        let served = exec.submit("cam", &sample(0.2)).unwrap();
        exec.drain();
        // A request lost unanswered (the test hook), so the ticket can
        // only read the typed stop once the app has closed.
        exec.pause("cam").unwrap();
        let lost = exec.submit("cam", &sample(0.3)).unwrap();
        assert!(exec.dnn_app("cam").unwrap().ledger.lock().drop_unsettled());
        let cam = Arc::downgrade(&exec.dnn_app("cam").unwrap());
        let mic = Arc::downgrade(&exec.dnn_app("mic").unwrap());
        let pool = Arc::downgrade(&exec.pool);
        drop(exec);
        assert!(pool.upgrade().is_none(), "the pool outlived its executor");
        assert!(
            mic.upgrade().is_none(),
            "a ticketless app outlived its executor"
        );
        assert!(cam.upgrade().is_some(), "the tickets keep their own app");
        assert_eq!(served.wait().expect("answered before the drop").seq, 0);
        assert!(matches!(lost.wait(), Err(ServeError::AppStopped { .. })));
        drop((served, lost));
        assert!(cam.upgrade().is_none(), "the last ticket frees the app");
    }

    #[test]
    fn a_departed_app_is_freed_once_its_tickets_drop() {
        let exec = tiny_executor(ExecutorConfig::default());
        exec.pause("cam").unwrap();
        let tickets: Vec<Ticket> = (0..3)
            .map(|i| exec.submit("cam", &sample(0.1 * i as f32)).unwrap())
            .collect();
        exec.resume("cam").unwrap();
        let (apps, _) = weak_handles(&exec);
        let last = exec.deregister_dnn("cam").unwrap();
        // The tombstone answers for the departed app, as the app did.
        assert_eq!(
            format!("{:?}", exec.stats("cam").unwrap()),
            format!("{last:?}")
        );
        assert_eq!(
            exec.deadline("cam").unwrap(),
            Some(TimeSpan::from_millis(50.0))
        );
        let mut all = Vec::new();
        exec.dnn_snapshots(true, &mut all);
        assert_eq!(all.len(), 1, "the tombstone's row");
        let mut bulk = all[0].2.clone();
        assert_eq!(bulk.p99, None);
        bulk.p99 = last.p99;
        assert_eq!(format!("{bulk:?}"), format!("{last:?}"));
        assert!(apps[0].upgrade().is_some(), "unread tickets keep the app");
        for t in &tickets {
            match t.wait_timeout(TIMEOUT) {
                Ok(_) | Err(ServeError::DeadlineExpired { .. }) => {}
                other => panic!("lost or mistyped ticket: {other:?}"),
            }
        }
        drop(tickets);
        // The driver that served the last batch lets go of the app just
        // after its release, which may follow the tickets' answers.
        let deadline = Instant::now() + TIMEOUT;
        while apps[0].upgrade().is_some() {
            assert!(Instant::now() < deadline, "the tombstone kept the app");
            std::thread::yield_now();
        }
        assert_eq!(exec.stats("cam").unwrap().completed, last.completed);
    }

    #[test]
    fn a_reregistration_during_the_drain_keeps_its_name() {
        let exec = tiny_executor(ExecutorConfig::default());
        // The old lifetime's last batch outlasts the re-registration.
        exec.inject_fault("cam", FaultKind::LatencySpike(TimeSpan::from_millis(500.0)))
            .unwrap();
        let slow = exec.submit("cam", &sample(0.1)).unwrap();
        let last = std::thread::scope(|scope| {
            let departing = scope.spawn(|| exec.deregister_dnn("cam"));
            let deadline = Instant::now() + TIMEOUT;
            let begun = || {
                matches!(
                    exec.apps.lock().names.get("cam"),
                    Some(AppEntry::Departing(_))
                )
            };
            while !begun() {
                assert!(Instant::now() < deadline, "never began to depart");
                std::thread::yield_now();
            }
            exec.register_dnn("cam", testbed::tiny_dnn(2), &Requirements::new())
                .unwrap();
            departing.join().unwrap().unwrap()
        });
        assert_eq!(last.completed, 1, "{last:?}");
        assert!(slow.wait().unwrap().latency.as_millis() >= 500.0);
        // The drained lifetime left no tombstone over the fresh one.
        assert!(matches!(
            exec.apps.lock().names.get("cam"),
            Some(AppEntry::Dnn(_))
        ));
        exec.submit("cam", &sample(0.2))
            .unwrap()
            .wait_timeout(TIMEOUT)
            .unwrap();
        assert_eq!(exec.stats("cam").unwrap().completed, 1);
        assert_eq!(exec.deadline("cam").unwrap(), None);
    }
}
