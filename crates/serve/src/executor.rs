//! The multi-tenant serving executor.
//!
//! [`Executor`] owns a **fixed pool of driver threads** (sized by
//! [`ExecutorConfig::pool_workers`], *not* by the tenant count) that
//! serves every registered dynamic-DNN application from a shared
//! ready-"queue": each driver scans the app roster and claims the most
//! urgent runnable app under weighted earliest-deadline-first order —
//! the virtual deadline of an app's oldest queued request is its
//! arrival time plus the app's latency budget scaled down by its RTM
//! band allocation (more allocated cores ⇒ less slack ⇒ served
//! sooner). A claimed app is marked *busy* so exactly one driver works
//! it at a time, which preserves per-app FIFO completion order and
//! keeps per-app results bit-identical whether the app runs solo or
//! among a hundred co-tenants.
//!
//! Per claim, the driver drains the app's bounded request queue into a
//! deadline-aware micro-batch (up to [`ExecutorConfig::batch_cap`],
//! shrunk when the estimated batch service time would blow the oldest
//! request's deadline) and runs it through the real
//! [`eml_dnn::DynamicDnn`] kernels — the batch>1 forward path of
//! `eml_nn`, under a per-app [`eml_nn::workers::with_band_cap`] budget
//! derived from the cores the RTM allocated. An
//! [`eml_core::rtm::Allocation`] is *actuated*, not interpreted:
//! [`Executor::apply_allocation`] translates it through
//! [`eml_core::knobs::commands_for`] and a pool driver executes the
//! application-layer commands with
//! [`eml_core::knobs::apply_app_command`] (width switches re-plan the
//! int8 chain automatically; precision switches re-select the
//! backend).
//!
//! Requests complete through per-request tickets; queue overflow is a
//! typed [`crate::ServeError::QueueFull`] at submission, never a block
//! and never a silent drop. Every admitted request produces exactly one
//! completion (success or a typed error) in FIFO order per app, a
//! property the stress and property suites pin.
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
//! ## Fault tolerance
//!
//! Pool drivers are *supervised*: each driver stores a heartbeat
//! beacon before every scan and every forward pass, and a watchdog
//! thread (one per executor, ticking every
//! [`ExecutorConfig::watchdog_interval`]) checks every driver. A
//! driver that died (a panic escaping the forward's containment) has
//! the claimed app's in-flight batch failed with a typed
//! [`crate::ServeError::Inference`] error, the app's busy mark
//! cleared (so the surviving drivers can serve it), and is restarted
//! with bounded exponential backoff
//! ([`ExecutorConfig::restart_backoff`] .. `restart_backoff_max`,
//! doubling per consecutive crash); restarts surface in
//! [`AppStatsSnapshot::restarts`] of the app whose batch died. A
//! driver that *wedged* — heartbeat stale past
//! [`ExecutorConfig::stall_timeout`] with work in flight — has its
//! batch confiscated and failed the same way
//! ([`AppStatsSnapshot::stalls`]); if the forward later recovers, its
//! results are discarded (the riders were already answered).
//!
//! At dequeue time, requests whose deadline already expired in the
//! queue are **shed** with a typed
//! [`crate::ServeError::DeadlineExpired`] instead of burning a forward
//! pass on a doomed request — the biggest overload amplifier in a
//! deadline-driven server. Shed counts keep the extended accounting
//! invariant exact:
//! `submitted + storm_injected == completed + errors + rejected + shed`.
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
//! again. The extended accounting invariant holds across the
//! transition.
//!
//! Deterministic hostile schedules come from a seeded
//! [`crate::FaultPlan`] ([`ExecutorConfig::fault_plan`], off by
//! default and free when absent) or one-shot
//! [`Executor::inject_fault`] calls (the simulator's chaos hooks).

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use eml_core::knobs::{apply_app_command, commands_for, KnobCommand};
use eml_core::requirements::Requirements;
use eml_core::rtm::Allocation;
use eml_core::sync::{rank, RankedGuard, RankedMutex};
use eml_dnn::DynamicDnn;
use eml_nn::tensor::Tensor;
use eml_platform::soc::ClusterId;
use eml_platform::units::TimeSpan;

use crate::error::{Result, ServeError};
use crate::fault::{Fault, FaultKind, FaultPlan};
use crate::stats::{AppStats, AppStatsSnapshot, PoolSnapshot};

/// Virtual-deadline budget (seconds) for apps registered without a
/// latency requirement: tight enough that best-effort tenants are not
/// starved behind every deadline-bearing tenant, loose enough that
/// real deadlines still dominate the EDF order.
const DEFAULT_EDF_BUDGET_SECS: f64 = 0.1;

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

/// A handle to one submitted request.
#[derive(Debug)]
pub struct Ticket {
    app: String,
    seq: u64,
    rx: mpsc::Receiver<Result<Completion>>,
}

impl Ticket {
    /// The application this request was submitted to.
    pub fn app(&self) -> &str {
        &self.app
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
    /// the executor shut down before completing this request.
    pub fn wait(&self) -> Result<Completion> {
        self.rx.recv().map_err(|_| ServeError::AppStopped {
            app: self.app.clone(),
        })?
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
        match self.rx.recv_timeout(timeout) {
            Ok(done) => done,
            Err(mpsc::RecvTimeoutError::Timeout) => Err(ServeError::WaitTimeout {
                app: self.app.clone(),
            }),
            Err(mpsc::RecvTimeoutError::Disconnected) => Err(ServeError::AppStopped {
                app: self.app.clone(),
            }),
        }
    }
}

struct PendingRequest {
    seq: u64,
    input: Box<[f32]>,
    submitted: Instant,
    tx: mpsc::Sender<Result<Completion>>,
}

/// Queue state shared between submitters, the pool drivers, the
/// watchdog and the control plane. Never held across an inference.
struct QueueState {
    pending: VecDeque<PendingRequest>,
    /// The batch currently being served. It stays *here* (not on the
    /// driver's stack) so the supervisor can fail it with a typed
    /// error when the driver dies or wedges; the driver takes it back
    /// after the forward and discards its results if the supervisor
    /// got there first.
    inflight: Vec<PendingRequest>,
    /// Application-layer knob commands awaiting execution on a pool
    /// driver (which holds the model lock to actuate).
    knobs: Vec<KnobCommand>,
    /// Runtime-armed one-shot faults ([`Executor::inject_fault`]),
    /// consumed by the next dispatched batch.
    armed: Vec<FaultKind>,
    /// Fired flags of the app's [`FaultPlan`] slice (index-aligned).
    /// Shared state, not thread-local: a plan fault must not re-fire
    /// after a supervised restart.
    fired: Vec<bool>,
    /// Injected knob-actuation failures not yet consumed by a command.
    knob_fault_budget: u32,
    next_seq: u64,
    rejected: u64,
    errors: u64,
    shed: u64,
    storm_injected: u64,
    max_depth: usize,
    band_cap: usize,
    predicted: Option<TimeSpan>,
    cluster: Option<ClusterId>,
    admitted: bool,
    paused: bool,
    /// Claimed by a pool driver: exactly one driver serves an app at a
    /// time, which is what preserves per-app FIFO completion order on
    /// a shared pool. Cleared on release — or by the watchdog when the
    /// claiming driver dies.
    busy: bool,
    /// EWMA of per-sample service time (seconds), for deadline-aware
    /// batch sizing. Lives in shared state (not on a driver's stack)
    /// because on a shared pool *different* drivers serve consecutive
    /// batches of the same app; injected spike delays are excluded so
    /// coalescing stays deterministic across a fault.
    ewma: Option<f64>,
    /// Active `drain_app` calls; submissions are refused while the
    /// queue is being drained so the drain terminates.
    draining: u32,
    /// Set (together with `stopping`) by `deregister_dnn`, so raced
    /// submissions surface the distinct [`ServeError::AppDeregistered`]
    /// rather than shutdown's [`ServeError::AppStopped`].
    departing: bool,
    stopping: bool,
}

struct AppShared {
    /// Queue state, ranked: the serve path's completion section nests
    /// `EXEC_STATS` inside this lock (the crate's one sanctioned
    /// nesting); the debug-build rank check keeps every other path
    /// honest about the queue-state→stats order.
    state: RankedMutex<QueueState>,
    /// Signalled when the queue empties and nothing is in flight.
    idle: Condvar,
}

fn lock_state(shared: &AppShared) -> RankedGuard<'_, QueueState> {
    // Poisoning is recovered inside `RankedMutex`: the state is only
    // mutated by short, panic-free critical sections; a poisoned lock
    // means a pool driver died mid-batch, which the watchdog turns
    // into typed errors and a supervised restart.
    shared.state.lock()
}

/// Restart bookkeeping, owned by the watchdog and reset by a pool
/// driver on every completed batch.
#[derive(Default)]
struct Supervision {
    /// Consecutive restarts without an intervening completed batch —
    /// the exponent of the restart backoff.
    streak: u32,
    /// When the next restart may happen (set at death detection).
    restart_at: Option<Instant>,
}

/// Everything the pool drivers, the watchdog and the control plane
/// share about one app. The model lives *here* (not on a driver's
/// stack) so any driver — including one freshly restarted — serves
/// the same model.
struct AppRuntime {
    name: String,
    shared: AppShared,
    stats: RankedMutex<AppStats>,
    model: RankedMutex<DynamicDnn>,
    /// The shared driver pool this app is scheduled on (rung after
    /// every enqueue so a sleeping driver rescans).
    pool: Arc<PoolShared>,
    /// Registration order, the deterministic EDF tie-break: equal
    /// virtual deadlines are served in registration order, never by
    /// hash order or thread race.
    reg_index: u64,
    batch_cap: usize,
    deadline: Option<TimeSpan>,
    queue_capacity: usize,
    /// This app's slice of the executor's fault plan (empty ⇒ the
    /// dispatch path never looks at faults).
    plan: Vec<Fault>,
}

impl AppRuntime {
    fn lock_stats(&self) -> RankedGuard<'_, AppStats> {
        self.stats.lock()
    }

    fn lock_model(&self) -> RankedGuard<'_, DynamicDnn> {
        // A panic mid-forward (injected or organic) poisons this lock;
        // recovery (inside `RankedMutex`) is safe because the model's
        // scratch is resize-then-overwrite — no torn state survives
        // into the next forward.
        self.model.lock()
    }
}

struct DnnApp {
    rt: Arc<AppRuntime>,
    sample_len: usize,
    sample_shape: Vec<usize>,
}

enum AppEntry {
    Dnn(Arc<DnnApp>),
    /// Rigid apps run outside the executor (a GPU renderer, a codec);
    /// registration only makes allocation bookkeeping visible.
    Rigid,
    /// Tombstone left by [`Executor::deregister_dnn`]: keeps the final
    /// statistics readable, makes late lookups fail with the distinct
    /// typed refusal, and frees the name for re-registration.
    Departed(Arc<DnnApp>),
}

/// The pool scheduler's shared state: the roster of registered DNN
/// apps the EDF scan walks, and the pool-wide stop flag.
struct PoolState {
    roster: Vec<Arc<DnnApp>>,
    stopping: bool,
}

/// What every pool driver shares: the scheduler state, the wakeup
/// condvar, the live-driver census and the EDF epoch.
struct PoolShared {
    /// Ranked *below* every per-app lock (`EXEC_POOL` < `EXEC_QUEUE`)
    /// so a driver may hold the scheduler across its scan while
    /// peeking at each app's queue state.
    sched: RankedMutex<PoolState>,
    /// Signalled on submit / knob push / resume / release / stop.
    work: Condvar,
    /// Drivers currently alive (spawned minus reaped-dead). Lifecycle
    /// paths consult it so a fully-dead pool cannot hang a drain.
    live_drivers: AtomicUsize,
    /// The EDF time origin: virtual deadlines are offsets from here,
    /// so they are totally ordered plain `Duration`s.
    epoch: Instant,
}

impl PoolShared {
    /// Wakes every driver for a rescan, without losing a wakeup: a
    /// scanning driver holds the scheduler lock continuously from its
    /// scan until its condvar wait (which releases atomically), so
    /// taking the lock here guarantees the notify lands after the
    /// driver either saw the new state or started waiting.
    fn ring(&self) {
        drop(self.sched.lock());
        self.work.notify_all();
    }
}

/// One pool driver: its thread handle, its claim slot (which app it
/// is serving right now — the watchdog confiscates through it), its
/// supervision record and its heartbeat beacon.
struct Driver {
    index: usize,
    pool: Arc<PoolShared>,
    /// The app this driver currently has claimed (`busy` set). The
    /// watchdog reads it to know whose batch to fail when this driver
    /// dies or wedges.
    current: RankedMutex<Option<Arc<DnnApp>>>,
    thread: RankedMutex<Option<JoinHandle<()>>>,
    supervision: RankedMutex<Supervision>,
    /// Liveness beacon: nanoseconds since `epoch`, stored by the
    /// driver before every scan and every forward.
    heartbeat: AtomicU64,
    epoch: Instant,
}

impl Driver {
    fn beat(&self) {
        self.heartbeat
            .store(self.epoch.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    fn heartbeat_age(&self) -> Duration {
        let last = Duration::from_nanos(self.heartbeat.load(Ordering::Relaxed));
        self.epoch.elapsed().saturating_sub(last)
    }
}

/// Watchdog timing knobs, copied out of [`ExecutorConfig`] at spawn.
#[derive(Clone, Copy)]
struct WatchdogCfg {
    interval: Duration,
    stall: Duration,
    backoff: Duration,
    backoff_max: Duration,
}

/// The supervisor's view: the fixed driver set (immutable after
/// construction — supervision never needs a registry lock), plus the
/// stop signal of the watchdog thread itself.
struct Watchdog {
    drivers: Vec<Arc<Driver>>,
    stop: RankedMutex<bool>,
    bell: Condvar,
}

/// The multi-tenant serving executor. See the module docs.
pub struct Executor {
    cfg: ExecutorConfig,
    /// The app map, ranked *below* every per-app lock so lifecycle
    /// paths may resolve a name and then touch its queue state while
    /// still holding the map.
    apps: RankedMutex<HashMap<String, AppEntry>>,
    pool: Arc<PoolShared>,
    drivers: Vec<Arc<Driver>>,
    next_reg_index: AtomicU64,
    watchdog: Arc<Watchdog>,
    watchdog_thread: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Executor({} apps, {} drivers, queue {}, batch cap {})",
            self.apps.lock().len(),
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
        let pool = Arc::new(PoolShared {
            sched: RankedMutex::new(
                rank::EXEC_POOL,
                "exec-pool",
                PoolState {
                    roster: Vec::new(),
                    stopping: false,
                },
            ),
            work: Condvar::new(),
            live_drivers: AtomicUsize::new(0),
            epoch: Instant::now(),
        });
        let drivers: Vec<Arc<Driver>> = (0..cfg.pool_workers.max(1))
            .map(|index| {
                Arc::new(Driver {
                    index,
                    pool: Arc::clone(&pool),
                    current: RankedMutex::new(rank::EXEC_DRIVER, "exec-driver-current", None),
                    thread: RankedMutex::new(rank::EXEC_THREAD, "exec-thread", None),
                    supervision: RankedMutex::new(
                        rank::EXEC_SUPERVISION,
                        "exec-supervision",
                        Supervision::default(),
                    ),
                    heartbeat: AtomicU64::new(0),
                    epoch: Instant::now(),
                })
            })
            .collect();
        for drv in &drivers {
            let handle = spawn_driver_thread(drv).expect("spawn pool driver thread");
            *drv.thread.lock() = Some(handle);
            pool.live_drivers.fetch_add(1, Ordering::SeqCst);
        }
        let watchdog = Arc::new(Watchdog {
            drivers: drivers.clone(),
            stop: RankedMutex::new(rank::EXEC_WATCHDOG, "exec-watchdog-stop", false),
            bell: Condvar::new(),
        });
        let wd_cfg = WatchdogCfg {
            interval: cfg.watchdog_interval.max(Duration::from_millis(1)),
            stall: cfg.stall_timeout.max(Duration::from_millis(1)),
            backoff: cfg.restart_backoff,
            backoff_max: cfg.restart_backoff_max.max(cfg.restart_backoff),
        };
        let watchdog_thread = {
            let wd = Arc::clone(&watchdog);
            std::thread::Builder::new()
                .name("eml-serve-watchdog".into())
                .spawn(move || watchdog_loop(&wd, wd_cfg))
                .expect("spawn watchdog thread")
        };
        Self {
            cfg,
            apps: RankedMutex::new(rank::EXEC_APPS, "exec-apps", HashMap::new()),
            pool,
            drivers,
            next_reg_index: AtomicU64::new(0),
            watchdog,
            watchdog_thread: Some(watchdog_thread),
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
            .iter()
            .filter(|(_, e)| !matches!(e, AppEntry::Departed(_)))
            .map(|(n, _)| n.clone())
            .collect();
        names.sort();
        names
    }

    /// A pool-level snapshot: driver census and the aggregate queue
    /// depth across every registered app. The control plane keys
    /// pool-pressure off this; tests assert the driver count is
    /// independent of the tenant count through it.
    pub fn pool_stats(&self) -> PoolSnapshot {
        // Registry occupancy first (rank EXEC_APPS below EXEC_POOL),
        // then the roster scan under the scheduler lock.
        let apps = {
            let apps = self.apps.lock();
            apps.values()
                .filter(|e| !matches!(e, AppEntry::Departed(_)))
                .count()
        };
        let ps = self.pool.sched.lock();
        let mut queue_depth = 0;
        let mut in_flight = 0;
        for app in &ps.roster {
            let st = lock_state(&app.rt.shared);
            queue_depth += st.pending.len();
            in_flight += st.inflight.len();
        }
        PoolSnapshot {
            drivers: self.drivers.len(),
            live_drivers: self.pool.live_drivers.load(Ordering::SeqCst),
            apps,
            serving: ps.roster.len(),
            max_apps: self.cfg.max_apps,
            queue_depth,
            in_flight,
            queue_capacity: self.cfg.queue_capacity,
        }
    }

    /// Aggregate queue pressure of the shared pool in `0.0..=1.0`:
    /// total queued requests over total queue capacity across the
    /// registered DNN apps (0 when none are registered). Feeds the
    /// health score's pool term.
    pub fn pool_pressure(&self) -> f32 {
        let snap = self.pool_stats();
        if snap.serving == 0 || snap.queue_capacity == 0 {
            return 0.0;
        }
        let cap = (snap.queue_capacity * snap.serving) as f32;
        (snap.queue_depth as f32 / cap).clamp(0.0, 1.0)
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
    /// replaced by the fresh app.
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
        let name = name.into();
        // Hold the map for the whole registration so a concurrent
        // register/deregister of the same name serialises cleanly.
        let mut apps = self.apps.lock();
        match apps.get(&name) {
            None | Some(AppEntry::Departed(_)) => {}
            Some(_) => return Err(ServeError::DuplicateApp { app: name }),
        }
        let live = apps
            .values()
            .filter(|e| !matches!(e, AppEntry::Departed(_)))
            .count();
        if live >= self.cfg.max_apps {
            return Err(ServeError::OverCapacity {
                app: name,
                capacity: self.cfg.max_apps,
            });
        }
        let sample_shape: Vec<usize> = dnn.network().input_shape().to_vec();
        let sample_len = sample_shape.iter().product();
        let deadline = requirements.max_latency();
        let plan = self
            .cfg
            .fault_plan
            .as_ref()
            .map(|p| p.for_app(&name))
            .unwrap_or_default();
        let stats = AppStats::new(self.cfg.stats_window, dnn.level().index(), dnn.precision());
        let rt = Arc::new(AppRuntime {
            name: name.clone(),
            shared: AppShared {
                state: RankedMutex::new(
                    rank::EXEC_QUEUE,
                    "exec-queue-state",
                    QueueState {
                        pending: VecDeque::new(),
                        inflight: Vec::new(),
                        knobs: Vec::new(),
                        armed: Vec::new(),
                        fired: vec![false; plan.len()],
                        knob_fault_budget: 0,
                        next_seq: 0,
                        rejected: 0,
                        errors: 0,
                        shed: 0,
                        storm_injected: 0,
                        max_depth: 0,
                        band_cap: 0,
                        predicted: None,
                        cluster: None,
                        admitted: true,
                        paused: false,
                        busy: false,
                        ewma: None,
                        draining: 0,
                        departing: false,
                        stopping: false,
                    },
                ),
                idle: Condvar::new(),
            },
            stats: RankedMutex::new(rank::EXEC_STATS, "exec-stats", stats),
            model: RankedMutex::new(rank::EXEC_MODEL, "exec-model", dnn),
            pool: Arc::clone(&self.pool),
            reg_index: self.next_reg_index.fetch_add(1, Ordering::Relaxed),
            batch_cap: self.cfg.batch_cap.max(1),
            deadline,
            queue_capacity: self.cfg.queue_capacity,
            plan,
        });
        let app = Arc::new(DnnApp {
            rt,
            sample_len,
            sample_shape,
        });
        // Onto the scheduler roster (ranks: EXEC_APPS 190 < EXEC_POOL
        // 215 — legal while holding the map). No ring needed: a fresh
        // app has no work yet.
        self.pool.sched.lock().roster.push(Arc::clone(&app));
        apps.insert(name, AppEntry::Dnn(app));
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
        let name = name.into();
        let mut apps = self.apps.lock();
        match apps.get(&name) {
            None | Some(AppEntry::Departed(_)) => {}
            Some(_) => return Err(ServeError::DuplicateApp { app: name }),
        }
        let live = apps
            .values()
            .filter(|e| !matches!(e, AppEntry::Departed(_)))
            .count();
        if live >= self.cfg.max_apps {
            return Err(ServeError::OverCapacity {
                app: name,
                capacity: self.cfg.max_apps,
            });
        }
        apps.insert(name, AppEntry::Rigid);
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
            match apps.remove(app) {
                Some(AppEntry::Dnn(d)) => {
                    apps.insert(app.to_string(), AppEntry::Departed(Arc::clone(&d)));
                    d
                }
                Some(entry) => {
                    let refusal = match &entry {
                        AppEntry::Departed(_) => ServeError::AppDeregistered { app: app.into() },
                        _ => ServeError::UnknownApp { app: app.into() },
                    };
                    apps.insert(app.to_string(), entry);
                    return Err(refusal);
                }
                None => return Err(ServeError::UnknownApp { app: app.into() }),
            }
        };
        // Stop admissions, typed. The pool still drains what the app
        // already admitted: a stopping app with queued work keeps its
        // EDF key until the queue empties.
        {
            let mut st = lock_state(&d.rt.shared);
            st.departing = true;
            st.stopping = true;
        }
        d.rt.pool.ring();
        // Wait for the pool to finish the app's admitted work. A
        // bounded re-check (not a pure condvar wait) because two of
        // the signals that end the wait are not the app's own idle
        // notification: the claiming driver dying (busy stays set
        // until the watchdog clears it) and the whole pool being dead
        // (no drain will ever come — the stranded work is settled
        // below).
        {
            let mut st = lock_state(&d.rt.shared);
            loop {
                let drained = st.pending.is_empty() && st.inflight.is_empty() && !st.busy;
                if drained || d.rt.pool.live_drivers.load(Ordering::SeqCst) == 0 {
                    break;
                }
                let (got, _timed_out) =
                    d.rt.shared
                        .state
                        .wait_timeout(&d.rt.shared.idle, st, Duration::from_millis(5));
                st = got;
            }
        }
        // Anything left had no live driver to drain it. Fail it loud,
        // keep the accounting exact, release the band.
        let stranded = {
            let mut st = lock_state(&d.rt.shared);
            st.busy = false;
            let mut stranded: Vec<PendingRequest> = st.inflight.drain(..).collect();
            stranded.extend(st.pending.drain(..));
            st.errors += stranded.len() as u64;
            st.band_cap = 0;
            st.admitted = false;
            stranded
        };
        for req in stranded {
            let _ = req.tx.send(Err(ServeError::AppDeregistered {
                app: d.rt.name.clone(),
            }));
        }
        // Off the scheduler roster: no driver will claim it again.
        d.rt.pool
            .sched
            .lock()
            .roster
            .retain(|a| !Arc::ptr_eq(a, &d));
        d.rt.shared.idle.notify_all();
        Ok(snapshot_of(&d, &mut Vec::new(), true))
    }

    /// Resolves a *live* DNN app. A departed name gets the distinct
    /// typed refusal; rigid and unknown names are `UnknownApp`.
    fn dnn_app(&self, app: &str) -> Result<Arc<DnnApp>> {
        match self.apps.lock().get(app) {
            Some(AppEntry::Dnn(d)) => Ok(Arc::clone(d)),
            Some(AppEntry::Departed(_)) => Err(ServeError::AppDeregistered { app: app.into() }),
            _ => Err(ServeError::UnknownApp { app: app.into() }),
        }
    }

    /// Resolves a DNN app for *observation*, alive or departed — final
    /// statistics stay readable after deregistration.
    fn dnn_app_any(&self, app: &str) -> Result<Arc<DnnApp>> {
        match self.apps.lock().get(app) {
            Some(AppEntry::Dnn(d) | AppEntry::Departed(d)) => Ok(Arc::clone(d)),
            _ => Err(ServeError::UnknownApp { app: app.into() }),
        }
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
        let shared = &entry.rt.shared;
        let mut st = lock_state(shared);
        // `departing` before `stopping`: a submitter that resolved the
        // app just before the tombstone swap still gets the distinct
        // deregistration refusal, not shutdown's.
        if st.departing {
            return Err(ServeError::AppDeregistered { app: app.into() });
        }
        if st.stopping || st.draining > 0 {
            return Err(ServeError::AppStopped { app: app.into() });
        }
        if !st.admitted {
            st.rejected += 1;
            return Err(ServeError::NotAdmitted { app: app.into() });
        }
        if st.pending.len() >= self.cfg.queue_capacity {
            st.rejected += 1;
            return Err(ServeError::QueueFull {
                app: app.into(),
                capacity: self.cfg.queue_capacity,
            });
        }
        let seq = st.next_seq;
        st.next_seq += 1;
        let (tx, rx) = mpsc::channel();
        st.pending.push_back(PendingRequest {
            seq,
            input: sample.into(),
            submitted: Instant::now(),
            tx,
        });
        st.max_depth = st.max_depth.max(st.pending.len());
        drop(st);
        entry.rt.pool.ring();
        Ok(Ticket {
            app: app.into(),
            seq,
            rx,
        })
    }

    /// Actuates an RTM allocation on the registered applications:
    /// application-layer knob commands ([`commands_for`]) are queued to
    /// each addressed app, each placed app's band cap is set to its
    /// allocated core count (which is also its EDF weight on the
    /// shared pool) and its predicted latency/cluster recorded for the
    /// feedback loop, and apps the allocation left unplaced stop
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
                if let Some(AppEntry::Dnn(app)) = apps.get(name) {
                    lock_state(&app.rt.shared).admitted = false;
                }
            }
            for d in &alloc.dnns {
                let Some(AppEntry::Dnn(app)) = apps.get(&d.app) else {
                    continue;
                };
                let mut st = lock_state(&app.rt.shared);
                st.band_cap = d.point.op.cores as usize;
                st.predicted = Some(d.point.latency);
                st.cluster = Some(d.point.op.cluster);
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
        let mut st = lock_state(&entry.rt.shared);
        st.knobs.push(cmd.clone());
        drop(st);
        entry.rt.pool.ring();
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
        let mut st = lock_state(&entry.rt.shared);
        st.armed.push(fault);
        drop(st);
        entry.rt.pool.ring();
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
        lock_state(&entry.rt.shared).paused = true;
        Ok(())
    }

    /// Resumes a paused app.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownApp`] for unregistered or rigid names.
    pub fn resume(&self, app: &str) -> Result<()> {
        let entry = self.dnn_app(app)?;
        lock_state(&entry.rt.shared).paused = false;
        entry.rt.pool.ring();
        Ok(())
    }

    /// The app's deadline (from its registration requirements).
    /// Readable on a departed app too.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownApp`] for unregistered or rigid names.
    pub fn deadline(&self, app: &str) -> Result<Option<TimeSpan>> {
        Ok(self.dnn_app_any(app)?.rt.deadline)
    }

    /// A consistent statistics snapshot for one app. A *departed* app's
    /// final statistics remain readable until its name is registered
    /// again.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownApp`] for unregistered or rigid names.
    pub fn stats(&self, app: &str) -> Result<AppStatsSnapshot> {
        let entry = self.dnn_app_any(app)?;
        Ok(snapshot_of(&entry, &mut Vec::new(), true))
    }

    /// The control plane's bulk read: every DNN app's snapshot in
    /// **sorted-name** order from one pass — the registry lock taken
    /// once (not once per name, and only to clone the roster's handles:
    /// submitters resolve names under the same lock) and one percentile
    /// scratch shared by every tenant. Rigid apps have no serving
    /// surface and are skipped; tombstones are visited only when
    /// `departed_too` (the [`Executor::stats`] view) and
    /// `want_p99 = false` leaves `p99` unselected for readers that only
    /// consume the median. Each snapshot is field-for-field what
    /// [`Executor::stats`] returns.
    pub(crate) fn dnn_snapshots(
        &self,
        departed_too: bool,
        want_p99: bool,
    ) -> Vec<(String, AppStatsSnapshot)> {
        let mut roster: Vec<Arc<DnnApp>> = {
            let apps = self.apps.lock();
            apps.values()
                .filter_map(|entry| match entry {
                    AppEntry::Dnn(d) => Some(Arc::clone(d)),
                    AppEntry::Departed(d) if departed_too => Some(Arc::clone(d)),
                    _ => None,
                })
                .collect()
        };
        roster.sort_unstable_by(|a, b| a.rt.name.cmp(&b.rt.name));
        let mut scratch = Vec::with_capacity(self.cfg.stats_window);
        roster
            .iter()
            .map(|app| {
                let snap = snapshot_of(app, &mut scratch, want_p99);
                (app.rt.name.clone(), snap)
            })
            .collect()
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
        let mut st = lock_state(&entry.rt.shared);
        st.draining += 1;
        while !(st.pending.is_empty() && st.inflight.is_empty()) {
            st = entry.rt.shared.state.wait(&entry.rt.shared.idle, st);
        }
        st.draining -= 1;
        Ok(())
    }

    /// [`Executor::drain_app`] over every registered DNN app.
    pub fn drain(&self) {
        let names: Vec<String> = {
            let apps = self.apps.lock();
            apps.iter()
                .filter(|(_, e)| matches!(e, AppEntry::Dnn(_)))
                .map(|(n, _)| n.clone())
                .collect()
        };
        for name in names {
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
        *self.watchdog.stop.lock() = true;
        self.watchdog.bell.notify_all();
        if let Some(t) = self.watchdog_thread.take() {
            let _ = t.join();
        }
        // Mark every app stopping (drivers drain queued work but take
        // nothing new), then stop the pool itself.
        {
            let apps = self.apps.lock();
            for entry in apps.values() {
                if let AppEntry::Dnn(app) = entry {
                    lock_state(&app.rt.shared).stopping = true;
                }
            }
        }
        {
            self.pool.sched.lock().stopping = true;
        }
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
        for entry in apps.values() {
            let AppEntry::Dnn(app) = entry else { continue };
            let mut st = lock_state(&app.rt.shared);
            st.busy = false;
            let mut stranded: Vec<PendingRequest> = st.inflight.drain(..).collect();
            stranded.extend(st.pending.drain(..));
            st.errors += stranded.len() as u64;
            drop(st);
            for req in stranded {
                let _ = req.tx.send(Err(ServeError::AppStopped {
                    app: app.rt.name.clone(),
                }));
            }
            app.rt.shared.idle.notify_all();
        }
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Looks `name` up in a bulk read ([`Executor::dnn_snapshots`] returns
/// its rows sorted by name).
pub(crate) fn snapshot_named<'a>(
    roster: &'a [(String, AppStatsSnapshot)],
    name: &str,
) -> Option<&'a AppStatsSnapshot> {
    let at = roster.binary_search_by(|(n, _)| n.as_str().cmp(name));
    at.ok().map(|i| &roster[i].1)
}

/// A consistent statistics snapshot of one app (shared by
/// [`Executor::stats`], the bulk [`Executor::dnn_snapshots`] and the
/// final snapshot [`Executor::deregister_dnn`] returns). `scratch` and
/// `want_p99` are [`AppStats::snapshot_with`]'s.
fn snapshot_of(entry: &DnnApp, scratch: &mut Vec<f64>, want_p99: bool) -> AppStatsSnapshot {
    // Lock order everywhere: queue state before stats (the serve
    // path's completion section nests them in that order).
    struct QueueView {
        rejected: u64,
        errors: u64,
        shed: u64,
        storm_injected: u64,
        depth: usize,
        max_depth: usize,
        in_flight: usize,
        band_cap: usize,
        predicted: Option<TimeSpan>,
        cluster: Option<ClusterId>,
        admitted: bool,
    }
    let q = {
        let st = lock_state(&entry.rt.shared);
        QueueView {
            rejected: st.rejected,
            errors: st.errors,
            shed: st.shed,
            storm_injected: st.storm_injected,
            depth: st.pending.len(),
            max_depth: st.max_depth,
            in_flight: st.inflight.len(),
            band_cap: st.band_cap,
            predicted: st.predicted,
            cluster: st.cluster,
            admitted: st.admitted,
        }
    };
    let stats = entry.rt.lock_stats();
    let win = stats.snapshot_with(scratch, want_p99);
    AppStatsSnapshot {
        completed: stats.completed,
        rejected: q.rejected,
        errors: q.errors,
        shed: q.shed,
        storm_injected: q.storm_injected,
        missed: stats.missed,
        queue_depth: q.depth,
        max_queue_depth: q.max_depth,
        in_flight: q.in_flight,
        batches: stats.batches,
        batched_samples: stats.batched_samples,
        p50: win.p50,
        p99: win.p99,
        window_len: win.window_len,
        window_outcomes: win.window_outcomes,
        window_miss_rate: win.window_miss_rate,
        knob_errors: stats.knob_errors,
        knob_rejected: stats.knob_rejected,
        knob_faulted: stats.knob_faulted,
        last_knob_error: stats.last_knob_error.clone(),
        out_of_order: stats.out_of_order,
        restarts: stats.restarts,
        stalls: stats.stalls,
        level: stats.level,
        precision: stats.precision,
        predicted: q.predicted,
        cluster: q.cluster,
        band_cap: q.band_cap,
        admitted: q.admitted,
    }
}

fn spawn_driver_thread(drv: &Arc<Driver>) -> std::io::Result<JoinHandle<()>> {
    let drv = Arc::clone(drv);
    drv.beat(); // fresh beacon: a just-spawned driver is never "stale"
    std::thread::Builder::new()
        .name(format!("eml-serve-driver-{}", drv.index))
        .spawn(move || driver_loop(&drv))
}

/// The supervisor tick loop: scan every pool driver for death or
/// wedge until told to stop.
fn watchdog_loop(wd: &Watchdog, cfg: WatchdogCfg) {
    loop {
        {
            let stop = wd.stop.lock();
            if *stop {
                return;
            }
            let (stop, _timed_out) = wd.stop.wait_timeout(&wd.bell, stop, cfg.interval);
            if *stop {
                return;
            }
        }
        for drv in &wd.drivers {
            supervise_driver(drv, &cfg);
        }
    }
}

/// One supervision pass over one pool driver: join+restart a dead
/// driver (failing its claimed app's batch and freeing the claim),
/// confiscate a wedged driver's batch, or respawn after backoff.
fn supervise_driver(drv: &Arc<Driver>, cfg: &WatchdogCfg) {
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
            drv.pool.live_drivers.fetch_sub(1, Ordering::SeqCst);
            let victim = drv.current.lock().take();
            if let Some(app) = victim {
                fail_inflight(
                    &app.rt,
                    "pool driver died mid-batch; supervised restart pending",
                );
                {
                    let mut st = lock_state(&app.rt.shared);
                    st.busy = false;
                }
                // The restart is charged to the app whose batch killed
                // the driver — the per-tenant signal the control plane
                // and the chaos suites key off.
                app.rt.lock_stats().restarts += 1;
            }
            drv.pool.ring();
            let mut sup = drv.supervision.lock();
            let delay = cfg
                .backoff
                .saturating_mul(2u32.saturating_pow(sup.streak.min(16)))
                .min(cfg.backoff_max);
            sup.restart_at = Some(Instant::now() + delay);
            sup.streak = sup.streak.saturating_add(1);
        }
        None => {
            // Dead and waiting out the backoff: respawn when due.
            let due = {
                let mut sup = drv.supervision.lock();
                if sup.restart_at.is_some_and(|at| Instant::now() >= at) {
                    sup.restart_at = None;
                    true
                } else {
                    false
                }
            };
            if due {
                match spawn_driver_thread(drv) {
                    Ok(handle) => {
                        *th = Some(handle);
                        drop(th);
                        drv.pool.live_drivers.fetch_add(1, Ordering::SeqCst);
                        drv.pool.ring();
                    }
                    Err(_) => {
                        // The OS refused the thread (descriptor or
                        // thread exhaustion): re-arm the backoff and
                        // retry on a later watchdog tick instead of
                        // taking the supervisor down.
                        drop(th);
                        let mut sup = drv.supervision.lock();
                        let delay = cfg
                            .backoff
                            .saturating_mul(2u32.saturating_pow(sup.streak.min(16)))
                            .min(cfg.backoff_max);
                        sup.restart_at = Some(Instant::now() + delay);
                        sup.streak = sup.streak.saturating_add(1);
                    }
                }
            }
        }
        Some(_) => {
            drop(th);
            // Alive but possibly wedged: a claim in flight with a
            // stale heartbeat means the forward has been stuck past
            // the stall budget. Confiscate the batch; if the forward
            // later recovers, the driver finds the in-flight set
            // empty and discards its results. (An *idle* driver's
            // heartbeat also goes stale while it waits for work — but
            // idle drivers hold no claim, so `current` is `None` and
            // nothing is confiscated.)
            if drv.heartbeat_age() > cfg.stall {
                let current = drv.current.lock().clone();
                if let Some(app) = current {
                    let confiscated = {
                        let st = lock_state(&app.rt.shared);
                        !st.inflight.is_empty()
                    };
                    if confiscated {
                        fail_inflight(&app.rt, "forward pass stalled past the stall timeout");
                        app.rt.lock_stats().stalls += 1;
                    }
                }
            }
        }
    }
}

/// Fails the app's in-flight batch with a typed inference error (the
/// supervisor's path for dead and wedged drivers).
fn fail_inflight(rt: &AppRuntime, reason: &str) {
    let batch = {
        let mut st = lock_state(&rt.shared);
        let batch = std::mem::take(&mut st.inflight);
        st.errors += batch.len() as u64;
        batch
    };
    for req in batch {
        let _ = req.tx.send(Err(ServeError::Inference {
            app: rt.name.clone(),
            reason: reason.into(),
        }));
    }
    let st = lock_state(&rt.shared);
    if st.pending.is_empty() && st.inflight.is_empty() {
        rt.shared.idle.notify_all();
    }
}

/// Applies queued knob commands on a pool driver (which holds the
/// model lock) via the core knob executor, recording the resulting
/// level/precision — and any failure, counted per cause — in the app's
/// stats. `faulted` is the number of leading commands an injected
/// actuation fault drops.
fn apply_knobs(
    name: &str,
    dnn: &mut DynamicDnn,
    knobs: &[KnobCommand],
    stats: &RankedMutex<AppStats>,
    mut faulted: u32,
) {
    for cmd in knobs {
        if faulted > 0 {
            faulted -= 1;
            let mut s = stats.lock();
            s.knob_errors += 1;
            s.knob_faulted += 1;
            s.last_knob_error = Some("injected knob-actuation fault".into());
            continue;
        }
        let applied = apply_app_command(cmd, name, dnn);
        let mut s = stats.lock();
        match applied {
            Ok(_) => {
                let (level, precision) = (dnn.level().index(), dnn.precision());
                if level != s.level || precision != s.precision {
                    // A new operating point: the latency window now
                    // describes stale behaviour.
                    s.reset_window();
                }
                s.level = level;
                s.precision = precision;
            }
            Err(e) => {
                s.knob_errors += 1;
                s.knob_rejected += 1;
                s.last_knob_error = Some(e.to_string());
            }
        }
    }
}

/// Sheds the expired prefix of the queue: FIFO order means the oldest
/// request is at the front, so once the front is within deadline the
/// whole remainder is too. Each shed request completes immediately
/// with a typed error — no forward pass is spent on it.
fn shed_expired(st: &mut QueueState, deadline: TimeSpan, app: &str) {
    while st
        .pending
        .front()
        .is_some_and(|front| front.submitted.elapsed().as_secs_f64() > deadline.as_secs())
    {
        let Some(req) = st.pending.pop_front() else {
            break;
        };
        st.shed += 1;
        let _ = req.tx.send(Err(ServeError::DeadlineExpired {
            app: app.into(),
            seq: req.seq,
        }));
    }
}

/// Enqueues `n` synthetic copies of the queue's front sample (the
/// triggering batch's first request) behind it, stopping at capacity.
/// Synthetic requests have no ticket; their completions land in the
/// stats like any other request.
fn inject_storm(st: &mut QueueState, n: usize, capacity: usize) {
    let Some(template) = st.pending.front().map(|r| r.input.clone()) else {
        return;
    };
    for _ in 0..n {
        if st.pending.len() >= capacity {
            break;
        }
        let seq = st.next_seq;
        st.next_seq += 1;
        let (tx, _rx) = mpsc::channel();
        st.pending.push_back(PendingRequest {
            seq,
            input: template.clone(),
            submitted: Instant::now(),
            tx,
        });
        st.storm_injected += 1;
    }
    st.max_depth = st.max_depth.max(st.pending.len());
}

/// The shared pool's scheduling key, in *ascending* urgency order:
/// pending knob work first (cheap, and the control plane's actuation
/// latency rides on it), then weighted-EDF virtual deadlines —
/// smaller is sooner. Ties break on registration index, so the order
/// is total and deterministic.
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

/// The claimability and urgency of one app, computed under its queue
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
fn sched_key(st: &QueueState, rt: &AppRuntime, pool_epoch: Instant) -> Option<SchedKey> {
    if st.busy {
        return None;
    }
    if st.stopping && st.pending.is_empty() {
        return None;
    }
    if !st.knobs.is_empty() {
        return Some(SchedKey::Knob(rt.reg_index));
    }
    if (st.paused && !st.stopping) || st.pending.is_empty() {
        return None;
    }
    let oldest = st.pending.front()?;
    let budget = rt
        .deadline
        .map_or(DEFAULT_EDF_BUDGET_SECS, |d| d.as_secs().max(0.0));
    let weight = st.band_cap.max(1) as f64;
    let virtual_deadline = oldest.submitted.saturating_duration_since(pool_epoch)
        + Duration::from_secs_f64(budget / weight);
    Some(SchedKey::Edf(virtual_deadline, rt.reg_index))
}

/// Claims the most urgent runnable app for this driver, or blocks
/// until one appears. Returns `None` only when the pool is stopping
/// and nothing is left to drain — the driver's exit condition.
///
/// The scan holds the pool scheduler lock throughout (ranks: the
/// scheduler at `EXEC_POOL` below each app's `EXEC_QUEUE`, so peeking
/// at queue state inside the scan is rank-legal), and the condvar
/// wait releases it atomically — with [`PoolShared::ring`] taking the
/// same lock before notifying, a wakeup can never fall between a
/// driver's decision to sleep and its sleep.
fn next_app(drv: &Driver) -> Option<Arc<DnnApp>> {
    let pool = &drv.pool;
    let mut ps = pool.sched.lock();
    loop {
        drv.beat();
        let mut best: Option<(SchedKey, Arc<DnnApp>)> = None;
        for app in &ps.roster {
            let key = {
                let st = lock_state(&app.rt.shared);
                sched_key(&st, &app.rt, pool.epoch)
            };
            if let Some(key) = key {
                // `match`, not `map_or`: the strict-less comparison
                // keeps the earliest key and the earliest-registered
                // app on ties.
                match &best {
                    Some((b, _)) if *b <= key => {}
                    _ => best = Some((key, Arc::clone(app))),
                }
            }
        }
        if let Some((_, app)) = best {
            // Re-verify under the app lock before claiming: another
            // actor (watchdog confiscation, a racing drain) may have
            // changed the queue between the scan's peek and now.
            {
                let mut st = lock_state(&app.rt.shared);
                if sched_key(&st, &app.rt, pool.epoch).is_none() {
                    continue;
                }
                st.busy = true;
            }
            return Some(app);
        }
        if ps.stopping {
            return None;
        }
        ps = pool.sched.wait(&pool.work, ps);
    }
}

/// One unit of serving work handed from the locked dispatch section to
/// the (unlocked) execution section of a driver's claim. The batch
/// itself stays in `QueueState::inflight`; only the flattened input
/// data travels.
struct Dispatch {
    k: usize,
    data: Vec<f32>,
    band_cap: usize,
    knobs: Vec<KnobCommand>,
    knob_faults: u32,
    delay: Duration,
    panic_forward: bool,
    crash: bool,
}

/// The locked half of serving one claim: shed expired requests,
/// evaluate fault triggers, and move a batch into the in-flight slot.
/// Returns `None` when the claim has nothing to do (everything shed,
/// or the app stopped between claim and dispatch) — the caller just
/// releases the claim.
fn build_dispatch(rt: &AppRuntime) -> Option<Dispatch> {
    let mut st = lock_state(&rt.shared);
    let pausing = st.paused && !st.stopping;
    if !pausing {
        if let Some(d) = rt.deadline {
            shed_expired(&mut st, d, &rt.name);
            if st.pending.is_empty() && st.inflight.is_empty() {
                rt.shared.idle.notify_all();
            }
        }
    }
    let knobs: Vec<KnobCommand> = st.knobs.drain(..).collect();
    if st.stopping && st.pending.is_empty() {
        return None;
    }
    if pausing || st.pending.is_empty() {
        // Knob-only claim (or everything shed): no batch dispatched.
        if knobs.is_empty() {
            return None;
        }
        let knob_faults = st.knob_fault_budget.min(knobs.len() as u32);
        st.knob_fault_budget -= knob_faults;
        return Some(Dispatch {
            k: 0,
            data: Vec::new(),
            band_cap: 0,
            knobs,
            knob_faults,
            delay: Duration::ZERO,
            panic_forward: false,
            crash: false,
        });
    }
    // Deadline-aware coalescing: take up to `batch_cap` requests, but
    // no more than the oldest request's remaining budget is estimated
    // to cover — batching amortises per-pass overhead only while it
    // does not itself cause the miss.
    let mut k = st.pending.len().min(rt.batch_cap);
    if let (Some(d), Some(s)) = (rt.deadline, st.ewma) {
        let oldest = st
            .pending
            .front()
            .map_or(0.0, |r| r.submitted.elapsed().as_secs_f64());
        while k > 1 && oldest + s * k as f64 > d.as_secs() {
            k -= 1;
        }
    }
    // Fault triggers for this batch: scheduled plan entries whose
    // sequence threshold the batch reaches (each fires once, flag kept
    // in shared state so restarts do not re-fire), plus any
    // runtime-armed one-shots.
    let mut triggered: Vec<FaultKind> = Vec::new();
    if !rt.plan.is_empty() {
        let max_seq = st.pending[k - 1].seq;
        for (i, f) in rt.plan.iter().enumerate() {
            if !st.fired[i] && f.at_seq <= max_seq {
                st.fired[i] = true;
                triggered.push(f.kind.clone());
            }
        }
    }
    triggered.append(&mut st.armed);
    let mut delay = Duration::ZERO;
    let mut panic_forward = false;
    let mut crash = false;
    for kind in triggered {
        match kind {
            FaultKind::PanicForward => panic_forward = true,
            FaultKind::CrashThread => crash = true,
            FaultKind::LatencySpike(t) => {
                delay += Duration::from_secs_f64(t.as_secs().max(0.0));
            }
            FaultKind::KnobFailure => st.knob_fault_budget += 1,
            FaultKind::QueueStorm(n) => inject_storm(&mut st, n, rt.queue_capacity),
        }
    }
    let knob_faults = st.knob_fault_budget.min(knobs.len() as u32);
    st.knob_fault_budget -= knob_faults;
    // Move the batch into the supervised in-flight slot, copying its
    // inputs into one contiguous buffer for the batched forward.
    let batch: Vec<PendingRequest> = st.pending.drain(..k).collect();
    let mut data = Vec::with_capacity(batch.iter().map(|r| r.input.len()).sum());
    for r in &batch {
        data.extend_from_slice(&r.input);
    }
    st.inflight = batch;
    Some(Dispatch {
        k,
        data,
        band_cap: st.band_cap,
        knobs,
        knob_faults,
        delay,
        panic_forward,
        crash,
    })
}

/// Burns CPU for `d` — an injected interference spike. A sleep would
/// free the core and understate the interference; the spin models a
/// co-tenant actually occupying it.
fn spin_for(d: Duration) {
    let t0 = Instant::now();
    while t0.elapsed() < d {
        std::hint::spin_loop();
    }
}

/// Releases a driver's claim on an app: clears `busy`, signals idle
/// watchers if the app has fully drained, and rings the pool — other
/// drivers may have gone to sleep seeing the app claimed, and its
/// queue may hold more work.
fn release(rt: &AppRuntime, pool: &PoolShared) {
    let mut st = lock_state(&rt.shared);
    st.busy = false;
    if st.pending.is_empty() && st.inflight.is_empty() {
        rt.shared.idle.notify_all();
    }
    drop(st);
    pool.ring();
}

/// The pool driver loop: claim the most urgent runnable app, publish
/// the claim (so the watchdog knows whose batch to fail if this
/// driver dies), serve one dispatch, release, repeat.
fn driver_loop(drv: &Arc<Driver>) {
    loop {
        drv.beat();
        let Some(app) = next_app(drv) else {
            return;
        };
        *drv.current.lock() = Some(Arc::clone(&app));
        serve_app(drv, &app);
        drv.current.lock().take();
    }
}

/// Serves one claimed app: one knob drain and/or one micro-batch
/// forward, then release. The claim (`busy`) is held throughout, so
/// per-app batches never interleave across drivers.
fn serve_app(drv: &Driver, app: &DnnApp) {
    let rt = &app.rt;
    let Some(d) = build_dispatch(rt) else {
        release(rt, &drv.pool);
        return;
    };
    if !d.knobs.is_empty() {
        let mut model = rt.lock_model();
        apply_knobs(&rt.name, &mut model, &d.knobs, &rt.stats, d.knob_faults);
    }
    if d.k == 0 {
        release(rt, &drv.pool);
        return;
    }
    if d.crash {
        // Deliberately *outside* the forward's containment: this
        // kills the pool driver mid-batch, which is exactly the
        // failure the watchdog supervises.
        panic!("injected fault: serving thread crash (`{}`)", rt.name);
    }

    let k = d.k;
    let mut shape = Vec::with_capacity(1 + app.sample_shape.len());
    shape.push(k);
    shape.extend_from_slice(&app.sample_shape);
    let data = d.data;
    drv.beat();
    let t0 = Instant::now();
    // A panicking model (poisoned weights, a debug assertion in a
    // kernel) must not wedge the tenant: contain the unwind, turn
    // it into a typed error for every rider, and keep serving.
    // The model's internal scratch is resize-then-overwrite, so a
    // mid-forward unwind leaves no state a later forward reads.
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if !d.delay.is_zero() {
            spin_for(d.delay);
        }
        if d.panic_forward {
            panic!("injected fault: forward panic");
        }
        Tensor::from_vec(&shape, data).and_then(|input| {
            eml_nn::workers::with_band_cap(d.band_cap, || {
                rt.lock_model().network_mut().forward(&input, false)
            })
        })
    }))
    .unwrap_or_else(|panic| {
        let reason = panic
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "<non-string panic payload>".into());
        Err(eml_nn::NnError::InvalidConfig {
            reason: format!("forward pass panicked: {reason}"),
        })
    });
    drv.beat();
    let service = t0.elapsed();
    let service_span = TimeSpan::from_secs(service.as_secs_f64());

    // Take the batch back from the supervised slot and settle its
    // accounting inside the same critical section. To a concurrent
    // observer (`drain_app` watching for idle, `stats()` reading a
    // snapshot) every request is either still in flight or already
    // counted — there is no instant where the queue looks empty
    // while the batch's outcomes are still unrecorded. An empty
    // slot means the watchdog declared this pass wedged and
    // already answered the riders — discard the (stale) results
    // and keep serving.
    let mut st = lock_state(&rt.shared);
    let batch = std::mem::take(&mut st.inflight);
    if batch.is_empty() {
        drop(st);
        release(rt, &drv.pool);
        return;
    }
    let k = batch.len();

    match result {
        Ok(logits) => {
            let classes = logits.shape()[1];
            let rows = logits.data();
            // `st` (queue) then `stats` is the crate's lock order.
            let mut sends = Vec::with_capacity(k);
            {
                let mut s = rt.lock_stats();
                s.batches += 1;
                s.batched_samples += k as u64;
                for (i, req) in batch.into_iter().enumerate() {
                    let row = rows[i * classes..(i + 1) * classes].to_vec();
                    // Total order: a NaN logit (a client-submitted
                    // NaN sample propagates on the f32 path) must
                    // yield *a* prediction, not a panic — the NaN
                    // is visible to the caller in the logits row.
                    let pred = row
                        .iter()
                        .enumerate()
                        .max_by(|a, b| a.1.total_cmp(b.1))
                        .map_or(0, |(c, _)| c);
                    let latency_s = req.submitted.elapsed().as_secs_f64();
                    let met = rt.deadline.map(|dl| latency_s <= dl.as_secs());
                    s.record(req.seq, latency_s, met);
                    sends.push((
                        req.tx,
                        Completion {
                            seq: req.seq,
                            logits: row,
                            pred,
                            latency: TimeSpan::from_secs(latency_s),
                            service: service_span,
                            batch_size: k,
                            deadline_met: met,
                        },
                    ));
                }
            }
            // The operating point's cost, not the fault's: exclude
            // injected spike time from the coalescing estimate.
            let modelled = service.saturating_sub(d.delay);
            let per_sample = modelled.as_secs_f64() / k as f64;
            st.ewma = Some(match st.ewma {
                None => per_sample,
                Some(prev) => 0.7 * prev + 0.3 * per_sample,
            });
            drop(st);
            for (tx, completion) in sends {
                let _ = tx.send(Ok(completion));
            }
        }
        Err(e) => {
            // Loud failure: every rider gets the typed error, and
            // the error counter keeps the extended accounting
            // invariant balanced.
            st.errors += k as u64;
            drop(st);
            for req in batch {
                let _ = req.tx.send(Err(ServeError::Inference {
                    app: rt.name.clone(),
                    reason: e.to_string(),
                }));
            }
        }
    }
    // A completed pass (even a typed failure) proves the driver
    // healthy: reset the restart-backoff streak.
    drv.supervision.lock().streak = 0;
    release(rt, &drv.pool);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testbed;
    use eml_dnn::{Precision, WidthLevel};
    use std::time::Duration;

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

        let live = exec.dnn_snapshots(false, true);
        let names: Vec<&str> = live.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            ["alpha", "mid", "zeta"],
            "sorted, rigid and departed skipped"
        );
        for (name, snap) in &live {
            let solo = exec.stats(name).unwrap();
            assert_eq!(format!("{snap:?}"), format!("{solo:?}"), "{name}");
        }
        assert_eq!(live[2].1.completed, 5);
        assert!(live[2].1.p99.is_some() && live[1].1.p50.is_none());

        // The `stats()` view keeps the tombstone readable; the median-
        // only read differs from it in `p99` alone.
        let all = exec.dnn_snapshots(true, false);
        let names: Vec<&str> = all.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["alpha", "gone", "mid", "zeta"]);
        for (name, snap) in &all {
            let mut solo = exec.stats(name).unwrap();
            assert_eq!(snap.p99, None);
            solo.p99 = None;
            assert_eq!(format!("{snap:?}"), format!("{solo:?}"), "{name}");
        }
        assert_eq!(
            all[1].1.completed, 3,
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
}
