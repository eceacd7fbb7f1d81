//! Per-app health scoring.
//!
//! Every counter this module reads already exists in
//! [`AppStatsSnapshot`], so the serving path records nothing extra —
//! but *reading* them is not free, and the reader runs on the cores it
//! manages. One [`HealthMonitor::observe`] is one pass over the
//! roster: one registry lock to clone the roster's handles (not one
//! per tenant), per tenant one ledger lock plus an O(window) median
//! selection after releasing it (see [`crate::stats`]; nothing here
//! reads the p99, so it is not selected), and no allocation beyond the
//! report, the reading thread's percentile scratch and one name
//! per newly seen app. The pool-wide backlog term is summed from those
//! same snapshots, so no second sweep locks the ledgers again. The
//! cost is linear in the tenant count. The score folds the counters
//! into a single `0–100` number per app:
//!
//! - **windowed miss rate** (gated on enough outcomes to be evidence),
//! - **queue pressure** (depth as a fraction of capacity),
//! - **pool pressure** (the whole roster's backlog, charged to every
//!   tenant),
//! - **fresh events** since the previous observation — deadline sheds,
//!   supervised restarts, stall confiscations, injected knob faults —
//!   each a flat penalty while it keeps happening, silent once it
//!   stops.
//!
//! Cumulative counters are deliberately *not* scored directly: an app
//! that shed a thousand requests last week but is clean now is
//! healthy. One watermark type turns an app's cumulative counters
//! into [`FreshEvents`], for the monitor, for [`crate::PressurePolicy`]
//! and for [`crate::ServeController`]'s miss tracking alike, under one
//! lifetime rule: a counter below its mark means the name was
//! deregistered and registered again, and the new lifetime's counters
//! are its deltas.
//!
//! [`HealthMonitor`] evaluates every registered DNN app (in sorted-name,
//! deterministic order — the order of [`crate::Executor::app_names`])
//! and takes the worst score as the executor's own.
//! [`crate::PressurePolicy`] consumes the same per-app score as its
//! single degrade/restore trigger instead of a bag of ad-hoc
//! thresholds.

use std::collections::HashMap;

use crate::executor::{snapshot_named, Executor};
use crate::stats::AppStatsSnapshot;

/// Tuning of the health score: one weight per signal, each the number
/// of points the signal can subtract from a perfect 100.
#[derive(Debug, Clone, Copy)]
pub struct HealthConfig {
    /// Penalty at a 100 % windowed miss rate (scaled linearly below).
    pub w_miss: f32,
    /// Penalty at a full queue (scaled linearly with depth/capacity).
    pub w_queue: f32,
    /// Penalty at full *pool-wide* queue pressure (scaled linearly).
    /// Since the shared worker pool, a tenant's latency depends on the
    /// whole roster's backlog, not just its own queue — this term folds
    /// the roster's queued requests over its total queue capacity into
    /// every app's score. Set it to `0.0` in deterministic soaks: pool
    /// depth is timing dependent.
    pub w_pool_queue: f32,
    /// Flat penalty while deadline sheds keep occurring.
    pub w_shed: f32,
    /// Flat penalty while supervised restarts keep occurring.
    pub w_restart: f32,
    /// Flat penalty while stall confiscations keep occurring.
    pub w_stall: f32,
    /// Flat penalty while knob-actuation faults keep occurring.
    pub w_knob_fault: f32,
    /// Deadline outcomes required in the sliding window before the
    /// miss rate is trusted — on both sides: too few outcomes neither
    /// penalise nor count as evidence of health.
    pub min_outcomes: usize,
}

impl Default for HealthConfig {
    fn default() -> Self {
        Self {
            w_miss: 80.0,
            w_queue: 50.0,
            w_pool_queue: 15.0,
            w_shed: 45.0,
            w_restart: 25.0,
            w_stall: 25.0,
            w_knob_fault: 10.0,
            min_outcomes: 8,
        }
    }
}

/// Events that occurred since the previous observation of an app —
/// the deltas of its cumulative counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FreshEvents {
    /// Completed requests since the last observation.
    pub completed: u64,
    /// Of those, the ones that missed the app's deadline.
    pub missed: u64,
    /// Deadline sheds since the last observation.
    pub shed: u64,
    /// Supervised restarts since the last observation.
    pub restarts: u64,
    /// Stall confiscations since the last observation.
    pub stalls: u64,
    /// Injected knob-actuation faults since the last observation.
    pub knob_faults: u64,
}

impl FreshEvents {
    /// Everything the app's current lifetime has done: its cumulative
    /// counters.
    fn lifetime(snap: &AppStatsSnapshot) -> Self {
        Self {
            completed: snap.completed,
            missed: snap.missed,
            shed: snap.shed,
            restarts: snap.restarts,
            stalls: snap.stalls,
            knob_faults: snap.knob_faulted,
        }
    }

    /// `self − earlier`, counter by counter; `None` when any counter
    /// fell.
    fn since(self, earlier: Self) -> Option<Self> {
        Some(Self {
            completed: self.completed.checked_sub(earlier.completed)?,
            missed: self.missed.checked_sub(earlier.missed)?,
            shed: self.shed.checked_sub(earlier.shed)?,
            restarts: self.restarts.checked_sub(earlier.restarts)?,
            stalls: self.stalls.checked_sub(earlier.stalls)?,
            knob_faults: self.knob_faults.checked_sub(earlier.knob_faults)?,
        })
    }
}

/// An app's cumulative counters at its previous observation: the one
/// place the control plane turns them into per-observation deltas.
/// The monitor and the ladder seed it at attach time
/// ([`EventWatermark::seeded`]), so history that predates them is
/// never fresh; the controller starts it at zero (`default`), so an
/// app's first epoch accounts everything it has served.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct EventWatermark(pub(crate) FreshEvents);

impl EventWatermark {
    /// A watermark level with `snap`: the next
    /// [`EventWatermark::advance`] reports only events that happen
    /// *after* this snapshot.
    pub(crate) fn seeded(snap: &AppStatsSnapshot) -> Self {
        Self(FreshEvents::lifetime(snap))
    }

    /// Advances the watermark to `snap`, returning the events since the
    /// previous level and whether a new lifetime began. Counters never
    /// fall within one lifetime, so any counter below its mark means
    /// the name was deregistered and registered again in between: the
    /// new lifetime counts from zero, and its whole history is fresh.
    /// A new lifetime that already out-counted the old one on every
    /// counter reads as activity of the old one.
    pub(crate) fn advance(&mut self, snap: &AppStatsSnapshot) -> (FreshEvents, bool) {
        let now = FreshEvents::lifetime(snap);
        let last = std::mem::replace(&mut self.0, now);
        match now.since(last) {
            Some(fresh) => (fresh, false),
            None => (now, true),
        }
    }
}

/// The pool-wide backlog fraction in `0.0..=1.0`: requests queued
/// across `apps` serving tenants over their total queue capacity. With
/// no capacity nothing can be queued, and the fraction is 0.
pub(crate) fn pool_pressure(queued: usize, queue_capacity: usize, apps: usize) -> f32 {
    (queued as f32 / (queue_capacity * apps).max(1) as f32).min(1.0)
}

/// The health score of one snapshot: `100` minus the weighted
/// penalties, clamped to `[0, 100]`.
///
/// `queue_capacity` is the executor's configured per-app bound (the
/// denominator of the queue-pressure term); `pool_pressure` is the
/// shared pool's aggregate backlog fraction ([`pool_pressure`]); `fresh`
/// is the event delta since the caller's previous observation.
fn score(
    cfg: &HealthConfig,
    snap: &AppStatsSnapshot,
    queue_capacity: usize,
    pool_pressure: f32,
    fresh: &FreshEvents,
) -> f32 {
    let mut penalty = 0.0f32;
    if snap.window_outcomes >= cfg.min_outcomes {
        penalty += cfg.w_miss * snap.window_miss_rate as f32;
    }
    if queue_capacity > 0 {
        let frac = (snap.queue_depth as f32 / queue_capacity as f32).min(1.0);
        penalty += cfg.w_queue * frac;
    }
    penalty += cfg.w_pool_queue * pool_pressure.clamp(0.0, 1.0);
    if fresh.shed > 0 {
        penalty += cfg.w_shed;
    }
    if fresh.restarts > 0 {
        penalty += cfg.w_restart;
    }
    if fresh.stalls > 0 {
        penalty += cfg.w_stall;
    }
    if fresh.knob_faults > 0 {
        penalty += cfg.w_knob_fault;
    }
    (100.0 - penalty).clamp(0.0, 100.0)
}

/// One app's entry in a [`HealthReport`].
#[derive(Debug, Clone)]
pub struct AppHealth {
    /// Application name.
    pub app: String,
    /// The `0–100` health score.
    pub score: f32,
    /// Event deltas since the previous report.
    pub fresh: FreshEvents,
    /// The snapshot the score was computed from.
    pub snapshot: AppStatsSnapshot,
}

impl AppHealth {
    /// Scores `app` from `snapshot`: advances its watermark `mark` to
    /// the snapshot and charges the fresh events, its own queue
    /// against `queue_capacity`, and the pool-wide `pool_pressure`.
    /// The one scorer of the monitor and the ladder.
    pub(crate) fn assess(
        cfg: &HealthConfig,
        app: String,
        snapshot: AppStatsSnapshot,
        mark: &mut EventWatermark,
        queue_capacity: usize,
        pool_pressure: f32,
    ) -> Self {
        let (fresh, _) = mark.advance(&snapshot);
        Self {
            app,
            score: score(cfg, &snapshot, queue_capacity, pool_pressure, &fresh),
            fresh,
            snapshot,
        }
    }
}

/// One observation of the whole executor: every app scored, worst
/// score as the aggregate.
#[derive(Debug, Clone)]
pub struct HealthReport {
    /// Per-app health, sorted by app name (deterministic order).
    pub apps: Vec<AppHealth>,
    /// The executor-wide score: the *minimum* app score (a serving
    /// layer is as healthy as its sickest tenant), `100` with no apps.
    pub aggregate: f32,
}

/// The executor-wide health observer. Stateful: it keeps one watermark
/// per app, so scores reflect *fresh* events. One monitor per
/// executor; observe at whatever cadence the caller's control loop
/// runs.
#[derive(Debug)]
pub struct HealthMonitor {
    cfg: HealthConfig,
    marks: HashMap<String, EventWatermark>,
}

impl HealthMonitor {
    /// Creates a monitor with the given scoring weights.
    #[must_use]
    pub fn new(cfg: HealthConfig) -> Self {
        Self {
            cfg,
            marks: HashMap::new(),
        }
    }

    /// Scores every registered DNN app and returns the report. Apps are
    /// visited in sorted-name order; rigid apps (no serving surface)
    /// are skipped; watermarks of apps that have departed the roster
    /// are pruned.
    pub fn observe(&mut self, exec: &Executor) -> HealthReport {
        let roster = exec.dnn_snapshots(false);
        self.marks
            .retain(|n, _| snapshot_named(&roster, n).is_some());
        let capacity = exec.config().queue_capacity;
        let queued = roster.iter().map(|(_, s)| s.queue_depth).sum();
        let pool = pool_pressure(queued, capacity, roster.len());
        let mut apps = Vec::with_capacity(roster.len());
        let mut aggregate = 100.0f32;
        for (name, snap) in roster {
            let mark = match self.marks.get_mut(&name) {
                Some(mark) => mark,
                // First sight: level with `snap`, so nothing is fresh yet.
                None => self
                    .marks
                    .entry(name.clone())
                    .or_insert(EventWatermark::seeded(&snap)),
            };
            let app = AppHealth::assess(&self.cfg, name, snap, mark, capacity, pool);
            aggregate = aggregate.min(app.score);
            apps.push(app);
        }
        HealthReport { apps, aggregate }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::ExecutorConfig;
    use crate::testbed;
    use eml_core::requirements::Requirements;
    use eml_platform::units::TimeSpan;
    use std::time::Duration;

    const TIMEOUT: Duration = Duration::from_secs(20);

    fn snap() -> AppStatsSnapshot {
        // A clean snapshot; tests override specific fields.
        AppStatsSnapshot {
            completed: 0,
            rejected: 0,
            errors: 0,
            shed: 0,
            storm_injected: 0,
            missed: 0,
            queue_depth: 0,
            max_queue_depth: 0,
            in_flight: 0,
            batches: 0,
            batched_samples: 0,
            p50: None,
            p99: None,
            window_len: 0,
            window_outcomes: 0,
            window_miss_rate: 0.0,
            knob_errors: 0,
            knob_rejected: 0,
            knob_faulted: 0,
            last_knob_error: None,
            restarts: 0,
            stalls: 0,
            out_of_order: 0,
            level: 0,
            precision: eml_nn::Precision::F32,
            band_cap: 0,
            admitted: true,
        }
    }

    fn sample() -> Vec<f32> {
        vec![0.2; 3 * 8 * 8]
    }

    fn register(exec: &Executor, name: &str, deadline_ms: f64) {
        exec.register_dnn(
            name,
            testbed::tiny_dnn(1),
            &Requirements::new().with_max_latency(TimeSpan::from_millis(deadline_ms)),
        )
        .unwrap();
    }

    /// Holds `n` requests past `app`'s 10 ms deadline: each is shed at
    /// dequeue.
    fn shed(exec: &Executor, app: &str, n: usize) {
        exec.pause(app).unwrap();
        let doomed: Vec<crate::Ticket> = (0..n)
            .map(|_| exec.submit(app, &sample()).unwrap())
            .collect();
        std::thread::sleep(Duration::from_millis(40));
        exec.resume(app).unwrap();
        for t in &doomed {
            assert!(t.wait_timeout(TIMEOUT).is_err());
        }
        exec.drain_app(app).unwrap();
    }

    #[test]
    fn score_is_perfect_when_clean() {
        let cfg = HealthConfig::default();
        let s = score(&cfg, &snap(), 64, 0.0, &FreshEvents::default());
        assert!((s - 100.0).abs() < f32::EPSILON);
    }

    #[test]
    fn miss_rate_is_gated_on_outcomes_and_scales() {
        let cfg = HealthConfig::default();
        let mut s = snap();
        s.window_miss_rate = 1.0;
        s.window_outcomes = cfg.min_outcomes - 1;
        assert!(
            (score(&cfg, &s, 64, 0.0, &FreshEvents::default()) - 100.0).abs() < f32::EPSILON,
            "too few outcomes: not evidence"
        );
        s.window_outcomes = cfg.min_outcomes;
        let full = score(&cfg, &s, 64, 0.0, &FreshEvents::default());
        assert!((full - (100.0 - cfg.w_miss)).abs() < 1e-4);
        s.window_miss_rate = 0.5;
        let half = score(&cfg, &s, 64, 0.0, &FreshEvents::default());
        assert!((half - (100.0 - cfg.w_miss * 0.5)).abs() < 1e-4);
    }

    #[test]
    fn queue_and_fresh_events_penalise_and_clamp() {
        let cfg = HealthConfig::default();
        let mut s = snap();
        s.queue_depth = 32;
        let half_queue = score(&cfg, &s, 64, 0.0, &FreshEvents::default());
        assert!((half_queue - (100.0 - cfg.w_queue * 0.5)).abs() < 1e-4);
        // Every flat penalty at once, full queue and full misses: the
        // floor is 0, never negative.
        s.queue_depth = 64;
        s.window_miss_rate = 1.0;
        s.window_outcomes = cfg.min_outcomes;
        let fresh = FreshEvents {
            shed: 3,
            restarts: 1,
            stalls: 1,
            knob_faults: 2,
            ..FreshEvents::default()
        };
        assert_eq!(score(&cfg, &s, 64, 0.0, &fresh), 0.0);
        // Zero capacity: the queue term is skipped, not a divide-by-0.
        let clean = snap();
        assert!(
            (score(&cfg, &clean, 0, 0.0, &FreshEvents::default()) - 100.0).abs() < f32::EPSILON
        );
    }

    #[test]
    fn pool_pressure_penalises_every_tenant_and_clamps() {
        let cfg = HealthConfig::default();
        let clean = snap();
        // Half the pool backed up: half the pool weight, charged even
        // to a tenant whose own queue is empty.
        let s = score(&cfg, &clean, 64, 0.5, &FreshEvents::default());
        assert!((s - (100.0 - cfg.w_pool_queue * 0.5)).abs() < 1e-4);
        // Out-of-range pressure is clamped, not amplified.
        let over = score(&cfg, &clean, 64, 7.0, &FreshEvents::default());
        assert!((over - (100.0 - cfg.w_pool_queue)).abs() < 1e-4);
        let under = score(&cfg, &clean, 64, -1.0, &FreshEvents::default());
        assert!((under - 100.0).abs() < f32::EPSILON);
        // A zero weight opts the term out entirely.
        let quiet = HealthConfig {
            w_pool_queue: 0.0,
            ..HealthConfig::default()
        };
        let s = score(&quiet, &clean, 64, 1.0, &FreshEvents::default());
        assert!((s - 100.0).abs() < f32::EPSILON);
    }

    #[test]
    fn watermark_reports_only_fresh_events() {
        let mut s = snap();
        s.completed = 5;
        s.shed = 10;
        s.restarts = 2;
        let mut mark = EventWatermark::seeded(&s);
        assert_eq!(
            mark.advance(&s),
            (FreshEvents::default(), false),
            "history is calm"
        );
        s.shed = 12;
        s.stalls = 1;
        let (fresh, reborn) = mark.advance(&s);
        assert_eq!((fresh.shed, fresh.stalls, fresh.restarts), (2, 1, 0));
        assert!(!reborn);
        assert_eq!(mark.advance(&s).0, FreshEvents::default(), "consumed");
        // A counter below its mark (deregister + re-register under the
        // same name) starts a new lifetime: its own counters are fresh,
        // even those that did not fall.
        let mut reborn = snap();
        reborn.shed = 1;
        reborn.completed = 7;
        let (fresh, new_lifetime) = mark.advance(&reborn);
        assert!(new_lifetime);
        assert_eq!((fresh.shed, fresh.completed), (1, 7));
        // Counting from zero (the controller's first sight), the whole
        // history is fresh.
        let (fresh, new_lifetime) = EventWatermark::default().advance(&s);
        assert_eq!((fresh.completed, fresh.shed, new_lifetime), (5, 12, false));
    }

    #[test]
    fn monitor_scores_live_executor_sorted_and_prunes() {
        let exec = crate::Executor::new(ExecutorConfig::default());
        for name in ["zeta", "alpha", "mid"] {
            register(&exec, name, 50.0);
        }
        exec.register_rigid("render").unwrap();
        let mut mon = HealthMonitor::new(HealthConfig::default());
        let r = mon.observe(&exec);
        let order: Vec<&str> = r.apps.iter().map(|a| a.app.as_str()).collect();
        assert_eq!(order, ["alpha", "mid", "zeta"], "sorted, rigid skipped");
        assert!((r.aggregate - 100.0).abs() < f32::EPSILON);
        // Serve one request so the roster has activity, then churn.
        exec.submit("mid", &sample())
            .unwrap()
            .wait_timeout(TIMEOUT)
            .unwrap();
        exec.deregister_dnn("mid").unwrap();
        let r = mon.observe(&exec);
        let order: Vec<&str> = r.apps.iter().map(|a| a.app.as_str()).collect();
        assert_eq!(order, ["alpha", "zeta"], "departed apps leave the report");
        assert!(!mon.marks.contains_key("mid"), "watermark pruned");
        assert!(
            r.apps.iter().all(|a| a.snapshot.p99.is_none()),
            "median only"
        );
    }

    #[test]
    fn a_reborn_tenants_sheds_are_fresh_to_the_monitor() {
        let exec = crate::Executor::new(ExecutorConfig::default());
        register(&exec, "cam", 10.0);
        let mut mon = HealthMonitor::new(HealthConfig::default());
        mon.observe(&exec);
        shed(&exec, "cam", 3);
        assert_eq!(mon.observe(&exec).apps[0].fresh.shed, 3);
        // Deregistered and registered again between two observations:
        // the new lifetime's two sheds are below the old lifetime's
        // three, and still fresh.
        exec.deregister_dnn("cam").unwrap();
        register(&exec, "cam", 10.0);
        shed(&exec, "cam", 2);
        let r = mon.observe(&exec);
        assert_eq!(r.apps[0].fresh.shed, 2, "{:?}", r.apps[0]);
        assert!(r.aggregate <= 100.0 - HealthConfig::default().w_shed);
    }

    #[test]
    fn observe_charges_the_pool_stats_backlog_fraction() {
        let exec = crate::Executor::new(ExecutorConfig::default());
        for name in ["a", "b", "c"] {
            register(&exec, name, 500.0);
            exec.pause(name).unwrap();
        }
        let held: Vec<crate::Ticket> = ["a", "a", "a", "b"]
            .iter()
            .map(|app| exec.submit(app, &sample()).unwrap())
            .collect();
        // Only the pool term can move the score.
        let mut mon = HealthMonitor::new(HealthConfig {
            w_queue: 0.0,
            w_pool_queue: 100.0,
            ..HealthConfig::default()
        });
        let r = mon.observe(&exec);
        let p = exec.pool_stats();
        let expected = pool_pressure(p.queue_depth, p.queue_capacity, p.serving);
        assert_eq!((p.queue_depth, p.serving), (4, 3), "{p:?}");
        assert!((expected - 4.0 / (3 * p.queue_capacity) as f32).abs() < 1e-7);
        for app in &r.apps {
            assert!(
                (app.score - (100.0 - 100.0 * expected)).abs() < 1e-4,
                "{app:?}"
            );
        }
        for name in ["a", "b", "c"] {
            exec.resume(name).unwrap();
        }
        for t in &held {
            t.wait_timeout(TIMEOUT).unwrap();
        }
    }
}
