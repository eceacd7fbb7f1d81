//! Per-app health scoring.
//!
//! Every counter this module reads already exists in
//! [`AppStatsSnapshot`], so the serving path records nothing extra —
//! but *reading* them is not free, and the reader runs on the cores it
//! manages. One [`HealthMonitor::observe`] is one pass over the
//! roster: one registry lock to clone the roster's handles (not one
//! per tenant), and per tenant one ledger lock that copies the
//! counters out. The score reads no percentile, so the pass copies no
//! latency window and selects nothing (see [`crate::stats`]). The
//! rows, the per-app state and the report are the monitor's own,
//! refilled in place, so a warm observation allocates nothing. The
//! pool-wide backlog term is summed from those same snapshots, so no
//! second sweep locks the ledgers again. The cost is linear in the
//! tenant count. The score folds the counters into a single `0–100`
//! number per app:
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
//! and for [`crate::ServeController`]'s miss tracking alike. Each of
//! the three keeps its per-app state in one table indexed by
//! registration (`Lifetimes`), never by name: one registration is one
//! lifetime, whose counters never fall, and a re-registration under a
//! known name is a new lifetime with fresh state.
//!
//! [`HealthMonitor`] evaluates every registered DNN app (in sorted-name,
//! deterministic order — the order of [`crate::Executor::app_names`])
//! and takes the worst score as the executor's own.
//! [`crate::PressurePolicy`] consumes the same per-app score as its
//! single degrade/restore trigger instead of a bag of ad-hoc
//! thresholds.

use std::cmp::Ordering;
use std::sync::Arc;

use crate::executor::{AppId, AppRow, Executor, Reader};
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
}

/// A lifetime's cumulative counters at its previous observation: the
/// one place the control plane turns them into per-observation deltas.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct EventWatermark(pub(crate) FreshEvents);

impl EventWatermark {
    /// A watermark for a lifetime first read at `snap`: at zero when
    /// all of its history is fresh to the reader (its first
    /// [`EventWatermark::advance`] accounts everything it has done),
    /// else level with `snap` (only what happens after it is fresh).
    pub(crate) fn first(snap: &AppStatsSnapshot, history_is_fresh: bool) -> Self {
        match history_is_fresh {
            true => Self::default(),
            false => Self(FreshEvents::lifetime(snap)),
        }
    }

    /// Advances the watermark to `snap`, a later snapshot of the same
    /// lifetime (whose counters never fall; saturating, so a stale
    /// mark reads nothing rather than a wrapped count), returning the
    /// events since the previous level.
    pub(crate) fn advance(&mut self, snap: &AppStatsSnapshot) -> FreshEvents {
        let last = std::mem::replace(&mut self.0, FreshEvents::lifetime(snap));
        let now = self.0;
        FreshEvents {
            completed: now.completed.saturating_sub(last.completed),
            missed: now.missed.saturating_sub(last.missed),
            shed: now.shed.saturating_sub(last.shed),
            restarts: now.restarts.saturating_sub(last.restarts),
            stalls: now.stalls.saturating_sub(last.stalls),
            knob_faults: now.knob_faults.saturating_sub(last.knob_faults),
        }
    }
}

/// One control-plane reader's per-app state, indexed by registration
/// slot, each entry held by one lifetime (its generation) at a time.
/// A registration newer than the slot's holder replaces it with fresh
/// state, so nothing of a departed lifetime reaches a new one under
/// the same name, and the table never outgrows the executor's slots.
pub(crate) type Lifetimes<T> = Vec<Option<(u32, T)>>;

/// `id`'s state in `table`, begun by `fresh` when the slot held an
/// older lifetime or nothing; `None` for a departed registration whose
/// slot already holds a newer one (it has nothing left to report).
pub(crate) fn lifetime<T>(
    table: &mut Lifetimes<T>,
    id: AppId,
    fresh: impl FnOnce() -> T,
) -> Option<&mut T> {
    let slot = id.slot as usize;
    if slot >= table.len() {
        table.resize_with(slot + 1, || None);
    }
    let entry = &mut table[slot];
    match entry.as_ref().map(|(gen, _)| gen.cmp(&id.gen)) {
        Some(Ordering::Greater) => return None,
        Some(Ordering::Equal) => {}
        _ => *entry = Some((id.gen, fresh())),
    }
    entry.as_mut().map(|(_, state)| state)
}

/// The pool-wide backlog fraction in `0.0..=1.0`: requests queued
/// across `apps` serving tenants over their total queue capacity. With
/// no capacity nothing can be queued, and the fraction is 0.
pub(crate) fn pool_pressure(queued: usize, queue_capacity: usize, apps: usize) -> f32 {
    (queued as f32 / (queue_capacity * apps).max(1) as f32).min(1.0)
}

/// The health score of one snapshot: `100` minus the weighted
/// penalties, clamped to `[0, 100]`. The one scorer of the monitor and
/// the ladder.
///
/// `queue_capacity` is the executor's configured per-app bound (the
/// denominator of the queue-pressure term); `pool_pressure` is the
/// shared pool's aggregate backlog fraction ([`pool_pressure`]); `fresh`
/// is the event delta since the caller's previous observation.
pub(crate) fn score(
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
    let events = [
        (fresh.shed, cfg.w_shed),
        (fresh.restarts, cfg.w_restart),
        (fresh.stalls, cfg.w_stall),
        (fresh.knob_faults, cfg.w_knob_fault),
    ];
    for (_, w) in events.into_iter().filter(|&(n, _)| n > 0) {
        penalty += w;
    }
    (100.0 - penalty).clamp(0.0, 100.0)
}

/// One app's entry in a [`HealthReport`].
#[derive(Debug, Clone)]
pub struct AppHealth {
    /// Application name.
    pub app: Arc<str>,
    /// The `0–100` health score.
    pub score: f32,
    /// Event deltas since the previous report.
    pub fresh: FreshEvents,
    /// The snapshot the score was computed from. The score reads
    /// counters only, so the observation selects no percentile: `p50`
    /// and `p99` are `None` ([`crate::Executor::stats`] has both).
    pub snapshot: AppStatsSnapshot,
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
/// per app lifetime, so scores reflect *fresh* events. The first
/// observation that finds any app is the baseline: history that
/// predates the monitor is never fresh. A lifetime it meets later
/// began after the previous observation, so all of its history is.
/// One monitor per executor; observe at whatever cadence the caller's
/// control loop runs.
#[derive(Debug)]
pub struct HealthMonitor {
    cfg: HealthConfig,
    lifetimes: Lifetimes<EventWatermark>,
    /// The observation's bulk read, refilled in place.
    rows: Vec<AppRow>,
    report: HealthReport,
}

impl HealthMonitor {
    /// Creates a monitor with the given scoring weights.
    #[must_use]
    pub fn new(cfg: HealthConfig) -> Self {
        Self {
            cfg,
            lifetimes: Vec::new(),
            rows: Vec::new(),
            report: HealthReport {
                apps: Vec::new(),
                aggregate: 100.0,
            },
        }
    }

    /// Scores every registered DNN app and returns the report, which
    /// the next observation refills. Apps are visited in sorted-name
    /// order; rigid apps (no serving surface) and departed ones are
    /// skipped.
    pub fn observe(&mut self, exec: &Executor) -> &HealthReport {
        exec.dnn_snapshots(Reader::Health, &mut self.rows);
        let capacity = exec.config().queue_capacity;
        let queued = self.rows.iter().map(|(_, _, snap)| snap.queue_depth).sum();
        let pool = pool_pressure(queued, capacity, self.rows.len());
        let primed = !self.lifetimes.is_empty();
        let report = &mut self.report;
        report.apps.clear();
        report.aggregate = 100.0;
        for (id, name, snap) in self.rows.drain(..) {
            let first = || EventWatermark::first(&snap, primed);
            let Some(mark) = lifetime(&mut self.lifetimes, id, first) else {
                continue;
            };
            let fresh = mark.advance(&snap);
            let score = score(&self.cfg, &snap, capacity, pool, &fresh);
            report.aggregate = report.aggregate.min(score);
            report.apps.push(AppHealth {
                app: name,
                score,
                fresh,
                snapshot: snap,
            });
        }
        report
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
        let mut mark = EventWatermark::first(&s, false);
        assert_eq!(mark.advance(&s), FreshEvents::default(), "history is calm");
        s.shed = 12;
        s.stalls = 1;
        let fresh = mark.advance(&s);
        assert_eq!((fresh.shed, fresh.stalls, fresh.restarts), (2, 1, 0));
        assert_eq!(mark.advance(&s), FreshEvents::default(), "consumed");
        // Counting from zero (the controller's first sight), the whole
        // history is fresh.
        let fresh = EventWatermark::first(&s, true).advance(&s);
        assert_eq!((fresh.completed, fresh.shed), (5, 12));
    }

    #[test]
    fn lifetimes_hold_one_registration_per_slot() {
        let id = |slot, gen| AppId { slot, gen };
        let mut table = Lifetimes::new();
        *lifetime(&mut table, id(2, 0), || 10).unwrap() += 1;
        let same = lifetime(&mut table, id(2, 0), || 0);
        assert_eq!(same, Some(&mut 11), "same lifetime");
        assert_eq!(table, [None, None, Some((0, 11))]);
        // A newer generation in the slot is a new lifetime: fresh state.
        assert_eq!(lifetime(&mut table, id(2, 1), || 20), Some(&mut 20));
        // The departed one has nothing left to report, and takes
        // nothing from its successor.
        assert_eq!(lifetime(&mut table, id(2, 0), || 30), None);
        assert_eq!(table, [None, None, Some((1, 20))]);
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
        let order: Vec<&str> = r.apps.iter().map(|a| &*a.app).collect();
        assert_eq!(order, ["alpha", "mid", "zeta"], "sorted, rigid skipped");
        assert!((r.aggregate - 100.0).abs() < f32::EPSILON);
        // Serve one request each so the windows are not empty, then
        // churn.
        for name in ["alpha", "mid"] {
            exec.submit(name, &sample())
                .unwrap()
                .wait_timeout(TIMEOUT)
                .unwrap();
        }
        exec.deregister_dnn("mid").unwrap();
        let r = mon.observe(&exec);
        let order: Vec<&str> = r.apps.iter().map(|a| &*a.app).collect();
        assert_eq!(order, ["alpha", "zeta"], "departed apps leave the report");
        assert!(
            r.apps
                .iter()
                .all(|a| a.snapshot.p50.is_none() && a.snapshot.p99.is_none()),
            "no percentile"
        );
        assert_eq!(r.apps[0].snapshot.window_len, 1, "{:?}", r.apps[0]);
        // Churn reuses the departed app's slot: the state stays as
        // large as the roster ever was.
        for name in ["mid", "late"] {
            register(&exec, name, 50.0);
            assert_eq!(mon.observe(&exec).apps.len(), 3);
            exec.deregister_dnn(name).unwrap();
        }
        assert_eq!(mon.lifetimes.len(), 3);
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
    fn a_reborn_tenant_that_out_counts_its_old_lifetime_is_read_afresh() {
        let exec = crate::Executor::new(ExecutorConfig::default());
        register(&exec, "cam", 10.0);
        let mut mon = HealthMonitor::new(HealthConfig::default());
        mon.observe(&exec);
        shed(&exec, "cam", 2);
        assert_eq!(mon.observe(&exec).apps[0].fresh.shed, 2);
        // Deregistered and registered again between two observations:
        // the new lifetime sheds more than the old one did, and every
        // one of its sheds is fresh.
        exec.deregister_dnn("cam").unwrap();
        register(&exec, "cam", 10.0);
        shed(&exec, "cam", 3);
        let r = mon.observe(&exec);
        assert_eq!(r.apps[0].fresh.shed, 3, "{:?}", r.apps[0]);
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
