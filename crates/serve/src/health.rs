//! Per-app health scoring and executor-wide health telemetry.
//!
//! Every counter this module reads already exists in
//! [`AppStatsSnapshot`], so the serving path records nothing extra —
//! but *reading* them is not free, and the reader runs on the cores it
//! manages. One [`HealthMonitor::observe`] costs: one registry lock for
//! the whole roster (not one per tenant), per tenant one ledger lock
//! plus an O(window) percentile selection after releasing it (see
//! [`crate::stats`]), and no allocation beyond the report itself and
//! one percentile scratch shared by every tenant. That is linear in
//! the tenant count with a ~2 µs constant at the default 256-sample
//! window; [`crate::Executor::pool_pressure`] (every tenant's ledger
//! lock under the scheduler lock) is read once per observation. The
//! score folds the counters into a single `0–100` number per app:
//!
//! - **windowed miss rate** (gated on enough outcomes to be evidence),
//! - **queue pressure** (depth as a fraction of capacity),
//! - **fresh events** since the previous observation — deadline sheds,
//!   supervised restarts, stall confiscations, injected knob faults —
//!   each a flat penalty while it keeps happening, silent once it
//!   stops.
//!
//! Cumulative counters are deliberately *not* scored directly: an app
//! that shed a thousand requests last week but is clean now is
//! healthy. [`EventWatermark`] turns the cumulative counters into
//! fresh deltas, so the score describes the *present*.
//!
//! [`HealthMonitor`] evaluates every registered DNN app (in sorted-name,
//! deterministic order — the order of [`crate::Executor::app_names`]),
//! aggregates the worst score as the executor's own, smooths the
//! aggregate with an [`eml_core::feedback::Ewma`], and renders the
//! whole report as JSON ([`HealthReport::to_json`], hand-rolled — this
//! workspace is offline, no serde) for offline policy and dashboards.
//! [`crate::PressurePolicy`] consumes the same score as its single
//! degrade/restore trigger instead of a bag of ad-hoc thresholds.

use std::collections::HashMap;

use eml_core::feedback::Ewma;

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
    /// [`crate::Executor::pool_pressure`] into every app's score. Set
    /// it to `0.0` in deterministic soaks: pool depth is timing
    /// dependent.
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

/// Coarse health classification of a score.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HealthBand {
    /// Score ≥ 80: serving cleanly.
    Healthy,
    /// Score in `[50, 80)`: under pressure, worth watching.
    Degraded,
    /// Score < 50: actively failing its tenants.
    Critical,
}

impl HealthBand {
    /// The band a score falls in.
    #[must_use]
    pub fn of(score: f32) -> Self {
        if score >= 80.0 {
            Self::Healthy
        } else if score >= 50.0 {
            Self::Degraded
        } else {
            Self::Critical
        }
    }

    /// Stable lowercase name (used in the JSON export).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Healthy => "healthy",
            Self::Degraded => "degraded",
            Self::Critical => "critical",
        }
    }
}

/// Events that occurred since the previous observation of an app —
/// the deltas an [`EventWatermark`] extracts from the cumulative
/// counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FreshEvents {
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
    /// Whether anything at all happened since the last observation.
    #[must_use]
    pub fn any(&self) -> bool {
        self.shed + self.restarts + self.stalls + self.knob_faults > 0
    }
}

/// Watermarks over an app's cumulative event counters, turning them
/// into per-observation deltas. Seeded at attach time so history that
/// predates the observer never counts as fresh.
#[derive(Debug, Clone, Copy)]
pub struct EventWatermark {
    shed: u64,
    restarts: u64,
    stalls: u64,
    knob_faulted: u64,
}

impl EventWatermark {
    /// A watermark level with `snap`: the next [`EventWatermark::advance`]
    /// reports only events that happen *after* this snapshot.
    #[must_use]
    pub fn seeded(snap: &AppStatsSnapshot) -> Self {
        Self {
            shed: snap.shed,
            restarts: snap.restarts,
            stalls: snap.stalls,
            knob_faulted: snap.knob_faulted,
        }
    }

    /// Advances the watermark to `snap`, returning the deltas since the
    /// previous level. Counters are monotonic; `saturating_sub` guards
    /// the one legitimate reset (a name deregistered and re-registered
    /// between observations reads as nothing fresh, not an underflow).
    pub fn advance(&mut self, snap: &AppStatsSnapshot) -> FreshEvents {
        let fresh = FreshEvents {
            shed: snap.shed.saturating_sub(self.shed),
            restarts: snap.restarts.saturating_sub(self.restarts),
            stalls: snap.stalls.saturating_sub(self.stalls),
            knob_faults: snap.knob_faulted.saturating_sub(self.knob_faulted),
        };
        *self = Self::seeded(snap);
        fresh
    }
}

/// The health score of one snapshot: `100` minus the weighted
/// penalties, clamped to `[0, 100]`.
///
/// `queue_capacity` is the executor's configured per-app bound (the
/// denominator of the queue-pressure term); `pool_pressure` is the
/// shared pool's aggregate backlog fraction
/// ([`crate::Executor::pool_pressure`], `0.0` to opt out); `fresh` is
/// the event delta since the caller's previous observation (see
/// [`EventWatermark`]).
#[must_use]
pub fn score(
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
    /// The score's coarse band.
    pub band: HealthBand,
    /// Event deltas since the previous report.
    pub fresh: FreshEvents,
    /// The snapshot the score was computed from.
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
    /// The aggregate's band.
    pub band: HealthBand,
    /// EWMA-smoothed aggregate across reports (equals `aggregate` on
    /// the first).
    pub smoothed: f32,
}

impl HealthReport {
    /// Renders the report as a JSON object (stable key order, fixed
    /// one-decimal score formatting — reports from identical runs are
    /// byte-identical).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(128 + self.apps.len() * 256);
        out.push_str(&format!(
            "{{\"aggregate\":{:.1},\"band\":\"{}\",\"smoothed\":{:.1},\"apps\":[",
            self.aggregate,
            self.band.name(),
            self.smoothed
        ));
        for (i, a) in self.apps.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let s = &a.snapshot;
            out.push_str(&format!(
                "{{\"app\":\"{}\",\"score\":{:.1},\"band\":\"{}\",\
                 \"miss_rate\":{:.4},\"window_outcomes\":{},\
                 \"queue_depth\":{},\"completed\":{},\"errors\":{},\
                 \"rejected\":{},\"shed\":{},\"restarts\":{},\"stalls\":{},\
                 \"fresh\":{{\"shed\":{},\"restarts\":{},\"stalls\":{},\
                 \"knob_faults\":{}}}}}",
                escape_json(&a.app),
                a.score,
                a.band.name(),
                s.window_miss_rate,
                s.window_outcomes,
                s.queue_depth,
                s.completed,
                s.errors,
                s.rejected,
                s.shed,
                s.restarts,
                s.stalls,
                a.fresh.shed,
                a.fresh.restarts,
                a.fresh.stalls,
                a.fresh.knob_faults,
            ));
        }
        out.push_str("]}");
        out
    }
}

/// Escapes a string for embedding in a JSON string literal.
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The executor-wide health observer. Stateful: it keeps per-app
/// [`EventWatermark`]s (so scores reflect *fresh* events) and the
/// aggregate smoother. One monitor per executor; observe at whatever
/// cadence the caller's control loop runs.
#[derive(Debug)]
pub struct HealthMonitor {
    cfg: HealthConfig,
    marks: HashMap<String, EventWatermark>,
    trend: Ewma,
}

impl HealthMonitor {
    /// Creates a monitor with the given scoring weights.
    #[must_use]
    pub fn new(cfg: HealthConfig) -> Self {
        Self {
            cfg,
            marks: HashMap::new(),
            // Health is a trend signal: damp single-tick blips but
            // follow a real decline within a few observations.
            trend: Ewma::new(0.4),
        }
    }

    /// The scoring weights.
    pub fn config(&self) -> &HealthConfig {
        &self.cfg
    }

    /// Scores every registered DNN app and returns the report. Apps are
    /// visited in sorted-name order; rigid apps (no serving surface)
    /// are skipped; watermarks of apps that have departed the roster
    /// are pruned.
    pub fn observe(&mut self, exec: &Executor) -> HealthReport {
        let roster = exec.dnn_snapshots(false, true);
        self.marks
            .retain(|n, _| snapshot_named(&roster, n).is_some());
        let capacity = exec.config().queue_capacity;
        let pool_pressure = exec.pool_pressure();
        let mut apps = Vec::with_capacity(roster.len());
        let mut aggregate = 100.0f32;
        for (name, snap) in roster {
            let fresh = match self.marks.get_mut(&name) {
                Some(mark) => mark.advance(&snap),
                None => {
                    // Seeded level with `snap`: nothing is fresh yet.
                    self.marks
                        .insert(name.clone(), EventWatermark::seeded(&snap));
                    FreshEvents::default()
                }
            };
            let s = score(&self.cfg, &snap, capacity, pool_pressure, &fresh);
            aggregate = aggregate.min(s);
            apps.push(AppHealth {
                app: name,
                score: s,
                band: HealthBand::of(s),
                fresh,
                snapshot: snap,
            });
        }
        let smoothed = self.trend.observe(f64::from(aggregate)) as f32;
        HealthReport {
            apps,
            aggregate,
            band: HealthBand::of(aggregate),
            smoothed,
        }
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
            predicted: None,
            cluster: None,
            band_cap: 0,
            admitted: true,
        }
    }

    #[test]
    fn score_is_perfect_when_clean_and_banded() {
        let cfg = HealthConfig::default();
        let s = score(&cfg, &snap(), 64, 0.0, &FreshEvents::default());
        assert!((s - 100.0).abs() < f32::EPSILON);
        assert_eq!(HealthBand::of(s), HealthBand::Healthy);
        assert_eq!(HealthBand::of(79.9), HealthBand::Degraded);
        assert_eq!(HealthBand::of(49.9), HealthBand::Critical);
        assert_eq!(HealthBand::of(0.0), HealthBand::Critical);
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
        };
        assert!(fresh.any());
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
        s.shed = 10;
        s.restarts = 2;
        let mut mark = EventWatermark::seeded(&s);
        assert_eq!(mark.advance(&s), FreshEvents::default(), "history is calm");
        s.shed = 12;
        s.stalls = 1;
        let fresh = mark.advance(&s);
        assert_eq!((fresh.shed, fresh.stalls, fresh.restarts), (2, 1, 0));
        assert_eq!(mark.advance(&s), FreshEvents::default(), "consumed");
        // A counter reset (deregister + re-register under the same
        // name) reads as nothing fresh, not an underflow.
        let reborn = snap();
        assert_eq!(mark.advance(&reborn), FreshEvents::default());
    }

    #[test]
    fn monitor_scores_live_executor_sorted_and_prunes() {
        let exec = crate::Executor::new(ExecutorConfig::default());
        for name in ["zeta", "alpha", "mid"] {
            exec.register_dnn(
                name,
                testbed::tiny_dnn(1),
                &Requirements::new().with_max_latency(TimeSpan::from_millis(50.0)),
            )
            .unwrap();
        }
        exec.register_rigid("render").unwrap();
        let mut mon = HealthMonitor::new(HealthConfig::default());
        let r = mon.observe(&exec);
        let order: Vec<&str> = r.apps.iter().map(|a| a.app.as_str()).collect();
        assert_eq!(order, ["alpha", "mid", "zeta"], "sorted, rigid skipped");
        assert!((r.aggregate - 100.0).abs() < f32::EPSILON);
        assert_eq!(r.band, HealthBand::Healthy);
        assert!((r.smoothed - r.aggregate).abs() < f32::EPSILON, "seeded");
        // Serve one request so the roster has activity, then churn.
        exec.submit("mid", &vec![0.2; 3 * 8 * 8])
            .unwrap()
            .wait_timeout(TIMEOUT)
            .unwrap();
        exec.deregister_dnn("mid").unwrap();
        let r = mon.observe(&exec);
        let order: Vec<&str> = r.apps.iter().map(|a| a.app.as_str()).collect();
        assert_eq!(order, ["alpha", "zeta"], "departed apps leave the report");
        assert!(!mon.marks.contains_key("mid"), "watermark pruned");
        let json = r.to_json();
        assert!(json.starts_with("{\"aggregate\":100.0,"), "{json}");
        assert!(json.contains("\"app\":\"alpha\""));
        assert!(!json.contains("\"app\":\"mid\""));
        // Two observations of the same state render identically.
        assert_eq!(json, mon.observe(&exec).to_json());
    }

    #[test]
    fn json_escapes_hostile_names() {
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
    }
}
