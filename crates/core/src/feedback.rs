//! Monitor-driven model adaptation — closing the Fig 5 loop.
//!
//! The RTM decides from *predicted* metrics; the application monitors
//! report *observed* ones. On a real device the two drift apart (cache
//! contention, memory pressure, thermal leakage). The paper's conclusion
//! calls for "runtime resource allocation **and adaptation**": this module
//! provides the adaptation half, a per-cluster multiplicative latency
//! correction learned from monitor readings with an exponentially weighted
//! moving average.
//!
//! Usage: after each inference, feed `(cluster, predicted, observed)` into
//! [`LatencyFeedback::observe`]; before each decision, apply
//! [`LatencyFeedback::apply`] to the [`OpSpaceConfig`] so the governor
//! reasons about corrected latencies.

use std::collections::HashMap;

use eml_platform::soc::ClusterId;
use eml_platform::units::TimeSpan;

use crate::opspace::OpSpaceConfig;

/// Per-cluster multiplicative latency correction with EWMA updates.
///
/// A correction of `1.0` means the model is trusted as-is; `1.3` means the
/// cluster has been observed running 30 % slower than predicted.
#[derive(Debug, Clone)]
pub struct LatencyFeedback {
    alpha: f64,
    corrections: HashMap<usize, f64>,
}

impl LatencyFeedback {
    /// Creates a feedback tracker with EWMA rate `alpha ∈ (0, 1]`
    /// (1 = trust only the latest observation).
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `(0, 1]` — a configuration bug.
    pub fn new(alpha: f64) -> Self {
        assert!(
            alpha > 0.0 && alpha <= 1.0,
            "EWMA rate must be in (0, 1], got {alpha}"
        );
        Self {
            alpha,
            corrections: HashMap::new(),
        }
    }

    /// The current correction for `cluster` (1.0 when nothing observed).
    pub fn correction(&self, cluster: ClusterId) -> f64 {
        self.corrections
            .get(&cluster.index())
            .copied()
            .unwrap_or(1.0)
    }

    /// Incorporates one observation: the job on `cluster` was predicted to
    /// take `predicted` but took `observed`.
    ///
    /// Non-positive or non-finite inputs are ignored (a glitched monitor
    /// must not poison the model).
    pub fn observe(&mut self, cluster: ClusterId, predicted: TimeSpan, observed: TimeSpan) {
        let p = predicted.as_secs();
        let o = observed.as_secs();
        if p <= 0.0 || o <= 0.0 || !p.is_finite() || !o.is_finite() {
            return;
        }
        let ratio = o / p;
        let entry = self.corrections.entry(cluster.index()).or_insert(1.0);
        *entry = (1.0 - self.alpha) * *entry + self.alpha * ratio;
    }

    /// Number of clusters with learned corrections.
    pub fn observed_clusters(&self) -> usize {
        self.corrections.len()
    }

    /// Applies the learned corrections to an [`OpSpaceConfig`] as
    /// latency multipliers, returning the corrected config.
    ///
    /// Corrections compose multiplicatively with any sharing penalty
    /// already present.
    #[must_use]
    pub fn apply(&self, mut cfg: OpSpaceConfig) -> OpSpaceConfig {
        for (&idx, &corr) in &self.corrections {
            let existing = cfg.latency_corrections.get(&idx).copied().unwrap_or(1.0);
            cfg.latency_corrections.insert(idx, existing * corr);
        }
        cfg
    }

    /// Forgets everything (e.g. after a DVFS-table change).
    pub fn reset(&mut self) {
        self.corrections.clear();
    }
}

/// Sustained deadline-miss detection over a sliding window of request
/// outcomes — the trigger side of the serving feedback loop.
///
/// A single missed deadline is noise (a cold cache, a scheduler blip);
/// re-allocating on every miss would thrash the knobs. The tracker
/// records per-request met/missed outcomes and reports a *sustained*
/// miss only once the window is full and the miss rate crosses the
/// threshold — at which point the caller re-invokes the RTM (typically
/// via [`crate::rtm::Rtm::allocate_with_feedback`]) and
/// [resets](MissTracker::reset) the tracker so the new operating point
/// gets a fresh window.
#[derive(Debug, Clone)]
pub struct MissTracker {
    window: usize,
    threshold: f64,
    recent: std::collections::VecDeque<bool>,
    misses: usize,
}

impl MissTracker {
    /// Creates a tracker that reports a sustained miss when at least
    /// `threshold` (fraction in `(0, 1]`) of the last `window`
    /// outcomes missed their deadline.
    ///
    /// # Panics
    ///
    /// Panics on `window == 0` or a threshold outside `(0, 1]` — both
    /// configuration bugs.
    pub fn new(window: usize, threshold: f64) -> Self {
        assert!(window > 0, "miss window must be positive");
        assert!(
            threshold > 0.0 && threshold <= 1.0,
            "miss threshold must be in (0, 1], got {threshold}"
        );
        Self {
            window,
            threshold,
            recent: std::collections::VecDeque::with_capacity(window),
            misses: 0,
        }
    }

    /// Records one request outcome (`met = true` when the deadline held).
    pub fn record(&mut self, met: bool) {
        if self.recent.len() == self.window && self.recent.pop_front() == Some(false) {
            self.misses -= 1;
        }
        self.recent.push_back(met);
        if !met {
            self.misses += 1;
        }
    }

    /// Miss fraction over the current window contents (0.0 when empty).
    fn miss_rate(&self) -> f64 {
        if self.recent.is_empty() {
            0.0
        } else {
            self.misses as f64 / self.recent.len() as f64
        }
    }

    /// Number of outcomes currently in the window.
    pub fn observed(&self) -> usize {
        self.recent.len()
    }

    /// Whether the window is full and the miss rate is at/above the
    /// threshold — the re-allocation trigger.
    pub fn sustained_miss(&self) -> bool {
        self.recent.len() == self.window && self.miss_rate() >= self.threshold
    }

    /// Whether the window is full and *every* outcome in it met its
    /// deadline — the hysteresis gate a recovery path uses before
    /// undoing a degradation step (a full clean window, not merely a
    /// below-threshold rate, so knobs don't flap).
    pub fn all_met(&self) -> bool {
        self.recent.len() == self.window && self.misses == 0
    }

    /// Clears the window (call after acting on a sustained miss, so the
    /// new operating point is judged on its own outcomes).
    pub fn reset(&mut self) {
        self.recent.clear();
        self.misses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::governor::{ExhaustiveGovernor, Governor};
    use crate::objective::Objective;
    use crate::opspace::OpSpace;
    use crate::requirements::Requirements;
    use eml_dnn::profile::DnnProfile;
    use eml_platform::presets;

    fn ms(v: f64) -> TimeSpan {
        TimeSpan::from_millis(v)
    }

    #[test]
    fn starts_neutral_and_learns_ratio() {
        let c0 = ClusterId::from_index(0);
        let mut fb = LatencyFeedback::new(1.0);
        assert_eq!(fb.correction(c0), 1.0);
        fb.observe(c0, ms(100.0), ms(130.0));
        assert!((fb.correction(c0) - 1.3).abs() < 1e-12);
        assert_eq!(fb.observed_clusters(), 1);
        fb.reset();
        assert_eq!(fb.correction(c0), 1.0);
    }

    #[test]
    fn ewma_smooths_observations() {
        let c0 = ClusterId::from_index(0);
        let mut fb = LatencyFeedback::new(0.5);
        fb.observe(c0, ms(100.0), ms(200.0)); // ratio 2.0 -> 1.5
        assert!((fb.correction(c0) - 1.5).abs() < 1e-12);
        fb.observe(c0, ms(100.0), ms(200.0)); // -> 1.75
        assert!((fb.correction(c0) - 1.75).abs() < 1e-12);
        // Converges toward 2.0, never overshoots.
        for _ in 0..50 {
            fb.observe(c0, ms(100.0), ms(200.0));
        }
        assert!((fb.correction(c0) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn glitched_monitors_are_ignored() {
        let c0 = ClusterId::from_index(0);
        let mut fb = LatencyFeedback::new(1.0);
        fb.observe(c0, ms(0.0), ms(100.0));
        fb.observe(c0, ms(100.0), ms(-5.0));
        fb.observe(c0, ms(f64::NAN), ms(100.0));
        assert_eq!(fb.correction(c0), 1.0);
        assert_eq!(fb.observed_clusters(), 0);
    }

    #[test]
    #[should_panic(expected = "EWMA rate")]
    fn invalid_alpha_panics() {
        let _ = LatencyFeedback::new(0.0);
    }

    #[test]
    fn miss_tracker_fires_only_on_sustained_misses() {
        let mut t = MissTracker::new(4, 0.5);
        assert!(!t.sustained_miss(), "empty window never fires");
        t.record(false);
        t.record(false);
        t.record(false);
        assert!(
            !t.sustained_miss(),
            "a part-filled window never fires, whatever its rate"
        );
        t.record(true);
        assert!((t.miss_rate() - 0.75).abs() < 1e-12);
        assert!(t.sustained_miss(), "3/4 misses over a full window fires");
        // The window slides: two more mets leave one miss in view.
        t.record(true);
        t.record(true);
        assert!((t.miss_rate() - 0.25).abs() < 1e-12);
        assert!(!t.sustained_miss());
        t.reset();
        assert_eq!(t.observed(), 0);
        assert!(!t.sustained_miss());
    }

    #[test]
    #[should_panic(expected = "miss threshold")]
    fn miss_tracker_rejects_bad_threshold() {
        let _ = MissTracker::new(4, 0.0);
    }

    #[test]
    fn all_met_needs_a_full_clean_window() {
        let mut t = MissTracker::new(3, 0.5);
        t.record(true);
        t.record(true);
        assert!(!t.all_met(), "a part-filled window is not proof of health");
        t.record(true);
        assert!(t.all_met());
        t.record(false);
        assert!(!t.all_met(), "one miss in view blocks recovery");
        // The miss must slide fully out of the window again.
        t.record(true);
        t.record(true);
        assert!(!t.all_met());
        t.record(true);
        assert!(t.all_met());
    }

    #[test]
    fn allocate_with_feedback_degrades_the_placed_point() {
        use crate::rtm::{AppSpec, DnnAppSpec, Rtm, RtmConfig};
        // A correction that makes every cluster 40% slower must push the
        // allocator to a lower width (or different point) than the
        // uncorrected model picks, for a budget near the feasibility
        // boundary of the uncorrected model.
        let soc = presets::odroid_xu3();
        let app = |req: Requirements| {
            AppSpec::Dnn(DnnAppSpec {
                name: "dnn".into(),
                profile: DnnProfile::reference("dnn"),
                requirements: req,
                priority: 1,
                objective: None,
            })
        };
        let rtm = Rtm::new(RtmConfig::default());
        let req = Requirements::new().with_max_latency(ms(70.0));
        let plain = rtm.allocate(&soc, &[app(req.clone())]).unwrap();
        let d_plain = plain.dnn("dnn").unwrap();
        assert!(d_plain.violations.is_empty(), "{plain}");

        let mut fb = LatencyFeedback::new(1.0);
        for id in soc.cluster_ids() {
            fb.observe(id, ms(100.0), ms(140.0));
        }
        let corrected = rtm
            .allocate_with_feedback(&soc, &[app(req)], Some(&fb))
            .unwrap();
        let d_corr = corrected.dnn("dnn").unwrap();
        // Corrected latency prediction reflects the 1.4x slowdown…
        assert!(
            d_corr.point.latency > d_plain.point.latency * 1.0001
                || d_corr.point.op != d_plain.point.op,
            "correction must be visible in the decision:\n{plain}\nvs\n{corrected}"
        );
        // …and an empty feedback reduces to the uncorrected allocation.
        let neutral = rtm
            .allocate_with_feedback(
                &soc,
                &[app(Requirements::new().with_max_latency(ms(70.0)))],
                Some(&LatencyFeedback::new(1.0)),
            )
            .unwrap();
        assert_eq!(neutral.dnn("dnn").unwrap().point.op, d_plain.point.op);
    }

    /// The Fig 5 loop end-to-end: a cluster that runs 40 % slower than
    /// modelled first produces an over-budget decision; after the monitor
    /// feedback, the governor picks a configuration that meets the budget
    /// *under the real behaviour*.
    #[test]
    fn feedback_repairs_model_error() {
        let soc = presets::odroid_xu3();
        let profile = DnnProfile::reference("dnn");
        let a15 = soc.find_cluster("a15").unwrap();
        let real_slowdown = 1.4; // ground truth unknown to the model

        let req = Requirements::new().with_max_latency(ms(200.0));
        let base_cfg = OpSpaceConfig::default().with_clusters(vec![a15]);

        // 1. Uncorrected decision.
        let space = OpSpace::new(&soc, &profile, base_cfg.clone()).unwrap();
        let naive = ExhaustiveGovernor
            .decide(&space, &req, Objective::default())
            .unwrap()
            .expect("feasible in the model's belief");
        let naive_observed = naive.latency * real_slowdown;
        assert!(
            naive_observed.as_millis() > 200.0,
            "the naive decision must violate in reality ({naive_observed})"
        );

        // 2. The monitor reports the miss; feedback learns the correction.
        let mut fb = LatencyFeedback::new(1.0);
        fb.observe(a15, naive.latency, naive_observed);

        // 3. Corrected decision meets the budget in reality.
        let corrected_space = OpSpace::new(&soc, &profile, fb.apply(base_cfg)).unwrap();
        let adapted = ExhaustiveGovernor
            .decide(&corrected_space, &req, Objective::default())
            .unwrap()
            .expect("still feasible after correction");
        // The corrected prediction already includes the slowdown, so the
        // real latency equals the prediction.
        assert!(
            adapted.latency.as_millis() <= 200.0 + 1e-9,
            "adapted decision must be really feasible ({})",
            adapted.latency
        );
        assert!(
            adapted.op.level < naive.op.level || adapted.op.opp_index > naive.op.opp_index,
            "adaptation must pick a narrower width or higher frequency"
        );
    }
}
