//! The operating-point space: every selectable combination of device knobs
//! (task mapping, core count, DVFS level) and application knobs (dynamic-DNN
//! width level), with predicted metrics.
//!
//! This is the "E, P, t, accuracy space" of the paper's §IV/§V: task
//! mapping, DVFS and the dynamic DNN are "three adjustable knobs which can
//! be adjusted to meet dynamic E, P, t and accuracy budgets/targets at
//! runtime".

use std::collections::HashMap;
use std::fmt;

use eml_dnn::profile::DnnProfile;
use eml_dnn::WidthLevel;
use eml_platform::soc::{ClusterId, Placement, Soc};
use eml_platform::units::{Energy, Power, TimeSpan};

use crate::error::{Result, RtmError};

/// One selectable configuration: where, how fast, and how wide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OperatingPoint {
    /// Target cluster (task-mapping knob).
    pub cluster: ClusterId,
    /// Cores used on that cluster (task-mapping knob).
    pub cores: u32,
    /// DVFS level: index into the cluster's OPP table.
    pub opp_index: usize,
    /// Dynamic-DNN width level (application knob).
    pub level: WidthLevel,
}

/// An operating point with its predicted metrics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvaluatedPoint {
    /// The configuration.
    pub op: OperatingPoint,
    /// Predicted inference latency.
    pub latency: TimeSpan,
    /// Predicted busy power.
    pub power: Power,
    /// Predicted energy per inference.
    pub energy: Energy,
    /// Expected top-1 accuracy in percent (platform-independent).
    pub top1_percent: f64,
}

impl EvaluatedPoint {
    /// Energy-delay product in J·s — a common combined metric.
    pub fn edp(&self) -> f64 {
        self.energy.as_joules() * self.latency.as_secs()
    }
}

impl fmt::Display for EvaluatedPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}@opp{} x{} {}: {:.1} ms, {:.1} mJ, {:.0} mW, {:.1}%",
            self.op.cluster,
            self.op.opp_index,
            self.op.cores,
            self.op.level,
            self.latency.as_millis(),
            self.energy.as_millijoules(),
            self.power.as_milliwatts(),
            self.top1_percent
        )
    }
}

/// Restrictions on the enumerated space.
///
/// Defaults enumerate whole-cluster placements on every cluster at every
/// OPP and width level — the space of the paper's Fig 4(a).
#[derive(Debug, Clone, Default)]
pub struct OpSpaceConfig {
    /// Restrict to these clusters (`None` = all).
    pub clusters: Option<Vec<ClusterId>>,
    /// Also enumerate partial core counts (1..n) on CPU clusters, not just
    /// whole clusters. Needed for the Fig 2 thermal-throttling step.
    pub partial_cores: bool,
    /// Per-cluster allowed OPP indices, e.g. when another application in
    /// the same frequency domain has pinned the frequency (paper §III-B).
    pub opp_restrictions: HashMap<usize, Vec<usize>>,
    /// Per-cluster latency multiplier from co-located applications
    /// time-sharing the resource (1.0 = exclusive).
    pub sharing_penalty: HashMap<usize, f64>,
    /// Per-cluster multiplicative latency corrections learned from
    /// monitors (see [`crate::feedback::LatencyFeedback`]). Unlike the
    /// sharing penalty these may be below 1.0 (a cluster observed running
    /// faster than modelled).
    pub latency_corrections: HashMap<usize, f64>,
}

impl OpSpaceConfig {
    /// Restricts enumeration to the given clusters.
    #[must_use]
    pub fn with_clusters(mut self, clusters: Vec<ClusterId>) -> Self {
        self.clusters = Some(clusters);
        self
    }

    /// Enables partial-core placements.
    #[must_use]
    pub fn with_partial_cores(mut self) -> Self {
        self.partial_cores = true;
        self
    }

    /// Restricts a cluster to the given OPP indices.
    #[must_use]
    pub fn with_opp_restriction(mut self, cluster: ClusterId, opps: Vec<usize>) -> Self {
        self.opp_restrictions.insert(cluster.index(), opps);
        self
    }

    /// Applies a latency multiplier for sharing `cluster` with other work.
    #[must_use]
    pub fn with_sharing_penalty(mut self, cluster: ClusterId, factor: f64) -> Self {
        self.sharing_penalty
            .insert(cluster.index(), factor.max(1.0));
        self
    }
}

/// The enumerable, on-demand-evaluable operating-point space for one
/// application (profile) on one SoC.
pub struct OpSpace<'a> {
    soc: &'a Soc,
    profile: &'a DnnProfile,
    cfg: OpSpaceConfig,
    points: Vec<OperatingPoint>,
}

impl fmt::Debug for OpSpace<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "OpSpace({} on {}, {} points)",
            self.profile.name(),
            self.soc.name(),
            self.points.len()
        )
    }
}

impl<'a> OpSpace<'a> {
    /// Enumerates the space.
    ///
    /// # Errors
    ///
    /// Returns [`RtmError::EmptySpace`] if the restrictions eliminate every
    /// point, and propagates platform errors for invalid cluster ids.
    pub fn new(soc: &'a Soc, profile: &'a DnnProfile, cfg: OpSpaceConfig) -> Result<Self> {
        let cluster_ids: Vec<ClusterId> = match &cfg.clusters {
            Some(ids) => ids.clone(),
            None => soc.cluster_ids().collect(),
        };
        let mut points = Vec::new();
        for &cid in &cluster_ids {
            let spec = soc.cluster(cid)?;
            let core_options: Vec<u32> = if cfg.partial_cores && spec.kind().is_cpu() {
                (1..=spec.cores()).collect()
            } else {
                vec![spec.cores()]
            };
            let opp_indices: Vec<usize> = match cfg.opp_restrictions.get(&cid.index()) {
                Some(allowed) => allowed
                    .iter()
                    .copied()
                    .filter(|&i| i < spec.opps().len())
                    .collect(),
                None => (0..spec.opps().len()).collect(),
            };
            for &cores in &core_options {
                for &opp in &opp_indices {
                    for (level, _) in profile.levels() {
                        points.push(OperatingPoint {
                            cluster: cid,
                            cores,
                            opp_index: opp,
                            level,
                        });
                    }
                }
            }
        }
        if points.is_empty() {
            return Err(RtmError::EmptySpace {
                reason: format!(
                    "no operating points for `{}` on `{}` under the given restrictions",
                    profile.name(),
                    soc.name()
                ),
            });
        }
        Ok(Self {
            soc,
            profile,
            cfg,
            points,
        })
    }

    /// The SoC this space is defined over.
    pub fn soc(&self) -> &Soc {
        self.soc
    }

    /// The application profile this space is defined for.
    pub fn profile(&self) -> &DnnProfile {
        self.profile
    }

    /// Number of operating points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the space is empty (never true for a constructed space).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Iterates over the raw operating points.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = OperatingPoint> + '_ {
        self.points.iter().copied()
    }

    /// Whether `op` is one of the enumerated points of this space.
    ///
    /// [`OpSpace::evaluate`] happily predicts arbitrary configurations;
    /// search policies use this to stay within the configured space (core
    /// counts, OPP restrictions).
    pub fn contains(&self, op: OperatingPoint) -> bool {
        self.points.contains(&op)
    }

    /// Predicts the metrics of one operating point.
    ///
    /// # Errors
    ///
    /// Propagates platform/profile errors (invalid cluster, OPP, cores or
    /// level).
    pub fn evaluate(&self, op: OperatingPoint) -> Result<EvaluatedPoint> {
        let workload = self.profile.workload(op.level)?;
        let prediction = self.soc.predict_at_opp(
            Placement::new(op.cluster, op.cores),
            op.opp_index,
            workload,
        )?;
        let share = self
            .cfg
            .sharing_penalty
            .get(&op.cluster.index())
            .copied()
            .unwrap_or(1.0);
        let correction = self
            .cfg
            .latency_corrections
            .get(&op.cluster.index())
            .copied()
            .unwrap_or(1.0);
        let latency = prediction.latency * (share * correction);
        // Under time-sharing the app still consumes its own energy; the
        // cluster's busy power is attributed to the co-runners in
        // proportion, so per-inference energy is unchanged to first order.
        Ok(EvaluatedPoint {
            op,
            latency,
            power: prediction.power,
            energy: prediction.energy,
            top1_percent: self.profile.top1(op.level)?,
        })
    }

    /// Evaluates every point in the space (the full Fig 4(a) sweep).
    ///
    /// # Errors
    ///
    /// Propagates the first evaluation error (none occur for points the
    /// space itself enumerated).
    pub fn evaluate_all(&self) -> Result<Vec<EvaluatedPoint>> {
        self.points.iter().map(|&op| self.evaluate(op)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eml_platform::presets;

    fn soc() -> Soc {
        presets::odroid_xu3()
    }

    #[test]
    fn full_space_size_matches_fig4a_dimensions() {
        let soc = soc();
        let profile = DnnProfile::reference("dnn");
        let cpu_ids = vec![
            soc.find_cluster("a15").unwrap(),
            soc.find_cluster("a7").unwrap(),
        ];
        let space = OpSpace::new(
            &soc,
            &profile,
            OpSpaceConfig::default().with_clusters(cpu_ids),
        )
        .unwrap();
        // (17 A15 + 12 A7 OPPs) × 4 width levels = 116 points.
        assert_eq!(space.len(), (17 + 12) * 4);
    }

    #[test]
    fn evaluate_reproduces_platform_prediction() {
        let soc = soc();
        let profile = DnnProfile::reference("dnn");
        let space = OpSpace::new(&soc, &profile, OpSpaceConfig::default()).unwrap();
        let a7 = soc.find_cluster("a7").unwrap();
        // A7, highest OPP (1.3 GHz), full width: Table I row 10.
        let op = OperatingPoint {
            cluster: a7,
            cores: 4,
            opp_index: 11,
            level: WidthLevel(3),
        };
        let pt = space.evaluate(op).unwrap();
        assert!((pt.latency.as_millis() - 280.0).abs() / 280.0 < 0.02);
        assert!((pt.power.as_milliwatts() - 329.0).abs() < 1.0);
        assert_eq!(pt.top1_percent, 71.2);
    }

    #[test]
    fn width_level_scales_latency_and_energy() {
        let soc = soc();
        let profile = DnnProfile::reference("dnn");
        let space = OpSpace::new(&soc, &profile, OpSpaceConfig::default()).unwrap();
        let a15 = soc.find_cluster("a15").unwrap();
        let mk = |level| OperatingPoint {
            cluster: a15,
            cores: 4,
            opp_index: 8,
            level,
        };
        let full = space.evaluate(mk(WidthLevel(3))).unwrap();
        let quarter = space.evaluate(mk(WidthLevel(0))).unwrap();
        assert!((quarter.latency.as_secs() / full.latency.as_secs() - 0.25).abs() < 0.01);
        assert!(quarter.energy < full.energy);
        assert!(quarter.top1_percent < full.top1_percent);
    }

    #[test]
    fn opp_restriction_limits_space() {
        let soc = soc();
        let profile = DnnProfile::reference("dnn");
        let a15 = soc.find_cluster("a15").unwrap();
        let space = OpSpace::new(
            &soc,
            &profile,
            OpSpaceConfig::default()
                .with_clusters(vec![a15])
                .with_opp_restriction(a15, vec![3, 8]),
        )
        .unwrap();
        assert_eq!(space.len(), 2 * 4);
        assert!(space
            .iter()
            .all(|op| op.opp_index == 3 || op.opp_index == 8));
    }

    #[test]
    fn out_of_range_opp_restrictions_are_dropped() {
        let soc = soc();
        let profile = DnnProfile::reference("dnn");
        let a15 = soc.find_cluster("a15").unwrap();
        let err = OpSpace::new(
            &soc,
            &profile,
            OpSpaceConfig::default()
                .with_clusters(vec![a15])
                .with_opp_restriction(a15, vec![99]),
        );
        assert!(matches!(err, Err(RtmError::EmptySpace { .. })));
    }

    #[test]
    fn partial_cores_enumerates_cpu_core_counts() {
        let soc = soc();
        let profile = DnnProfile::reference("dnn");
        let a7 = soc.find_cluster("a7").unwrap();
        let space = OpSpace::new(
            &soc,
            &profile,
            OpSpaceConfig::default()
                .with_clusters(vec![a7])
                .with_partial_cores(),
        )
        .unwrap();
        assert_eq!(space.len(), 4 * 12 * 4); // cores × OPPs × levels
                                             // Fewer cores: slower, cheaper.
        let eval = |cores| {
            space
                .evaluate(OperatingPoint {
                    cluster: a7,
                    cores,
                    opp_index: 11,
                    level: WidthLevel(3),
                })
                .unwrap()
        };
        assert!(eval(1).latency > eval(4).latency);
        assert!(eval(1).power < eval(4).power);
    }

    #[test]
    fn sharing_penalty_multiplies_latency_only() {
        let soc = soc();
        let profile = DnnProfile::reference("dnn");
        let gpu = soc.find_cluster("gpu").unwrap();
        let exclusive = OpSpace::new(
            &soc,
            &profile,
            OpSpaceConfig::default().with_clusters(vec![gpu]),
        )
        .unwrap();
        let shared = OpSpace::new(
            &soc,
            &profile,
            OpSpaceConfig::default()
                .with_clusters(vec![gpu])
                .with_sharing_penalty(gpu, 2.0),
        )
        .unwrap();
        let op = OperatingPoint {
            cluster: gpu,
            cores: 1,
            opp_index: 6,
            level: WidthLevel(3),
        };
        let a = exclusive.evaluate(op).unwrap();
        let b = shared.evaluate(op).unwrap();
        assert!((b.latency.as_secs() / a.latency.as_secs() - 2.0).abs() < 1e-9);
        assert_eq!(a.energy, b.energy);
    }

    #[test]
    fn evaluate_all_covers_every_point() {
        let soc = soc();
        let profile = DnnProfile::reference("dnn");
        let space = OpSpace::new(&soc, &profile, OpSpaceConfig::default()).unwrap();
        let all = space.evaluate_all().unwrap();
        assert_eq!(all.len(), space.len());
        assert!(all.iter().all(|p| p.latency.as_secs() > 0.0));
    }

    #[test]
    fn edp_is_product() {
        let soc = soc();
        let profile = DnnProfile::reference("dnn");
        let space = OpSpace::new(&soc, &profile, OpSpaceConfig::default()).unwrap();
        let pt = space.evaluate(space.iter().next().unwrap()).unwrap();
        assert!((pt.edp() - pt.energy.as_joules() * pt.latency.as_secs()).abs() < 1e-15);
    }
}
