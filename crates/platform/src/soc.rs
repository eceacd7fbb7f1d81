//! The system-on-chip model: a set of heterogeneous compute clusters with
//! per-cluster OPP tables, latency, power and thermal characteristics.
//!
//! `Soc` is the device layer of the paper's Fig 5 architecture. It is a
//! *static description*; runtime state (current OPP per cluster, gating,
//! temperature) lives with the simulator and the RTM.

use std::fmt;

use crate::error::{PlatformError, Result};
use crate::latency::LatencyModel;
use crate::opp::{Opp, OppTable};
use crate::power::AnchoredPowerModel;
use crate::thermal::ThermalModel;
use crate::units::{Energy, Freq, Power, TimeSpan};
use crate::workload::Workload;

/// The kind of compute resource a cluster provides.
///
/// Ordering within the enum is incidental; use the performance/power models
/// to compare clusters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[non_exhaustive]
pub enum CoreKind {
    /// High-performance out-of-order CPU cores (e.g. Cortex-A15/A57/A76).
    BigCpu,
    /// Energy-efficient in-order CPU cores (e.g. Cortex-A7/A53/A55).
    LittleCpu,
    /// A programmable GPU.
    Gpu,
    /// A neural processing unit / ML accelerator.
    Npu,
    /// A digital signal processor.
    Dsp,
}

impl CoreKind {
    /// Whether the resource is a general-purpose CPU cluster (big or
    /// little), as opposed to an accelerator.
    pub fn is_cpu(self) -> bool {
        matches!(self, Self::BigCpu | Self::LittleCpu)
    }

    /// Whether the resource is an accelerator that executes one offloaded
    /// kernel at a time (GPU/NPU/DSP).
    pub fn is_accelerator(self) -> bool {
        !self.is_cpu()
    }
}

impl fmt::Display for CoreKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Self::BigCpu => "big CPU",
            Self::LittleCpu => "little CPU",
            Self::Gpu => "GPU",
            Self::Npu => "NPU",
            Self::Dsp => "DSP",
        };
        f.write_str(s)
    }
}

/// Identifies a cluster within one [`Soc`].
///
/// Obtained from [`Soc::cluster_ids`] or [`Soc::find_cluster`]; only valid
/// for the SoC that produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClusterId(pub(crate) usize);

impl ClusterId {
    /// Constructs an id from a raw index.
    ///
    /// Prefer [`Soc::find_cluster`]/[`Soc::cluster_ids`]; this constructor
    /// exists for deserialisation and test fixtures. An id is only
    /// meaningful for the SoC whose cluster order it indexes.
    pub fn from_index(index: usize) -> Self {
        Self(index)
    }

    /// The cluster's index within its SoC.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for ClusterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cluster#{}", self.0)
    }
}

/// Static description of one compute cluster (a DVFS domain).
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    name: String,
    kind: CoreKind,
    cores: u32,
    opps: OppTable,
    latency: LatencyModel,
    power: AnchoredPowerModel,
    r_local_k_per_w: f64,
}

impl ClusterSpec {
    /// Assembles a cluster from its constituent models.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::InvalidModel`] if `cores == 0`.
    pub fn new(
        name: impl Into<String>,
        kind: CoreKind,
        cores: u32,
        opps: OppTable,
        latency: LatencyModel,
        power: AnchoredPowerModel,
    ) -> Result<Self> {
        if cores == 0 {
            return Err(PlatformError::InvalidModel {
                reason: "cluster must have at least one core".into(),
            });
        }
        Ok(Self {
            name: name.into(),
            kind,
            cores,
            opps,
            latency: latency.with_max_cores(cores),
            power,
            r_local_k_per_w: 1.0,
        })
    }

    /// Sets the cluster's local self-heating resistance (K/W).
    #[must_use]
    pub fn with_local_thermal_resistance(mut self, r_k_per_w: f64) -> Self {
        self.r_local_k_per_w = r_k_per_w.max(0.0);
        self
    }

    /// The cluster's name, e.g. `"a15"`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The kind of compute resource.
    pub fn kind(&self) -> CoreKind {
        self.kind
    }

    /// Number of cores in the cluster (1 for monolithic accelerators).
    pub fn cores(&self) -> u32 {
        self.cores
    }

    /// The cluster's OPP table.
    pub fn opps(&self) -> &OppTable {
        &self.opps
    }

    /// The cluster's latency model.
    pub fn latency_model(&self) -> &LatencyModel {
        &self.latency
    }

    /// The cluster's power model.
    pub fn power_model(&self) -> &AnchoredPowerModel {
        &self.power
    }
}

/// Where a job runs: which cluster, and how many of its cores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Placement {
    /// Target cluster.
    pub cluster: ClusterId,
    /// Number of cores used on that cluster.
    pub cores: u32,
}

impl Placement {
    /// Places a job on `cores` cores of `cluster`.
    pub fn new(cluster: ClusterId, cores: u32) -> Self {
        Self { cluster, cores }
    }

    /// Places a job on every core of the cluster described by `spec`.
    pub fn whole_cluster(cluster: ClusterId, spec: &ClusterSpec) -> Self {
        Self {
            cluster,
            cores: spec.cores(),
        }
    }
}

/// Predicted execution characteristics of one job at one operating point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prediction {
    /// Time to complete the job.
    pub latency: TimeSpan,
    /// Average cluster power while the job runs (busy power).
    pub power: Power,
    /// Energy consumed over the job (`power × latency`).
    pub energy: Energy,
}

impl fmt::Display for Prediction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.1} ms, {:.0} mW, {:.1} mJ",
            self.latency.as_millis(),
            self.power.as_milliwatts(),
            self.energy.as_millijoules()
        )
    }
}

/// A heterogeneous system-on-chip: named clusters plus a package thermal
/// model.
///
/// # Examples
///
/// ```
/// use eml_platform::presets;
/// use eml_platform::soc::Placement;
/// use eml_platform::units::Freq;
/// use eml_platform::workload::Workload;
///
/// # fn main() -> Result<(), eml_platform::PlatformError> {
/// let soc = presets::odroid_xu3();
/// let a7 = soc.find_cluster("a7").expect("preset has an A7 cluster");
/// let w = presets::reference_workload();
/// let p = soc.predict(
///     Placement::new(a7, 4),
///     Freq::from_mhz(900.0),
///     &w,
/// )?;
/// assert!(p.latency.as_millis() > 300.0 && p.latency.as_millis() < 500.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Soc {
    name: String,
    clusters: Vec<ClusterSpec>,
    thermal: ThermalModel,
}

impl Soc {
    /// Builds an SoC from clusters and a thermal model.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::InvalidModel`] if no clusters are supplied
    /// or two clusters share a name.
    pub fn new(
        name: impl Into<String>,
        clusters: Vec<ClusterSpec>,
        thermal: ThermalModel,
    ) -> Result<Self> {
        if clusters.is_empty() {
            return Err(PlatformError::InvalidModel {
                reason: "SoC must have at least one cluster".into(),
            });
        }
        for (i, a) in clusters.iter().enumerate() {
            for b in &clusters[i + 1..] {
                if a.name() == b.name() {
                    return Err(PlatformError::InvalidModel {
                        reason: format!("duplicate cluster name `{}`", a.name()),
                    });
                }
            }
        }
        Ok(Self {
            name: name.into(),
            clusters,
            thermal,
        })
    }

    /// The SoC's name, e.g. `"odroid-xu3"`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The package thermal model.
    pub fn thermal(&self) -> &ThermalModel {
        &self.thermal
    }

    /// Number of clusters.
    pub fn cluster_count(&self) -> usize {
        self.clusters.len()
    }

    /// Iterates over `(id, spec)` pairs.
    pub fn clusters(&self) -> impl ExactSizeIterator<Item = (ClusterId, &ClusterSpec)> {
        self.clusters
            .iter()
            .enumerate()
            .map(|(i, c)| (ClusterId(i), c))
    }

    /// All cluster ids.
    pub fn cluster_ids(&self) -> impl ExactSizeIterator<Item = ClusterId> {
        (0..self.clusters.len()).map(ClusterId)
    }

    /// Looks up a cluster by id.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::UnknownCluster`] for a stale or foreign id.
    pub fn cluster(&self, id: ClusterId) -> Result<&ClusterSpec> {
        self.clusters
            .get(id.0)
            .ok_or(PlatformError::UnknownCluster {
                index: id.0,
                count: self.clusters.len(),
            })
    }

    /// Finds a cluster by name.
    pub fn find_cluster(&self, name: &str) -> Option<ClusterId> {
        self.clusters
            .iter()
            .position(|c| c.name() == name)
            .map(ClusterId)
    }

    /// Predicts latency, busy power and energy for `workload` at the given
    /// placement and frequency.
    ///
    /// `freq` need not be an exact OPP — the models interpolate — but DVFS
    /// governors should restrict themselves to table entries.
    ///
    /// # Errors
    ///
    /// Propagates placement errors ([`PlatformError::ZeroCores`],
    /// [`PlatformError::TooManyCores`], [`PlatformError::UnknownCluster`]),
    /// filling in the cluster name.
    pub fn predict(
        &self,
        placement: Placement,
        freq: Freq,
        workload: &Workload,
    ) -> Result<Prediction> {
        let spec = self.cluster(placement.cluster)?;
        let latency = spec
            .latency_model()
            .latency(freq, workload, placement.cores)
            .map_err(|e| name_error(e, spec.name()))?;
        let activity = placement.cores as f64 / spec.cores() as f64;
        let power = spec.power_model().power(freq, activity);
        Ok(Prediction {
            latency,
            power,
            energy: power * latency,
        })
    }

    /// Predicts at a specific OPP index of the placement's cluster.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::OppIndexOutOfRange`] for a bad index, plus
    /// the conditions of [`Soc::predict`].
    pub fn predict_at_opp(
        &self,
        placement: Placement,
        opp_index: usize,
        workload: &Workload,
    ) -> Result<Prediction> {
        let spec = self.cluster(placement.cluster)?;
        let opp: Opp =
            spec.opps()
                .get(opp_index)
                .ok_or_else(|| PlatformError::OppIndexOutOfRange {
                    cluster: spec.name().to_string(),
                    index: opp_index,
                    count: spec.opps().len(),
                })?;
        self.predict(placement, opp.freq(), workload)
    }

    /// Total idle power of the whole SoC (every cluster clock-gated).
    pub fn idle_power(&self) -> Power {
        self.clusters
            .iter()
            .map(|c| c.power_model().idle_power())
            .sum()
    }
}

fn name_error(e: PlatformError, name: &str) -> PlatformError {
    match e {
        PlatformError::ZeroCores { .. } => PlatformError::ZeroCores {
            cluster: name.to_string(),
        },
        PlatformError::TooManyCores {
            requested,
            available,
            ..
        } => PlatformError::TooManyCores {
            cluster: name.to_string(),
            requested,
            available,
        },
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::power::PowerAnchor;

    fn tiny_soc() -> Soc {
        let opps = OppTable::from_mhz_mv(&[(500.0, 900.0), (1000.0, 1000.0)]).unwrap();
        let latency = LatencyModel::from_anchors(
            &[(Freq::from_mhz(1000.0), TimeSpan::from_millis(100.0))],
            1.0e6,
            2,
        )
        .unwrap();
        let power = AnchoredPowerModel::new(
            vec![PowerAnchor::from_mhz_mw(1000.0, 500.0)],
            Power::from_milliwatts(50.0),
            &opps,
        )
        .unwrap();
        let c = ClusterSpec::new("cpu", CoreKind::BigCpu, 2, opps, latency, power).unwrap();
        Soc::new("tiny", vec![c], ThermalModel::mobile_default()).unwrap()
    }

    #[test]
    fn lookup_by_name_and_kind() {
        let soc = tiny_soc();
        let id = soc.find_cluster("cpu").unwrap();
        assert_eq!(soc.cluster(id).unwrap().name(), "cpu");
        assert_eq!(soc.cluster(id).unwrap().kind(), CoreKind::BigCpu);
        assert!(soc.find_cluster("gpu").is_none());
    }

    #[test]
    fn stale_id_rejected() {
        let soc = tiny_soc();
        assert!(matches!(
            soc.cluster(ClusterId(7)),
            Err(PlatformError::UnknownCluster { index: 7, count: 1 })
        ));
    }

    #[test]
    fn predict_combines_latency_power_energy() {
        let soc = tiny_soc();
        let id = soc.find_cluster("cpu").unwrap();
        let w = Workload::new("w", 1.0e6);
        let p = soc
            .predict(Placement::new(id, 2), Freq::from_mhz(1000.0), &w)
            .unwrap();
        assert!((p.latency.as_millis() - 100.0).abs() < 1e-9);
        assert!((p.power.as_milliwatts() - 500.0).abs() < 1e-9);
        assert!((p.energy.as_millijoules() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn partial_core_placement_reduces_power_increases_latency() {
        let soc = tiny_soc();
        let id = soc.find_cluster("cpu").unwrap();
        let w = Workload::new("w", 1.0e6);
        let full = soc
            .predict(Placement::new(id, 2), Freq::from_mhz(1000.0), &w)
            .unwrap();
        let one = soc
            .predict(Placement::new(id, 1), Freq::from_mhz(1000.0), &w)
            .unwrap();
        assert!(one.latency > full.latency);
        assert!(one.power < full.power);
    }

    #[test]
    fn predict_at_opp_bounds_checked() {
        let soc = tiny_soc();
        let id = soc.find_cluster("cpu").unwrap();
        let w = Workload::new("w", 1.0e6);
        assert!(soc.predict_at_opp(Placement::new(id, 2), 1, &w).is_ok());
        assert!(matches!(
            soc.predict_at_opp(Placement::new(id, 2), 9, &w),
            Err(PlatformError::OppIndexOutOfRange { index: 9, .. })
        ));
    }

    #[test]
    fn placement_errors_carry_cluster_name() {
        let soc = tiny_soc();
        let id = soc.find_cluster("cpu").unwrap();
        let w = Workload::new("w", 1.0e6);
        match soc.predict(Placement::new(id, 3), Freq::from_mhz(1000.0), &w) {
            Err(PlatformError::TooManyCores {
                cluster,
                requested: 3,
                available: 2,
            }) => {
                assert_eq!(cluster, "cpu");
            }
            other => panic!("expected TooManyCores, got {other:?}"),
        }
        match soc.predict(Placement::new(id, 0), Freq::from_mhz(1000.0), &w) {
            Err(PlatformError::ZeroCores { cluster }) => assert_eq!(cluster, "cpu"),
            other => panic!("expected ZeroCores, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_cluster_names_rejected() {
        let soc = tiny_soc();
        let spec = soc.cluster(ClusterId(0)).unwrap().clone();
        let dup = Soc::new(
            "dup",
            vec![spec.clone(), spec],
            ThermalModel::mobile_default(),
        );
        assert!(dup.is_err());
    }

    #[test]
    fn empty_soc_rejected() {
        assert!(Soc::new("e", vec![], ThermalModel::mobile_default()).is_err());
    }

    #[test]
    fn idle_power_sums_clusters() {
        let soc = tiny_soc();
        assert!((soc.idle_power().as_milliwatts() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn core_kind_predicates() {
        assert!(CoreKind::BigCpu.is_cpu());
        assert!(CoreKind::LittleCpu.is_cpu());
        assert!(CoreKind::Gpu.is_accelerator());
        assert!(CoreKind::Npu.is_accelerator());
        assert!(CoreKind::Dsp.is_accelerator());
        assert_eq!(format!("{}", CoreKind::Npu), "NPU");
    }

    #[test]
    fn whole_cluster_placement() {
        let soc = tiny_soc();
        let id = soc.find_cluster("cpu").unwrap();
        let spec = soc.cluster(id).unwrap();
        let p = Placement::whole_cluster(id, spec);
        assert_eq!(p.cores, 2);
    }

    #[test]
    fn zero_core_cluster_rejected() {
        let soc = tiny_soc();
        let spec = soc.cluster(ClusterId(0)).unwrap();
        let bad = ClusterSpec::new(
            "bad",
            CoreKind::BigCpu,
            0,
            spec.opps().clone(),
            spec.latency_model().clone(),
            spec.power_model().clone(),
        );
        assert!(bad.is_err());
    }
}
