//! Cluster latency model: how long a workload takes at a given frequency and
//! core allocation.
//!
//! Calibrated as `t(f) = (macs / ref_macs) · (a/f + b)` against the paper's
//! measured anchors (see [`crate::calibration`]), with a saturating parallel
//! speedup for core counts other than the calibration reference.

use crate::calibration::{fit_inverse_affine, InverseAffineFit};
use crate::error::{PlatformError, Result};
use crate::units::{Freq, TimeSpan};
use crate::workload::Workload;

/// Predicts execution latency on one cluster.
///
/// # Examples
///
/// ```
/// use eml_platform::latency::LatencyModel;
/// use eml_platform::units::{Freq, TimeSpan};
/// use eml_platform::workload::Workload;
///
/// # fn main() -> Result<(), eml_platform::PlatformError> {
/// // Calibrate from a single (1 GHz, 204 ms) anchor measured with 4 cores
/// // running a 62 MMAC reference workload.
/// let model = LatencyModel::from_anchors(
///     &[(Freq::from_ghz(1.0), TimeSpan::from_millis(204.0))],
///     62.0e6,
///     4,
/// )?;
/// let w = Workload::new("net", 31.0e6); // half the work
/// let t = model.latency(Freq::from_ghz(1.0), &w, 4)?;
/// assert!((t.as_millis() - 102.0).abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyModel {
    fit: InverseAffineFit,
    ref_macs: f64,
    ref_cores: u32,
    max_cores: u32,
}

impl LatencyModel {
    /// Serial fraction `α` in the Amdahl-style speedup
    /// `s(k) = k / (1 + α(k−1))`: multi-threaded CNN inference
    /// parallelises well but not perfectly across a four-core cluster.
    const PARALLEL_ALPHA: f64 = 0.08;

    /// Calibrates the model from `(frequency, latency)` anchors measured
    /// while executing a reference workload of `ref_macs` MACs on
    /// `ref_cores` cores.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::InvalidModel`] if the anchors are unusable
    /// (see [`fit_inverse_affine`]) or if `ref_macs`/`ref_cores` are zero.
    pub fn from_anchors(
        anchors: &[(Freq, TimeSpan)],
        ref_macs: f64,
        ref_cores: u32,
    ) -> Result<Self> {
        if ref_macs <= 0.0 || ref_macs.is_nan() {
            return Err(PlatformError::InvalidModel {
                reason: "reference workload must have positive MACs".into(),
            });
        }
        if ref_cores == 0 {
            return Err(PlatformError::InvalidModel {
                reason: "reference core count must be positive".into(),
            });
        }
        Ok(Self {
            fit: fit_inverse_affine(anchors)?,
            ref_macs,
            ref_cores,
            max_cores: ref_cores,
        })
    }

    /// Sets the maximum core count the model accepts (defaults to
    /// `ref_cores`).
    #[must_use]
    pub fn with_max_cores(mut self, max_cores: u32) -> Self {
        self.max_cores = max_cores.max(1);
        self
    }

    /// The underlying `a/f + b` fit for the reference workload.
    pub fn fit(&self) -> InverseAffineFit {
        self.fit
    }

    /// MAC count of the calibration reference workload.
    pub fn ref_macs(&self) -> f64 {
        self.ref_macs
    }

    /// Core count the calibration anchors were measured with.
    pub fn ref_cores(&self) -> u32 {
        self.ref_cores
    }

    /// Amdahl-style speedup of `k` cores relative to one core.
    fn speedup(&self, k: u32) -> f64 {
        let k = k as f64;
        k / (1.0 + Self::PARALLEL_ALPHA * (k - 1.0))
    }

    /// Predicts the latency of `workload` at `freq` using `cores` cores.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::ZeroCores`] when `cores == 0` and
    /// [`PlatformError::TooManyCores`] when `cores` exceeds the model's
    /// maximum.
    pub fn latency(&self, freq: Freq, workload: &Workload, cores: u32) -> Result<TimeSpan> {
        if cores == 0 {
            return Err(PlatformError::ZeroCores {
                cluster: String::new(),
            });
        }
        if cores > self.max_cores {
            return Err(PlatformError::TooManyCores {
                cluster: String::new(),
                requested: cores,
                available: self.max_cores,
            });
        }
        let scale = workload.macs() / self.ref_macs;
        let t_ref = self.fit.eval(freq).as_secs();
        let core_factor = self.speedup(self.ref_cores) / self.speedup(cores);
        Ok(TimeSpan::from_secs(t_ref * scale * core_factor))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> LatencyModel {
        // Paper's A15 anchors, 62 MMAC reference, 4 cores.
        LatencyModel::from_anchors(
            &[
                (Freq::from_mhz(200.0), TimeSpan::from_millis(1020.0)),
                (Freq::from_mhz(1000.0), TimeSpan::from_millis(204.0)),
                (Freq::from_mhz(1800.0), TimeSpan::from_millis(117.0)),
            ],
            62.0e6,
            4,
        )
        .unwrap()
    }

    #[test]
    fn reproduces_anchor_latency_at_reference_config() {
        let m = model();
        let w = Workload::new("ref", 62.0e6);
        let t = m.latency(Freq::from_mhz(1000.0), &w, 4).unwrap();
        assert!((t.as_millis() - 204.0).abs() / 204.0 < 0.02);
    }

    #[test]
    fn latency_scales_linearly_with_macs() {
        let m = model();
        let full = Workload::new("full", 62.0e6);
        let half = Workload::new("half", 31.0e6);
        let f = Freq::from_mhz(1000.0);
        let tf = m.latency(f, &full, 4).unwrap();
        let th = m.latency(f, &half, 4).unwrap();
        assert!((tf.as_secs() / th.as_secs() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn fewer_cores_is_slower_but_sublinear() {
        let m = model();
        let w = Workload::new("w", 62.0e6);
        let f = Freq::from_mhz(1000.0);
        let t4 = m.latency(f, &w, 4).unwrap().as_secs();
        let t1 = m.latency(f, &w, 1).unwrap().as_secs();
        let t2 = m.latency(f, &w, 2).unwrap().as_secs();
        assert!(t1 > t2 && t2 > t4);
        // One core is slower than 4 cores by the full speedup factor
        // s(4) = 4 / (1 + 0.08·3) ≈ 3.23.
        assert!((t1 / t4 - 3.2258).abs() < 1e-3);
    }

    #[test]
    fn monotone_in_frequency() {
        let m = model();
        let w = Workload::new("w", 62.0e6);
        let mut prev = f64::INFINITY;
        for mhz in (200..=1800).step_by(100) {
            let t = m
                .latency(Freq::from_mhz(mhz as f64), &w, 4)
                .unwrap()
                .as_secs();
            assert!(t < prev, "latency must decrease with frequency");
            prev = t;
        }
    }

    #[test]
    fn rejects_bad_core_counts() {
        let m = model();
        let w = Workload::new("w", 1.0);
        assert!(matches!(
            m.latency(Freq::from_mhz(1000.0), &w, 0),
            Err(PlatformError::ZeroCores { .. })
        ));
        assert!(matches!(
            m.latency(Freq::from_mhz(1000.0), &w, 5),
            Err(PlatformError::TooManyCores { .. })
        ));
    }

    #[test]
    fn invalid_reference_rejected() {
        let anchors = [(Freq::from_mhz(1000.0), TimeSpan::from_millis(100.0))];
        assert!(LatencyModel::from_anchors(&anchors, 0.0, 4).is_err());
        assert!(LatencyModel::from_anchors(&anchors, 1.0, 0).is_err());
    }
}
