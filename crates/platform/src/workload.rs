//! Platform-independent descriptions of the work an application submits.
//!
//! A [`Workload`] abstracts an inference (or other compute job) down to the
//! quantities the platform model needs: multiply-accumulate count, parameter
//! and activation footprints. The dynamic-DNN layer produces one `Workload`
//! per width level from its real per-layer cost model; the platform maps it
//! to latency/power/energy for a given placement and DVFS setting.

use std::fmt;

/// A compute job characterised by its arithmetic and memory demands.
///
/// # Examples
///
/// ```
/// use eml_platform::workload::Workload;
///
/// let w = Workload::new("cifar-cnn-100", 62.0e6)
///     .with_param_bytes(2.5e6)
///     .with_activation_bytes(1.2e6);
/// assert_eq!(w.macs(), 62.0e6);
/// assert_eq!(w.name(), "cifar-cnn-100");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    name: String,
    macs: f64,
    param_bytes: f64,
    activation_bytes: f64,
}

impl Workload {
    /// Creates a workload with the given name and multiply-accumulate count.
    ///
    /// # Panics
    ///
    /// Panics if `macs` is not finite and non-negative — a workload with
    /// negative arithmetic is meaningless and would poison every downstream
    /// latency prediction.
    pub fn new(name: impl Into<String>, macs: f64) -> Self {
        assert!(
            macs.is_finite() && macs >= 0.0,
            "workload MAC count must be finite and non-negative, got {macs}"
        );
        Self {
            name: name.into(),
            macs,
            param_bytes: 0.0,
            activation_bytes: 0.0,
        }
    }

    /// Sets the parameter (weight) footprint in bytes.
    #[must_use]
    pub fn with_param_bytes(mut self, bytes: f64) -> Self {
        assert!(bytes.is_finite() && bytes >= 0.0);
        self.param_bytes = bytes;
        self
    }

    /// Sets the peak activation footprint in bytes.
    #[must_use]
    pub fn with_activation_bytes(mut self, bytes: f64) -> Self {
        assert!(bytes.is_finite() && bytes >= 0.0);
        self.activation_bytes = bytes;
        self
    }

    /// The workload's human-readable name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Multiply-accumulate operations per job.
    pub fn macs(&self) -> f64 {
        self.macs
    }

    /// Parameter (weight) footprint in bytes.
    pub fn param_bytes(&self) -> f64 {
        self.param_bytes
    }

    /// Returns a copy scaled to `fraction` of the arithmetic and memory cost.
    ///
    /// Used to derive pruned-width workloads from a full-width reference.
    /// Prefer the exact per-layer cost model in `eml-dnn` when available —
    /// this is a convenience for synthetic experiments.
    #[must_use]
    pub fn scaled(&self, fraction: f64) -> Self {
        assert!(
            fraction.is_finite() && fraction >= 0.0,
            "scale fraction must be finite and non-negative, got {fraction}"
        );
        Self {
            name: format!("{}@{:.0}%", self.name, fraction * 100.0),
            macs: self.macs * fraction,
            param_bytes: self.param_bytes * fraction,
            activation_bytes: self.activation_bytes * fraction,
        }
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({:.2} MMACs, {:.1} KiB params)",
            self.name,
            self.macs / 1.0e6,
            self.param_bytes / 1024.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_sets_fields() {
        let w = Workload::new("w", 1.0e6)
            .with_param_bytes(10.0)
            .with_activation_bytes(20.0);
        assert_eq!(w.macs(), 1.0e6);
        assert_eq!(w.param_bytes(), 10.0);
        assert_eq!(w.activation_bytes, 20.0);
    }

    #[test]
    fn scaled_workload_scales_all_costs() {
        let w = Workload::new("full", 100.0)
            .with_param_bytes(40.0)
            .with_activation_bytes(8.0);
        let half = w.scaled(0.5);
        assert_eq!(half.macs(), 50.0);
        assert_eq!(half.param_bytes(), 20.0);
        assert_eq!(half.activation_bytes, 4.0);
        assert!(half.name().contains("50%"));
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_macs_rejected() {
        let _ = Workload::new("bad", -1.0);
    }

    #[test]
    #[should_panic]
    fn nan_scale_rejected() {
        let _ = Workload::new("w", 1.0).scaled(f64::NAN);
    }

    #[test]
    fn display_mentions_mmacs() {
        let w = Workload::new("net", 62.0e6);
        assert!(format!("{w}").contains("62.00 MMACs"));
    }
}
