//! Cluster power model anchored to published measurements.
//!
//! Measured cluster power on real boards does not follow a clean closed-form
//! law (utilisation, per-OPP voltage binning and shared-rail effects all
//! intrude), so — as empirical simulators do — we interpolate between the
//! paper's measured anchor points. The interpolation abscissa is `V²·f`,
//! the quantity dynamic CMOS power is proportional to, which keeps the curve
//! physically shaped between anchors and passes through every anchor
//! exactly.
//!
//! Why not fit the textbook closed form `c_dyn·V²f + c_leak·V + p_base`
//! instead? Because it does not survive the paper's own numbers: a
//! least-squares fit to the Odroid XU3 A15 triple (326 mW @ 200 MHz,
//! 846 mW @ 1 GHz, 2120 mW @ 1.8 GHz) yields a *negative* leakage
//! coefficient — the measurements rise faster than `V²·f` can explain
//! with any plausible voltage curve. Where the paper's measurements are
//! the ground truth, empirical fidelity beats closed-form elegance.

use crate::calibration::interp_extrapolate;
use crate::error::{PlatformError, Result};
use crate::opp::OppTable;
use crate::units::{Freq, Power, Voltage};

/// A measured `(frequency, full-activity cluster power)` anchor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerAnchor {
    /// Frequency the measurement was taken at.
    pub freq: Freq,
    /// Total cluster power while running the reference workload flat out.
    pub active_power: Power,
}

impl PowerAnchor {
    /// Convenience constructor from MHz and milliwatts.
    pub fn from_mhz_mw(mhz: f64, mw: f64) -> Self {
        Self {
            freq: Freq::from_mhz(mhz),
            active_power: Power::from_milliwatts(mw),
        }
    }
}

/// Power model interpolating measured anchors in `V²·f` space.
///
/// `active_power(f)` is the cluster's power when fully busy at frequency
/// `f`; partial activity scales the dynamic component
/// (`active − idle`) by an activity factor while the idle floor remains.
///
/// # Examples
///
/// ```
/// use eml_platform::opp::OppTable;
/// use eml_platform::power::{AnchoredPowerModel, PowerAnchor};
/// use eml_platform::units::{Freq, Power};
///
/// # fn main() -> Result<(), eml_platform::PlatformError> {
/// let opps = OppTable::from_mhz_mv(&[(200.0, 900.0), (700.0, 960.0), (1300.0, 1100.0)])?;
/// let model = AnchoredPowerModel::new(
///     vec![
///         PowerAnchor::from_mhz_mw(200.0, 72.4),
///         PowerAnchor::from_mhz_mw(700.0, 141.0),
///         PowerAnchor::from_mhz_mw(1300.0, 329.0),
///     ],
///     Power::from_milliwatts(25.0),
///     &opps,
/// )?;
/// // Anchors are reproduced exactly.
/// let p = model.active_power(Freq::from_mhz(700.0));
/// assert!((p.as_milliwatts() - 141.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AnchoredPowerModel {
    /// `(V²·f, active power W)` pairs, ascending in the abscissa.
    curve: Vec<(f64, f64)>,
    /// Voltage lookup for arbitrary frequencies.
    voltage_curve: Vec<(f64, f64)>, // (MHz, volts)
    idle: Power,
}

impl AnchoredPowerModel {
    /// Builds the model from measured anchors, an idle-power floor, and the
    /// cluster's OPP table (for voltage lookups).
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::InvalidModel`] if no anchors are given, if
    /// any anchor power is non-positive or below idle, or if anchors are not
    /// strictly increasing in `V²·f`.
    pub fn new(anchors: Vec<PowerAnchor>, idle: Power, opps: &OppTable) -> Result<Self> {
        if anchors.is_empty() {
            return Err(PlatformError::InvalidModel {
                reason: "power model requires at least one anchor".into(),
            });
        }
        if idle.as_watts() < 0.0 {
            return Err(PlatformError::InvalidModel {
                reason: "idle power must be non-negative".into(),
            });
        }
        let mut curve = Vec::with_capacity(anchors.len());
        for a in &anchors {
            if a.active_power.as_watts() <= 0.0 {
                return Err(PlatformError::InvalidModel {
                    reason: "anchor power must be positive".into(),
                });
            }
            if a.active_power < idle {
                return Err(PlatformError::InvalidModel {
                    reason: format!("anchor power {} below idle power {}", a.active_power, idle),
                });
            }
            let v = opps.voltage_at(a.freq);
            curve.push((v.squared_times(a.freq), a.active_power.as_watts()));
        }
        curve.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite v2f"));
        for pair in curve.windows(2) {
            if pair[1].0 - pair[0].0 <= f64::EPSILON {
                return Err(PlatformError::InvalidModel {
                    reason: "power anchors must be strictly increasing in V²·f".into(),
                });
            }
            if pair[1].1 < pair[0].1 {
                return Err(PlatformError::InvalidModel {
                    reason: "active power must be non-decreasing in V²·f".into(),
                });
            }
        }
        let voltage_curve = opps
            .iter()
            .map(|o| (o.freq().as_mhz(), o.voltage().as_volts()))
            .collect();
        Ok(Self {
            curve,
            voltage_curve,
            idle,
        })
    }

    /// The idle-power floor of the cluster (clock-gated, not power-gated).
    pub fn idle_power(&self) -> Power {
        self.idle
    }

    /// Voltage at `freq` according to the cluster's OPP table (interpolated
    /// and clamped like [`OppTable::voltage_at`]).
    fn voltage_at(&self, freq: Freq) -> Voltage {
        Voltage::from_volts(interp_clamped(&self.voltage_curve, freq.as_mhz()))
    }

    /// Full-activity cluster power at `freq`.
    ///
    /// Passes exactly through the calibration anchors; between them it is
    /// linear in `V²·f`; beyond them it extrapolates the end segments,
    /// floored at the idle power.
    pub fn active_power(&self, freq: Freq) -> Power {
        let v = self.voltage_at(freq);
        let x = v.squared_times(freq);
        let w = interp_extrapolate(&self.curve, x);
        Power::from_watts(w.max(self.idle.as_watts()))
    }

    /// Cluster power at `freq` with the given activity factor in `[0, 1]`
    /// (fraction of the cluster's compute actually in use: busy cores ×
    /// utilisation).
    ///
    /// `activity = 1` reproduces the anchors; `activity = 0` returns the
    /// idle floor.
    pub fn power(&self, freq: Freq, activity: f64) -> Power {
        let a = activity.clamp(0.0, 1.0);
        let dynamic = self.active_power(freq) - self.idle;
        self.idle + dynamic * a
    }
}

fn interp_clamped(points: &[(f64, f64)], x: f64) -> f64 {
    debug_assert!(!points.is_empty());
    if x <= points[0].0 {
        return points[0].1;
    }
    let last = points[points.len() - 1];
    if x >= last.0 {
        return last.1;
    }
    interp_extrapolate(points, x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::TimeSpan;

    fn a7_opps() -> OppTable {
        OppTable::from_mhz_mv(&[
            (200.0, 900.0),
            (700.0, 960.0),
            (900.0, 1000.0),
            (1300.0, 1100.0),
        ])
        .unwrap()
    }

    fn a7_model() -> AnchoredPowerModel {
        AnchoredPowerModel::new(
            vec![
                PowerAnchor::from_mhz_mw(200.0, 72.4),
                PowerAnchor::from_mhz_mw(700.0, 141.0),
                PowerAnchor::from_mhz_mw(1300.0, 329.0),
            ],
            Power::from_milliwatts(25.0),
            &a7_opps(),
        )
        .unwrap()
    }

    #[test]
    fn anchors_reproduced_exactly() {
        let m = a7_model();
        for (mhz, mw) in [(200.0, 72.4), (700.0, 141.0), (1300.0, 329.0)] {
            let p = m.active_power(Freq::from_mhz(mhz));
            assert!(
                (p.as_milliwatts() - mw).abs() < 1e-9,
                "anchor {mhz} MHz: got {}",
                p.as_milliwatts()
            );
        }
    }

    #[test]
    fn interpolation_is_monotone_in_frequency() {
        let m = a7_model();
        let mut prev = 0.0;
        for mhz in (200..=1300).step_by(100) {
            let p = m.active_power(Freq::from_mhz(mhz as f64)).as_milliwatts();
            assert!(p >= prev, "power must be non-decreasing, {mhz} MHz");
            prev = p;
        }
    }

    #[test]
    fn paper_case_study_a7_900mhz_power_is_reasonable() {
        // The §IV worked example needs ~190-200 mW at A7 900 MHz so that the
        // 100% model consumes < 100 mJ in ~400 ms.
        let m = a7_model();
        let p = m.active_power(Freq::from_mhz(900.0));
        assert!(
            (150.0..250.0).contains(&p.as_milliwatts()),
            "got {}",
            p.as_milliwatts()
        );
        let e = p * TimeSpan::from_millis(397.0);
        assert!(e.as_millijoules() < 100.0);
    }

    #[test]
    fn activity_scaling_between_idle_and_active() {
        let m = a7_model();
        let f = Freq::from_mhz(700.0);
        assert_eq!(m.power(f, 0.0), m.idle_power());
        assert_eq!(m.power(f, 1.0), m.active_power(f));
        let half = m.power(f, 0.5);
        assert!(half > m.idle_power() && half < m.active_power(f));
        // Out-of-range activity clamps rather than extrapolating.
        assert_eq!(m.power(f, 7.0), m.active_power(f));
        assert_eq!(m.power(f, -1.0), m.idle_power());
    }

    #[test]
    fn extrapolation_floors_at_idle() {
        let m = a7_model();
        // Far below the lowest anchor the extrapolated line could go
        // negative; it must floor at idle.
        let p = m.active_power(Freq::from_mhz(10.0));
        assert!(p >= m.idle_power());
    }

    #[test]
    fn rejects_invalid_construction() {
        let opps = a7_opps();
        assert!(AnchoredPowerModel::new(vec![], Power::ZERO, &opps).is_err());
        assert!(AnchoredPowerModel::new(
            vec![PowerAnchor::from_mhz_mw(200.0, -5.0)],
            Power::ZERO,
            &opps
        )
        .is_err());
        // Anchor below idle.
        assert!(AnchoredPowerModel::new(
            vec![PowerAnchor::from_mhz_mw(200.0, 10.0)],
            Power::from_milliwatts(50.0),
            &opps
        )
        .is_err());
        // Duplicate anchors collapse in V²·f.
        assert!(AnchoredPowerModel::new(
            vec![
                PowerAnchor::from_mhz_mw(200.0, 70.0),
                PowerAnchor::from_mhz_mw(200.0, 80.0),
            ],
            Power::ZERO,
            &opps
        )
        .is_err());
        // Power decreasing with V²·f.
        assert!(AnchoredPowerModel::new(
            vec![
                PowerAnchor::from_mhz_mw(200.0, 100.0),
                PowerAnchor::from_mhz_mw(700.0, 80.0),
            ],
            Power::ZERO,
            &opps
        )
        .is_err());
    }

    #[test]
    fn single_anchor_scales_with_v2f() {
        let opps = a7_opps();
        let m = AnchoredPowerModel::new(
            vec![PowerAnchor::from_mhz_mw(700.0, 141.0)],
            Power::ZERO,
            &opps,
        )
        .unwrap();
        // Same voltage-squared-frequency ratio ⇒ proportional power.
        let p13 = m.active_power(Freq::from_mhz(1300.0));
        let v2f_13 = opps.get(3).unwrap().v2f();
        let v2f_07 = opps.get(1).unwrap().v2f();
        assert!(
            (p13.as_milliwatts() - 141.0 * v2f_13 / v2f_07).abs() < 1e-9,
            "got {}",
            p13.as_milliwatts()
        );
    }
}
