//! Fitting helpers that turn published measurements into model parameters.
//!
//! The paper characterises one DNN on real boards (Table I). We reproduce
//! those boards in simulation by *calibrating* analytic models against the
//! published anchor points:
//!
//! - **Latency** follows `t(f) = a/f + b` per cluster (compute cycles that
//!   scale with clock, plus a memory-bound residue that does not). A linear
//!   least-squares fit in `x = 1/f` reproduces all six Odroid XU3 anchors to
//!   within 2 % — see `presets::tests`.
//! - **Power** is piecewise-interpolated between anchors linearly in `V²·f`
//!   (the quantity dynamic CMOS power tracks), passing through the anchors
//!   exactly. See [`crate::power::AnchoredPowerModel`].

use crate::error::{PlatformError, Result};
use crate::units::{Freq, TimeSpan};

/// Result of fitting `t(f) = a/f + b` to measured `(frequency, latency)`
/// anchors.
///
/// `a` carries units of GHz·s (cycles, scaled); `b` is seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InverseAffineFit {
    /// Frequency-scaling coefficient in GHz·seconds.
    pub a_ghz_s: f64,
    /// Frequency-independent residue in seconds.
    pub b_s: f64,
}

impl InverseAffineFit {
    /// Evaluates the fitted latency at `freq`.
    pub fn eval(&self, freq: Freq) -> TimeSpan {
        TimeSpan::from_secs(self.a_ghz_s / freq.as_ghz() + self.b_s)
    }

    /// Maximum relative error of the fit over the given anchors.
    #[cfg(test)]
    fn max_rel_error(&self, anchors: &[(Freq, TimeSpan)]) -> f64 {
        anchors
            .iter()
            .map(|&(f, t)| {
                let predicted = self.eval(f).as_secs();
                ((predicted - t.as_secs()) / t.as_secs()).abs()
            })
            .fold(0.0, f64::max)
    }
}

/// Fits `t(f) = a/f + b` to the anchors by ordinary least squares in
/// `x = 1/f` (GHz⁻¹).
///
/// A single anchor yields an exact `a/f` model with `b = 0`; two or more
/// anchors yield the least-squares line. Negative intercepts (which can
/// arise from measurement noise) are clamped to zero and the slope re-fit
/// through the anchor mean, keeping the model physical (latency can never be
/// negative at high frequency).
///
/// # Errors
///
/// Returns [`PlatformError::InvalidModel`] when `anchors` is empty, contains
/// non-positive values, or contains duplicate frequencies (the fit would be
/// degenerate).
pub fn fit_inverse_affine(anchors: &[(Freq, TimeSpan)]) -> Result<InverseAffineFit> {
    if anchors.is_empty() {
        return Err(PlatformError::InvalidModel {
            reason: "latency fit requires at least one anchor".into(),
        });
    }
    for &(f, t) in anchors {
        if f.as_ghz() <= 0.0 || t.as_secs() <= 0.0 {
            return Err(PlatformError::InvalidModel {
                reason: format!(
                    "latency anchors must be positive, got ({:.3} GHz, {:.6} s)",
                    f.as_ghz(),
                    t.as_secs()
                ),
            });
        }
    }
    if anchors.len() == 1 {
        let (f, t) = anchors[0];
        return Ok(InverseAffineFit {
            a_ghz_s: t.as_secs() * f.as_ghz(),
            b_s: 0.0,
        });
    }

    let xs: Vec<f64> = anchors.iter().map(|&(f, _)| 1.0 / f.as_ghz()).collect();
    let ys: Vec<f64> = anchors.iter().map(|&(_, t)| t.as_secs()).collect();
    let n = xs.len() as f64;
    let mean_x = xs.iter().sum::<f64>() / n;
    let mean_y = ys.iter().sum::<f64>() / n;
    let sxx: f64 = xs.iter().map(|x| (x - mean_x).powi(2)).sum();
    if sxx <= f64::EPSILON {
        return Err(PlatformError::InvalidModel {
            reason: "latency anchors must span at least two distinct frequencies".into(),
        });
    }
    let sxy: f64 = xs
        .iter()
        .zip(&ys)
        .map(|(x, y)| (x - mean_x) * (y - mean_y))
        .sum();
    let mut a = sxy / sxx;
    let mut b = mean_y - a * mean_x;
    if b < 0.0 {
        // Re-fit through the origin: a = Σxy / Σx².
        b = 0.0;
        a = xs.iter().zip(&ys).map(|(x, y)| x * y).sum::<f64>()
            / xs.iter().map(|x| x * x).sum::<f64>();
    }
    if a < 0.0 {
        return Err(PlatformError::InvalidModel {
            reason: "latency anchors imply latency increasing with frequency".into(),
        });
    }
    Ok(InverseAffineFit { a_ghz_s: a, b_s: b })
}

/// Piecewise-linear interpolation of `y` over a strictly increasing `x`
/// grid, extrapolating with the first/last segment slopes.
///
/// Shared by the power model (x = `V²·f`) and other anchored curves.
///
/// # Panics
///
/// Panics if `points` is empty; callers validate at construction.
pub fn interp_extrapolate(points: &[(f64, f64)], x: f64) -> f64 {
    assert!(!points.is_empty(), "interpolation needs at least one point");
    if points.len() == 1 {
        // Single anchor: scale proportionally through the origin, which for
        // power-vs-V²f corresponds to pure dynamic scaling.
        let (x0, y0) = points[0];
        return if x0.abs() < f64::EPSILON {
            y0
        } else {
            y0 * x / x0
        };
    }
    let first = points[0];
    let last = points[points.len() - 1];
    let segment = |p0: (f64, f64), p1: (f64, f64), x: f64| {
        let t = (x - p0.0) / (p1.0 - p0.0);
        p0.1 + t * (p1.1 - p0.1)
    };
    if x <= first.0 {
        return segment(first, points[1], x);
    }
    if x >= last.0 {
        return segment(points[points.len() - 2], last, x);
    }
    for pair in points.windows(2) {
        if x >= pair[0].0 && x <= pair[1].0 {
            return segment(pair[0], pair[1], x);
        }
    }
    unreachable!("x within range must be bracketed")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mhz(m: f64) -> Freq {
        Freq::from_mhz(m)
    }
    fn ms(m: f64) -> TimeSpan {
        TimeSpan::from_millis(m)
    }

    #[test]
    fn single_anchor_exact() {
        let fit = fit_inverse_affine(&[(mhz(1000.0), ms(204.0))]).unwrap();
        assert!((fit.eval(mhz(1000.0)).as_millis() - 204.0).abs() < 1e-9);
        assert!((fit.eval(mhz(500.0)).as_millis() - 408.0).abs() < 1e-9);
        assert_eq!(fit.b_s, 0.0);
    }

    #[test]
    fn fits_paper_a15_anchors_within_two_percent() {
        // Odroid XU3 A15 anchors from Table I of the paper.
        let anchors = [
            (mhz(200.0), ms(1020.0)),
            (mhz(1000.0), ms(204.0)),
            (mhz(1800.0), ms(117.0)),
        ];
        let fit = fit_inverse_affine(&anchors).unwrap();
        assert!(
            fit.max_rel_error(&anchors) < 0.02,
            "err = {}",
            fit.max_rel_error(&anchors)
        );
        assert!(fit.a_ghz_s > 0.19 && fit.a_ghz_s < 0.21);
        assert!(fit.b_s >= 0.0);
    }

    #[test]
    fn fits_paper_a7_anchors_within_two_percent() {
        let anchors = [
            (mhz(200.0), ms(1780.0)),
            (mhz(700.0), ms(504.0)),
            (mhz(1300.0), ms(280.0)),
        ];
        let fit = fit_inverse_affine(&anchors).unwrap();
        assert!(fit.max_rel_error(&anchors) < 0.02);
        assert!(fit.a_ghz_s > 0.34 && fit.a_ghz_s < 0.37);
    }

    #[test]
    fn negative_intercept_clamped_to_origin_fit() {
        // Data with slight super-linear speedup would yield b < 0; the fit
        // must clamp and stay positive everywhere.
        let anchors = [(mhz(500.0), ms(100.0)), (mhz(1000.0), ms(45.0))];
        let fit = fit_inverse_affine(&anchors).unwrap();
        assert!(fit.b_s >= 0.0);
        assert!(fit.eval(mhz(4000.0)).as_secs() > 0.0);
    }

    #[test]
    fn rejects_empty_and_degenerate_input() {
        assert!(fit_inverse_affine(&[]).is_err());
        assert!(fit_inverse_affine(&[(mhz(0.0), ms(1.0))]).is_err());
        assert!(fit_inverse_affine(&[(mhz(100.0), ms(0.0))]).is_err());
        assert!(fit_inverse_affine(&[(mhz(100.0), ms(1.0)), (mhz(100.0), ms(2.0))]).is_err());
    }

    #[test]
    fn interp_passes_through_anchors() {
        let pts = [(1.0, 10.0), (2.0, 30.0), (4.0, 50.0)];
        for &(x, y) in &pts {
            assert!((interp_extrapolate(&pts, x) - y).abs() < 1e-12);
        }
    }

    #[test]
    fn interp_linear_between_and_extrapolates_beyond() {
        let pts = [(1.0, 10.0), (2.0, 30.0), (4.0, 50.0)];
        assert!((interp_extrapolate(&pts, 1.5) - 20.0).abs() < 1e-12);
        assert!((interp_extrapolate(&pts, 3.0) - 40.0).abs() < 1e-12);
        // Extrapolation continues end segments.
        assert!((interp_extrapolate(&pts, 0.0) - (-10.0)).abs() < 1e-12);
        assert!((interp_extrapolate(&pts, 5.0) - 60.0).abs() < 1e-12);
    }

    #[test]
    fn interp_single_point_scales_proportionally() {
        let pts = [(2.0, 8.0)];
        assert!((interp_extrapolate(&pts, 1.0) - 4.0).abs() < 1e-12);
        assert!((interp_extrapolate(&pts, 4.0) - 16.0).abs() < 1e-12);
    }
}
