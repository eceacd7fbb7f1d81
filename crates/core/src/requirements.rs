//! Application performance requirements (budgets/targets).
//!
//! The paper's RTM mediates between *application requirements* (latency,
//! energy, frame-rate, accuracy — Fig 1, §IV) and device limits (power,
//! temperature). A [`Requirements`] value captures one application's
//! constraints; feasibility of an operating point is checked with
//! [`Requirements::satisfied_by`].

use std::fmt;

use eml_platform::units::{Energy, Power, TimeSpan};

use crate::opspace::EvaluatedPoint;

/// Constraint set for one application.
///
/// All fields are optional; an empty `Requirements` accepts every operating
/// point. Construct with the builder methods:
///
/// ```
/// use eml_core::requirements::Requirements;
/// use eml_platform::units::{Energy, TimeSpan};
///
/// // The paper's first worked-example budget: 400 ms and 100 mJ.
/// let req = Requirements::new()
///     .with_max_latency(TimeSpan::from_millis(400.0))
///     .with_max_energy(Energy::from_millijoules(100.0));
/// assert!(req.max_latency().is_some());
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Requirements {
    max_latency: Option<TimeSpan>,
    max_energy: Option<Energy>,
    max_power: Option<Power>,
    min_top1: Option<f64>,
    target_fps: Option<f64>,
}

impl Requirements {
    /// An unconstrained requirement set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the per-inference latency budget.
    #[must_use]
    pub fn with_max_latency(mut self, t: TimeSpan) -> Self {
        self.max_latency = Some(t);
        self
    }

    /// Sets the per-inference energy budget.
    #[must_use]
    pub fn with_max_energy(mut self, e: Energy) -> Self {
        self.max_energy = Some(e);
        self
    }

    /// Sets the average power budget for this application.
    #[must_use]
    pub fn with_max_power(mut self, p: Power) -> Self {
        self.max_power = Some(p);
        self
    }

    /// Sets the minimum acceptable top-1 accuracy in percent.
    #[must_use]
    pub fn with_min_top1(mut self, percent: f64) -> Self {
        self.min_top1 = Some(percent);
        self
    }

    /// Sets a frame-rate target; implies a latency budget of `1/fps`.
    #[must_use]
    pub fn with_target_fps(mut self, fps: f64) -> Self {
        self.target_fps = Some(fps);
        self
    }

    /// Latency budget, combining an explicit budget with any frame-rate
    /// target (whichever is tighter).
    pub fn max_latency(&self) -> Option<TimeSpan> {
        let fps_latency = self.target_fps.map(|f| TimeSpan::from_secs(1.0 / f));
        match (self.max_latency, fps_latency) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Whether `pt` meets every stated constraint.
    pub fn satisfied_by(&self, pt: &EvaluatedPoint) -> bool {
        self.violations(pt).is_empty()
    }

    /// Total normalised constraint excess of `pt`: the sum over violated
    /// constraints of `actual/budget − 1` (or the normalised accuracy
    /// shortfall). Zero iff feasible. Search policies use this as a smooth
    /// infeasibility gradient.
    pub fn violation_excess(&self, pt: &EvaluatedPoint) -> f64 {
        self.violations(pt)
            .iter()
            .map(|v| match *v {
                Violation::Latency { actual, budget } => actual.as_secs() / budget.as_secs() - 1.0,
                Violation::Energy { actual, budget } => {
                    actual.as_joules() / budget.as_joules() - 1.0
                }
                Violation::Power { actual, budget } => actual.as_watts() / budget.as_watts() - 1.0,
                Violation::Accuracy { actual, min } => (min - actual) / min.max(1e-9),
            })
            .sum()
    }

    /// Lists the constraints `pt` violates (empty = feasible).
    pub fn violations(&self, pt: &EvaluatedPoint) -> Vec<Violation> {
        let mut v = Vec::new();
        if let Some(budget) = self.max_latency() {
            if pt.latency > budget {
                v.push(Violation::Latency {
                    actual: pt.latency,
                    budget,
                });
            }
        }
        if let Some(budget) = self.max_energy {
            if pt.energy > budget {
                v.push(Violation::Energy {
                    actual: pt.energy,
                    budget,
                });
            }
        }
        if let Some(budget) = self.max_power {
            if pt.power > budget {
                v.push(Violation::Power {
                    actual: pt.power,
                    budget,
                });
            }
        }
        if let Some(min) = self.min_top1 {
            if pt.top1_percent < min {
                v.push(Violation::Accuracy {
                    actual: pt.top1_percent,
                    min,
                });
            }
        }
        v
    }
}

/// A single violated constraint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Violation {
    /// Latency exceeded the budget.
    Latency {
        /// Predicted latency.
        actual: TimeSpan,
        /// The budget.
        budget: TimeSpan,
    },
    /// Energy exceeded the budget.
    Energy {
        /// Predicted energy.
        actual: Energy,
        /// The budget.
        budget: Energy,
    },
    /// Power exceeded the budget.
    Power {
        /// Predicted power.
        actual: Power,
        /// The budget.
        budget: Power,
    },
    /// Accuracy fell below the minimum.
    Accuracy {
        /// Expected accuracy (percent).
        actual: f64,
        /// Minimum accuracy (percent).
        min: f64,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Latency { actual, budget } => write!(
                f,
                "latency {:.1} ms over budget {:.1} ms",
                actual.as_millis(),
                budget.as_millis()
            ),
            Self::Energy { actual, budget } => write!(
                f,
                "energy {:.1} mJ over budget {:.1} mJ",
                actual.as_millijoules(),
                budget.as_millijoules()
            ),
            Self::Power { actual, budget } => write!(
                f,
                "power {:.0} mW over budget {:.0} mW",
                actual.as_milliwatts(),
                budget.as_milliwatts()
            ),
            Self::Accuracy { actual, min } => {
                write!(f, "accuracy {actual:.1}% below minimum {min:.1}%")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opspace::OperatingPoint;
    use eml_dnn::WidthLevel;
    use eml_platform::ClusterId;

    fn point(lat_ms: f64, e_mj: f64, p_mw: f64, top1: f64) -> EvaluatedPoint {
        EvaluatedPoint {
            op: OperatingPoint {
                cluster: ClusterId::from_index(0),
                cores: 4,
                opp_index: 0,
                level: WidthLevel(0),
            },
            latency: TimeSpan::from_millis(lat_ms),
            energy: Energy::from_millijoules(e_mj),
            power: Power::from_milliwatts(p_mw),
            top1_percent: top1,
        }
    }

    #[test]
    fn empty_requirements_accept_anything() {
        let req = Requirements::new();
        assert!(req.satisfied_by(&point(1e9, 1e9, 1e9, 0.0)));
    }

    #[test]
    fn each_constraint_is_checked() {
        let req = Requirements::new()
            .with_max_latency(TimeSpan::from_millis(100.0))
            .with_max_energy(Energy::from_millijoules(50.0))
            .with_max_power(Power::from_milliwatts(500.0))
            .with_min_top1(60.0);
        assert!(
            req.satisfied_by(&point(100.0, 50.0, 500.0, 60.0)),
            "boundary is feasible"
        );
        assert_eq!(req.violations(&point(101.0, 50.0, 500.0, 60.0)).len(), 1);
        assert_eq!(req.violations(&point(100.0, 51.0, 500.0, 60.0)).len(), 1);
        assert_eq!(req.violations(&point(100.0, 50.0, 501.0, 60.0)).len(), 1);
        assert_eq!(req.violations(&point(100.0, 50.0, 500.0, 59.9)).len(), 1);
        assert_eq!(req.violations(&point(200.0, 99.0, 999.0, 10.0)).len(), 4);
    }

    #[test]
    fn fps_implies_latency_budget() {
        let req = Requirements::new().with_target_fps(25.0);
        assert_eq!(req.max_latency(), Some(TimeSpan::from_secs(0.04)));
        // Tighter of the two wins.
        let req = req.with_max_latency(TimeSpan::from_millis(30.0));
        assert_eq!(req.max_latency(), Some(TimeSpan::from_millis(30.0)));
        let req = Requirements::new()
            .with_target_fps(25.0)
            .with_max_latency(TimeSpan::from_millis(500.0));
        assert_eq!(req.max_latency(), Some(TimeSpan::from_secs(0.04)));
    }

    #[test]
    fn violations_display() {
        let req = Requirements::new().with_max_latency(TimeSpan::from_millis(10.0));
        let v = req.violations(&point(20.0, 0.0, 0.0, 100.0));
        assert!(v[0].to_string().contains("20.0 ms over budget 10.0 ms"));
    }
}
