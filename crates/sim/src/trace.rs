//! Simulation traces: periodic samples, RTM decisions, and violation
//! events.

use std::fmt;
use std::fmt::Write as _;

use eml_core::knobs::KnobCommand;
use eml_platform::units::{Celsius, Energy, Power, TimeSpan};

/// Per-application state captured in one sample.
#[derive(Debug, Clone, PartialEq)]
pub struct AppSample {
    /// Application name.
    pub app: String,
    /// Cluster the app currently runs on (empty if unplaced).
    pub cluster: String,
    /// Cluster frequency in MHz.
    pub freq_mhz: f64,
    /// Cores in use.
    pub cores: u32,
    /// Dynamic-DNN width level index (`usize::MAX` for rigid apps).
    pub level: usize,
    /// Predicted per-inference latency in ms (0 for rigid apps).
    pub latency_ms: f64,
    /// Whether all requirements are currently met.
    pub met: bool,
}

/// One periodic sample of global state.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Simulation time in seconds.
    pub at_secs: f64,
    /// Average SoC power over the last interval.
    pub power: Power,
    /// Die temperature.
    pub temp: Celsius,
    /// Whether the thermal throttle is engaged.
    pub throttled: bool,
    /// Per-application state.
    pub apps: Vec<AppSample>,
}

/// Why the RTM was invoked.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DecisionReason {
    /// An application arrived.
    AppArrived(String),
    /// An application departed.
    AppDeparted(String),
    /// An application's requirements changed.
    RequirementChange(String),
    /// The die exceeded the thermal limit.
    ThermalViolation,
    /// The die cooled below the hysteresis threshold.
    ThermalRecovered,
    /// The proactive governor predicted an unsustainable steady state and
    /// throttled before any violation occurred.
    ProactiveThrottle,
}

impl fmt::Display for DecisionReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::AppArrived(a) => write!(f, "app `{a}` arrived"),
            Self::AppDeparted(a) => write!(f, "app `{a}` departed"),
            Self::RequirementChange(a) => write!(f, "requirements of `{a}` changed"),
            Self::ThermalViolation => write!(f, "thermal limit exceeded"),
            Self::ThermalRecovered => write!(f, "thermal recovery"),
            Self::ProactiveThrottle => {
                write!(f, "proactive throttle (predicted over-limit steady state)")
            }
        }
    }
}

/// One RTM decision record.
#[derive(Debug, Clone)]
pub struct Decision {
    /// Simulation time in seconds.
    pub at_secs: f64,
    /// What triggered the decision.
    pub reason: DecisionReason,
    /// Human-readable allocation summary.
    pub allocation: String,
    /// The knob commands issued.
    pub commands: Vec<KnobCommand>,
}

/// Aggregate statistics of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSummary {
    /// Total simulated time.
    pub duration: TimeSpan,
    /// Energy consumed over the run.
    pub total_energy: Energy,
    /// Peak die temperature.
    pub peak_temp: Celsius,
    /// Mean SoC power.
    pub mean_power: Power,
    /// Fraction of samples in which every app met its requirements.
    pub feasible_fraction: f64,
    /// Number of RTM decisions taken.
    pub decisions: usize,
    /// Number of thermal-violation events.
    pub thermal_violations: usize,
}

/// The full record of one simulation run.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Periodic samples, in time order.
    pub samples: Vec<Sample>,
    /// RTM decisions, in time order.
    pub decisions: Vec<Decision>,
}

impl Trace {
    /// Summarises the run.
    ///
    /// Energy integrates `power × dt` between consecutive samples.
    pub fn summary(&self) -> TraceSummary {
        let duration = self
            .samples
            .last()
            .map(|s| TimeSpan::from_secs(s.at_secs))
            .unwrap_or(TimeSpan::ZERO);
        let mut energy = Energy::ZERO;
        for pair in self.samples.windows(2) {
            let dt = TimeSpan::from_secs(pair[1].at_secs - pair[0].at_secs);
            energy += pair[1].power * dt;
        }
        let peak_temp = self
            .samples
            .iter()
            .map(|s| s.temp)
            .fold(Celsius::from_celsius(f64::NEG_INFINITY), Celsius::max);
        let mean_power = if duration.as_secs() > 0.0 {
            energy / duration
        } else {
            Power::ZERO
        };
        let feasible = self
            .samples
            .iter()
            .filter(|s| s.apps.iter().all(|a| a.met))
            .count();
        TraceSummary {
            duration,
            total_energy: energy,
            peak_temp,
            mean_power,
            feasible_fraction: if self.samples.is_empty() {
                1.0
            } else {
                feasible as f64 / self.samples.len() as f64
            },
            decisions: self.decisions.len(),
            thermal_violations: self
                .decisions
                .iter()
                .filter(|d| d.reason == DecisionReason::ThermalViolation)
                .count(),
        }
    }

    /// Renders the decision log as human-readable lines.
    pub fn decision_log(&self) -> String {
        let mut out = String::new();
        for d in &self.decisions {
            let _ = writeln!(out, "[{:7.2}s] {}", d.at_secs, d.reason);
            for line in d.allocation.lines() {
                let _ = writeln!(out, "            {line}");
            }
        }
        out
    }

    /// State of one application at a given time, from the nearest sample at
    /// or before `t`.
    pub fn app_at(&self, t: f64, app: &str) -> Option<&AppSample> {
        self.samples
            .iter()
            .rev()
            .find(|s| s.at_secs <= t + 1e-9)
            .and_then(|s| s.apps.iter().find(|a| a.app == app))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(t: f64, p: f64, temp: f64, met: bool) -> Sample {
        Sample {
            at_secs: t,
            power: Power::from_watts(p),
            temp: Celsius::from_celsius(temp),
            throttled: false,
            apps: vec![AppSample {
                app: "a".into(),
                cluster: "npu".into(),
                freq_mhz: 960.0,
                cores: 1,
                level: 3,
                latency_ms: 2.5,
                met,
            }],
        }
    }

    #[test]
    fn summary_integrates_energy_and_tracks_peak() {
        let trace = Trace {
            samples: vec![sample(0.0, 2.0, 30.0, true), sample(1.0, 4.0, 50.0, false)],
            decisions: vec![],
        };
        let s = trace.summary();
        assert!((s.total_energy.as_joules() - 4.0).abs() < 1e-9);
        assert_eq!(s.peak_temp, Celsius::from_celsius(50.0));
        assert!((s.feasible_fraction - 0.5).abs() < 1e-9);
        assert_eq!(s.duration, TimeSpan::from_secs(1.0));
    }

    #[test]
    fn empty_trace_summary_is_zeroed() {
        let s = Trace::default().summary();
        assert_eq!(s.duration, TimeSpan::ZERO);
        assert_eq!(s.total_energy, Energy::ZERO);
        assert_eq!(s.decisions, 0);
        assert_eq!(s.feasible_fraction, 1.0);
    }

    #[test]
    fn app_at_finds_latest_sample() {
        let trace = Trace {
            samples: vec![sample(0.0, 1.0, 30.0, true), sample(2.0, 1.0, 30.0, false)],
            decisions: vec![],
        };
        assert!(trace.app_at(1.0, "a").unwrap().met);
        assert!(!trace.app_at(2.5, "a").unwrap().met);
        assert!(trace.app_at(1.0, "missing").is_none());
    }

    #[test]
    fn decision_reason_display() {
        assert_eq!(
            DecisionReason::AppArrived("x".into()).to_string(),
            "app `x` arrived"
        );
        assert_eq!(
            DecisionReason::ThermalViolation.to_string(),
            "thermal limit exceeded"
        );
    }
}
