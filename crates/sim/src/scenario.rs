//! Pre-built scenarios, foremost the paper's Fig 2 runtime storyline.

use eml_core::objective::Objective;
use eml_core::requirements::Requirements;
use eml_core::rtm::{AppSpec, DnnAppSpec, RigidAppSpec};
use eml_dnn::profile::{DnnProfile, LevelSpec};
use eml_platform::paper;
use eml_platform::presets;
use eml_platform::soc::CoreKind;
use eml_platform::units::TimeSpan;
use eml_platform::Soc;

use crate::simulator::{Action, ScenarioEvent, SimConfig, Simulator};

/// Names used by the Fig 2 scenario.
pub mod names {
    /// The always-on camera DNN (DNN 1 in the paper).
    pub const DNN1: &str = "dnn1";
    /// The heavier, latency-critical DNN (DNN 2).
    pub const DNN2: &str = "dnn2";
    /// The VR/AR application.
    pub const VRAR: &str = "vr-ar";
}

/// A dynamic-DNN profile whose workload is `scale ×` the paper's reference
/// CNN at every width (used for the heavier DNN 2).
pub fn scaled_reference_profile(name: &str, scale: f64) -> DnnProfile {
    let base = presets::reference_workload();
    let levels = paper::WIDTH_LEVELS
        .iter()
        .zip(paper::FIG4B_TOP1)
        .map(|(&frac, top1)| LevelSpec {
            cost_fraction: frac,
            workload: base.scaled(frac * scale),
            top1_percent: top1,
            param_bytes: base.param_bytes() * frac * scale,
        })
        .collect();
    DnnProfile::new(name, levels, base.param_bytes() * scale)
        .expect("scaled reference levels are valid")
}

/// DNN 1: the paper's always-on classifier, 90 fps-class latency budget.
pub fn dnn1() -> AppSpec {
    AppSpec::Dnn(DnnAppSpec {
        name: names::DNN1.into(),
        profile: DnnProfile::reference(names::DNN1),
        requirements: Requirements::new().with_max_latency(TimeSpan::from_millis(11.0)),
        priority: 1,
        objective: None,
    })
}

/// DNN 2: a 4× heavier detector with a 60 fps deadline — "higher
/// requirements on the desired classification execution time" (Fig 2b).
pub fn dnn2() -> AppSpec {
    AppSpec::Dnn(DnnAppSpec {
        name: names::DNN2.into(),
        profile: scaled_reference_profile(names::DNN2, 4.0),
        requirements: Requirements::new().with_target_fps(60.0),
        priority: 2,
        objective: None,
    })
}

/// DNN 2 after the t = 25 s requirement change: the user relaxes accuracy
/// to ≥ 55 % and prefers energy (Fig 2d).
fn dnn2_relaxed() -> AppSpec {
    AppSpec::Dnn(DnnAppSpec {
        name: names::DNN2.into(),
        profile: scaled_reference_profile(names::DNN2, 4.0),
        requirements: Requirements::new()
            .with_target_fps(60.0)
            .with_min_top1(55.0),
        priority: 2,
        objective: Some(Objective::MinEnergy),
    })
}

/// The VR/AR application: a rigid GPU renderer (Fig 2c).
fn vr_ar() -> AppSpec {
    AppSpec::Rigid(RigidAppSpec {
        name: names::VRAR.into(),
        preferred: vec![CoreKind::Gpu],
        utilization: 0.9,
        priority: 3,
    })
}

/// Builds the paper's Fig 2 scenario on the flagship SoC:
///
/// - **t = 0 s** — DNN 1 arrives (runs alone on the NPU);
/// - **t = 5 s** — DNN 2 arrives (takes the NPU; DNN 1 migrates to the GPU
///   and compresses);
/// - **t = 15 s** — VR/AR claims the GPU (DNN 1 moves to the big CPU
///   cluster); the die later exceeds its thermal limit and the reactive
///   governor throttles;
/// - **t = 25 s** — DNN 2's accuracy requirement is relaxed; it compresses
///   and both DNNs end up sharing the NPU, DNN 1 back at full width.
///
/// # Errors
///
/// Never fails for the built-in configuration; returns the simulator ready
/// to [`run`](Simulator::run).
pub fn fig2_scenario() -> crate::error::Result<Simulator> {
    fig2_scenario_with(SimConfig::default())
}

/// [`fig2_scenario`] with custom simulation parameters.
///
/// # Errors
///
/// Returns [`crate::SimError::InvalidScenario`] if `cfg` cannot accommodate
/// the 25 s event timeline.
pub fn fig2_scenario_with(cfg: SimConfig) -> crate::error::Result<Simulator> {
    let events = vec![
        ScenarioEvent {
            at_secs: 0.0,
            action: Action::Arrive(dnn1()),
        },
        ScenarioEvent {
            at_secs: 5.0,
            action: Action::Arrive(dnn2()),
        },
        ScenarioEvent {
            at_secs: 15.0,
            action: Action::Arrive(vr_ar()),
        },
        ScenarioEvent {
            at_secs: 25.0,
            action: Action::Update(dnn2_relaxed()),
        },
    ];
    Simulator::new(fig2_soc(), events, cfg)
}

/// The SoC the Fig 2 scenario runs on.
pub fn fig2_soc() -> Soc {
    presets::flagship()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::DecisionReason;

    /// End-to-end reproduction of the paper's Fig 2 storyline.
    #[test]
    fn fig2_storyline_reproduced() {
        let sim = fig2_scenario().unwrap();
        let trace = sim.run().unwrap();

        // (a) t ∈ [0, 5): DNN1 alone on the NPU at full width.
        let a = trace.app_at(3.0, names::DNN1).expect("dnn1 sampled");
        assert_eq!(a.cluster, "npu", "t=3s: {a:?}");
        assert_eq!(a.level, 3);

        // (b) t ∈ [5, 15): DNN2 on the NPU exclusively at full width; DNN1
        // migrated to the GPU, compressed below full width.
        let d2 = trace.app_at(10.0, names::DNN2).unwrap();
        assert_eq!(d2.cluster, "npu", "t=10s: {d2:?}");
        assert_eq!(d2.level, 3);
        let d1 = trace.app_at(10.0, names::DNN1).unwrap();
        assert_eq!(d1.cluster, "gpu", "t=10s: {d1:?}");
        assert!(d1.level < 3, "dnn1 compresses on the GPU: {d1:?}");

        // (c) after t = 15: VR/AR on the GPU; DNN1 on the big CPU cluster.
        let vr = trace.app_at(16.0, names::VRAR).unwrap();
        assert_eq!(vr.cluster, "gpu");
        let d1 = trace.app_at(16.0, names::DNN1).unwrap();
        assert_eq!(d1.cluster, "big", "t=16s: {d1:?}");
        assert_eq!(d1.cores, 4, "all four big cores initially: {d1:?}");

        // A thermal violation occurs "shortly after" and throttling
        // shrinks DNN1's core allocation.
        let violation = trace
            .decisions
            .iter()
            .find(|d| d.reason == DecisionReason::ThermalViolation)
            .expect("thermal violation must occur");
        assert!(
            violation.at_secs > 15.0 && violation.at_secs < 25.0,
            "violation at {} s",
            violation.at_secs
        );
        let d1 = trace.app_at(violation.at_secs + 1.0, names::DNN1).unwrap();
        assert!(d1.cores < 4, "throttled core allocation: {d1:?}");
        assert_eq!(d1.level, 0, "compressed to the 25% model: {d1:?}");

        // (d) after t = 25: DNN2 compresses; both DNNs share the NPU; DNN1
        // recovers full width.
        let d2 = trace.app_at(30.0, names::DNN2).unwrap();
        assert_eq!(d2.cluster, "npu", "t=30s: {d2:?}");
        assert!(d2.level < 3, "dnn2 compressed: {d2:?}");
        let d1 = trace.app_at(30.0, names::DNN1).unwrap();
        assert_eq!(d1.cluster, "npu", "t=30s: {d1:?}");
        assert_eq!(d1.level, 3, "dnn1 recovers accuracy: {d1:?}");

        // The die must never sit above the limit at the end (the governor
        // cools it down).
        let last = trace.samples.last().unwrap();
        assert!(
            last.temp.as_celsius() < sim.soc().thermal().limit.as_celsius(),
            "end temperature {}",
            last.temp
        );
    }

    #[test]
    fn fig2_summary_counts_events() {
        let trace = fig2_scenario().unwrap().run().unwrap();
        let s = trace.summary();
        assert!(
            s.decisions >= 5,
            "arrivals + change + thermal events: {s:?}"
        );
        assert_eq!(s.thermal_violations, 1, "{s:?}");
        assert!(s.peak_temp.as_celsius() > fig2_soc().thermal().limit.as_celsius());
        assert!(s.total_energy.as_joules() > 0.0);
        // Every phase's app is sampled, over more than 100 (sample, app)
        // rows.
        for app in [names::DNN1, names::DNN2, names::VRAR] {
            assert!(
                trace
                    .samples
                    .iter()
                    .any(|x| x.apps.iter().any(|a| a.app == app)),
                "{app} never sampled"
            );
        }
        let rows: usize = trace.samples.iter().map(|x| x.apps.len().max(1)).sum();
        assert!(rows > 100, "{rows} rows");
        // Requirements are met most of the time, but not during the
        // thermal squeeze.
        assert!(
            s.feasible_fraction > 0.5 && s.feasible_fraction < 1.0,
            "{s:?}"
        );
    }

    #[test]
    fn proactive_policy_prevents_thermal_violations() {
        use crate::simulator::{SimConfig, ThermalPolicy};
        let sim = fig2_scenario_with(SimConfig {
            thermal_policy: ThermalPolicy::Proactive,
            ..SimConfig::default()
        })
        .unwrap();
        let trace = sim.run().unwrap();
        let s = trace.summary();
        assert_eq!(s.thermal_violations, 0, "proactive: no violations: {s:?}");
        let limit = fig2_soc().thermal().limit.as_celsius();
        assert!(
            s.peak_temp.as_celsius() <= limit + 0.5,
            "peak {:.1} must stay at/below the limit",
            s.peak_temp.as_celsius()
        );
        // The throttle engaged proactively at the VR/AR arrival.
        assert!(trace
            .decisions
            .iter()
            .any(|d| d.reason == DecisionReason::ProactiveThrottle));
        // Cost of safety: more time in degraded configurations than the
        // reactive run.
        let reactive = fig2_scenario().unwrap().run().unwrap().summary();
        assert!(s.feasible_fraction <= reactive.feasible_fraction + 1e-9);
    }

    #[test]
    fn scaled_profile_levels() {
        let p = scaled_reference_profile("x", 4.0);
        assert_eq!(p.level_count(), 4);
        let full = p.workload(eml_dnn::WidthLevel(3)).unwrap();
        assert!((full.macs() / presets::REFERENCE_MACS - 4.0).abs() < 1e-9);
    }
}
