//! The time-stepped system simulator with the RTM in the loop.
//!
//! The simulator advances in fixed steps. At each step it:
//!
//! 1. applies any scenario events that are due (arrivals, departures,
//!    requirement changes) and re-invokes the RTM when they occur;
//! 2. computes the SoC power draw from the current allocation, duty-cycling
//!    each DNN by `latency / period` (an application that finishes early
//!    idles until its next frame);
//! 3. advances the lumped-RC thermal state;
//! 4. runs the *reactive thermal governor*: when the die exceeds its limit
//!    the RTM is re-invoked with a tightened power cap
//!    (`sustainable × thermal_backoff`); when it cools below
//!    `limit − hysteresis` the cap is lifted — the t = 15 s dynamics of the
//!    paper's Fig 2.
//!
//! Everything observable is recorded in a [`Trace`].

use eml_core::knobs::commands_for;
use eml_core::rtm::{Allocation, AppSpec, Rtm, RtmConfig};
use eml_platform::thermal::ThermalState;
use eml_platform::units::{Power, TimeSpan};
use eml_platform::Soc;

use crate::error::{Result, SimError};
use crate::trace::{AppSample, Decision, DecisionReason, Sample, Trace};

/// A timed scenario event.
#[derive(Debug, Clone)]
pub struct ScenarioEvent {
    /// When the event fires (seconds).
    pub at_secs: f64,
    /// What happens.
    pub action: Action,
}

/// Scenario actions.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum Action {
    /// A new application starts.
    Arrive(AppSpec),
    /// An application stops (by name).
    Depart(String),
    /// Replace an application's spec (requirement/objective change).
    Update(AppSpec),
    /// Inject a hostile event into the serving layer
    /// ([`ExecutionBackend::on_chaos`]). Chaos is *not* a decision
    /// trigger — the RTM is not re-invoked; the point is to watch the
    /// serving layer absorb the fault between allocation epochs.
    /// Analytic runs (no backend) ignore chaos events.
    Chaos {
        /// The targeted application.
        app: String,
        /// What happens.
        fault: ChaosFault,
    },
}

/// A hostile serving-layer event — the one fault vocabulary of the
/// workspace. It is defined here, free of any serving-crate dependency,
/// so scenarios stay self-contained; `eml-serve` re-exports it as its
/// `FaultKind`, so a scheduled fault plan, a runtime one-shot and a
/// scenario's chaos action all speak this type and hostile schedules
/// replay bit-reproducibly alongside arrivals and departures.
/// Exhaustive on purpose: every consumer is in-tree, and a new kind
/// must not reach the executor as a silent no-op.
#[derive(Debug, Clone, PartialEq)]
pub enum ChaosFault {
    /// Panic inside the batched forward pass, within the executor's
    /// containment: every rider of the batch receives a typed
    /// inference error and the driver keeps serving.
    PanicForward,
    /// Panic *outside* the forward's containment — kills the serving
    /// thread mid-batch, exercising the watchdog's supervised restart
    /// (the in-flight batch is failed with a typed error and the
    /// restart is counted against the app).
    CrashThread,
    /// Spin-delays the batched forward by the given span (a synthetic
    /// interference burst). The injected delay is excluded from the
    /// micro-batcher's service-time estimate so batch coalescing stays
    /// deterministic across a spike.
    LatencySpike(TimeSpan),
    /// Fails the app's next knob actuation (counted per cause; the
    /// knob is dropped, the model's operating point is left untouched).
    KnobFailure,
    /// Enqueues this many synthetic copies of the triggering batch's
    /// first sample behind it (an overload burst). Injection stops at
    /// queue capacity; injected requests are counted apart from
    /// submitted ones.
    QueueStorm(usize),
}

/// Thermal-management policy of the in-loop governor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ThermalPolicy {
    /// React after the die exceeds its limit (the paper's Fig 2 sequence).
    #[default]
    Reactive,
    /// Throttle as soon as the *predicted steady-state* temperature of the
    /// current allocation exceeds the limit — trades sustained application
    /// performance for zero thermal violations (an ablation the paper's
    /// §V "temperature ... monitored ... DVFS could be then applied"
    /// discussion motivates).
    Proactive,
}

/// Simulation parameters.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Step size.
    pub dt: TimeSpan,
    /// Total simulated duration.
    pub duration: TimeSpan,
    /// Sampling interval for the trace.
    pub sample_every: TimeSpan,
    /// Power-cap fraction of sustainable power applied while throttling.
    pub thermal_backoff: f64,
    /// Degrees below the limit at which the throttle is released.
    pub thermal_hysteresis: f64,
    /// When to throttle.
    pub thermal_policy: ThermalPolicy,
    /// RTM configuration used for normal (unthrottled) decisions.
    pub rtm: RtmConfig,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            dt: TimeSpan::from_millis(50.0),
            duration: TimeSpan::from_secs(40.0),
            sample_every: TimeSpan::from_millis(200.0),
            thermal_backoff: 0.6,
            thermal_hysteresis: 10.0,
            thermal_policy: ThermalPolicy::Reactive,
            rtm: RtmConfig::default(),
        }
    }
}

/// Executes allocation decisions against something real during a
/// simulation run — the bridge from the analytic latency model to
/// measured behaviour ("executed mode", [`Simulator::run_executed`]).
///
/// The simulator stays the clock and the policy engine; the backend
/// supplies *measured* per-app latencies. A serving layer implements
/// this by actuating each allocation on a live executor and timing
/// real inference requests (see `eml-serve`'s `ExecutedReplay`).
pub trait ExecutionBackend {
    /// A new allocation was decided at `at_secs`; actuate it.
    fn on_allocation(&mut self, at_secs: f64, allocation: &Allocation);

    /// Measures one inference of `app` at its current operating point,
    /// or `None` to keep the analytic prediction for this sample
    /// (unknown app, measurement unavailable).
    fn measure(&mut self, app: &str, predicted: TimeSpan) -> Option<TimeSpan>;

    /// A scenario [`Action::Chaos`] event fired at `at_secs`: inject
    /// the fault into the serving layer. Default: ignore (backends
    /// without a fault surface need not care).
    fn on_chaos(&mut self, _at_secs: f64, _app: &str, _fault: &ChaosFault) {}

    /// A scenario [`Action::Arrive`] event fired at `at_secs`: the app
    /// is about to join the allocation set. A serving backend registers
    /// the app here so the allocation that follows in the same step
    /// finds it live. Default: ignore. [`Action::Update`] events do
    /// *not* re-fire this hook — the app is already registered and its
    /// serving-side identity (model, deadline) is fixed at registration.
    fn on_arrive(&mut self, _at_secs: f64, _spec: &AppSpec) {}

    /// A scenario [`Action::Depart`] event fired at `at_secs`: the app
    /// is leaving. A serving backend deregisters it here (draining its
    /// queue and settling in-flight work) before the re-allocation that
    /// follows redistributes its band. Default: ignore.
    fn on_depart(&mut self, _at_secs: f64, _app: &str) {}
}

/// The simulator.
#[derive(Debug)]
pub struct Simulator {
    soc: Soc,
    cfg: SimConfig,
    events: Vec<ScenarioEvent>,
}

impl Simulator {
    /// Creates a simulator for `soc` with the given scenario events.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidScenario`] if events are not in
    /// non-decreasing time order, fire after the configured duration, or
    /// the step size is non-positive.
    pub fn new(soc: Soc, events: Vec<ScenarioEvent>, cfg: SimConfig) -> Result<Self> {
        if cfg.dt.as_secs() <= 0.0 {
            return Err(SimError::InvalidScenario {
                reason: "step size must be positive".into(),
            });
        }
        for pair in events.windows(2) {
            if pair[1].at_secs < pair[0].at_secs {
                return Err(SimError::InvalidScenario {
                    reason: format!(
                        "events out of order: {} s after {} s",
                        pair[1].at_secs, pair[0].at_secs
                    ),
                });
            }
        }
        if let Some(last) = events.last() {
            if last.at_secs > cfg.duration.as_secs() {
                return Err(SimError::InvalidScenario {
                    reason: format!(
                        "event at {} s is beyond the {} s duration",
                        last.at_secs,
                        cfg.duration.as_secs()
                    ),
                });
            }
        }
        Ok(Self { soc, cfg, events })
    }

    /// The simulated SoC.
    pub fn soc(&self) -> &Soc {
        &self.soc
    }

    fn throttle_cfg(&self, throttled: bool) -> RtmConfig {
        if throttled {
            RtmConfig {
                power_cap: Some(self.soc.thermal().sustainable_power() * self.cfg.thermal_backoff),
                ..self.cfg.rtm
            }
        } else {
            self.cfg.rtm
        }
    }

    /// Runs the simulation to completion and returns the trace.
    ///
    /// # Errors
    ///
    /// Propagates RTM errors (structural only; infeasibility is recorded in
    /// the trace, not raised).
    pub fn run(&self) -> Result<Trace> {
        self.run_impl(None)
    }

    /// Runs the scenario in *executed mode*: every allocation decision
    /// is actuated on `backend` and every sampled per-app latency is
    /// the backend's **measured** value (falling back to the analytic
    /// prediction only where the backend returns `None`). The
    /// requirement check of each sample (`met`) is re-evaluated against
    /// the measured latency, so a trace from this mode reports what the
    /// real kernels delivered, not what the model promised.
    ///
    /// Power/thermal stay analytic — the backend measures time, not
    /// watts.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Simulator::run`].
    pub fn run_executed(&self, backend: &mut dyn ExecutionBackend) -> Result<Trace> {
        self.run_impl(Some(backend))
    }

    fn run_impl(&self, mut backend: Option<&mut dyn ExecutionBackend>) -> Result<Trace> {
        let mut trace = Trace::default();
        let mut apps: Vec<AppSpec> = Vec::new();
        let mut allocation: Option<Allocation> = None;
        let mut thermal = ThermalState::at_ambient(self.soc.thermal());
        let mut throttled = false;
        let mut next_event = 0usize;
        let mut time = 0.0f64;
        let mut since_sample = f64::INFINITY; // sample at t = 0

        let steps = (self.cfg.duration.as_secs() / self.cfg.dt.as_secs()).round() as usize;
        for _ in 0..=steps {
            // 1. Scenario events due at this time.
            let mut reasons: Vec<DecisionReason> = Vec::new();
            while next_event < self.events.len() && self.events[next_event].at_secs <= time + 1e-9 {
                let ev = &self.events[next_event];
                match &ev.action {
                    Action::Arrive(spec) => {
                        apps.retain(|a| a.name() != spec.name());
                        apps.push(spec.clone());
                        if let Some(backend) = backend.as_deref_mut() {
                            backend.on_arrive(time, spec);
                        }
                        reasons.push(DecisionReason::AppArrived(spec.name().to_string()));
                    }
                    Action::Depart(name) => {
                        apps.retain(|a| a.name() != name);
                        if let Some(backend) = backend.as_deref_mut() {
                            backend.on_depart(time, name);
                        }
                        reasons.push(DecisionReason::AppDeparted(name.clone()));
                    }
                    Action::Update(spec) => {
                        apps.retain(|a| a.name() != spec.name());
                        apps.push(spec.clone());
                        reasons.push(DecisionReason::RequirementChange(spec.name().to_string()));
                    }
                    Action::Chaos { app, fault } => {
                        // Deliberately reason-free: chaos must not
                        // trigger a re-allocation (the serving layer
                        // absorbs it between epochs).
                        if let Some(backend) = backend.as_deref_mut() {
                            backend.on_chaos(time, app, fault);
                        }
                    }
                }
                next_event += 1;
            }

            // 2. Thermal governor transitions (reactive policy; also the
            // safety net under the proactive policy, where it should never
            // fire).
            let limit = self.soc.thermal().limit.as_celsius();
            let temp = thermal.die_temp().as_celsius();
            if !throttled && temp > limit {
                throttled = true;
                reasons.push(DecisionReason::ThermalViolation);
            } else if self.cfg.thermal_policy == ThermalPolicy::Reactive
                && throttled
                && temp < limit - self.cfg.thermal_hysteresis
            {
                throttled = false;
                reasons.push(DecisionReason::ThermalRecovered);
            }

            // 3. Re-allocate if anything happened. Under the proactive
            // policy, an unthrottled allocation whose steady-state
            // temperature would exceed the limit is redone with the
            // throttled cap before it ever runs.
            let mut had_decision = !reasons.is_empty();
            if !reasons.is_empty() {
                let mut alloc =
                    Rtm::new(self.throttle_cfg(throttled)).allocate(&self.soc, &apps)?;
                if self.cfg.thermal_policy == ThermalPolicy::Proactive {
                    let predicted = self
                        .soc
                        .thermal()
                        .steady_state(effective_power(&self.soc, &alloc, &apps));
                    if !throttled && predicted > self.soc.thermal().limit {
                        throttled = true;
                        reasons.push(DecisionReason::ProactiveThrottle);
                        alloc = Rtm::new(self.throttle_cfg(true)).allocate(&self.soc, &apps)?;
                    } else if throttled {
                        // Would the unthrottled allocation now be safe?
                        let candidate =
                            Rtm::new(self.throttle_cfg(false)).allocate(&self.soc, &apps)?;
                        let p = effective_power(&self.soc, &candidate, &apps);
                        if self.soc.thermal().steady_state(p) <= self.soc.thermal().limit {
                            throttled = false;
                            alloc = candidate;
                        }
                    }
                }
                for reason in reasons {
                    trace.decisions.push(Decision {
                        at_secs: time,
                        reason,
                        allocation: alloc.to_string(),
                        commands: commands_for(&alloc),
                    });
                }
                if let Some(backend) = backend.as_deref_mut() {
                    backend.on_allocation(time, &alloc);
                }
                allocation = Some(alloc);
                had_decision = true;
            }

            // 4. Power for this step.
            let power = allocation
                .as_ref()
                .map(|a| effective_power(&self.soc, a, &apps))
                .unwrap_or_else(|| self.soc.idle_power());

            // 5. Sampling, *before* the thermal step: the sample reflects
            // the state at time `t`, including the over-limit temperature
            // that triggered a violation. Decision steps always sample.
            since_sample += self.cfg.dt.as_secs();
            if had_decision {
                since_sample = f64::INFINITY;
            }
            if since_sample + 1e-9 >= self.cfg.sample_every.as_secs() {
                since_sample = 0.0;
                let mut app_rows = allocation.as_ref().map(app_samples).unwrap_or_default();
                if let (Some(backend), Some(alloc)) = (backend.as_deref_mut(), allocation.as_ref())
                {
                    apply_measured(backend, alloc, &apps, &mut app_rows);
                }
                trace.samples.push(Sample {
                    at_secs: time,
                    power,
                    temp: thermal.die_temp(),
                    throttled,
                    apps: app_rows,
                });
            }

            // 6. Thermal update.
            thermal.step(self.soc.thermal(), power, self.cfg.dt);

            time += self.cfg.dt.as_secs();
        }
        Ok(trace)
    }
}

/// Average SoC power of an allocation with per-DNN duty cycling: a DNN that
/// beats its deadline idles until the next frame, so its cluster's dynamic
/// power is scaled by `latency / period`.
fn effective_power(soc: &Soc, alloc: &Allocation, apps: &[AppSpec]) -> Power {
    let mut total = soc.idle_power();
    for r in &alloc.rigid {
        total += r.power;
    }
    for d in &alloc.dnns {
        let spec = apps.iter().find_map(|a| match a {
            AppSpec::Dnn(s) if s.name == d.app => Some(s),
            _ => None,
        });
        let period = spec
            .and_then(|s| s.requirements.max_latency())
            .map(|budget| budget.as_secs().max(d.point.latency.as_secs()))
            .unwrap_or(d.point.latency.as_secs());
        let duty = if period > 0.0 {
            (d.point.latency.as_secs() / period).clamp(0.0, 1.0)
        } else {
            1.0
        };
        let cluster = soc
            .cluster(d.point.op.cluster)
            .expect("allocation ids valid");
        let idle = cluster.power_model().idle_power();
        // Busy power of this app's share of the cluster, over the idle
        // floor already counted, weighted by duty. Shared accelerators
        // split the busy power among sharers (round-robin: each runs
        // 1/sharers of the time).
        let busy_over_idle = (d.point.power - idle) / d.sharers as f64;
        total += busy_over_idle * duty;
    }
    total
}

/// Executed mode: replaces each placed DNN's sampled latency with the
/// backend's measured value and re-checks its requirements against the
/// measurement.
fn apply_measured(
    backend: &mut dyn ExecutionBackend,
    alloc: &Allocation,
    apps: &[AppSpec],
    rows: &mut [AppSample],
) {
    for d in &alloc.dnns {
        let Some(measured) = backend.measure(&d.app, d.point.latency) else {
            continue;
        };
        let Some(row) = rows.iter_mut().find(|r| r.app == d.app) else {
            continue;
        };
        row.latency_ms = measured.as_millis();
        let spec = apps.iter().find_map(|a| match a {
            AppSpec::Dnn(s) if s.name == d.app => Some(s),
            _ => None,
        });
        if let Some(spec) = spec {
            let mut hyp = d.point;
            hyp.latency = measured;
            row.met = spec.requirements.violations(&hyp).is_empty();
        }
    }
}

fn app_samples(alloc: &Allocation) -> Vec<AppSample> {
    let mut out = Vec::with_capacity(alloc.dnns.len() + alloc.rigid.len());
    for r in &alloc.rigid {
        out.push(AppSample {
            app: r.app.clone(),
            cluster: r.cluster_name.clone(),
            freq_mhz: 0.0,
            cores: 0,
            level: usize::MAX,
            latency_ms: 0.0,
            met: true,
        });
    }
    for d in &alloc.dnns {
        out.push(AppSample {
            app: d.app.clone(),
            cluster: d.cluster_name.clone(),
            freq_mhz: d.freq.as_mhz(),
            cores: d.point.op.cores,
            level: d.point.op.level.index(),
            latency_ms: d.point.latency.as_millis(),
            met: d.violations.is_empty(),
        });
    }
    for name in &alloc.unplaced {
        out.push(AppSample {
            app: name.clone(),
            cluster: String::new(),
            freq_mhz: 0.0,
            cores: 0,
            level: usize::MAX,
            latency_ms: 0.0,
            met: false,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use eml_core::requirements::Requirements;
    use eml_core::rtm::DnnAppSpec;
    use eml_dnn::profile::DnnProfile;
    use eml_platform::presets;

    fn dnn_app(name: &str, latency_ms: f64) -> AppSpec {
        AppSpec::Dnn(DnnAppSpec {
            name: name.into(),
            profile: DnnProfile::reference(name),
            requirements: Requirements::new().with_max_latency(TimeSpan::from_millis(latency_ms)),
            priority: 1,
            objective: None,
        })
    }

    fn quick_cfg(duration_s: f64) -> SimConfig {
        SimConfig {
            duration: TimeSpan::from_secs(duration_s),
            ..SimConfig::default()
        }
    }

    #[test]
    fn rejects_bad_scenarios() {
        let soc = presets::flagship();
        let out_of_order = vec![
            ScenarioEvent {
                at_secs: 5.0,
                action: Action::Depart("a".into()),
            },
            ScenarioEvent {
                at_secs: 1.0,
                action: Action::Depart("b".into()),
            },
        ];
        assert!(Simulator::new(soc.clone(), out_of_order, quick_cfg(10.0)).is_err());
        let too_late = vec![ScenarioEvent {
            at_secs: 99.0,
            action: Action::Depart("a".into()),
        }];
        assert!(Simulator::new(soc.clone(), too_late, quick_cfg(10.0)).is_err());
        let bad_dt = SimConfig {
            dt: TimeSpan::ZERO,
            ..quick_cfg(10.0)
        };
        assert!(Simulator::new(soc, vec![], bad_dt).is_err());
    }

    #[test]
    fn idle_simulation_stays_at_ambient() {
        let soc = presets::flagship();
        let ambient = soc.thermal().ambient;
        let sim = Simulator::new(soc, vec![], quick_cfg(5.0)).unwrap();
        let trace = sim.run().unwrap();
        assert!(!trace.samples.is_empty());
        let last = trace.samples.last().unwrap();
        // Idle power heats the die a little, but nowhere near the limit.
        assert!(last.temp.as_celsius() < ambient.as_celsius() + 10.0);
        assert!(trace.decisions.is_empty());
    }

    #[test]
    fn arrival_triggers_decision_and_power_rise() {
        let soc = presets::flagship();
        let events = vec![ScenarioEvent {
            at_secs: 1.0,
            action: Action::Arrive(dnn_app("dnn1", 11.0)),
        }];
        let sim = Simulator::new(soc, events, quick_cfg(5.0)).unwrap();
        let trace = sim.run().unwrap();
        assert_eq!(trace.decisions.len(), 1);
        assert!(matches!(
            trace.decisions[0].reason,
            DecisionReason::AppArrived(_)
        ));
        assert!((trace.decisions[0].at_secs - 1.0).abs() < 0.1);
        // Power after arrival exceeds idle power before it.
        let before = trace.samples.iter().find(|s| s.at_secs < 0.9).unwrap();
        let after = trace.samples.iter().find(|s| s.at_secs > 2.0).unwrap();
        assert!(after.power > before.power);
        assert_eq!(after.apps.len(), 1);
        assert_eq!(after.apps[0].cluster, "npu");
    }

    #[test]
    fn departure_returns_to_idle() {
        let soc = presets::flagship();
        let idle = soc.idle_power();
        let events = vec![
            ScenarioEvent {
                at_secs: 0.0,
                action: Action::Arrive(dnn_app("dnn1", 11.0)),
            },
            ScenarioEvent {
                at_secs: 2.0,
                action: Action::Depart("dnn1".into()),
            },
        ];
        let sim = Simulator::new(soc, events, quick_cfg(5.0)).unwrap();
        let trace = sim.run().unwrap();
        let last = trace.samples.last().unwrap();
        assert!(last.apps.is_empty());
        assert!((last.power.as_watts() - idle.as_watts()).abs() < 1e-9);
    }

    #[test]
    fn duty_cycling_reduces_power_below_always_busy() {
        // A DNN with lots of slack (loose deadline) must draw less average
        // power than the allocation's busy power.
        let soc = presets::flagship();
        let events = vec![ScenarioEvent {
            at_secs: 0.0,
            action: Action::Arrive(dnn_app("lazy", 1000.0)),
        }];
        let sim = Simulator::new(soc.clone(), events, quick_cfg(3.0)).unwrap();
        let trace = sim.run().unwrap();
        let s = trace.samples.last().unwrap();
        // NPU busy power is ≥ 0.5 W; with ~0.3% duty the average must sit
        // just above idle.
        assert!(s.power.as_watts() < soc.idle_power().as_watts() + 0.1);
    }

    #[test]
    fn trace_sampling_interval_respected() {
        let soc = presets::flagship();
        let cfg = SimConfig {
            duration: TimeSpan::from_secs(2.0),
            sample_every: TimeSpan::from_millis(500.0),
            ..SimConfig::default()
        };
        let sim = Simulator::new(soc, vec![], cfg).unwrap();
        let trace = sim.run().unwrap();
        // 0.0, 0.5, 1.0, 1.5, 2.0 → 5 samples.
        assert_eq!(trace.samples.len(), 5);
    }

    /// Executed mode with a canned backend: allocations are actuated,
    /// sampled latencies are the *measured* values, and `met` is
    /// re-judged against the measurement — an analytically feasible
    /// point whose measured latency blows the budget must sample as a
    /// miss.
    #[test]
    fn executed_mode_reports_measured_latency_and_rejudges_met() {
        struct Canned {
            allocations: usize,
            measured_ms: f64,
        }
        impl ExecutionBackend for Canned {
            fn on_allocation(&mut self, _at: f64, allocation: &Allocation) {
                assert!(!allocation.dnns.is_empty() || !allocation.rigid.is_empty());
                self.allocations += 1;
            }
            fn measure(&mut self, app: &str, _predicted: TimeSpan) -> Option<TimeSpan> {
                assert_eq!(app, "dnn1");
                Some(TimeSpan::from_millis(self.measured_ms))
            }
        }
        let events = || {
            vec![ScenarioEvent {
                at_secs: 0.0,
                action: Action::Arrive(dnn_app("dnn1", 11.0)),
            }]
        };
        let soc = presets::flagship();
        let sim = Simulator::new(soc, events(), quick_cfg(2.0)).unwrap();

        // Fast reality: measured 5 ms under an 11 ms budget → met.
        let mut fast = Canned {
            allocations: 0,
            measured_ms: 5.0,
        };
        let trace = sim.run_executed(&mut fast).unwrap();
        assert_eq!(fast.allocations, 1, "one arrival, one actuation");
        let app = trace.app_at(1.0, "dnn1").unwrap();
        assert!((app.latency_ms - 5.0).abs() < 1e-9, "{app:?}");
        assert!(app.met);

        // Slow reality: the same analytic decision measures 50 ms → the
        // sample reports the miss the model would have hidden.
        let mut slow = Canned {
            allocations: 0,
            measured_ms: 50.0,
        };
        let trace = sim.run_executed(&mut slow).unwrap();
        let app = trace.app_at(1.0, "dnn1").unwrap();
        assert!((app.latency_ms - 50.0).abs() < 1e-9, "{app:?}");
        assert!(!app.met, "measured miss must override the analytic met");
    }

    /// Chaos events reach the backend with their scheduled time and
    /// payload, never trigger a re-allocation, and are ignored by
    /// analytic runs (no backend).
    #[test]
    fn chaos_events_reach_the_backend_without_reallocating() {
        #[derive(Default)]
        struct Recorder {
            allocations: usize,
            chaos: Vec<(f64, String, ChaosFault)>,
        }
        impl ExecutionBackend for Recorder {
            fn on_allocation(&mut self, _at: f64, _allocation: &Allocation) {
                self.allocations += 1;
            }
            fn measure(&mut self, _app: &str, _predicted: TimeSpan) -> Option<TimeSpan> {
                None
            }
            fn on_chaos(&mut self, at_secs: f64, app: &str, fault: &ChaosFault) {
                self.chaos.push((at_secs, app.to_string(), fault.clone()));
            }
        }
        let events = vec![
            ScenarioEvent {
                at_secs: 0.0,
                action: Action::Arrive(dnn_app("dnn1", 11.0)),
            },
            ScenarioEvent {
                at_secs: 1.0,
                action: Action::Chaos {
                    app: "dnn1".into(),
                    fault: ChaosFault::PanicForward,
                },
            },
            ScenarioEvent {
                at_secs: 1.5,
                action: Action::Chaos {
                    app: "dnn1".into(),
                    fault: ChaosFault::QueueStorm(4),
                },
            },
        ];
        let soc = presets::flagship();
        let sim = Simulator::new(soc, events.clone(), quick_cfg(2.0)).unwrap();
        let mut rec = Recorder::default();
        let trace = sim.run_executed(&mut rec).unwrap();
        assert_eq!(rec.allocations, 1, "chaos is not a decision trigger");
        assert_eq!(trace.decisions.len(), 1);
        assert_eq!(rec.chaos.len(), 2);
        assert_eq!(rec.chaos[0].1, "dnn1");
        assert_eq!(rec.chaos[0].2, ChaosFault::PanicForward);
        assert!((rec.chaos[0].0 - 1.0).abs() < 0.05 + 1e-9);
        assert_eq!(rec.chaos[1].2, ChaosFault::QueueStorm(4));
        // An analytic run of the same scenario simply skips the chaos.
        let soc = presets::flagship();
        let sim = Simulator::new(soc, events, quick_cfg(2.0)).unwrap();
        let trace = sim.run().unwrap();
        assert_eq!(trace.decisions.len(), 1);
    }

    #[test]
    fn update_event_changes_requirements() {
        let soc = presets::flagship();
        let mut relaxed = dnn_app("dnn1", 11.0);
        if let AppSpec::Dnn(d) = &mut relaxed {
            d.requirements = Requirements::new().with_max_latency(TimeSpan::from_millis(200.0));
        }
        let events = vec![
            ScenarioEvent {
                at_secs: 0.0,
                action: Action::Arrive(dnn_app("dnn1", 11.0)),
            },
            ScenarioEvent {
                at_secs: 1.0,
                action: Action::Update(relaxed),
            },
        ];
        let sim = Simulator::new(soc, events, quick_cfg(3.0)).unwrap();
        let trace = sim.run().unwrap();
        assert_eq!(trace.decisions.len(), 2);
        assert!(matches!(
            trace.decisions[1].reason,
            DecisionReason::RequirementChange(_)
        ));
    }
}
