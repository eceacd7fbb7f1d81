//! Generated-workload soak: a seeded synthetic scenario — ≥ 20
//! dynamic tenants with heavy-tailed sizes/deadlines, rigid co-tenant
//! interference, a flash crowd, ≥ 5 register/deregister churn cycles
//! and injected faults — replayed through the *live* executor
//! ([`eml_sim::Simulator::run_executed`] + lifecycle-driving
//! [`ExecutedReplay`]), with a health-scored [`PressurePolicy`]
//! watching the hot tenant.
//!
//! Required outcomes:
//!
//! - the run completes (no deadlock, no lost ticket — `drain` returns);
//! - the extended accounting invariant is **exact** across churn:
//!   `attempts + storm_injected == completed + errors + rejected +
//!   shed`, summed over live apps *and* retired lifetimes;
//! - the hot app sees at least one health-driven degrade and a
//!   subsequent restore;
//! - two runs from the same seed produce the **bit-identical** outcome
//!   digest (schedule digest + per-app settled counters + ladder).
//!
//! The digest deliberately folds `completed + errors + shed` into one
//! "settled" number per app: the *split* between a completion, a typed
//! crash error and a deadline shed can legitimately move with
//! wall-clock scheduling (a request submitted while a crashed thread
//! restarts may expire or complete), but their *sum* — every attempt
//! ever ticketed plus every storm rider — may not drift by even one.

use emlrt::prelude::*;
use emlrt::rtm::rtm::Allocation;
use emlrt::serve::testbed;
use emlrt::serve::{ExecutedReplay, PressureAction, PressureConfig, PressurePolicy};
use emlrt::sim::workload::{self, WorkloadConfig};
use emlrt::sim::{ChaosFault, ExecutionBackend, SimConfig, Simulator};

/// Lifecycle replay + a health-scored pressure ladder on the hot app,
/// ticked at every measurement so calm recovery is observed promptly.
struct SoakBackend<'a> {
    replay: ExecutedReplay<'a>,
    exec: &'a Executor,
    policy: PressurePolicy,
    ladder: Vec<char>,
}

impl ExecutionBackend for SoakBackend<'_> {
    fn on_allocation(&mut self, at_secs: f64, allocation: &Allocation) {
        self.replay.on_allocation(at_secs, allocation);
    }

    fn measure(&mut self, app: &str, predicted: TimeSpan) -> Option<TimeSpan> {
        let m = self.replay.measure(app, predicted);
        // Tick exactly once per hot measurement, *after* it: the hot
        // app's batch has just applied any pending knob command (and
        // its window reset), so every tick observes settled knob state
        // — ticking faster would let further rungs fire on a stale
        // window while an actuation is still queued.
        if app == workload::HOT_APP {
            match self.policy.tick(self.exec, workload::HOT_APP) {
                Some(PressureAction::Degraded { .. }) => self.ladder.push('d'),
                Some(PressureAction::Restored { .. }) => self.ladder.push('r'),
                _ => {}
            }
        }
        m
    }

    fn on_chaos(&mut self, at_secs: f64, app: &str, fault: &ChaosFault) {
        self.replay.on_chaos(at_secs, app, fault);
    }

    fn on_arrive(&mut self, at_secs: f64, spec: &emlrt::rtm::rtm::AppSpec) {
        self.replay.on_arrive(at_secs, spec);
    }

    fn on_depart(&mut self, at_secs: f64, app: &str) {
        self.replay.on_depart(at_secs, app);
    }
}

struct SoakOutcome {
    schedule_digest: u64,
    outcome_digest: u64,
    ladder: Vec<char>,
    dnn_apps_live: usize,
    retired_lifetimes: u64,
    total_storms: u64,
}

fn run_soak(seed: u64) -> SoakOutcome {
    let wl = workload::generate(&WorkloadConfig {
        seed,
        duration_secs: 30.0,
        ..WorkloadConfig::default()
    });
    assert!(wl.dnn_apps >= 20, "acceptance floor: ≥ 20 dynamic tenants");
    assert!(wl.churn_cycles >= 5, "acceptance floor: ≥ 5 churn cycles");
    assert!(wl.flash_storms >= 1, "flash crowd must be scheduled");
    assert_eq!(wl.hot_app.as_deref(), Some(workload::HOT_APP));

    let exec = Executor::new(ExecutorConfig {
        // A short stats window so the hot app's four spike misses pull
        // the windowed miss rate to 0.5 (score 60 < the 65 pressure
        // line) and a clean window refills fast after the degrade.
        stats_window: 8,
        ..ExecutorConfig::default()
    });
    let mut backend = SoakBackend {
        replay: ExecutedReplay::new(&exec)
            .with_app_builder(|spec| testbed::tiny_dnn(workload::fnv1a64(&spec.name))),
        exec: &exec,
        policy: PressurePolicy::new(PressureConfig {
            health: HealthConfig {
                // Two fresh outcomes are enough to trust the window
                // again after a knob-driven reset.
                min_outcomes: 2,
                // Pool-wide queue depth is timing dependent; scoring
                // it would make the ladder (and thus the outcome
                // digest) wobble run to run.
                w_pool_queue: 0.0,
                ..HealthConfig::default()
            },
            recover_ticks: 2,
            ..PressureConfig::default()
        }),
        ladder: Vec::new(),
    };

    let sim = Simulator::new(
        emlrt::platform::presets::flagship(),
        wl.events.clone(),
        SimConfig {
            duration: TimeSpan::from_secs(30.0),
            sample_every: TimeSpan::from_millis(500.0),
            ..SimConfig::default()
        },
    )
    .expect("generated schedule is valid");
    sim.run_executed(&mut backend).expect("soak completes");

    // Quiesce before counting: late storm riders may still be in
    // flight when the simulated clock runs out.
    exec.drain();

    // Extended accounting across churn: every attempt and every storm
    // rider is settled somewhere, across live apps and retired
    // lifetimes alike.
    let names = exec.app_names();
    let mut live = Vec::new();
    for name in &names {
        if let Ok(s) = exec.stats(name) {
            live.push((name.clone(), s));
        }
    }
    let retired = backend.replay.retired();
    let live_settled: u64 = live
        .iter()
        .map(|(_, s)| s.completed + s.errors + s.rejected + s.shed)
        .sum();
    let live_storms: u64 = live.iter().map(|(_, s)| s.storm_injected).sum();
    let total_storms = live_storms + retired.storm_injected;
    assert_eq!(
        backend.replay.total_attempts() + total_storms,
        live_settled + retired.completed + retired.errors + retired.rejected + retired.shed,
        "extended accounting drifted across churn: retired={retired:?}"
    );

    // Health telemetry stays coherent over the final population.
    let mut monitor = HealthMonitor::new(HealthConfig::default());
    let report = monitor.observe(&exec);
    assert_eq!(report.apps.len(), live.len(), "one health row per DNN app");
    assert!((0.0..=100.0).contains(&report.aggregate));

    // Outcome digest: schedule + per-app settled counters (split-safe,
    // see module docs) + the hot app's ladder.
    let mut canon = format!("schedule={:016x}\n", wl.digest);
    for (name, s) in &live {
        canon.push_str(&format!(
            "app={} attempts={} rejected={} storms={} settled={}\n",
            name,
            backend.replay.attempts(name),
            s.rejected,
            s.storm_injected,
            s.completed + s.errors + s.shed,
        ));
    }
    canon.push_str(&format!(
        "retired lifetimes={} settled={} storms={}\n",
        retired.lifetimes,
        retired.completed + retired.errors + retired.rejected + retired.shed,
        retired.storm_injected,
    ));
    canon.push_str(&format!(
        "ladder={}\n",
        backend.ladder.iter().collect::<String>()
    ));

    SoakOutcome {
        schedule_digest: wl.digest,
        outcome_digest: workload::fnv1a64(&canon),
        ladder: backend.ladder,
        dnn_apps_live: live.len(),
        retired_lifetimes: retired.lifetimes,
        total_storms,
    }
}

/// The acceptance soak: generated workload through executed replay,
/// twice from the same seed, with a bit-identical outcome digest.
#[test]
fn generated_workload_soak_is_reproducible() {
    let a = run_soak(0xBADC_0FFE);

    assert!(
        a.dnn_apps_live >= 20,
        "all dynamic tenants live at the end (churned ones re-arrived): {}",
        a.dnn_apps_live
    );
    assert!(
        a.retired_lifetimes >= 5,
        "≥ 5 deregistrations must have completed: {}",
        a.retired_lifetimes
    );
    assert!(a.total_storms >= 1, "the flash crowd must have landed");

    // Health-driven degrade, then restore, on the hot app.
    let first_d = a
        .ladder
        .iter()
        .position(|&c| c == 'd')
        .unwrap_or_else(|| panic!("no health-driven degrade: {:?}", a.ladder));
    assert!(
        a.ladder[first_d..].contains(&'r'),
        "no restore after the degrade: {:?}",
        a.ladder
    );

    let b = run_soak(0xBADC_0FFE);
    assert_eq!(a.schedule_digest, b.schedule_digest, "schedule must replay");
    assert_eq!(
        a.outcome_digest, b.outcome_digest,
        "same seed must reproduce the outcome digest bit-for-bit \
         (ladders: {:?} vs {:?})",
        a.ladder, b.ladder
    );
}
