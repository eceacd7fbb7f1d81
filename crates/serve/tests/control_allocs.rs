//! The control turn's heap budget, pinned: after warm-up a health
//! observation, a control epoch that does not re-plan and a
//! degradation-ladder tick that moves no knob allocate nothing, at one
//! tenant and at a hundred.
//!
//! One test in its own binary, like `request_allocs.rs`. The counts
//! are the calling thread's ([`eml_testalloc::count`]), and the turn
//! runs on the calling thread. Re-plans are not counted here.

use std::time::Duration;

use eml_core::requirements::Requirements;
use eml_core::rtm::{AppSpec, DnnAppSpec, Rtm, RtmConfig};
use eml_platform::presets;
use eml_platform::units::TimeSpan;
use eml_serve::{
    testbed, ControllerConfig, EpochOutcome, Executor, ExecutorConfig, HealthConfig, HealthMonitor,
    PressureConfig, PressurePolicy, ServeController,
};
use eml_testalloc::Allocs;

#[global_allocator]
static ALLOC: eml_testalloc::Counting = eml_testalloc::Counting;

const TIMEOUT: Duration = Duration::from_secs(20);
/// The latency window: one tenant fills it during warm-up, so the
/// reading thread's percentile scratch is at its high water.
const WINDOW: usize = 32;

/// The allocations of one warm observation, epoch and round of ladder
/// ticks.
struct TurnAllocs {
    observe: Allocs,
    epoch: Allocs,
    tick: Allocs,
}

/// Registers `tenants` tiny models with a generous deadline (every
/// epoch tracks misses, none re-plans, no tick moves a knob), warms a
/// monitor, a controller and a ladder up over two turns with fresh
/// completions, and counts the allocations of one more observation,
/// one more epoch and one more tick of every tenant.
fn warm_turn_allocs(tenants: usize) -> TurnAllocs {
    let exec = Executor::new(ExecutorConfig {
        stats_window: WINDOW,
        ..ExecutorConfig::default()
    });
    let req = Requirements::new().with_max_latency(TimeSpan::from_secs(1.0));
    let names: Vec<String> = (0..tenants).map(|i| format!("t{i:03}")).collect();
    let mut specs = Vec::with_capacity(tenants);
    for (i, name) in names.iter().enumerate() {
        let dnn = testbed::tiny_dnn(i as u64 + 1);
        specs.push(AppSpec::Dnn(DnnAppSpec {
            name: name.clone(),
            profile: dnn.profile().clone(),
            requirements: req.clone(),
            priority: 1,
            objective: None,
        }));
        exec.register_dnn(name.as_str(), dnn, &req).unwrap();
    }
    let mut ctl = ServeController::new(
        Rtm::new(RtmConfig::default()),
        presets::flagship(),
        specs,
        ControllerConfig::default(),
    );
    ctl.allocate_and_apply(&exec).unwrap();
    let mut monitor = HealthMonitor::new(HealthConfig::default());
    let mut ladder = PressurePolicy::new(PressureConfig::default());
    let mut tick_all = || names.iter().filter_map(|n| ladder.tick(&exec, n)).count();
    let sample = vec![0.25f32; 3 * 8 * 8];
    let serve = |name: &str| {
        exec.submit(name, &sample)
            .unwrap()
            .wait_timeout(TIMEOUT)
            .unwrap();
    };

    for _ in 0..WINDOW {
        serve(&names[0]);
    }
    for _ in 0..2 {
        names.iter().for_each(|n| serve(n));
        monitor.observe(&exec);
        ctl.control_epoch(&exec).unwrap();
        assert_eq!(tick_all(), 0);
    }
    // Fresh outcomes for every tenant: the measured epoch feeds the
    // latency model and every miss tracker.
    names.iter().for_each(|n| serve(n));
    let (scored, observe) = eml_testalloc::count(|| monitor.observe(&exec).apps.len());
    let (outcome, epoch) = eml_testalloc::count(|| ctl.control_epoch(&exec).unwrap());
    let (moved, tick) = eml_testalloc::count(&mut tick_all);
    assert_eq!((scored, moved), (tenants, 0));
    assert_eq!(
        outcome,
        EpochOutcome {
            reallocated: false,
            observed: tenants,
        }
    );
    TurnAllocs {
        observe,
        epoch,
        tick,
    }
}

#[test]
fn a_warm_control_turn_allocates_nothing() {
    for tenants in [1, 100] {
        let TurnAllocs {
            observe,
            epoch,
            tick,
        } = warm_turn_allocs(tenants);
        eprintln!(
            "control_allocs: {tenants} tenants: observe {} allocations, control_epoch {}, \
             {tenants} ticks {}",
            observe.count, epoch.count, tick.count
        );
        assert_eq!(
            observe.count, 0,
            "observe at {tenants} tenants: {observe:?}"
        );
        assert_eq!(
            epoch.count, 0,
            "control_epoch at {tenants} tenants: {epoch:?}"
        );
        assert_eq!(tick.count, 0, "tick at {tenants} tenants: {tick:?}");
    }
}
