//! Shared-pool scale battery: 100+ registered tenants on a fixed
//! two-driver worker pool.
//!
//! The PR 7 executor refactor replaced thread-per-app serving with a
//! bounded-registry shared pool: a small fixed set of driver threads
//! pulls from a weighted earliest-deadline-first ready order across
//! every registered app. This suite is the scale proof:
//!
//! - **Scale soak** — a seeded `eml_sim::workload` scenario with 100+
//!   dynamic tenants, rigid interference, register/deregister churn
//!   and a flash crowd, replayed through the live executor. The driver
//!   thread count is asserted equal to the configured pool size before,
//!   during and after — provably independent of the tenant count. The
//!   extended accounting invariant is **exact** across live apps *and*
//!   retired lifetimes, and two runs from the same seed produce the
//!   bit-identical outcome digest.
//! - **Starvation regression** — a fat-deadline tenant sharing one
//!   driver with a flash crowd of tight-deadline floods still completes
//!   at least its weighted share: the weighted-EDF virtual deadline
//!   guarantees its turn comes up even while the crowd saturates the
//!   pool.
//! - **Registry cap at scale** — the 101st tenant of a 100-cap
//!   registry is refused with the typed
//!   [`ServeError::OverCapacity`], and serving continues unharmed.
//!
//! Like the workload soak, digests fold `completed + errors + shed`
//! into one "settled" number per app: the split can move with
//! wall-clock scheduling, the sum may not drift by one.

use std::sync::Arc;
use std::time::{Duration, Instant};

use emlrt::prelude::*;
use emlrt::rtm::opspace::{EvaluatedPoint, OperatingPoint};
use emlrt::rtm::rtm::{Allocation, DnnAllocation};
use emlrt::serve::testbed;
use emlrt::serve::{ExecutedReplay, FaultKind, FaultPlan, PoolSnapshot, Ticket};
use emlrt::sim::workload::{self, WorkloadConfig};
use emlrt::sim::{ChaosFault, ExecutionBackend, SimConfig, Simulator};

const TIMEOUT: Duration = Duration::from_secs(60);
const SAMPLE_LEN: usize = 3 * 8 * 8;
const POOL_WORKERS: usize = 2;

/// Pure lifecycle replay: arrivals, departures, allocations, chaos —
/// no pressure policy (the ladder is the workload soak's concern; this
/// suite isolates the pool).
struct ScaleBackend<'a> {
    replay: ExecutedReplay<'a>,
    exec: &'a Executor,
    /// Worst driver-pool shape observed at any lifecycle edge, to prove
    /// the pool never grew (or lost a driver) mid-run.
    max_drivers_seen: usize,
}

impl ScaleBackend<'_> {
    fn check_pool(&mut self) {
        let p = self.exec.pool_stats();
        self.max_drivers_seen = self.max_drivers_seen.max(p.drivers);
        assert_eq!(
            p.drivers, POOL_WORKERS,
            "driver count drifted with tenant count: {p:?}"
        );
    }
}

impl ExecutionBackend for ScaleBackend<'_> {
    fn on_allocation(&mut self, at_secs: f64, allocation: &Allocation) {
        self.replay.on_allocation(at_secs, allocation);
    }

    fn measure(&mut self, app: &str, predicted: TimeSpan) -> Option<TimeSpan> {
        self.replay.measure(app, predicted)
    }

    fn on_chaos(&mut self, at_secs: f64, app: &str, fault: &ChaosFault) {
        self.replay.on_chaos(at_secs, app, fault);
    }

    fn on_arrive(&mut self, at_secs: f64, spec: &emlrt::rtm::rtm::AppSpec) {
        self.replay.on_arrive(at_secs, spec);
        self.check_pool();
    }

    fn on_depart(&mut self, at_secs: f64, app: &str) {
        self.replay.on_depart(at_secs, app);
        self.check_pool();
    }
}

struct ScaleOutcome {
    schedule_digest: u64,
    outcome_digest: u64,
    apps_live: usize,
    dnn_apps_live: usize,
    retired_lifetimes: u64,
    total_storms: u64,
}

/// The pool once the watchdog has restored it. A driver killed by an
/// injected crash may still be waiting out its restart backoff when the
/// drain returns; the watchdog respawns it within the backoff cap plus
/// a few of its ticks.
fn restored_pool(exec: &Executor) -> PoolSnapshot {
    let cfg = exec.config();
    let deadline = Instant::now() + cfg.restart_backoff_max + 10 * cfg.watchdog_interval;
    loop {
        let p = exec.pool_stats();
        if p.live_drivers == p.drivers || Instant::now() >= deadline {
            return p;
        }
        std::thread::sleep(cfg.watchdog_interval);
    }
}

fn run_scale(seed: u64) -> ScaleOutcome {
    let wl = workload::generate(&WorkloadConfig {
        seed,
        dnn_apps: 104,
        rigid_apps: 4,
        churn_cycles: 8,
        duration_secs: 20.0,
        ..WorkloadConfig::default()
    });
    assert!(wl.dnn_apps >= 100, "acceptance floor: 100+ dynamic tenants");
    assert!(wl.churn_cycles >= 5, "churn must be scheduled");
    assert!(wl.flash_storms >= 1, "flash crowd must be scheduled");

    let exec = Executor::new(ExecutorConfig {
        pool_workers: POOL_WORKERS,
        max_apps: 256,
        ..ExecutorConfig::default()
    });
    let mut backend = ScaleBackend {
        replay: ExecutedReplay::new(&exec)
            .with_app_builder(|spec| testbed::tiny_dnn(workload::fnv1a64(&spec.name))),
        exec: &exec,
        max_drivers_seen: 0,
    };

    let sim = Simulator::new(
        emlrt::platform::presets::flagship(),
        wl.events.clone(),
        SimConfig {
            duration: TimeSpan::from_secs(20.0),
            sample_every: TimeSpan::from_millis(500.0),
            ..SimConfig::default()
        },
    )
    .expect("generated schedule is valid");
    sim.run_executed(&mut backend)
        .expect("scale soak completes");
    exec.drain();

    // The pool: exactly as configured, all drivers alive, through a
    // hundred registrations and every churn edge.
    let p = restored_pool(&exec);
    assert_eq!(p.drivers, POOL_WORKERS, "{p:?}");
    assert_eq!(p.live_drivers, POOL_WORKERS, "a driver died: {p:?}");
    assert_eq!(backend.max_drivers_seen, POOL_WORKERS);
    assert!(p.apps >= 100, "tenant floor after churn re-arrivals: {p:?}");
    assert!(p.apps <= p.max_apps, "{p:?}");
    assert_eq!(p.queue_depth + p.in_flight, 0, "drained: {p:?}");

    // Exact extended accounting across live apps and retired lifetimes.
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
        "extended accounting drifted at scale: retired={retired:?}"
    );

    // Per-app FIFO survived the shared pool at every tenant.
    for (name, s) in &live {
        assert_eq!(s.out_of_order, 0, "{name}: {s:?}");
    }

    // The outcome digest: schedule + per-app settled counters.
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

    ScaleOutcome {
        schedule_digest: wl.digest,
        outcome_digest: workload::fnv1a64(&canon),
        apps_live: p.apps,
        dnn_apps_live: live.len(),
        retired_lifetimes: retired.lifetimes,
        total_storms,
    }
}

/// The acceptance soak: 100+ tenants, two drivers, churn and flash
/// crowd, exact lifetime accounting — twice from the same seed, with a
/// bit-identical outcome digest.
#[test]
fn hundred_tenants_on_two_drivers_account_exactly_and_reproduce() {
    let a = run_scale(0x9001_5EED);
    assert!(a.apps_live >= 100, "{}", a.apps_live);
    assert!(a.dnn_apps_live >= 100, "{}", a.dnn_apps_live);
    assert!(
        a.retired_lifetimes >= 5,
        "churn must have completed deregistrations: {}",
        a.retired_lifetimes
    );
    assert!(a.total_storms >= 1, "the flash crowd must have landed");

    let b = run_scale(0x9001_5EED);
    assert_eq!(a.schedule_digest, b.schedule_digest, "schedule must replay");
    assert_eq!(
        a.outcome_digest, b.outcome_digest,
        "same seed must reproduce the outcome digest bit-for-bit"
    );
}

/// Hand-builds the minimal allocation the executor consumes: one
/// placed operating point per named app, `cores` becoming the app's
/// band cap — the weight of its EDF budget in the shared ready order.
fn weight_allocation(weights: &[(&str, u32)]) -> Allocation {
    Allocation {
        dnns: weights
            .iter()
            .map(|&(app, cores)| DnnAllocation {
                app: app.to_string(),
                point: EvaluatedPoint {
                    op: OperatingPoint {
                        cluster: ClusterId::from_index(0),
                        cores,
                        opp_index: 0,
                        level: emlrt::dnn::WidthLevel(0),
                    },
                    latency: TimeSpan::from_micros(50.0),
                    power: Power::from_milliwatts(100.0),
                    energy: Energy::from_millijoules(0.01),
                    top1_percent: 70.0,
                },
                cluster_name: "quad".to_string(),
                freq: Freq::from_mhz(1600.0),
                sharers: weights.len(),
                violations: Vec::new(),
            })
            .collect(),
        rigid: Vec::new(),
        unplaced: Vec::new(),
        gated: Vec::new(),
        total_power: Power::from_milliwatts(500.0),
        power_cap: Power::from_watts(10.0),
    }
}

/// Starvation regression: a fat-deadline tenant (2 s deadline, weight
/// 4) shares a *single* driver with six tight-deadline crowd tenants
/// whose every request is inflated to ~20 ms by injected latency
/// spikes — far more work than their 40 ms deadlines admit. Weighted
/// EDF must still serve the fat tenant its full share: its virtual
/// deadline (arrival + 2 s / 4) comes up while the crowd's backlog is
/// shedding, so it completes every request instead of starving behind
/// the flood.
#[test]
fn fat_deadline_tenant_is_not_starved_by_a_flash_crowd() {
    const CROWD: usize = 6;
    const CROWD_REQS: usize = 6;
    const FAT_REQS: usize = 8;

    // Every crowd request spikes to 20 ms: the crowd alone carries
    // ~720 ms of service against 40 ms deadlines — a guaranteed
    // overload for the single driver.
    let mut plan = FaultPlan::new();
    for i in 0..CROWD {
        for seq in 0..CROWD_REQS as u64 {
            plan = plan.with_fault(
                format!("crowd-{i}"),
                seq,
                FaultKind::LatencySpike(TimeSpan::from_millis(20.0)),
            );
        }
    }
    let exec = Executor::new(ExecutorConfig {
        pool_workers: 1,
        // One request per batch: each crowd claim burns one full spike.
        batch_cap: 1,
        fault_plan: Some(Arc::new(plan)),
        ..ExecutorConfig::default()
    });
    for i in 0..CROWD {
        exec.register_dnn(
            format!("crowd-{i}"),
            testbed::tiny_dnn(i as u64),
            &Requirements::new().with_max_latency(TimeSpan::from_millis(40.0)),
        )
        .unwrap();
    }
    exec.register_dnn(
        "fat",
        testbed::tiny_dnn(99),
        &Requirements::new().with_max_latency(TimeSpan::from_secs(2.0)),
    )
    .unwrap();
    let p = exec.pool_stats();
    assert_eq!(
        (p.drivers, p.live_drivers),
        (1, 1),
        "seven tenants, still one driver: {p:?}"
    );

    // Weight the fat tenant 4× through the allocation surface, exactly
    // as an RTM core grant would.
    let mut weights: Vec<(String, u32)> = (0..CROWD).map(|i| (format!("crowd-{i}"), 1)).collect();
    weights.push(("fat".to_string(), 4));
    let weights_ref: Vec<(&str, u32)> = weights.iter().map(|(n, c)| (n.as_str(), *c)).collect();
    exec.apply_allocation(&weight_allocation(&weights_ref));

    // Queue the whole flood while paused, fat last — worst case for
    // the fat tenant: the crowd's backlog is already ahead of it.
    let sample = vec![0.25f32; SAMPLE_LEN];
    for i in 0..CROWD {
        exec.pause(&format!("crowd-{i}")).unwrap();
    }
    exec.pause("fat").unwrap();
    let mut crowd_tickets: Vec<Ticket> = Vec::new();
    for _round in 0..CROWD_REQS {
        for i in 0..CROWD {
            crowd_tickets.push(exec.submit(&format!("crowd-{i}"), &sample).unwrap());
        }
    }
    let fat_tickets: Vec<Ticket> = (0..FAT_REQS)
        .map(|_| exec.submit("fat", &sample).unwrap())
        .collect();
    for i in 0..CROWD {
        exec.resume(&format!("crowd-{i}")).unwrap();
    }
    exec.resume("fat").unwrap();

    // Every ticket resolves typed — completion or shed, never lost.
    let mut fat_completed = 0u64;
    for t in &fat_tickets {
        match t.wait_timeout(TIMEOUT) {
            Ok(_) => fat_completed += 1,
            Err(ServeError::DeadlineExpired { .. }) => {}
            Err(e) => panic!("fat ticket #{} lost: {e}", t.seq()),
        }
    }
    for t in &crowd_tickets {
        match t.wait_timeout(TIMEOUT) {
            Ok(_) | Err(ServeError::DeadlineExpired { .. }) => {}
            Err(e) => panic!("crowd ticket {}#{} lost: {e}", t.app(), t.seq()),
        }
    }
    exec.drain();

    // The weighted share: at least 75 % of the fat tenant's requests
    // complete despite the overloading crowd (in practice all of them:
    // its 2 s deadline dwarfs the crowd's shedding backlog).
    assert!(
        fat_completed >= (FAT_REQS as u64 * 3).div_ceil(4),
        "fat tenant starved: {fat_completed}/{FAT_REQS}"
    );
    let fat = exec.stats("fat").unwrap();
    assert_eq!(fat.out_of_order, 0, "{fat:?}");
    assert_eq!(fat.band_cap, 4, "the weight grant survived: {fat:?}");
    assert_eq!(
        FAT_REQS as u64 + fat.storm_injected,
        fat.completed + fat.errors + fat.rejected + fat.shed,
        "fat accounting drifted: {fat:?}"
    );

    // The crowd genuinely overloaded: its deadlines forced sheds, and
    // its own accounting stays exact per tenant.
    let mut crowd_shed = 0u64;
    for i in 0..CROWD {
        let s = exec.stats(&format!("crowd-{i}")).unwrap();
        crowd_shed += s.shed;
        assert_eq!(
            CROWD_REQS as u64 + s.storm_injected,
            s.completed + s.errors + s.rejected + s.shed,
            "crowd-{i} accounting drifted: {s:?}"
        );
    }
    assert!(crowd_shed > 0, "the flood never overloaded the pool");
}

/// The bounded registry at its acceptance scale: tenant number 101 of
/// a 100-cap registry is refused with the typed error, the pool shape
/// is untouched, and serving continues.
#[test]
fn registry_cap_holds_at_one_hundred_tenants() {
    let exec = Executor::new(ExecutorConfig {
        pool_workers: POOL_WORKERS,
        max_apps: 100,
        ..ExecutorConfig::default()
    });
    exec.register_dnn(
        "dnn-000",
        testbed::tiny_dnn(7),
        &Requirements::new().with_max_latency(TimeSpan::from_secs(1.0)),
    )
    .unwrap();
    for i in 1..100 {
        exec.register_rigid(format!("rigid-{i:03}")).unwrap();
    }
    assert_eq!(
        exec.register_rigid("rigid-100").unwrap_err(),
        ServeError::OverCapacity {
            app: "rigid-100".into(),
            capacity: 100
        }
    );
    let p = exec.pool_stats();
    assert_eq!((p.apps, p.max_apps), (100, 100), "{p:?}");
    assert_eq!(p.drivers, POOL_WORKERS, "{p:?}");
    // A full registry refuses newcomers, never service.
    exec.submit("dnn-000", &vec![0.1f32; SAMPLE_LEN])
        .unwrap()
        .wait_timeout(TIMEOUT)
        .unwrap();
    exec.drain();
    assert_eq!(exec.stats("dnn-000").unwrap().completed, 1);
}
