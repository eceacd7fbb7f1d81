//! Property suite for the serving executor: randomized app mixes
//! (widths × precisions × arrival orders) must never deadlock, never
//! drop a request silently, and every app's outputs must be
//! independent of co-tenant load — bit-identical logits whether the app
//! serves alone or beside N concurrent tenants.

use std::time::Duration;

use emlrt::dnn::{Precision, WidthLevel};
use emlrt::nn::tensor::Tensor;
use emlrt::prelude::*;
use emlrt::rtm::knobs::KnobCommand;
use emlrt::serve::testbed;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const TIMEOUT: Duration = Duration::from_secs(30);
const SAMPLE_LEN: usize = 3 * 8 * 8;

#[derive(Debug, Clone)]
struct AppPlan {
    name: String,
    dnn_seed: u64,
    level: usize,
    int8: bool,
    requests: usize,
    /// Per-app deadline (the EDF budget of the shared pool's ready
    /// order). `None` = no deadline: the pool's default budget.
    deadline_ms: Option<f64>,
}

/// Builds the app's model exactly as both the solo and concurrent runs
/// must see it: seeded weights, optional calibrated int8 (frozen scales
/// make chained int8 batch-composition independent), width knob.
fn build_dnn(plan: &AppPlan) -> emlrt::dnn::DynamicDnn {
    let mut dnn = testbed::tiny_dnn(plan.dnn_seed);
    if plan.int8 {
        let mut rng = StdRng::seed_from_u64(plan.dnn_seed ^ 0xCA11);
        let cal = vec![Tensor::random(&[4, 3, 8, 8], &mut rng)];
        dnn.set_precision(Precision::Int8);
        dnn.calibrate(&cal).expect("calibration runs");
    }
    dnn
}

fn inputs_for(plan: &AppPlan) -> Vec<Vec<f32>> {
    let mut rng = StdRng::seed_from_u64(plan.dnn_seed ^ 0x5EED);
    (0..plan.requests)
        .map(|_| {
            (0..SAMPLE_LEN)
                .map(|_| rng.gen_range(-1.0f32..1.0))
                .collect()
        })
        .collect()
}

/// Runs `plans` on one executor (all apps co-tenant), with the given
/// interleaved arrival order, and returns per-app per-request logits in
/// submission order. Asserts the liveness/accounting invariants.
// The round-robin interleave below is inherently index-driven (`round`
// walks several per-app streams in lockstep).
#[allow(clippy::needless_range_loop)]
fn run_mix(plans: &[AppPlan], batch_cap: usize, arrival_rotation: usize) -> Vec<Vec<Vec<f32>>> {
    let exec = Executor::new(ExecutorConfig {
        batch_cap,
        queue_capacity: 64,
        ..Default::default()
    });
    for plan in plans {
        let mut reqs = Requirements::new();
        if let Some(ms) = plan.deadline_ms {
            reqs = reqs.with_max_latency(TimeSpan::from_millis(ms));
        }
        exec.register_dnn(&plan.name, build_dnn(plan), &reqs)
            .expect("unique names");
        // Width knob through the command surface, like an RTM would.
        exec.route_command(&KnobCommand::SetWidth {
            app: plan.name.clone(),
            level: WidthLevel(plan.level),
        })
        .expect("registered app");
        exec.pause(&plan.name).expect("registered");
    }
    let inputs: Vec<Vec<Vec<f32>>> = plans.iter().map(inputs_for).collect();

    // Interleaved arrival: round-robin over the apps, starting from a
    // seed-dependent rotation, each app submitting its own stream in
    // order. Queues are paused, so every request of the mix is queued
    // before any serving starts — the coalescing pattern is then a
    // deterministic function of (counts, batch_cap).
    let mut tickets: Vec<Vec<emlrt::serve::Ticket>> = plans
        .iter()
        .map(|p| Vec::with_capacity(p.requests))
        .collect();
    let max_requests = plans.iter().map(|p| p.requests).max().unwrap_or(0);
    let submitted_total: usize = plans.iter().map(|p| p.requests).sum();
    for round in 0..max_requests {
        for k in 0..plans.len() {
            let i = (k + arrival_rotation) % plans.len();
            if round < plans[i].requests {
                let t = exec
                    .submit(&plans[i].name, &inputs[i][round])
                    .expect("capacity 64 covers every mix");
                assert_eq!(t.seq(), round as u64, "FIFO seq per app");
                tickets[i].push(t);
            }
        }
    }
    for plan in plans {
        exec.resume(&plan.name).expect("registered");
    }

    // Liveness: every ticket resolves (bounded wait = loud deadlock).
    let logits: Vec<Vec<Vec<f32>>> = tickets
        .iter()
        .map(|app_tickets| {
            app_tickets
                .iter()
                .map(|t| t.wait_timeout(TIMEOUT).expect("no lost completions").logits)
                .collect()
        })
        .collect();
    exec.drain();

    // Accounting: nothing dropped, nothing rejected, FIFO preserved,
    // queue depth bounded by capacity.
    let mut completed_total = 0;
    for plan in plans {
        let s = exec.stats(&plan.name).expect("registered");
        assert_eq!(s.completed, plan.requests as u64, "{}: {s:?}", plan.name);
        assert_eq!(s.rejected + s.errors, 0, "{}: {s:?}", plan.name);
        assert_eq!(s.out_of_order, 0, "{}: {s:?}", plan.name);
        assert_eq!(s.level, plan.level, "width knob actuated: {}", plan.name);
        assert!(s.max_queue_depth <= 64, "{}: {s:?}", plan.name);
        completed_total += s.completed as usize;
    }
    assert_eq!(completed_total, submitted_total);

    // The pool is fixed-size and fully alive regardless of how many
    // tenants the mix registered.
    let p = exec.pool_stats();
    assert_eq!(p.drivers, exec.config().pool_workers.max(1), "{p:?}");
    assert_eq!(p.live_drivers, p.drivers, "a driver died mid-mix: {p:?}");
    assert_eq!(p.apps, plans.len());
    logits
}

/// Submits to `app`, counting the attempt, and reaps the oldest
/// outstanding ticket on back-pressure (`resolve` must tolerate every
/// typed outcome legal for the caller's scenario). Returns `false` on
/// livelock instead of asserting, so proptest callers can
/// `prop_assert!` it.
fn submit_reaping(
    exec: &Executor,
    app: &str,
    sample: &[f32],
    attempts: &mut u64,
    outstanding: &mut std::collections::VecDeque<emlrt::serve::Ticket>,
    resolve: &dyn Fn(&emlrt::serve::Ticket),
) -> bool {
    let mut spins = 0u32;
    loop {
        *attempts += 1;
        match exec.submit(app, sample) {
            Ok(t) => {
                outstanding.push_back(t);
                return true;
            }
            Err(ServeError::QueueFull { .. }) => {
                match outstanding.pop_front() {
                    Some(t) => resolve(&t),
                    None => std::thread::sleep(Duration::from_millis(1)),
                }
                spins += 1;
                if spins >= 20_000 {
                    return false;
                }
            }
            Err(e) => panic!("unexpected submit outcome for {app}: {e}"),
        }
    }
}

/// A statistics snapshot is one instant of the app, not a consistent
/// view only once the executor is quiet: while batches are being
/// dispatched and settled, *every* read must place every attempted
/// request in exactly one of queued / in flight / completed / errors /
/// shed / rejected. (A read assembled from two critical sections can
/// catch a settled batch both `in_flight` and already `completed`.)
#[test]
fn every_stats_read_balances_the_ledger() {
    const ROUNDS: u64 = 2_000;
    const PER_ROUND: u64 = 32;
    let exec = Executor::new(ExecutorConfig {
        pool_workers: 1,
        batch_cap: 8,
        ..ExecutorConfig::default()
    });
    exec.register_dnn("cam", testbed::tiny_dnn(1), &Requirements::new())
        .expect("registers");
    let sample = vec![0.25f32; SAMPLE_LEN];
    let (mut attempts, mut reads) = (0u64, 0u64);
    for _ in 0..ROUNDS {
        for _ in 0..PER_ROUND {
            // Refusals count too: a rejection is an attempt the ledger
            // accounts for.
            let _ = exec.submit("cam", &sample);
            attempts += 1;
        }
        loop {
            let s = exec.stats("cam").expect("cam lives");
            reads += 1;
            let placed =
                s.completed + s.errors + s.shed + s.rejected + (s.queue_depth + s.in_flight) as u64;
            assert_eq!(placed, attempts, "torn read #{reads}: {s:?}");
            if s.queue_depth == 0 && s.in_flight == 0 {
                break;
            }
        }
    }
    let s = exec.stats("cam").expect("cam lives");
    assert_eq!(s.completed + s.rejected, ROUNDS * PER_ROUND, "{s:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random mixes: liveness + accounting under co-tenancy, and
    /// per-app outputs bit-identical to the same app serving alone.
    #[test]
    fn random_mixes_never_drop_and_tenants_are_isolated(
        n_apps in 1usize..=3,
        batch_cap in 1usize..=4,
        rotation in 0usize..3,
        levels in proptest::collection::vec(0usize..4, 3..4),
        int8s in proptest::collection::vec(0usize..2, 3..4),
        counts in proptest::collection::vec(3usize..10, 3..4),
    ) {
        let plans: Vec<AppPlan> = (0..n_apps)
            .map(|i| AppPlan {
                name: format!("app{i}"),
                dnn_seed: 100 + i as u64,
                level: levels[i],
                int8: int8s[i] == 1,
                requests: counts[i],
                deadline_ms: None,
            })
            .collect();

        // Concurrent run: all apps co-tenant.
        let mixed = run_mix(&plans, batch_cap, rotation);

        // Solo runs: each app alone on a fresh executor, same inputs,
        // same batching config. Logits must match bit-for-bit — f32 is
        // deterministic and calibrated int8 has frozen scales, so no
        // co-tenant (or batch-split) effect may leak into outputs.
        for (i, plan) in plans.iter().enumerate() {
            let solo = run_mix(std::slice::from_ref(plan), batch_cap, 0);
            prop_assert_eq!(&mixed[i], &solo[0],
                "app {} outputs depend on co-tenant load", plan.name);
        }
    }

    /// Random EDF-weighted mixes across 8–32 tenants on the fixed
    /// two-driver pool: heterogeneous deadline budgets reorder the
    /// shared ready queue, yet every ticket resolves (no deadlock),
    /// the extended accounting stays exact, per-app FIFO holds
    /// (`out_of_order == 0` inside [`run_mix`]), and each tenant's
    /// logits are bit-identical to the same tenant serving alone —
    /// the shared pool may reorder *service*, never *outputs*.
    #[test]
    fn edf_weighted_mixes_on_a_two_driver_pool(
        n_apps in 8usize..=32,
        batch_cap in 1usize..=4,
        rotation in 0usize..8,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xED_F0);
        let plans: Vec<AppPlan> = (0..n_apps)
            .map(|i| AppPlan {
                name: format!("edf{i:02}"),
                dnn_seed: 500 + i as u64,
                level: rng.gen_range(0..4),
                int8: rng.gen_range(0..2) == 1,
                requests: rng.gen_range(1..6),
                // Generous (1–10 s): budgets spread the EDF keys but
                // nothing can shed — every submission must complete.
                deadline_ms: Some(f64::from(rng.gen_range(1_000..10_000))),
            })
            .collect();
        let mixed = run_mix(&plans, batch_cap, rotation);

        // Solo isolation on a seed-picked handful (running all 32
        // solos every case would dominate the suite's runtime without
        // adding evidence).
        for _ in 0..3 {
            let i = rng.gen_range(0..plans.len());
            let solo = run_mix(std::slice::from_ref(&plans[i]), batch_cap, 0);
            prop_assert_eq!(&mixed[i], &solo[0],
                "app {} outputs depend on co-tenant load", plans[i].name);
        }
    }

    /// Arbitrary seeded [`FaultPlan`]s — panics × crashes × latency
    /// spikes × knob failures × queue storms, landing at arbitrary
    /// sequence numbers, under concurrent knob churn — must never
    /// deadlock, never drop a ticket (every wait resolves to a typed
    /// outcome within the bound), and must keep the extended accounting
    /// invariant *exact*:
    /// `attempts + storm_injected == completed + errors + rejected + shed`.
    #[test]
    fn seeded_fault_plans_never_deadlock_or_lose_tickets(
        seed in 0u64..1_000_000,
        n_faults in 0usize..6,
        requests in 8usize..40,
        batch_cap in 1usize..=4,
        churn_every in 2usize..8,
    ) {
        use emlrt::serve::{FaultPlan, Ticket};
        use std::collections::VecDeque;

        let plan = FaultPlan::seeded(seed, &["app"], n_faults, 0..requests as u64);
        let exec = Executor::new(ExecutorConfig {
            batch_cap,
            // Small on purpose: storms + crash backoffs make QueueFull
            // reachable, so the rejected leg of the invariant is live.
            queue_capacity: 16,
            watchdog_interval: Duration::from_millis(2),
            restart_backoff: Duration::from_millis(2),
            fault_plan: Some(std::sync::Arc::new(plan)),
            ..Default::default()
        });
        exec.register_dnn(
            "app",
            testbed::tiny_dnn(seed),
            // Generous deadline: spikes rarely shed, but crash-restart
            // pile-ups legitimately can — DeadlineExpired stays a legal
            // outcome rather than a guaranteed one.
            &Requirements::new().with_max_latency(TimeSpan::from_millis(250.0)),
        ).expect("fresh executor");

        let mut rng = StdRng::seed_from_u64(seed ^ 0xFA17);
        let sample: Vec<f32> = (0..SAMPLE_LEN)
            .map(|_| rng.gen_range(-1.0f32..1.0))
            .collect();

        // A ticket may resolve three ways under faults; anything else
        // (WaitTimeout = deadlock, AppStopped = lost queue) is a bug.
        let resolve = |t: &Ticket| match t.wait_timeout(TIMEOUT) {
            Ok(_)
            | Err(ServeError::Inference { .. })
            | Err(ServeError::DeadlineExpired { .. }) => {}
            Err(e) => panic!("ticket #{} lost: {e}", t.seq()),
        };

        let mut attempts = 0u64;
        let mut outstanding: VecDeque<Ticket> = VecDeque::new();
        for i in 0..requests {
            if i % churn_every == 0 {
                // Mid-stream knob churn races the faults.
                if rng.gen_range(0..2) == 0 {
                    exec.route_command(&KnobCommand::SetWidth {
                        app: "app".into(),
                        level: WidthLevel(rng.gen_range(0..4)),
                    })
                    .unwrap();
                } else {
                    let precision = if rng.gen_range(0..2) == 0 {
                        Precision::Int8
                    } else {
                        Precision::F32
                    };
                    exec.route_command(&KnobCommand::SetPrecision {
                        app: "app".into(),
                        precision,
                    })
                    .unwrap();
                }
            }
            let mut spins = 0u32;
            loop {
                attempts += 1;
                match exec.submit("app", &sample) {
                    Ok(t) => { outstanding.push_back(t); break; }
                    Err(ServeError::QueueFull { .. }) => {
                        // Back-pressure: reap the oldest in-flight ticket
                        // (or, if the queue is full of synthetic storm
                        // riders, give the serving thread a beat).
                        match outstanding.pop_front() {
                            Some(t) => resolve(&t),
                            None => std::thread::sleep(Duration::from_millis(1)),
                        }
                        spins += 1;
                        prop_assert!(spins < 20_000, "submit livelock at request {i}");
                    }
                    Err(e) => panic!("unexpected submit outcome: {e}"),
                }
            }
        }
        for t in &outstanding {
            resolve(t);
        }
        exec.drain();

        let s = exec.stats("app").expect("registered");
        prop_assert_eq!(s.out_of_order, 0, "FIFO broke: {:?}", s);
        prop_assert_eq!(
            attempts + s.storm_injected,
            s.completed + s.errors + s.rejected + s.shed,
            "extended accounting drifted: attempts={} {:?}", attempts, s
        );
    }

    /// Mid-stream register/deregister churn under live load: a stable
    /// "pin" tenant and a churny "flux" tenant share the executor while
    /// flux is repeatedly deregistered and re-registered. Required:
    /// no deadlock (every wait resolves within the bound); no lost
    /// ticket — a ticket that crossed a deregistration resolves to a
    /// completion, a typed shed, or the typed
    /// [`ServeError::AppDeregistered`]; submissions to the tombstone
    /// get the same typed refusal; each deregistration's final
    /// snapshot closes that lifetime's extended accounting *exactly*;
    /// and a re-registered namesake starts a fresh ledger.
    #[test]
    fn register_deregister_churn_keeps_accounting_exact(
        seed in 0u64..1_000_000,
        requests in 12usize..32,
        batch_cap in 1usize..=4,
        churn_every in 3usize..8,
    ) {
        use emlrt::serve::Ticket;
        use std::collections::VecDeque;

        let exec = Executor::new(ExecutorConfig {
            batch_cap,
            queue_capacity: 16,
            ..Default::default()
        });
        let reqs = Requirements::new().with_max_latency(TimeSpan::from_millis(250.0));
        exec.register_dnn("pin", testbed::tiny_dnn(seed), &reqs)
            .expect("fresh executor");
        exec.register_dnn("flux", testbed::tiny_dnn(seed ^ 1), &reqs)
            .expect("fresh executor");

        let mut rng = StdRng::seed_from_u64(seed ^ 0xC0FF);
        let sample: Vec<f32> = (0..SAMPLE_LEN)
            .map(|_| rng.gen_range(-1.0f32..1.0))
            .collect();

        // Completions and typed sheds are always legal; the typed
        // lifecycle error is legal only for tickets that crossed a
        // flux deregistration. WaitTimeout (deadlock), AppStopped (a
        // queue lost to shutdown semantics) or anything untyped is a
        // failure.
        let resolve = |t: &Ticket| match t.wait_timeout(TIMEOUT) {
            Ok(_)
            | Err(ServeError::DeadlineExpired { .. })
            | Err(ServeError::Inference { .. }) => {}
            Err(ServeError::AppDeregistered { .. }) if t.app() == "flux" => {}
            Err(e) => panic!("ticket {}#{} lost: {e}", t.app(), t.seq()),
        };

        let mut outstanding: VecDeque<Ticket> = VecDeque::new();
        let mut pin_attempts = 0u64;
        let mut flux_attempts = 0u64; // current flux lifetime only
        let mut flux_alive = true;
        let mut deregistrations = 0u32;

        for i in 1..=requests {
            prop_assert!(
                submit_reaping(&exec, "pin", &sample, &mut pin_attempts, &mut outstanding, &resolve),
                "pin submit livelock at request {}", i
            );
            if flux_alive {
                prop_assert!(
                    submit_reaping(&exec, "flux", &sample, &mut flux_attempts, &mut outstanding, &resolve),
                    "flux submit livelock at request {}", i
                );
            } else {
                // The tombstone refuses with the distinct typed error —
                // not AppStopped, not UnknownApp — and the refusal never
                // enters the accounting ledger.
                match exec.submit("flux", &sample) {
                    Err(ServeError::AppDeregistered { .. }) => {}
                    r => panic!("tombstone submit must be typed: {r:?}"),
                }
            }

            if i % churn_every == 0 {
                if flux_alive {
                    // Outstanding flux tickets deliberately stay
                    // un-waited across this call: their later waits are
                    // the "late wait on a deregistered app" property.
                    let snap = exec.deregister_dnn("flux").expect("flux is live");
                    prop_assert_eq!(
                        flux_attempts + snap.storm_injected,
                        snap.completed + snap.errors + snap.rejected + snap.shed,
                        "lifetime accounting drifted: attempts={} {:?}",
                        flux_attempts, snap
                    );
                    match exec.deregister_dnn("flux") {
                        Err(ServeError::AppDeregistered { .. }) => {}
                        r => panic!("double deregister must be typed: {r:?}"),
                    }
                    flux_alive = false;
                    flux_attempts = 0;
                    deregistrations += 1;
                } else {
                    exec.register_dnn("flux", testbed::tiny_dnn(seed ^ u64::from(deregistrations)), &reqs)
                        .expect("tombstone must be replaceable");
                    let s = exec.stats("flux").expect("fresh registration");
                    prop_assert_eq!(
                        s.completed + s.errors + s.rejected + s.shed + s.storm_injected,
                        0,
                        "re-registration must start a fresh ledger: {:?}", s
                    );
                    flux_alive = true;
                }
            }
        }
        prop_assert!(deregistrations >= 1, "churn schedule must fire");

        // Liveness: every remaining ticket resolves to a typed outcome.
        for t in &outstanding {
            resolve(t);
        }
        exec.drain();

        let sp = exec.stats("pin").expect("pin lives");
        prop_assert_eq!(sp.out_of_order, 0, "pin FIFO broke: {:?}", sp);
        prop_assert_eq!(
            pin_attempts + sp.storm_injected,
            sp.completed + sp.errors + sp.rejected + sp.shed,
            "pin accounting drifted: attempts={} {:?}", pin_attempts, sp
        );
        let sf = exec.stats("flux").expect("live app or observable tombstone");
        if flux_alive {
            prop_assert_eq!(
                flux_attempts + sf.storm_injected,
                sf.completed + sf.errors + sf.rejected + sf.shed,
                "flux accounting drifted: attempts={} {:?}", flux_attempts, sf
            );
        } else {
            prop_assert_eq!(sf.band_cap, 0, "departed band must be released: {:?}", sf);
            prop_assert!(!sf.admitted, "tombstone must not admit: {:?}", sf);
        }
    }
}
