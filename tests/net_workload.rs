//! Generated-workload scenario driven through the networked front end:
//! the same seeded `eml_sim::workload` schedule the in-process soaks
//! replay is here submitted over real `eml-net` sockets — a live
//! `NetServer` on loopback, a `NetClient` issuing every latency probe
//! as a wire request — while arrivals, departures, allocations and
//! chaos still actuate directly on the executor behind the server
//! (lifecycle is the operator's side-channel; inference traffic is the
//! tenants').
//!
//! The point is that the hostile-client ledger assertions survive a
//! full churning scenario: every submit the front end pushed into the
//! executor is accounted for as a completion, typed error, rejection
//! or shed — across live apps *and* retired lifetimes — and the
//! front end's reply ledger stays consistent with what it submitted.
//! The shared driver pool underneath keeps its configured size
//! throughout, independent of how many tenants the schedule registers.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use emlrt::net::{AdmissionConfig, ClientError, NetClient, NetConfig, NetServer, WireStatus};
use emlrt::prelude::*;
use emlrt::rtm::rtm::{Allocation, AppSpec};
use emlrt::serve::{testbed, PoolSnapshot};
use emlrt::sim::workload::{self, WorkloadConfig};
use emlrt::sim::{ChaosFault, ExecutionBackend, SimConfig, Simulator};

const POOL_WORKERS: usize = 2;
const CLIENT_READ_TIMEOUT: Duration = Duration::from_secs(60);

/// Final counters of departed lifetimes, folded at each scenario
/// departure so the accounting invariant closes across churn (the
/// socket backend keeps its own ledger, like `ExecutedReplay::retired`).
#[derive(Debug, Default)]
struct Retired {
    lifetimes: u64,
    completed: u64,
    errors: u64,
    rejected: u64,
    shed: u64,
    storm_injected: u64,
}

/// A fixed, seed-free probe pattern (same derivation as the in-process
/// replay backend, so wire-driven and in-process runs probe alike).
fn deterministic_probe(len: usize) -> Vec<f32> {
    (0..len)
        .map(|i| ((i * 37 + 11) % 101) as f32 / 101.0)
        .collect()
}

/// An [`ExecutionBackend`] that routes every latency measurement
/// through a socket client while driving app lifecycle on the executor
/// behind the server.
struct SocketBackend {
    exec: Arc<Executor>,
    client: NetClient,
    probes: HashMap<String, Vec<f32>>,
    /// Ok replies received over the wire (must equal the front end's
    /// `completions` counter — this client is the only submitter).
    ok_replies: u64,
    /// Typed non-Ok replies received over the wire (back-pressure,
    /// serving errors, refusals) — never a hang, never a panic.
    typed_replies: u64,
    retired: Retired,
    /// Worst driver-pool size observed at any lifecycle edge.
    max_drivers_seen: usize,
}

impl SocketBackend {
    fn check_pool(&mut self) {
        let p = self.exec.pool_stats();
        self.max_drivers_seen = self.max_drivers_seen.max(p.drivers);
        assert_eq!(
            p.drivers, POOL_WORKERS,
            "driver count drifted with tenant count: {p:?}"
        );
    }
}

impl ExecutionBackend for SocketBackend {
    fn on_allocation(&mut self, _at_secs: f64, allocation: &Allocation) {
        self.exec.apply_allocation(allocation);
    }

    fn measure(&mut self, app: &str, _predicted: TimeSpan) -> Option<TimeSpan> {
        let probe = self.probes.get(app)?;
        let t0 = Instant::now();
        match self.client.submit(app, probe) {
            Ok(done) => {
                assert!(!done.logits.is_empty(), "{app}: empty logits over wire");
                self.ok_replies += 1;
                Some(TimeSpan::from_secs(t0.elapsed().as_secs_f64()))
            }
            Err(ClientError::Status { status, .. }) => {
                // Every refusal must be typed serving vocabulary, not
                // protocol abuse — this client is honest.
                assert!(
                    matches!(
                        status,
                        WireStatus::QueueFull
                            | WireStatus::NotAdmitted
                            | WireStatus::UnknownApp
                            | WireStatus::AppStopped
                            | WireStatus::AppDeregistered
                            | WireStatus::DeadlineExpired
                            | WireStatus::WaitTimeout
                            | WireStatus::Inference
                    ),
                    "{app}: unexpected wire refusal {status:?}"
                );
                self.typed_replies += 1;
                None
            }
            Err(other) => panic!("{app}: socket failure mid-scenario: {other:?}"),
        }
    }

    fn on_chaos(&mut self, _at_secs: f64, app: &str, fault: &ChaosFault) {
        let _ = self.exec.inject_fault(app, fault.clone());
    }

    fn on_arrive(&mut self, _at_secs: f64, spec: &AppSpec) {
        match spec {
            AppSpec::Dnn(d) => {
                let dnn = testbed::tiny_dnn(workload::fnv1a64(&d.name));
                let sample_len: usize = dnn.network().input_shape().iter().product();
                if self
                    .exec
                    .register_dnn(&d.name, dnn, &d.requirements)
                    .is_ok()
                {
                    self.probes
                        .entry(d.name.clone())
                        .or_insert_with(|| deterministic_probe(sample_len));
                }
            }
            AppSpec::Rigid(r) => {
                let _ = self.exec.register_rigid(&r.name);
            }
        }
        self.check_pool();
    }

    fn on_depart(&mut self, _at_secs: f64, app: &str) {
        if let Ok(snap) = self.exec.deregister_dnn(app) {
            self.retired.lifetimes += 1;
            self.retired.completed += snap.completed;
            self.retired.errors += snap.errors;
            self.retired.rejected += snap.rejected;
            self.retired.shed += snap.shed;
            self.retired.storm_injected += snap.storm_injected;
        }
        self.check_pool();
    }
}

/// A server whose admission layer is opened wide: one honest client
/// carries an entire scenario's traffic, so the token bucket must not
/// mistake the scenario for a flood (admission behaviour has its own
/// suite in `net_hostile`).
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

fn scenario_server() -> NetServer {
    let exec = Executor::new(ExecutorConfig {
        pool_workers: POOL_WORKERS,
        max_apps: 256,
        ..ExecutorConfig::default()
    });
    let cfg = NetConfig {
        idle_timeout: Duration::from_secs(120),
        reply_wait: Duration::from_secs(60),
        admission: AdmissionConfig {
            bucket_capacity: 100_000.0,
            refill_per_sec: 100_000.0,
            ban_threshold: 1.0e9,
            ..AdmissionConfig::default()
        },
        ..NetConfig::default()
    };
    NetServer::bind(cfg, exec).expect("bind loopback")
}

/// The wire-driven scenario: a generated churn-and-flash-crowd
/// schedule, every probe a socket round-trip, the hostile-client
/// ledger equations asserted across live and retired lifetimes after
/// drain-and-shutdown.
#[test]
fn generated_workload_over_sockets_balances_the_ledger() {
    let wl = workload::generate(&WorkloadConfig {
        seed: 0xA11C_E5EED,
        dnn_apps: 24,
        rigid_apps: 2,
        churn_cycles: 4,
        duration_secs: 12.0,
        ..WorkloadConfig::default()
    });
    assert!(wl.churn_cycles >= 1, "churn must be scheduled");
    assert!(wl.flash_storms >= 1, "flash crowd must be scheduled");

    let mut server = scenario_server();
    let addr = server.local_addr();
    let mut client = NetClient::connect(addr, CLIENT_READ_TIMEOUT).expect("connect loopback");
    client.hello("scenario-driver").expect("hello accepted");

    let mut backend = SocketBackend {
        exec: Arc::clone(server.executor()),
        client,
        probes: HashMap::new(),
        ok_replies: 0,
        typed_replies: 0,
        retired: Retired::default(),
        max_drivers_seen: 0,
    };

    let sim = Simulator::new(
        emlrt::platform::presets::flagship(),
        wl.events.clone(),
        SimConfig {
            duration: TimeSpan::from_secs(12.0),
            sample_every: TimeSpan::from_millis(500.0),
            ..SimConfig::default()
        },
    )
    .expect("generated schedule is valid");
    sim.run_executed(&mut backend)
        .expect("wire-driven scenario completes");

    // Graceful drain-and-shutdown, then the books must balance.
    server.shutdown();
    let net = server.stats();
    let exec = server.executor();

    assert_eq!(net.conn_panics, 0, "a connection handler panicked");
    assert!(
        backend.ok_replies > 0,
        "the scenario must complete inferences over the wire"
    );
    assert_eq!(
        backend.ok_replies, net.completions,
        "this client is the only submitter: {net:?}"
    );
    assert!(
        backend.retired.lifetimes >= 1,
        "churn must have retired lifetimes over the wire run"
    );

    // The pool kept its configured size through every lifecycle edge
    // and the shutdown drain — independent of the tenant count.
    let p = restored_pool(exec);
    assert_eq!(p.drivers, POOL_WORKERS, "{p:?}");
    assert_eq!(p.live_drivers, POOL_WORKERS, "a driver died: {p:?}");
    assert_eq!(backend.max_drivers_seen, POOL_WORKERS);
    assert_eq!(p.queue_depth + p.in_flight, 0, "drained: {p:?}");

    // Extended accounting across live apps and retired lifetimes, with
    // the *front end's* submission counters on the left-hand side: the
    // wire ledger and the executor ledger must agree exactly.
    let mut live_settled = 0u64;
    let mut live_storms = 0u64;
    for name in exec.app_names() {
        if let Ok(s) = exec.stats(&name) {
            assert_eq!(s.out_of_order, 0, "{name}: FIFO broke over the wire");
            live_settled += s.completed + s.errors + s.rejected + s.shed;
            live_storms += s.storm_injected;
        }
    }
    let r = &backend.retired;
    let retired_settled = r.completed + r.errors + r.rejected + r.shed;
    assert_eq!(
        (net.exec_submitted + net.exec_rejected) + live_storms + r.storm_injected,
        live_settled + retired_settled,
        "accounting broke across the wire run: net={net:?} retired={r:?}"
    );
    // The front end's reply ledger is consistent with what it submitted.
    assert_eq!(
        net.exec_submitted,
        net.completions + net.ticket_errors,
        "{net:?}"
    );
}
