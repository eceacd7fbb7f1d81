//! The system under test: the four workload shapes, what `--seed`
//! generates for them, and the one way the serving stack is stood up
//! (the timed set-up), scripted (control turns, churn cycles) and torn
//! down (the ledger check).

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use eml_core::knobs::KnobCommand;
use eml_core::requirements::Requirements;
use eml_core::rtm::{AppSpec, DnnAppSpec, RigidAppSpec, Rtm, RtmConfig};
use eml_dnn::{DynamicDnn, Precision, WidthLevel};
use eml_net::{AdmissionConfig, NetClient, NetConfig, NetServer, NetStatsSnapshot};
use eml_platform::soc::CoreKind;
use eml_platform::Soc;
use eml_serve::{
    AppStatsSnapshot, ControllerConfig, Executor, ExecutorConfig, HealthConfig, HealthMonitor,
    ServeController,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::models::{build_model, mix, Fnv, ModelKind, Pool, Reference, LEVELS};

/// Seed of the deployment: every tenant's weights and sample pool.
/// Not `--seed`: how often the int8 argmax agrees with f32 depends on
/// the weights and on the samples drawn (96.5–100 % over twenty seeds
/// at 256 samples, still a quartile spread of 1 % with only the
/// weights fixed), and `top1_agree_pct` is gated at 0.01. So the model
/// and its validation pool are fixed and the seed draws the traffic.
const DEPLOYMENT_SEED: u64 = 1;
/// How long any single wait may take before the run is declared
/// broken (a lost ticket must fail the run, not hang it).
pub const STALL: Duration = Duration::from_secs(20);
/// Name of the rigid co-tenant the churn cycle toggles.
const RIGID: &str = "vr";

/// One workload's fixed shape.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Workload name.
    pub name: &'static str,
    /// Model every tenant serves.
    pub model: ModelKind,
    /// Registered DNN tenants.
    pub tenants: usize,
    /// Serving precision.
    pub precision: Precision,
    /// Samples in each tenant's pool.
    pub pool_len: usize,
    /// `ExecutorConfig::pool_workers`.
    pub pool_workers: usize,
    /// `ExecutorConfig::batch_cap`.
    pub batch_cap: usize,
    /// Requests the client keeps outstanding (per connection on the wire).
    pub outstanding: usize,
    /// Wire connections; 0 submits in-process.
    pub connections: usize,
    /// Allocate on `presets::flagship()` instead of the testbed SoC.
    pub flagship: bool,
    /// A control turn every this many completions.
    pub turn_every: u64,
    /// A quiesce + churn cycle every this many completions, if any.
    pub churn_every: Option<u64>,
}

/// The four shapes, by name.
pub fn shape_of(workload: &str) -> Option<Shape> {
    let base = Shape {
        name: "solo_f32",
        model: ModelKind::Default,
        tenants: 1,
        precision: Precision::F32,
        pool_len: 256,
        pool_workers: 1,
        batch_cap: 8,
        outstanding: 1,
        connections: 0,
        flagship: false,
        turn_every: 256,
        churn_every: None,
    };
    Some(match workload {
        "solo_f32" => base,
        "batch_int8" => Shape {
            name: "batch_int8",
            precision: Precision::Int8,
            outstanding: 16,
            turn_every: 512,
            ..base
        },
        "fanout_100t" => Shape {
            name: "fanout_100t",
            model: ModelKind::Tiny,
            tenants: 100,
            pool_len: 32,
            pool_workers: 2,
            outstanding: 32,
            flagship: true,
            turn_every: 8192,
            churn_every: Some(65_536),
            ..base
        },
        "net_pipe" => Shape {
            name: "net_pipe",
            model: ModelKind::Tiny,
            outstanding: 8,
            connections: 2,
            turn_every: 2048,
            ..base
        },
        _ => return None,
    })
}

/// One tenant of the deployment, and what its replies must equal.
pub struct Tenant {
    /// Registered name.
    pub name: String,
    /// Seed of the model's weights.
    pub weight_seed: u64,
    /// The tenant's sample pool.
    pub pool: Pool,
    /// Expected outputs of an identically built model.
    pub reference: Reference,
}

/// Everything generated once per run, outside every timed region: the
/// deployment (weights, pools, reference outputs — the same on every
/// seed) and the traffic `--seed` draws over it: the tenant visiting
/// order, the order each pool is walked in and the churn victims.
pub struct Fixture {
    /// The workload's shape.
    pub shape: Shape,
    /// The run seed.
    pub seed: u64,
    /// Per-tenant pools and expected outputs.
    pub tenants: Vec<Tenant>,
    /// The seeded tenant permutation the client walks.
    pub order: Vec<u32>,
    /// The seeded permutation every tenant's pool is walked in.
    pub sample_order: Vec<u32>,
}

impl Fixture {
    /// Generates the fixture for `shape` from `seed`.
    pub fn generate(shape: Shape, seed: u64) -> Self {
        let tenants = (0..shape.tenants)
            .map(|i| {
                let weight_seed = mix(DEPLOYMENT_SEED, i as u64, 1);
                let pool = Pool::generate(
                    shape.model,
                    mix(DEPLOYMENT_SEED, i as u64, 2),
                    shape.pool_len,
                );
                let reference =
                    Reference::compute(shape.model, weight_seed, &pool, shape.precision);
                Tenant {
                    name: format!("t{i:03}"),
                    weight_seed,
                    pool,
                    reference,
                }
            })
            .collect();
        let mut order: Vec<u32> = (0..shape.tenants as u32).collect();
        order.shuffle(&mut StdRng::seed_from_u64(mix(seed, 0, 3)));
        let mut sample_order: Vec<u32> = (0..shape.pool_len as u32).collect();
        sample_order.shuffle(&mut StdRng::seed_from_u64(mix(seed, 0, 5)));
        Self {
            shape,
            seed,
            tenants,
            order,
            sample_order,
        }
    }

    /// The tenant churn cycle `cycle` picks on.
    pub fn victim(&self, cycle: u64) -> usize {
        (mix(self.seed, cycle, 4) % self.shape.tenants as u64) as usize
    }

    /// FNV-1a over every expected logit, each pool in the order the
    /// seed walks it: two runs with equal digests verified the same
    /// replies against the same numbers.
    pub fn output_digest(&self) -> u64 {
        let mut digest = Fnv::default();
        for t in &self.tenants {
            t.reference.digest_into(&mut digest, &self.sample_order);
        }
        digest.0
    }

    fn build_tenant_model(&self, tenant: usize) -> DynamicDnn {
        let t = &self.tenants[tenant];
        build_model(
            self.shape.model,
            t.weight_seed,
            &t.pool,
            self.shape.precision,
        )
    }

    /// The SoC the workload's controller allocates on.
    pub fn soc(&self) -> Soc {
        if self.shape.flagship {
            eml_platform::presets::flagship()
        } else {
            eml_serve::testbed::quad_core_soc()
        }
    }

    /// Whether `logits` are, bit for bit, what `tenant` must answer
    /// for `sample` at `level`.
    pub fn verify(&self, tenant: usize, level: usize, sample: usize, logits: &[f32]) -> bool {
        let want = self.tenants[tenant].reference.logits(level, sample);
        want.len() == logits.len()
            && want
                .iter()
                .zip(logits)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }
}

enum Front {
    InProcess(Executor),
    Wire {
        server: NetServer,
        clients: Vec<NetClient>,
    },
    /// Transient, while an executor moves behind a server.
    Moving,
}

impl Front {
    /// The executor, wherever it lives. Borrows the front alone, so
    /// the controller beside it stays free to be borrowed mutably.
    fn executor(&self) -> &Executor {
        match self {
            Self::InProcess(exec) => exec,
            Self::Wire { server, .. } => server.executor(),
            Self::Moving => panic!("executor is between fronts"),
        }
    }
}

/// Counters summed over tenant lifetimes the churn cycle has ended.
#[derive(Debug, Default, Clone, Copy)]
pub struct Settled {
    /// `completed + errors + rejected + shed`.
    pub settled: u64,
    /// Synthetic requests a queue storm injected (always 0 here).
    pub storm_injected: u64,
    /// Requests refused at submission.
    pub rejected: u64,
    /// Requests shed past their deadline.
    pub shed: u64,
    /// Requests whose batch failed.
    pub errors: u64,
    /// Completions past their deadline.
    pub missed: u64,
    /// Completions out of per-app FIFO order.
    pub out_of_order: u64,
    /// Batched forward passes.
    pub batches: u64,
    /// Samples those passes carried.
    pub batched_samples: u64,
    /// Largest queue depth any tenant saw.
    pub max_queue_depth: usize,
}

impl Settled {
    fn add(&mut self, s: &AppStatsSnapshot) {
        self.settled += s.completed + s.errors + s.rejected + s.shed;
        self.storm_injected += s.storm_injected;
        self.rejected += s.rejected;
        self.shed += s.shed;
        self.errors += s.errors;
        self.missed += s.missed;
        self.out_of_order += s.out_of_order;
        self.batches += s.batches;
        self.batched_samples += s.batched_samples;
        self.max_queue_depth = self.max_queue_depth.max(s.max_queue_depth);
    }
}

/// What the closing ledger check found.
#[derive(Debug, Clone)]
pub struct Ledger {
    /// Submission attempts the benchmark made on this system.
    pub attempted: u64,
    /// Attempts that were refused, failed or answered wrongly.
    pub failed: u64,
    /// Executor counters over live and retired lifetimes.
    pub totals: Settled,
    /// Front-end counters, on the wire.
    pub net: Option<NetStatsSnapshot>,
    /// `submitted + storm_injected == completed + errors + rejected +
    /// shed`, `out_of_order == 0`, and on the wire every submit frame
    /// reached the executor and came back as a completion.
    pub closes: bool,
}

/// `(start, end)` of one churn cycle's steps, in ns since the clock
/// origin handed in.
#[derive(Debug, Clone, Copy)]
pub struct ChurnTimes {
    /// `ServeController::allocate_and_apply`.
    pub replan: (u64, u64),
    /// `route_command(SetWidth)` until `stats().level` shows it.
    pub knob_settle: (u64, u64),
    /// `Executor::deregister_dnn`.
    pub deregister: (u64, u64),
    /// `Executor::register_dnn`.
    pub register: (u64, u64),
}

/// `(start, end)` of one control turn's parts, on the same clock.
#[derive(Debug, Clone, Copy)]
pub struct TurnTimes {
    /// `HealthMonitor::observe`.
    pub observe: (u64, u64),
    /// `ServeController::control_epoch`.
    pub epoch: (u64, u64),
}

/// A live serving stack plus the scripted manager beside it.
pub struct System {
    front: Front,
    ctl: ServeController,
    health: HealthMonitor,
    /// Width level each tenant currently serves at.
    pub levels: Vec<usize>,
    /// Submission attempts so far (every path).
    pub attempted: u64,
    /// Refusals, errors and mismatches so far.
    pub failed: u64,
    /// Submit frames written to the wire so far.
    pub wire_submits: u64,
    /// Hello and ping frames written so far.
    pub wire_other: u64,
    retired: Settled,
    rigid_present: bool,
    cycles: u64,
}

fn ns_since(origin: Instant) -> u64 {
    origin.elapsed().as_nanos() as u64
}

impl System {
    /// The timed set-up: build every model from its seed (calibrating
    /// and freezing int8 scales at all four widths), `Executor::new`,
    /// register, first `allocate_and_apply`, bind/connect/hello on the
    /// wire, first verified reply from every tenant. Returns the
    /// system and the seconds it took.
    ///
    /// # Errors
    ///
    /// A refusal, an unplaced tenant or a wrong first reply.
    pub fn set_up(fx: &Fixture) -> Result<(Self, f64), String> {
        let shape = fx.shape;
        let t0 = Instant::now();
        let exec = Executor::new(ExecutorConfig {
            pool_workers: shape.pool_workers,
            batch_cap: shape.batch_cap,
            ..ExecutorConfig::default()
        });
        let requirements = Requirements::new();
        let mut specs = Vec::with_capacity(shape.tenants + 1);
        for (i, t) in fx.tenants.iter().enumerate() {
            let dnn = fx.build_tenant_model(i);
            specs.push(AppSpec::Dnn(DnnAppSpec {
                name: t.name.clone(),
                profile: dnn.profile().clone(),
                requirements: requirements.clone(),
                priority: 1,
                objective: None,
            }));
            exec.register_dnn(t.name.clone(), dnn, &requirements)
                .map_err(|e| format!("register {}: {e}", t.name))?;
        }
        let mut ctl = ServeController::new(
            Rtm::new(RtmConfig::default()),
            fx.soc(),
            specs,
            ControllerConfig::default(),
        );
        let levels = Self::replan(&mut ctl, &exec, fx)?;
        let front = if shape.connections == 0 {
            Front::InProcess(exec)
        } else {
            Self::put_on_the_wire(exec, shape.connections)?
        };
        let mut sys = Self {
            front,
            ctl,
            health: HealthMonitor::new(HealthConfig::default()),
            levels,
            attempted: 0,
            failed: 0,
            wire_submits: 0,
            wire_other: 2 * shape.connections as u64,
            retired: Settled::default(),
            rigid_present: false,
            cycles: 0,
        };
        for tenant in 0..shape.tenants {
            let ok = if shape.connections == 0 {
                sys.one_request(fx, tenant, 0)?
            } else {
                sys.one_wire_request(fx, tenant, 0)?
            };
            if !ok {
                return Err(format!(
                    "first reply of {} is wrong",
                    fx.tenants[tenant].name
                ));
            }
        }
        Ok((sys, t0.elapsed().as_secs_f64()))
    }

    /// Binds a server over `exec` on loopback, with an admission
    /// bucket so wide the gate runs but never refuses, and connects
    /// `connections` clients that each say hello and ping once.
    fn put_on_the_wire(exec: Executor, connections: usize) -> Result<Front, String> {
        let server = NetServer::bind(
            NetConfig {
                read_tick: Duration::from_millis(5),
                admission: AdmissionConfig {
                    bucket_capacity: 1e12,
                    refill_per_sec: 1e12,
                    ..AdmissionConfig::default()
                },
                ..NetConfig::default()
            },
            exec,
        )
        .map_err(|e| format!("bind loopback: {e}"))?;
        let addr: SocketAddr = server.local_addr();
        let mut clients = Vec::with_capacity(connections);
        for c in 0..connections {
            let mut client =
                NetClient::connect(addr, STALL).map_err(|e| format!("connect: {e}"))?;
            client
                .hello(&format!("bench-{c}"))
                .map_err(|e| format!("hello: {e}"))?;
            client.ping().map_err(|e| format!("ping: {e}"))?;
            clients.push(client);
        }
        Ok(Front::Wire { server, clients })
    }

    /// Moves an in-process executor behind a loopback server with one
    /// client (the wire probes of the traced run). No-op on the wire.
    ///
    /// # Errors
    ///
    /// Bind or connect failures.
    pub fn ensure_wire(&mut self) -> Result<(), String> {
        if let Front::InProcess(_) = self.front {
            let Front::InProcess(exec) = std::mem::replace(&mut self.front, Front::Moving) else {
                unreachable!("matched above");
            };
            self.front = Self::put_on_the_wire(exec, 1)?;
            self.wire_other += 2;
        }
        Ok(())
    }

    /// The executor, wherever it lives.
    ///
    /// # Panics
    ///
    /// Panics if called while the executor is moving behind a server.
    pub fn exec(&self) -> &Executor {
        self.front.executor()
    }

    /// The controller's current `AppSpec`s.
    pub fn specs(&mut self) -> Vec<AppSpec> {
        self.ctl.apps_mut().clone()
    }

    /// Executor counters right now, over live and retired lifetimes.
    pub fn totals(&self, fx: &Fixture) -> Settled {
        let mut totals = self.retired;
        for t in &fx.tenants {
            if let Ok(s) = self.exec().stats(&t.name) {
                totals.add(&s);
            }
        }
        totals
    }

    /// The wire clients (empty in-process).
    pub fn clients(&mut self) -> &mut [NetClient] {
        match &mut self.front {
            Front::Wire { clients, .. } => clients,
            _ => &mut [],
        }
    }

    fn replan(
        ctl: &mut ServeController,
        exec: &Executor,
        fx: &Fixture,
    ) -> Result<Vec<usize>, String> {
        let alloc = ctl
            .allocate_and_apply(exec)
            .map_err(|e| format!("allocate: {e}"))?;
        // Only the rigid co-tenant may stay unplaced (the testbed SoC
        // has no GPU for it); a DNN tenant the allocation leaves out
        // would be refused at submission.
        fx.tenants
            .iter()
            .map(|t| {
                alloc
                    .dnn(&t.name)
                    .map(|d| d.point.op.level.index())
                    .ok_or_else(|| format!("allocation does not place {}", t.name))
            })
            .collect()
    }

    /// One in-process request, one outstanding, waited for and checked
    /// against the reference at the tenant's level. `Ok(false)` is a
    /// wrong or failed reply (already counted as failed).
    ///
    /// # Errors
    ///
    /// A reply that never came.
    pub fn one_request(
        &mut self,
        fx: &Fixture,
        tenant: usize,
        sample: usize,
    ) -> Result<bool, String> {
        self.attempted += 1;
        let t = &fx.tenants[tenant];
        let outcome = self
            .exec()
            .submit(&t.name, t.pool.sample(sample))
            .and_then(|ticket| ticket.wait_timeout(STALL));
        let ok = match outcome {
            Ok(done) => fx.verify(tenant, self.levels[tenant], sample, &done.logits),
            Err(eml_serve::ServeError::WaitTimeout { .. }) => {
                return Err(format!("{}: no reply within {STALL:?}", t.name));
            }
            Err(_) => false,
        };
        self.failed += u64::from(!ok);
        Ok(ok)
    }

    /// [`System::one_request`] through the first wire client's
    /// unpipelined `NetClient::submit`.
    ///
    /// # Errors
    ///
    /// A socket failure (a typed refusal is `Ok(false)`).
    pub fn one_wire_request(
        &mut self,
        fx: &Fixture,
        tenant: usize,
        sample: usize,
    ) -> Result<bool, String> {
        self.attempted += 1;
        self.wire_submits += 1;
        let t = &fx.tenants[tenant];
        let level = self.levels[tenant];
        let client = self.clients().first_mut().ok_or("no wire client")?;
        let ok = match client.submit(&t.name, t.pool.sample(sample)) {
            Ok(done) => fx.verify(tenant, level, sample, &done.logits),
            Err(eml_net::ClientError::Status { .. }) => false,
            Err(e) => return Err(format!("{}: wire request failed: {e}", t.name)),
        };
        self.failed += u64::from(!ok);
        Ok(ok)
    }

    /// One scripted control turn on the calling thread:
    /// `HealthMonitor::observe` then `ServeController::control_epoch`
    /// over the workload's tenants. Nothing may re-plan on its own (no
    /// tenant has a latency bound), so a re-allocation is an error.
    ///
    /// # Errors
    ///
    /// A control-epoch failure or an unscripted re-allocation.
    pub fn control_turn(&mut self, origin: Instant) -> Result<TurnTimes, String> {
        let exec = self.front.executor();
        let t0 = ns_since(origin);
        let report = self.health.observe(exec);
        let t1 = ns_since(origin);
        let outcome = self
            .ctl
            .control_epoch(exec)
            .map_err(|e| format!("control epoch: {e}"))?;
        let t2 = ns_since(origin);
        if outcome.reallocated || report.apps.is_empty() {
            return Err(format!(
                "control turn went off script: {outcome:?}, {} apps observed",
                report.apps.len()
            ));
        }
        Ok(TurnTimes {
            observe: (t0, t1),
            epoch: (t1, t2),
        })
    }

    /// One churn cycle on a quiesced system (no ticket outstanding, so
    /// nothing can fail): toggle the rigid co-tenant in the
    /// controller's specs and force `allocate_and_apply`; route one
    /// `SetWidth` to the seeded victim and wait until `stats().level`
    /// shows it; check one reply at the new width; deregister the
    /// victim and register an identically built model under its name;
    /// wait until every tenant's `stats().level` is the level its
    /// replies will be checked at.
    ///
    /// # Errors
    ///
    /// Any refusal, a knob that never settles, a wrong reply.
    pub fn churn_cycle(&mut self, fx: &Fixture, origin: Instant) -> Result<ChurnTimes, String> {
        let victim = fx.victim(self.cycles);
        self.cycles += 1;
        let name = fx.tenants[victim].name.clone();
        // Built before the clock starts on anything: model building
        // has its own metric (`dnn.build_ms`, `dnn.calibrate_ms`).
        let replacement = fx.build_tenant_model(victim);

        if self.rigid_present {
            self.ctl.apps_mut().retain(|a| a.name() != RIGID);
        } else {
            self.ctl.apps_mut().push(AppSpec::Rigid(RigidAppSpec {
                name: RIGID.into(),
                preferred: vec![CoreKind::Gpu],
                utilization: 0.9,
                priority: 3,
            }));
        }
        self.rigid_present = !self.rigid_present;
        let t0 = ns_since(origin);
        let exec = self.front.executor();
        self.levels = Self::replan(&mut self.ctl, exec, fx)?;
        let t1 = ns_since(origin);

        let target = if self.levels[victim] == LEVELS - 1 {
            LEVELS - 2
        } else {
            LEVELS - 1
        };
        let t2 = ns_since(origin);
        exec.route_command(&KnobCommand::SetWidth {
            app: name.clone(),
            level: WidthLevel(target),
        })
        .map_err(|e| format!("route SetWidth: {e}"))?;
        self.await_level(&name, target, fx.shape.precision)?;
        let t3 = ns_since(origin);
        self.levels[victim] = target;
        if !self.one_request(fx, victim, 0)? {
            return Err(format!("{name}: wrong reply at level {target}"));
        }

        let t4 = ns_since(origin);
        let last = self
            .exec()
            .deregister_dnn(&name)
            .map_err(|e| format!("deregister {name}: {e}"))?;
        let t5 = ns_since(origin);
        self.retired.add(&last);
        let t6 = ns_since(origin);
        self.exec()
            .register_dnn(name.clone(), replacement, &Requirements::new())
            .map_err(|e| format!("re-register {name}: {e}"))?;
        let t7 = ns_since(origin);
        self.levels[victim] = LEVELS - 1;

        for (t, &level) in fx.tenants.iter().zip(&self.levels) {
            self.await_level(&t.name, level, fx.shape.precision)?;
        }
        Ok(ChurnTimes {
            replan: (t0, t1),
            knob_settle: (t2, t3),
            deregister: (t4, t5),
            register: (t6, t7),
        })
    }

    /// Polls `stats(app)` until it reports `level` (and still the
    /// workload's precision: nothing in the script routes a precision
    /// command, so any other value is a bug).
    fn await_level(&self, app: &str, level: usize, precision: Precision) -> Result<(), String> {
        let t0 = Instant::now();
        loop {
            let snap = self
                .exec()
                .stats(app)
                .map_err(|e| format!("stats {app}: {e}"))?;
            if snap.precision != precision {
                return Err(format!(
                    "{app} serves at {:?}, not {precision:?}",
                    snap.precision
                ));
            }
            if snap.level == level {
                return Ok(());
            }
            if t0.elapsed() > STALL {
                return Err(format!(
                    "{app} never reached level {level} (at {})",
                    snap.level
                ));
            }
            std::thread::yield_now();
        }
    }

    /// Tears the system down and closes the books: drains, reads every
    /// tenant's final counters (live and retired lifetimes), shuts the
    /// server down on the wire.
    pub fn close(mut self, fx: &Fixture) -> Ledger {
        let mut net = None;
        if let Front::Wire { server, clients } = &mut self.front {
            clients.clear();
            server.shutdown();
            net = Some(server.stats());
        }
        self.exec().drain();
        let totals = self.totals(fx);
        let wire_closes = net.as_ref().is_none_or(|n| {
            n.frames == self.wire_submits + self.wire_other
                && n.completions == self.wire_submits
                && n.exec_submitted == self.wire_submits
                && n.rate_limited == 0
                && n.conn_panics == 0
        });
        let closes = self.attempted + totals.storm_injected == totals.settled
            && totals.out_of_order == 0
            && wire_closes;
        Ledger {
            attempted: self.attempted,
            failed: self.failed,
            totals,
            net,
            closes,
        }
    }
}
