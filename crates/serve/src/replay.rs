//! Executed-mode scenario replay: the adapter that plugs the real
//! executor into [`eml_sim::Simulator::run_executed`].
//!
//! The simulator stays the clock and the policy engine (arrivals,
//! thermal governor, RTM decisions); [`ExecutedReplay`] actuates every
//! decision on a live [`Executor`] and answers latency samples by
//! timing a real inference request — so a scenario trace reports what
//! the kernels measurably delivered at each decided operating point,
//! not what the analytic model predicted.
//!
//! With an app builder ([`ExecutedReplay::with_app_builder`]) the
//! replay also drives the executor's *lifecycle*: scenario arrivals
//! register live apps (rigid tenants too), departures call
//! [`Executor::deregister_dnn`], and the final counters of every
//! departed lifetime are folded into a [`RetiredTotals`] ledger — so
//! the extended accounting invariant can be asserted across churn, not
//! just over apps that survive to the end of the run.

use std::collections::HashMap;
use std::fmt;
use std::time::Duration;

use eml_core::rtm::{Allocation, AppSpec, DnnAppSpec};
use eml_dnn::DynamicDnn;
use eml_platform::units::TimeSpan;
use eml_sim::{ChaosFault, ExecutionBackend};

use crate::error::ServeError;
use crate::executor::Executor;

/// Accumulated final counters of every app lifetime ended by a
/// scenario departure (the snapshot [`Executor::deregister_dnn`]
/// returns). Together with the live apps' snapshots and the replay's
/// [`attempt`](ExecutedReplay::attempts) counters, these close the
/// extended accounting invariant across churn:
/// `attempts + storm_injected == completed + errors + rejected + shed`
/// summed over live *and* retired lifetimes.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RetiredTotals {
    /// Lifetimes retired (one per successful deregistration).
    pub lifetimes: u64,
    /// Requests completed across retired lifetimes.
    pub completed: u64,
    /// Typed errors across retired lifetimes (includes the stranded
    /// tickets each deregistration settled).
    pub errors: u64,
    /// Queue-full / not-admitted rejections across retired lifetimes.
    pub rejected: u64,
    /// Expired requests shed across retired lifetimes.
    pub shed: u64,
    /// Synthetic storm requests injected across retired lifetimes.
    pub storm_injected: u64,
}

impl RetiredTotals {
    fn absorb(&mut self, snap: &crate::stats::AppStatsSnapshot) {
        self.lifetimes += 1;
        self.completed += snap.completed;
        self.errors += snap.errors;
        self.rejected += snap.rejected;
        self.shed += snap.shed;
        self.storm_injected += snap.storm_injected;
    }
}

type AppBuilder<'a> = Box<dyn FnMut(&DnnAppSpec) -> DynamicDnn + 'a>;

/// Replays allocation decisions and latency samples through a live
/// executor. Apps without a registered probe input sample analytically
/// (the backend returns `None` for them).
pub struct ExecutedReplay<'a> {
    exec: &'a Executor,
    probes: HashMap<String, Vec<f32>>,
    timeout: Duration,
    builder: Option<AppBuilder<'a>>,
    attempts: HashMap<String, u64>,
    retired: RetiredTotals,
}

impl fmt::Debug for ExecutedReplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ExecutedReplay")
            .field("exec", &self.exec)
            .field("probes", &self.probes.len())
            .field("timeout", &self.timeout)
            .field("builder", &self.builder.is_some())
            .field("retired", &self.retired)
            .finish()
    }
}

impl<'a> ExecutedReplay<'a> {
    /// Creates a replay backend over `exec` with a 30 s per-measurement
    /// safety timeout (a hung measurement falls back to analytic
    /// sampling instead of wedging the scenario).
    pub fn new(exec: &'a Executor) -> Self {
        Self {
            exec,
            probes: HashMap::new(),
            timeout: Duration::from_secs(30),
            builder: None,
            attempts: HashMap::new(),
            retired: RetiredTotals::default(),
        }
    }

    /// Registers the probe input (one flattened sample) measured for
    /// `app` at every trace sample point.
    #[must_use]
    pub fn with_probe(mut self, app: impl Into<String>, sample: Vec<f32>) -> Self {
        self.probes.insert(app.into(), sample);
        self
    }

    /// Overrides the per-measurement timeout.
    #[must_use]
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Enables lifecycle-driving replay: every scenario arrival of a
    /// DNN app calls `build` for a live model and registers it (with
    /// the spec's requirements) on the executor, auto-deriving a
    /// deterministic probe from the model's input shape; rigid
    /// arrivals call [`Executor::register_rigid`]; departures call
    /// [`Executor::deregister_dnn`] and fold the final snapshot into
    /// [`ExecutedReplay::retired`]. Re-arrivals of a live name are
    /// ignored ([`ServeError::DuplicateApp`] is not an error here —
    /// the scenario's re-`Arrive` after an `Update` is a spec change,
    /// not a lifecycle event). Rigid departures only affect the
    /// allocation side; the executor keeps the rigid registration for
    /// bookkeeping.
    #[must_use]
    pub fn with_app_builder(mut self, build: impl FnMut(&DnnAppSpec) -> DynamicDnn + 'a) -> Self {
        self.builder = Some(Box::new(build));
        self
    }

    /// Requests this replay has attempted for `app` (submissions that
    /// obtained a ticket, plus typed queue-full / not-admitted
    /// rejections — exactly the submissions the executor's accounting
    /// invariant counts). Cumulative across churned lifetimes.
    pub fn attempts(&self, app: &str) -> u64 {
        self.attempts.get(app).copied().unwrap_or(0)
    }

    /// Total attempted requests across every app this replay touched.
    pub fn total_attempts(&self) -> u64 {
        self.attempts.values().sum()
    }

    /// The accumulated final counters of departed app lifetimes.
    pub fn retired(&self) -> RetiredTotals {
        self.retired
    }
}

/// A fixed, seed-free probe pattern: deterministic bytes any two
/// same-schedule runs derive identically.
fn deterministic_probe(len: usize) -> Vec<f32> {
    (0..len)
        .map(|i| ((i * 37 + 11) % 101) as f32 / 101.0)
        .collect()
}

impl ExecutionBackend for ExecutedReplay<'_> {
    fn on_allocation(&mut self, _at_secs: f64, allocation: &Allocation) {
        self.exec.apply_allocation(allocation);
    }

    fn measure(&mut self, app: &str, _predicted: TimeSpan) -> Option<TimeSpan> {
        let probe = self.probes.get(app)?;
        match self.exec.submit(app, probe) {
            Ok(ticket) => {
                *self.attempts.entry(app.to_string()).or_insert(0) += 1;
                let done = ticket.wait_timeout(self.timeout).ok()?;
                Some(done.latency)
            }
            Err(ServeError::QueueFull { .. } | ServeError::NotAdmitted { .. }) => {
                // The executor counted a rejection for this submission:
                // it is an attempt for accounting purposes.
                *self.attempts.entry(app.to_string()).or_insert(0) += 1;
                None
            }
            // Refusals (stopped, deregistered, unknown, bad shape)
            // never enter the executor's ledger — not attempts.
            Err(_) => None,
        }
    }

    fn on_chaos(&mut self, _at_secs: f64, app: &str, fault: &ChaosFault) {
        // Scenario chaos → a one-shot armed fault on the live executor
        // (consumed by the app's next dispatched batch). Unknown apps
        // are ignored, like unknown apps in `measure`.
        let _ = self.exec.inject_fault(app, fault.clone());
    }

    fn on_arrive(&mut self, _at_secs: f64, spec: &AppSpec) {
        match spec {
            AppSpec::Dnn(d) => {
                let Some(build) = self.builder.as_mut() else {
                    return;
                };
                let dnn = build(d);
                let sample_len: usize = dnn.network().input_shape().iter().product();
                // On DuplicateApp (re-Arrive of a running app) the
                // freshly built model is dropped and serving
                // continues uninterrupted.
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
                if self.builder.is_some() {
                    let _ = self.exec.register_rigid(&r.name);
                }
            }
        }
    }

    fn on_depart(&mut self, _at_secs: f64, app: &str) {
        if self.builder.is_none() {
            return;
        }
        if let Ok(snap) = self.exec.deregister_dnn(app) {
            self.retired.absorb(&snap);
        }
    }
}
