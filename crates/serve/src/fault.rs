//! Deterministic fault injection for the serving executor — the one
//! file that knows what a fault *does*.
//!
//! A [`FaultPlan`] is a seeded, fully explicit schedule of hostile
//! events — forward panics, serving-thread crashes, latency spikes,
//! knob-actuation failures, queue storms — keyed to per-app request
//! *sequence numbers* rather than wall-clock time, so the same plan
//! replayed against the same request schedule produces bit-identical
//! counter trajectories. Plans are injected through
//! [`crate::ExecutorConfig::fault_plan`]; runtime one-shots — the path
//! the simulator's chaos hooks use — through
//! [`crate::Executor::inject_fault`]. The vocabulary is the simulator's
//! own: [`FaultKind`] *is* [`eml_sim::ChaosFault`], so a scenario's
//! chaos action reaches the executor without translation.
//!
//! ## The seam
//!
//! Both sources feed one per-app pending list inside a [`FaultState`]
//! (a runtime one-shot is simply a plan entry that is already due). An
//! app with no plan slice that was never `inject_fault`ed has no
//! `FaultState` at all, and its dispatch path runs none of this file.
//! Otherwise the executor touches faults at exactly three points:
//!
//! 1. [`FaultState::on_dispatch`], under the ledger lock, once per
//!    dispatch: every entry whose `at_seq` the batch's highest sequence
//!    number reaches fires — exactly once, in list order (plan entries
//!    in insertion order, then one-shots in arming order; the list is
//!    shared state, so nothing re-fires after a supervised restart) —
//!    and folds into one [`Injected`] value the dispatch carries.
//! 2. [`Injected::crash_if_armed`], *outside* the forward's panic
//!    containment.
//! 3. [`Injected::before_forward`], *inside* it.

use std::time::{Duration, Instant};

use eml_platform::units::TimeSpan;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One kind of injected fault — the simulator's chaos vocabulary,
/// re-exported so plans, one-shots and scenario chaos share one type.
pub use eml_sim::ChaosFault as FaultKind;

/// One scheduled fault: fires once, on the first dispatched batch of
/// `app` whose highest sequence number is at least `at_seq`.
#[derive(Debug, Clone, PartialEq)]
pub struct Fault {
    /// The targeted application.
    pub app: String,
    /// The per-app request sequence number that triggers the fault.
    pub at_seq: u64,
    /// What happens.
    pub kind: FaultKind,
}

/// A deterministic schedule of faults. See the module docs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// An empty plan (add faults with [`FaultPlan::with_fault`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one scheduled fault.
    #[must_use]
    pub fn with_fault(mut self, app: impl Into<String>, at_seq: u64, kind: FaultKind) -> Self {
        self.faults.push(Fault {
            app: app.into(),
            at_seq,
            kind,
        });
        self
    }

    /// Generates `count` faults over `apps`, kinds and trigger
    /// sequences drawn from a seeded generator — the property suite's
    /// "arbitrary hostile schedule". The same `(seed, apps, count,
    /// seqs)` always yields the same plan.
    pub fn seeded(seed: u64, apps: &[&str], count: usize, seqs: std::ops::Range<u64>) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut plan = Self::new();
        if apps.is_empty() {
            return plan;
        }
        for _ in 0..count {
            let app = apps[rng.gen_range(0..apps.len())];
            let at_seq = if seqs.is_empty() {
                seqs.start
            } else {
                rng.gen_range(seqs.clone())
            };
            let kind = match rng.gen_range(0u32..5) {
                0 => FaultKind::PanicForward,
                1 => FaultKind::CrashThread,
                2 => FaultKind::LatencySpike(TimeSpan::from_micros(rng.gen_range(50.0..500.0))),
                3 => FaultKind::KnobFailure,
                _ => FaultKind::QueueStorm(rng.gen_range(1usize..8)),
            };
            plan = plan.with_fault(app, at_seq, kind);
        }
        plan
    }

    /// The scheduled faults, in insertion order.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Whether the plan schedules anything at all.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The fault state `app` starts with: its slice of the plan, or
    /// `None` when the plan never names it (captured once at
    /// registration, so the hot path never scans foreign apps' faults).
    pub(crate) fn for_app(&self, app: &str) -> Option<Box<FaultState>> {
        let pending: Vec<(u64, FaultKind)> = self
            .faults
            .iter()
            .filter(|f| f.app == app)
            .map(|f| (f.at_seq, f.kind.clone()))
            .collect();
        (!pending.is_empty()).then(|| {
            Box::new(FaultState {
                pending,
                knob_budget: 0,
            })
        })
    }
}

/// One app's injected-fault state, held by its ledger (so under the
/// ledger lock) and absent until the app has something to inject.
#[derive(Debug, Default)]
pub(crate) struct FaultState {
    /// Faults not yet fired, as `(at_seq, kind)` in firing order.
    pending: Vec<(u64, FaultKind)>,
    /// Injected knob-actuation failures not yet consumed by a command.
    knob_budget: u32,
}

impl FaultState {
    /// Arms a one-shot: due at the app's next dispatched batch.
    pub(crate) fn arm(&mut self, kind: FaultKind) {
        self.pending.push((0, kind));
    }

    /// Fires what this dispatch triggers. `max_seq` is the highest
    /// sequence number of the batch about to run (`None` for a
    /// knob-only claim, which triggers nothing); `knobs` the number of
    /// knob commands the claim will actuate, of which the returned
    /// [`Injected`] fails as many as the budget covers; `storm(n)` must
    /// enqueue `n` synthetic requests behind the batch.
    pub(crate) fn on_dispatch(
        &mut self,
        max_seq: Option<u64>,
        knobs: usize,
        mut storm: impl FnMut(usize),
    ) -> Injected {
        let mut injected = Injected::default();
        let mut i = 0;
        while i < self.pending.len() {
            if max_seq.is_none_or(|max| self.pending[i].0 > max) {
                i += 1;
                continue;
            }
            match self.pending.remove(i).1 {
                FaultKind::PanicForward => injected.panic_forward = true,
                FaultKind::CrashThread => injected.crash = true,
                FaultKind::LatencySpike(t) => {
                    injected.delay += Duration::from_secs_f64(t.as_secs().max(0.0));
                }
                FaultKind::KnobFailure => self.knob_budget += 1,
                FaultKind::QueueStorm(n) => storm(n),
            }
        }
        injected.knob_faults = self.knob_budget.min(knobs as u32);
        self.knob_budget -= injected.knob_faults;
        injected
    }
}

/// What one dispatch has to suffer. The default injects nothing.
#[derive(Debug, Default)]
pub(crate) struct Injected {
    /// How many of the dispatch's leading knob commands fail instead of
    /// actuating.
    pub(crate) knob_faults: u32,
    /// The spike [`Injected::before_forward`] burns — the fault's cost,
    /// not the operating point's, so the micro-batcher's service-time
    /// estimate excludes it.
    pub(crate) delay: Duration,
    panic_forward: bool,
    crash: bool,
}

impl Injected {
    /// Called *outside* the forward's containment: an armed crash kills
    /// the pool driver mid-batch, which is exactly the failure the
    /// watchdog supervises.
    pub(crate) fn crash_if_armed(&self, app: &str) {
        if self.crash {
            panic!("injected fault: serving thread crash (`{app}`)");
        }
    }

    /// Called *inside* the forward's containment, before the model
    /// runs: burns the spike, then panics if armed to.
    pub(crate) fn before_forward(&self) {
        if !self.delay.is_zero() {
            spin_for(self.delay);
        }
        if self.panic_forward {
            panic!("injected fault: forward panic");
        }
    }
}

/// Burns CPU for `d` — an injected interference spike. A sleep would
/// free the core and understate the interference; the spin models a
/// co-tenant actually occupying it.
fn spin_for(d: Duration) {
    let t0 = Instant::now();
    while t0.elapsed() < d {
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_reproducible_and_bounded() {
        let a = FaultPlan::seeded(42, &["cam", "det"], 10, 0..100);
        let b = FaultPlan::seeded(42, &["cam", "det"], 10, 0..100);
        assert_eq!(a, b, "same seed, same plan");
        assert_eq!(a.faults().len(), 10);
        for f in a.faults() {
            assert!(f.at_seq < 100);
            assert!(f.app == "cam" || f.app == "det");
        }
        let c = FaultPlan::seeded(43, &["cam", "det"], 10, 0..100);
        assert_ne!(a, c, "different seed, different plan");
    }

    #[test]
    fn empty_inputs_degrade_gracefully() {
        assert!(FaultPlan::seeded(1, &[], 5, 0..10).is_empty());
        let p = FaultPlan::seeded(1, &["a"], 3, 7..7);
        assert!(p.faults().iter().all(|f| f.at_seq == 7));
        assert!(FaultPlan::new().is_empty());
    }

    #[test]
    fn per_app_slices_partition_the_plan() {
        let p = FaultPlan::new()
            .with_fault("cam", 0, FaultKind::PanicForward)
            .with_fault("det", 1, FaultKind::KnobFailure)
            .with_fault("cam", 2, FaultKind::QueueStorm(3));
        let slice = |app| p.for_app(app).map_or(0, |f| f.pending.len());
        assert_eq!((slice("cam"), slice("det")), (2, 1));
        assert!(p.for_app("ghost").is_none());
    }

    #[test]
    fn due_faults_fire_once_in_list_order_and_one_shots_are_due_at_once() {
        let mut f = FaultPlan::new()
            .with_fault("cam", 5, FaultKind::QueueStorm(3))
            .with_fault("cam", 0, FaultKind::KnobFailure)
            .with_fault("cam", 9, FaultKind::PanicForward)
            .for_app("cam")
            .unwrap();
        f.arm(FaultKind::QueueStorm(2));
        // A knob-only claim triggers nothing, whatever is pending.
        let mut storms = Vec::new();
        let inj = f.on_dispatch(None, 1, |n| storms.push(n));
        assert_eq!((inj.knob_faults, storms.len(), f.pending.len()), (0, 0, 4));
        // seq 5 reaches the storm and the knob failure (plan order),
        // then the armed one-shot; seq 9's panic stays pending.
        let inj = f.on_dispatch(Some(5), 0, |n| storms.push(n));
        assert_eq!(storms, [3, 2]);
        assert!(!inj.panic_forward && !inj.crash && inj.delay.is_zero());
        assert_eq!(inj.knob_faults, 0, "no knob in this dispatch: budget kept");
        // The kept budget fails the next dispatch's first knob only.
        let inj = f.on_dispatch(Some(6), 2, |_| unreachable!("storms fired once"));
        assert_eq!((inj.knob_faults, f.knob_budget), (1, 0));
        assert!(f.on_dispatch(Some(9), 0, |_| {}).panic_forward);
        assert!(f.pending.is_empty());
    }
}
