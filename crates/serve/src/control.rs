//! The serving control loop: measured latency → feedback → re-allocation.
//!
//! [`ServeController`] is the piece that turns the planner + executor
//! pair into the paper's closed Fig 5 loop. Each *control epoch* it
//! reads every app's measured latency statistics from the
//! [`crate::Executor`], feeds observed-vs-predicted ratios into an
//! [`eml_core::feedback::LatencyFeedback`] (the per-cluster EWMA model
//! correction), tracks per-app deadline outcomes in
//! [`eml_core::feedback::MissTracker`]s, and — on a *sustained* miss —
//! re-invokes [`eml_core::rtm::Rtm::allocate_with_feedback`] so the new
//! decision reasons about corrected latencies, then actuates it through
//! [`crate::Executor::apply_allocation`]. One epoch is one turn of the
//! loop; the caller picks the cadence (a timer thread in a server, an
//! explicit call in tests). An epoch's outcomes are the deltas of each
//! app's cumulative counters, taken by the same watermark the health
//! monitor uses (`crate::health`), counting from zero on first sight.
//! The watermark and the miss tracker belong to one registration: a
//! tenant registered again under its name is a new lifetime, judged
//! on its own outcomes from its first epoch. A warm epoch that does
//! not re-plan allocates nothing.
//!
//! Beside the loop sits [`PressurePolicy`], the *graceful-degradation
//! ladder*: a caller ticks it per app (the chaos and workload soaks
//! do, between bursts) and it acts on the per-app health score — the
//! one scorer [`crate::HealthMonitor`] also runs, over the app's
//! counters and the pool-wide backlog of [`crate::Executor::pool_stats`]
//! — rather than a bag of ad-hoc triggers.
//! The controller does not drive it: a re-allocation and a ladder
//! would both own the knob surface. When an app's score falls below
//! [`PressureConfig::degrade_below`] — whether from a high windowed
//! miss rate, queue depth near capacity, fresh deadline sheds,
//! restarts, stalls or knob faults — the policy steps the paper's
//! knobs **down** — f32 → int8 first (cheap accuracy for a large
//! latency cut), then width one level at a time — through the
//! executor's typed [`crate::Executor::route_command`] path. Recovery
//! is hysteretic twice over: a tick counts as calm only when the score
//! clears the *higher* [`PressureConfig::restore_at`] line with enough
//! window evidence, and a rung is undone only after a full window of
//! consecutive calm ticks
//! ([`eml_core::feedback::MissTracker::all_met`]), so knobs don't flap
//! at the pressure boundary. A ladder belongs to one registration too:
//! a re-registered tenant starts at its allocated point, with no rungs
//! to restore.

use std::collections::HashMap;

use eml_core::feedback::{LatencyFeedback, MissTracker};
use eml_core::knobs::KnobCommand;
use eml_core::rtm::{Allocation, AppSpec, Rtm};
use eml_dnn::WidthLevel;
use eml_nn::Precision;
use eml_platform::Soc;

use crate::error::Result;
use crate::executor::{AppRow, Executor, Reader};
use crate::health::{lifetime, pool_pressure, score, EventWatermark, HealthConfig, Lifetimes};
use crate::stats::Select;

/// Control-loop tuning.
#[derive(Debug, Clone, Copy)]
pub struct ControllerConfig {
    /// EWMA rate of the latency feedback (1.0 = trust the newest
    /// observation completely). Serving favours fast adaptation: the
    /// observation is already a windowed median, so heavy smoothing on
    /// top mostly delays convergence.
    pub feedback_alpha: f64,
    /// Outcomes per app before a sustained miss can fire.
    pub miss_window: usize,
    /// Miss fraction at/above which the tracker fires.
    pub miss_threshold: f64,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        Self {
            feedback_alpha: 0.7,
            miss_window: 16,
            miss_threshold: 0.5,
        }
    }
}

/// What one control epoch did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochOutcome {
    /// Whether a sustained miss triggered a re-allocation.
    pub reallocated: bool,
    /// Apps whose statistics produced a feedback observation.
    pub observed: usize,
}

/// Tuning of the graceful-degradation ladder. See the module docs.
#[derive(Debug, Clone, Copy)]
pub struct PressureConfig {
    /// Health-score weights (see [`crate::health::HealthConfig`]); the
    /// ladder scores each app exactly as a [`crate::HealthMonitor`]
    /// would, from the same counters.
    pub health: HealthConfig,
    /// Health score below which an app is pressured: one rung steps
    /// down. With default weights this line is crossed by a ~44 %
    /// windowed miss rate, a ~70 % full queue, or any fresh shed —
    /// close to the retired trio of ad-hoc triggers, but every other
    /// health signal (restarts, stalls, knob faults) now also
    /// contributes.
    pub degrade_below: f32,
    /// Health score at/above which a tick counts as *calm* (evidence
    /// toward restoration). Strictly above `degrade_below`: the gap is
    /// the dead band where the ladder holds its position.
    pub restore_at: f32,
    /// Consecutive calm ticks (a full, clean [`MissTracker`] window)
    /// before one rung is restored — the hysteresis.
    pub recover_ticks: usize,
    /// The ladder never narrows an app below this width level.
    pub width_floor: usize,
}

impl Default for PressureConfig {
    fn default() -> Self {
        Self {
            health: HealthConfig::default(),
            degrade_below: 65.0,
            restore_at: 90.0,
            recover_ticks: 3,
            width_floor: 0,
        }
    }
}

/// One rung the ladder stepped down, remembered for restoration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LadderStep {
    /// Precision was stepped down; `from` is what to restore.
    Precision {
        /// The precision before the step (restored on recovery).
        from: Precision,
    },
    /// Width was stepped down one level; `from` is what to restore.
    Width {
        /// The width level index before the step.
        from: usize,
    },
}

impl LadderStep {
    /// The knob command that takes `app` down this rung (`down`), or
    /// back up it.
    fn command(self, app: &str, down: bool) -> KnobCommand {
        let app = app.to_string();
        match self {
            LadderStep::Precision { from } => KnobCommand::SetPrecision {
                app,
                precision: if down { Precision::Int8 } else { from },
            },
            LadderStep::Width { from } => KnobCommand::SetWidth {
                app,
                level: WidthLevel(if down { from - 1 } else { from }),
            },
        }
    }
}

/// One knob movement the ladder performed during a tick.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PressureAction {
    /// A rung was stepped down under pressure.
    Degraded {
        /// The pressured application.
        app: String,
        /// The rung (what was given up).
        step: LadderStep,
    },
    /// A rung was restored after sustained calm.
    Restored {
        /// The recovered application.
        app: String,
        /// The rung (what was given back).
        step: LadderStep,
    },
}

/// Cumulative ladder counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PressureStats {
    /// Rungs stepped down over the policy's lifetime.
    pub degrade_steps: u64,
    /// Rungs restored.
    pub restore_steps: u64,
}

/// The ladder of one app lifetime.
#[derive(Debug)]
struct AppLadder {
    /// Rungs currently stepped down, most recent last (restored LIFO).
    steps: Vec<LadderStep>,
    /// Consecutive-calm-ticks tracker (threshold 1.0: only a *full
    /// clean window* restores — see [`MissTracker::all_met`]).
    calm: MissTracker,
    /// Watermark over the app's cumulative event counters, seeded at
    /// the lifetime's first tick, so only events *since the last tick*
    /// penalise the score.
    mark: EventWatermark,
}

/// The graceful-degradation ladder. See the module docs.
#[derive(Debug)]
pub struct PressurePolicy {
    cfg: PressureConfig,
    lifetimes: Lifetimes<AppLadder>,
    stats: PressureStats,
}

impl PressurePolicy {
    /// Creates a ladder with the given tuning.
    pub fn new(cfg: PressureConfig) -> Self {
        Self {
            cfg,
            lifetimes: Vec::new(),
            stats: PressureStats::default(),
        }
    }

    /// Cumulative degrade/restore counters.
    pub fn stats(&self) -> PressureStats {
        self.stats
    }

    /// One pressure evaluation for one app: computes the app's health
    /// score from its current counters, steps a rung down when the
    /// score sinks below the pressure line, records calm when it
    /// clears the restore line, and restores a rung after a full clean
    /// calm window. Returns what (if anything) moved.
    ///
    /// Knob movement goes through [`Executor::route_command`]; an
    /// unknown or deregistered app moves nothing. Actuation is
    /// asynchronous — the serving thread applies the command before
    /// its next batch — so ticks should run at batch granularity or
    /// coarser.
    pub fn tick(&mut self, exec: &Executor, app: &str) -> Option<PressureAction> {
        let (id, snap) = exec.observe(app, Select::Nothing).ok()?;
        let capacity = exec.config().queue_capacity;
        let backlog = exec.pool_backlog();
        let pool = pool_pressure(backlog.queued, capacity, backlog.serving);
        let cfg = self.cfg;
        let ladder = lifetime(&mut self.lifetimes, id, || AppLadder {
            steps: Vec::new(),
            calm: MissTracker::new(cfg.recover_ticks.max(1), 1.0),
            mark: EventWatermark::first(&snap, false),
        })?;
        let fresh = ladder.mark.advance(&snap);
        let score = score(&cfg.health, &snap, capacity, pool, &fresh);
        if score < cfg.degrade_below {
            // Pressure: any recovery evidence is stale now.
            ladder.calm.reset();
            let step = if snap.precision == Precision::F32 {
                LadderStep::Precision {
                    from: Precision::F32,
                }
            } else if snap.level > cfg.width_floor {
                LadderStep::Width { from: snap.level }
            } else {
                return None; // bottom of the ladder: nothing left to give
            };
            exec.route_command(&step.command(app, true)).ok()?;
            ladder.steps.push(step);
            self.stats.degrade_steps += 1;
            return Some(PressureAction::Degraded {
                app: app.to_string(),
                step,
            });
        }
        // Calm — but only when the score clears the (higher) restore
        // line *and* the app actually served enough outcomes at the
        // current (degraded) point to be evidence. Scores in the dead
        // band between the two lines neither degrade nor recover.
        if score >= cfg.restore_at && snap.window_outcomes >= cfg.health.min_outcomes {
            ladder.calm.record(true);
        }
        if ladder.calm.all_met() {
            if let Some(step) = ladder.steps.pop() {
                exec.route_command(&step.command(app, false)).ok()?;
                // The next rung needs its own full clean window.
                ladder.calm.reset();
                self.stats.restore_steps += 1;
                return Some(PressureAction::Restored {
                    app: app.to_string(),
                    step,
                });
            }
        }
        None
    }
}

/// The serving-side RTM driver. See the module docs.
#[derive(Debug)]
pub struct ServeController {
    rtm: Rtm,
    soc: Soc,
    apps: Vec<AppSpec>,
    cfg: ControllerConfig,
    feedback: LatencyFeedback,
    /// Per app lifetime: the watermark over its cumulative stats
    /// (counting from zero) and its miss tracker.
    lifetimes: Lifetimes<(EventWatermark, MissTracker)>,
    /// The epoch's bulk read, refilled in place.
    rows: Vec<AppRow>,
    /// Per placed app: its cluster and the *uncorrected* model
    /// prediction at the chosen point. The allocation's own latency
    /// already includes the feedback correction; observing against it
    /// would square-root the learned ratio (the EWMA would chase
    /// `obs / (corr · analytic)` instead of `obs / analytic`), so the
    /// correction in force at decision time is divided back out here.
    raw_predictions: HashMap<String, (eml_platform::soc::ClusterId, eml_platform::units::TimeSpan)>,
    allocation: Option<Allocation>,
}

impl ServeController {
    /// Creates a controller over `rtm`/`soc` managing `apps`.
    pub fn new(rtm: Rtm, soc: Soc, apps: Vec<AppSpec>, cfg: ControllerConfig) -> Self {
        Self {
            rtm,
            soc,
            apps,
            feedback: LatencyFeedback::new(cfg.feedback_alpha),
            cfg,
            lifetimes: Vec::new(),
            rows: Vec::new(),
            raw_predictions: HashMap::new(),
            allocation: None,
        }
    }

    /// The current allocation, once one has been made.
    pub fn allocation(&self) -> Option<&Allocation> {
        self.allocation.as_ref()
    }

    /// The accumulated latency-model corrections.
    pub fn feedback(&self) -> &LatencyFeedback {
        &self.feedback
    }

    /// The managed application specs (mutable: arrivals/departures/
    /// requirement changes between epochs edit this list; the next
    /// allocation picks them up).
    pub fn apps_mut(&mut self) -> &mut Vec<AppSpec> {
        &mut self.apps
    }

    /// Allocates with the current feedback state and actuates the
    /// result on the executor. The initial call bootstraps serving;
    /// later calls force a re-decision (e.g. after editing the app
    /// list).
    ///
    /// # Errors
    ///
    /// Propagates structural RTM errors.
    pub fn allocate_and_apply(&mut self, exec: &Executor) -> Result<&Allocation> {
        let alloc = self
            .rtm
            .allocate_with_feedback(&self.soc, &self.apps, Some(&self.feedback))?;
        exec.apply_allocation(&alloc);
        self.raw_predictions.clear();
        for d in &alloc.dnns {
            let cluster = d.point.op.cluster;
            let corr = self.feedback.correction(cluster);
            self.raw_predictions
                .insert(d.app.clone(), (cluster, d.point.latency * (1.0 / corr)));
        }
        for (_, (_, misses)) in self.lifetimes.iter_mut().flatten() {
            misses.reset();
        }
        Ok(self.allocation.insert(alloc))
    }

    /// One turn of the closed loop: harvest stats, learn corrections,
    /// re-allocate on sustained misses.
    ///
    /// # Errors
    ///
    /// Propagates structural RTM errors from a triggered re-allocation.
    pub fn control_epoch(&mut self, exec: &Executor) -> Result<EpochOutcome> {
        // One bulk read for the whole epoch (what `Executor::stats`
        // would return per name, minus the p99 nothing here consumes),
        // resolved per spec below so apps are still accounted in spec
        // order — the per-cluster EWMA is order-sensitive.
        exec.dnn_snapshots(Reader::Control, &mut self.rows);
        let (window, threshold) = (self.cfg.miss_window, self.cfg.miss_threshold);
        let mut observed = 0usize;
        let mut triggered = false;
        for spec in &self.apps {
            let AppSpec::Dnn(d) = spec else { continue };
            let Ok(at) = self.rows.binary_search_by(|(_, n, _)| (**n).cmp(&d.name)) else {
                continue; // not registered with this executor
            };
            let (id, _, snap) = &self.rows[at];
            let first = || (Default::default(), MissTracker::new(window, threshold));
            let Some((mark, misses)) = lifetime(&mut self.lifetimes, *id, first) else {
                continue;
            };
            let fresh = mark.advance(snap);
            if fresh.completed == 0 {
                continue;
            }

            // Model correction: the windowed median of *measured*
            // request latency against the uncorrected model prediction
            // for the cluster the app runs on.
            if let (Some(&(cluster, raw)), Some(p50)) =
                (self.raw_predictions.get(&d.name), snap.p50)
            {
                self.feedback.observe(cluster, raw, p50);
                observed += 1;
            }

            if d.requirements.max_latency().is_some() {
                for i in 0..fresh.completed {
                    misses.record(i >= fresh.missed);
                }
                triggered |= misses.sustained_miss();
            }
        }
        if triggered {
            self.allocate_and_apply(exec)?;
        }
        Ok(EpochOutcome {
            reallocated: triggered,
            observed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::ExecutorConfig;
    use crate::testbed;
    use eml_core::requirements::Requirements;
    use eml_platform::units::TimeSpan;
    use std::time::{Duration, Instant};

    const TIMEOUT: Duration = Duration::from_secs(20);

    fn ladder_exec(deadline_ms: f64) -> Executor {
        let exec = Executor::new(ExecutorConfig {
            queue_capacity: 8,
            batch_cap: 4,
            ..ExecutorConfig::default()
        });
        exec.register_dnn(
            "cam",
            testbed::tiny_dnn(1),
            &Requirements::new().with_max_latency(TimeSpan::from_millis(deadline_ms)),
        )
        .unwrap();
        exec
    }

    fn sample() -> Vec<f32> {
        vec![0.2; 3 * 8 * 8]
    }

    /// Knob actuation is asynchronous (the serving thread applies it
    /// before its next batch); ticks must observe the settled point.
    fn settle(exec: &Executor, f: impl Fn(&crate::AppStatsSnapshot) -> bool) {
        let t0 = Instant::now();
        loop {
            if f(&exec.stats("cam").unwrap()) {
                return;
            }
            assert!(t0.elapsed() < TIMEOUT, "knob never settled");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn pump(exec: &Executor, n: usize) {
        for _ in 0..n {
            exec.submit("cam", &sample())
                .unwrap()
                .wait_timeout(TIMEOUT)
                .unwrap();
        }
        exec.drain_app("cam").unwrap();
    }

    #[test]
    fn ladder_degrades_under_queue_pressure_and_restores_with_hysteresis() {
        let exec = ladder_exec(500.0); // generous: completions all meet
                                       // A queue weight that puts 4 held requests against capacity 8
                                       // (half full → 60 points of penalty) below the pressure line.
        let mut policy = PressurePolicy::new(PressureConfig {
            health: HealthConfig {
                w_queue: 120.0,
                min_outcomes: 2,
                ..HealthConfig::default()
            },
            recover_ticks: 2,
            ..PressureConfig::default()
        });
        let s0 = exec.stats("cam").unwrap();
        assert_eq!((s0.level, s0.precision), (3, Precision::F32));

        // 4 held requests against capacity 8 ≥ queue_frac: pressured.
        exec.pause("cam").unwrap();
        let held: Vec<crate::Ticket> = (0..4)
            .map(|_| exec.submit("cam", &sample()).unwrap())
            .collect();
        let a1 = policy.tick(&exec, "cam");
        assert!(
            matches!(
                a1,
                Some(PressureAction::Degraded {
                    step: LadderStep::Precision { .. },
                    ..
                })
            ),
            "rung 1 is precision: {a1:?}"
        );
        // Knobs apply even while paused (knob-only dispatch); wait for
        // the settled point so the next tick sees int8.
        settle(&exec, |s| s.precision == Precision::Int8);
        let a2 = policy.tick(&exec, "cam");
        assert!(
            matches!(
                a2,
                Some(PressureAction::Degraded {
                    step: LadderStep::Width { from: 3 },
                    ..
                })
            ),
            "rung 2 is width: {a2:?}"
        );
        settle(&exec, |s| s.level == 2);
        assert_eq!(depth(&policy, &exec, "cam"), 2);

        // Pressure clears; the held batch serves at the degraded point.
        exec.resume("cam").unwrap();
        for t in &held {
            t.wait_timeout(TIMEOUT).unwrap();
        }
        exec.drain_app("cam").unwrap();
        let s = exec.stats("cam").unwrap();
        assert_eq!((s.level, s.precision), (2, Precision::Int8));
        assert!(s.window_outcomes >= 2, "{s:?}");

        // Hysteresis: one calm tick is not enough…
        assert!(policy.tick(&exec, "cam").is_none());
        // …the second restores the most recent rung (width) only.
        let r1 = policy.tick(&exec, "cam");
        assert!(
            matches!(
                r1,
                Some(PressureAction::Restored {
                    step: LadderStep::Width { from: 3 },
                    ..
                })
            ),
            "{r1:?}"
        );
        settle(&exec, |s| s.level == 3);
        // Fresh evidence at the restored point, then two calm ticks.
        pump(&exec, 2);
        assert!(policy.tick(&exec, "cam").is_none());
        let r2 = policy.tick(&exec, "cam");
        assert!(
            matches!(
                r2,
                Some(PressureAction::Restored {
                    step: LadderStep::Precision { .. },
                    ..
                })
            ),
            "{r2:?}"
        );
        settle(&exec, |s| s.precision == Precision::F32);
        assert_eq!(depth(&policy, &exec, "cam"), 0);
        assert_eq!(
            policy.stats(),
            PressureStats {
                degrade_steps: 2,
                restore_steps: 2,
            }
        );
        let s = exec.stats("cam").unwrap();
        assert_eq!((s.level, s.precision), (3, Precision::F32));
    }

    fn cam_controller(exec: &Executor) -> ServeController {
        let spec = |name: &str| {
            AppSpec::Dnn(eml_core::rtm::DnnAppSpec {
                name: name.into(),
                profile: testbed::tiny_dnn(1).profile().clone(),
                requirements: Requirements::new().with_max_latency(TimeSpan::from_millis(500.0)),
                priority: 1,
                objective: None,
            })
        };
        let mut ctl = ServeController::new(
            Rtm::new(eml_core::rtm::RtmConfig::default()),
            testbed::quad_core_soc(),
            vec![spec("cam"), spec("never-registered")],
            ControllerConfig::default(),
        );
        ctl.allocate_and_apply(exec).unwrap();
        ctl
    }

    /// The state `lifetimes` holds for `app`'s current registration.
    fn state_of<'a, T>(lifetimes: &'a Lifetimes<T>, exec: &Executor, app: &str) -> Option<&'a T> {
        let (id, _) = exec.observe(app, Select::Nothing).unwrap();
        match lifetimes.get(id.slot as usize)? {
            Some((gen, state)) if *gen == id.gen => Some(state),
            _ => None,
        }
    }

    /// The controller's count of `app`'s completions and the outcomes
    /// its miss tracker holds.
    fn tracked(ctl: &ServeController, exec: &Executor, app: &str) -> (u64, usize) {
        let (mark, misses) = state_of(&ctl.lifetimes, exec, app).expect("a tracked lifetime");
        (mark.0.completed, misses.observed())
    }

    /// Rungs the ladder holds stepped down for `app`'s registration.
    fn depth(policy: &PressurePolicy, exec: &Executor, app: &str) -> usize {
        state_of(&policy.lifetimes, exec, app).map_or(0, |l| l.steps.len())
    }

    fn reregister(exec: &Executor, deadline_ms: f64) {
        exec.deregister_dnn("cam").unwrap();
        let req = Requirements::new().with_max_latency(TimeSpan::from_millis(deadline_ms));
        exec.register_dnn("cam", testbed::tiny_dnn(1), &req)
            .unwrap();
    }

    #[test]
    fn a_reregistered_tenant_is_heard_from_its_first_epoch() {
        let exec = ladder_exec(500.0);
        let mut ctl = cam_controller(&exec);
        pump(&exec, 6);
        assert_eq!(ctl.control_epoch(&exec).unwrap().observed, 1);
        assert_eq!(tracked(&ctl, &exec, "cam"), (6, 6));
        assert_eq!(ctl.control_epoch(&exec).unwrap().observed, 0, "nothing new");

        // Same name, new lifetime: its counters restart below the old
        // lifetime's 6 and must not be mistaken for "nothing new".
        reregister(&exec, 500.0);
        assert_eq!(
            ctl.control_epoch(&exec).unwrap().observed,
            0,
            "reborn, idle"
        );
        pump(&exec, 2);
        assert_eq!(ctl.control_epoch(&exec).unwrap().observed, 1);
        assert_eq!(
            tracked(&ctl, &exec, "cam"),
            (2, 2),
            "the new lifetime is judged on its own outcomes"
        );
        pump(&exec, 1);
        assert_eq!(ctl.control_epoch(&exec).unwrap().observed, 1);
        assert_eq!(tracked(&ctl, &exec, "cam"), (3, 3));
    }

    #[test]
    fn a_reborn_tenant_that_out_counts_its_old_lifetime_is_judged_afresh() {
        let exec = ladder_exec(500.0);
        let mut ctl = cam_controller(&exec);
        pump(&exec, 6);
        assert_eq!(ctl.control_epoch(&exec).unwrap().observed, 1);
        // A re-plan: every miss tracker starts over.
        ctl.allocate_and_apply(&exec).unwrap();
        // Between two epochs the tenant departs and returns, and its
        // new lifetime serves more than the old one did: none of its
        // 8 outcomes is the old lifetime's, so all 8 are judged.
        reregister(&exec, 500.0);
        pump(&exec, 8);
        assert_eq!(ctl.control_epoch(&exec).unwrap().observed, 1);
        assert_eq!(tracked(&ctl, &exec, "cam"), (8, 8));
    }

    #[test]
    fn per_app_state_is_bounded_by_the_registration_slots() {
        let exec = ladder_exec(500.0);
        let mut ctl = cam_controller(&exec);
        // Each re-registration reuses the departed lifetime's slot: the
        // state of a churning tenant never grows.
        for n in 1..=4 {
            pump(&exec, n);
            assert_eq!(ctl.control_epoch(&exec).unwrap().observed, 1);
            assert_eq!(tracked(&ctl, &exec, "cam").0, n as u64);
            reregister(&exec, 500.0);
        }
        assert_eq!(ctl.lifetimes.len(), 1);
        // Dropping the spec leaves the state unread: the tenant is not
        // the controller's any more.
        ctl.apps_mut().retain(|a| a.name() != "cam");
        ctl.allocate_and_apply(&exec).unwrap();
        pump(&exec, 2);
        assert_eq!(ctl.control_epoch(&exec).unwrap().observed, 0);
        assert!(ctl.raw_predictions.keys().all(|n| n != "cam"));
    }

    #[test]
    fn fresh_sheds_pressure_the_ladder() {
        let exec = ladder_exec(10.0);
        let mut policy = PressurePolicy::new(PressureConfig {
            health: HealthConfig {
                min_outcomes: 2,
                ..HealthConfig::default()
            },
            recover_ticks: 1,
            ..PressureConfig::default()
        });
        // Baseline tick first: a ladder attached to a long-running app
        // seeds its shed watermark at attach time, so only *new* sheds
        // count as pressure.
        assert!(policy.tick(&exec, "cam").is_none());
        // Trap requests past their 10 ms deadline: they shed at dequeue.
        exec.pause("cam").unwrap();
        let doomed: Vec<crate::Ticket> = (0..2)
            .map(|_| exec.submit("cam", &sample()).unwrap())
            .collect();
        std::thread::sleep(Duration::from_millis(40));
        exec.resume("cam").unwrap();
        for t in &doomed {
            assert!(t.wait_timeout(TIMEOUT).is_err());
        }
        exec.drain_app("cam").unwrap();
        assert!(exec.stats("cam").unwrap().shed >= 2);
        // The shed delta alone (queue now empty, no misses) degrades.
        let a = policy.tick(&exec, "cam");
        assert!(
            matches!(a, Some(PressureAction::Degraded { .. })),
            "fresh sheds are pressure: {a:?}"
        );
        assert_eq!(depth(&policy, &exec, "cam"), 1);
        assert_eq!(
            policy.stats(),
            PressureStats {
                degrade_steps: 1,
                restore_steps: 0,
            }
        );
        // Unknown apps never panic the ladder.
        assert!(policy.tick(&exec, "ghost").is_none());
    }

    #[test]
    fn a_reborn_tenant_starts_the_ladder_at_depth_zero() {
        let exec = ladder_exec(10.0);
        let mut policy = PressurePolicy::new(PressureConfig {
            health: HealthConfig {
                min_outcomes: 2,
                ..HealthConfig::default()
            },
            recover_ticks: 2,
            ..PressureConfig::default()
        });
        assert!(policy.tick(&exec, "cam").is_none());
        // Two requests held past their 10 ms deadline shed: a rung down.
        exec.pause("cam").unwrap();
        let doomed: Vec<crate::Ticket> = (0..2)
            .map(|_| exec.submit("cam", &sample()).unwrap())
            .collect();
        std::thread::sleep(Duration::from_millis(40));
        exec.resume("cam").unwrap();
        for t in &doomed {
            assert!(t.wait_timeout(TIMEOUT).is_err());
        }
        let a = policy.tick(&exec, "cam");
        assert!(matches!(a, Some(PressureAction::Degraded { .. })), "{a:?}");
        settle(&exec, |s| s.precision == Precision::Int8);
        assert_eq!(depth(&policy, &exec, "cam"), 1);
        // A new lifetime under the name: registered at full width in
        // f32, it has no rung to restore, however calm it is.
        reregister(&exec, 500.0);
        pump(&exec, 4);
        assert_eq!(depth(&policy, &exec, "cam"), 0);
        for _ in 0..3 {
            assert_eq!(policy.tick(&exec, "cam"), None);
        }
        assert_eq!(depth(&policy, &exec, "cam"), 0);
        assert_eq!(policy.stats().restore_steps, 0);
    }
}
