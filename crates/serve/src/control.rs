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
//! explicit call in tests).
//!
//! Beside the loop sits [`PressurePolicy`], the *graceful-degradation
//! ladder*: a caller ticks it per app (the chaos and workload soaks
//! do, between bursts) and it acts on the per-app health score
//! ([`crate::health::score`]) rather than a bag of ad-hoc triggers.
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
//! at the pressure boundary.

use std::collections::{HashMap, HashSet};

use eml_core::feedback::{LatencyFeedback, MissTracker};
use eml_core::knobs::KnobCommand;
use eml_core::rtm::{Allocation, AppSpec, Rtm};
use eml_dnn::WidthLevel;
use eml_nn::Precision;
use eml_platform::Soc;

use crate::error::Result;
use crate::executor::{snapshot_named, Executor};
use crate::health::{self, EventWatermark, HealthConfig};
use crate::stats::AppStatsSnapshot;

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

/// Per-app ladder state.
#[derive(Debug)]
struct AppLadder {
    /// Rungs currently stepped down, most recent last (restored LIFO).
    steps: Vec<LadderStep>,
    /// Consecutive-calm-ticks tracker (threshold 1.0: only a *full
    /// clean window* restores — see [`MissTracker::all_met`]).
    calm: MissTracker,
    /// Watermark over the app's cumulative event counters, so only
    /// events *since the last tick* penalise the score.
    mark: EventWatermark,
}

/// The graceful-degradation ladder. See the module docs.
#[derive(Debug)]
pub struct PressurePolicy {
    cfg: PressureConfig,
    ladders: HashMap<String, AppLadder>,
    stats: PressureStats,
}

impl PressurePolicy {
    /// Creates a ladder with the given tuning.
    pub fn new(cfg: PressureConfig) -> Self {
        Self {
            cfg,
            ladders: HashMap::new(),
            stats: PressureStats::default(),
        }
    }

    /// Cumulative degrade/restore counters.
    pub fn stats(&self) -> PressureStats {
        self.stats
    }

    /// Rungs currently stepped down for `app` (0 = at its allocated
    /// operating point).
    pub fn depth(&self, app: &str) -> usize {
        self.ladders.get(app).map_or(0, |l| l.steps.len())
    }

    /// One pressure evaluation for one app: computes the app's health
    /// score from its current snapshot, steps a rung down when the
    /// score sinks below the pressure line, records calm when it
    /// clears the restore line, and restores a rung after a full clean
    /// calm window. Returns what (if anything) moved.
    ///
    /// Knob movement goes through [`Executor::route_command`]; an
    /// unknown or deregistered app drops its ladder state. Actuation
    /// is asynchronous — the serving thread applies the command before
    /// its next batch — so ticks should run at batch granularity or
    /// coarser.
    pub fn tick(&mut self, exec: &Executor, app: &str) -> Option<PressureAction> {
        let snap = exec.stats(app).ok();
        self.tick_on(exec, app, snap.as_ref(), exec.pool_pressure())
    }

    /// [`PressurePolicy::tick`] on readings taken by the caller: `snap`
    /// is the app's snapshot (`None` = unknown to the executor) and
    /// `pool_pressure` the pool-wide backlog fraction.
    fn tick_on(
        &mut self,
        exec: &Executor,
        app: &str,
        snap: Option<&AppStatsSnapshot>,
        pool_pressure: f32,
    ) -> Option<PressureAction> {
        let Some(snap) = snap else {
            self.ladders.remove(app);
            return None;
        };
        let cfg = self.cfg;
        let ladder = self
            .ladders
            .entry(app.to_string())
            .or_insert_with(|| AppLadder {
                steps: Vec::new(),
                calm: MissTracker::new(cfg.recover_ticks.max(1), 1.0),
                mark: EventWatermark::seeded(snap),
            });
        let fresh = ladder.mark.advance(snap);
        let score = health::score(
            &cfg.health,
            snap,
            exec.config().queue_capacity,
            pool_pressure,
            &fresh,
        );
        if score < cfg.degrade_below {
            // Pressure: any recovery evidence is stale now.
            ladder.calm.reset();
            let (cmd, step) = if snap.precision == Precision::F32 {
                (
                    KnobCommand::SetPrecision {
                        app: app.to_string(),
                        precision: Precision::Int8,
                    },
                    LadderStep::Precision {
                        from: Precision::F32,
                    },
                )
            } else if snap.level > cfg.width_floor {
                (
                    KnobCommand::SetWidth {
                        app: app.to_string(),
                        level: WidthLevel(snap.level - 1),
                    },
                    LadderStep::Width { from: snap.level },
                )
            } else {
                return None; // bottom of the ladder: nothing left to give
            };
            if exec.route_command(&cmd).is_err() {
                self.ladders.remove(app);
                return None;
            }
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
                let cmd = match step {
                    LadderStep::Precision { from } => KnobCommand::SetPrecision {
                        app: app.to_string(),
                        precision: from,
                    },
                    LadderStep::Width { from } => KnobCommand::SetWidth {
                        app: app.to_string(),
                        level: WidthLevel(from),
                    },
                };
                if exec.route_command(&cmd).is_err() {
                    self.ladders.remove(app);
                    return None;
                }
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
    trackers: HashMap<String, MissTracker>,
    /// Per-app (completed, missed) counters at the last epoch, for
    /// delta extraction from the cumulative stats.
    seen: HashMap<String, (u64, u64)>,
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
            trackers: HashMap::new(),
            seen: HashMap::new(),
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
        // Per-app state follows the managed roster: churn under fresh
        // names must not grow these maps without bound.
        let managed: HashSet<&str> = self.apps.iter().map(AppSpec::name).collect();
        self.seen.retain(|n, _| managed.contains(n.as_str()));
        self.trackers.retain(|n, _| managed.contains(n.as_str()));
        for t in self.trackers.values_mut() {
            t.reset();
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
        let roster = exec.dnn_snapshots(true, false);
        let mut observed = 0usize;
        let mut triggered = false;
        for spec in &self.apps {
            let AppSpec::Dnn(d) = spec else { continue };
            let Some(snap) = snapshot_named(&roster, &d.name) else {
                continue; // not registered with this executor
            };
            let (last_completed, last_missed) = match self.seen.get(&d.name) {
                // Cumulative counters below their last reading: the
                // name was deregistered and registered again. The new
                // lifetime counts from zero and is judged on its own
                // outcomes.
                Some(&(completed, _)) if snap.completed < completed => {
                    if let Some(t) = self.trackers.get_mut(&d.name) {
                        t.reset();
                    }
                    (0, 0)
                }
                Some(&last) => last,
                None => (0, 0),
            };
            let delta_completed = snap.completed - last_completed;
            if delta_completed == 0 {
                continue;
            }
            let delta_missed = snap.missed.saturating_sub(last_missed);
            self.seen
                .insert(d.name.clone(), (snap.completed, snap.missed));

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
                let tracker = self.trackers.entry(d.name.clone()).or_insert_with(|| {
                    MissTracker::new(self.cfg.miss_window, self.cfg.miss_threshold)
                });
                for i in 0..delta_completed {
                    tracker.record(i >= delta_missed);
                }
                if tracker.sustained_miss() {
                    triggered = true;
                }
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
        assert_eq!(policy.depth("cam"), 2);

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
        assert_eq!(policy.depth("cam"), 0);
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

    #[test]
    fn a_reregistered_tenant_is_heard_from_its_first_epoch() {
        let exec = ladder_exec(500.0);
        let mut ctl = cam_controller(&exec);
        pump(&exec, 6);
        assert_eq!(ctl.control_epoch(&exec).unwrap().observed, 1);
        assert_eq!(ctl.trackers["cam"].observed(), 6);
        assert_eq!(ctl.control_epoch(&exec).unwrap().observed, 0, "nothing new");

        // Same name, new lifetime: its counters restart below the old
        // lifetime's 6 and must not be mistaken for "nothing new".
        exec.deregister_dnn("cam").unwrap();
        let req = Requirements::new().with_max_latency(TimeSpan::from_millis(500.0));
        exec.register_dnn("cam", testbed::tiny_dnn(1), &req)
            .unwrap();
        assert_eq!(
            ctl.control_epoch(&exec).unwrap().observed,
            0,
            "reborn, idle"
        );
        pump(&exec, 2);
        assert_eq!(ctl.control_epoch(&exec).unwrap().observed, 1);
        assert_eq!(ctl.seen["cam"].0, 2);
        assert_eq!(
            ctl.trackers["cam"].observed(),
            2,
            "the new lifetime is judged on its own outcomes"
        );
        pump(&exec, 1);
        assert_eq!(ctl.control_epoch(&exec).unwrap().observed, 1);
        assert_eq!(ctl.seen["cam"].0, 3);
    }

    #[test]
    fn per_app_state_is_pruned_to_the_managed_specs() {
        let exec = ladder_exec(500.0);
        let mut ctl = cam_controller(&exec);
        pump(&exec, 2);
        ctl.control_epoch(&exec).unwrap();
        assert!(ctl.seen.contains_key("cam") && ctl.trackers.contains_key("cam"));
        ctl.apps_mut().retain(|a| a.name() != "cam");
        ctl.allocate_and_apply(&exec).unwrap();
        assert!(ctl.seen.is_empty() && ctl.trackers.is_empty());
        assert!(ctl.raw_predictions.keys().all(|n| n != "cam"));
    }

    #[test]
    fn an_epoch_hands_its_pool_pressure_reading_to_every_tick() {
        let exec = ladder_exec(500.0);
        // Only the pool term can sink the score: the app itself is idle.
        let mut policy = PressurePolicy::new(PressureConfig {
            health: HealthConfig {
                w_pool_queue: 100.0,
                ..HealthConfig::default()
            },
            ..PressureConfig::default()
        });
        let snap = exec.stats("cam").unwrap();
        assert!(
            policy.tick(&exec, "cam").is_none(),
            "the live pool is empty"
        );
        let a = policy.tick_on(&exec, "cam", Some(&snap), 1.0);
        assert!(
            matches!(a, Some(PressureAction::Degraded { .. })),
            "the handed-down reading is the one scored: {a:?}"
        );
        assert!(policy.tick_on(&exec, "cam", None, 0.0).is_none());
        assert_eq!(policy.depth("cam"), 0, "an unknown app drops its ladder");
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
        assert_eq!(policy.depth("cam"), 1);
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
}
