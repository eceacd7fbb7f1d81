//! # eml-serve — the multi-tenant serving executor
//!
//! `eml-core`'s RTM and `eml-sim`'s simulator are *planners*: they
//! decide knob settings (width, precision, cores, DVFS) from an
//! analytic latency model. This crate **executes** those decisions
//! against the real `eml_nn` kernels and closes the loop with measured
//! latency:
//!
//! - [`Executor`] — a fixed shared pool of driver threads
//!   ([`ExecutorConfig::pool_workers`], independent of the tenant
//!   count) serving every registered [`eml_dnn::DynamicDnn`] from a
//!   weighted earliest-deadline-first ready order; a *bounded* app
//!   registry (typed [`ServeError::OverCapacity`] refusal) and per-app
//!   *bounded* request queues (typed [`ServeError::QueueFull`]
//!   rejection, never a block, never a silent drop); deadline-aware
//!   micro-batching onto the batch>1 forward path; worker-band budgets
//!   ([`eml_nn::workers::with_band_cap`]) derived from each app's
//!   allocated cores; allocations actuated through the core knob
//!   surfaces ([`eml_core::knobs::apply_app_command`]).
//! - [`ServeController`] — the control loop: measured p50 vs predicted
//!   latency feeds [`eml_core::feedback::LatencyFeedback`]; sustained
//!   deadline misses ([`eml_core::feedback::MissTracker`]) trigger
//!   [`eml_core::rtm::Rtm::allocate_with_feedback`] re-allocation on
//!   the corrected model.
//! - [`HealthMonitor`] — per-app 0–100 health scores folded from the
//!   counters the executor already keeps (windowed miss rate, own and
//!   pool-wide queue pressure, fresh sheds/restarts/stalls/knob
//!   faults) in one pass over the roster, and a worst-tenant
//!   aggregate. One watermark turns cumulative counters into fresh
//!   deltas for the monitor, the ladder and the controller alike, and
//!   each keeps it per *registration*, not per name: every
//!   [`Executor::register_dnn`] is a new lifetime with an identity of
//!   its own (a registry slot and its generation), whose state starts
//!   fresh whatever name it reuses. Names resolve to registrations only
//!   at the edges (`submit`, `stats`, a ladder tick), and a warm control
//!   turn that does not re-plan allocates nothing.
//! - [`PressurePolicy`] — the graceful-degradation ladder: ticked per
//!   app by its caller (not by the controller), it consumes the same
//!   health score — degrading (f32→int8, then width one level at a
//!   time) when an app's score falls below the pressure line, and
//!   hysteretically restoring rungs once the score stays high.
//! - [`FaultPlan`] — deterministic, seeded fault injection (forward
//!   panics, thread crashes, latency spikes, knob failures, queue
//!   storms) keyed to request sequence numbers; serving threads are
//!   supervised by a watchdog (heartbeats, typed batch failure,
//!   bounded-backoff restart) and expired requests are shed at dequeue
//!   with a typed [`ServeError::DeadlineExpired`].
//! - [`ExecutedReplay`] — plugs the executor into
//!   [`eml_sim::Simulator::run_executed`], so scenario traces report
//!   measured rather than analytic latencies.
//! - [`testbed`] — deterministic fixtures (an optimistic single-cluster
//!   SoC, seeded real models) for closed-loop tests and examples.
//!
//! ## Shape of the loop
//!
//! ```text
//!  requests ──► Executor (queues → micro-batches → real kernels)
//!                  │ measured latency, deadline outcomes
//!                  ▼
//!          ServeController ──feedback──► Rtm::allocate_with_feedback
//!                  ▲                             │ knob commands
//!                  └────── apply_allocation ◄────┘
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod control;
pub mod error;
pub mod executor;
pub mod fault;
pub mod health;
pub mod replay;
pub mod stats;
pub mod testbed;

pub use control::{
    ControllerConfig, EpochOutcome, LadderStep, PressureAction, PressureConfig, PressurePolicy,
    PressureStats, ServeController,
};
pub use error::{Result, ServeError};
pub use executor::{Completion, Executor, ExecutorConfig, KnobRoute, Ticket};
pub use fault::{Fault, FaultKind, FaultPlan};
pub use health::{AppHealth, FreshEvents, HealthConfig, HealthMonitor, HealthReport};
pub use replay::{ExecutedReplay, RetiredTotals};
pub use stats::{AppStatsSnapshot, PoolSnapshot};

// The unit tests pin allocation-free paths (the pool's claim) by count.
#[cfg(test)]
#[global_allocator]
static ALLOC: eml_testalloc::Counting = eml_testalloc::Counting;
