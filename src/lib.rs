//! # emlrt — runtime resource management for embedded machine learning
//!
//! A full reproduction of *Lei Xun, Long Tran-Thanh, Bashir M. Al-Hashimi,
//! Geoff V. Merrett, "Optimising Resource Management for Embedded Machine
//! Learning", DATE 2020* (arXiv:2105.03608), as a Rust workspace:
//!
//! | Crate | Role |
//! |-------|------|
//! | [`platform`] | Heterogeneous SoC models (Odroid XU3, Jetson Nano, flagship), calibrated against the paper's Table I |
//! | [`nn`] | From-scratch NN library: group convolutions, incremental training, exact cost model |
//! | [`dnn`] | Dynamic DNNs: width levels, profiles, the width and precision knobs |
//! | [`rtm`] | The runtime resource manager: operating-point spaces, governors, multi-app allocation, knobs |
//! | [`sim`] | Multi-application simulator with reactive thermal management |
//! | [`serve`] | Multi-tenant serving executor: RTM allocations run on the real kernels, with measured-latency feedback |
//! | [`net`] | Networked front end: wire protocol, per-client admission control |
//!
//! ## The paper in three lines
//!
//! ```
//! use emlrt::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let soc = emlrt::platform::presets::odroid_xu3();
//! let profile = DnnProfile::reference("camera-dnn");
//! let space = OpSpace::new(&soc, &profile, OpSpaceConfig::default())?;
//! let req = Requirements::new()
//!     .with_max_latency(TimeSpan::from_millis(400.0))
//!     .with_max_energy(Energy::from_millijoules(100.0));
//! let best = ExhaustiveGovernor.decide(&space, &req, Objective::default())?;
//! assert!(best.is_some());
//! # Ok(())
//! # }
//! ```
//!
//! `ROADMAP.md` holds the open work, `docs/INVARIANTS.md` the invariants
//! CI enforces, and the `benches/` targets of `eml-bench` regenerate the
//! paper's figures with paper-vs-measured verdicts.
//!
//! ## Performance
//!
//! The NN substrate's hot path — `Conv2d`/`Linear` forward and backward
//! — runs on shared compute kernels ([`nn::gemm`]): convolutions are
//! lowered to matrix multiplication via [`nn::im2col`] and executed by
//! a cache-blocked, register-tiled f32 GEMM with packed operand panels,
//! per-thread forward scratch (steady state allocates nothing but the
//! output tensor) and batch/row parallelism via a small worker
//! pool. [`nn::Precision::Int8`] runs the same structure on an int8
//! kernel with `i32` accumulation.
//!
//! The serving benchmark (`benchmark/README.md`) measures the whole
//! stack end to end and, with `--trace 1`, per layer: the `nn.*` rows
//! time a forward per width (`nn.fwd_w25_us` … `nn.fwd_w100_us`), the
//! batching gain (`nn.batch8_gain`) and each conv stage. The original
//! loop nests survive only as the test oracle of `eml-nn`: property
//! tests pin the GEMM path to them to 1e-4 on random shapes, widths
//! and group structures, so the fast path cannot silently drift from
//! the semantics the paper's figures depend on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Heterogeneous SoC performance/power/thermal models (re-export of
/// [`eml_platform`]).
pub use eml_platform as platform;

/// Minimal neural-network library with group convolutions (re-export of
/// [`eml_nn`]).
pub use eml_nn as nn;

/// Dynamic DNNs: runtime width scaling (re-export of [`eml_dnn`]).
pub use eml_dnn as dnn;

/// The runtime resource manager (re-export of [`eml_core`]).
pub use eml_core as rtm;

/// Multi-application simulator (re-export of [`eml_sim`]).
pub use eml_sim as sim;

/// Multi-tenant serving executor: runs RTM allocations against the
/// real kernels and closes the measured-latency feedback loop
/// (re-export of [`eml_serve`]).
pub use eml_serve as serve;

/// Networked serving front end: length-prefixed wire protocol,
/// per-client admission control and abuse-resistant scoring over the
/// serving executor (re-export of [`eml_net`]).
pub use eml_net as net;

/// The most common imports in one place.
pub mod prelude {
    pub use eml_core::governor::{ExhaustiveGovernor, Governor, GreedyGovernor, ParetoGovernor};
    pub use eml_core::objective::Objective;
    pub use eml_core::opspace::{EvaluatedPoint, OpSpace, OpSpaceConfig, OperatingPoint};
    pub use eml_core::requirements::Requirements;
    pub use eml_core::rtm::{AppSpec, DnnAppSpec, RigidAppSpec, Rtm, RtmConfig};
    pub use eml_dnn::profile::{DnnProfile, LevelSpec};
    pub use eml_dnn::{DynamicDnn, WidthLevel};
    pub use eml_net::{NetClient, NetConfig, NetServer, WireStatus};
    pub use eml_platform::soc::{ClusterId, CoreKind, Placement, Soc};
    pub use eml_platform::units::{Celsius, Energy, Freq, Power, TimeSpan, Voltage};
    pub use eml_platform::workload::Workload;
    pub use eml_serve::{
        Completion, ControllerConfig, Executor, ExecutorConfig, FaultKind, FaultPlan, HealthConfig,
        HealthMonitor, PressureConfig, PressurePolicy, ServeController, ServeError,
    };
    pub use eml_sim::{SimConfig, Simulator, Trace};
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_compiles_and_reexports_work() {
        use crate::prelude::*;
        let soc = crate::platform::presets::odroid_xu3();
        assert_eq!(soc.name(), "odroid-xu3");
        let p = DnnProfile::reference("x");
        assert_eq!(p.level_count(), 4);
        let _ = Requirements::new().with_max_latency(TimeSpan::from_millis(1.0));
    }
}
