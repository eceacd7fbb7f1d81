//! # eml-platform
//!
//! Heterogeneous embedded-SoC performance, power and thermal models for the
//! `emlrt` reproduction of *Xun et al., "Optimising Resource Management for
//! Embedded Machine Learning" (DATE 2020)*.
//!
//! This crate is the **device layer** of the paper's Fig 5 architecture. It
//! answers one question: *given a workload, a placement (cluster + cores)
//! and a DVFS setting, what latency, power and energy result?* — plus the
//! thermal dynamics those powers induce.
//!
//! The models are **calibrated against the paper's published measurements**
//! (Table I, embedded in [`paper`]): latency follows a per-cluster
//! `a/f + b` least-squares fit, and power interpolates measured anchors in
//! `V²·f` space so the anchors are reproduced exactly. The models stand in
//! for the paper's boards, which this reproduction cannot run on.
//!
//! ## Quick start
//!
//! ```
//! use eml_platform::presets;
//! use eml_platform::soc::Placement;
//! use eml_platform::units::Freq;
//!
//! # fn main() -> Result<(), eml_platform::PlatformError> {
//! let soc = presets::odroid_xu3();
//! let a15 = soc.find_cluster("a15").expect("XU3 has an A15 cluster");
//! let prediction = soc.predict(
//!     Placement::new(a15, 4),
//!     Freq::from_ghz(1.0),
//!     &presets::reference_workload(),
//! )?;
//! // Table I: 204 ms, 846 mW on the A15 at 1 GHz.
//! assert!((prediction.latency.as_millis() - 204.0).abs() < 5.0);
//! assert!((prediction.power.as_milliwatts() - 846.0).abs() < 1.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod calibration;
pub mod error;
pub mod latency;
pub mod opp;
pub mod paper;
pub mod power;
pub mod presets;
pub mod soc;
pub mod thermal;
pub mod units;
pub mod workload;

pub use error::{PlatformError, Result};
pub use soc::{ClusterId, ClusterSpec, CoreKind, Placement, Prediction, Soc};
pub use units::{Celsius, Energy, Freq, Power, TimeSpan, Voltage};
pub use workload::Workload;
