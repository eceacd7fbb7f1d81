//! # eml-dnn
//!
//! Dynamic DNNs for the `emlrt` reproduction of *Xun et al., "Optimising
//! Resource Management for Embedded Machine Learning" (DATE 2020)*.
//!
//! A *dynamic DNN* (paper §III-C, Fig 3) stores several width
//! configurations inside a single model: the channels of every convolution
//! are partitioned into `G` groups, trained incrementally, and later groups
//! can be pruned at runtime for latency/energy — or re-enabled for accuracy
//! — **without retraining**.
//!
//! Two views of the same concept live here:
//!
//! - [`profile::DnnProfile`] — plain data for the runtime manager: per
//!   width level, the platform [`Workload`](eml_platform::Workload), the
//!   expected top-1 accuracy and the memory footprint. Build it from the
//!   paper's published numbers ([`profile::DnnProfile::reference`]) or from
//!   a live trained network.
//! - [`dynamic::DynamicDnn`] — a live [`eml_nn::Network`] with a width
//!   knob, producing real predictions and softmax-confidence monitors.
//!
//! ## Quick start
//!
//! ```
//! use eml_dnn::level::WidthLevel;
//! use eml_dnn::profile::DnnProfile;
//!
//! let profile = DnnProfile::reference("camera-dnn");
//! // The paper's four configurations with Fig 4(b) accuracies.
//! assert_eq!(profile.level_count(), 4);
//! assert_eq!(profile.top1(WidthLevel(3)).unwrap(), 71.2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod dynamic;
pub mod error;
pub mod level;
pub mod profile;

pub use dynamic::DynamicDnn;
pub use eml_nn::{ActScaleReport, Precision};
pub use error::{DnnError, Result};
pub use level::WidthLevel;
pub use profile::{DnnProfile, LevelSpec};
