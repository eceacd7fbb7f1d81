//! # eml-nn
//!
//! A minimal, dependency-light neural-network library built for the `emlrt`
//! reproduction of *Xun et al., "Optimising Resource Management for Embedded
//! Machine Learning" (DATE 2020)*.
//!
//! The paper's dynamic DNN needs three capabilities that off-the-shelf Rust
//! inference crates do not provide together, so this crate implements them
//! from scratch:
//!
//! 1. **Group convolutions** whose channel groups can be *partially
//!    executed* at runtime ([`conv::Conv2d::set_active_groups`], Fig 3c);
//! 2. **Incremental training** that freezes earlier groups bit-identical
//!    while later groups learn ([`train::train_incremental`], Fig 3b);
//! 3. **An exact per-layer cost model** (MACs, parameters) at every width,
//!    which the platform layer turns into latency/energy predictions
//!    ([`network::Network::cost`]).
//!
//! Training data is the procedural [`dataset::SyntheticVision`] set, a
//! stand-in for CIFAR-10 (unavailable offline) whose accuracy still rises
//! with width; its module docs give the substitution.
//!
//! ## Quick start
//!
//! ```
//! use eml_nn::arch::{build_group_cnn, CnnConfig};
//! use eml_nn::dataset::{DatasetConfig, SyntheticVision};
//! use eml_nn::train::{train_incremental, TrainConfig};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), eml_nn::NnError> {
//! let data = SyntheticVision::generate(DatasetConfig::tiny());
//! let mut rng = StdRng::seed_from_u64(0);
//! let mut net = build_group_cnn(
//!     CnnConfig { input: (3, 8, 8), classes: 4, groups: 2, base_width: 8 },
//!     &mut rng,
//! )?;
//! let cfg = TrainConfig { epochs: 1, ..TrainConfig::default() };
//! let report = train_incremental(&mut net, data.train(), Some(data.test()), &cfg)?;
//! assert_eq!(report.steps.len(), 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod activation;
pub mod arch;
pub mod conv;
pub mod dataset;
pub mod error;
pub mod gemm;
pub mod im2col;
pub mod layer;
pub mod linear;
pub mod loss;
pub mod metrics;
pub mod network;
#[cfg(test)]
mod oracle;
pub mod pool;
pub mod quant;
pub mod tensor;
pub mod train;
pub mod workers;

pub use error::{NnError, Result};
pub use layer::{ChainSupport, Layer, LayerCost};
pub use network::{Network, NetworkCost, QuantChainPlan};
pub use quant::{
    layer_io_events, reset_layer_io_events, ActObserver, ActScaleReport, Precision, QAct, QTensor,
};
pub use tensor::Tensor;
