//! The [`Layer`] trait: the unit of composition for networks.
//!
//! Layers own their parameters, gradients and momentum buffers, and are
//! **width-aware**: layers that participate in the dynamic-DNN group
//! partition (convolutions, the classifier) implement
//! [`Layer::set_active_groups`] to restrict execution to the first `g` of
//! `G` channel groups, and [`Layer::set_trainable_groups`] so the
//! incremental-training schedule of the paper's Fig 3(b) can freeze earlier
//! groups while later groups learn.

use std::fmt;
use std::ops::Range;

use crate::error::{NnError, Result};
use crate::quant::{ActObserver, Precision, QAct};
use crate::tensor::Tensor;

/// How a layer can participate in a chained-int8 forward pass (see
/// [`crate::network::Network::plan_quant_chain`] and the chaining
/// section of [`crate::quant`]'s module docs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChainSupport {
    /// Cannot run on quantised activations: any chain ends before this
    /// layer (its predecessor dequantises to `f32`). The default.
    Breaks,
    /// Order-preserving on the int8 grid (MaxPool, Flatten): passes a
    /// quantised activation through at its incoming scale.
    Transparent,
    /// ReLU: order-preserving like [`ChainSupport::Transparent`], and
    /// additionally **fusable** into the preceding quantised layer's
    /// requantisation epilogue as a free `max(0)`.
    TransparentRelu,
    /// A quantised compute layer with a **frozen** input-activation
    /// scale: consumes int8 input on that grid and can emit int8
    /// output at any requested scale.
    Quantised {
        /// The layer's frozen input-activation quantisation scale —
        /// the per-edge scale the planning pass resolves.
        in_scale: f32,
    },
}

/// Per-sample cost of a layer at its current active width.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerCost {
    /// Multiply-accumulate operations for one sample.
    pub macs: f64,
    /// Number of parameters used at the current width.
    pub params: usize,
    /// Output shape for one sample (no batch axis).
    pub out_shape: Vec<usize>,
}

/// A differentiable network layer.
///
/// The forward/backward contract: `forward(input, train=true)` caches
/// whatever `backward` needs; `backward(grad_out)` accumulates parameter
/// gradients and returns the gradient with respect to the layer input.
/// Batch dimension is always axis 0.
///
/// `Send` is a supertrait so a whole [`crate::Network`] can move onto a
/// serving thread; layers are owned data (weights, scratch, observers)
/// with no thread affinity.
pub trait Layer: fmt::Debug + Send {
    /// A short human-readable name (e.g. `"conv1"`).
    fn name(&self) -> &str;

    /// Computes the layer output. When `train` is true, caches activations
    /// for a following [`Layer::backward`] call.
    ///
    /// # Errors
    ///
    /// Returns [`crate::NnError::ShapeMismatch`] if the input does not have
    /// the shape the layer expects at its current active width.
    fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor>;

    /// Back-propagates `grad_out`, accumulating parameter gradients and
    /// returning the gradient with respect to the input.
    ///
    /// # Errors
    ///
    /// Returns [`crate::NnError::ShapeMismatch`] if `grad_out` does not
    /// match the last forward output, or [`crate::NnError::InvalidConfig`]
    /// if called before a training-mode forward pass.
    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor>;

    /// [`Layer::backward`] for the *first* layer of a network: only the
    /// parameter gradients are needed, the input gradient would be
    /// discarded. Layers with an expensive input-gradient path override
    /// this to skip it ([`crate::conv::Conv2d`] saves one GEMM plus the
    /// adjoint scatter per sample and group); the default just drops
    /// the result.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Layer::backward`].
    fn backward_params(&mut self, grad_out: &Tensor) -> Result<()> {
        self.backward(grad_out).map(|_| ())
    }

    /// Applies one SGD-with-momentum update to the trainable parameters and
    /// leaves frozen groups untouched. No-op for parameter-free layers.
    fn sgd_step(&mut self, _lr: f32, _momentum: f32) {}

    /// Clears accumulated gradients. No-op for parameter-free layers.
    fn zero_grads(&mut self) {}

    /// Restricts execution to the first `active` of the layer's `G` channel
    /// groups. Layers that do not partition channels ignore this.
    ///
    /// # Errors
    ///
    /// Returns [`crate::NnError::InvalidGroup`] if `active` is zero or
    /// exceeds the layer's group count.
    fn set_active_groups(&mut self, _active: usize) -> Result<()> {
        Ok(())
    }

    /// Marks which group indices may be updated by [`Layer::sgd_step`];
    /// everything else is frozen. Layers without parameters ignore this.
    fn set_trainable_groups(&mut self, _groups: Range<usize>) {}

    /// Selects the data precision of layers with an int8 path
    /// ([`crate::conv::Conv2d`], [`crate::linear::Linear`]); everything
    /// else ignores it. The default everywhere is [`Precision::F32`];
    /// [`Precision::Int8`] runs forward passes on the real int8 kernel
    /// (the executed data-precision knob, see [`crate::quant`]).
    fn set_precision(&mut self, _precision: Precision) {}

    /// Freezes (or unfreezes) the layer's int8 activation-quantisation
    /// scale at the range observed so far (see
    /// [`crate::quant::ActObserver`]). No-op for layers without an
    /// int8 path.
    fn freeze_act_scale(&mut self, _frozen: bool) {}

    /// The layer's int8 input-activation observer, if it has one
    /// (`Conv2d`/`Linear`). Used by
    /// [`crate::network::Network::calibrate`] to build the per-layer
    /// scale report.
    fn quant_observer(&self) -> Option<ActObserver> {
        None
    }

    /// How this layer can participate in a chained-int8 forward pass
    /// (see [`ChainSupport`]). The default — [`ChainSupport::Breaks`]
    /// — keeps a layer out of every chain.
    fn chain_support(&self) -> ChainSupport {
        ChainSupport::Breaks
    }

    /// One chained-int8 forward step (inference only — never caches
    /// for backward). Called by the network executor strictly per the
    /// plan [`crate::network::Network::plan_quant_chain`] computed, so
    /// implementations may assume the input form matches what their
    /// [`Layer::chain_support`] advertised: quantised layers accept
    /// either form (an `f32` input is quantised once at the frozen
    /// scale — the head of a chain), transparent layers require
    /// [`QAct::I8`]. When `out_scale` is `Some(s)`, a quantised layer
    /// must emit int8 output on the grid `s` (the next quantised
    /// layer's frozen input scale), with ReLU fused into the
    /// requantisation when `fuse_relu` is set; with `None` it emits
    /// `f32`. A quantised layer runs the same int8 step here as in its
    /// [`Layer::forward`] at [`Precision::Int8`], which is the
    /// one-layer chain `f32` in, `f32` out.
    ///
    /// # Errors
    ///
    /// The default returns [`NnError::InvalidConfig`]: layers that
    /// advertise [`ChainSupport::Breaks`] are never scheduled chained.
    fn forward_chained(
        &mut self,
        _input: QAct,
        _out_scale: Option<f32>,
        _fuse_relu: bool,
    ) -> Result<QAct> {
        Err(NnError::InvalidConfig {
            reason: format!("layer `{}` cannot run in a quantised chain", self.name()),
        })
    }

    /// Cost of this layer at its *current* active width for one sample of
    /// `in_shape` (no batch axis).
    ///
    /// # Errors
    ///
    /// Returns [`crate::NnError::ShapeMismatch`] if `in_shape` is not
    /// compatible with the layer.
    fn cost(&self, in_shape: &[usize]) -> Result<LayerCost>;

    /// Total parameter count across *all* groups (the single-model memory
    /// footprint the paper contrasts with storing one model per
    /// configuration).
    fn param_count_total(&self) -> usize {
        0
    }

    /// Snaps the layer's weights to a `bits`-bit symmetric uniform grid
    /// (see [`crate::quant`]). No-op for parameter-free layers; `bits` is
    /// validated by the caller.
    fn quantize_weights(&mut self, _bits: u32) {}
}

/// Helper: SGD-with-momentum update for one parameter slice, respecting a
/// per-parameter freeze predicate.
///
/// `v ← μ·v − lr·g; w ← w + v` for unfrozen parameters; frozen parameters
/// keep their velocity zeroed so later unfreezing starts cold.
///
/// Retained as the oracle for `sgd_update_span`, which is what the
/// layers call on their hot path.
#[cfg(test)]
pub(crate) fn sgd_update(
    w: &mut [f32],
    g: &[f32],
    v: &mut [f32],
    lr: f32,
    momentum: f32,
    mut frozen: impl FnMut(usize) -> bool,
) {
    debug_assert_eq!(w.len(), g.len());
    debug_assert_eq!(w.len(), v.len());
    for i in 0..w.len() {
        if frozen(i) {
            v[i] = 0.0;
            continue;
        }
        v[i] = momentum * v[i] - lr * g[i];
        w[i] += v[i];
    }
}

/// Range-based SGD-with-momentum update for layers whose freeze
/// pattern is a contiguous trainable span inside each parameter block:
/// elements in `train` get the dense momentum update
/// (`v ← μ·v − lr·g; w ← w + v`), everything else only has its
/// velocity cleared. Same element-wise arithmetic as the predicate
/// form `sgd_update` (bit-identical results, pinned by a test), but
/// branch- and division-free — a per-index predicate costs real time
/// when a training step updates tens of thousands of parameters.
pub(crate) fn sgd_update_span(
    w: &mut [f32],
    g: &[f32],
    v: &mut [f32],
    lr: f32,
    momentum: f32,
    train: std::ops::Range<usize>,
) {
    debug_assert_eq!(w.len(), g.len());
    debug_assert_eq!(w.len(), v.len());
    debug_assert!(train.start <= train.end && train.end <= w.len());
    v[..train.start].fill(0.0);
    v[train.end..].fill(0.0);
    let (w, g, v) = (
        &mut w[train.clone()],
        &g[train.clone()],
        &mut v[train.clone()],
    );
    for ((w, &g), v) in w.iter_mut().zip(g).zip(v.iter_mut()) {
        *v = momentum * *v - lr * g;
        *w += *v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sgd_update_applies_momentum() {
        let mut w = vec![1.0, 1.0];
        let g = vec![0.5, 0.5];
        let mut v = vec![0.0, 0.0];
        sgd_update(&mut w, &g, &mut v, 0.1, 0.9, |_| false);
        assert!((w[0] - 0.95).abs() < 1e-6);
        // Second step: velocity compounds.
        sgd_update(&mut w, &g, &mut v, 0.1, 0.9, |_| false);
        assert!((w[0] - (0.95 - 0.05 * 0.9 - 0.05)).abs() < 1e-6);
    }

    #[test]
    fn sgd_update_respects_freeze_mask() {
        let mut w = vec![1.0, 1.0];
        let g = vec![0.5, 0.5];
        let mut v = vec![0.3, 0.3];
        sgd_update(&mut w, &g, &mut v, 0.1, 0.9, |i| i == 0);
        assert_eq!(w[0], 1.0, "frozen weight untouched");
        assert_eq!(v[0], 0.0, "frozen velocity cleared");
        assert!(w[1] != 1.0, "unfrozen weight updated");
    }

    #[test]
    fn sgd_update_span_matches_predicate_form() {
        let g: Vec<f32> = (0..12).map(|i| (i as f32 * 0.7).sin()).collect();
        for (lo, hi) in [(0usize, 12usize), (3, 9), (0, 0), (12, 12), (5, 5)] {
            let mut w1: Vec<f32> = (0..12).map(|i| i as f32 * 0.1).collect();
            let mut v1 = vec![0.25f32; 12];
            let mut w2 = w1.clone();
            let mut v2 = v1.clone();
            sgd_update(&mut w1, &g, &mut v1, 0.05, 0.9, |i| !(lo..hi).contains(&i));
            sgd_update_span(&mut w2, &g, &mut v2, 0.05, 0.9, lo..hi);
            assert_eq!(w1, w2, "span {lo}..{hi} weights");
            assert_eq!(v1, v2, "span {lo}..{hi} velocities");
        }
    }
}
