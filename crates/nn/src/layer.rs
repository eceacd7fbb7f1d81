//! The [`Layer`] trait: the unit of composition for networks.
//!
//! Layers own their parameters and, from their first training call,
//! their gradient and momentum buffers (a `TrainState`); they are
//! **width-aware**: layers that participate in the dynamic-DNN group
//! partition (convolutions, the classifier) implement
//! [`Layer::set_active_groups`] to restrict execution to the first `g` of
//! `G` channel groups, and [`Layer::set_trainable_groups`] so the
//! incremental-training schedule of the paper's Fig 3(b) can freeze earlier
//! groups while later groups learn.

use std::cell::RefCell;
use std::fmt;
use std::ops::Range;

use crate::error::{NnError, Result};
use crate::quant::{ActObserver, Precision, QAct, QTensor};
use crate::tensor::Tensor;

/// How a layer takes part in the inference plan: whether it can run
/// in a chained-int8 segment (see
/// [`crate::network::Network::plan_quant_chain`] and the chaining
/// section of [`crate::quant`]'s module docs) and whether it can fold
/// a following ReLU into its epilogue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChainSupport {
    /// Cannot run on quantised activations: any chain ends before this
    /// layer (its predecessor dequantises to `f32`). The default.
    Breaks,
    /// A compute layer outside any chain (`Conv2d`/`Linear` at
    /// [`Precision::F32`], or at [`Precision::Int8`] with a dynamic
    /// scale): it emits `f32`, like [`ChainSupport::Breaks`], and a
    /// ReLU directly after it folds into its storing epilogue.
    FusesRelu,
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
/// serving thread; layers are owned data (weights, packed panels,
/// observers, training state) with no thread affinity: forward scratch
/// is the calling thread's.
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

    /// One inference step on an owned activation (never caches for
    /// backward): the only step the inference walk of
    /// [`crate::network::Network::forward`] runs, in both precisions,
    /// strictly per the plan
    /// [`crate::network::Network::plan_quant_chain`] computed. A
    /// quantised layer accepts either form (an `f32` input is quantised
    /// at its observer's scale — the head of a chain, or a one-layer
    /// chain); order-preserving layers accept either form too and keep
    /// it, working in place where they can. When `out_scale` is
    /// `Some(s)`, a quantised layer must emit int8 output on the grid
    /// `s` (the next quantised layer's frozen input scale); with `None`
    /// it emits `f32`. `fuse_relu` asks a compute layer to apply the
    /// ReLU that follows it in its epilogue (the planner then skips
    /// that ReLU). A quantised layer runs the same int8 step here as in
    /// its [`Layer::forward`] at [`Precision::Int8`].
    ///
    /// The step consumes `input`. The layers of this crate take an
    /// output that does not reuse the input's buffer from the calling
    /// thread's spare activation buffers and return the consumed input
    /// to them, so a steady walk allocates nothing. The default runs
    /// [`Layer::forward`] on an `f32` input (layers that advertise
    /// [`ChainSupport::Breaks`]) and recycles that input too.
    ///
    /// # Errors
    ///
    /// Shape errors as in [`Layer::forward`]; the default returns
    /// [`NnError::InvalidConfig`] for a quantised input, which the plan
    /// never hands a [`ChainSupport::Breaks`] layer.
    fn infer(&mut self, input: QAct, _out_scale: Option<f32>, _fuse_relu: bool) -> Result<QAct> {
        let QAct::F32(x) = input else {
            return Err(NnError::InvalidConfig {
                reason: format!("layer `{}` cannot run in a quantised chain", self.name()),
            });
        };
        let y = self.forward(&x, false)?;
        recycle(QAct::F32(x));
        Ok(QAct::F32(y))
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

/// Most spare activation buffers a thread keeps per element type. A
/// walk holds at most two activations of one type at a time (a step's
/// input and its output), so two spares serve a steady forward; the
/// rest absorb other callers on the same thread.
const SPARES: usize = 4;

/// A thread's spare activation buffers of one element type, as
/// `(shape, data)` pairs. A buffer's capacity keeps the longest length
/// it was ever given (its high water), so it holds any smaller
/// activation without a reallocation.
struct Spares<T>(Vec<(Vec<usize>, Vec<T>)>);

thread_local! {
    /// Spare `f32` activations (the walk's input copy, `f32` layer
    /// outputs, dequantised chain tails).
    static SPARE_F32: RefCell<Spares<f32>> = const { RefCell::new(Spares(Vec::new())) };
    /// Spare int8-grid activations (chained layer outputs).
    static SPARE_I16: RefCell<Spares<i16>> = const { RefCell::new(Spares(Vec::new())) };
}

impl<T: Copy + Default> Spares<T> {
    /// A buffer of `batch · ∏ sample` elements and the shape
    /// `[batch, sample…]`: the spare of least capacity that holds it,
    /// else the one of most capacity, else a new one. Its elements are
    /// those of the last activation it held, except that growing it
    /// writes the growth; only a rise of this thread's high water
    /// reallocates.
    fn take(&mut self, batch: usize, sample: &[usize]) -> (Vec<usize>, Vec<T>) {
        let len = batch * sample.iter().product::<usize>();
        let spares = self.0.iter().map(|(_, d)| d.capacity()).enumerate();
        let fit = spares
            .clone()
            .filter(|&(_, c)| c >= len)
            .min_by_key(|&(_, c)| c);
        let (mut shape, mut data) = match fit.or_else(|| spares.max_by_key(|&(_, c)| c)) {
            Some((i, _)) => self.0.swap_remove(i),
            None => (Vec::with_capacity(4), Vec::new()),
        };
        data.truncate(len);
        data.resize(len, T::default());
        shape.clear();
        shape.push(batch);
        shape.extend_from_slice(sample);
        (shape, data)
    }

    /// Keeps `parts` for the next [`Spares::take`]; past [`SPARES`]
    /// buffers the one of least capacity goes.
    fn give(&mut self, parts: (Vec<usize>, Vec<T>)) {
        self.0.push(parts);
        if self.0.len() > SPARES {
            let least = self
                .0
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, d))| d.capacity());
            let i = least.map_or(0, |(i, _)| i);
            self.0.swap_remove(i);
        }
    }
}

thread_local! {
    /// The compute layers' forward scratch: an `f32` buffer (`Conv2d`'s
    /// packed im2col columns, or a requantising step's pre-divided
    /// bias) and an int8-grid buffer (the packed quantised columns or
    /// input batch). Each only grows, to its thread's high water, so a
    /// driver serving many tenants holds one copy, not one per layer.
    static FWD_SCRATCH: RefCell<(Vec<f32>, Vec<i16>)> =
        const { RefCell::new((Vec::new(), Vec::new())) };
}

/// Runs `f` on the calling thread's forward scratch, taken out of its
/// thread-local for the call and put back after, never borrowed across
/// it: a work-stealing `rayon` may run another step on this thread
/// while it waits in a band scope, and that step finds an empty pair
/// (and grows its own) instead of a held borrow.
pub(crate) fn with_fwd_scratch<R>(f: impl FnOnce(&mut Vec<f32>, &mut Vec<i16>) -> R) -> R {
    let (mut x, mut q) = FWD_SCRATCH.with(RefCell::take);
    let r = f(&mut x, &mut q);
    FWD_SCRATCH.with(|s| s.replace((x, q)));
    r
}

/// A compute layer's training state: the gradient (`gw`, `gb`) and
/// momentum (`vw`, `vb`) buffers of its weights and biases, and `B`,
/// whatever only its backward reads. The first training call creates
/// it zero-filled ([`TrainState::of`]), so a layer that only serves
/// never holds it.
#[derive(Debug)]
pub(crate) struct TrainState<B> {
    pub(crate) gw: Vec<f32>,
    pub(crate) gb: Vec<f32>,
    pub(crate) vw: Vec<f32>,
    pub(crate) vb: Vec<f32>,
    pub(crate) bwd: B,
}

impl<B: Default> TrainState<B> {
    /// The state in `slot`, created zero-filled for `w_len` weights and
    /// `b_len` biases (every group's, whatever the width) if there is
    /// none yet.
    pub(crate) fn of(slot: &mut Option<Box<Self>>, w_len: usize, b_len: usize) -> &mut Self {
        slot.get_or_insert_with(|| {
            Box::new(Self {
                gw: vec![0.0; w_len],
                gb: vec![0.0; b_len],
                vw: vec![0.0; w_len],
                vb: vec![0.0; b_len],
                bwd: B::default(),
            })
        })
    }

    /// Clears the accumulated gradients; with no state there are none.
    pub(crate) fn zero_grads(slot: &mut Option<Box<Self>>) {
        if let Some(t) = slot {
            t.gw.fill(0.0);
            t.gb.fill(0.0);
        }
    }
}

/// Where a layer step takes its output buffer from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum OutBuf {
    /// A new zeroed buffer of exact size: [`Layer::forward`], whose
    /// result leaves the crate and is never recycled.
    Fresh,
    /// The calling thread's spares: the inference walk, which recycles
    /// the result. Its values are unspecified — the step must write
    /// every element.
    Spare,
}

impl OutBuf {
    /// An `f32` output of shape `[batch, sample…]`.
    pub(crate) fn f32(self, batch: usize, sample: &[usize]) -> Tensor {
        match self {
            Self::Fresh => Tensor::zeros(&[&[batch], sample].concat()),
            Self::Spare => spare_f32(batch, sample),
        }
    }

    /// An int8-grid output of shape `[batch, sample…]` on the grid
    /// `scale`.
    pub(crate) fn i16(self, batch: usize, sample: &[usize], scale: f32) -> QTensor {
        match self {
            Self::Fresh => QTensor::zeros(&[&[batch], sample].concat(), scale),
            Self::Spare => spare_i16(batch, sample, scale),
        }
    }
}

/// An `f32` inference output of shape `[batch, sample…]` from the
/// calling thread's spares. Its values are unspecified — the step that
/// takes it must write every element.
pub(crate) fn spare_f32(batch: usize, sample: &[usize]) -> Tensor {
    let (shape, data) = SPARE_F32.with_borrow_mut(|s| s.take(batch, sample));
    Tensor::from_parts(shape, data)
}

/// An int8-grid inference output of shape `[batch, sample…]` on the
/// grid `scale`, from the calling thread's spares; as [`spare_f32`],
/// every element must be written.
pub(crate) fn spare_i16(batch: usize, sample: &[usize], scale: f32) -> QTensor {
    let (shape, data) = SPARE_I16.with_borrow_mut(|s| s.take(batch, sample));
    QTensor::from_parts(shape, data, scale)
}

/// Returns a consumed inference activation's buffers to the calling
/// thread's spares.
pub(crate) fn recycle(act: QAct) {
    match act {
        QAct::F32(t) => SPARE_F32.with_borrow_mut(|s| s.give(t.into_parts())),
        QAct::I8(q) => SPARE_I16.with_borrow_mut(|s| s.give(q.into_parts())),
    }
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
