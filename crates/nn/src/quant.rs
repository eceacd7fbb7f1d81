//! Quantization — the *data precision* application knob of the paper's
//! Fig 5, in both of its forms.
//!
//! Alongside the width knob, the paper lists "data precision" among the
//! application knobs an RTM can turn. This module implements symmetric
//! uniform quantization two ways:
//!
//! 1. **Simulation** ([`quantize_network`]): layer weights are snapped
//!    in place to a `2^(bits−1) − 1`-step grid scaled to the layer's
//!    absolute maximum, while arithmetic stays `f32` — the standard way
//!    to measure PTQ accuracy impact at *any* bit width.
//! 2. **Execution** ([`Precision::Int8`]): `Conv2d`/`Linear` forward
//!    passes run on the real int8 kernel ([`crate::gemm::int8`]) —
//!    per-tensor int8 weights packed and cached per weight version,
//!    activations quantised through a per-layer [`ActObserver`] scale,
//!    exact `i32` accumulation and a fused requantisation epilogue. The
//!    precision knob then trades **measured** latency against
//!    **measured** accuracy instead of simulating it.
//!
//! Combined with [`crate::metrics::evaluate`], either path yields the
//! accuracy-vs-precision trade-off curve the RTM exploits.
//!
//! # Chained int8 execution
//!
//! With **frozen** activation scales (static quantisation, see
//! [`ActObserver::freeze`]), the executed path goes one step further:
//! [`crate::network::Network::plan_quant_chain`] resolves, per edge
//! between quantised layers, the requantisation multiplier that lets
//! each layer emit **saturating int8 activations straight from the
//! GEMM write-back** ([`crate::gemm::QEpilogueI8`]) instead of
//! dequantising to `f32` and re-quantising at the next layer.
//!
//! The chained-scale algebra: a quantised layer sees input on the int8
//! grid at scale `s_x` and weights at scale `s_w`, so its exact `i32`
//! accumulator carries real value `acc · s_x·s_w` — the **accumulator
//! scale is `s_x · s_w`**. To hand the next quantised layer input on
//! *its* frozen grid `s_out`, the epilogue applies one multiplier:
//!
//! ```text
//! q_out = round_sat(acc · (s_x·s_w / s_out) + b/s_out)     [± ReLU]
//! ```
//!
//! ReLU rides along as a free `max(0)` before the round, and MaxPool
//! commutes exactly with the (monotone) round-and-clamp, so the
//! ReLU/pool layers between two convolutions run order-preserving
//! integer fast paths on the [`QTensor`] — the whole forward performs
//! exactly **one** `f32`→int8 quantisation (the network input) and
//! **one** int8→`f32` dequantisation (the logits), regardless of
//! depth. Chaining only engages where scales are frozen: any layer
//! with a dynamic (unfrozen) observer falls back to the per-layer
//! `f32` round-trip path for itself, splitting the chain around it and
//! keeping the dynamic-scale semantics intact. The [`layer_io_events`]
//! counters instrument exactly this invariant.

use std::cell::Cell;

use crate::error::{NnError, Result};
use crate::network::Network;
use crate::tensor::Tensor;

/// Number of positive levels of the symmetric int8 grid.
pub(crate) const I8_LEVELS: f32 = 127.0;

/// Largest finite absolute value in `w`; `0.0` for an empty or
/// all-non-finite slice. The non-finite guard keeps a single NaN/inf
/// from poisoning a whole tensor's quantisation scale.
///
/// Runs per batch on the int8 forward path (activation range), so it
/// is written as eight independent branchless max lanes — a
/// `filter(is_finite)` fold compiles to a scalar compare-and-branch
/// loop, while this form vectorises (`cmpps`/`andps`/`maxps`).
pub(crate) fn finite_max_abs(w: &[f32]) -> f32 {
    let mut lanes = [0.0f32; 8];
    let mut it = w.chunks_exact(8);
    for chunk in &mut it {
        for (m, &x) in lanes.iter_mut().zip(chunk) {
            let a = x.abs();
            // `a <= MAX` is false for NaN and +inf: both lower to 0,
            // i.e. they are ignored by the running max.
            let a = if a <= f32::MAX { a } else { 0.0 };
            if a > *m {
                *m = a;
            }
        }
    }
    let mut m = 0.0f32;
    for &l in &lanes {
        if l > m {
            m = l;
        }
    }
    for &x in it.remainder() {
        let a = x.abs();
        if a <= f32::MAX && a > m {
            m = a;
        }
    }
    m
}

/// Quantises one value to the symmetric int8 grid:
/// `round(x · inv_scale)` (ties to even) clamped to `[-127, 127]`.
/// Saturates instead of wrapping; NaN and −inf map to `−127`, +inf to
/// `+127` (through the clamp, whose `max` resolves NaN to its limit).
///
/// Written clamp-first with the classic `+1.5·2²³` magic-bias round
/// rather than `f32::round` + saturating cast, because on the baseline
/// x86-64 target `round()` is a libm call and the saturating cast
/// needs per-lane fix-up branches — both defeat vectorisation of the
/// packing loops, which this form keeps branchless (`mulps`/`maxps`/
/// `minps`/`addps` + integer subtract).
#[inline]
#[cfg(test)] // production packing stores i16 (quantize_i8w); the i8 form is the test oracle
pub(crate) fn quantize_i8(x: f32, inv_scale: f32) -> i8 {
    quantize_grid(x, inv_scale) as i8
}

/// [`quantize_i8`], widened to the `i16` storage the packed int8
/// panels use (values stay on the `[-127, 127]` grid).
#[inline]
pub(crate) fn quantize_i8w(x: f32, inv_scale: f32) -> i16 {
    quantize_grid(x, inv_scale) as i16
}

/// Rounds an already-scaled value onto the int8 grid in `i16` storage:
/// `round(v)` (ties to even) clamped to `[-127, 127]`. The
/// requantisation epilogues of [`crate::gemm::int8`] use this on the
/// hot write-back path — same branchless magic-bias core as the input
/// quantisers, so chained-layer rounding policy cannot diverge from
/// input-quantisation policy.
#[inline]
pub(crate) fn round_clamp_i8w(v: f32) -> i16 {
    quantize_grid(v, 1.0) as i16
}

/// [`round_clamp_i8w`] in `i8` storage, for the scalar requantisation
/// primitive `requantize_i8` (the fused epilogue's test oracle).
#[cfg(test)]
pub(crate) fn round_clamp_i8(v: f32) -> i8 {
    quantize_grid(v, 1.0) as i8
}

/// Shared core of the int8-grid quantisers: after the magic bias the
/// low bits hold the rounded value in two's complement, so a
/// truncating cast to `i8`/`i16` recovers it exactly on the clamped
/// range.
#[inline]
#[allow(clippy::manual_clamp)] // f32::clamp propagates NaN into the bit tricks below; max-then-min resolves NaN to a grid edge
fn quantize_grid(x: f32, inv_scale: f32) -> u32 {
    /// `1.5 · 2²³`: adding it to a value in `[-127, 127]` pushes the
    /// rounded value into the low mantissa bits.
    const MAGIC: f32 = 12_582_912.0;
    let v = (x * inv_scale).max(-I8_LEVELS).min(I8_LEVELS);
    (v + MAGIC).to_bits().wrapping_sub(MAGIC.to_bits())
}

/// [`finite_max_abs`] for the quantised forward path's *activation*
/// inputs, with a debug-build finiteness guard. Masking non-finite
/// values is the right policy for weights (regression-tested), but a
/// non-finite *activation* means an upstream data-pipeline defect: the
/// f32 path would propagate the NaN and make it visible, whereas
/// the int8 grid clamp maps NaN to `−127` and yields finite,
/// plausible-looking outputs. Release builds keep the silent clamp (no
/// panics in production); debug builds fail loudly at the defect.
pub(crate) fn act_max_abs(x: &[f32]) -> f32 {
    debug_assert!(
        x.iter().all(|v| v.is_finite()),
        "non-finite activation input on the int8 forward path: the int8 clamp \
         (NaN → −127) would mask a defect the f32 path would propagate"
    );
    finite_max_abs(x)
}

/// The multiplier that quantises against `scale`, with the degenerate
/// all-zero (or all-non-finite) range mapping to `0` — every value
/// then quantises to exactly `0` instead of dividing by zero. Shared
/// by all weight- and activation-scale call sites so the zero-scale
/// policy cannot diverge between layers.
#[inline]
pub(crate) fn inv_or_zero(scale: f32) -> f32 {
    if scale > 0.0 {
        1.0 / scale
    } else {
        0.0
    }
}

/// Quantises a contiguous `f32` slice onto the int8 grid in `i16`
/// storage — the branchless per-element form vectorises, so this is
/// one cheap pass even over whole input tensors. Only the first
/// `src.len()` elements of `dst` are written.
pub(crate) fn quantize_slice_i16(src: &[f32], inv_scale: f32, dst: &mut [i16]) {
    for (d, &x) in dst.iter_mut().zip(src) {
        *d = quantize_i8w(x, inv_scale);
    }
}

/// Quantizes a weight slice in place: symmetric uniform, per-tensor scale.
///
/// `bits` counts the sign bit, so `bits = 8` yields the `[-127, 127]` int8
/// grid. Zero weights stay exactly zero; an all-zero tensor is unchanged.
///
/// Non-finite weights are clamped rather than propagated: the scale is
/// computed over finite values only (a single NaN/inf would otherwise
/// silently zero — or NaN — every other weight through an infinite
/// scale), then NaN snaps to `0` and ±inf to the grid ends `±max_abs`.
pub(crate) fn quantize_slice(w: &mut [f32], bits: u32) {
    debug_assert!(bits >= 2);
    let max_abs = finite_max_abs(w);
    if max_abs == 0.0 {
        // Nothing finite and non-zero to derive a scale from; still
        // scrub non-finite values so they cannot leak downstream.
        for x in w.iter_mut() {
            if !x.is_finite() {
                *x = 0.0;
            }
        }
        return;
    }
    let levels = ((1u32 << (bits - 1)) - 1) as f32;
    let scale = max_abs / levels;
    for x in w.iter_mut() {
        let v = if x.is_finite() {
            *x
        } else if *x == f32::INFINITY {
            max_abs
        } else if *x == f32::NEG_INFINITY {
            -max_abs
        } else {
            0.0
        };
        *x = (v / scale).round() * scale;
    }
}

/// Quantizes every parameterised layer of `net` to `bits`-bit weights.
///
/// This is destructive (the `f32` master weights are overwritten with
/// their quantized values); rebuild and retrain (deterministically, from
/// the same seed) to recover a full-precision model.
///
/// # Errors
///
/// Returns [`NnError::InvalidConfig`] for `bits < 2` (a 1-bit symmetric
/// grid has no non-zero levels) or `bits > 32`.
pub fn quantize_network(net: &mut Network, bits: u32) -> Result<()> {
    if !(2..=32).contains(&bits) {
        return Err(NnError::InvalidConfig {
            reason: format!("weight precision must be 2..=32 bits, got {bits}"),
        });
    }
    net.quantize_weights_internal(bits);
    Ok(())
}

/// The data-precision knob: which kernels a layer's forward pass runs
/// on. Backward passes (training) always run the `f32` GEMM against
/// the master weights, so a network can train in `f32` and serve in
/// int8 without switching back.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Precision {
    /// `f32` arithmetic on im2col + the blocked GEMM ([`crate::gemm`]).
    /// The default.
    #[default]
    F32,
    /// int8 storage and arithmetic with `i32` accumulation on the
    /// quantised kernel path ([`crate::gemm::int8`]): packed quantised
    /// panels and a fused requantisation epilogue — lower latency and
    /// memory traffic for a small, measurable accuracy cost.
    Int8,
}

/// Tracks the dynamic range of a layer's input activations for int8
/// quantisation. Each `Conv2d`/`Linear` owns one; every int8
/// forward pass feeds it the batch's absolute maximum.
///
/// Unfrozen (the default), the quantisation scale is *dynamic*: each
/// batch uses its own max-abs, so no calibration pass is required and
/// identical inputs always produce identical outputs. [`ActObserver::freeze`]
/// switches to *static* scales — the running maximum observed so far
/// becomes the fixed scale (activations beyond it saturate at ±127),
/// which makes quantisation consistent across batches after a
/// calibration run over representative data.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ActObserver {
    max_abs: f32,
    frozen: bool,
}

impl ActObserver {
    /// Records one batch's absolute maximum (ignored when frozen or
    /// non-finite).
    pub fn observe(&mut self, batch_max_abs: f32) {
        if !self.frozen && batch_max_abs.is_finite() {
            self.max_abs = self.max_abs.max(batch_max_abs);
        }
    }

    /// The largest activation magnitude observed so far.
    pub fn max_abs(&self) -> f32 {
        self.max_abs
    }

    /// Freezes (or unfreezes) the observed range as the static
    /// quantisation scale.
    pub fn freeze(&mut self, frozen: bool) {
        self.frozen = frozen;
    }

    /// Whether the scale is static (frozen) rather than per-batch.
    pub fn is_frozen(&self) -> bool {
        self.frozen
    }

    /// The quantisation scale to use for a batch with the given
    /// max-abs: the frozen range when static, the batch's own range
    /// when dynamic.
    pub fn scale_for(&self, batch_max_abs: f32) -> f32 {
        let amax = if self.frozen {
            self.max_abs
        } else {
            batch_max_abs
        };
        amax / I8_LEVELS
    }

    /// One-call form of the per-batch observe/derive sequence the
    /// quantised layer forwards run: sweeps the batch's max-abs from
    /// the raw activation slice, records it, then returns
    /// `(scale, inv_scale)` with the shared zero-range policy of
    /// [`inv_or_zero`]. When the scale is frozen, release builds skip
    /// the sweep entirely — the static scale ignores the batch range,
    /// so the pass would be pure waste on the batch-1 latency path.
    ///
    /// Two debug-build guards fire here (release keeps the silent
    /// clamps):
    /// - non-finite activations assert on the *inference* path
    ///   (`train = false`) via [`act_max_abs`]; training is exempt —
    ///   divergence legitimately produces inf/NaN activations, and the
    ///   f32 loss surfaces them either way;
    /// - a frozen observer whose recorded range is still zero asserts
    ///   when the batch carries signal: [`ActObserver::freeze`] ran
    ///   before any calibration forward observed this layer, so every
    ///   activation would quantise to 0 and the layer output silently
    ///   collapse to its bias.
    pub(crate) fn observe_scale(&mut self, x: &[f32], train: bool) -> (f32, f32) {
        let batch_max_abs = if self.frozen && !cfg!(debug_assertions) {
            0.0
        } else if train {
            finite_max_abs(x)
        } else {
            act_max_abs(x)
        };
        debug_assert!(
            !self.frozen || self.max_abs > 0.0 || batch_max_abs == 0.0,
            "frozen activation scale is zero: freeze ran before any calibration \
             forward observed this layer, so every activation quantises to 0 and \
             the layer output collapses to its bias"
        );
        self.observe(batch_max_abs);
        let scale = self.scale_for(batch_max_abs);
        (scale, inv_or_zero(scale))
    }
}

/// A quantised activation tensor: int8-grid values (`[-127, 127]`) in
/// `i16` storage — the operand form of the packed int8 kernels, so
/// chained layers lower it straight into packed panels — plus the
/// per-tensor dequantisation scale (`real ≈ value · scale`).
#[derive(Debug, Clone, PartialEq)]
pub struct QTensor {
    shape: Vec<usize>,
    data: Vec<i16>,
    scale: f32,
}

impl QTensor {
    /// An all-zero quantised tensor of the given shape and scale.
    pub fn zeros(shape: &[usize], scale: f32) -> Self {
        Self {
            data: vec![0; shape.iter().product()],
            shape: shape.to_vec(),
            scale,
        }
    }

    /// The tensor shape (batch axis first, like [`Tensor`]).
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The int8-grid values (`i16` storage).
    pub fn data(&self) -> &[i16] {
        &self.data
    }

    /// Mutable access to the values.
    pub fn data_mut(&mut self) -> &mut [i16] {
        &mut self.data
    }

    /// The dequantisation scale.
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// Reinterprets the tensor with a new shape of the same element
    /// count (the chained Flatten path — a metadata change, no copy).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if the element counts differ.
    pub fn reshape(&mut self, shape: &[usize]) -> Result<()> {
        if shape.iter().product::<usize>() != self.data.len() {
            return Err(NnError::ShapeMismatch {
                context: "qtensor reshape".into(),
                expected: self.shape.clone(),
                actual: shape.to_vec(),
            });
        }
        self.shape = shape.to_vec();
        Ok(())
    }

    /// Dequantises to an `f32` [`Tensor`] (`value · scale`).
    pub fn dequantize(&self) -> Tensor {
        let data = self
            .data
            .iter()
            .map(|&v| f32::from(v) * self.scale)
            .collect();
        Tensor::from_vec(&self.shape, data).expect("shape matches data by construction")
    }
}

/// An activation flowing through a chained-int8 forward pass: either a
/// plain `f32` [`Tensor`] (outside any chain segment) or a quantised
/// [`QTensor`] (inside one). See
/// [`crate::network::Network::plan_quant_chain`].
#[derive(Debug, Clone)]
pub enum QAct {
    /// Full-precision activation.
    F32(Tensor),
    /// Int8-grid activation with its dequantisation scale.
    I8(QTensor),
}

impl QAct {
    /// The activation's shape, whichever form it is in.
    pub fn shape(&self) -> &[usize] {
        match self {
            Self::F32(t) => t.shape(),
            Self::I8(q) => q.shape(),
        }
    }
}

/// One layer's entry in the calibration report of
/// [`crate::network::Network::calibrate`]: the activation range the
/// calibration pass observed and the static int8 scale frozen from it.
#[derive(Debug, Clone, PartialEq)]
pub struct ActScaleReport {
    /// The layer's name.
    pub layer: String,
    /// Largest input-activation magnitude observed during calibration.
    pub max_abs: f32,
    /// The frozen quantisation scale (`max_abs / 127`).
    pub scale: f32,
}

thread_local! {
    /// Layer-IO instrumentation: (f32→i8 quantisation passes, i32/i8→f32
    /// dequantisation passes), counted once per layer forward on the
    /// calling thread. See [`layer_io_events`].
    static LAYER_IO_EVENTS: Cell<(u32, u32)> = const { Cell::new((0, 0)) };
}

/// Resets the [`layer_io_events`] counters to zero.
pub fn reset_layer_io_events() {
    LAYER_IO_EVENTS.with(|c| c.set((0, 0)));
}

/// Layer-IO instrumentation for the quantised forward path:
/// `(quantise_passes, dequantise_passes)` since the last
/// [`reset_layer_io_events`], counted **per layer forward** on the
/// calling thread — a layer that quantises its `f32` input counts one
/// quantise pass (however many samples the batch holds), a layer that
/// dequantises its accumulators to `f32` output counts one dequantise
/// pass. A fully chained forward therefore reports exactly `(1, 1)`
/// regardless of network depth, while the per-layer round-trip path
/// reports one of each per quantised layer. Cost: two thread-local
/// increments per layer forward — cheap enough to stay compiled in.
pub fn layer_io_events() -> (u32, u32) {
    LAYER_IO_EVENTS.with(Cell::get)
}

/// Records one layer-forward f32→i8 input-quantisation pass.
pub(crate) fn count_quantise_pass() {
    LAYER_IO_EVENTS.with(|c| {
        let (q, d) = c.get();
        c.set((q + 1, d));
    });
}

/// Records one layer-forward i32/i8→f32 output-dequantisation pass.
pub(crate) fn count_dequantise_pass() {
    LAYER_IO_EVENTS.with(|c| {
        let (q, d) = c.get();
        c.set((q, d + 1));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::{build_group_cnn, CnnConfig};
    use crate::tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn slice_quantization_snaps_to_grid() {
        let mut w = vec![0.5f32, -1.0, 0.26, 0.0];
        quantize_slice(&mut w, 3); // levels = 3, scale = 1/3
        let scale = 1.0f32 / 3.0;
        for x in &w {
            let q = x / scale;
            assert!((q - q.round()).abs() < 1e-5, "{x} not on grid");
        }
        assert_eq!(w[3], 0.0, "zeros stay zero");
        assert_eq!(w[1], -1.0, "max magnitude preserved");
    }

    #[test]
    fn eight_bit_error_is_small() {
        let mut w: Vec<f32> = (0..1000).map(|i| (i as f32 * 0.37).sin()).collect();
        let orig = w.clone();
        quantize_slice(&mut w, 8);
        let max_err = w
            .iter()
            .zip(&orig)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        // Half a step of the 127-level grid.
        assert!(max_err <= 1.0 / 127.0 / 2.0 + 1e-6, "max err {max_err}");
    }

    #[test]
    fn all_zero_slice_unchanged() {
        let mut w = vec![0.0f32; 8];
        quantize_slice(&mut w, 8);
        assert!(w.iter().all(|&x| x == 0.0));
    }

    /// Regression: a single NaN or inf used to flow into `max_abs`,
    /// producing a NaN/inf scale that silently poisoned (zeroed or
    /// NaN-ed) every other weight in the tensor.
    #[test]
    fn non_finite_weights_cannot_poison_the_tensor() {
        let mut w = vec![
            0.5f32,
            f32::NAN,
            -1.0,
            f32::INFINITY,
            0.25,
            f32::NEG_INFINITY,
        ];
        quantize_slice(&mut w, 8);
        assert!(w.iter().all(|x| x.is_finite()), "no non-finite survives");
        // Finite values quantise against the finite max (1.0), as if the
        // bad values were absent.
        let scale = 1.0f32 / 127.0;
        assert!((w[0] - (0.5f32 / scale).round() * scale).abs() < 1e-6);
        assert_eq!(w[2], -1.0, "finite max magnitude preserved");
        // NaN snaps to zero, ±inf clamps to the grid ends.
        assert_eq!(w[1], 0.0);
        assert_eq!(w[3], 1.0);
        assert_eq!(w[5], -1.0);
        // All-non-finite tensor: scrubbed to zero, not left poisoned.
        let mut bad = vec![f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
        quantize_slice(&mut bad, 8);
        assert_eq!(bad, vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn act_max_abs_matches_finite_max_on_clean_input() {
        let x = [0.5f32, -3.0, 2.0, -0.25];
        assert_eq!(act_max_abs(&x), 3.0);
    }

    /// A NaN activation must fail loudly (debug builds) instead of
    /// being silently clamped onto the int8 grid where the f32 path
    /// would have propagated it.
    #[test]
    #[should_panic(expected = "non-finite activation")]
    #[cfg(debug_assertions)]
    fn act_max_abs_rejects_non_finite_in_debug() {
        act_max_abs(&[0.5f32, f32::NAN, 1.0]);
    }

    #[test]
    fn observe_scale_sweeps_dynamic_and_respects_frozen() {
        let mut obs = ActObserver::default();
        // Dynamic: the batch's own range sets the scale.
        let (scale, inv) = obs.observe_scale(&[0.5, -2.0, 1.0], false);
        assert_eq!(scale, 2.0 / 127.0);
        assert_eq!(inv, 127.0 / 2.0);
        // Frozen after calibration: the recorded range wins regardless
        // of the batch (and release builds skip the sweep entirely —
        // same result either way, which is what this pins).
        obs.freeze(true);
        let (scale, _) = obs.observe_scale(&[9.0, -9.0], false);
        assert_eq!(scale, 2.0 / 127.0);
    }

    /// Training is exempt from the non-finite guard: divergence can
    /// legitimately push activations to inf/NaN, and the f32 loss
    /// surfaces them either way — the sweep just ignores them.
    #[test]
    fn observe_scale_tolerates_non_finite_when_training() {
        let mut obs = ActObserver::default();
        let (scale, _) = obs.observe_scale(&[0.5, f32::NAN, f32::INFINITY, -1.0], true);
        assert_eq!(scale, 1.0 / 127.0);
    }

    /// Freezing before any calibration forward would silently quantise
    /// every activation to 0 (output collapses to the bias); debug
    /// builds must fail loudly instead.
    #[test]
    #[should_panic(expected = "frozen activation scale is zero")]
    #[cfg(debug_assertions)]
    fn observe_scale_rejects_unfed_frozen_observer_in_debug() {
        let mut obs = ActObserver::default();
        obs.freeze(true);
        let _ = obs.observe_scale(&[1.0, -0.5], false);
    }

    #[test]
    fn act_observer_dynamic_and_frozen_scales() {
        let mut obs = ActObserver::default();
        assert!(!obs.is_frozen());
        // Dynamic: the batch's own range wins, observation just records.
        obs.observe(2.0);
        obs.observe(f32::NAN); // ignored
        obs.observe(1.0);
        assert_eq!(obs.max_abs(), 2.0);
        assert_eq!(obs.scale_for(4.0), 4.0 / 127.0);
        // Frozen: the recorded range becomes the static scale.
        obs.freeze(true);
        assert_eq!(obs.scale_for(4.0), 2.0 / 127.0);
        obs.observe(10.0); // frozen observers stop recording
        assert_eq!(obs.max_abs(), 2.0);
        obs.freeze(false);
        obs.observe(10.0);
        assert_eq!(obs.max_abs(), 10.0);
    }

    #[test]
    fn quantize_i8_saturates_and_handles_non_finite() {
        assert_eq!(quantize_i8(0.5, 127.0), 64); // 63.5 rounds to even 64
        assert_eq!(quantize_i8(0.25, 2.0), 0); // 0.5 ties to even 0
        assert_eq!(quantize_i8(0.75, 2.0), 2); // 1.5 ties to even 2
        assert_eq!(quantize_i8(1.0, 127.0), 127);
        assert_eq!(quantize_i8(-1.0, 127.0), -127);
        assert_eq!(quantize_i8(40.0, 127.0), 127, "saturates, never wraps");
        assert_eq!(quantize_i8(-40.0, 127.0), -127);
        // Non-finite values land on the grid, never escape it.
        assert_eq!(quantize_i8(f32::NAN, 127.0), -127);
        assert_eq!(quantize_i8(f32::INFINITY, 127.0), 127);
        assert_eq!(quantize_i8(f32::NEG_INFINITY, 127.0), -127);
        assert_eq!(quantize_i8(0.3, 0.0), 0, "zero inv-scale quantises to 0");
    }

    #[test]
    fn quantization_is_idempotent() {
        let mut w = vec![0.9f32, -0.4, 0.1];
        quantize_slice(&mut w, 6);
        let once = w.clone();
        quantize_slice(&mut w, 6);
        assert_eq!(w, once);
    }

    #[test]
    fn invalid_bit_widths_rejected() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut net = build_group_cnn(CnnConfig::default(), &mut rng).unwrap();
        assert!(quantize_network(&mut net, 1).is_err());
        assert!(quantize_network(&mut net, 33).is_err());
        assert!(quantize_network(&mut net, 8).is_ok());
    }

    #[test]
    fn eight_bit_network_outputs_stay_close() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut net = build_group_cnn(
            CnnConfig {
                base_width: 8,
                ..CnnConfig::default()
            },
            &mut rng,
        )
        .unwrap();
        let x = Tensor::full(&[2, 3, 16, 16], 0.2);
        let before = net.forward(&x, false).unwrap();
        quantize_network(&mut net, 8).unwrap();
        let after = net.forward(&x, false).unwrap();
        let max_out = before.data().iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        let max_diff = before
            .data()
            .iter()
            .zip(after.data())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(
            max_diff < 0.1 * max_out.max(1.0),
            "8-bit quantization should barely perturb logits: {max_diff}"
        );
        // But 2-bit quantization visibly changes them.
        quantize_network(&mut net, 2).unwrap();
        let coarse = net.forward(&x, false).unwrap();
        let coarse_diff = before
            .data()
            .iter()
            .zip(coarse.data())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(coarse_diff > max_diff, "2-bit must hurt more than 8-bit");
    }

    #[test]
    fn quantization_respects_width_switching() {
        // Quantized weights still honour the no-retraining switch property.
        let mut rng = StdRng::seed_from_u64(2);
        let mut net = build_group_cnn(
            CnnConfig {
                base_width: 8,
                ..CnnConfig::default()
            },
            &mut rng,
        )
        .unwrap();
        quantize_network(&mut net, 8).unwrap();
        let x = Tensor::full(&[1, 3, 16, 16], 0.3);
        let full_before = net.forward(&x, false).unwrap();
        net.set_active_groups(1).unwrap();
        let _ = net.forward(&x, false).unwrap();
        net.set_active_groups(4).unwrap();
        let full_after = net.forward(&x, false).unwrap();
        assert_eq!(full_before.data(), full_after.data());
    }
}
