//! Fully connected (linear) layer with group-partitioned input features.
//!
//! The classifier of the paper's dynamic DNN sees features from every
//! *active* channel group (Fig 3). Its input features are therefore
//! partitioned into `G` blocks aligned with the channel groups; width
//! scaling truncates to the first `g` blocks and incremental training
//! freezes the weight columns of earlier blocks.
//!
//! Like [`crate::conv::Conv2d`], the layer runs on the blocked GEMM
//! kernel by default ([`Precision::F32`]; forward is one
//! `Y = X · Wᵀ + b` product over the batch) and on the quantised int8
//! kernel at [`Precision::Int8`] (cached int8 `Wᵀ` panels, the batch
//! quantised and packed per call, fused requantisation — the executed
//! data-precision knob). The original row-by-row dot products survive
//! only in test builds, as the oracle the GEMM path is checked against.
//!
//! Both weight operands the GEMM path reads — `Wᵀ` in forward and `W`
//! in the input-gradient product — are packed once per weight version
//! and cached, invalidated on updates, width switches and precision
//! changes; the bias add is fused into the forward GEMM's epilogue.
//! The int8 step quantises into its thread's forward scratch (see
//! [`crate::layer`]), and the gradients, momenta and the backward's
//! `W` panels live in a training state the first training call
//! creates.

use std::ops::Range;

use rand::Rng;

use crate::error::{NnError, Result};
use crate::gemm::{
    gemm, gemm_i8, gemm_i8_q, gemm_with, pack_a8_i16, pack_a8_quantized, packed_a8_len, Epilogue,
    Lhs, MatRef, PackedA8Ref, PackedB, PackedB8, QEpilogue, Rhs,
};
use crate::layer::{
    recycle, sgd_update_span, spare_f32, with_fwd_scratch, ChainSupport, Layer, LayerCost, OutBuf,
    TrainState,
};
use crate::quant::{finite_max_abs, inv_or_zero, ActObserver, Precision, QAct, QActRef, I8_LEVELS};
use crate::tensor::Tensor;

/// A dense layer `y = W·x + b` with width-scalable input features.
#[derive(Debug)]
pub struct Linear {
    name: String,
    in_features: usize,
    out_features: usize,
    prune_groups: usize,
    active: usize,
    trainable: Range<usize>,
    /// Weights, laid out `[out][in]` row-major.
    w: Vec<f32>,
    b: Vec<f32>,
    cache: Option<Tensor>,
    precision: Precision,
    /// `Wᵀ` (active-width prefix) packed for the forward GEMM.
    packed_fwd: Option<PackedB>,
    /// `Wᵀ` (active-width prefix) quantised and packed for the
    /// [`Precision::Int8`] forward: per-tensor weight scale + int8
    /// panels, invalidated exactly like [`Linear::packed_fwd`].
    packed_fwd8: Option<(f32, PackedB8)>,
    /// Input-activation range observer for the int8 path (see
    /// [`ActObserver`]).
    act_obs: ActObserver,
    /// Gradients, momenta and `W` (active-width prefix) packed for the
    /// input-gradient GEMM (invalidated exactly like
    /// [`Linear::packed_fwd`]); `None` until the first training call.
    train: Option<Box<TrainState<Option<PackedB>>>>,
}

impl Linear {
    /// Creates the layer with Kaiming-uniform initial weights.
    ///
    /// `prune_groups` must divide `in_features`; pass `1` for a layer that
    /// does not participate in width scaling.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] for zero sizes or indivisible
    /// group counts.
    pub fn new(
        name: impl Into<String>,
        in_features: usize,
        out_features: usize,
        prune_groups: usize,
        rng: &mut impl Rng,
    ) -> Result<Self> {
        if in_features == 0 || out_features == 0 {
            return Err(NnError::InvalidConfig {
                reason: "linear feature counts must be positive".into(),
            });
        }
        if prune_groups == 0 || !in_features.is_multiple_of(prune_groups) {
            return Err(NnError::InvalidConfig {
                reason: format!(
                    "in_features {in_features} not divisible by prune_groups {prune_groups}"
                ),
            });
        }
        let limit = (6.0 / in_features as f32).sqrt();
        let w = (0..in_features * out_features)
            .map(|_| rng.gen_range(-limit..limit))
            .collect();
        Ok(Self {
            name: name.into(),
            in_features,
            out_features,
            prune_groups,
            active: prune_groups,
            trainable: 0..prune_groups,
            w,
            b: vec![0.0; out_features],
            cache: None,
            precision: Precision::default(),
            packed_fwd: None,
            packed_fwd8: None,
            act_obs: ActObserver::default(),
            train: None,
        })
    }

    /// Drops the cached packed weight operands (f32 and int8). Must be
    /// called whenever the weights, the active width or the precision
    /// change; the next GEMM pass re-packs lazily.
    fn invalidate_packed(&mut self) {
        self.packed_fwd = None;
        self.packed_fwd8 = None;
        if let Some(t) = &mut self.train {
            t.bwd = None;
        }
    }

    /// The currently selected data precision (see
    /// [`Layer::set_precision`]).
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Number of input features at the current width.
    pub fn active_in_features(&self) -> usize {
        (self.in_features / self.prune_groups) * self.active
    }

    /// The nominal (full-width) input feature count.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// The output feature count (not width-scaled).
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// Raw weight slice, `[out][in]` row-major (testing/inspection).
    pub fn weights(&self) -> &[f32] {
        &self.w
    }

    fn per_group(&self) -> usize {
        self.in_features / self.prune_groups
    }

    /// Checks a forward input (`what` names the caller in the error)
    /// against the current width and returns its batch size.
    fn batch_of(&self, shape: &[usize], what: &str) -> Result<usize> {
        let f_active = self.active_in_features();
        if shape.len() != 2 || shape[1] != f_active {
            return Err(NnError::ShapeMismatch {
                context: format!("linear `{}` {what}", self.name),
                expected: vec![0, f_active],
                actual: shape.to_vec(),
            });
        }
        Ok(shape[0])
    }

    /// Checks `grad_out` against the cached training input and returns
    /// the batch size.
    fn backward_batch(&self, grad_out: &Tensor) -> Result<usize> {
        let input = self.cache.as_ref().ok_or_else(|| NnError::InvalidConfig {
            reason: format!("linear `{}`: backward before training forward", self.name),
        })?;
        let n = input.shape()[0];
        grad_out.expect_shape(&[n, self.out_features], "linear backward")?;
        Ok(n)
    }

    /// Quantises + packs the active `Wᵀ` prefix once per weight
    /// version; the per-tensor scale spans every active weight.
    fn ensure_packed_fwd8(&mut self, f_active: usize) {
        if self.packed_fwd8.is_none() {
            let (w, in_features, out_features) = (&self.w, self.in_features, self.out_features);
            let mut w_max = 0.0f32;
            for of in 0..out_features {
                w_max = w_max.max(finite_max_abs(&w[of * in_features..][..f_active]));
            }
            let w_scale = w_max / I8_LEVELS;
            let inv_w = inv_or_zero(w_scale);
            self.packed_fwd8 = Some((
                w_scale,
                PackedB8::pack_quantized(MatRef::t(w, in_features), f_active, out_features, inv_w),
            ));
        }
    }

    /// The int8 forward step, the one quantised path of this layer:
    /// `Y = X · Wᵀ` on the int8 kernel, with `Wᵀ` quantised per tensor
    /// (over the active column prefix) and packed once per weight
    /// version. A per-layer [`Layer::forward`] at [`Precision::Int8`]
    /// runs it as a one-layer chain (`f32` in, `f32` out). An `f32`
    /// batch is quantised into packed int8 layout at the
    /// [`ActObserver`]'s scale (`train` goes to the observer); an int8
    /// batch is already on this layer's frozen grid and packs by pure
    /// integer copies ([`pack_a8_i16`]). The output either dequantises
    /// to `f32` (`out_scale` `None` — logits, the classifier's usual
    /// role) or requantises onto the grid `s` of `Some(s)` through the
    /// same [`QEpilogue`]; `fuse_relu` adds a free `max(0)`. The output
    /// buffer comes from `out_buf`: fresh for [`Layer::forward`], the
    /// thread's spares for the inference walk.
    fn quant_step(
        &mut self,
        input: QActRef<'_>,
        out_scale: Option<f32>,
        fuse_relu: bool,
        train: bool,
        out_buf: OutBuf,
    ) -> Result<QAct> {
        let n = self.batch_of(input.shape(), "forward")?;
        let f_active = self.active_in_features();
        let out_features = self.out_features;
        self.ensure_packed_fwd8(f_active);
        let qx_len = packed_a8_len(n, f_active);
        Ok(with_fwd_scratch(|qbias, qx_buf| {
            qx_buf.resize(qx_len.max(qx_buf.len()), 0);
            let x_scale = match input {
                QActRef::F32(t) => {
                    let (scale, inv) = self.act_obs.observe_scale(t.data(), train);
                    crate::quant::count_quantise_pass();
                    pack_a8_quantized(MatRef::new(t.data(), f_active), n, f_active, inv, qx_buf);
                    scale
                }
                QActRef::I8(q) => {
                    pack_a8_i16(q.data(), n, f_active, qx_buf);
                    q.scale()
                }
            };
            let (w_scale, packed) = self.packed_fwd8.as_ref().expect("packed above");
            let q_scale = x_scale * w_scale;
            let qx = PackedA8Ref::new(&qx_buf[..qx_len], n, f_active);
            let (scale, bias, mut out) = match out_scale {
                None => {
                    crate::quant::count_dequantise_pass();
                    let out = out_buf.f32(n, &[out_features]);
                    (q_scale, &self.b[..], QAct::F32(out))
                }
                Some(s_out) => {
                    let inv_out = inv_or_zero(s_out);
                    qbias.clear();
                    qbias.extend(self.b.iter().map(|&b| b * inv_out));
                    let out = out_buf.i16(n, &[out_features], s_out);
                    (q_scale * inv_out, &qbias[..], QAct::I8(out))
                }
            };
            let mut ep = QEpilogue::scaled(scale).with_bias_col(bias);
            if fuse_relu {
                ep = ep.with_relu();
            }
            let (k, w, of) = (f_active, packed.as_ref(), out_features);
            match &mut out {
                QAct::F32(t) => gemm_i8(n, of, k, qx, w, t.data_mut(), of, true, ep),
                QAct::I8(q) => gemm_i8_q(n, of, k, qx, w, q.data_mut(), of, true, ep),
            }
            out
        }))
    }

    /// The `f32` forward `Y = X · Wᵀ + b` (then ReLU when `relu`) of
    /// the batch `input` into `out`, every element written: one
    /// product over the whole batch with the cached packed `Wᵀ` and the
    /// bias (and ReLU) fused into the epilogue; the kernel splits rows
    /// (samples) across workers itself.
    fn forward_f32(&mut self, input: &Tensor, out: &mut Tensor, relu: bool) {
        let n = input.shape()[0];
        let f_active = self.active_in_features();
        let (w, in_features, out_features) = (&self.w, self.in_features, self.out_features);
        let packed = self.packed_fwd.get_or_insert_with(|| {
            PackedB::pack(MatRef::t(w, in_features), f_active, out_features)
        });
        let ep = Epilogue::bias_col(&self.b);
        gemm_with(
            n,
            out_features,
            f_active,
            Lhs::Mat(MatRef::new(input.data(), f_active)),
            Rhs::Packed(packed.as_ref()),
            0.0,
            out.data_mut(),
            out_features,
            true,
            if relu { ep.with_relu() } else { ep },
        );
    }
}

impl Layer for Linear {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor> {
        let out = match self.precision {
            Precision::F32 => {
                let n = self.batch_of(input.shape(), "forward")?;
                let mut out = Tensor::zeros(&[n, self.out_features]);
                self.forward_f32(input, &mut out, false);
                out
            }
            Precision::Int8 => self
                .quant_step(QActRef::F32(input), None, false, train, OutBuf::Fresh)?
                .into_tensor(),
        };
        if train {
            self.cache = Some(input.clone());
        }
        Ok(out)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let n = self.backward_batch(grad_out)?;
        let f_active = self.active_in_features();
        let mut grad_in = Tensor::zeros(&[n, f_active]);
        // Training at Int8 runs this f32 backward against the master
        // weights (the forward cache holds the f32 input).
        let x = self.cache.as_ref().expect("checked above").data();
        let go = grad_out.data();
        let (w, in_features, out_features) = (&self.w, self.in_features, self.out_features);
        let TrainState { gw, gb, bwd, .. } = TrainState::of(&mut self.train, w.len(), self.b.len());
        for row in go.chunks(out_features) {
            for (gb, &g) in gb.iter_mut().zip(row) {
                *gb += g;
            }
        }
        // gW += dYᵀ · X (into the f_active-column prefix).
        gemm(
            out_features,
            f_active,
            n,
            MatRef::t(go, out_features),
            MatRef::new(x, f_active),
            1.0,
            gw,
            in_features,
            true,
        );
        // dX = dY · W (active-column prefix of W, cached packed).
        let packed = bwd.get_or_insert_with(|| {
            PackedB::pack(MatRef::new(w, in_features), out_features, f_active)
        });
        gemm_with(
            n,
            f_active,
            out_features,
            Lhs::Mat(MatRef::new(go, out_features)),
            Rhs::Packed(packed.as_ref()),
            0.0,
            grad_in.data_mut(),
            f_active,
            true,
            Epilogue::none(),
        );
        Ok(grad_in)
    }

    fn sgd_step(&mut self, lr: f32, momentum: f32) {
        // A weight column trains iff its feature group is both active
        // and trainable; with `trainable` contiguous that is one column
        // span repeated per output row, so each row updates slice-wise
        // (no per-weight predicate).
        let per_group = self.per_group();
        let in_features = self.in_features;
        let g_lo = self.trainable.start.min(self.active);
        let g_hi = self.trainable.end.min(self.active);
        let (col_lo, col_hi) = (g_lo * per_group, g_hi.max(g_lo) * per_group);
        // Without a training state the gradients and momenta are all
        // zero, and a zero step leaves every parameter as it is.
        let Some(t) = self.train.as_deref_mut() else {
            return;
        };
        for of in 0..self.out_features {
            let row = of * in_features..(of + 1) * in_features;
            sgd_update_span(
                &mut self.w[row.clone()],
                &t.gw[row.clone()],
                &mut t.vw[row],
                lr,
                momentum,
                col_lo..col_hi,
            );
        }
        // The shared bias belongs to group 0: training it during later
        // incremental steps would silently change the outputs of earlier
        // (frozen) width configurations, breaking the paper's
        // switch-without-retraining property.
        let bias_span = if self.trainable.contains(&0) {
            0..self.out_features
        } else {
            0..0
        };
        sgd_update_span(&mut self.b, &t.gb, &mut t.vb, lr, momentum, bias_span);
        // The packed operands now describe stale weights.
        self.invalidate_packed();
    }

    fn zero_grads(&mut self) {
        TrainState::zero_grads(&mut self.train);
    }

    fn set_active_groups(&mut self, active: usize) -> Result<()> {
        if active == 0 || active > self.prune_groups {
            return Err(NnError::InvalidGroup {
                reason: format!(
                    "linear `{}`: active groups {} not in 1..={}",
                    self.name, active, self.prune_groups
                ),
            });
        }
        self.active = active;
        self.cache = None;
        // The packed operands cover the wrong feature prefix.
        self.invalidate_packed();
        Ok(())
    }

    fn set_trainable_groups(&mut self, groups: Range<usize>) {
        self.trainable = groups;
    }

    fn set_precision(&mut self, precision: Precision) {
        // Re-selecting the current precision keeps the packed caches:
        // an RTM policy may issue its precision choice every control
        // epoch, and a no-op switch must not force a re-pack.
        if precision == self.precision {
            return;
        }
        self.precision = precision;
        // Also frees the panel memory of the precision being left.
        self.invalidate_packed();
    }

    fn freeze_act_scale(&mut self, frozen: bool) {
        self.act_obs.freeze(frozen);
    }

    fn quant_observer(&self) -> Option<ActObserver> {
        Some(self.act_obs)
    }

    fn chain_support(&self) -> ChainSupport {
        self.act_obs.chain_support(self.precision)
    }

    /// The `f32` GEMM forward into a spare buffer at
    /// [`Precision::F32`], the int8 step on the planned input form
    /// (emitting `f32` or int8 on the `out_scale` grid) otherwise; the
    /// ReLU after the layer rides the epilogue when `fuse_relu`.
    fn infer(&mut self, input: QAct, out_scale: Option<f32>, fuse_relu: bool) -> Result<QAct> {
        let out = match (&input, self.precision) {
            (QAct::F32(x), Precision::F32) => {
                let n = self.batch_of(x.shape(), "forward")?;
                let mut out = spare_f32(n, &[self.out_features]);
                self.forward_f32(x, &mut out, fuse_relu);
                QAct::F32(out)
            }
            _ => self.quant_step(input.view(), out_scale, fuse_relu, false, OutBuf::Spare)?,
        };
        recycle(input);
        Ok(out)
    }

    fn cost(&self, in_shape: &[usize]) -> Result<LayerCost> {
        let f_active = self.active_in_features();
        if in_shape != [f_active] {
            return Err(NnError::ShapeMismatch {
                context: format!("linear `{}` cost", self.name),
                expected: vec![f_active],
                actual: in_shape.to_vec(),
            });
        }
        Ok(LayerCost {
            macs: (f_active * self.out_features) as f64,
            params: f_active * self.out_features + self.out_features,
            out_shape: vec![self.out_features],
        })
    }

    fn param_count_total(&self) -> usize {
        self.w.len() + self.b.len()
    }

    fn quantize_weights(&mut self, bits: u32) {
        crate::quant::quantize_slice(&mut self.w, bits);
        crate::quant::quantize_slice(&mut self.b, bits);
        self.invalidate_packed();
    }
}

#[cfg(test)]
impl Linear {
    /// The accumulated gradients `(gw, gb)` of a layer that has trained.
    fn grads(&self) -> (&[f32], &[f32]) {
        let t = self.train.as_deref().expect("a training call ran");
        (&t.gw, &t.gb)
    }
}

/// The original row-by-row dot products, compiled only into tests: the
/// oracle the GEMM path is checked against.
#[cfg(test)]
impl crate::oracle::Oracle for Linear {
    fn forward_reference(&mut self, input: &Tensor, train: bool) -> Result<Tensor> {
        let n = self.batch_of(input.shape(), "reference forward")?;
        let f_active = self.active_in_features();
        let mut out = Tensor::zeros(&[n, self.out_features]);
        let x = input.data();
        let o = out.data_mut();
        for ni in 0..n {
            let xrow = &x[ni * f_active..(ni + 1) * f_active];
            for of in 0..self.out_features {
                let wrow = &self.w[of * self.in_features..of * self.in_features + f_active];
                let mut acc = self.b[of];
                for (wi, xi) in wrow.iter().zip(xrow) {
                    acc += wi * xi;
                }
                o[ni * self.out_features + of] = acc;
            }
        }
        if train {
            self.cache = Some(input.clone());
        }
        Ok(out)
    }

    fn backward_reference(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let n = self.backward_batch(grad_out)?;
        let f_active = self.active_in_features();
        let mut grad_in = Tensor::zeros(&[n, f_active]);
        let x = self.cache.as_ref().expect("checked above").data();
        let go = grad_out.data();
        let gi = grad_in.data_mut();
        let t = TrainState::of(&mut self.train, self.w.len(), self.b.len());
        for ni in 0..n {
            let xrow = &x[ni * f_active..(ni + 1) * f_active];
            for of in 0..self.out_features {
                let g = go[ni * self.out_features + of];
                if g == 0.0 {
                    continue;
                }
                t.gb[of] += g;
                let wbase = of * self.in_features;
                for fi in 0..f_active {
                    t.gw[wbase + fi] += g * xrow[fi];
                    gi[ni * f_active + fi] += g * self.w[wbase + fi];
                }
            }
        }
        Ok(grad_in)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn construction_validation() {
        assert!(Linear::new("l", 0, 4, 1, &mut rng()).is_err());
        assert!(Linear::new("l", 8, 0, 1, &mut rng()).is_err());
        assert!(Linear::new("l", 8, 4, 3, &mut rng()).is_err());
        assert!(Linear::new("l", 8, 4, 0, &mut rng()).is_err());
        assert!(Linear::new("l", 8, 4, 4, &mut rng()).is_ok());
    }

    #[test]
    fn known_value_forward() {
        let mut l = Linear::new("l", 2, 2, 1, &mut rng()).unwrap();
        l.w.copy_from_slice(&[1.0, 2.0, 3.0, 4.0]); // row 0: [1,2], row 1: [3,4]
        l.b.copy_from_slice(&[0.5, -0.5]);
        let x = Tensor::from_vec(&[1, 2], vec![1.0, 1.0]).unwrap();
        let y = l.forward(&x, false).unwrap();
        assert_eq!(y.data(), &[3.5, 6.5]);
    }

    #[test]
    fn width_scaling_uses_weight_prefix() {
        let mut l = Linear::new("l", 4, 1, 4, &mut rng()).unwrap();
        l.w.copy_from_slice(&[1.0, 10.0, 100.0, 1000.0]);
        l.b[0] = 0.0;
        l.set_active_groups(2).unwrap();
        let x = Tensor::from_vec(&[1, 2], vec![1.0, 1.0]).unwrap();
        let y = l.forward(&x, false).unwrap();
        assert_eq!(y.data(), &[11.0], "only the first two columns participate");
    }

    #[test]
    fn forward_shape_validation_tracks_width() {
        let mut l = Linear::new("l", 4, 2, 4, &mut rng()).unwrap();
        l.set_active_groups(1).unwrap();
        assert!(l.forward(&Tensor::zeros(&[1, 4]), false).is_err());
        assert!(l.forward(&Tensor::zeros(&[1, 1]), false).is_ok());
    }

    #[test]
    fn gradient_check() {
        let mut l = Linear::new("l", 6, 3, 3, &mut rng()).unwrap();
        let mut r = rng();
        let x = Tensor::from_vec(
            &[2, 6],
            (0..12).map(|_| r.gen_range(-1.0f32..1.0)).collect(),
        )
        .unwrap();
        let y = l.forward(&x, true).unwrap();
        let go = Tensor::full(y.shape(), 1.0);
        let gx = l.backward(&go).unwrap();

        let eps = 1e-3_f32;
        // Direct weight pokes bypass the layer API, so drop the packed
        // operands by hand.
        for &wi in &[0usize, 7, 17] {
            let orig = l.w[wi];
            l.w[wi] = orig + eps;
            l.invalidate_packed();
            let lp = l.forward(&x, false).unwrap().sum();
            l.w[wi] = orig - eps;
            l.invalidate_packed();
            let lm = l.forward(&x, false).unwrap().sum();
            l.w[wi] = orig;
            l.invalidate_packed();
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - l.grads().0[wi]).abs() < 2e-2,
                "weight {wi}: numeric {numeric} vs {}",
                l.grads().0[wi]
            );
        }
        for &xi in &[0usize, 11] {
            let mut x2 = x.clone();
            x2.data_mut()[xi] += eps;
            let lp = l.forward(&x2, false).unwrap().sum();
            x2.data_mut()[xi] -= 2.0 * eps;
            let lm = l.forward(&x2, false).unwrap().sum();
            let numeric = (lp - lm) / (2.0 * eps);
            assert!((numeric - gx.data()[xi]).abs() < 2e-2);
        }
        // dL/db = batch size per output.
        assert!((l.grads().1[0] - 2.0).abs() < 1e-4);
    }

    #[test]
    fn sgd_freezes_earlier_group_columns() {
        let mut l = Linear::new("l", 4, 2, 4, &mut rng()).unwrap();
        let w0 = l.w.clone();
        l.set_active_groups(2).unwrap();
        l.set_trainable_groups(1..2);
        let x = Tensor::full(&[1, 2], 1.0);
        let y = l.forward(&x, true).unwrap();
        let _ = l.backward(&Tensor::full(y.shape(), 1.0)).unwrap();
        l.sgd_step(0.1, 0.0);
        // Column 0 (group 0) frozen, column 1 (group 1) updated, columns
        // 2-3 inactive.
        for of in 0..2 {
            assert_eq!(l.w[of * 4], w0[of * 4], "group-0 column frozen");
            assert_ne!(l.w[of * 4 + 1], w0[of * 4 + 1], "group-1 column updated");
            assert_eq!(l.w[of * 4 + 2], w0[of * 4 + 2], "inactive column");
            assert_eq!(l.w[of * 4 + 3], w0[of * 4 + 3], "inactive column");
        }
        // Bias belongs to group 0, which is frozen here.
        assert_eq!(l.b[0], 0.0);
    }

    /// A layer that has only served holds no training state, and
    /// `zero_grads` and `sgd_step` on it allocate nothing and leave its
    /// parameters bit-identical (its gradients and momenta would be
    /// all zero).
    #[test]
    fn untrained_layer_steps_allocate_nothing() {
        let mut l = Linear::new("l", 8, 3, 4, &mut rng()).unwrap();
        let _ = l.forward(&Tensor::random(&[2, 8], &mut rng()), false);
        let (w, b) = (l.w.clone(), l.b.clone());
        let ((), allocs) = eml_testalloc::count(|| {
            l.zero_grads();
            l.sgd_step(0.1, 0.9);
        });
        assert_eq!(allocs.count, 0, "{} bytes allocated", allocs.bytes);
        assert!(l.train.is_none(), "no training state without training");
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!((bits(&l.w), bits(&l.b)), (bits(&w), bits(&b)));
    }

    /// The training state appears on first use and starts from zero, so
    /// a layer that served first (in both precisions, at another width,
    /// with untrained steps) trains to bit-identical parameters as one
    /// that trains from fresh.
    #[test]
    fn serving_first_then_training_matches_training_from_fresh() {
        let x = Tensor::random(&[3, 4], &mut rng());
        let train = |l: &mut Linear| {
            l.set_active_groups(2).unwrap();
            for _ in 0..3 {
                l.zero_grads();
                let y = l.forward(&x, true).unwrap();
                // L = ½Σy², so dL/dy = y.
                l.backward(&y).unwrap();
                l.sgd_step(0.01, 0.9);
            }
        };
        let mut fresh = Linear::new("l", 8, 3, 4, &mut rng()).unwrap();
        train(&mut fresh);
        let mut served = Linear::new("l", 8, 3, 4, &mut rng()).unwrap();
        let x_full = Tensor::random(&[5, 8], &mut rng());
        for precision in [Precision::Int8, Precision::F32] {
            served.set_precision(precision);
            let _ = served.forward(&x_full, false).unwrap();
        }
        served.zero_grads();
        served.sgd_step(0.01, 0.9);
        train(&mut served);
        let bits = |l: &Linear| {
            let v = l.w.iter().chain(&l.b);
            v.map(|x| x.to_bits()).collect::<Vec<_>>()
        };
        assert_eq!(bits(&served), bits(&fresh));
    }

    #[test]
    fn bias_trains_with_group_zero() {
        let mut l = Linear::new("l", 4, 2, 4, &mut rng()).unwrap();
        l.set_trainable_groups(0..1);
        let x = Tensor::full(&[1, 4], 1.0);
        let y = l.forward(&x, true).unwrap();
        let _ = l.backward(&Tensor::full(y.shape(), 1.0)).unwrap();
        l.sgd_step(0.1, 0.0);
        assert_ne!(l.b[0], 0.0, "bias updates while group 0 is trainable");
    }

    #[test]
    fn cost_scales_with_width() {
        let mut l = Linear::new("l", 8, 10, 4, &mut rng()).unwrap();
        let full = l.cost(&[8]).unwrap();
        assert_eq!(full.macs, 80.0);
        assert_eq!(full.params, 90);
        l.set_active_groups(1).unwrap();
        let quarter = l.cost(&[2]).unwrap();
        assert_eq!(quarter.macs, 20.0);
        assert_eq!(quarter.out_shape, vec![10]);
        assert_eq!(l.param_count_total(), 90);
    }

    #[test]
    fn backward_without_forward_errors() {
        let mut l = Linear::new("l", 4, 2, 1, &mut rng()).unwrap();
        assert!(l.backward(&Tensor::zeros(&[1, 2])).is_err());
    }
}
