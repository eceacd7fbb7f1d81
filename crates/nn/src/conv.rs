//! 2-D convolution with structural groups and runtime width scaling.
//!
//! This layer implements both halves of the paper's Fig 3:
//!
//! - **Group convolution** (Fig 3a): with `conv_groups = G`, input and
//!   output channels are partitioned into `G` independent paths.
//! - **Runtime group pruning** (Fig 3c): [`Conv2d::set_active_groups`]
//!   restricts execution to the first `g` groups — later groups are simply
//!   not computed, giving a real latency/energy reduction (unlike
//!   unstructured weight pruning, which most hardware cannot exploit —
//!   paper §III-B).
//!
//! Incremental training (Fig 3b) is supported through
//! [`Conv2d::set_trainable_groups`]: frozen groups keep their parameters
//! bit-identical while later groups learn.
//!
//! Both data precisions share this layer's semantics (see
//! [`crate::gemm`]): at the default [`Precision::F32`] each
//! (sample, group) pair lowers to `Out = W · im2col(x)` on the blocked
//! GEMM kernel, lowering into its thread's forward scratch (one per
//! thread, not per layer: see [`crate::layer`]) and parallelising over
//! the batch; [`Precision::Int8`] runs the same structure on the
//! quantised int8 kernel ([`crate::gemm::int8`]) — cached int8 weight
//! panels, a one-pass quantise-and-lower of the input, exact `i32`
//! accumulation and a fused requantisation epilogue, in one step that
//! serves the per-layer forward and every place in an int8 chain (the
//! executed form of the paper's data-precision knob). The original
//! nested loop survives only in test builds, as the oracle the GEMM
//! path is checked against.
//!
//! The GEMM path keeps per-call overhead off the hot loop three ways:
//! weight panels are packed once per weight version and cached
//! ([`Conv2d`]`::packed_w`, invalidated on any parameter update, width
//! switch or precision change), the input lowering writes the kernel's
//! packed layout straight from a zero-padded plane through a plan
//! prepared once per geometry and shared by every group and sample
//! (tables, zeroed margins and run classes; a call copies the group's
//! interior rows in, then block-copies each stride-1 line's runs — see
//! [`crate::im2col`]), and the bias add is fused into the GEMM
//! epilogue. The backward pass shards
//! weight-gradient accumulation per worker band (transposed shards, so
//! the products need no strided packing) and reduces the shards after
//! the parallel scope. Its buffers, with the gradients and momenta,
//! live in a training state the first training call creates, so a
//! layer that only serves holds its weights, its packed panels and its
//! observer.

use std::ops::Range;

use rand::Rng;

use crate::error::{NnError, Result};
use crate::gemm::int8::{gemm_i8_with, QOut};
use crate::gemm::{
    gemm_with, packed_b8_len, packed_b_len, Epilogue, Lhs, MatRef, PackedA, PackedA8, PackedARef,
    PackedB8Ref, PackedBRef, QEpilogue, Rhs,
};
use crate::im2col::{col2im_add, im2col_packed, im2col_packed_i8, im2col_packed_lhs, ConvGeom};
use crate::layer::{
    recycle, sgd_update_span, spare_f32, with_fwd_scratch, ChainSupport, Layer, LayerCost, OutBuf,
    TrainState,
};
use crate::quant::{
    finite_max_abs, inv_or_zero, quantize_slice_i16, ActObserver, Precision, QAct, QActRef,
    I8_LEVELS,
};
use crate::tensor::Tensor;
use crate::workers;

/// Configuration of a [`Conv2d`] layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dConfig {
    /// Nominal (full-width) input channel count.
    pub in_channels: usize,
    /// Nominal (full-width) output channel count.
    pub out_channels: usize,
    /// Square kernel size.
    pub kernel: usize,
    /// Stride (same both axes).
    pub stride: usize,
    /// Zero padding (same all sides).
    pub padding: usize,
    /// Structural connectivity groups: `1` for a dense convolution, equal
    /// to `prune_groups` for the paper's group convolution.
    pub conv_groups: usize,
    /// Width-scaling partition `G` of the output channels.
    pub prune_groups: usize,
}

impl Conv2dConfig {
    fn validate(&self) -> Result<()> {
        let c = |ok: bool, reason: String| {
            if ok {
                Ok(())
            } else {
                Err(NnError::InvalidConfig { reason })
            }
        };
        c(
            self.in_channels > 0 && self.out_channels > 0,
            "channel counts must be positive".into(),
        )?;
        c(
            self.kernel > 0 && self.stride > 0,
            "kernel and stride must be positive".into(),
        )?;
        c(
            self.prune_groups > 0,
            "prune_groups must be positive".into(),
        )?;
        c(
            self.out_channels.is_multiple_of(self.prune_groups),
            format!(
                "out_channels {} not divisible by prune_groups {}",
                self.out_channels, self.prune_groups
            ),
        )?;
        c(
            self.conv_groups == 1 || self.conv_groups == self.prune_groups,
            format!(
                "conv_groups must be 1 (dense) or equal to prune_groups {} , got {}",
                self.prune_groups, self.conv_groups
            ),
        )?;
        c(
            self.in_channels.is_multiple_of(self.conv_groups),
            format!(
                "in_channels {} not divisible by conv_groups {}",
                self.in_channels, self.conv_groups
            ),
        )?;
        if self.conv_groups > 1 {
            c(
                self.in_channels.is_multiple_of(self.prune_groups),
                format!(
                    "grouped conv requires in_channels {} divisible by prune_groups {}",
                    self.in_channels, self.prune_groups
                ),
            )?;
        }
        Ok(())
    }
}

/// A 2-D convolution layer (see module docs).
#[derive(Debug)]
pub struct Conv2d {
    name: String,
    cfg: Conv2dConfig,
    /// Weights, laid out `[out_ch][in_per_group][k][k]` row-major.
    w: Vec<f32>,
    /// Per-output-channel bias.
    b: Vec<f32>,
    active: usize,
    trainable: Range<usize>,
    cache: Option<Tensor>,
    precision: Precision,
    /// Weight panels pre-packed for the forward GEMM, one per executed
    /// group at the current width; `None` until the first forward and
    /// after every invalidation (see [`Conv2d::invalidate_packed`]).
    /// With `packed_w8`, the only forward state a layer owns: the
    /// columns they multiply are lowered into the thread's scratch.
    packed_w: Option<Vec<PackedA>>,
    /// Quantised int8 weight panels for [`Precision::Int8`] forward
    /// (per-tensor weight scale + one packed panel per executed
    /// group), cached and invalidated exactly like
    /// [`Conv2d::packed_w`].
    packed_w8: Option<(f32, Vec<PackedA8>)>,
    /// Input-activation range observer for the int8 path (see
    /// [`ActObserver`]).
    act_obs: ActObserver,
    /// Gradients, momenta and backward buffers; `None` until the
    /// first training call.
    train: Option<Box<TrainState<ConvBwd>>>,
}

/// What only [`Conv2d`]'s backward reads. The band buffers only grow,
/// one slot per worker band ([`workers::band_count`]), so peak scratch
/// is bounded by the machine's parallelism, not the batch size.
#[derive(Debug, Default)]
struct ConvBwd {
    /// Column matrices (im2col then gradient columns), one slot per
    /// worker band.
    dcol: Vec<f32>,
    /// Transposed weight-gradient shards, one per worker band; reduced
    /// into the gradient buffer after the parallel scope.
    gw_shards: Vec<f32>,
    /// `Wᵀ` panels for the input-gradient GEMM, cached and invalidated
    /// exactly like [`Conv2d::packed_w`].
    packed_wt: Option<Vec<PackedA>>,
}

impl Conv2d {
    /// Creates the layer with Kaiming-uniform initial weights drawn from
    /// `rng`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] for inconsistent configurations
    /// (zero sizes, indivisible group counts, unsupported `conv_groups`).
    pub fn new(name: impl Into<String>, cfg: Conv2dConfig, rng: &mut impl Rng) -> Result<Self> {
        cfg.validate()?;
        let in_per_group = cfg.in_channels / cfg.conv_groups;
        let fan_in = (in_per_group * cfg.kernel * cfg.kernel) as f32;
        let limit = (6.0 / fan_in).sqrt();
        let w_len = cfg.out_channels * in_per_group * cfg.kernel * cfg.kernel;
        let w = (0..w_len).map(|_| rng.gen_range(-limit..limit)).collect();
        Ok(Self {
            name: name.into(),
            cfg,
            w,
            b: vec![0.0; cfg.out_channels],
            active: cfg.prune_groups,
            trainable: 0..cfg.prune_groups,
            cache: None,
            precision: Precision::default(),
            packed_w: None,
            packed_w8: None,
            act_obs: ActObserver::default(),
            train: None,
        })
    }

    /// Drops the cached packed weight panels (f32, int8 and the
    /// backward's `Wᵀ`). Must be
    /// called whenever the weights, the active width or the precision
    /// change; the next GEMM forward re-packs lazily.
    fn invalidate_packed(&mut self) {
        self.packed_w = None;
        self.packed_w8 = None;
        if let Some(t) = &mut self.train {
            t.bwd.packed_wt = None;
        }
    }

    /// The currently selected data precision (see
    /// [`Layer::set_precision`]).
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// The layer's configuration.
    pub fn config(&self) -> Conv2dConfig {
        self.cfg
    }

    /// Currently active group count.
    pub fn active_groups(&self) -> usize {
        self.active
    }

    /// Raw weight slice (testing/inspection).
    pub fn weights(&self) -> &[f32] {
        &self.w
    }

    fn out_per_group(&self) -> usize {
        self.cfg.out_channels / self.cfg.prune_groups
    }

    fn in_per_group(&self) -> usize {
        self.cfg.in_channels / self.cfg.conv_groups
    }

    /// Output channels at the current width.
    pub fn active_out_channels(&self) -> usize {
        self.out_per_group() * self.active
    }

    /// Input channels the layer expects at the current width.
    pub fn expected_in_channels(&self) -> usize {
        if self.cfg.conv_groups == 1 {
            self.cfg.in_channels
        } else {
            (self.cfg.in_channels / self.cfg.prune_groups) * self.active
        }
    }

    fn out_hw(&self, h: usize, w: usize) -> Result<(usize, usize)> {
        let k = self.cfg.kernel;
        let p = self.cfg.padding;
        let s = self.cfg.stride;
        if h + 2 * p < k || w + 2 * p < k {
            return Err(NnError::ShapeMismatch {
                context: format!("conv `{}`: input smaller than kernel", self.name),
                expected: vec![k, k],
                actual: vec![h + 2 * p, w + 2 * p],
            });
        }
        Ok(((h + 2 * p - k) / s + 1, (w + 2 * p - k) / s + 1))
    }

    /// Checks a forward input (`what` names the caller in the error)
    /// against the current width and returns the output shape
    /// `[n, c_out, oh, ow]`.
    fn out_shape(&self, shape: &[usize], what: &str) -> Result<[usize; 4]> {
        let expected_c = self.expected_in_channels();
        if shape.len() != 4 || shape[1] != expected_c {
            return Err(NnError::ShapeMismatch {
                context: format!("conv `{}` {what}", self.name),
                expected: vec![0, expected_c, 0, 0],
                actual: shape.to_vec(),
            });
        }
        let (oh, ow) = self.out_hw(shape[2], shape[3])?;
        Ok([shape[0], self.active_out_channels(), oh, ow])
    }

    /// Checks `grad_out` against the cached training input and returns
    /// that input's shape.
    fn backward_in_shape(&self, grad_out: &Tensor) -> Result<Vec<usize>> {
        let input = self.cache.as_ref().ok_or_else(|| NnError::InvalidConfig {
            reason: format!("conv `{}`: backward before training forward", self.name),
        })?;
        let in_shape = input.shape().to_vec();
        let (oh, ow) = self.out_hw(in_shape[2], in_shape[3])?;
        let c_out = self.active_out_channels();
        grad_out.expect_shape(&[in_shape[0], c_out, oh, ow], "conv backward")?;
        Ok(in_shape)
    }

    /// Input channels each output channel reads (shared by every
    /// forward path and the cost model).
    fn icg_count(&self) -> usize {
        if self.cfg.conv_groups == 1 {
            self.cfg.in_channels
        } else {
            self.in_per_group()
        }
    }

    /// `(groups to execute, output channels per executed group)` at the
    /// current width: a dense conv is one GEMM over all active output
    /// channels, a grouped conv is one GEMM per active group.
    fn exec_groups(&self) -> (usize, usize) {
        if self.cfg.conv_groups == 1 {
            (1, self.active_out_channels())
        } else {
            (self.active, self.out_per_group())
        }
    }

    /// Lowering geometry for the first executed group of a sample with
    /// input `h × w` and output `oh × ow`; executed group `g` lowers
    /// [`ConvGeom::group`]`(g)` (a dense conv executes group 0 only).
    fn geom(&self, h: usize, w: usize, oh: usize, ow: usize) -> ConvGeom {
        ConvGeom {
            channels: self.icg_count(),
            ch_base: 0,
            h,
            w,
            k: self.cfg.kernel,
            stride: self.cfg.stride,
            padding: self.cfg.padding,
            oh,
            ow,
        }
    }

    /// `f32` forward: per sample and group,
    /// `Out_g = W_g · im2col(x_g) + b_g`, batch-parallel when the work
    /// pays for it. The weight operand comes pre-packed from the
    /// per-layer cache, the lowering writes the kernel's packed layout
    /// directly, and the bias add (and the following ReLU when `relu`)
    /// rides the GEMM epilogue — the hot loop packs nothing. Every
    /// element of `out` is written.
    fn forward_gemm(&mut self, input: &Tensor, out: &mut Tensor, relu: bool) {
        let [n, c_in, h, w]: [usize; 4] = input.shape().try_into().expect("rank-4 input");
        let [_, c_out, oh, ow]: [usize; 4] = out.shape().try_into().expect("rank-4 output");
        let (groups_exec, opg) = self.exec_groups();
        let kdim = self.icg_count() * self.cfg.kernel * self.cfg.kernel;
        let ohw = oh * ow;
        let col_slot = packed_b_len(kdim, ohw);
        let sample_in = c_in * h * w;
        let sample_out = c_out * ohw;
        let per_sample_macs = groups_exec * opg * ohw * kdim;
        let batch_par = n > 1 && n * per_sample_macs >= crate::gemm::PAR_MIN_WORK;

        // Pack the active weight panels once per weight version.
        if self.packed_w.is_none() {
            let weights = &self.w;
            self.packed_w = Some(
                (0..groups_exec)
                    .map(|g| {
                        PackedA::pack(
                            MatRef::new(&weights[g * opg * kdim..][..opg * kdim], kdim),
                            opg,
                            kdim,
                        )
                    })
                    .collect(),
            );
        }
        let packed_w = self.packed_w.as_ref().expect("packed above");

        // One column-matrix slot per band (bounded by the worker count,
        // not the batch size), carved from the thread's scratch; each
        // band reuses its slot across samples.
        let bands = workers::band_count(n, batch_par);
        let geom = self.geom(h, w, oh, ow);
        let bias = &self.b;
        let ep = |g: usize| {
            let ep = Epilogue::bias_row(&bias[g * opg..][..opg]);
            if relu {
                ep.with_relu()
            } else {
                ep
            }
        };
        let x = input.data();
        with_fwd_scratch(|cols, _| {
            cols.resize((bands * col_slot).max(cols.len()), 0.0);
            workers::for_each_band(
                out.data_mut(),
                n,
                sample_out,
                cols,
                col_slot,
                &mut [],
                0,
                batch_par,
                |n0, out_band, col, _| {
                    for (bi, out_s) in out_band.chunks_mut(sample_out).enumerate() {
                        let x_s = &x[(n0 + bi) * sample_in..][..sample_in];
                        for g in 0..groups_exec {
                            im2col_packed(x_s, &geom.group(g), col);
                            gemm_with(
                                opg,
                                ohw,
                                kdim,
                                Lhs::Packed(packed_w[g].as_ref()),
                                Rhs::Packed(PackedBRef::new(&col[..col_slot], kdim, ohw)),
                                0.0,
                                &mut out_s[g * opg * ohw..][..opg * ohw],
                                ohw,
                                !batch_par,
                                ep(g),
                            );
                        }
                    }
                },
            );
        });
    }

    /// Quantises + packs the active weight panels once per weight
    /// version; the per-tensor scale spans every active weight.
    fn ensure_packed_w8(&mut self, groups_exec: usize, opg: usize, kdim: usize) {
        if self.packed_w8.is_none() {
            let active_w = groups_exec * opg * kdim;
            let w_scale = finite_max_abs(&self.w[..active_w]) / I8_LEVELS;
            let inv_w = inv_or_zero(w_scale);
            let weights = &self.w;
            self.packed_w8 = Some((
                w_scale,
                (0..groups_exec)
                    .map(|g| {
                        PackedA8::pack_quantized(
                            MatRef::new(&weights[g * opg * kdim..][..opg * kdim], kdim),
                            opg,
                            kdim,
                            inv_w,
                        )
                    })
                    .collect(),
            ));
        }
    }

    /// The int8 forward step, the one quantised path of this layer: a
    /// per-layer [`Layer::forward`] at [`Precision::Int8`] runs it as a
    /// one-layer chain (`f32` in, `f32` out), a chained forward runs it
    /// as its plan says. The active weights are quantised per tensor
    /// and packed into int8 panels once per weight version. An `f32`
    /// input is quantised per sample at the [`ActObserver`]'s scale
    /// (`train` goes to the observer); an int8 input is already on
    /// this layer's frozen grid. Each sample is lowered by pure integer
    /// copies into packed panels ([`im2col_packed_i8`]) and each
    /// executed group runs one `i8×i8→i32` product. With `out_scale`
    /// `None` the epilogue dequantises (`acc·s_x·s_w + bias` in `f32`);
    /// with `Some(s)` the same [`QEpilogue`] requantises onto the grid
    /// `s`, saturating. `fuse_relu` adds a free `max(0)`.
    /// The output buffer comes from `out_buf`: fresh for
    /// [`Layer::forward`], the thread's spares for the inference walk.
    fn quant_step(
        &mut self,
        input: QActRef<'_>,
        out_scale: Option<f32>,
        fuse_relu: bool,
        train: bool,
        out_buf: OutBuf,
    ) -> Result<QAct> {
        let shape = input.shape();
        let out_shape = self.out_shape(shape, "forward")?;
        let [n, c_out, oh, ow] = out_shape;
        let (groups_exec, opg) = self.exec_groups();
        let kdim = self.icg_count() * self.cfg.kernel * self.cfg.kernel;
        let ohw = oh * ow;
        let per_sample_macs = groups_exec * opg * ohw * kdim;
        self.ensure_packed_w8(groups_exec, opg, kdim);
        let (x_scale, inv_x) = match input {
            // Per-tensor activation scale: the batch's own range when
            // the observer is dynamic, the calibrated range when frozen.
            QActRef::F32(t) => {
                crate::quant::count_quantise_pass();
                self.act_obs.observe_scale(t.data(), train)
            }
            // Mid-chain: the predecessor already requantised onto this
            // layer's frozen grid.
            QActRef::I8(q) => (q.scale(), 0.0),
        };
        let (w_scale, packed_w8) = self.packed_w8.as_ref().expect("packed above");
        let q_scale = x_scale * w_scale;
        let geom = self.geom(shape[2], shape[3], oh, ow);
        let out = with_fwd_scratch(|qbias, col8| {
            let (scale, bias, mut out) = match out_scale {
                None => {
                    crate::quant::count_dequantise_pass();
                    let out = out_buf.f32(n, &out_shape[1..]);
                    (q_scale, &self.b[..], QAct::F32(out))
                }
                Some(s_out) => {
                    // The whole epilogue runs on the output grid:
                    // multiplier s_x·s_w/s_out, bias pre-divided (into
                    // the thread's scratch — no per-call alloc).
                    let inv_out = inv_or_zero(s_out);
                    qbias.clear();
                    qbias.extend(self.b.iter().map(|&b| b * inv_out));
                    let out = out_buf.i16(n, &out_shape[1..], s_out);
                    (q_scale * inv_out, &qbias[..], QAct::I8(out))
                }
            };
            let mut ep = QEpilogue::scaled(scale);
            if fuse_relu {
                ep = ep.with_relu();
            }
            let pass = QConvPass {
                input,
                inv_x,
                n,
                sample_in: shape[1..].iter().product(),
                sample_out: c_out * ohw,
                geom,
                groups_exec,
                packed_w8,
                ep,
                bias,
                opg,
                ohw,
                kdim,
                batch_par: n > 1 && n * per_sample_macs >= crate::gemm::PAR_MIN_WORK_I8,
            };
            match &mut out {
                QAct::F32(t) => pass.run(t.data_mut(), col8),
                QAct::I8(q) => pass.run(q.data_mut(), col8),
            }
            out
        });
        Ok(out)
    }

    /// Backward (both precisions), one batch-parallel pass: per sample and
    /// group, the weight gradient accumulates **transposed** into the
    /// band's private shard (`gWᵀ_g += im2col(x) · dOut_gᵀ` — the
    /// transposed form keeps both operands sequentially packable) and,
    /// when `grad_in` is wanted, the input gradient scatters back
    /// through `grad_in = col2im(W_gᵀ · dOut_g)` with a pre-packed
    /// `Wᵀ`. The shards are reduced (and transposed) into the gradient
    /// buffer after the scope; bias gradients are summed up front.
    ///
    /// `grad_in = None` is the first-layer fast path
    /// ([`Layer::backward_params`]): the input-gradient GEMM and the
    /// adjoint scatter are skipped entirely.
    fn backward_gemm(&mut self, grad_out: &Tensor, grad_in: Option<&mut Tensor>) {
        let input = self.cache.as_ref().expect("checked by backward");
        let [n, c_in, h, w]: [usize; 4] = input.shape().try_into().expect("rank-4 input");
        let [_, c_out, oh, ow]: [usize; 4] = grad_out.shape().try_into().expect("rank-4 grad");
        let (groups_exec, opg) = self.exec_groups();
        let kdim = self.icg_count() * self.cfg.kernel * self.cfg.kernel;
        let ohw = oh * ow;
        // The band buffer first holds the packed-A column matrix for
        // the weight-gradient product, then is overwritten with the
        // plain gradient columns for the adjoint scatter; the packed
        // length (rows padded to MR) also covers the plain kdim×ohw
        // layout.
        let col_slot = crate::gemm::packed_a_len(kdim, ohw);
        let sample_in = c_in * h * w;
        let sample_out = c_out * ohw;
        let go = grad_out.data();
        let geom = self.geom(h, w, oh, ow);
        let TrainState { gw, gb, bwd, .. } =
            TrainState::of(&mut self.train, self.w.len(), self.b.len());

        for (oc, gb) in gb.iter_mut().enumerate().take(c_out) {
            for ni in 0..n {
                let row = &go[ni * sample_out + oc * ohw..][..ohw];
                *gb += row.iter().sum::<f32>();
            }
        }

        // Wᵀ panels for the input-gradient products, packed once per
        // weight version (cache invalidated with `packed_w`) and shared
        // by every band (not needed on the first-layer fast path).
        let compute_gi = grad_in.is_some();
        if compute_gi && bwd.packed_wt.is_none() {
            let weights = &self.w;
            bwd.packed_wt = Some(
                (0..groups_exec)
                    .map(|g| {
                        PackedA::pack(
                            MatRef::t(&weights[g * opg * kdim..][..opg * kdim], kdim),
                            kdim,
                            opg,
                        )
                    })
                    .collect(),
            );
        }
        let packed_wt: &[PackedA] = bwd.packed_wt.as_deref().unwrap_or(&[]);

        let per_sample_macs = groups_exec * opg * ohw * kdim;
        let batch_par = n > 1 && n * per_sample_macs >= crate::gemm::PAR_MIN_WORK;
        let bands = workers::band_count(n, batch_par);
        let shard_len = groups_exec * kdim * opg;
        let (dcol, gw_shards) = (&mut bwd.dcol, &mut bwd.gw_shards);
        dcol.resize((bands * col_slot).max(dcol.len()), 0.0);
        gw_shards.resize((bands * shard_len).max(gw_shards.len()), 0.0);
        // Shards accumulate across the band's samples: start from zero.
        gw_shards[..bands * shard_len].fill(0.0);
        let x = input.data();
        // Without an input gradient the band pass still needs a slice
        // to split the batch over; one element per sample stands in.
        let mut dummy: Vec<f32>;
        let (band_data, item_len): (&mut [f32], usize) = match grad_in {
            Some(gi) => (gi.data_mut(), sample_in),
            None => {
                dummy = vec![0.0; n];
                (&mut dummy, 1)
            }
        };
        workers::for_each_band(
            band_data,
            n,
            item_len,
            dcol,
            col_slot,
            gw_shards,
            shard_len,
            batch_par,
            |n0, gi_band, colbuf, shard| {
                for (bi, gi_s) in gi_band.chunks_mut(item_len).enumerate() {
                    let x_s = &x[(n0 + bi) * sample_in..][..sample_in];
                    let go_s = &go[(n0 + bi) * sample_out..][..sample_out];
                    for g in 0..groups_exec {
                        let geom = geom.group(g);
                        let go_g = &go_s[g * opg * ohw..][..opg * ohw];
                        // Weight gradient, transposed: shard_g has one
                        // row per kdim entry, one column per channel.
                        // The lowering writes packed-A layout directly,
                        // so the product packs nothing for its left
                        // operand.
                        im2col_packed_lhs(x_s, &geom, colbuf);
                        gemm_with(
                            kdim,
                            opg,
                            ohw,
                            Lhs::Packed(PackedARef::new(&colbuf[..col_slot], kdim, ohw)),
                            Rhs::Mat(MatRef::t(go_g, ohw)),
                            1.0,
                            &mut shard[g * kdim * opg..][..kdim * opg],
                            opg,
                            // The shard is band-private, so when the
                            // batch itself is not split the product may
                            // still fan out over its rows.
                            !batch_par,
                            Epilogue::none(),
                        );
                        if compute_gi {
                            // Input gradient: dcol = Wᵀ·dOut, reusing
                            // the column buffer, then the adjoint
                            // scatter.
                            gemm_with(
                                kdim,
                                ohw,
                                opg,
                                Lhs::Packed(packed_wt[g].as_ref()),
                                Rhs::Mat(MatRef::new(go_g, ohw)),
                                0.0,
                                colbuf,
                                ohw,
                                !batch_par,
                                Epilogue::none(),
                            );
                            col2im_add(colbuf, &geom, gi_s);
                        }
                    }
                }
            },
        );

        // Reduce the transposed shards into the gradient buffer, band
        // by band (deterministic order).
        for band in 0..bands {
            let shard = &gw_shards[band * shard_len..][..shard_len];
            for g in 0..groups_exec {
                let shard_g = &shard[g * kdim * opg..][..kdim * opg];
                for r in 0..opg {
                    let grow = &mut gw[(g * opg + r) * kdim..][..kdim];
                    for (j, gv) in grow.iter_mut().enumerate() {
                        *gv += shard_g[j * opg + r];
                    }
                }
            }
        }
    }
}

/// One quantised conv pass over a batch: the operands and geometry
/// `Conv2d::quant_step` resolved, run once for its output form.
struct QConvPass<'a> {
    input: QActRef<'a>,
    /// Quantisation multiplier of an `f32` input (unused for int8).
    inv_x: f32,
    n: usize,
    sample_in: usize,
    sample_out: usize,
    /// Group 0's lowering; group `g` lowers `geom.group(g)`.
    geom: ConvGeom,
    groups_exec: usize,
    packed_w8: &'a [PackedA8],
    /// The epilogue of every group but its bias, which is group `g`'s
    /// slice of `bias`.
    ep: QEpilogue<'a>,
    bias: &'a [f32],
    opg: usize,
    ohw: usize,
    kdim: usize,
    batch_par: bool,
}

impl QConvPass<'_> {
    /// The band loop, generic over the output element: per sample, the
    /// input is quantised (`f32`) or taken as it is (int8), lowered by
    /// pure integer copies into packed int8 panels, and each executed
    /// group runs one `i8×i8→i32` product whose epilogue either
    /// dequantises to `f32` or requantises onto the next layer's int8
    /// grid (`i16` out).
    fn run<T: QOut>(&self, out: &mut [T], scratch: &mut Vec<i16>) {
        let &Self {
            input,
            inv_x,
            n,
            sample_in,
            sample_out,
            geom,
            groups_exec,
            packed_w8,
            ep,
            bias,
            opg,
            ohw,
            kdim,
            batch_par,
        } = self;
        let col_slot = packed_b8_len(kdim, ohw);
        // Band slot: the packed panel, preceded by a quantised sample
        // copy only when the input still needs quantising.
        let q_slot = match input {
            QActRef::F32(_) => sample_in,
            QActRef::I8(_) => 0,
        };
        let slot = q_slot + col_slot;
        let bands = workers::band_count(n, batch_par);
        scratch.resize((bands * slot).max(scratch.len()), 0);
        workers::for_each_band(
            out,
            n,
            sample_out,
            scratch,
            slot,
            &mut [],
            0,
            batch_par,
            |n0, out_band, buf, _| {
                let (qx, col) = buf.split_at_mut(q_slot);
                for (bi, out_s) in out_band.chunks_mut(sample_out).enumerate() {
                    let at = (n0 + bi) * sample_in;
                    let qx_s: &[i16] = match input {
                        QActRef::F32(t) => {
                            quantize_slice_i16(&t.data()[at..][..sample_in], inv_x, qx);
                            qx
                        }
                        QActRef::I8(q) => &q.data()[at..][..sample_in],
                    };
                    for g in 0..groups_exec {
                        im2col_packed_i8(qx_s, &geom.group(g), col);
                        gemm_i8_with(
                            opg,
                            ohw,
                            kdim,
                            packed_w8[g].as_ref(),
                            PackedB8Ref::new(&col[..col_slot], kdim, ohw),
                            &mut out_s[g * opg * ohw..][..opg * ohw],
                            ohw,
                            !batch_par,
                            ep.with_bias_row(&bias[g * opg..][..opg]),
                        );
                    }
                }
            },
        );
    }
}

impl Layer for Conv2d {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor> {
        let out = match self.precision {
            Precision::F32 => {
                let mut out = Tensor::zeros(&self.out_shape(input.shape(), "forward")?);
                self.forward_gemm(input, &mut out, false);
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
        let mut grad_in = Tensor::zeros(&self.backward_in_shape(grad_out)?);
        // Training at Int8 runs the f32 backward against the master
        // weights: the forward cache holds the f32 input, so gradients
        // are full-precision.
        self.backward_gemm(grad_out, Some(&mut grad_in));
        Ok(grad_in)
    }

    fn backward_params(&mut self, grad_out: &Tensor) -> Result<()> {
        self.backward_in_shape(grad_out)?;
        self.backward_gemm(grad_out, None);
        Ok(())
    }

    fn sgd_step(&mut self, lr: f32, momentum: f32) {
        // A channel trains iff its group is both active and trainable;
        // with `trainable` contiguous that is one output-channel span,
        // so the update runs slice-wise (no per-weight predicate).
        let out_per_group = self.out_per_group();
        let weights_per_oc = self.in_per_group() * self.cfg.kernel * self.cfg.kernel;
        let g_lo = self.trainable.start.min(self.active);
        let g_hi = self.trainable.end.min(self.active);
        let (oc_lo, oc_hi) = (g_lo * out_per_group, g_hi.max(g_lo) * out_per_group);
        // Without a training state the gradients and momenta are all
        // zero, and a zero step leaves every parameter as it is.
        let Some(t) = self.train.as_deref_mut() else {
            return;
        };
        sgd_update_span(
            &mut self.w,
            &t.gw,
            &mut t.vw,
            lr,
            momentum,
            oc_lo * weights_per_oc..oc_hi * weights_per_oc,
        );
        sgd_update_span(&mut self.b, &t.gb, &mut t.vb, lr, momentum, oc_lo..oc_hi);
        // The packed panels now describe stale weights.
        self.invalidate_packed();
    }

    fn zero_grads(&mut self) {
        TrainState::zero_grads(&mut self.train);
    }

    fn set_active_groups(&mut self, active: usize) -> Result<()> {
        if active == 0 || active > self.cfg.prune_groups {
            return Err(NnError::InvalidGroup {
                reason: format!(
                    "conv `{}`: active groups {} not in 1..={}",
                    self.name, active, self.cfg.prune_groups
                ),
            });
        }
        self.active = active;
        // A cached activation from a different width must not be
        // reused, and the packed panels cover the wrong group set.
        self.cache = None;
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
                let [n, c, oh, ow] = self.out_shape(x.shape(), "forward")?;
                let mut out = spare_f32(n, &[c, oh, ow]);
                self.forward_gemm(x, &mut out, fuse_relu);
                QAct::F32(out)
            }
            _ => self.quant_step(input.view(), out_scale, fuse_relu, false, OutBuf::Spare)?,
        };
        recycle(input);
        Ok(out)
    }

    fn cost(&self, in_shape: &[usize]) -> Result<LayerCost> {
        let expected_c = self.expected_in_channels();
        if in_shape.len() != 3 || in_shape[0] != expected_c {
            return Err(NnError::ShapeMismatch {
                context: format!("conv `{}` cost", self.name),
                expected: vec![expected_c, 0, 0],
                actual: in_shape.to_vec(),
            });
        }
        let (oh, ow) = self.out_hw(in_shape[1], in_shape[2])?;
        let c_out = self.active_out_channels();
        let icg_count = self.icg_count();
        let k2 = self.cfg.kernel * self.cfg.kernel;
        Ok(LayerCost {
            macs: (c_out * oh * ow * icg_count * k2) as f64,
            params: c_out * icg_count * k2 + c_out,
            out_shape: vec![c_out, oh, ow],
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

/// Test helpers: the reference loop nests' indexing, and the gradients.
#[cfg(test)]
impl Conv2d {
    /// Base input-channel index (within the *active* input tensor) for
    /// output channel `oc`.
    fn input_base(&self, oc: usize) -> usize {
        if self.cfg.conv_groups == 1 {
            0
        } else {
            let group = oc / self.out_per_group();
            group * (self.cfg.in_channels / self.cfg.prune_groups)
        }
    }

    fn weight_offset(&self, oc: usize, icg: usize, ky: usize, kx: usize) -> usize {
        let k = self.cfg.kernel;
        ((oc * self.in_per_group() + icg) * k + ky) * k + kx
    }

    /// The accumulated gradients `(gw, gb)` of a layer that has trained.
    fn grads(&self) -> (&[f32], &[f32]) {
        let t = self.train.as_deref().expect("a training call ran");
        (&t.gw, &t.gb)
    }
}

/// The original scalar loop nests, compiled only into tests: the oracle
/// the GEMM paths are checked against.
#[cfg(test)]
impl crate::oracle::Oracle for Conv2d {
    fn forward_reference(&mut self, input: &Tensor, train: bool) -> Result<Tensor> {
        let mut out = Tensor::zeros(&self.out_shape(input.shape(), "reference forward")?);
        let shape = input.shape();
        let (n, c_in, h, w) = (shape[0], shape[1], shape[2], shape[3]);
        let (c_out, oh, ow) = {
            let s = out.shape();
            (s[1], s[2], s[3])
        };
        let k = self.cfg.kernel;
        let s = self.cfg.stride;
        let p = self.cfg.padding as isize;
        let icg_count = self.icg_count();

        let x = input.data();
        let o = out.data_mut();
        for ni in 0..n {
            for oc in 0..c_out {
                let base = self.input_base(oc);
                let bias = self.b[oc];
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = bias;
                        for icg in 0..icg_count {
                            let ic = base + icg;
                            let plane = (ni * c_in + ic) * h * w;
                            for ky in 0..k {
                                let iy = (oy * s + ky) as isize - p;
                                if iy < 0 || iy >= h as isize {
                                    continue;
                                }
                                let row = plane + iy as usize * w;
                                for kx in 0..k {
                                    let ix = (ox * s + kx) as isize - p;
                                    if ix < 0 || ix >= w as isize {
                                        continue;
                                    }
                                    acc += self.w[self.weight_offset(oc, icg, ky, kx)]
                                        * x[row + ix as usize];
                                }
                            }
                        }
                        o[((ni * c_out + oc) * oh + oy) * ow + ox] = acc;
                    }
                }
            }
        }
        if train {
            self.cache = Some(input.clone());
        }
        Ok(out)
    }

    fn backward_reference(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let mut grad_in = Tensor::zeros(&self.backward_in_shape(grad_out)?);
        let input = self.cache.as_ref().expect("checked above");
        let in_shape = input.shape();
        let (n, c_in, h, w) = (in_shape[0], in_shape[1], in_shape[2], in_shape[3]);
        let (c_out, oh, ow) = {
            let s = grad_out.shape();
            (s[1], s[2], s[3])
        };

        let k = self.cfg.kernel;
        let s = self.cfg.stride;
        let p = self.cfg.padding as isize;
        let icg_count = self.icg_count();

        let x = input.data();
        let go = grad_out.data();
        let gi = grad_in.data_mut();
        let t = TrainState::of(&mut self.train, self.w.len(), self.b.len());
        let (mut gw, mut gb) = (std::mem::take(&mut t.gw), std::mem::take(&mut t.gb));
        for ni in 0..n {
            for oc in 0..c_out {
                let base = self.input_base(oc);
                for oy in 0..oh {
                    for ox in 0..ow {
                        let g = go[((ni * c_out + oc) * oh + oy) * ow + ox];
                        if g == 0.0 {
                            continue;
                        }
                        gb[oc] += g;
                        for icg in 0..icg_count {
                            let ic = base + icg;
                            let plane = (ni * c_in + ic) * h * w;
                            for ky in 0..k {
                                let iy = (oy * s + ky) as isize - p;
                                if iy < 0 || iy >= h as isize {
                                    continue;
                                }
                                let row = plane + iy as usize * w;
                                for kx in 0..k {
                                    let ix = (ox * s + kx) as isize - p;
                                    if ix < 0 || ix >= w as isize {
                                        continue;
                                    }
                                    let woff = self.weight_offset(oc, icg, ky, kx);
                                    let xoff = row + ix as usize;
                                    gw[woff] += g * x[xoff];
                                    gi[xoff] += g * self.w[woff];
                                }
                            }
                        }
                    }
                }
            }
        }
        let t = self.train.as_deref_mut().expect("created above");
        (t.gw, t.gb) = (gw, gb);
        Ok(grad_in)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::Oracle;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    fn dense_cfg() -> Conv2dConfig {
        Conv2dConfig {
            in_channels: 3,
            out_channels: 8,
            kernel: 3,
            stride: 1,
            padding: 1,
            conv_groups: 1,
            prune_groups: 4,
        }
    }

    fn grouped_cfg() -> Conv2dConfig {
        Conv2dConfig {
            in_channels: 8,
            out_channels: 8,
            kernel: 3,
            stride: 1,
            padding: 1,
            conv_groups: 4,
            prune_groups: 4,
        }
    }

    #[test]
    fn config_validation() {
        let mut bad = dense_cfg();
        bad.out_channels = 6; // not divisible by 4
        assert!(Conv2d::new("c", bad, &mut rng()).is_err());
        let mut bad = grouped_cfg();
        bad.conv_groups = 2; // neither 1 nor prune_groups
        assert!(Conv2d::new("c", bad, &mut rng()).is_err());
        let mut bad = grouped_cfg();
        bad.in_channels = 6; // not divisible by conv_groups=4
        assert!(Conv2d::new("c", bad, &mut rng()).is_err());
        let mut bad = dense_cfg();
        bad.kernel = 0;
        assert!(Conv2d::new("c", bad, &mut rng()).is_err());
    }

    #[test]
    fn forward_shape_dense_same_padding() {
        let mut c = Conv2d::new("c", dense_cfg(), &mut rng()).unwrap();
        let x = Tensor::zeros(&[2, 3, 16, 16]);
        let y = c.forward(&x, false).unwrap();
        assert_eq!(y.shape(), &[2, 8, 16, 16]);
    }

    #[test]
    fn forward_rejects_wrong_channels() {
        let mut c = Conv2d::new("c", dense_cfg(), &mut rng()).unwrap();
        assert!(c.forward(&Tensor::zeros(&[1, 4, 8, 8]), false).is_err());
    }

    #[test]
    fn known_value_identity_kernel() {
        // 1x1 kernel, single in/out channel, weight = 2, bias = 1.
        let cfg = Conv2dConfig {
            in_channels: 1,
            out_channels: 1,
            kernel: 1,
            stride: 1,
            padding: 0,
            conv_groups: 1,
            prune_groups: 1,
        };
        let mut c = Conv2d::new("c", cfg, &mut rng()).unwrap();
        c.w[0] = 2.0;
        c.b[0] = 1.0;
        let x = Tensor::from_vec(&[1, 1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let y = c.forward(&x, false).unwrap();
        assert_eq!(y.data(), &[3.0, 5.0, 7.0, 9.0]);
    }

    #[test]
    fn width_scaling_shrinks_output_channels() {
        let mut c = Conv2d::new("c", dense_cfg(), &mut rng()).unwrap();
        c.set_active_groups(2).unwrap();
        let y = c.forward(&Tensor::zeros(&[1, 3, 8, 8]), false).unwrap();
        assert_eq!(y.shape(), &[1, 4, 8, 8]);
        assert_eq!(c.active_out_channels(), 4);
        assert_eq!(c.expected_in_channels(), 3, "dense conv keeps full input");
    }

    #[test]
    fn grouped_width_scaling_shrinks_input_too() {
        let mut c = Conv2d::new("c", grouped_cfg(), &mut rng()).unwrap();
        c.set_active_groups(1).unwrap();
        assert_eq!(c.expected_in_channels(), 2);
        let y = c.forward(&Tensor::zeros(&[1, 2, 8, 8]), false).unwrap();
        assert_eq!(y.shape(), &[1, 2, 8, 8]);
    }

    #[test]
    fn pruned_output_prefix_matches_full_model() {
        // The defining property of group pruning (Fig 3c): running the
        // first g groups produces *exactly* the same values as the full
        // model's first g groups — switching widths needs no retraining.
        let mut c = Conv2d::new("c", grouped_cfg(), &mut rng()).unwrap();
        let mut r = rng();
        let x_full = Tensor::from_vec(
            &[1, 8, 4, 4],
            (0..128).map(|_| r.gen_range(-1.0..1.0)).collect(),
        )
        .unwrap();
        let y_full = c.forward(&x_full, false).unwrap();

        c.set_active_groups(2).unwrap();
        // Active input = first 4 channels.
        let x_half = Tensor::from_vec(&[1, 4, 4, 4], x_full.data()[..64].to_vec()).unwrap();
        let y_half = c.forward(&x_half, false).unwrap();
        assert_eq!(y_half.shape(), &[1, 4, 4, 4]);
        for oc in 0..4 {
            for y in 0..4 {
                for x in 0..4 {
                    assert!((y_half.at(&[0, oc, y, x]) - y_full.at(&[0, oc, y, x])).abs() < 1e-6);
                }
            }
        }
    }

    #[test]
    fn invalid_active_groups_rejected() {
        let mut c = Conv2d::new("c", dense_cfg(), &mut rng()).unwrap();
        assert!(c.set_active_groups(0).is_err());
        assert!(c.set_active_groups(5).is_err());
        assert!(c.set_active_groups(4).is_ok());
    }

    /// Finite-difference gradient check for weights, bias and input.
    #[test]
    fn gradient_check() {
        let cfg = Conv2dConfig {
            in_channels: 2,
            out_channels: 2,
            kernel: 3,
            stride: 1,
            padding: 1,
            conv_groups: 1,
            prune_groups: 2,
        };
        let mut c = Conv2d::new("c", cfg, &mut rng()).unwrap();
        let mut r = rng();
        let x = Tensor::from_vec(
            &[1, 2, 4, 4],
            (0..32).map(|_| r.gen_range(-1.0..1.0)).collect(),
        )
        .unwrap();

        // Loss = sum(output); dL/dy = 1.
        let y = c.forward(&x, true).unwrap();
        let grad_out = Tensor::full(y.shape(), 1.0);
        let gx = c.backward(&grad_out).unwrap();

        let eps = 1e-3_f32;
        // Check a sample of weight gradients. Direct weight pokes
        // bypass the layer API, so drop the packed panels by hand.
        for &wi in &[0usize, 5, 17, 23] {
            let orig = c.w[wi];
            c.w[wi] = orig + eps;
            c.invalidate_packed();
            let lp = c.forward(&x, false).unwrap().sum();
            c.w[wi] = orig - eps;
            c.invalidate_packed();
            let lm = c.forward(&x, false).unwrap().sum();
            c.w[wi] = orig;
            c.invalidate_packed();
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - c.grads().0[wi]).abs() < 2e-2,
                "weight {wi}: numeric {numeric} vs analytic {}",
                c.grads().0[wi]
            );
        }
        // Check a sample of input gradients.
        let mut x2 = x.clone();
        for &xi in &[0usize, 9, 31] {
            let orig = x2.data()[xi];
            x2.data_mut()[xi] = orig + eps;
            let lp = c.forward(&x2, false).unwrap().sum();
            x2.data_mut()[xi] = orig - eps;
            let lm = c.forward(&x2, false).unwrap().sum();
            x2.data_mut()[xi] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - gx.data()[xi]).abs() < 2e-2,
                "input {xi}: numeric {numeric} vs analytic {}",
                gx.data()[xi]
            );
        }
        // Bias gradient: dL/db = number of output positions.
        assert!((c.grads().1[0] - 16.0).abs() < 1e-4);
    }

    #[test]
    fn sgd_step_freezes_inactive_and_non_trainable_groups() {
        let mut c = Conv2d::new("c", grouped_cfg(), &mut rng()).unwrap();
        let w_before = c.w.clone();
        // Active = 2 groups; trainable = group 1 only.
        c.set_active_groups(2).unwrap();
        c.set_trainable_groups(1..2);
        let x = Tensor::full(&[1, 4, 4, 4], 1.0);
        let y = c.forward(&x, true).unwrap();
        let _ = c.backward(&Tensor::full(y.shape(), 1.0)).unwrap();
        c.sgd_step(0.1, 0.0);

        let weights_per_oc = 2 * 9; // in_per_group=2, k=3
                                    // Group 0 (oc 0..2) frozen.
        for (wi, (&now, &was)) in
            c.w.iter()
                .zip(&w_before)
                .enumerate()
                .take(2 * weights_per_oc)
        {
            assert_eq!(now, was, "group 0 weight {wi} must be frozen");
        }
        // Group 1 (oc 2..4) updated.
        let updated = (2 * weights_per_oc..4 * weights_per_oc).any(|wi| c.w[wi] != w_before[wi]);
        assert!(updated, "group 1 weights must update");
        // Groups 2-3 inactive: no gradient, no update.
        for (wi, (&now, &was)) in
            c.w.iter()
                .zip(&w_before)
                .enumerate()
                .skip(4 * weights_per_oc)
        {
            assert_eq!(now, was, "inactive group weight {wi}");
        }
    }

    /// A layer that has only served holds no training state, and
    /// `zero_grads` and `sgd_step` on it allocate nothing and leave its
    /// parameters bit-identical (its gradients and momenta would be
    /// all zero).
    #[test]
    fn untrained_layer_steps_allocate_nothing() {
        let mut c = Conv2d::new("c", grouped_cfg(), &mut rng()).unwrap();
        let _ = c.forward(&Tensor::random(&[2, 8, 6, 6], &mut rng()), false);
        let (w, b) = (c.w.clone(), c.b.clone());
        let ((), allocs) = eml_testalloc::count(|| {
            c.zero_grads();
            c.sgd_step(0.1, 0.9);
        });
        assert_eq!(allocs.count, 0, "{} bytes allocated", allocs.bytes);
        assert!(c.train.is_none(), "no training state without training");
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!((bits(&c.w), bits(&c.b)), (bits(&w), bits(&b)));
    }

    /// The training state appears on first use and starts from zero, so
    /// a layer that served first (in both precisions, at another width,
    /// with untrained steps) trains to bit-identical parameters as one
    /// that trains from fresh.
    #[test]
    fn serving_first_then_training_matches_training_from_fresh() {
        let x = Tensor::random(&[2, 4, 6, 6], &mut rng());
        let train = |c: &mut Conv2d| {
            c.set_active_groups(2).unwrap();
            c.set_trainable_groups(1..4);
            for _ in 0..3 {
                c.zero_grads();
                let y = c.forward(&x, true).unwrap();
                // L = ½Σy², so dL/dy = y.
                c.backward(&y).unwrap();
                c.sgd_step(0.01, 0.9);
            }
        };
        let mut fresh = Conv2d::new("c", grouped_cfg(), &mut rng()).unwrap();
        train(&mut fresh);
        let mut served = Conv2d::new("c", grouped_cfg(), &mut rng()).unwrap();
        let x_full = Tensor::random(&[3, 8, 6, 6], &mut rng());
        for precision in [Precision::Int8, Precision::F32] {
            served.set_precision(precision);
            let _ = served.forward(&x_full, false).unwrap();
        }
        served.zero_grads();
        served.sgd_step(0.01, 0.9);
        train(&mut served);
        let bits = |c: &Conv2d| {
            let v = c.w.iter().chain(&c.b);
            v.map(|x| x.to_bits()).collect::<Vec<_>>()
        };
        assert_eq!(bits(&served), bits(&fresh));
    }

    /// The sharded parallel backward (per-band transposed gradient
    /// shards, reduced after the scope) must agree with the reference
    /// loops whatever the band count. The machine's real worker count
    /// is irrelevant here: the test pins it, so multi-band splitting
    /// and the shard reduction run even on a single-core host.
    #[test]
    fn sharded_backward_matches_reference_across_band_counts() {
        // Large enough that `batch_par` passes the work threshold:
        // 16·196·72 MACs/sample × batch 10 ≈ 2.8M ≥ 2^21.
        let cfg = Conv2dConfig {
            in_channels: 8,
            out_channels: 16,
            kernel: 3,
            stride: 1,
            padding: 1,
            conv_groups: 1,
            prune_groups: 2,
        };
        let x = Tensor::random(&[10, 8, 14, 14], &mut rng());
        let mut reference = Conv2d::new("c", cfg, &mut rng()).unwrap();
        let y = reference.forward_reference(&x, true).unwrap();
        let go = Tensor::random(y.shape(), &mut rng());
        let gx_ref = reference.backward_reference(&go).unwrap();

        for bands in [1usize, 2, 3, 8] {
            crate::workers::FORCE_WORKERS.with(|f| f.set(Some(bands)));
            let mut gemm = Conv2d::new("c", cfg, &mut rng()).unwrap();
            let _ = gemm.forward(&x, true).unwrap();
            let gx = gemm.backward(&go).unwrap();
            crate::workers::FORCE_WORKERS.with(|f| f.set(None));
            for (i, (&a, &b)) in gx_ref.data().iter().zip(gx.data()).enumerate() {
                assert!(
                    (a - b).abs() < 1e-4,
                    "bands {bands}: grad_in[{i}] {a} vs {b}"
                );
            }
            for (i, (&a, &b)) in reference.grads().0.iter().zip(gemm.grads().0).enumerate() {
                assert!((a - b).abs() < 1e-3, "bands {bands}: gw[{i}] {a} vs {b}");
            }
            for (i, (&a, &b)) in reference.grads().1.iter().zip(gemm.grads().1).enumerate() {
                assert!((a - b).abs() < 1e-3, "bands {bands}: gb[{i}] {a} vs {b}");
            }
        }
    }

    /// `backward_params` (the first-layer fast path) must accumulate
    /// exactly the same parameter gradients as full `backward`.
    #[test]
    fn backward_params_matches_full_backward_gradients() {
        let cfg = dense_cfg();
        let x = Tensor::random(&[3, 3, 8, 8], &mut rng());
        let mut full = Conv2d::new("c", cfg, &mut rng()).unwrap();
        let y = full.forward(&x, true).unwrap();
        let go = Tensor::random(y.shape(), &mut rng());
        let _ = full.backward(&go).unwrap();

        let mut fast = Conv2d::new("c", cfg, &mut rng()).unwrap();
        let _ = fast.forward(&x, true).unwrap();
        fast.backward_params(&go).unwrap();
        assert_eq!(full.grads(), fast.grads(), "gradients must be identical");
    }

    /// Every public mutation of the weights or the execution geometry
    /// must drop the packed-panel cache: after each one, the GEMM
    /// forward has to agree with a reference forward of the same layer.
    #[test]
    fn packed_weight_cache_tracks_every_mutation() {
        let mut c = Conv2d::new("c", grouped_cfg(), &mut rng()).unwrap();
        let x_full = Tensor::random(&[2, 8, 6, 6], &mut rng());
        let check = |c: &mut Conv2d, x: &Tensor, what: &str| {
            let y_gemm = c.forward(x, false).unwrap();
            let y_ref = c.forward_reference(x, false).unwrap();
            for (i, (&a, &b)) in y_gemm.data().iter().zip(y_ref.data()).enumerate() {
                assert!(
                    (a - b).abs() < 1e-5,
                    "{what}[{i}]: gemm {a} vs reference {b}"
                );
            }
        };
        check(&mut c, &x_full, "initial");
        // Weight update through the training API.
        let y = c.forward(&x_full, true).unwrap();
        c.backward(&Tensor::full(y.shape(), 0.5)).unwrap();
        c.sgd_step(0.1, 0.0);
        check(&mut c, &x_full, "after sgd_step");
        // Width switch repacks the group panels.
        c.set_active_groups(2).unwrap();
        let x_half = Tensor::random(&[2, 4, 6, 6], &mut rng());
        check(&mut c, &x_half, "after width switch");
        // Quantisation rewrites the weights in place.
        c.quantize_weights(6);
        check(&mut c, &x_half, "after quantisation");
    }

    /// The int8 weight-panel cache must track every mutation exactly
    /// like the f32 cache: after each one, a cached int8 forward has
    /// to equal the forward of a freshly-built layer with identical
    /// weights (which packs from scratch), bit for bit.
    #[test]
    fn quant_packed_cache_tracks_every_mutation() {
        let mut c = Conv2d::new("c", grouped_cfg(), &mut rng()).unwrap();
        c.set_precision(Precision::Int8);
        let check = |c: &mut Conv2d, x: &Tensor, what: &str| {
            let y_cached = c.forward(x, false).unwrap();
            let mut fresh = Conv2d::new("c", c.config(), &mut rng()).unwrap();
            fresh.w.copy_from_slice(&c.w);
            fresh.b.copy_from_slice(&c.b);
            fresh.set_active_groups(c.active_groups()).unwrap();
            fresh.set_precision(Precision::Int8);
            let y_fresh = fresh.forward(x, false).unwrap();
            assert_eq!(y_cached.data(), y_fresh.data(), "{what}: stale int8 panels");
        };
        let x_full = Tensor::random(&[2, 8, 6, 6], &mut rng());
        check(&mut c, &x_full, "initial");
        // Weight update through the training API (int8 backward runs
        // the f32 gradient path against the master weights).
        let y = c.forward(&x_full, true).unwrap();
        c.backward(&Tensor::full(y.shape(), 0.5)).unwrap();
        c.sgd_step(0.1, 0.0);
        check(&mut c, &x_full, "after sgd_step");
        // Width switch re-quantises for the new active prefix.
        c.set_active_groups(2).unwrap();
        let x_half = Tensor::random(&[2, 4, 6, 6], &mut rng());
        check(&mut c, &x_half, "after width switch");
        // Weight-grid quantisation rewrites the masters in place.
        c.quantize_weights(6);
        check(&mut c, &x_half, "after quantisation");
    }

    /// The batch-parallel band split must be bit-identical to the
    /// serial pass, for the f32 forward and for the chained forward's
    /// two input forms (f32 head of a chain, pre-quantised mid-chain)
    /// and two output forms (requantised i8 edge, dequantised f32
    /// tail): bands are fully independent row ranges over pre-packed
    /// operands, each lowering through its own thread's plans.
    #[test]
    fn chained_band_split_matches_serial() {
        use crate::quant::{QAct, QTensor};
        // Big enough that `batch_par` passes the work threshold:
        // 16·196·72 MACs/sample × batch 10 ≈ 2.3M ≥ 2^21.
        let cfg = Conv2dConfig {
            in_channels: 8,
            out_channels: 16,
            kernel: 3,
            stride: 1,
            padding: 1,
            conv_groups: 1,
            prune_groups: 2,
        };
        let mut c = Conv2d::new("c", cfg, &mut rng()).unwrap();
        let xf = Tensor::random(&[10, 8, 14, 14], &mut rng());
        let serial = c.forward(&xf, false).expect("serial f32 forward");
        crate::workers::FORCE_WORKERS.with(|f| f.set(Some(4)));
        let banded = c.forward(&xf, false).expect("banded f32 forward");
        crate::workers::FORCE_WORKERS.with(|f| f.set(None));
        assert!(
            serial
                .data()
                .iter()
                .zip(banded.data())
                .all(|(x, y)| x.to_bits() == y.to_bits()),
            "f32 forward: banded differs from serial"
        );
        c.set_precision(Precision::Int8);
        let _ = c.forward(&xf, false).unwrap();
        c.freeze_act_scale(true);
        let mut qx = QTensor::zeros(xf.shape(), c.act_obs.scale_for(0.0));
        let inv = 1.0 / qx.scale();
        crate::quant::quantize_slice_i16(xf.data(), inv, qx.data_mut());
        for (input, what) in [
            (QAct::F32(xf.clone()), "f32 input"),
            (QAct::I8(qx.clone()), "i8 input"),
        ] {
            for (out_scale, fuse) in [(None, false), (Some(0.05), true)] {
                let serial = c
                    .infer(input.clone(), out_scale, fuse)
                    .expect("serial chained forward");
                crate::workers::FORCE_WORKERS.with(|f| f.set(Some(4)));
                let banded = c
                    .infer(input.clone(), out_scale, fuse)
                    .expect("banded chained forward");
                crate::workers::FORCE_WORKERS.with(|f| f.set(None));
                match (serial, banded) {
                    (QAct::F32(a), QAct::F32(b)) => {
                        assert!(
                            a.data()
                                .iter()
                                .zip(b.data())
                                .all(|(x, y)| x.to_bits() == y.to_bits()),
                            "{what}, f32 out: banded differs from serial"
                        );
                    }
                    (QAct::I8(a), QAct::I8(b)) => {
                        assert_eq!(a.data(), b.data(), "{what}, i8 out");
                        assert_eq!(a.scale(), b.scale());
                    }
                    _ => panic!("{what}: output form changed with banding"),
                }
            }
        }
    }

    /// Re-selecting the current precision keeps the packed caches — an
    /// RTM policy may re-issue its precision choice every control
    /// epoch, and a no-op switch must not force a per-layer re-pack.
    #[test]
    fn reselecting_backend_keeps_packed_caches() {
        let mut c = Conv2d::new("c", dense_cfg(), &mut rng()).unwrap();
        c.set_precision(Precision::Int8);
        let x = Tensor::full(&[1, 3, 8, 8], 0.5);
        let _ = c.forward(&x, false).unwrap();
        assert!(c.packed_w8.is_some());
        c.set_precision(Precision::Int8);
        assert!(c.packed_w8.is_some(), "no-op switch dropped the panels");
        c.set_precision(Precision::F32);
        assert!(c.packed_w8.is_none(), "real switch must invalidate");
    }

    /// The activation observer records the ranges int8 forwards see,
    /// and freezing pins the quantisation scale: inputs beyond the
    /// frozen range saturate instead of rescaling.
    #[test]
    fn act_observer_records_and_freezes() {
        let mut c = Conv2d::new("c", dense_cfg(), &mut rng()).unwrap();
        c.set_precision(Precision::Int8);
        assert_eq!(c.act_obs.max_abs(), 0.0);
        let _ = c.forward(&Tensor::full(&[1, 3, 8, 8], 0.5), false).unwrap();
        assert_eq!(c.act_obs.max_abs(), 0.5);
        let _ = c
            .forward(&Tensor::full(&[1, 3, 8, 8], -2.0), false)
            .unwrap();
        assert_eq!(c.act_obs.max_abs(), 2.0);
        // Freeze at the observed range; a 4x larger input now saturates
        // at ±127 of the frozen scale, so the output equals that of an
        // input clamped to the frozen range.
        c.freeze_act_scale(true);
        assert!(c.act_obs.is_frozen());
        let y_big = c.forward(&Tensor::full(&[1, 3, 8, 8], 8.0), false).unwrap();
        let y_clamped = c.forward(&Tensor::full(&[1, 3, 8, 8], 2.0), false).unwrap();
        assert_eq!(y_big.data(), y_clamped.data(), "beyond-range saturates");
        // Unfreeze: dynamic scaling resumes and the outputs differ.
        c.freeze_act_scale(false);
        let y_dyn = c.forward(&Tensor::full(&[1, 3, 8, 8], 8.0), false).unwrap();
        assert_ne!(y_dyn.data(), y_clamped.data());
    }

    /// Training at `Precision::Int8`: forward runs int8,
    /// backward accumulates full-precision gradients from the cached
    /// f32 input — the loss must still fall.
    #[test]
    fn quant_i8_training_reduces_loss() {
        let mut c = Conv2d::new("c", dense_cfg(), &mut rng()).unwrap();
        c.set_precision(Precision::Int8);
        let x = Tensor::random(&[2, 3, 6, 6], &mut rng());
        let loss = |y: &Tensor| y.data().iter().map(|v| v * v).sum::<f32>();
        let y0 = c.forward(&x, true).unwrap();
        let first = loss(&y0);
        let mut y = y0;
        for _ in 0..8 {
            // dL/dy = 2y for L = Σy².
            let grad =
                Tensor::from_vec(y.shape(), y.data().iter().map(|v| 2.0 * v).collect()).unwrap();
            c.zero_grads();
            c.backward(&grad).unwrap();
            c.sgd_step(0.01, 0.0);
            y = c.forward(&x, true).unwrap();
        }
        let last = loss(&y);
        assert!(
            last < first * 0.5,
            "squared-output loss should fall: {first} -> {last}"
        );
    }

    #[test]
    fn cost_scales_with_active_groups() {
        let mut c = Conv2d::new("c", grouped_cfg(), &mut rng()).unwrap();
        let full = c.cost(&[8, 16, 16]).unwrap();
        c.set_active_groups(1).unwrap();
        let quarter = c.cost(&[2, 16, 16]).unwrap();
        assert!((quarter.macs / full.macs - 0.25).abs() < 1e-9);
        assert_eq!(full.out_shape, vec![8, 16, 16]);
        assert_eq!(quarter.out_shape, vec![2, 16, 16]);
        // Total params independent of width.
        assert_eq!(c.param_count_total(), 8 * 2 * 9 + 8);
    }

    #[test]
    fn dense_cost_formula() {
        let c = Conv2d::new("c", dense_cfg(), &mut rng()).unwrap();
        let cost = c.cost(&[3, 16, 16]).unwrap();
        // 8 out * 16*16 positions * 3 in * 9 kernel
        assert_eq!(cost.macs, (8 * 256 * 3 * 9) as f64);
        assert_eq!(cost.params, 8 * 3 * 9 + 8);
    }

    #[test]
    fn backward_without_forward_errors() {
        let mut c = Conv2d::new("c", dense_cfg(), &mut rng()).unwrap();
        assert!(c.backward(&Tensor::zeros(&[1, 8, 16, 16])).is_err());
    }

    #[test]
    fn stride_two_output_shape() {
        let cfg = Conv2dConfig {
            stride: 2,
            ..dense_cfg()
        };
        let mut c = Conv2d::new("c", cfg, &mut rng()).unwrap();
        let y = c.forward(&Tensor::zeros(&[1, 3, 16, 16]), false).unwrap();
        // (16 + 2 - 3)/2 + 1 = 8
        assert_eq!(y.shape(), &[1, 8, 8, 8]);
    }
}
