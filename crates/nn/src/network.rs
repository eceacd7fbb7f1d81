//! Sequential networks of [`Layer`]s with shared width control.
//!
//! [`Network`] owns the layer stack and propagates the dynamic-DNN group
//! state (active width, trainable range) to every layer, so the rest of the
//! system can treat "the model" as a single object with a width knob — the
//! *application knob* of the paper's Fig 5.

use std::fmt;
use std::ops::Range;

use crate::error::{NnError, Result};
use crate::layer::{recycle, spare_f32, ChainSupport, Layer, LayerCost};
use crate::loss::{cross_entropy, LossOutput};
use crate::quant::{ActScaleReport, Precision, QAct};
use crate::tensor::Tensor;

/// Aggregate cost of a forward pass at some width.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkCost {
    /// Total multiply-accumulates per sample.
    pub macs: f64,
    /// Parameters actually used at this width.
    pub params: usize,
    /// Parameters stored in memory regardless of width (single-model
    /// footprint).
    pub params_total: usize,
    /// Per-layer breakdown `(layer name, cost)`.
    pub per_layer: Vec<(String, LayerCost)>,
}

/// How one layer executes in an inference forward (the resolved form
/// of [`ChainSupport`], computed by [`Network::plan_quant_chain`]).
#[derive(Debug, Clone, Copy, PartialEq)]
enum ChainMode {
    /// Run the layer's by-value step [`Layer::infer`] on whatever
    /// activation arrives: a quantised layer emits int8 at `out_scale`
    /// (the next quantised layer's frozen input scale) or `f32` when
    /// `None`, and a compute layer applies the ReLU after it when
    /// `fuse_relu`; every other layer passes `(None, false)`.
    Step {
        out_scale: Option<f32>,
        fuse_relu: bool,
    },
    /// A ReLU folded into the preceding layer's epilogue: skipped
    /// entirely.
    FusedRelu,
}

/// Per-forward sample-block budget of the chained path, in activation
/// *elements* (~128 KiB as i16): a chained batch is processed in blocks
/// of `budget / peak_per_sample_activation` samples so the whole
/// inter-layer working set of a block stays cache-resident. Measured on
/// the bench CNN (serial): unblocked batch-32 loses its batching gain
/// at the widest width (per-sample ≈ batch-1), while 4–8-sample blocks
/// hold a 5–10% per-sample win at every width.
const CHAIN_BLOCK_ELEMS: usize = 1 << 16;

/// The resolved chained-int8 execution plan of a network (see
/// [`Network::plan_quant_chain`]).
#[derive(Debug, Clone, PartialEq)]
pub struct QuantChainPlan {
    modes: Vec<ChainMode>,
    edges: usize,
    block: usize,
}

impl QuantChainPlan {
    /// Whether any chain segment engaged — if not, an inference
    /// forward is an all-`f32` walk.
    pub fn engaged(&self) -> bool {
        self.edges > 0
    }

    /// Cache-blocking granularity: chained batches are executed in
    /// blocks of at most this many samples (widened to the worker
    /// count at run time so blocking never starves band parallelism).
    pub fn block(&self) -> usize {
        self.block
    }

    /// Number of quantised-to-quantised edges the plan resolved (each
    /// one is a dequantise/requantise round trip eliminated).
    pub fn edges(&self) -> usize {
        self.edges
    }

    /// Number of ReLU layers folded into a predecessor's epilogue
    /// (`f32` or int8).
    pub fn fused_relus(&self) -> usize {
        self.modes
            .iter()
            .filter(|m| matches!(m, ChainMode::FusedRelu))
            .count()
    }
}

/// A feed-forward stack of layers ending in logits.
pub struct Network {
    layers: Vec<Box<dyn Layer>>,
    groups: usize,
    active: usize,
    input_shape: Vec<usize>,
    /// The precision last pushed via [`Network::set_precision`] (layers
    /// start at [`Precision::F32`], the layer default).
    precision: Precision,
    /// Cached chained-int8 plan; `None` until planned and after every
    /// invalidation (see [`Network::invalidate_chain_plan`]).
    chain_plan: Option<QuantChainPlan>,
}

impl fmt::Debug for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Network({} layers, {}/{} groups active, input {:?})",
            self.layers.len(),
            self.active,
            self.groups,
            self.input_shape
        )
    }
}

impl Network {
    /// Builds a network from layers.
    ///
    /// `groups` is the dynamic-DNN partition count `G`; `input_shape` is the
    /// per-sample input shape (no batch axis), used for cost computation and
    /// input validation.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] if no layers are given or
    /// `groups == 0`.
    pub fn new(
        layers: Vec<Box<dyn Layer>>,
        groups: usize,
        input_shape: Vec<usize>,
    ) -> Result<Self> {
        if layers.is_empty() {
            return Err(NnError::InvalidConfig {
                reason: "network has no layers".into(),
            });
        }
        if groups == 0 {
            return Err(NnError::InvalidConfig {
                reason: "groups must be positive".into(),
            });
        }
        Ok(Self {
            layers,
            groups,
            active: groups,
            input_shape,
            precision: Precision::default(),
            chain_plan: None,
        })
    }

    /// The group partition count `G`.
    pub fn groups(&self) -> usize {
        self.groups
    }

    /// Currently active group count `g ∈ 1..=G`.
    pub fn active_groups(&self) -> usize {
        self.active
    }

    /// Per-sample input shape.
    pub fn input_shape(&self) -> &[usize] {
        &self.input_shape
    }

    /// Number of layers.
    pub fn layer_count(&self) -> usize {
        self.layers.len()
    }

    /// Sets the active width on every layer (the runtime knob of Fig 3c).
    ///
    /// Switching width never touches parameters: it is free of retraining
    /// by construction.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidGroup`] if `active` is zero or greater
    /// than `G`.
    pub fn set_active_groups(&mut self, active: usize) -> Result<()> {
        if active == 0 || active > self.groups {
            return Err(NnError::InvalidGroup {
                reason: format!("active groups {active} not in 1..={}", self.groups),
            });
        }
        for layer in &mut self.layers {
            layer.set_active_groups(active)?;
        }
        self.active = active;
        // Per-prefix weight scales (and therefore every requantisation
        // multiplier) change with the active group set — the cached
        // chain plan must be re-resolved.
        self.invalidate_chain_plan();
        Ok(())
    }

    /// Sets the trainable group range on every layer (the freeze schedule
    /// of Fig 3b).
    pub fn set_trainable_groups(&mut self, range: Range<usize>) {
        for layer in &mut self.layers {
            layer.set_trainable_groups(range.clone());
        }
    }

    /// Sets the data-precision knob on every layer (the second
    /// application knob of the paper's Fig 5, next to width):
    /// [`Precision::F32`] runs the `f32` GEMM path, [`Precision::Int8`]
    /// the real int8 kernel path, trading a small, measurable accuracy
    /// cost for latency.
    ///
    /// With unfrozen activation observers (the default) the int8 scale
    /// is *dynamic*: each batch quantises against its own max-abs, so a
    /// sample's output depends on which other samples share its batch —
    /// batch-1 and batch-N inference of the same input can differ
    /// slightly, and accuracy numbers taken at different eval batch
    /// sizes are not directly comparable. For reproducible serving, run
    /// representative data through the network and then
    /// [`Self::freeze_act_scales`] to pin static per-layer scales.
    pub fn set_precision(&mut self, precision: Precision) {
        for layer in &mut self.layers {
            layer.set_precision(precision);
        }
        self.precision = precision;
        self.invalidate_chain_plan();
    }

    /// The precision last set via [`Network::set_precision`] (layers
    /// start at [`Precision::F32`]).
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Freezes (or unfreezes) every layer's int8 activation scale at
    /// the range observed so far — run representative data through the
    /// network first (at any precision the layers observe, i.e.
    /// [`Precision::Int8`]), then freeze for batch-to-batch consistent
    /// quantisation. See [`crate::quant::ActObserver`].
    pub fn freeze_act_scales(&mut self, frozen: bool) {
        for layer in &mut self.layers {
            layer.freeze_act_scale(frozen);
        }
        // Freezing is when per-edge scales become resolvable (and
        // unfreezing is when they stop being): re-plan either way.
        self.invalidate_chain_plan();
    }

    /// Drops the cached chained-int8 plan; the next inference forward
    /// re-plans lazily. Called on every mutation that can change chain
    /// structure or per-edge scales: precision switches, width
    /// switches (per-prefix weight scales), observer freezes and
    /// direct layer access.
    fn invalidate_chain_plan(&mut self) {
        self.chain_plan = None;
    }

    /// Resolves the inference plan from the layers' current
    /// [`ChainSupport`] — the planning pass of the quantised pipeline
    /// (see the chaining section of [`crate::quant`]'s module docs) and
    /// of ReLU fusion in both precisions.
    ///
    /// For every maximal run `Q₀ T… Q₁ T… Q₂ …` of frozen quantised
    /// layers `Qᵢ` separated only by order-preserving transparent
    /// layers `T`, each `Qᵢ` (except the last) is scheduled to emit
    /// int8 directly on `Qᵢ₊₁`'s frozen input grid, the transparent
    /// layers pass the int8 activation through, and the last quantised
    /// layer of the run dequantises to `f32`. A quantised layer outside
    /// any run, or one with a dynamic (unfrozen) scale, is a one-layer
    /// chain (`f32` in, `f32` out), so a single unfrozen mid-network
    /// layer splits the chain around itself without changing its own
    /// dynamic-scale semantics. A ReLU directly after any compute layer
    /// ([`ChainSupport::Quantised`] or [`ChainSupport::FusesRelu`]) is
    /// folded into that layer's epilogue: `max(0)` before the
    /// saturating round on an int8 edge, before the store otherwise —
    /// one [`eml_simd::relu`], bit-identical to the separate pass. A
    /// plan with no run is an all-`f32` walk.
    ///
    /// The plan is cached; inference forwards re-plan lazily after any
    /// invalidating mutation (see [`Network::set_active_groups`] et
    /// al.). Training forwards never walk it.
    pub fn plan_quant_chain(&mut self) -> &QuantChainPlan {
        let caps: Vec<ChainSupport> = self.layers.iter().map(|l| l.chain_support()).collect();
        let n = caps.len();
        let mut modes = vec![
            ChainMode::Step {
                out_scale: None,
                fuse_relu: false,
            };
            n
        ];
        let mut edges = 0;
        let mut i = 0;
        while i < n {
            let out_scale = match caps[i] {
                // Scan ahead through order-preserving layers for the
                // next frozen quantised layer — the edge target whose
                // input scale this layer emits on.
                ChainSupport::Quantised { .. } => {
                    let mut j = i + 1;
                    while j < n
                        && matches!(
                            caps[j],
                            ChainSupport::Transparent | ChainSupport::TransparentRelu
                        )
                    {
                        j += 1;
                    }
                    match caps.get(j) {
                        Some(&ChainSupport::Quantised { in_scale }) => Some(in_scale),
                        _ => None,
                    }
                }
                ChainSupport::FusesRelu => None,
                _ => {
                    i += 1;
                    continue;
                }
            };
            let fuse_relu = matches!(caps.get(i + 1), Some(ChainSupport::TransparentRelu));
            modes[i] = ChainMode::Step {
                out_scale,
                fuse_relu,
            };
            if fuse_relu {
                modes[i + 1] = ChainMode::FusedRelu;
            }
            edges += usize::from(out_scale.is_some());
            i += 1 + usize::from(fuse_relu);
        }
        // Sample-block size from the peak per-sample activation
        // footprint (inputs and every layer output), so one block's
        // inter-layer traffic stays cache-resident. Cost-model failure
        // (inconsistent architecture) just disables blocking.
        let block = if edges > 0 {
            let peak = self.cost().ok().map_or(0, |c| {
                c.per_layer
                    .iter()
                    .map(|(_, l)| l.out_shape.iter().product::<usize>())
                    .chain(std::iter::once(self.input_shape.iter().product()))
                    .max()
                    .unwrap_or(0)
            });
            match peak {
                0 => usize::MAX,
                p => (CHAIN_BLOCK_ELEMS / p).max(1),
            }
        } else {
            usize::MAX
        };
        self.chain_plan = Some(QuantChainPlan {
            modes,
            edges,
            block,
        });
        self.chain_plan.as_ref().expect("just planned")
    }

    /// Runs the network forward. `input` is `[N, …input_shape]` except that
    /// channel-partitioned inputs are *not* width-scaled (the image always
    /// has 3 channels); width applies to internal layers.
    ///
    /// Inference forwards (`train = false`) walk the cached plan of
    /// [`Network::plan_quant_chain`], which chains int8 layers where
    /// scales are frozen and is an all-`f32` walk otherwise, passing
    /// each layer its activation by value (see [`Layer::infer`]): the
    /// walk copies `input` once into a recycled buffer, ReLU and
    /// Flatten work in place, and every other output comes from the
    /// calling thread's spare buffers. A steady forward allocates only
    /// the logits it returns. Training forwards run each layer's own
    /// [`Layer::forward`] (backward needs the `f32` caches).
    ///
    /// # Errors
    ///
    /// Propagates layer shape errors.
    pub fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor> {
        if train {
            let mut x = input.clone();
            for layer in &mut self.layers {
                x = layer.forward(&x, true)?;
            }
            return Ok(x);
        }
        if self.chain_plan.is_none() {
            self.plan_quant_chain();
        }
        // The plan is taken out of the cache for the walk (no
        // per-forward clone) and restored after.
        let plan = self.chain_plan.take().expect("planned above");
        // Cache-blocked execution: an engaged plan runs the batch in
        // sample blocks sized by the plan, widened to the worker count
        // so blocking never shrinks band parallelism. Frozen scales
        // make chained inference per-sample independent, so the split
        // is bit-invisible. (An unengaged plan's block is unbounded.)
        let n = input.shape()[0];
        let block = if n > plan.block && n > crate::workers::worker_count() {
            plan.block.max(crate::workers::worker_count())
        } else {
            n
        };
        let result = self.walk_blocks(input, block, &plan);
        self.chain_plan = Some(plan);
        result
    }

    /// Walks the batch through the whole stack in sub-batches of
    /// `block` samples (one block when `block` covers the batch) and
    /// gathers their outputs into the returned logits — the one
    /// allocation of a steady forward besides its shape. One block's
    /// activations fit in cache; an unblocked wide chained batch
    /// streams every layer's output through memory and loses the
    /// batching win (see [`CHAIN_BLOCK_ELEMS`]).
    fn walk_blocks(
        &mut self,
        input: &Tensor,
        block: usize,
        plan: &QuantChainPlan,
    ) -> Result<Tensor> {
        let (n, sample_shape) = (input.shape()[0], &input.shape()[1..]);
        let sample: usize = sample_shape.iter().product();
        let mut out: Option<(Vec<usize>, Vec<f32>)> = None;
        let mut i0 = 0;
        while i0 < n {
            let b = block.min(n - i0);
            let x = &input.data()[i0 * sample..(i0 + b) * sample];
            let yb = self.walk(x, b, sample_shape, plan)?;
            let (shape, data) = out.get_or_insert_with(|| {
                let mut shape = yb.shape().to_vec();
                shape[0] = n;
                let len = shape.iter().product();
                (shape, Vec::with_capacity(len))
            });
            match &yb {
                QAct::F32(t) => data.extend_from_slice(t.data()),
                // A chain that runs off the end of the network (a well-
                // formed plan dequantises at its last quantised layer).
                QAct::I8(q) => data.extend_from_slice(q.dequantize().data()),
            }
            debug_assert_eq!(&yb.shape()[1..], &shape[1..]);
            recycle(yb);
            i0 += b;
        }
        let (shape, data) = out.ok_or_else(|| NnError::ShapeMismatch {
            context: "inference forward on an empty batch".into(),
            expected: vec![1],
            actual: vec![0],
        })?;
        Ok(Tensor::from_parts(shape, data))
    }

    /// The inference walk of `batch` samples `x` (each of
    /// `sample_shape`): copies them into a spare buffer, then hands
    /// each layer the activation by value per its [`ChainMode`]. The
    /// result is a spare-backed activation the caller recycles.
    fn walk(
        &mut self,
        x: &[f32],
        batch: usize,
        sample_shape: &[usize],
        plan: &QuantChainPlan,
    ) -> Result<QAct> {
        let mut input = spare_f32(batch, sample_shape);
        input.data_mut().copy_from_slice(x);
        let mut val = QAct::F32(input);
        for (layer, mode) in self.layers.iter_mut().zip(&plan.modes) {
            if let ChainMode::Step {
                out_scale,
                fuse_relu,
            } = *mode
            {
                val = layer.infer(val, out_scale, fuse_relu)?;
            }
        }
        Ok(val)
    }

    /// Static calibration workflow for int8 serving: runs every batch
    /// through an int8 forward with the activation observers
    /// recording (unfrozen), then freezes the observed ranges as
    /// static scales — after which chained execution can engage — and
    /// returns the per-layer scale report. The network's precision is
    /// restored afterwards, so calling this on an `f32`-serving
    /// network only spends the calibration passes.
    ///
    /// Ranges accumulate across calls: calibrating twice widens scales
    /// to cover both datasets. Unfreeze via
    /// [`Network::freeze_act_scales`]`(false)` to resume dynamic
    /// scaling.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] when `batches` is empty and
    /// propagates forward errors; on any error the observers are left
    /// **unfrozen** (dynamic) — freezing an unobserved or
    /// partially-observed range would silently collapse activations to
    /// zero on the next quantised forward.
    pub fn calibrate<I>(&mut self, batches: I) -> Result<Vec<ActScaleReport>>
    where
        I: IntoIterator,
        I::Item: std::borrow::Borrow<Tensor>,
    {
        let prev = self.precision;
        self.set_precision(Precision::Int8);
        self.freeze_act_scales(false);
        let mut count = 0usize;
        let run = || -> Result<()> {
            for batch in batches {
                self.forward(std::borrow::Borrow::borrow(&batch), false)?;
                count += 1;
            }
            Ok(())
        };
        let result = run();
        // Freeze only a successful calibration; a failed or empty one
        // leaves the observers dynamic rather than frozen at a range
        // they never (fully) observed.
        self.freeze_act_scales(result.is_ok() && count > 0);
        self.set_precision(prev);
        result?;
        if count == 0 {
            return Err(NnError::InvalidConfig {
                reason: "calibration needs at least one batch".into(),
            });
        }
        Ok(self
            .layers
            .iter()
            .filter_map(|layer| {
                layer.quant_observer().map(|obs| ActScaleReport {
                    layer: layer.name().to_string(),
                    max_abs: obs.max_abs(),
                    scale: obs.scale_for(0.0),
                })
            })
            .collect())
    }

    /// Direct mutable access to layer `index` (testing and advanced
    /// surgery). Conservatively drops the cached chain plan — the
    /// caller can mutate anything the plan depends on.
    pub fn layer_mut(&mut self, index: usize) -> Option<&mut (dyn Layer + '_)> {
        self.invalidate_chain_plan();
        self.layers
            .get_mut(index)
            .map(|b| &mut **b as &mut (dyn Layer + '_))
    }

    /// Forward + loss + full backward pass; returns the loss output.
    ///
    /// Gradients accumulate in the layers; call [`Network::sgd_step`] then
    /// [`Network::zero_grads`] (or use [`crate::train`]).
    ///
    /// # Errors
    ///
    /// Propagates layer and loss errors.
    pub fn train_batch(&mut self, input: &Tensor, labels: &[usize]) -> Result<LossOutput> {
        let logits = self.forward(input, true)?;
        let out = cross_entropy(&logits, labels)?;
        let mut grad = out.grad_logits.clone();
        for (i, layer) in self.layers.iter_mut().enumerate().rev() {
            if i == 0 {
                // The first layer's input gradient (w.r.t. the image)
                // is never consumed: take the parameters-only path.
                layer.backward_params(&grad)?;
            } else {
                grad = layer.backward(&grad)?;
            }
        }
        Ok(out)
    }

    /// Applies one SGD-with-momentum step to every layer.
    pub fn sgd_step(&mut self, lr: f32, momentum: f32) {
        for layer in &mut self.layers {
            layer.sgd_step(lr, momentum);
        }
    }

    /// Clears accumulated gradients in every layer.
    pub fn zero_grads(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grads();
        }
    }

    /// Predicts class indices for a batch.
    ///
    /// # Errors
    ///
    /// Propagates layer shape errors.
    pub fn predict(&mut self, input: &Tensor) -> Result<Vec<usize>> {
        let logits = self.forward(input, false)?;
        let shape = logits.shape();
        let (n, k) = (shape[0], shape[1]);
        let data = logits.data();
        Ok((0..n)
            .map(|ni| {
                let row = &data[ni * k..(ni + 1) * k];
                row.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite logits"))
                    .map(|(i, _)| i)
                    .expect("non-empty logits row")
            })
            .collect())
    }

    /// Cost of one forward pass at the current width.
    ///
    /// # Errors
    ///
    /// Propagates layer cost errors (shape-propagation failures indicate an
    /// inconsistent architecture).
    pub fn cost(&self) -> Result<NetworkCost> {
        let mut shape = self.input_shape.clone();
        let mut macs = 0.0;
        let mut params = 0;
        let mut params_total = 0;
        let mut per_layer = Vec::with_capacity(self.layers.len());
        for layer in &self.layers {
            let c = layer.cost(&shape)?;
            macs += c.macs;
            params += c.params;
            params_total += layer.param_count_total();
            shape = c.out_shape.clone();
            per_layer.push((layer.name().to_string(), c));
        }
        Ok(NetworkCost {
            macs,
            params,
            params_total,
            per_layer,
        })
    }

    /// Applies weight quantization to every layer (used by
    /// [`crate::quant::quantize_network`], which validates `bits`).
    pub(crate) fn quantize_weights_internal(&mut self, bits: u32) {
        for layer in &mut self.layers {
            layer.quantize_weights(bits);
        }
    }

    /// Cost at a specific width without disturbing the current width.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Network::set_active_groups`] and
    /// [`Network::cost`].
    pub fn cost_at(&mut self, active: usize) -> Result<NetworkCost> {
        let prev = self.active;
        self.set_active_groups(active)?;
        let cost = self.cost();
        self.set_active_groups(prev)?;
        cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::{Flatten, Relu};
    use crate::conv::{Conv2d, Conv2dConfig};
    use crate::linear::Linear;
    use crate::pool::MaxPool2d;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_net(groups: usize) -> Network {
        let mut rng = StdRng::seed_from_u64(1);
        let conv = Conv2d::new(
            "conv1",
            Conv2dConfig {
                in_channels: 1,
                out_channels: 4,
                kernel: 3,
                stride: 1,
                padding: 1,
                conv_groups: 1,
                prune_groups: groups,
            },
            &mut rng,
        )
        .unwrap();
        let fc = Linear::new("fc", 4 * 4 * 4, 3, groups, &mut rng).unwrap();
        Network::new(
            vec![
                Box::new(conv),
                Box::new(Relu::new("relu1")),
                Box::new(MaxPool2d::new("pool1", 2)),
                Box::new(Flatten::new("flatten")),
                Box::new(fc),
            ],
            groups,
            vec![1, 8, 8],
        )
        .unwrap()
    }

    #[test]
    fn forward_produces_logits() {
        let mut net = tiny_net(2);
        let x = Tensor::zeros(&[2, 1, 8, 8]);
        let y = net.forward(&x, false).unwrap();
        assert_eq!(y.shape(), &[2, 3]);
    }

    #[test]
    fn width_switch_propagates_to_all_layers() {
        let mut net = tiny_net(2);
        net.set_active_groups(1).unwrap();
        let y = net.forward(&Tensor::zeros(&[1, 1, 8, 8]), false).unwrap();
        assert_eq!(y.shape(), &[1, 3]);
        assert_eq!(net.active_groups(), 1);
        assert!(net.set_active_groups(0).is_err());
        assert!(net.set_active_groups(3).is_err());
    }

    #[test]
    fn train_batch_reduces_loss() {
        let mut net = tiny_net(2);
        let mut rng = StdRng::seed_from_u64(9);
        use rand::Rng;
        let x = Tensor::from_vec(
            &[4, 1, 8, 8],
            (0..256).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
        )
        .unwrap();
        let labels = [0usize, 1, 2, 0];
        let first = net.train_batch(&x, &labels).unwrap().loss;
        for _ in 0..30 {
            net.zero_grads();
            let _ = net.train_batch(&x, &labels).unwrap();
            net.sgd_step(0.05, 0.9);
        }
        net.zero_grads();
        let last = net.train_batch(&x, &labels).unwrap().loss;
        assert!(
            last < first * 0.5,
            "loss should halve when overfitting 4 samples: {first} -> {last}"
        );
    }

    #[test]
    fn predict_matches_argmax_of_forward() {
        let mut net = tiny_net(2);
        let x = Tensor::full(&[2, 1, 8, 8], 0.3);
        let logits = net.forward(&x, false).unwrap();
        let preds = net.predict(&x).unwrap();
        for (ni, &p) in preds.iter().enumerate() {
            for k in 0..3 {
                assert!(logits.at(&[ni, p]) >= logits.at(&[ni, k]));
            }
        }
    }

    #[test]
    fn cost_shape_propagation() {
        let mut net = tiny_net(2);
        let full = net.cost().unwrap();
        assert!(full.macs > 0.0);
        assert_eq!(full.per_layer.len(), 5);
        // conv: 4*8*8*1*9 = 2304 MACs, fc: 64*3 = 192.
        assert_eq!(full.macs, 2304.0 + 192.0);
        let half = net.cost_at(1).unwrap();
        assert!(half.macs < full.macs);
        // cost_at restores the previous width.
        assert_eq!(net.active_groups(), 2);
        // Total (stored) params don't depend on width.
        assert_eq!(half.params_total, full.params_total);
        assert!(half.params < full.params);
    }

    #[test]
    fn empty_network_rejected() {
        assert!(Network::new(vec![], 4, vec![1]).is_err());
        let mut rng = StdRng::seed_from_u64(0);
        let fc = Linear::new("fc", 4, 2, 1, &mut rng).unwrap();
        assert!(Network::new(vec![Box::new(fc)], 0, vec![4]).is_err());
    }

    #[test]
    fn debug_shows_width_state() {
        let net = tiny_net(2);
        let s = format!("{net:?}");
        assert!(s.contains("2/2 groups"));
    }
}
