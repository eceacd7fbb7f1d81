//! Parameter-free layers: ReLU and Flatten.

use eml_simd::relu;

use crate::error::{NnError, Result};
use crate::layer::{ChainSupport, Layer, LayerCost};
use crate::quant::QAct;
use crate::tensor::Tensor;

/// Rectified linear unit, applied element-wise. Every path — eval,
/// training and the epilogue a compute layer folds it into — is
/// [`eml_simd::relu`], so NaN and `-0.0` both give `+0.0` everywhere.
#[derive(Debug, Default)]
pub struct Relu {
    name: String,
    mask: Option<Vec<bool>>,
}

impl Relu {
    /// Creates a named ReLU layer.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            mask: None,
        }
    }
}

impl Layer for Relu {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor> {
        let mut out = input.clone();
        if train {
            // One fused pass computes output and mask together; the
            // mask buffer is reused across steps (no per-call alloc).
            let mask = self.mask.get_or_insert_with(Vec::new);
            mask.clear();
            mask.resize(out.len(), false);
            for (v, m) in out.data_mut().iter_mut().zip(mask.iter_mut()) {
                *m = *v > 0.0;
                *v = relu(*v);
            }
        } else {
            for v in out.data_mut() {
                *v = relu(*v);
            }
        }
        Ok(out)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let mask = self.mask.as_ref().ok_or_else(|| NnError::InvalidConfig {
            reason: format!("relu `{}`: backward before training forward", self.name),
        })?;
        if mask.len() != grad_out.len() {
            return Err(NnError::ShapeMismatch {
                context: format!("relu `{}` backward", self.name),
                expected: vec![mask.len()],
                actual: vec![grad_out.len()],
            });
        }
        let mut grad = grad_out.clone();
        for (g, &m) in grad.data_mut().iter_mut().zip(mask) {
            if !m {
                *g = 0.0;
            }
        }
        Ok(grad)
    }

    fn cost(&self, in_shape: &[usize]) -> Result<LayerCost> {
        Ok(LayerCost {
            macs: 0.0,
            params: 0,
            out_shape: in_shape.to_vec(),
        })
    }

    fn chain_support(&self) -> ChainSupport {
        // ReLU commutes exactly with the monotone round-and-clamp of
        // requantisation (round(0) = 0), so on the int8 grid it is a
        // plain `max(0)` — and when it directly follows a quantised
        // layer the planner folds it into that layer's epilogue for
        // free.
        ChainSupport::TransparentRelu
    }

    /// In place on the owned activation. On the int8 grid it is
    /// `max(0)` on the grid values — scale is positive, so the clamp
    /// is order-preserving and exactly equivalent to f32 ReLU before
    /// quantisation.
    fn infer(
        &mut self,
        mut input: QAct,
        _out_scale: Option<f32>,
        _fuse_relu: bool,
    ) -> Result<QAct> {
        match &mut input {
            QAct::F32(t) => {
                for v in t.data_mut() {
                    *v = relu(*v);
                }
            }
            QAct::I8(q) => {
                for v in q.data_mut() {
                    *v = (*v).max(0);
                }
            }
        }
        Ok(input)
    }
}

/// Flattens `[N, C, H, W]` (or any rank ≥ 2) into `[N, F]`.
///
/// Channel-major flattening is what makes width pruning compose with the
/// classifier: the first `C_active·H·W` features of the flattened vector
/// are exactly the features of the active channel groups.
#[derive(Debug, Default)]
pub struct Flatten {
    name: String,
    in_shape: Option<Vec<usize>>,
}

impl Flatten {
    /// Creates a named Flatten layer.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            in_shape: None,
        }
    }
}

impl Layer for Flatten {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor> {
        let shape = input.shape();
        if shape.len() < 2 {
            return Err(NnError::ShapeMismatch {
                context: format!("flatten `{}` forward", self.name),
                expected: vec![0, 0],
                actual: shape.to_vec(),
            });
        }
        if train {
            self.in_shape = Some(shape.to_vec());
        }
        let n = shape[0];
        let f: usize = shape[1..].iter().product();
        input.reshaped(&[n, f])
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let shape = self
            .in_shape
            .as_ref()
            .ok_or_else(|| NnError::InvalidConfig {
                reason: format!("flatten `{}`: backward before training forward", self.name),
            })?;
        grad_out.reshaped(shape)
    }

    fn cost(&self, in_shape: &[usize]) -> Result<LayerCost> {
        Ok(LayerCost {
            macs: 0.0,
            params: 0,
            out_shape: vec![in_shape.iter().product()],
        })
    }

    fn chain_support(&self) -> ChainSupport {
        // A pure metadata change: quantised values pass through
        // untouched at their incoming scale.
        ChainSupport::Transparent
    }

    /// In place on the owned activation: a metadata change of either
    /// form, the values pass through untouched.
    fn infer(
        &mut self,
        mut input: QAct,
        _out_scale: Option<f32>,
        _fuse_relu: bool,
    ) -> Result<QAct> {
        let shape = input.shape();
        if shape.len() < 2 {
            return Err(NnError::ShapeMismatch {
                context: format!("flatten `{}` forward", self.name),
                expected: vec![0, 0],
                actual: shape.to_vec(),
            });
        }
        let nf = [shape[0], shape[1..].iter().product()];
        match &mut input {
            QAct::F32(t) => t.reshape(&nf)?,
            QAct::I8(q) => q.reshape(&nf)?,
        }
        Ok(input)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_forward_clamps_negatives() {
        let mut relu = Relu::new("r");
        let x = Tensor::from_vec(&[4], vec![-1.0, 0.0, 2.0, -3.0]).unwrap();
        let y = relu.forward(&x, false).unwrap();
        assert_eq!(y.data(), &[0.0, 0.0, 2.0, 0.0]);
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    /// Every ReLU gives the same bits at the IEEE edges: eval, training
    /// and the epilogue a conv folds it into all map `-0.0` and NaN to
    /// `+0.0` (`eml_simd::relu`), where `f32::max(0.0)` left the sign
    /// of a zero to the compiler.
    #[test]
    fn relu_zero_sign_and_nan_agree_in_every_path() {
        use crate::conv::{Conv2d, Conv2dConfig};
        use crate::network::Network;
        use rand::SeedableRng;

        let edges = [
            -0.0,
            0.0,
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            -1e-40,
            1e-40,
            -2.5,
        ];
        let x = Tensor::from_vec(&[1, 1, 3, 3], edges.to_vec()).unwrap();
        let expect: Vec<u32> = edges
            .iter()
            .map(|&v| if v > 0.0 { v } else { 0.0f32 }.to_bits())
            .collect();
        let mut relu = Relu::new("r");
        assert_eq!(bits(&relu.forward(&x, false).unwrap()), expect, "eval");
        assert_eq!(bits(&relu.forward(&x, true).unwrap()), expect, "train");

        // A 1×1 conv then ReLU: the walk folds the ReLU into the conv's
        // epilogue; the per-layer path runs it as its own pass.
        let cfg = Conv2dConfig {
            in_channels: 1,
            out_channels: 1,
            kernel: 1,
            stride: 1,
            padding: 0,
            conv_groups: 1,
            prune_groups: 1,
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut conv = Conv2d::new("c", cfg, &mut rng).unwrap();
        let conv_out = conv.forward(&x, false).unwrap();
        let eval = relu.forward(&conv_out, false).unwrap();
        let train = relu.forward(&conv_out, true).unwrap();
        let layers: Vec<Box<dyn Layer>> = vec![Box::new(conv), Box::new(Relu::new("r"))];
        let mut net = Network::new(layers, 1, vec![1, 3, 3]).unwrap();
        assert_eq!(net.plan_quant_chain().fused_relus(), 1);
        let fused = net.forward(&x, false).unwrap();
        assert_eq!(bits(&fused), bits(&eval), "fused vs eval");
        assert_eq!(bits(&fused), bits(&train), "fused vs train");
        assert!(
            conv_out.data().iter().any(|v| v.is_nan()),
            "NaN reached the relu"
        );
    }

    #[test]
    fn relu_backward_masks_gradient() {
        let mut relu = Relu::new("r");
        let x = Tensor::from_vec(&[4], vec![-1.0, 0.5, 2.0, -3.0]).unwrap();
        let _ = relu.forward(&x, true).unwrap();
        let g = Tensor::full(&[4], 1.0);
        let gi = relu.backward(&g).unwrap();
        assert_eq!(gi.data(), &[0.0, 1.0, 1.0, 0.0]);
    }

    #[test]
    fn relu_backward_without_forward_errors() {
        let mut relu = Relu::new("r");
        assert!(relu.backward(&Tensor::zeros(&[1])).is_err());
    }

    #[test]
    fn relu_backward_shape_checked() {
        let mut relu = Relu::new("r");
        let _ = relu.forward(&Tensor::zeros(&[4]), true).unwrap();
        assert!(relu.backward(&Tensor::zeros(&[5])).is_err());
    }

    #[test]
    fn flatten_round_trip() {
        let mut fl = Flatten::new("f");
        let x = Tensor::from_vec(&[2, 3, 2, 2], (0..24).map(|i| i as f32).collect()).unwrap();
        let y = fl.forward(&x, true).unwrap();
        assert_eq!(y.shape(), &[2, 12]);
        // Channel-major ordering preserved.
        assert_eq!(y.at(&[0, 0]), x.at(&[0, 0, 0, 0]));
        assert_eq!(y.at(&[0, 4]), x.at(&[0, 1, 0, 0]));
        let g = fl.backward(&y).unwrap();
        assert_eq!(g.shape(), x.shape());
        assert_eq!(g.data(), x.data());
    }

    #[test]
    fn flatten_rejects_rank_one() {
        let mut fl = Flatten::new("f");
        assert!(fl.forward(&Tensor::zeros(&[4]), false).is_err());
    }

    #[test]
    fn parameter_free_costs() {
        let relu = Relu::new("r");
        let c = relu.cost(&[8, 4, 4]).unwrap();
        assert_eq!(c.macs, 0.0);
        assert_eq!(c.params, 0);
        assert_eq!(c.out_shape, vec![8, 4, 4]);
        let fl = Flatten::new("f");
        let c = fl.cost(&[8, 4, 4]).unwrap();
        assert_eq!(c.out_shape, vec![128]);
    }
}
