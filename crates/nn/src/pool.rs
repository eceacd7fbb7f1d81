//! Spatial pooling layers.

use crate::error::{NnError, Result};
use crate::layer::{ChainSupport, Layer, LayerCost};
use crate::quant::{QAct, QTensor};
use crate::tensor::Tensor;

/// 2-D max pooling with square window and stride equal to the window size.
#[derive(Debug)]
pub struct MaxPool2d {
    name: String,
    window: usize,
    /// Cached argmax offsets (into the input data) for backward.
    argmax: Option<(Vec<usize>, Vec<usize>)>, // (input shape flattened marker, offsets)
    in_shape: Option<Vec<usize>>,
}

impl MaxPool2d {
    /// Creates a max-pool layer with a `window × window` kernel and the same
    /// stride.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero (programmer error).
    pub fn new(name: impl Into<String>, window: usize) -> Self {
        assert!(window > 0, "pool window must be positive");
        Self {
            name: name.into(),
            window,
            argmax: None,
            in_shape: None,
        }
    }

    fn out_hw(&self, h: usize, w: usize) -> (usize, usize) {
        (h / self.window, w / self.window)
    }

    /// The generic window loop, tracking argmax when `offsets` is
    /// given. `plane` is the offset of the current channel plane.
    #[allow(clippy::too_many_arguments)]
    fn pool_plane(
        &self,
        x: &[f32],
        plane: usize,
        h: usize,
        w: usize,
        o: &mut [f32],
        mut offsets: Option<&mut [usize]>,
        oi0: usize,
    ) {
        let (oh, ow) = self.out_hw(h, w);
        let win = self.window;
        if win == 2 {
            // Fast path for the ubiquitous 2×2 window: two row slices
            // per output row instead of four indexed lookups per
            // output. First maximum wins, as in the generic loop.
            for ohy in 0..oh {
                let row0 = plane + (2 * ohy) * w;
                let r0 = &x[row0..][..w];
                let r1 = &x[row0 + w..][..w];
                let orow = &mut o[oi0 + ohy * ow..][..ow];
                match offsets.as_deref_mut() {
                    None => {
                        for (owx, out) in orow.iter_mut().enumerate() {
                            // Strict comparisons (not f32::max) so NaN
                            // candidates are skipped exactly as in the
                            // train path and the generic loop below.
                            let i = 2 * owx;
                            let mut best = f32::NEG_INFINITY;
                            for &v in &[r0[i], r0[i + 1], r1[i], r1[i + 1]] {
                                if v > best {
                                    best = v;
                                }
                            }
                            *out = best;
                        }
                    }
                    Some(offs) => {
                        let offs = &mut offs[oi0 + ohy * ow..][..ow];
                        for (owx, (out, off)) in orow.iter_mut().zip(offs).enumerate() {
                            let i = 2 * owx;
                            // Seed with -inf and use the generic loop's
                            // strict comparisons so a NaN candidate is
                            // skipped (not propagated) exactly as in
                            // eval mode and the window > 2 path.
                            let mut best = f32::NEG_INFINITY;
                            let mut best_off = row0 + i;
                            if r0[i] > best {
                                best = r0[i];
                                best_off = row0 + i;
                            }
                            if r0[i + 1] > best {
                                best = r0[i + 1];
                                best_off = row0 + i + 1;
                            }
                            if r1[i] > best {
                                best = r1[i];
                                best_off = row0 + w + i;
                            }
                            if r1[i + 1] > best {
                                best = r1[i + 1];
                                best_off = row0 + w + i + 1;
                            }
                            *out = best;
                            *off = best_off;
                        }
                    }
                }
            }
            return;
        }
        let mut oi = oi0;
        let mut offsets = offsets;
        for ohy in 0..oh {
            for owx in 0..ow {
                let mut best = f32::NEG_INFINITY;
                let mut best_off = 0;
                for ky in 0..win {
                    for kx in 0..win {
                        let off = plane + (ohy * win + ky) * w + owx * win + kx;
                        if x[off] > best {
                            best = x[off];
                            best_off = off;
                        }
                    }
                }
                o[oi] = best;
                if let Some(offs) = offsets.as_deref_mut() {
                    offs[oi] = best_off;
                }
                oi += 1;
            }
        }
    }
}

impl Layer for MaxPool2d {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor> {
        let shape = input.shape();
        if shape.len() != 4 {
            return Err(NnError::ShapeMismatch {
                context: format!("maxpool `{}` forward", self.name),
                expected: vec![0, 0, 0, 0],
                actual: shape.to_vec(),
            });
        }
        let (n, c, h, w) = (shape[0], shape[1], shape[2], shape[3]);
        if h < self.window || w < self.window {
            return Err(NnError::ShapeMismatch {
                context: format!(
                    "maxpool `{}`: input {h}x{w} smaller than window {}",
                    self.name, self.window
                ),
                expected: vec![self.window, self.window],
                actual: vec![h, w],
            });
        }
        let (oh, ow) = self.out_hw(h, w);
        let mut out = Tensor::zeros(&[n, c, oh, ow]);
        let x = input.data();
        // Argmax bookkeeping only exists in training mode; the buffer
        // is reused across steps (no per-call alloc).
        let mut offsets = if train {
            let (_, mut offs) = self.argmax.take().unwrap_or_default();
            offs.clear();
            offs.resize(n * c * oh * ow, 0);
            Some(offs)
        } else {
            None
        };
        let o = out.data_mut();
        for ni in 0..n {
            for ci in 0..c {
                let plane = (ni * c + ci) * h * w;
                let oi0 = (ni * c + ci) * oh * ow;
                self.pool_plane(x, plane, h, w, o, offsets.as_deref_mut(), oi0);
            }
        }
        if let Some(offsets) = offsets {
            self.argmax = Some((vec![x.len()], offsets));
            self.in_shape = Some(shape.to_vec());
        }
        Ok(out)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let (marker, offsets) = self.argmax.as_ref().ok_or_else(|| NnError::InvalidConfig {
            reason: format!("maxpool `{}`: backward before training forward", self.name),
        })?;
        if grad_out.len() != offsets.len() {
            return Err(NnError::ShapeMismatch {
                context: format!("maxpool `{}` backward", self.name),
                expected: vec![offsets.len()],
                actual: vec![grad_out.len()],
            });
        }
        let in_shape = self.in_shape.as_ref().expect("set with argmax");
        let mut grad_in = Tensor::zeros(in_shape);
        debug_assert_eq!(grad_in.len(), marker[0]);
        let gi = grad_in.data_mut();
        for (o, &off) in grad_out.data().iter().zip(offsets) {
            gi[off] += o;
        }
        Ok(grad_in)
    }

    fn cost(&self, in_shape: &[usize]) -> Result<LayerCost> {
        if in_shape.len() != 3 {
            return Err(NnError::ShapeMismatch {
                context: format!("maxpool `{}` cost", self.name),
                expected: vec![0, 0, 0],
                actual: in_shape.to_vec(),
            });
        }
        let (oh, ow) = self.out_hw(in_shape[1], in_shape[2]);
        Ok(LayerCost {
            macs: 0.0,
            params: 0,
            out_shape: vec![in_shape[0], oh, ow],
        })
    }

    fn chain_support(&self) -> ChainSupport {
        // max commutes exactly with the monotone round-and-clamp of
        // requantisation, so pooling on the int8 grid equals pooling
        // in f32 and quantising after — order-preserving.
        ChainSupport::Transparent
    }

    /// Int8 fast path: the same window maximum over grid values
    /// (integer compares, no argmax bookkeeping — chains run inference
    /// only), passing the incoming scale through unchanged.
    fn forward_chained(
        &mut self,
        input: QAct,
        _out_scale: Option<f32>,
        _fuse_relu: bool,
    ) -> Result<QAct> {
        let QAct::I8(q) = input else {
            return Err(NnError::InvalidConfig {
                reason: format!(
                    "maxpool `{}`: chained forward needs quantised input",
                    self.name
                ),
            });
        };
        let shape = q.shape();
        if shape.len() != 4 {
            return Err(NnError::ShapeMismatch {
                context: format!("maxpool `{}` chained forward", self.name),
                expected: vec![0, 0, 0, 0],
                actual: shape.to_vec(),
            });
        }
        let (n, c, h, w) = (shape[0], shape[1], shape[2], shape[3]);
        if h < self.window || w < self.window {
            return Err(NnError::ShapeMismatch {
                context: format!(
                    "maxpool `{}`: input {h}x{w} smaller than window {}",
                    self.name, self.window
                ),
                expected: vec![self.window, self.window],
                actual: vec![h, w],
            });
        }
        let (oh, ow) = self.out_hw(h, w);
        let win = self.window;
        let mut out = QTensor::zeros(&[n, c, oh, ow], q.scale());
        let x = q.data();
        let o = out.data_mut();
        for plane_idx in 0..n * c {
            let plane = plane_idx * h * w;
            let oi0 = plane_idx * oh * ow;
            if win == 2 {
                // 2×2 fast path, mirroring the f32 form: two row
                // slices per output row instead of indexed lookups.
                for ohy in 0..oh {
                    let row0 = plane + (2 * ohy) * w;
                    let r0 = &x[row0..][..w];
                    let r1 = &x[row0 + w..][..w];
                    let orow = &mut o[oi0 + ohy * ow..][..ow];
                    for (owx, out_v) in orow.iter_mut().enumerate() {
                        let i = 2 * owx;
                        *out_v = r0[i].max(r0[i + 1]).max(r1[i]).max(r1[i + 1]);
                    }
                }
                continue;
            }
            for ohy in 0..oh {
                for owx in 0..ow {
                    let mut best = i16::MIN;
                    for ky in 0..win {
                        let row = plane + (ohy * win + ky) * w + owx * win;
                        for &v in &x[row..row + win] {
                            if v > best {
                                best = v;
                            }
                        }
                    }
                    o[oi0 + ohy * ow + owx] = best;
                }
            }
        }
        Ok(QAct::I8(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maxpool_forward_picks_window_max() {
        let mut p = MaxPool2d::new("p", 2);
        let x =
            Tensor::from_vec(&[1, 1, 2, 4], vec![1.0, 2.0, 5.0, 3.0, 4.0, 0.0, -1.0, 6.0]).unwrap();
        let y = p.forward(&x, false).unwrap();
        assert_eq!(y.shape(), &[1, 1, 1, 2]);
        assert_eq!(y.data(), &[4.0, 6.0]);
    }

    #[test]
    fn maxpool_backward_routes_gradient_to_argmax() {
        let mut p = MaxPool2d::new("p", 2);
        let x = Tensor::from_vec(&[1, 1, 2, 2], vec![1.0, 9.0, 3.0, 4.0]).unwrap();
        let _ = p.forward(&x, true).unwrap();
        let g = Tensor::full(&[1, 1, 1, 1], 2.0);
        let gi = p.backward(&g).unwrap();
        assert_eq!(gi.data(), &[0.0, 2.0, 0.0, 0.0]);
    }

    #[test]
    fn maxpool_truncates_odd_sizes() {
        let mut p = MaxPool2d::new("p", 2);
        let x = Tensor::zeros(&[1, 1, 5, 5]);
        let y = p.forward(&x, false).unwrap();
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
    }

    #[test]
    fn maxpool_rejects_small_input_and_bad_rank() {
        let mut p = MaxPool2d::new("p", 4);
        assert!(p.forward(&Tensor::zeros(&[1, 1, 2, 2]), false).is_err());
        assert!(p.forward(&Tensor::zeros(&[1, 4]), false).is_err());
    }

    #[test]
    fn maxpool_backward_needs_forward() {
        let mut p = MaxPool2d::new("p", 2);
        assert!(p.backward(&Tensor::zeros(&[1, 1, 1, 1])).is_err());
    }

    #[test]
    fn pool_costs_propagate_shape() {
        let p = MaxPool2d::new("p", 2);
        assert_eq!(p.cost(&[8, 16, 16]).unwrap().out_shape, vec![8, 8, 8]);
        assert!(p.cost(&[8, 16]).is_err());
    }
}
