//! Spatial pooling layers.

use crate::error::{NnError, Result};
use crate::layer::{ChainSupport, Layer, LayerCost};
use crate::quant::{QAct, QTensor};
use crate::tensor::Tensor;

/// An element MaxPool compares: `f32` activations and int8-grid values
/// in `i16` storage.
trait PoolValue: Copy + PartialOrd {
    /// The seed of every window maximum. Comparisons are strict `>`,
    /// so a NaN candidate never replaces it.
    const LOWEST: Self;
}

impl PoolValue for f32 {
    const LOWEST: Self = f32::NEG_INFINITY;
}

impl PoolValue for i16 {
    const LOWEST: Self = i16::MIN;
}

/// 2-D max pooling with square window and stride equal to the window size.
#[derive(Debug)]
pub struct MaxPool2d {
    name: String,
    window: usize,
    /// Training cache for backward: the input shape and, per output
    /// element, the input offset of its window maximum.
    argmax: Option<(Vec<usize>, Vec<usize>)>,
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
        }
    }

    fn out_hw(&self, h: usize, w: usize) -> (usize, usize) {
        (h / self.window, w / self.window)
    }

    /// Checks a forward input (`what` names the caller in the error)
    /// and returns the output shape `[n, c, oh, ow]`.
    fn out_shape(&self, shape: &[usize], what: &str) -> Result<[usize; 4]> {
        let &[n, c, h, w] = shape else {
            return Err(NnError::ShapeMismatch {
                context: format!("maxpool `{}` {what}", self.name),
                expected: vec![0, 0, 0, 0],
                actual: shape.to_vec(),
            });
        };
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
        Ok([n, c, oh, ow])
    }

    /// Pools `x` (shape `in_shape`) into `o`, recording each output's
    /// argmax input offset when `offsets` is given (training).
    fn pool<T: PoolValue>(
        &self,
        x: &[T],
        in_shape: &[usize],
        o: &mut [T],
        offsets: Option<&mut [usize]>,
    ) {
        match offsets {
            None => self.windows(x, in_shape, |oi, best, _| o[oi] = best),
            Some(offs) => self.windows(x, in_shape, |oi, best, off| {
                o[oi] = best;
                offs[oi] = off;
            }),
        }
    }

    /// The window loop of both element types: hands `emit` each output
    /// index with the strict-`>` maximum of its window, seeded from
    /// `T::LOWEST` (so NaN candidates are skipped in every mode), and
    /// the input offset of that maximum, seeded with the window's own
    /// first element (so a window that no candidate wins still routes
    /// its gradient inside itself). A 2×2 window reads its four
    /// candidates from two row slices.
    fn windows<T: PoolValue>(
        &self,
        x: &[T],
        in_shape: &[usize],
        mut emit: impl FnMut(usize, T, usize),
    ) {
        let (h, w) = (in_shape[2], in_shape[3]);
        let (oh, ow) = self.out_hw(h, w);
        let win = self.window;
        let mut oi = 0;
        for plane in 0..in_shape[0] * in_shape[1] {
            for ohy in 0..oh {
                let row0 = plane * h * w + ohy * win * w;
                if win == 2 {
                    let r0 = &x[row0..][..2 * ow];
                    let r1 = &x[row0 + w..][..2 * ow];
                    for (owx, (a, b)) in r0.chunks_exact(2).zip(r1.chunks_exact(2)).enumerate() {
                        let first = row0 + 2 * owx;
                        let (best, off) = window_max(
                            first,
                            [
                                (a[0], first),
                                (a[1], first + 1),
                                (b[0], first + w),
                                (b[1], first + w + 1),
                            ],
                        );
                        emit(oi, best, off);
                        oi += 1;
                    }
                    continue;
                }
                for owx in 0..ow {
                    let first = row0 + owx * win;
                    let candidates = (0..win).flat_map(|ky| {
                        let row = first + ky * w;
                        (row..row + win).map(|i| (x[i], i))
                    });
                    let (best, off) = window_max(first, candidates);
                    emit(oi, best, off);
                    oi += 1;
                }
            }
        }
    }
}

/// The strict-`>` maximum over `(value, offset)` candidates, starting
/// from `(T::LOWEST, first)`.
#[inline(always)]
fn window_max<T: PoolValue>(
    first: usize,
    candidates: impl IntoIterator<Item = (T, usize)>,
) -> (T, usize) {
    let mut best = (T::LOWEST, first);
    for (v, off) in candidates {
        if v > best.0 {
            best = (v, off);
        }
    }
    best
}

impl Layer for MaxPool2d {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor> {
        let mut out = Tensor::zeros(&self.out_shape(input.shape(), "forward")?);
        let (x, shape) = (input.data(), input.shape());
        if !train {
            self.pool(x, shape, out.data_mut(), None);
            return Ok(out);
        }
        // The argmax buffers are reused across training steps (no
        // per-call alloc).
        let (mut in_shape, mut offsets) = self.argmax.take().unwrap_or_default();
        offsets.clear();
        offsets.resize(out.len(), 0);
        self.pool(x, shape, out.data_mut(), Some(&mut offsets));
        in_shape.clear();
        in_shape.extend_from_slice(shape);
        self.argmax = Some((in_shape, offsets));
        Ok(out)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let (in_shape, offsets) = self.argmax.as_ref().ok_or_else(|| NnError::InvalidConfig {
            reason: format!("maxpool `{}`: backward before training forward", self.name),
        })?;
        if grad_out.len() != offsets.len() {
            return Err(NnError::ShapeMismatch {
                context: format!("maxpool `{}` backward", self.name),
                expected: vec![offsets.len()],
                actual: vec![grad_out.len()],
            });
        }
        let mut grad_in = Tensor::zeros(in_shape);
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

    /// Int8 fast path: the same window loop over grid values (integer
    /// compares, no argmax bookkeeping — chains run inference only),
    /// passing the incoming scale through unchanged.
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
        let mut out = QTensor::zeros(&self.out_shape(q.shape(), "chained forward")?, q.scale());
        self.pool(q.data(), q.shape(), out.data_mut(), None);
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

    /// A window no candidate wins (all NaN here) keeps its own first
    /// element as argmax: its gradient must not leak to input 0, which
    /// belongs to another sample.
    #[test]
    fn maxpool_unwinnable_window_routes_gradient_inside_itself() {
        let mut p = MaxPool2d::new("p", 3);
        let mut data: Vec<f32> = (0..9).map(|i| i as f32).collect();
        data.extend([f32::NAN; 9]);
        let x = Tensor::from_vec(&[2, 1, 3, 3], data).unwrap();
        let y = p.forward(&x, true).unwrap();
        assert_eq!(y.data(), &[8.0, f32::NEG_INFINITY]);
        let g = Tensor::from_vec(&[2, 1, 1, 1], vec![1.0, 2.0]).unwrap();
        let gi = p.backward(&g).unwrap();
        assert_eq!(gi.data()[8], 1.0, "sample 0 routes to its max");
        assert_eq!(gi.data()[0], 0.0, "nothing leaks to input 0");
        assert_eq!(gi.data()[9], 2.0, "the NaN window keeps its gradient");
        assert_eq!(gi.sum(), 3.0);
    }

    /// NaN candidates are skipped the same way with and without argmax
    /// bookkeeping, for the 2×2 fast path and the general window.
    #[test]
    fn nan_candidates_pool_alike_in_eval_and_train() {
        for window in [2usize, 3] {
            let mut data: Vec<f32> = (0..2 * 2 * 6 * 6)
                .map(|i| match i % 7 {
                    0 | 3 => f32::NAN,
                    _ => (i as f32 * 0.37).sin(),
                })
                .collect();
            // The first window of plane 0 is all NaN.
            for row in 0..window {
                data[row * 6..][..window].fill(f32::NAN);
            }
            let x = Tensor::from_vec(&[2, 2, 6, 6], data).unwrap();
            let mut p = MaxPool2d::new("p", window);
            let eval = p.forward(&x, false).unwrap();
            let train = p.forward(&x, true).unwrap();
            assert!(eval.data().iter().all(|v| !v.is_nan()), "window {window}");
            assert_eq!(eval.data()[0], f32::NEG_INFINITY, "window {window}");
            let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&eval), bits(&train), "window {window}");
        }
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
