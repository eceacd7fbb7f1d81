//! Spatial pooling layers.

use crate::error::{NnError, Result};
use crate::layer::{recycle, spare_f32, spare_i16, ChainSupport, Layer, LayerCost};
use crate::quant::QAct;
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

/// One step of every window maximum: `v` replaces `best` only when
/// strictly greater, so NaN never wins and the first of equal values
/// (`-0.0` before `+0.0`) stays. It is the select a packed max computes
/// (`maxps`, `pmaxsw`).
#[inline(always)]
fn max_step<T: PoolValue>(best: T, v: T) -> T {
    if v > best {
        v
    } else {
        best
    }
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

    /// The inference pool of both element types: each output is the
    /// window maximum folded by [`max_step`] from `T::LOWEST` over the
    /// window in row-major order — the order and comparisons of
    /// [`MaxPool2d::windows`], without its argmax offsets, so the
    /// values are bit for bit the training pool's. The 2×2 loop runs
    /// over row iterators with nothing else in it: its vector body
    /// covers the short output rows of the served models (8 and 4
    /// wide), which the argmax loop's inference instance ran mostly in
    /// per-row setup and its scalar tail.
    fn pool_values<T: PoolValue>(&self, x: &[T], in_shape: &[usize], o: &mut [T]) {
        let (h, w) = (in_shape[2], in_shape[3]);
        let (oh, ow) = self.out_hw(h, w);
        let win = self.window;
        let planes = x.chunks_exact(h * w).zip(o.chunks_exact_mut(oh * ow));
        for (xp, op) in planes {
            for (rows, orow) in xp.chunks_exact(win * w).zip(op.chunks_exact_mut(ow)) {
                if win == 2 {
                    let (r0, r1) = rows.split_at(w);
                    let pairs = r0.chunks_exact(2).zip(r1.chunks_exact(2));
                    for (out, (a, b)) in orow.iter_mut().zip(pairs) {
                        let top = max_step(max_step(T::LOWEST, a[0]), a[1]);
                        *out = max_step(max_step(top, b[0]), b[1]);
                    }
                    continue;
                }
                for (owx, out) in orow.iter_mut().enumerate() {
                    let window = rows.chunks_exact(w).flat_map(|r| &r[owx * win..][..win]);
                    *out = window.fold(T::LOWEST, |best, &v| max_step(best, v));
                }
            }
        }
    }

    /// The training window loop: hands `emit` each output index with
    /// the strict-`>` maximum of its window, seeded from `T::LOWEST`
    /// (so NaN candidates are skipped, as in
    /// [`MaxPool2d::pool_values`]), and the input offset of that
    /// maximum, seeded with the window's own first element (so a window
    /// that no candidate wins still routes its gradient inside itself).
    /// A 2×2 window reads its four candidates from two row slices.
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
            self.pool_values(x, shape, out.data_mut());
            return Ok(out);
        }
        // The argmax buffers are reused across training steps (no
        // per-call alloc).
        let (mut in_shape, mut offsets) = self.argmax.take().unwrap_or_default();
        offsets.clear();
        offsets.resize(out.len(), 0);
        let o = out.data_mut();
        self.windows(x, shape, |oi, best, off| {
            o[oi] = best;
            offsets[oi] = off;
        });
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

    /// The value-only pool of either form into a spare buffer; an
    /// int8 activation keeps its incoming scale (integer compares).
    fn infer(&mut self, input: QAct, _out_scale: Option<f32>, _fuse_relu: bool) -> Result<QAct> {
        let [n, c, oh, ow] = self.out_shape(input.shape(), "forward")?;
        let out = match &input {
            QAct::F32(x) => {
                let mut out = spare_f32(n, &[c, oh, ow]);
                self.pool_values(x.data(), x.shape(), out.data_mut());
                QAct::F32(out)
            }
            QAct::I8(q) => {
                let mut out = spare_i16(n, &[c, oh, ow], q.scale());
                self.pool_values(q.data(), q.shape(), out.data_mut());
                QAct::I8(out)
            }
        };
        recycle(input);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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

    /// Candidate values of the generated planes: NaN, both zeros, both
    /// infinities and few enough finite values that windows tie.
    const F32_PALETTE: [f32; 8] = [
        f32::NAN,
        -0.0,
        0.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        1.0,
        -1.0,
        0.5,
    ];
    /// The int8-grid palette, `i16::MIN` (the seed) included.
    const I16_PALETTE: [i16; 6] = [i16::MIN, -127, -1, 0, 1, 127];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The value-only inference pool equals the training (argmax)
        /// pool bit for bit — NaN skipped, the first of tied `±0.0`
        /// kept, whole-NaN windows at `-inf` — for the 2×2 fast path
        /// and the general window, odd sizes included, in `f32` (eval
        /// forward and the by-value step) and on the int8 grid (the
        /// by-value step against the generic argmax loop).
        #[test]
        fn nan_candidates_pool_alike_in_eval_and_train(
            window in 2usize..=3,
            n in 1usize..=2,
            c in 1usize..=3,
            h in 3usize..=9,
            w in 3usize..=9,
            picks in proptest::collection::vec(0usize..48, 2 * 3 * 9 * 9..2 * 3 * 9 * 9 + 1),
        ) {
            let shape = [n, c, h, w];
            let len = n * c * h * w;
            // The first window of plane 0 is all NaN (all `i16::MIN`).
            let mut picks = picks;
            for row in 0..window {
                picks[row * w..][..window].fill(0);
            }
            let xf: Vec<f32> = picks[..len].iter().map(|&p| F32_PALETTE[p % 8]).collect();
            let x = Tensor::from_vec(&shape, xf).unwrap();
            let mut p = MaxPool2d::new("p", window);
            let bits = |t: &[f32]| t.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            let eval = p.forward(&x, false).unwrap();
            let train = p.forward(&x, true).unwrap();
            prop_assert_eq!(eval.data()[0], f32::NEG_INFINITY);
            prop_assert!(eval.data().iter().all(|v| !v.is_nan()), "eval output holds NaN");
            prop_assert_eq!(bits(eval.data()), bits(train.data()), "f32 eval vs train");
            let QAct::F32(step) = p.infer(QAct::F32(x.clone()), None, false).unwrap() else {
                panic!("an f32 activation stays f32");
            };
            prop_assert!(step.data().iter().all(|v| !v.is_nan()), "step output holds NaN");
            prop_assert_eq!(bits(step.data()), bits(train.data()), "f32 step vs train");

            let mut q = crate::quant::QTensor::zeros(&shape, 0.5);
            for (d, &p) in q.data_mut().iter_mut().zip(&picks) {
                *d = I16_PALETTE[p % 6];
            }
            let mut want = vec![0i16; eval.len()];
            p.windows(q.data(), q.shape(), |oi, best, _| want[oi] = best);
            let QAct::I8(step) = p.infer(QAct::I8(q), None, false).unwrap() else {
                panic!("an int8 activation stays int8");
            };
            prop_assert_eq!(step.data()[0], i16::MIN);
            prop_assert_eq!(step.data(), &want[..], "i16 step vs argmax loop");
            prop_assert_eq!(step.scale(), 0.5);
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
