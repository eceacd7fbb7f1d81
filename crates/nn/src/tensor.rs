//! A minimal dense `f32` tensor.
//!
//! Row-major (C-order) layout; the last axis is contiguous. The layer
//! implementations index the raw data slice directly for speed, while tests
//! and user code can use the checked [`Tensor::at`]/[`Tensor::at_mut`]
//! accessors.

use std::fmt;

use rand::Rng;

use crate::error::{NnError, Result};

/// A dense, row-major `f32` tensor of arbitrary rank.
///
/// # Examples
///
/// ```
/// use eml_nn::tensor::Tensor;
///
/// let mut t = Tensor::zeros(&[2, 3]);
/// *t.at_mut(&[1, 2]) = 5.0;
/// assert_eq!(t.at(&[1, 2]), 5.0);
/// assert_eq!(t.shape(), &[2, 3]);
/// assert_eq!(t.len(), 6);
/// ```
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor of zeros with the given shape.
    ///
    /// # Panics
    ///
    /// Panics if the shape has a zero-sized axis; empty tensors are never
    /// meaningful in this library and always indicate a bug.
    pub fn zeros(shape: &[usize]) -> Self {
        assert!(
            !shape.is_empty() && shape.iter().all(|&d| d > 0),
            "tensor shape must be non-empty with positive axes, got {shape:?}"
        );
        let len = shape.iter().product();
        Self {
            shape: shape.to_vec(),
            data: vec![0.0; len],
        }
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        let mut t = Self::zeros(shape);
        t.data.fill(value);
        t
    }

    /// Creates a tensor of uniform random values in `[-1, 1)` — the
    /// standard probe input of the test and benchmark suites.
    ///
    /// # Panics
    ///
    /// Panics on invalid shapes (see [`Tensor::zeros`]).
    pub fn random(shape: &[usize], rng: &mut impl Rng) -> Self {
        let mut t = Self::zeros(shape);
        for v in &mut t.data {
            *v = rng.gen_range(-1.0..1.0);
        }
        t
    }

    /// Overwrites every element with `value`.
    pub fn fill(&mut self, value: f32) {
        self.data.fill(value);
    }

    /// Wraps an existing buffer.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if `data.len()` does not equal the
    /// product of `shape`.
    pub fn from_vec(shape: &[usize], data: Vec<f32>) -> Result<Self> {
        let len: usize = shape.iter().product();
        if len != data.len() || shape.is_empty() {
            return Err(NnError::ShapeMismatch {
                context: "Tensor::from_vec".into(),
                expected: shape.to_vec(),
                actual: vec![data.len()],
            });
        }
        Ok(Self {
            shape: shape.to_vec(),
            data,
        })
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the raw data (row-major).
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the raw data (row-major).
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns its buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Computes the linear offset of a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index rank or any component is out of range.
    fn offset(&self, index: &[usize]) -> usize {
        assert_eq!(
            index.len(),
            self.shape.len(),
            "index rank {} does not match tensor rank {}",
            index.len(),
            self.shape.len()
        );
        let mut off = 0;
        for (i, (&ix, &dim)) in index.iter().zip(&self.shape).enumerate() {
            assert!(
                ix < dim,
                "index {ix} out of bounds for axis {i} (size {dim})"
            );
            off = off * dim + ix;
        }
        off
    }

    /// Checked element read.
    ///
    /// # Panics
    ///
    /// Panics on an index of the wrong rank or out of range.
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[self.offset(index)]
    }

    /// Checked mutable element access.
    ///
    /// # Panics
    ///
    /// Panics on an index of the wrong rank or out of range.
    pub fn at_mut(&mut self, index: &[usize]) -> &mut f32 {
        let off = self.offset(index);
        &mut self.data[off]
    }

    /// Returns a copy reshaped to `shape` (same element count).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if the element counts differ.
    pub fn reshaped(&self, shape: &[usize]) -> Result<Self> {
        Self::from_vec(shape, self.data.clone())
    }

    /// Element-wise map into a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        Self {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Maximum element (NaN-free data assumed).
    ///
    /// # Panics
    ///
    /// Never panics for constructed tensors (non-empty by invariant).
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Index of the maximum element in the flattened data.
    pub fn argmax(&self) -> usize {
        let mut best = 0;
        for (i, &v) in self.data.iter().enumerate() {
            if v > self.data[best] {
                best = i;
            }
        }
        best
    }

    /// Mean of all elements.
    pub fn mean(&self) -> f32 {
        self.sum() / self.len() as f32
    }

    /// Verifies the tensor has the expected shape.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] with the given context on failure.
    pub fn expect_shape(&self, shape: &[usize], context: &str) -> Result<()> {
        if self.shape != shape {
            return Err(NnError::ShapeMismatch {
                context: context.into(),
                expected: shape.to_vec(),
                actual: self.shape.clone(),
            });
        }
        Ok(())
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Avoid dumping megabytes of floats: show shape and a data preview.
        let preview: Vec<f32> = self.data.iter().copied().take(8).collect();
        let ellipsis = if self.data.len() > 8 { ", …" } else { "" };
        write!(f, "Tensor{:?} {preview:?}{ellipsis}", self.shape)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_full() {
        let z = Tensor::zeros(&[2, 2]);
        assert_eq!(z.data(), &[0.0; 4]);
        let f = Tensor::full(&[3], 2.5);
        assert_eq!(f.data(), &[2.5, 2.5, 2.5]);
    }

    #[test]
    fn random_is_bounded_and_seeded() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let a = Tensor::random(&[4, 5], &mut StdRng::seed_from_u64(3));
        let b = Tensor::random(&[4, 5], &mut StdRng::seed_from_u64(3));
        assert_eq!(a.data(), b.data(), "same seed, same tensor");
        assert!(a.data().iter().all(|v| (-1.0..1.0).contains(v)));
        assert!(a.data().iter().any(|&v| v != 0.0));
    }

    #[test]
    fn fill_overwrites() {
        let mut t = Tensor::random(&[3], &mut {
            use rand::SeedableRng;
            rand::rngs::StdRng::seed_from_u64(1)
        });
        t.fill(7.0);
        assert_eq!(t.data(), &[7.0, 7.0, 7.0]);
    }

    #[test]
    #[should_panic(expected = "positive axes")]
    fn zero_axis_rejected() {
        let _ = Tensor::zeros(&[2, 0]);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(&[2, 2], vec![1.0; 4]).is_ok());
        assert!(Tensor::from_vec(&[2, 2], vec![1.0; 3]).is_err());
        assert!(Tensor::from_vec(&[], vec![]).is_err());
    }

    #[test]
    fn row_major_offsets() {
        let t = Tensor::from_vec(&[2, 3, 4], (0..24).map(|i| i as f32).collect()).unwrap();
        // offset(i,j,k) = i*12 + j*4 + k
        assert_eq!(t.at(&[0, 0, 0]), 0.0);
        assert_eq!(t.at(&[1, 0, 0]), 12.0);
        assert_eq!(t.at(&[1, 2, 3]), 23.0);
        assert_eq!(t.offset(&[1, 1, 1]), 17);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_index_panics() {
        let t = Tensor::zeros(&[2, 2]);
        let _ = t.at(&[0, 2]);
    }

    #[test]
    #[should_panic(expected = "rank")]
    fn wrong_rank_index_panics() {
        let t = Tensor::zeros(&[2, 2]);
        let _ = t.at(&[0]);
    }

    #[test]
    fn map_and_reduce() {
        let t = Tensor::from_vec(&[4], vec![1.0, -2.0, 3.0, -4.0]).unwrap();
        let relu = t.map(|x| x.max(0.0));
        assert_eq!(relu.data(), &[1.0, 0.0, 3.0, 0.0]);
        assert_eq!(t.sum(), -2.0);
        assert_eq!(t.max(), 3.0);
        assert_eq!(t.argmax(), 2);
        assert_eq!(t.mean(), -0.5);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(&[2, 3], (0..6).map(|i| i as f32).collect()).unwrap();
        let r = t.reshaped(&[3, 2]).unwrap();
        assert_eq!(r.shape(), &[3, 2]);
        assert_eq!(r.data(), t.data());
        assert!(t.reshaped(&[4, 2]).is_err());
    }

    #[test]
    fn expect_shape_reports_context() {
        let t = Tensor::zeros(&[1, 2]);
        let err = t.expect_shape(&[2, 1], "unit test").unwrap_err();
        assert!(err.to_string().contains("unit test"));
        assert!(t.expect_shape(&[1, 2], "ok").is_ok());
    }

    #[test]
    fn debug_output_is_bounded() {
        let t = Tensor::zeros(&[100, 100]);
        let s = format!("{t:?}");
        assert!(s.len() < 200, "debug output should preview, not dump: {s}");
        assert!(s.contains("[100, 100]"));
    }
}
