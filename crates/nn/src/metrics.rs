//! Evaluation metrics: top-1 accuracy, per-class breakdown (for the
//! Fig 4(b) error bars) and softmax confidence (a platform-independent
//! monitor in the paper's Fig 5).

use crate::dataset::{make_batch, Sample};
use crate::error::Result;
use crate::loss::softmax;
use crate::network::Network;

/// Result of evaluating a network on a labelled sample set.
#[derive(Debug, Clone, PartialEq)]
pub struct Evaluation {
    /// Overall top-1 accuracy in `[0, 1]`.
    pub top1: f64,
    /// Per-class top-1 accuracy (index = class).
    pub per_class: Vec<f64>,
    /// Confusion matrix: `confusion[truth][prediction]` counts.
    pub confusion: Vec<Vec<usize>>,
    /// Number of evaluated samples.
    pub n: usize,
}

impl Evaluation {
    /// Population variance of the per-class accuracies — the error bar of
    /// the paper's Fig 4(b).
    fn class_variance(&self) -> f64 {
        if self.per_class.is_empty() {
            return 0.0;
        }
        let mean = self.per_class.iter().sum::<f64>() / self.per_class.len() as f64;
        self.per_class
            .iter()
            .map(|a| (a - mean) * (a - mean))
            .sum::<f64>()
            / self.per_class.len() as f64
    }

    /// Standard deviation of per-class accuracies.
    pub fn class_std(&self) -> f64 {
        self.class_variance().sqrt()
    }
}

/// Evaluates top-1 accuracy over `samples` in mini-batches of `batch`.
///
/// # Errors
///
/// Propagates network shape errors; returns an all-zero evaluation for an
/// empty sample set.
pub fn evaluate(net: &mut Network, samples: &[Sample], batch: usize) -> Result<Evaluation> {
    let classes = samples.iter().map(|s| s.label + 1).max().unwrap_or(0);
    let mut confusion = vec![vec![0usize; classes]; classes];
    let mut correct = 0usize;
    let batch = batch.max(1);
    let mut i = 0;
    while i < samples.len() {
        let hi = (i + batch).min(samples.len());
        let indices: Vec<usize> = (i..hi).collect();
        let (x, labels) = make_batch(samples, &indices);
        let preds = net.predict(&x)?;
        for (p, t) in preds.iter().zip(&labels) {
            if classes > 0 && *p < classes {
                confusion[*t][*p] += 1;
            }
            if p == t {
                correct += 1;
            }
        }
        i = hi;
    }
    let per_class: Vec<f64> = (0..classes)
        .map(|c| {
            let total: usize = confusion[c].iter().sum();
            if total == 0 {
                0.0
            } else {
                confusion[c][c] as f64 / total as f64
            }
        })
        .collect();
    Ok(Evaluation {
        top1: if samples.is_empty() {
            0.0
        } else {
            correct as f64 / samples.len() as f64
        },
        per_class,
        confusion,
        n: samples.len(),
    })
}

/// Mean softmax confidence (probability of the predicted class) over
/// `samples` — the paper's platform-independent *confidence* monitor.
///
/// # Errors
///
/// Propagates network shape errors.
pub fn mean_confidence(net: &mut Network, samples: &[Sample], batch: usize) -> Result<f64> {
    if samples.is_empty() {
        return Ok(0.0);
    }
    let batch = batch.max(1);
    let mut total = 0.0f64;
    let mut i = 0;
    while i < samples.len() {
        let hi = (i + batch).min(samples.len());
        let indices: Vec<usize> = (i..hi).collect();
        let (x, _) = make_batch(samples, &indices);
        let logits = net.forward(&x, false)?;
        let probs = softmax(&logits)?;
        let (n, k) = (probs.shape()[0], probs.shape()[1]);
        for ni in 0..n {
            let row = &probs.data()[ni * k..(ni + 1) * k];
            total += row.iter().copied().fold(f32::NEG_INFINITY, f32::max) as f64;
        }
        i = hi;
    }
    Ok(total / samples.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::{build_group_cnn, CnnConfig};
    use crate::dataset::{DatasetConfig, SyntheticVision};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn net_and_data() -> (Network, SyntheticVision) {
        let data = SyntheticVision::generate(DatasetConfig::tiny());
        let mut rng = StdRng::seed_from_u64(5);
        let net = build_group_cnn(
            CnnConfig {
                input: (3, 8, 8),
                classes: 4,
                groups: 2,
                base_width: 8,
            },
            &mut rng,
        )
        .unwrap();
        (net, data)
    }

    #[test]
    fn evaluation_fields_consistent() {
        let (mut net, data) = net_and_data();
        let ev = evaluate(&mut net, data.test(), 16).unwrap();
        assert_eq!(ev.n, data.test().len());
        assert!((0.0..=1.0).contains(&ev.top1));
        assert_eq!(ev.per_class.len(), 4);
        // Confusion row sums equal per-class sample counts.
        for (c, row) in ev.confusion.iter().enumerate() {
            let total: usize = row.iter().sum();
            let expected = data.test().iter().filter(|s| s.label == c).count();
            assert_eq!(total, expected);
        }
        // Overall accuracy equals confusion-diagonal ratio.
        let diag: usize = (0..4).map(|c| ev.confusion[c][c]).sum();
        assert!((ev.top1 - diag as f64 / ev.n as f64).abs() < 1e-12);
    }

    #[test]
    fn per_class_accuracy_matches_confusion() {
        let (mut net, data) = net_and_data();
        let ev = evaluate(&mut net, data.test(), 16).unwrap();
        for c in 0..4 {
            let total: usize = ev.confusion[c].iter().sum();
            let expect = ev.confusion[c][c] as f64 / total as f64;
            assert!((ev.per_class[c] - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn variance_of_identical_accuracies_is_zero() {
        let ev = Evaluation {
            top1: 0.5,
            per_class: vec![0.5; 4],
            confusion: vec![vec![0; 4]; 4],
            n: 0,
        };
        assert_eq!(ev.class_variance(), 0.0);
        assert_eq!(ev.class_std(), 0.0);
    }

    #[test]
    fn variance_formula() {
        let ev = Evaluation {
            top1: 0.5,
            per_class: vec![0.0, 1.0],
            confusion: vec![],
            n: 0,
        };
        assert!((ev.class_variance() - 0.25).abs() < 1e-12);
        assert!((ev.class_std() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn confidence_in_unit_interval() {
        let (mut net, data) = net_and_data();
        let c = mean_confidence(&mut net, data.test(), 16).unwrap();
        assert!((0.0..=1.0).contains(&c));
        // With 4 classes, confidence can never drop below 1/4.
        assert!(c >= 0.25 - 1e-6);
    }

    #[test]
    fn empty_sample_sets() {
        let (mut net, _) = net_and_data();
        let ev = evaluate(&mut net, &[], 8).unwrap();
        assert_eq!(ev.top1, 0.0);
        assert_eq!(ev.n, 0);
        assert_eq!(mean_confidence(&mut net, &[], 8).unwrap(), 0.0);
    }
}
