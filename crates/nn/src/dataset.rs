//! `SyntheticVision`: a procedural stand-in for CIFAR-10.
//!
//! The paper trains its dynamic DNN on CIFAR-10, which is unavailable in
//! this offline reproduction. This module generates a deterministic
//! 10-class image-classification dataset that exercises the identical code
//! path (grouped convolutions, incremental training, per-class accuracy
//! variance) and preserves the property the RTM consumes: *accuracy rises
//! monotonically with model width, with diminishing returns*.
//!
//! Each class is a mixture of `modes_per_class` prototype patterns —
//! an oriented sinusoidal grating plus a Gaussian colour blob — sampled
//! with random phase, translation jitter, per-channel amplitude jitter and
//! additive Gaussian noise. More modes and noise make the task harder, so
//! capacity (width) matters.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::tensor::Tensor;

/// Configuration of the synthetic dataset generator.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetConfig {
    /// Number of classes (the paper uses the 10 CIFAR classes).
    pub classes: usize,
    /// Image height in pixels.
    pub height: usize,
    /// Image width in pixels.
    pub width: usize,
    /// Colour channels.
    pub channels: usize,
    /// Training samples generated per class.
    pub train_per_class: usize,
    /// Held-out test samples per class.
    pub test_per_class: usize,
    /// Distinct prototype patterns per class; more modes need more model
    /// capacity.
    pub modes_per_class: usize,
    /// Standard deviation of the additive Gaussian pixel noise.
    pub noise: f32,
    /// Maximum absolute translation jitter in pixels.
    pub jitter: usize,
    /// PRNG seed; the same seed always yields the same dataset.
    pub seed: u64,
}

impl Default for DatasetConfig {
    fn default() -> Self {
        Self {
            classes: 10,
            height: 16,
            width: 16,
            channels: 3,
            train_per_class: 200,
            test_per_class: 50,
            modes_per_class: 3,
            noise: 0.55,
            jitter: 2,
            seed: 2020,
        }
    }
}

impl DatasetConfig {
    /// A miniature configuration for fast unit tests.
    pub fn tiny() -> Self {
        Self {
            classes: 4,
            height: 8,
            width: 8,
            train_per_class: 20,
            test_per_class: 10,
            modes_per_class: 2,
            ..Self::default()
        }
    }
}

/// One labelled image.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Image tensor `[C, H, W]`.
    pub image: Tensor,
    /// Class index in `0..classes`.
    pub label: usize,
}

/// One prototype pattern: grating + blob parameters.
#[derive(Debug, Clone, Copy)]
struct Mode {
    theta: f32,
    freq: f32,
    phase0: f32,
    grating_color: [f32; 3],
    blob_cy: f32,
    blob_cx: f32,
    blob_r: f32,
    blob_color: [f32; 3],
}

/// A generated dataset split into train and test sets.
#[derive(Debug, Clone)]
pub struct SyntheticVision {
    cfg: DatasetConfig,
    train: Vec<Sample>,
    test: Vec<Sample>,
}

impl SyntheticVision {
    /// Generates the dataset deterministically from `cfg.seed`.
    pub fn generate(cfg: DatasetConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let modes: Vec<Vec<Mode>> = (0..cfg.classes)
            .map(|class| {
                (0..cfg.modes_per_class)
                    .map(|_| Self::draw_mode(&cfg, class, &mut rng))
                    .collect()
            })
            .collect();
        let mut train = Vec::with_capacity(cfg.classes * cfg.train_per_class);
        let mut test = Vec::with_capacity(cfg.classes * cfg.test_per_class);
        for (class, class_modes) in modes.iter().enumerate() {
            for _ in 0..cfg.train_per_class {
                train.push(Self::draw_sample(&cfg, class, class_modes, &mut rng));
            }
            for _ in 0..cfg.test_per_class {
                test.push(Self::draw_sample(&cfg, class, class_modes, &mut rng));
            }
        }
        Self { cfg, train, test }
    }

    fn draw_mode(cfg: &DatasetConfig, class: usize, rng: &mut StdRng) -> Mode {
        // Anchor orientation per class so classes are separable in
        // principle, with per-mode variation around it.
        let base_theta = class as f32 / cfg.classes as f32 * std::f32::consts::PI;
        let color = |rng: &mut StdRng| {
            let mut c = [0.0f32; 3];
            for v in &mut c {
                *v = rng.gen_range(-1.0..1.0);
            }
            let norm = (c.iter().map(|v| v * v).sum::<f32>()).sqrt().max(1e-6);
            c.map(|v| v / norm)
        };
        Mode {
            theta: base_theta + rng.gen_range(-0.25..0.25),
            freq: rng.gen_range(1.5..4.0),
            phase0: rng.gen_range(0.0..std::f32::consts::TAU),
            grating_color: color(rng),
            blob_cy: rng.gen_range(0.25..0.75),
            blob_cx: rng.gen_range(0.25..0.75),
            blob_r: rng.gen_range(0.12..0.3),
            blob_color: color(rng),
        }
    }

    fn draw_sample(cfg: &DatasetConfig, class: usize, modes: &[Mode], rng: &mut StdRng) -> Sample {
        let mode = modes[rng.gen_range(0..modes.len())];
        let (h, w, c) = (cfg.height, cfg.width, cfg.channels);
        let phase = mode.phase0 + rng.gen_range(-0.6..0.6);
        let amp: f32 = rng.gen_range(0.7..1.3);
        let dy = rng.gen_range(-(cfg.jitter as isize)..=cfg.jitter as isize) as f32;
        let dx = rng.gen_range(-(cfg.jitter as isize)..=cfg.jitter as isize) as f32;
        let (sin_t, cos_t) = mode.theta.sin_cos();
        let mut image = Tensor::zeros(&[c, h, w]);
        let data = image.data_mut();
        for y in 0..h {
            for x in 0..w {
                let yn = (y as f32 + dy) / h as f32;
                let xn = (x as f32 + dx) / w as f32;
                let grating =
                    (std::f32::consts::TAU * mode.freq * (xn * cos_t + yn * sin_t) + phase).sin();
                let ry = yn - mode.blob_cy;
                let rx = xn - mode.blob_cx;
                let blob = (-(ry * ry + rx * rx) / (2.0 * mode.blob_r * mode.blob_r)).exp();
                for ch in 0..c.min(3) {
                    let signal = 0.7 * amp * grating * mode.grating_color[ch]
                        + 0.9 * blob * mode.blob_color[ch];
                    data[(ch * h + y) * w + x] = signal + cfg.noise * gauss(rng);
                }
            }
        }
        Sample {
            image,
            label: class,
        }
    }

    /// The generator configuration.
    pub fn config(&self) -> &DatasetConfig {
        &self.cfg
    }

    /// Training samples (class-contiguous order; shuffle per epoch).
    pub fn train(&self) -> &[Sample] {
        &self.train
    }

    /// Held-out test samples.
    pub fn test(&self) -> &[Sample] {
        &self.test
    }
}

/// Standard-normal sample via Box–Muller.
fn gauss(rng: &mut StdRng) -> f32 {
    let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
    let u2: f32 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos()
}

/// Assembles samples (by index) into a `[N, C, H, W]` batch tensor plus a
/// label vector.
///
/// # Panics
///
/// Panics if `indices` is empty or contains out-of-range values; callers
/// control both.
pub fn make_batch(samples: &[Sample], indices: &[usize]) -> (Tensor, Vec<usize>) {
    assert!(
        !indices.is_empty(),
        "batch must contain at least one sample"
    );
    let shape = samples[indices[0]].image.shape().to_vec();
    let per = samples[indices[0]].image.len();
    let mut batch_shape = vec![indices.len()];
    batch_shape.extend_from_slice(&shape);
    let mut data = Vec::with_capacity(indices.len() * per);
    let mut labels = Vec::with_capacity(indices.len());
    for &i in indices {
        data.extend_from_slice(samples[i].image.data());
        labels.push(samples[i].label);
    }
    let tensor = Tensor::from_vec(&batch_shape, data).expect("shapes are uniform");
    (tensor, labels)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = SyntheticVision::generate(DatasetConfig::tiny());
        let b = SyntheticVision::generate(DatasetConfig::tiny());
        assert_eq!(a.train().len(), b.train().len());
        for (x, y) in a.train().iter().zip(b.train()) {
            assert_eq!(x.label, y.label);
            assert_eq!(x.image.data(), y.image.data());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = SyntheticVision::generate(DatasetConfig::tiny());
        let b = SyntheticVision::generate(DatasetConfig {
            seed: 999,
            ..DatasetConfig::tiny()
        });
        let same = a
            .train()
            .iter()
            .zip(b.train())
            .all(|(x, y)| x.image.data() == y.image.data());
        assert!(!same);
    }

    #[test]
    fn sizes_and_labels() {
        let cfg = DatasetConfig::tiny();
        let d = SyntheticVision::generate(cfg.clone());
        assert_eq!(d.train().len(), cfg.classes * cfg.train_per_class);
        assert_eq!(d.test().len(), cfg.classes * cfg.test_per_class);
        for s in d.train().iter().chain(d.test()) {
            assert!(s.label < cfg.classes);
            assert_eq!(s.image.shape(), &[cfg.channels, cfg.height, cfg.width]);
            assert!(s.image.data().iter().all(|v| v.is_finite()));
        }
        // Every class is represented.
        for class in 0..cfg.classes {
            assert!(d.train().iter().any(|s| s.label == class));
            assert!(d.test().iter().any(|s| s.label == class));
        }
    }

    #[test]
    fn images_have_signal_not_just_noise() {
        // Noise-free images of one class should correlate across samples of
        // the same mode more than across classes on average; as a cheap
        // proxy, check non-trivial per-image variance.
        let cfg = DatasetConfig {
            noise: 0.0,
            ..DatasetConfig::tiny()
        };
        let d = SyntheticVision::generate(cfg);
        for s in d.train().iter().take(10) {
            let mean = s.image.mean();
            let var: f32 = s
                .image
                .data()
                .iter()
                .map(|v| (v - mean) * (v - mean))
                .sum::<f32>()
                / s.image.len() as f32;
            assert!(var > 1e-3, "image should contain structured signal");
        }
    }

    #[test]
    fn make_batch_layout() {
        let d = SyntheticVision::generate(DatasetConfig::tiny());
        let (batch, labels) = make_batch(d.train(), &[0, 5, 11]);
        assert_eq!(batch.shape(), &[3, 3, 8, 8]);
        assert_eq!(labels.len(), 3);
        assert_eq!(
            &batch.data()[..d.train()[0].image.len()],
            d.train()[0].image.data()
        );
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn empty_batch_panics() {
        let d = SyntheticVision::generate(DatasetConfig::tiny());
        let _ = make_batch(d.train(), &[]);
    }

    #[test]
    fn gauss_is_roughly_standard_normal() {
        let mut rng = StdRng::seed_from_u64(3);
        let n = 20_000;
        let samples: Vec<f32> = (0..n).map(|_| gauss(&mut rng)).collect();
        let mean = samples.iter().sum::<f32>() / n as f32;
        let var = samples.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / n as f32;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }
}
