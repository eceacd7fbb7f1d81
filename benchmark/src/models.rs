//! What the benchmark generates from seeds: model weights and sample
//! pools (the deployment, fixed), the stream mixer the traffic's seeded
//! orders come from — and the reference outputs every reply is checked
//! against. The program under test sees only what is generated here.

use eml_dnn::{DynamicDnn, Precision, WidthLevel};
use eml_nn::tensor::Tensor;
use eml_serve::testbed;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Width levels of every testbed model (25/50/75/100 %).
pub const LEVELS: usize = 4;
/// Samples per calibration batch.
const CALIBRATION_BATCH: usize = 32;

/// Derives an independent stream seed from the run seed (SplitMix64
/// finaliser over the three words).
pub fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut z = seed
        .wrapping_add(a.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(b.wrapping_mul(0xC2B2_AE3D_27D4_EB4F))
        .wrapping_add(0x1656_67B1_9E37_79F9);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a, the repo's digest of choice.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` in.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// Which testbed model a workload serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// `testbed::default_dnn`: 3x16x16 input, base width 32, 10 classes.
    Default,
    /// `testbed::tiny_dnn`: 3x8x8 input, base width 8, 4 classes.
    Tiny,
}

impl ModelKind {
    /// Per-sample input shape.
    pub fn shape(self) -> [usize; 3] {
        match self {
            Self::Default => [3, 16, 16],
            Self::Tiny => [3, 8, 8],
        }
    }

    /// Flattened per-sample input length.
    pub fn sample_len(self) -> usize {
        self.shape().iter().product()
    }

    /// Builds the untrained model from `seed`.
    pub fn build(self, seed: u64) -> DynamicDnn {
        match self {
            Self::Default => testbed::default_dnn(seed),
            Self::Tiny => testbed::tiny_dnn(seed),
        }
    }
}

/// A tenant's sample pool: `len` seeded samples, uniform in -1..1.
pub struct Pool {
    data: Vec<f32>,
    kind: ModelKind,
}

impl Pool {
    /// Generates `len` samples for `kind` from `seed`.
    pub fn generate(kind: ModelKind, seed: u64, len: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let data = (0..len * kind.sample_len())
            .map(|_| rng.gen_range(-1.0f32..1.0))
            .collect();
        Self { data, kind }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.data.len() / self.kind.sample_len()
    }

    /// Whether the pool holds no sample.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Sample `i`, flattened.
    pub fn sample(&self, i: usize) -> &[f32] {
        let n = self.kind.sample_len();
        &self.data[i * n..(i + 1) * n]
    }

    /// Samples `from..from + n` as one `[n, C, H, W]` batch.
    pub fn batch(&self, from: usize, n: usize) -> Tensor {
        let [c, h, w] = self.kind.shape();
        let len = self.kind.sample_len();
        Tensor::from_vec(
            &[n, c, h, w],
            self.data[from * len..(from + n) * len].to_vec(),
        )
        .expect("pool slices are whole samples")
    }

    /// The pool as calibration batches.
    pub fn calibration_batches(&self) -> Vec<Tensor> {
        (0..self.len())
            .step_by(CALIBRATION_BATCH)
            .map(|from| self.batch(from, CALIBRATION_BATCH.min(self.len() - from)))
            .collect()
    }
}

/// Builds a tenant's model the one way the benchmark ever builds one:
/// weights from `weight_seed`, int8 activation scales calibrated over
/// the tenant's pool at each of the four widths and frozen, full
/// width, `precision` selected. Two calls with the same arguments give
/// bit-identical models — the reference side relies on it.
pub fn build_model(
    kind: ModelKind,
    weight_seed: u64,
    pool: &Pool,
    precision: Precision,
) -> DynamicDnn {
    let mut dnn = kind.build(weight_seed);
    let batches = pool.calibration_batches();
    for level in 0..LEVELS {
        dnn.set_level(WidthLevel(level))
            .expect("testbed models have four levels");
        dnn.calibrate(batches.iter())
            .expect("calibration over a non-empty pool");
    }
    dnn.set_level(WidthLevel(LEVELS - 1))
        .expect("full width exists");
    dnn.set_precision(precision);
    dnn
}

/// Index of the largest logit, by total order (a NaN cannot panic it).
pub fn argmax(row: &[f32]) -> usize {
    row.iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map_or(0, |(i, _)| i)
}

/// The precomputed direct forwards of an identically built model: for
/// every width level and pool sample, the logits at the serving
/// precision (what a reply must equal bit for bit) and whether their
/// argmax agrees with the f32 argmax at the same width.
pub struct Reference {
    classes: usize,
    samples: usize,
    logits: Vec<f32>,
    agrees: Vec<bool>,
}

impl Reference {
    /// Builds the model again from its seeds and forwards the whole
    /// pool at every level, one sample at a time.
    pub fn compute(kind: ModelKind, weight_seed: u64, pool: &Pool, precision: Precision) -> Self {
        let mut dnn = build_model(kind, weight_seed, pool, precision);
        let samples = pool.len();
        let forward_all = |dnn: &mut DynamicDnn| -> Vec<Vec<f32>> {
            (0..samples)
                .map(|i| {
                    dnn.network_mut()
                        .forward(&pool.batch(i, 1), false)
                        .expect("reference forward")
                        .into_vec()
                })
                .collect()
        };
        let mut classes = 0;
        let mut logits = Vec::new();
        let mut agrees = Vec::with_capacity(LEVELS * samples);
        for level in 0..LEVELS {
            dnn.set_level(WidthLevel(level)).expect("level in range");
            let served = forward_all(&mut dnn);
            let f32_preds: Vec<usize> = if precision == Precision::F32 {
                served.iter().map(|y| argmax(y)).collect()
            } else {
                dnn.set_precision(Precision::F32);
                let preds = forward_all(&mut dnn).iter().map(|y| argmax(y)).collect();
                dnn.set_precision(precision);
                preds
            };
            for (y, f32_pred) in served.iter().zip(f32_preds) {
                classes = y.len();
                logits.extend_from_slice(y);
                agrees.push(argmax(y) == f32_pred);
            }
        }
        Self {
            classes,
            samples,
            logits,
            agrees,
        }
    }

    /// The logits a reply for `sample` served at `level` must equal.
    pub fn logits(&self, level: usize, sample: usize) -> &[f32] {
        let at = (level * self.samples + sample) * self.classes;
        &self.logits[at..at + self.classes]
    }

    /// Whether that reply's argmax is the f32 argmax at the same width.
    pub fn agrees(&self, level: usize, sample: usize) -> bool {
        self.agrees[level * self.samples + sample]
    }

    /// Folds every expected logit (as bits) into `digest`, level by
    /// level, the samples in `order`.
    pub fn digest_into(&self, digest: &mut Fnv, order: &[u32]) {
        for level in 0..LEVELS {
            for &sample in order {
                for v in self.logits(level, sample as usize) {
                    digest.write(&v.to_bits().to_le_bytes());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_separates_streams_and_repeats() {
        assert_eq!(mix(1, 2, 3), mix(1, 2, 3));
        assert_ne!(mix(1, 2, 3), mix(1, 3, 2));
        assert_ne!(mix(1, 0, 0), mix(2, 0, 0));
    }

    #[test]
    fn same_seeds_build_bit_identical_models_and_batches_do_not_change_a_row() {
        let pool = Pool::generate(ModelKind::Tiny, mix(9, 0, 1), 8);
        for precision in [Precision::F32, Precision::Int8] {
            let reference = Reference::compute(ModelKind::Tiny, 5, &pool, precision);
            let mut dnn = build_model(ModelKind::Tiny, 5, &pool, precision);
            let batched = dnn
                .network_mut()
                .forward(&pool.batch(0, 8), false)
                .unwrap()
                .into_vec();
            for i in 0..8 {
                let want: Vec<u32> = reference
                    .logits(LEVELS - 1, i)
                    .iter()
                    .map(|v| v.to_bits())
                    .collect();
                let got: Vec<u32> = batched[i * 4..(i + 1) * 4]
                    .iter()
                    .map(|v| v.to_bits())
                    .collect();
                assert_eq!(got, want, "{precision:?} sample {i}");
                assert!(precision != Precision::F32 || reference.agrees(LEVELS - 1, i));
            }
        }
    }
}
