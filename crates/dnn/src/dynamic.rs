//! `DynamicDnn`: a live, trained network with a runtime width knob.
//!
//! This is the *application* of the paper's Fig 5: it exposes a knob
//! (width level) and monitors (accuracy from its profile, live softmax
//! confidence) to the runtime manager, and executes real inference through
//! [`eml_nn::Network`].

use eml_nn::loss::softmax;
use eml_nn::tensor::Tensor;
use eml_nn::train::IncrementalReport;
use eml_nn::{ActScaleReport, Network, Precision};

use crate::error::{DnnError, Result};
use crate::level::WidthLevel;
use crate::profile::DnnProfile;

/// A dynamic DNN: network + profile + current width level. The
/// precision knob lives on the network itself.
#[derive(Debug)]
pub struct DynamicDnn {
    net: Network,
    profile: DnnProfile,
    level: WidthLevel,
    switches: usize,
    precision_switches: usize,
}

impl DynamicDnn {
    /// Wraps a trained network with a matching profile, starting at full
    /// width.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::InvalidProfile`] if the profile's level count
    /// differs from the network's group count.
    pub fn new(mut net: Network, profile: DnnProfile) -> Result<Self> {
        if profile.level_count() != net.groups() {
            return Err(DnnError::InvalidProfile {
                reason: format!(
                    "profile has {} levels but network has {} groups",
                    profile.level_count(),
                    net.groups()
                ),
            });
        }
        let level = profile.max_level();
        net.set_active_groups(level.active_groups())?;
        Ok(Self {
            net,
            profile,
            level,
            switches: 0,
            precision_switches: 0,
        })
    }

    /// Builds the profile from an incremental-training report, then wraps
    /// the network.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::InvalidProfile`] if the report lacks evaluations
    /// or level counts mismatch.
    pub fn from_trained(
        name: impl Into<String>,
        mut net: Network,
        report: &IncrementalReport,
    ) -> Result<Self> {
        let acc = report.accuracy_per_width();
        if acc.is_empty() {
            return Err(DnnError::InvalidProfile {
                reason: "incremental report has no evaluations".into(),
            });
        }
        let profile = DnnProfile::from_network(name, &mut net, &acc)?;
        Self::new(net, profile)
    }

    /// The current width level.
    pub fn level(&self) -> WidthLevel {
        self.level
    }

    /// The profile (workloads, accuracies, footprints).
    pub fn profile(&self) -> &DnnProfile {
        &self.profile
    }

    /// Number of width switches performed so far.
    pub fn switch_count(&self) -> usize {
        self.switches
    }

    /// The current data-precision mode, as the network runs it.
    pub fn precision(&self) -> Precision {
        self.net.precision()
    }

    /// Number of precision switches performed so far.
    #[cfg(test)]
    fn precision_switch_count(&self) -> usize {
        self.precision_switches
    }

    /// Switches the data-precision mode — the paper's second
    /// application knob, next to width. [`Precision::Int8`] runs
    /// forward passes on the real int8 kernel path (measured latency
    /// win for a small, measured accuracy cost);
    /// [`Precision::F32`] restores full-precision compute. Like the
    /// width switch, no parameters change: the int8 path quantises
    /// from the master `f32` weights, so switching back is lossless.
    ///
    /// Int8 activation scales are *dynamic* by default (each batch
    /// quantises against its own max-abs), so a sample's output — and
    /// therefore measured accuracy — depends on the composition of the
    /// batch it shares; compare eval runs only at the same batch size,
    /// or freeze static scales first via
    /// [`eml_nn::Network::freeze_act_scales`] on
    /// [`Self::network_mut`] after a calibration pass.
    pub fn set_precision(&mut self, precision: Precision) {
        if precision != self.net.precision() {
            self.net.set_precision(precision);
            self.precision_switches += 1;
        }
    }

    /// Static calibration for int8 serving: runs every batch through a
    /// quantised forward with the activation observers recording, then
    /// freezes the observed ranges as static per-layer scales —
    /// [`eml_nn::Network::calibrate`]. With scales frozen and the
    /// precision knob at [`Precision::Int8`], the inference plan links
    /// the layers' int8 steps into one chain (one input quantisation,
    /// one logits dequantisation, saturating-i8 layer edges in between
    /// — see [`eml_nn::Network::plan_quant_chain`]) and inference
    /// becomes reproducible across batch compositions. The serving
    /// precision is restored afterwards, so calibrating an f32-serving
    /// DNN ahead of an int8 switch is safe.
    ///
    /// # Errors
    ///
    /// Propagates [`eml_nn::Network::calibrate`] errors (empty batch
    /// set, shape mismatches).
    pub fn calibrate<I>(&mut self, batches: I) -> Result<Vec<ActScaleReport>>
    where
        I: IntoIterator,
        I::Item: std::borrow::Borrow<Tensor>,
    {
        Ok(self.net.calibrate(batches)?)
    }

    /// Immutable access to the wrapped network.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Mutable access to the wrapped network (e.g. for fine-tuning).
    pub fn network_mut(&mut self) -> &mut Network {
        &mut self.net
    }

    /// Switches the width level — the runtime knob. No parameters change;
    /// the switch is free of retraining by construction (paper Fig 3c).
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::UnknownLevel`] for out-of-range levels.
    pub fn set_level(&mut self, level: WidthLevel) -> Result<()> {
        if level.index() >= self.profile.level_count() {
            return Err(DnnError::UnknownLevel {
                level: level.index(),
                count: self.profile.level_count(),
            });
        }
        if level != self.level {
            self.net.set_active_groups(level.active_groups())?;
            self.level = level;
            self.switches += 1;
        }
        Ok(())
    }

    /// Runs inference on a `[N, C, H, W]` batch, returning predicted class
    /// indices.
    ///
    /// # Errors
    ///
    /// Propagates network shape errors.
    pub fn infer(&mut self, batch: &Tensor) -> Result<Vec<usize>> {
        Ok(self.net.predict(batch)?)
    }

    /// Mean softmax confidence over a batch — the live platform-independent
    /// monitor of Fig 5.
    ///
    /// # Errors
    ///
    /// Propagates network shape errors.
    pub fn confidence(&mut self, batch: &Tensor) -> Result<f64> {
        let logits = self.net.forward(batch, false)?;
        let probs = softmax(&logits)?;
        let (n, k) = (probs.shape()[0], probs.shape()[1]);
        let mut total = 0.0f64;
        for ni in 0..n {
            let row = &probs.data()[ni * k..(ni + 1) * k];
            total += row.iter().copied().fold(f32::NEG_INFINITY, f32::max) as f64;
        }
        Ok(total / n as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eml_nn::arch::{build_group_cnn, CnnConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn dnn() -> DynamicDnn {
        let mut rng = StdRng::seed_from_u64(0);
        let net = build_group_cnn(CnnConfig::default(), &mut rng).unwrap();
        let mut net2 = net;
        let profile = DnnProfile::from_network("t", &mut net2, &[0.5, 0.6, 0.65, 0.7]).unwrap();
        DynamicDnn::new(net2, profile).unwrap()
    }

    #[test]
    fn starts_at_full_width() {
        let d = dnn();
        assert_eq!(d.level(), WidthLevel(3));
        assert_eq!(d.network().active_groups(), 4);
        assert_eq!(d.switch_count(), 0);
        assert!((d.profile().top1(d.level()).unwrap() - 70.0).abs() < 1e-9);
    }

    #[test]
    fn switching_changes_width_and_counts() {
        let mut d = dnn();
        d.set_level(WidthLevel(0)).unwrap();
        assert_eq!(d.network().active_groups(), 1);
        assert_eq!(d.switch_count(), 1);
        // No-op switch doesn't count.
        d.set_level(WidthLevel(0)).unwrap();
        assert_eq!(d.switch_count(), 1);
        assert!(d.set_level(WidthLevel(9)).is_err());
    }

    #[test]
    fn inference_works_at_all_levels() {
        let mut d = dnn();
        let x = Tensor::full(&[2, 3, 16, 16], 0.1);
        for i in 0..4 {
            d.set_level(WidthLevel(i)).unwrap();
            let preds = d.infer(&x).unwrap();
            assert_eq!(preds.len(), 2);
            assert!(preds.iter().all(|&p| p < 10));
            let conf = d.confidence(&x).unwrap();
            assert!((0.1..=1.0).contains(&conf), "confidence {conf}");
        }
    }

    #[test]
    fn precision_knob_switches_and_counts() {
        let mut d = dnn();
        assert_eq!(d.precision(), Precision::F32);
        let x = Tensor::full(&[2, 3, 16, 16], 0.1);
        let f32_preds = d.infer(&x).unwrap();
        d.set_precision(Precision::Int8);
        assert_eq!(d.precision(), Precision::Int8);
        assert_eq!(d.precision_switch_count(), 1);
        // No-op switch doesn't count.
        d.set_precision(Precision::Int8);
        assert_eq!(d.precision_switch_count(), 1);
        let int8_preds = d.infer(&x).unwrap();
        assert_eq!(int8_preds.len(), 2);
        // Switching back is lossless: the int8 path quantises from the
        // master f32 weights, so f32 inference is bit-identical to
        // before the excursion.
        d.set_precision(Precision::F32);
        assert_eq!(d.infer(&x).unwrap(), f32_preds);
        assert_eq!(d.precision_switch_count(), 2);
    }

    /// The network is the one source of truth for precision: a switch
    /// made through `network_mut` is what `precision` reports.
    #[test]
    fn precision_reads_through_network_mut() {
        let mut d = dnn();
        d.set_precision(Precision::Int8);
        d.network_mut().set_precision(Precision::F32);
        assert_eq!(d.precision(), Precision::F32);
        // Re-issuing Int8 is a real switch again, and counted.
        d.set_precision(Precision::Int8);
        assert_eq!(d.precision(), Precision::Int8);
        assert_eq!(d.precision_switch_count(), 2);
    }

    /// `set_level` under `Precision::Int8` must invalidate the cached
    /// chain plan: per-prefix weight scales (and so every
    /// requantisation multiplier) change with the active group set.
    /// Pinned with twins: one DNN plans and runs the chain at full
    /// width before switching down, the other only ever plans at the
    /// narrow width — a stale plan would make them diverge.
    #[test]
    fn width_switch_replans_the_quant_chain() {
        let mut a = dnn();
        let mut b = dnn();
        let mut rng = StdRng::seed_from_u64(31);
        let cal = vec![Tensor::random(&[2, 3, 16, 16], &mut rng)];
        for d in [&mut a, &mut b] {
            d.set_precision(Precision::Int8);
            let report = d.calibrate(&cal).expect("calibration runs");
            assert_eq!(report.len(), 4, "all quantised layers report a scale");
        }
        let x = Tensor::random(&[1, 3, 16, 16], &mut rng);
        // `a` engages (and caches) the chain plan at full width…
        let wide = a.network_mut().forward(&x, false).expect("wide forward");
        // …then both switch to half width; `b` never planned wide.
        a.set_level(WidthLevel(1)).unwrap();
        b.set_level(WidthLevel(1)).unwrap();
        let ya = a
            .network_mut()
            .forward(&x, false)
            .expect("a narrow forward");
        let yb = b
            .network_mut()
            .forward(&x, false)
            .expect("b narrow forward");
        assert_eq!(
            ya.data(),
            yb.data(),
            "stale chain plan after a width switch"
        );
        assert_ne!(wide.data(), ya.data(), "width actually changed the logits");
        // And back up: the replanned full-width chain reproduces the
        // original logits exactly (frozen scales, unchanged weights).
        a.set_level(WidthLevel(3)).unwrap();
        let wide2 = a.network_mut().forward(&x, false).expect("re-widened");
        assert_eq!(wide.data(), wide2.data());
    }

    #[test]
    fn precision_and_width_knobs_compose() {
        let mut d = dnn();
        d.set_precision(Precision::Int8);
        let x = Tensor::full(&[1, 3, 16, 16], 0.2);
        for i in 0..4 {
            d.set_level(WidthLevel(i)).unwrap();
            let preds = d.infer(&x).unwrap();
            assert_eq!(preds.len(), 1);
            let conf = d.confidence(&x).unwrap();
            assert!((0.1..=1.0).contains(&conf), "width {i}: confidence {conf}");
        }
    }

    #[test]
    fn switching_preserves_parameters() {
        let mut d = dnn();
        let x = Tensor::full(&[1, 3, 16, 16], 0.2);
        let before = d.network_mut().forward(&x, false).unwrap();
        d.set_level(WidthLevel(0)).unwrap();
        d.set_level(WidthLevel(3)).unwrap();
        let after = d.network_mut().forward(&x, false).unwrap();
        assert_eq!(before.data(), after.data());
    }

    #[test]
    fn mismatched_profile_rejected() {
        let mut rng = StdRng::seed_from_u64(0);
        let net = build_group_cnn(CnnConfig::default(), &mut rng).unwrap();
        let profile = DnnProfile::reference("four-levels");
        // Reference profile has 4 levels and the net 4 groups: OK.
        assert!(DynamicDnn::new(net, profile).is_ok());
        let net2 = build_group_cnn(
            CnnConfig {
                groups: 2,
                base_width: 8,
                ..CnnConfig::default()
            },
            &mut rng,
        )
        .unwrap();
        assert!(DynamicDnn::new(net2, DnnProfile::reference("four")).is_err());
    }
}
