//! Property tests across the kernels' public surface: the fused GEMM
//! epilogue must match the separate bias/activation passes to 1e-4,
//! and frozen groups must stay bit-identical through a training step.
//! (The GEMM-vs-reference-loop properties live beside the oracle, in
//! the crate's unit tests.)
//!
//! The int8 path is pinned with an analytic bound:
//! `Precision::Int8` forward must match the quant-simulated `f32`
//! forward (int8-grid weights, `f32` arithmetic) within a tolerance
//! *derived from the quantisation scales* — see
//! [`quant_tolerance`].

use eml_nn::conv::{Conv2d, Conv2dConfig};
use eml_nn::gemm::{gemm, gemm_with, Epilogue, Lhs, MatRef, PackedA, PackedB, Rhs, Trans};
use eml_nn::layer::Layer;
use eml_nn::linear::Linear;
use eml_nn::tensor::Tensor;
use eml_nn::Precision;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const TOL: f32 = 1e-4;

/// Per-output-element error bound of the int8 path against the
/// quant-simulated `f32` reference, from first principles: with weight
/// scale `sw`, activation scale `sx`, reduction depth `k`, `Σ|w|` over
/// the output's weight row and `xmax` the activation range,
///
/// ```text
/// |Δy| ≤ sw/2 · k · xmax   (weight re-quantisation, ≤ half a step)
///      + sx/2 · Σ|w|       (activation quantisation, ≤ half a step)
///      + k · sw·sx/4       (cross term)
/// ```
///
/// plus a small float-reassociation slack.
fn quant_tolerance(sw: f32, sx: f32, k: usize, w_rowsum_abs: f32, xmax: f32) -> f32 {
    0.5 * sw * k as f32 * xmax + 0.5 * sx * w_rowsum_abs + 0.25 * k as f32 * sw * sx + 1e-4
}

/// Two identically-initialised copies of a conv layer: the first
/// stays at `f32`, the second switches to int8.
fn conv_pair(cfg: Conv2dConfig, seed: u64) -> (Conv2d, Conv2d) {
    let simulated = Conv2d::new("c", cfg, &mut StdRng::seed_from_u64(seed)).expect("cfg");
    let mut quant = Conv2d::new("c", cfg, &mut StdRng::seed_from_u64(seed)).expect("cfg");
    quant.set_precision(Precision::Int8);
    (simulated, quant)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The fused GEMM epilogue (bias add, optional ReLU, folded into
    /// the last-slice write-back) matches the separate
    /// bias-then-activation passes to well under 1e-4 on random shapes
    /// (including k past one K-slice), bias orientations, transposes
    /// and pre-packed operands.
    #[test]
    fn fused_epilogue_matches_separate_passes(
        seed in 0u64..10_000,
        m in 1usize..24,
        n in 1usize..40,
        k in 1usize..300,
        ta in proptest::bool::ANY,
        tb in proptest::bool::ANY,
        pack_a in proptest::bool::ANY,
        pack_b in proptest::bool::ANY,
        bias_kind in 0usize..3,
        relu in proptest::bool::ANY,
    ) {
        let a_data = Tensor::random(&[m, k], &mut StdRng::seed_from_u64(seed));
        let b_data = Tensor::random(&[k, n], &mut StdRng::seed_from_u64(seed ^ 0x11));
        let bias = Tensor::random(&[m.max(n)], &mut StdRng::seed_from_u64(seed ^ 0x22));
        let a = if ta {
            MatRef { data: a_data.data(), ld: m, trans: Trans::T }
        } else {
            MatRef::new(a_data.data(), k)
        };
        // A transposed view needs column-major storage; reusing the
        // same buffer just reinterprets it, which is fine for a
        // property test (the values are random either way).
        let b = if tb {
            MatRef { data: b_data.data(), ld: k, trans: Trans::T }
        } else {
            MatRef::new(b_data.data(), n)
        };

        // Plain product, then the separate passes.
        let mut expect = vec![0.0f32; m * n];
        gemm(m, n, k, a, b, 0.0, &mut expect, n, false);
        for (i, row) in expect.chunks_mut(n).enumerate() {
            match bias_kind {
                1 => row.iter_mut().for_each(|v| *v += bias.data()[i]),
                2 => row.iter_mut().zip(bias.data()).for_each(|(v, &bv)| *v += bv),
                _ => {}
            }
            if relu {
                row.iter_mut().for_each(|v| *v = v.max(0.0));
            }
        }

        let mut ep = match bias_kind {
            1 => Epilogue::bias_row(&bias.data()[..m]),
            2 => Epilogue::bias_col(&bias.data()[..n]),
            _ => Epilogue::none(),
        };
        if relu {
            ep = ep.with_relu();
        }
        let packed_a_op = PackedA::pack(a, m, k);
        let packed_b_op = PackedB::pack(b, k, n);
        let lhs = if pack_a { Lhs::Packed(packed_a_op.as_ref()) } else { Lhs::Mat(a) };
        let rhs = if pack_b { Rhs::Packed(packed_b_op.as_ref()) } else { Rhs::Mat(b) };
        let mut fused = vec![0.0f32; m * n];
        gemm_with(m, n, k, lhs, rhs, 0.0, &mut fused, n, false, ep);
        for (i, (&got, &want)) in fused.iter().zip(&expect).enumerate() {
            prop_assert!(
                (got - want).abs() <= TOL,
                "m{m} n{n} k{k} bias{bias_kind} relu{relu} c[{i}]: fused {got} vs separate {want}"
            );
        }
    }

    /// `Precision::Int8` forward matches the quant-simulated `f32`
    /// reference (master weights snapped to the int8 grid, arithmetic
    /// in `f32`) within the scale-derived bound of [`quant_tolerance`],
    /// across conv geometry, group structure and every active width.
    #[test]
    fn conv_quant_i8_matches_quant_simulated_f32(
        seed in 0u64..10_000,
        grouped in proptest::bool::ANY,
        groups in 2usize..=4,
        cpg in 1usize..=2,
        opg in 1usize..=2,
        kernel in 1usize..=5,
        stride in 1usize..=2,
        padding in 0usize..=2,
        h in 3usize..=6,
        w in 3usize..=6,
        batch in 1usize..=3,
        active_pick in 0usize..100,
    ) {
        let kernel = kernel.min(h.min(w) + 2 * padding);
        let cfg = Conv2dConfig {
            in_channels: groups * cpg,
            out_channels: groups * opg,
            kernel,
            stride,
            padding,
            conv_groups: if grouped { groups } else { 1 },
            prune_groups: groups,
        };
        let active = active_pick % groups + 1;
        let (mut simulated, mut quant) = conv_pair(cfg, seed);
        // Snap both copies' master weights to the int8 grid: the f32
        // copy then *simulates* int8 weights, the int8 copy
        // re-quantises them (an extra ≤ half-step of error when the
        // active prefix's scale differs from the full-tensor scale).
        simulated.quantize_weights(8);
        quant.quantize_weights(8);
        simulated.set_active_groups(active).expect("valid width");
        quant.set_active_groups(active).expect("valid width");

        let c_in = simulated.expected_in_channels();
        let x = Tensor::random(&[batch, c_in, h, w], &mut StdRng::seed_from_u64(seed ^ 0xA5));
        let y_sim = simulated.forward(&x, false).expect("simulated forward");
        let y_q = quant.forward(&x, false).expect("quant forward");
        prop_assert_eq!(y_sim.shape(), y_q.shape());

        // Scales exactly as the layer derives them.
        let icg = if grouped { cpg } else { groups * cpg };
        let kdim = icg * kernel * kernel;
        let active_w = quant.active_out_channels() * kdim;
        let sw = quant.weights()[..active_w]
            .iter()
            .fold(0.0f32, |m, &v| m.max(v.abs()))
            / 127.0;
        let xmax = x.data().iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        let sx = xmax / 127.0;
        let (c_out, ohw) = (y_sim.shape()[1], y_sim.shape()[2] * y_sim.shape()[3]);
        for (i, (&a, &b)) in y_sim.data().iter().zip(y_q.data()).enumerate() {
            let oc = (i / ohw) % c_out;
            let rowsum: f32 = quant.weights()[oc * kdim..][..kdim]
                .iter()
                .map(|v| v.abs())
                .sum();
            let tol = quant_tolerance(sw, sx, kdim, rowsum, xmax);
            prop_assert!(
                (a - b).abs() <= tol,
                "y[{i}] (oc {oc}): simulated {a} vs int8 {b}, tol {tol}"
            );
        }
    }

    /// Linear: same scale-derived pin of `Precision::Int8` against the
    /// quant-simulated `f32` reference across sizes and widths.
    #[test]
    fn linear_quant_i8_matches_quant_simulated_f32(
        seed in 0u64..10_000,
        groups in 1usize..=4,
        per_group in 1usize..=3,
        out_features in 1usize..=5,
        batch in 1usize..=4,
        active_pick in 0usize..100,
    ) {
        let in_features = groups * per_group;
        let active = active_pick % groups + 1;
        let mut simulated =
            Linear::new("l", in_features, out_features, groups, &mut StdRng::seed_from_u64(seed))
                .expect("cfg");
        let mut quant =
            Linear::new("l", in_features, out_features, groups, &mut StdRng::seed_from_u64(seed))
                .expect("cfg");
        quant.set_precision(Precision::Int8);
        simulated.quantize_weights(8);
        quant.quantize_weights(8);
        simulated.set_active_groups(active).expect("valid width");
        quant.set_active_groups(active).expect("valid width");

        let f_active = simulated.active_in_features();
        let x = Tensor::random(&[batch, f_active], &mut StdRng::seed_from_u64(seed ^ 0xA5));
        let y_sim = simulated.forward(&x, false).expect("simulated forward");
        let y_q = quant.forward(&x, false).expect("quant forward");

        let sw = (0..out_features)
            .flat_map(|of| &quant.weights()[of * in_features..][..f_active])
            .fold(0.0f32, |m, &v| m.max(v.abs()))
            / 127.0;
        let xmax = x.data().iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        let sx = xmax / 127.0;
        for (i, (&a, &b)) in y_sim.data().iter().zip(y_q.data()).enumerate() {
            let of = i % out_features;
            let rowsum: f32 = quant.weights()[of * in_features..][..f_active]
                .iter()
                .map(|v| v.abs())
                .sum();
            let tol = quant_tolerance(sw, sx, f_active, rowsum, xmax);
            prop_assert!(
                (a - b).abs() <= tol,
                "y[{i}] (of {of}): simulated {a} vs int8 {b}, tol {tol}"
            );
        }
    }

    /// Frozen groups stay bit-identical through a GEMM training step
    /// (the paper's switch-without-retraining property must not depend
    /// on the compute path).
    #[test]
    fn gemm_training_step_keeps_frozen_groups_bit_identical(
        seed in 0u64..10_000,
        grouped in proptest::bool::ANY,
        groups in 2usize..=4,
        train_from_pick in 0usize..100,
    ) {
        let cfg = Conv2dConfig {
            in_channels: groups * 2,
            out_channels: groups * 2,
            kernel: 3,
            stride: 1,
            padding: 1,
            conv_groups: if grouped { groups } else { 1 },
            prune_groups: groups,
        };
        let mut conv = Conv2d::new("c", cfg, &mut StdRng::seed_from_u64(seed)).expect("cfg");
        // Freeze groups 0..train_from, train train_from..groups.
        let train_from = train_from_pick % groups;
        conv.set_trainable_groups(train_from..groups);
        let before = conv.weights().to_vec();

        let c_in = conv.expected_in_channels();
        let x = Tensor::random(&[2, c_in, 5, 5], &mut StdRng::seed_from_u64(seed ^ 0x77));
        let y = conv.forward(&x, true).expect("forward");
        let go = Tensor::random(y.shape(), &mut StdRng::seed_from_u64(seed ^ 0x88));
        conv.backward(&go).expect("backward");
        conv.sgd_step(0.05, 0.9);

        let weights_per_oc = cfg.in_channels / cfg.conv_groups * cfg.kernel * cfg.kernel;
        let opg = cfg.out_channels / groups;
        for (wi, (&now, &was)) in conv.weights().iter().zip(&before).enumerate() {
            let group = wi / weights_per_oc / opg;
            if group < train_from {
                // Bit-identical: compare representations, not values.
                prop_assert!(
                    now.to_bits() == was.to_bits(),
                    "frozen group {group} weight {wi} changed: {was} -> {now}"
                );
            }
        }
    }
}
