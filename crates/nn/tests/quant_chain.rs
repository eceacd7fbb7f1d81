//! Tests of the chained-int8 execution path: with frozen activation
//! scales, `Precision::Int8` forwards keep activations on the int8
//! grid across the whole network — one f32→i8 quantisation at the
//! input, one i8→f32 dequantisation at the logits, saturating-i8
//! requantisation (ReLU fused) at every layer edge in between — and
//! must match the per-layer round-trip path within an analytic,
//! scale-derived tolerance. See `Network::plan_quant_chain`.

use eml_nn::activation::{Flatten, Relu};
use eml_nn::arch::{build_group_cnn, CnnConfig};
use eml_nn::conv::{Conv2d, Conv2dConfig};
use eml_nn::layer::Layer;
use eml_nn::linear::Linear;
use eml_nn::pool::MaxPool2d;
use eml_nn::quant::{layer_io_events, reset_layer_io_events, QAct, QTensor};
use eml_nn::tensor::Tensor;
use eml_nn::{Network, Precision};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A calibrated, frozen default CNN at `Precision::Int8`.
fn calibrated_cnn(seed: u64) -> Network {
    let mut net = build_group_cnn(CnnConfig::default(), &mut StdRng::seed_from_u64(seed))
        .expect("valid arch");
    net.set_precision(Precision::Int8);
    let batches: Vec<Tensor> = (0..2)
        .map(|i| Tensor::random(&[2, 3, 16, 16], &mut StdRng::seed_from_u64(seed ^ (10 + i))))
        .collect();
    let report = net.calibrate(&batches).expect("calibration runs");
    assert_eq!(report.len(), 4, "conv1-3 + fc have observers");
    assert!(report.iter().all(|r| r.scale > 0.0), "scales resolved");
    net
}

/// The per-layer reference: a walk of every layer's own `forward`, in
/// which each quantised layer is a one-layer chain (it quantises its
/// `f32` input and dequantises its output).
fn per_layer_forward(net: &mut Network, x: &Tensor) -> Tensor {
    let mut y = x.clone();
    for i in 0..net.layer_count() {
        let layer = net.layer_mut(i).expect("index in range");
        y = layer.forward(&y, false).expect("per-layer forward");
    }
    y
}

/// The acceptance-criterion instrumentation test: with frozen scales,
/// a chained QuantI8 forward performs exactly one f32→i8 quantisation
/// (the network input) and one i32/i8→f32 dequantisation (the logits)
/// **regardless of depth**, at every width — while the per-layer
/// round-trip path pays one of each per quantised layer.
#[test]
fn chained_forward_quantises_once_and_dequantises_once() {
    let mut net = calibrated_cnn(1);
    let x = Tensor::random(&[1, 3, 16, 16], &mut StdRng::seed_from_u64(99));
    for width in 1..=4usize {
        net.set_active_groups(width).expect("valid width");
        reset_layer_io_events();
        let _ = net.forward(&x, false).expect("chained forward");
        assert_eq!(
            layer_io_events(),
            (1, 1),
            "width {width}: chained forward must quantise once and dequantise once"
        );
        // The per-layer path pays the round trip at all 4 quantised
        // layers (conv1, conv2, conv3, fc).
        reset_layer_io_events();
        let _ = per_layer_forward(&mut net, &x);
        assert_eq!(
            layer_io_events(),
            (4, 4),
            "width {width}: per-layer path round-trips at every quantised layer"
        );
    }
}

/// The plan itself: the reference CNN (conv-relu-pool ×2, conv-relu,
/// flatten, fc) resolves three quantised-to-quantised edges and folds
/// all three ReLUs into their convolutions' epilogues.
#[test]
fn plan_resolves_every_edge_and_fuses_relus() {
    let mut net = calibrated_cnn(2);
    let plan = net.plan_quant_chain();
    assert!(plan.engaged());
    assert_eq!(plan.edges(), 3, "conv1→conv2, conv2→conv3, conv3→fc");
    assert_eq!(plan.fused_relus(), 3);
    // Unfrozen scales disengage the whole plan.
    net.freeze_act_scales(false);
    let plan = net.plan_quant_chain();
    assert!(!plan.engaged());
    assert_eq!(plan.edges(), 0);
    // Refreezing re-engages (the ranges are still recorded).
    net.freeze_act_scales(true);
    assert!(net.plan_quant_chain().engaged());
    // The f32 path never chains, frozen or not.
    net.set_precision(Precision::F32);
    assert!(!net.plan_quant_chain().engaged());
}

/// The chained path executes wide batches in cache-sized sample blocks
/// (`QuantChainPlan::block`); with frozen scales the split must be
/// bit-invisible — batch-N logits identical to N batch-1 forwards,
/// whatever the block boundaries.
#[test]
fn blocked_chained_batches_are_bit_identical_to_batch1() {
    let mut net = calibrated_cnn(77);
    let block = net.plan_quant_chain().block();
    assert!(
        (1..16).contains(&block),
        "default CNN must engage real blocking for a batch of 19 (block {block})"
    );
    let n = 19; // deliberately not a multiple of the block size
    let x = Tensor::random(&[n, 3, 16, 16], &mut StdRng::seed_from_u64(99));
    // Cap the planning-thread parallelism so `max(block, workers)`
    // cannot disable blocking on many-core machines.
    let y = eml_nn::workers::with_band_cap(1, || net.forward(&x, false)).expect("batched");
    let classes = y.shape()[1];
    let sample: usize = 3 * 16 * 16;
    for i in 0..n {
        let xi = Tensor::from_vec(
            &[1, 3, 16, 16],
            x.data()[i * sample..(i + 1) * sample].to_vec(),
        )
        .unwrap();
        let yi = net.forward(&xi, false).expect("batch-1");
        assert_eq!(
            &y.data()[i * classes..(i + 1) * classes],
            yi.data(),
            "sample {i} diverged across block boundaries"
        );
    }
}

/// Training forwards never chain: the backward pass needs the f32
/// activation caches, so `train = true` must take the per-layer path
/// even with a fully frozen int8 network.
#[test]
fn training_forward_bypasses_the_chain() {
    let mut net = calibrated_cnn(3);
    let x = Tensor::random(&[2, 3, 16, 16], &mut StdRng::seed_from_u64(5));
    reset_layer_io_events();
    let _ = net.forward(&x, true).expect("training forward");
    assert_eq!(
        layer_io_events(),
        (4, 4),
        "training forward must run the per-layer path"
    );
    // And training still works end to end on a frozen chained network.
    let labels = [0usize, 1];
    net.zero_grads();
    let out = net.train_batch(&x, &labels).expect("train batch");
    assert!(out.loss.is_finite());
    net.sgd_step(0.01, 0.0);
}

/// Chained vs per-layer equivalence on the full reference CNN at every
/// width, bounded analytically: the only divergence is the fused
/// requantisation multiplier's float rounding at each chain edge — at
/// most one grid step of that edge's scale — amplified downstream by
/// at most the product of the remaining layers' absolute weight-row
/// sums.
#[test]
fn chained_cnn_matches_per_layer_path_at_every_width() {
    let mut net = calibrated_cnn(4);
    let x = Tensor::random(&[2, 3, 16, 16], &mut StdRng::seed_from_u64(77));
    for width in 1..=4usize {
        net.set_active_groups(width).expect("valid width");
        let chained = net.forward(&x, false).expect("chained");
        let roundtrip = per_layer_forward(&mut net, &x);
        // Loose empirical-free bound: logits of this 16×16 CNN are
        // O(1); a one-step edge error amplified through ≤ 2 remaining
        // layers stays far below this.
        let max_abs = roundtrip.data().iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        let tol = (0.05 * max_abs).max(0.02);
        for (i, (&a, &b)) in chained.data().iter().zip(roundtrip.data()).enumerate() {
            assert!(
                (a - b).abs() <= tol,
                "width {width} logit[{i}]: chained {a} vs round-trip {b} (tol {tol})"
            );
        }
    }
}

/// Per-layer fallback: unfreezing one mid-network layer must split the
/// chain around it — the unfrozen layer keeps its dynamic-scale
/// semantics (and its f32 round trip), while the segments before and
/// after still chain.
#[test]
fn unfrozen_mid_layer_splits_the_chain() {
    let mut net = calibrated_cnn(6);
    // Layer index 3 is conv2 in the reference stack (conv1, relu,
    // pool, conv2, ...).
    net.layer_mut(3)
        .expect("conv2 exists")
        .freeze_act_scale(false);
    let plan = net.plan_quant_chain();
    assert_eq!(
        plan.edges(),
        1,
        "only conv3→fc survives: conv1 and conv2 are isolated"
    );
    let x = Tensor::random(&[1, 3, 16, 16], &mut StdRng::seed_from_u64(8));
    reset_layer_io_events();
    let y_split = net.forward(&x, false).expect("split-chain forward");
    // conv1 round-trips (1,1), conv2 round-trips dynamically (1,1),
    // conv3→fc chains (1,1).
    assert_eq!(layer_io_events(), (3, 3));
    // And the result still matches the fully per-layer path: conv2's
    // dynamic scale sees the same inputs either way.
    let y_flat = per_layer_forward(&mut net, &x);
    let max_abs = y_flat.data().iter().fold(0.0f32, |m, &v| m.max(v.abs()));
    let tol = (0.05 * max_abs).max(0.02);
    for (i, (&a, &b)) in y_split.data().iter().zip(y_flat.data()).enumerate() {
        assert!(
            (a - b).abs() <= tol,
            "logit[{i}]: split {a} vs flat {b} (tol {tol})"
        );
    }
}

/// i8 ReLU order-preservation: on the positive-scale int8 grid,
/// `max(0)` commutes exactly with quantisation — the chained ReLU of a
/// quantised tensor equals quantising the f32 ReLU.
#[test]
fn relu_i8_fast_path_is_order_preserving() {
    let mut rng = StdRng::seed_from_u64(11);
    let x: Vec<f32> = (0..256).map(|_| rng.gen_range(-2.0..2.0)).collect();
    let scale = 2.0 / 127.0;
    let mut q = QTensor::zeros(&[4, 64], scale);
    for (d, &v) in q.data_mut().iter_mut().zip(&x) {
        *d = (v / scale).round().clamp(-127.0, 127.0) as i16;
    }
    let q_in = q.clone();
    let mut relu = Relu::new("r");
    let QAct::I8(out) = relu.infer(QAct::I8(q), None, false).expect("chained relu") else {
        panic!("relu must stay quantised");
    };
    assert_eq!(out.scale(), scale);
    for (i, (&got, &was)) in out.data().iter().zip(q_in.data()).enumerate() {
        assert_eq!(got, was.max(0), "element {i}: q(relu(x)) == relu_i8(q(x))");
    }
}

/// i8 MaxPool order-preservation: max commutes with the monotone
/// round-and-clamp, so pooling on the grid equals quantising the f32
/// pool — exactly, element for element.
#[test]
fn maxpool_i8_fast_path_is_order_preserving() {
    let mut rng = StdRng::seed_from_u64(12);
    for (window, h, w) in [(2usize, 6usize, 6usize), (3, 6, 6), (2, 7, 5), (3, 7, 5)] {
        let c = 3usize;
        let xf = Tensor::random(&[1, c, h, w], &mut rng);
        let scale = 1.0 / 127.0;
        let mut q = QTensor::zeros(&[1, c, h, w], scale);
        for (d, &v) in q.data_mut().iter_mut().zip(xf.data()) {
            *d = (v / scale).round().clamp(-127.0, 127.0) as i16;
        }
        // f32 pool of the *dequantised* grid values, then requantise:
        // must equal the integer pool exactly.
        let mut pool_f = MaxPool2d::new("p", window);
        let y_f = pool_f.forward(&q.dequantize(), false).expect("f32 pool");
        let mut pool_q = MaxPool2d::new("p", window);
        let QAct::I8(y_q) = pool_q
            .infer(QAct::I8(q), None, false)
            .expect("chained pool")
        else {
            panic!("pool must stay quantised");
        };
        assert_eq!(y_q.shape(), y_f.shape());
        assert_eq!(y_q.scale(), scale);
        for (i, (&qi, &fi)) in y_q.data().iter().zip(y_f.data()).enumerate() {
            let expect = (fi / scale).round() as i16;
            assert_eq!(qi, expect, "window {window} {h}x{w} element {i}");
        }
    }
}

/// Calibration workflow contract: empty batch sets are rejected and
/// leave the network unfrozen; a real calibration freezes every
/// observer, reports positive scales, and restores the precision it
/// found.
#[test]
fn calibrate_reports_scales_and_restores_backend() {
    let mut net =
        build_group_cnn(CnnConfig::default(), &mut StdRng::seed_from_u64(20)).expect("valid arch");
    // Empty calibration: error, and the observers stay dynamic.
    let empty: Vec<Tensor> = Vec::new();
    assert!(net.calibrate(&empty).is_err());
    assert!(!net.plan_quant_chain().engaged());
    // Real calibration from the f32 path: scales freeze, precision
    // comes back as F32.
    let batches = vec![Tensor::random(
        &[2, 3, 16, 16],
        &mut StdRng::seed_from_u64(21),
    )];
    let report = net.calibrate(&batches).expect("calibration runs");
    assert_eq!(net.precision(), Precision::F32, "precision restored");
    assert_eq!(report.len(), 4);
    for entry in &report {
        assert!(entry.max_abs > 0.0, "{}: observed range", entry.layer);
        assert!(
            (entry.scale - entry.max_abs / 127.0).abs() < 1e-9,
            "{}: scale = max_abs/127",
            entry.layer
        );
    }
    // The f32 path ignores the frozen scales entirely…
    assert!(!net.plan_quant_chain().engaged());
    // …but switching the knob to int8 now engages the chain at once.
    net.set_precision(Precision::Int8);
    assert!(net.plan_quant_chain().engaged());
}

/// A calibration that fails mid-run (wrong-shaped batch) must leave
/// the observers **unfrozen**: freezing a never-observed range would
/// silently quantise every activation to zero on the next forward.
#[test]
fn failed_calibration_leaves_observers_dynamic() {
    let mut net =
        build_group_cnn(CnnConfig::default(), &mut StdRng::seed_from_u64(30)).expect("valid arch");
    net.set_precision(Precision::Int8);
    let bad = vec![Tensor::zeros(&[1, 5, 16, 16])]; // 5 channels: conv1 rejects
    assert!(net.calibrate(&bad).is_err());
    assert!(
        !net.plan_quant_chain().engaged(),
        "observers must stay dynamic after a failed calibration"
    );
    // And inference still works on the dynamic per-layer path.
    let x = Tensor::random(&[1, 3, 16, 16], &mut StdRng::seed_from_u64(31));
    let y = net.forward(&x, false).expect("dynamic forward");
    assert!(y.data().iter().any(|&v| v != 0.0), "logits carry signal");
}

/// A ReLU directly after the chain's *tail* (the layer that
/// dequantises to f32) folds into that layer's f32 epilogue too — no
/// separate whole-tensor ReLU pass, bit-identical result.
#[test]
fn tail_relu_fuses_into_the_dequantising_epilogue() {
    let mut rng = StdRng::seed_from_u64(33);
    let cfg = |cin: usize| Conv2dConfig {
        in_channels: cin,
        out_channels: 8,
        kernel: 3,
        stride: 1,
        padding: 1,
        conv_groups: 1,
        prune_groups: 1,
    };
    let layers: Vec<Box<dyn Layer>> = vec![
        Box::new(Conv2d::new("c1", cfg(3), &mut rng).unwrap()),
        Box::new(Relu::new("r1")),
        Box::new(Conv2d::new("c2", cfg(8), &mut rng).unwrap()),
        Box::new(Relu::new("r2")), // tail relu: c2 emits f32
    ];
    let mut net = Network::new(layers, 1, vec![3, 8, 8]).expect("stack builds");
    net.set_precision(Precision::Int8);
    let cal = vec![Tensor::random(
        &[2, 3, 8, 8],
        &mut StdRng::seed_from_u64(34),
    )];
    net.calibrate(&cal).expect("calibration runs");
    let plan = net.plan_quant_chain();
    assert_eq!(plan.edges(), 1, "c1→c2");
    assert_eq!(plan.fused_relus(), 2, "edge relu AND tail relu fold away");
    let x = Tensor::random(&[1, 3, 8, 8], &mut StdRng::seed_from_u64(35));
    reset_layer_io_events();
    let fused = net.forward(&x, false).expect("chained forward");
    assert_eq!(layer_io_events(), (1, 1));
    assert!(
        fused.data().iter().all(|&v| v >= 0.0),
        "tail relu still applied"
    );
    // Bit-identical to the per-layer path's separate f32 relu? The
    // chain differs by the usual edge rounding; pin non-negativity and
    // closeness instead.
    let flat = per_layer_forward(&mut net, &x);
    let max_abs = flat.data().iter().fold(0.0f32, |m, &v| m.max(v.abs()));
    let tol = (0.05 * max_abs).max(0.02);
    for (i, (&a, &b)) in fused.data().iter().zip(flat.data()).enumerate() {
        assert!((a - b).abs() <= tol, "out[{i}]: fused {a} vs flat {b}");
    }
}

/// Builds a conv→relu→pool→conv→relu→flatten→fc stack with recorded
/// per-layer max absolute weight-row sums (the error-amplification
/// factors of the analytic bound).
#[allow(clippy::too_many_arguments)]
fn stack(
    seed: u64,
    groups: usize,
    cpg: usize,
    opg: usize,
    h: usize,
    w: usize,
    grouped: bool,
    pool: bool,
) -> (Network, Vec<f32>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let c_in = groups * cpg;
    let c_mid = groups * opg;
    let conv1 = Conv2d::new(
        "c1",
        Conv2dConfig {
            in_channels: c_in,
            out_channels: c_mid,
            kernel: 3,
            stride: 1,
            padding: 1,
            conv_groups: 1,
            prune_groups: groups,
        },
        &mut rng,
    )
    .expect("conv1 cfg");
    let conv2 = Conv2d::new(
        "c2",
        Conv2dConfig {
            in_channels: c_mid,
            out_channels: c_mid,
            kernel: 3,
            stride: 1,
            padding: 1,
            conv_groups: if grouped { groups } else { 1 },
            prune_groups: groups,
        },
        &mut rng,
    )
    .expect("conv2 cfg");
    let (fh, fw) = if pool { (h / 2, w / 2) } else { (h, w) };
    let fc = Linear::new("fc", c_mid * fh * fw, 5, groups, &mut rng).expect("fc cfg");
    let rowsum = |w: &[f32], cols: usize| -> f32 {
        w.chunks(cols)
            .map(|row| row.iter().map(|v| v.abs()).sum::<f32>())
            .fold(0.0f32, f32::max)
    };
    let k1 = conv1.config().in_channels / conv1.config().conv_groups * 9;
    let k2 = conv2.config().in_channels / conv2.config().conv_groups * 9;
    let sums = vec![
        rowsum(conv1.weights(), k1),
        rowsum(conv2.weights(), k2),
        rowsum(fc.weights(), fc.in_features()),
    ];
    let mut layers: Vec<Box<dyn Layer>> = vec![Box::new(conv1), Box::new(Relu::new("r1"))];
    if pool {
        layers.push(Box::new(MaxPool2d::new("p1", 2)));
    }
    layers.push(Box::new(conv2));
    layers.push(Box::new(Relu::new("r2")));
    layers.push(Box::new(Flatten::new("fl")));
    layers.push(Box::new(fc));
    let net = Network::new(layers, groups, vec![c_in, h, w]).expect("stack builds");
    (net, sums)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Chained output pinned against the per-layer f32-round-trip
    /// QuantI8 path within an analytic tolerance, across random
    /// conv/linear/pool stacks, widths and frozen scales: each chain
    /// edge contributes at most one grid step of its scale (the fused
    /// multiplier's float rounding), amplified by the absolute
    /// weight-row sums of everything downstream.
    #[test]
    fn chained_stack_matches_per_layer_roundtrip(
        seed in 0u64..10_000,
        groups in 1usize..=4,
        cpg in 1usize..=2,
        opg in 1usize..=2,
        h in 4usize..=6,
        w in 4usize..=6,
        grouped in proptest::bool::ANY,
        pool in proptest::bool::ANY,
        batch in 1usize..=3,
        active_pick in 0usize..100,
    ) {
        let (mut net, rowsums) = stack(seed, groups, cpg, opg, h, w, grouped, pool);
        net.set_precision(Precision::Int8);
        let c_in = groups * cpg;
        let cal: Vec<Tensor> = (0..2)
            .map(|i| Tensor::random(&[2, c_in, h, w], &mut StdRng::seed_from_u64(seed ^ (40 + i))))
            .collect();
        let report = net.calibrate(&cal).expect("calibration runs");
        // A dense (conv_groups = 1) second conv expects the full input
        // channel set, so width scaling below G only composes with the
        // grouped form — same constraint as the reference arch.
        let active = if grouped { active_pick % groups + 1 } else { groups };
        net.set_active_groups(active).expect("valid width");
        prop_assume!(net.plan_quant_chain().engaged());

        let x = Tensor::random(&[batch, c_in, h, w], &mut StdRng::seed_from_u64(seed ^ 0x5b));
        let chained = net.forward(&x, false).expect("chained forward");
        let roundtrip = per_layer_forward(&mut net, &x);

        // Edge scales: the frozen input scales of conv2 ("c2") and fc.
        let scale_of = |name: &str| {
            report
                .iter()
                .find(|r| r.layer == name)
                .map(|r| r.scale)
                .expect("layer in report")
        };
        let (s2, sfc) = (scale_of("c2"), scale_of("fc"));
        // One grid step per edge, amplified by everything downstream;
        // 1.5 margin for the row-sum proxy (f32 weights stand in for
        // their quantised panels) plus float slack.
        let tol = 1.5 * (s2 * rowsums[1] * rowsums[2] + sfc * rowsums[2]) + 1e-3;
        for (i, (&a, &b)) in chained.data().iter().zip(roundtrip.data()).enumerate() {
            prop_assert!(
                (a - b).abs() <= tol,
                "logit[{i}]: chained {a} vs round-trip {b}, tol {tol} \
                 (groups {groups}, active {active}, pool {pool}, grouped {grouped})"
            );
        }
    }
}

/// Bit patterns of a tensor's values (NaN-free here: the stacks are
/// finite).
fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The `f32` walk is exact: the inference forward — activations
    /// passed by value, ReLU folded into each conv's storing epilogue,
    /// outputs in recycled buffers — equals the walk of every layer's
    /// own `forward` bit for bit, at every width and batch 1..=9.
    #[test]
    fn f32_walk_matches_per_layer_forward(
        seed in 0u64..10_000,
        groups in 1usize..=4,
        cpg in 1usize..=2,
        opg in 1usize..=2,
        h in 4usize..=6,
        w in 4usize..=6,
        grouped in proptest::bool::ANY,
        pool in proptest::bool::ANY,
    ) {
        let (mut net, _) = stack(seed, groups, cpg, opg, h, w, grouped, pool);
        let c_in = groups * cpg;
        let widths = if grouped { 1..=groups } else { groups..=groups };
        for active in widths {
            net.set_active_groups(active).expect("valid width");
            prop_assert_eq!(net.plan_quant_chain().fused_relus(), 2);
            for batch in 1..=9usize {
                let x = Tensor::random(
                    &[batch, c_in, h, w],
                    &mut StdRng::seed_from_u64(seed ^ ((batch as u64) << 8)),
                );
                let walked = net.forward(&x, false).expect("inference forward");
                let layered = per_layer_forward(&mut net, &x);
                prop_assert_eq!(
                    bits(&walked),
                    bits(&layered),
                    "width {}, batch {}",
                    active,
                    batch
                );
            }
        }
    }

    /// History independence of the recycled activations: `forward(B)`
    /// after `forward(A)` at another batch size and width equals a fresh
    /// network's `forward(B)` on a fresh thread (no spare buffers, no
    /// lowering plans), in `f32` and in chained int8. A step that left
    /// any output element unwritten would return stale values from A.
    #[test]
    fn inference_forward_is_history_independent(
        seed in 0u64..10_000,
        groups in 2usize..=4,
        cpg in 1usize..=2,
        opg in 1usize..=2,
        h in 4usize..=6,
        w in 4usize..=6,
        pool in proptest::bool::ANY,
        int8 in proptest::bool::ANY,
        batch_a in 1usize..=9,
        batch_b in 1usize..=9,
        width_pick in 0usize..100,
    ) {
        let c_in = groups * cpg;
        let build = || {
            let (mut net, _) = stack(seed, groups, cpg, opg, h, w, true, pool);
            if int8 {
                let cal = Tensor::random(&[2, c_in, h, w], &mut StdRng::seed_from_u64(seed ^ 41));
                net.calibrate([&cal]).expect("calibration runs");
                net.set_precision(Precision::Int8);
            }
            net
        };
        let width_b = width_pick % groups + 1;
        let width_a = width_b % groups + 1;
        let xa = Tensor::random(&[batch_a, c_in, h, w], &mut StdRng::seed_from_u64(seed ^ 0xa));
        let xb = Tensor::random(&[batch_b, c_in, h, w], &mut StdRng::seed_from_u64(seed ^ 0xb));

        let mut net = build();
        net.set_active_groups(width_a).expect("valid width");
        let _ = net.forward(&xa, false).expect("forward A");
        net.set_active_groups(width_b).expect("valid width");
        let after_a = net.forward(&xb, false).expect("forward B after A");

        let mut fresh = build();
        let xb_fresh = xb.clone();
        let want = std::thread::spawn(move || {
            fresh.set_active_groups(width_b).expect("valid width");
            fresh.forward(&xb_fresh, false).expect("fresh forward B")
        })
        .join()
        .expect("fresh thread");
        prop_assert_eq!(
            bits(&after_a),
            bits(&want),
            "widths {} then {}, batches {} then {}, int8 {}",
            width_a,
            width_b,
            batch_a,
            batch_b,
            int8
        );
    }
}
