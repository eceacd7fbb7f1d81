//! The reference loop nests as a test oracle: [`Oracle`] is what
//! `Conv2d` and `Linear` implement in test builds, and the property
//! tests below pin the GEMM path to it. On random shapes, strides,
//! paddings, group structures and widths, forward outputs, input
//! gradients and post-step outputs must agree to within 1e-4.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::arch::CnnConfig;
use crate::conv::{Conv2d, Conv2dConfig};
use crate::layer::Layer;
use crate::linear::Linear;
use crate::tensor::Tensor;
use crate::workers::FORCE_WORKERS;

const TOL: f32 = 1e-4;

fn assert_close(a: &Tensor, b: &Tensor, what: &str) -> Result<(), String> {
    if a.shape() != b.shape() {
        return Err(format!("{what}: shapes {:?} vs {:?}", a.shape(), b.shape()));
    }
    for (i, (&x, &y)) in a.data().iter().zip(b.data()).enumerate() {
        if (x - y).abs() > TOL {
            return Err(format!("{what}[{i}]: reference {x} vs gemm {y}"));
        }
    }
    Ok(())
}

/// The reference loop nests of a layer with a GEMM path, implemented
/// (in test builds only) next to the production code they check.
pub(crate) trait Oracle: Layer {
    /// Oracle forward; caches the input for
    /// [`Oracle::backward_reference`] when `train`.
    fn forward_reference(&mut self, input: &Tensor, train: bool) -> crate::Result<Tensor>;

    /// Oracle backward: accumulates the parameter gradients and returns
    /// the input gradient.
    fn backward_reference(&mut self, grad_out: &Tensor) -> crate::Result<Tensor>;
}

/// Forward, input gradient and one SGD step (`lr`, `momentum`) through
/// both paths; `seed` draws the output gradient.
fn check_step<L: Oracle>(
    reference: &mut L,
    gemm: &mut L,
    x: &Tensor,
    seed: u64,
    (lr, momentum): (f32, f32),
    what: &str,
) -> Result<(), String> {
    let y_ref = reference
        .forward_reference(x, true)
        .expect("reference forward");
    let y_gemm = gemm.forward(x, true).expect("gemm forward");
    assert_close(&y_ref, &y_gemm, &format!("{what} forward"))?;

    let go = Tensor::random(y_ref.shape(), &mut StdRng::seed_from_u64(seed ^ 0x5A));
    let gx_ref = reference
        .backward_reference(&go)
        .expect("reference backward");
    let gx_gemm = gemm.backward(&go).expect("gemm backward");
    assert_close(&gx_ref, &gx_gemm, &format!("{what} input gradient"))?;

    // Weight/bias gradients agree iff the updated layers still produce
    // the same outputs after a step.
    reference.sgd_step(lr, momentum);
    gemm.sgd_step(lr, momentum);
    let y2_ref = reference
        .forward_reference(x, false)
        .expect("reference forward");
    let y2_gemm = gemm.forward(x, false).expect("gemm forward");
    assert_close(&y2_ref, &y2_gemm, &format!("{what} forward after step"))
}

/// The batch-parallel GEMM path (band splitting + per-band scratch
/// reuse) agrees with the reference loops on every conv geometry of
/// `CnnConfig::default()` and its classifier. Batch 16 pushes every
/// conv layer past the parallel work threshold, which the small
/// proptest shapes below never reach; four forced workers make the
/// band split real on any host.
#[test]
fn large_batch_parallel_path_matches_reference() {
    let cfg = CnnConfig::default();
    let (c, h, w) = cfg.input;
    let (w1, w2, g) = (cfg.base_width, 2 * cfg.base_width, cfg.groups);
    let conv = |in_channels, out_channels, conv_groups| Conv2dConfig {
        in_channels,
        out_channels,
        kernel: 3,
        stride: 1,
        padding: 1,
        conv_groups,
        prune_groups: g,
    };
    let batch = 16;
    let mut rng = StdRng::seed_from_u64(11);
    FORCE_WORKERS.with(|f| f.set(Some(4)));
    for (name, layer_cfg, hw) in [
        ("conv1", conv(c, w1, 1), h),
        ("conv2", conv(w1, w2, g), h / 2),
        ("conv3", conv(w2, w2, g), h / 4),
    ] {
        let mut reference = Conv2d::new(name, layer_cfg, &mut StdRng::seed_from_u64(5)).unwrap();
        let mut gemm = Conv2d::new(name, layer_cfg, &mut StdRng::seed_from_u64(5)).unwrap();
        let x = Tensor::random(&[batch, layer_cfg.in_channels, hw, hw], &mut rng);
        check_step(&mut reference, &mut gemm, &x, 11, (0.05, 0.9), name)
            .unwrap_or_else(|e| panic!("batch-16 {e}"));
    }
    let features = w2 * (h / 4) * (w / 4);
    let mut reference = Linear::new(
        "fc",
        features,
        cfg.classes,
        g,
        &mut StdRng::seed_from_u64(5),
    )
    .expect("cfg");
    let mut gemm = Linear::new(
        "fc",
        features,
        cfg.classes,
        g,
        &mut StdRng::seed_from_u64(5),
    )
    .expect("cfg");
    let x = Tensor::random(&[batch, features], &mut rng);
    check_step(&mut reference, &mut gemm, &x, 11, (0.05, 0.9), "fc")
        .unwrap_or_else(|e| panic!("batch-16 {e}"));
    FORCE_WORKERS.with(|f| f.set(None));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Conv2d: forward, input gradient and one SGD step agree across
    /// paths for random geometry, both group structures and every
    /// active width.
    #[test]
    fn conv_backends_agree(
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
        // Keep the padded input at least kernel-sized (out_hw rejects
        // smaller), but deliberately include kernels that overhang the
        // whole row (kernel > w, valid with padding) — a class the
        // lowering once mishandled.
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
        let mut reference = Conv2d::new("c", cfg, &mut StdRng::seed_from_u64(seed)).expect("cfg");
        let mut gemm = Conv2d::new("c", cfg, &mut StdRng::seed_from_u64(seed)).expect("cfg");
        reference.set_active_groups(active).expect("valid width");
        gemm.set_active_groups(active).expect("valid width");

        let c_in = reference.expected_in_channels();
        let x = Tensor::random(&[batch, c_in, h, w], &mut StdRng::seed_from_u64(seed ^ 0xA5));
        check_step(&mut reference, &mut gemm, &x, seed, (0.1, 0.0), "conv")?;
        for (i, (&a, &b)) in reference.weights().iter().zip(gemm.weights()).enumerate() {
            prop_assert!(
                (a - b).abs() <= TOL,
                "post-step weight {i}: reference {a} vs gemm {b}"
            );
        }
    }

    /// Linear: forward, input gradient and one SGD step agree across
    /// paths for random sizes and every active width.
    #[test]
    fn linear_backends_agree(
        seed in 0u64..10_000,
        groups in 1usize..=4,
        per_group in 1usize..=3,
        out_features in 1usize..=5,
        batch in 1usize..=4,
        active_pick in 0usize..100,
    ) {
        let in_features = groups * per_group;
        let active = active_pick % groups + 1;
        let mut reference =
            Linear::new("l", in_features, out_features, groups, &mut StdRng::seed_from_u64(seed))
                .expect("cfg");
        let mut gemm =
            Linear::new("l", in_features, out_features, groups, &mut StdRng::seed_from_u64(seed))
                .expect("cfg");
        reference.set_active_groups(active).expect("valid width");
        gemm.set_active_groups(active).expect("valid width");

        let f_active = reference.active_in_features();
        let x = Tensor::random(&[batch, f_active], &mut StdRng::seed_from_u64(seed ^ 0xA5));
        check_step(&mut reference, &mut gemm, &x, seed, (0.1, 0.0), "linear")?;
    }
}
