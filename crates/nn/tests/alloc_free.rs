//! The inference walk allocates only what it returns: after warm-up, a
//! `Network::forward(x, false)` of the default CNN makes at most two
//! heap allocations — the returned logits' data and shape — in `f32`
//! and in chained int8, at batch 1 and 8. Every activation in between
//! is a recycled buffer of the calling thread (`Layer::infer`), and
//! the per-layer scratch (im2col plans, pack buffers, int8 panels)
//! only grows.
//!
//! The walk runs on one band: a parallel band split hands its jobs to
//! rayon's scope, which boxes each one — that is the pool's cost, not
//! the walk's.

use eml_nn::arch::{build_group_cnn, CnnConfig};
use eml_nn::tensor::Tensor;
use eml_nn::workers::with_band_cap;
use eml_nn::{Network, Precision};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[global_allocator]
static ALLOC: eml_testalloc::Counting = eml_testalloc::Counting;

fn network(precision: Precision) -> Network {
    let mut net =
        build_group_cnn(CnnConfig::default(), &mut StdRng::seed_from_u64(7)).expect("valid arch");
    if precision == Precision::Int8 {
        let cal = Tensor::random(&[4, 3, 16, 16], &mut StdRng::seed_from_u64(8));
        net.calibrate([&cal]).expect("calibration runs");
        net.set_precision(Precision::Int8);
        assert!(net.plan_quant_chain().engaged(), "int8 walk is chained");
    }
    net
}

#[test]
fn steady_inference_forward_allocates_only_the_logits() {
    for precision in [Precision::F32, Precision::Int8] {
        let mut net = network(precision);
        for batch in [1usize, 8] {
            let x = Tensor::random(&[batch, 3, 16, 16], &mut StdRng::seed_from_u64(9));
            with_band_cap(1, || {
                let warm = net.forward(&x, false).expect("warm-up forward");
                let _ = net.forward(&x, false).expect("warm-up forward");
                let (logits, allocs) =
                    eml_testalloc::count(|| net.forward(&x, false).expect("steady forward"));
                assert!(
                    allocs.count <= 2,
                    "{precision:?} batch {batch}: {} allocations ({} bytes) per steady forward",
                    allocs.count,
                    allocs.bytes
                );
                assert_eq!(logits, warm, "{precision:?} batch {batch}: same logits");
            });
        }
    }
}
