//! The inference walk allocates only what it returns: after warm-up, a
//! `Network::forward(x, false)` of the default CNN makes at most two
//! heap allocations — the returned logits' data and shape — in `f32`
//! and in chained int8, at batch 1 and 8. Every activation in between
//! is a recycled buffer of the calling thread (`Layer::infer`); the
//! forward scratch (im2col columns, int8 quantisation buffers, pack
//! buffers, im2col plans) is the calling thread's too and only grows,
//! and a layer's packed weight panels are built once per weight
//! version.
//!
//! Because that scratch belongs to the thread, not the layer, a second
//! network forwarded on a warm thread allocates only its own packed
//! panels and its logits, nothing sized like im2col columns.
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

/// Bytes the first forward of a never-run default CNN may allocate on a
/// warm thread: its packed weight panels (its parameters as `f32`,
/// padded to whole register tiles: measured at 1.24 times) and the
/// logits. Measured 124.9 KB of this bound's 129.6 KB; per-layer im2col
/// columns added 55.3 KB more (conv1 27.6 KB, conv2 18.4 KB, conv3
/// 9.2 KB).
fn first_forward_bound(params: usize) -> u64 {
    (4 * params * 5 / 4 + 4096) as u64
}

#[test]
fn a_second_network_on_a_warm_thread_allocates_only_its_panels() {
    let mut warm = network(Precision::F32);
    for batch in [1usize, 8] {
        let x = Tensor::random(&[batch, 3, 16, 16], &mut StdRng::seed_from_u64(9));
        with_band_cap(1, || {
            let _ = warm.forward(&x, false).expect("warm-up forward");
            let mut fresh = build_group_cnn(CnnConfig::default(), &mut StdRng::seed_from_u64(11))
                .expect("valid arch");
            let bound = first_forward_bound(fresh.cost().expect("cost").params);
            let (_, allocs) =
                eml_testalloc::count(|| fresh.forward(&x, false).expect("first forward"));
            assert!(
                allocs.bytes <= bound,
                "batch {batch}: a never-run network's first forward on a warm thread \
                 allocated {} bytes in {} allocations, over the {bound}-byte bound",
                allocs.bytes,
                allocs.count
            );
        });
    }
}
