//! What one served tenant costs: the live heap a tiny tenant adds, from
//! its build to a full statistics window, split by phase and bounded.
//!
//! One test in its own binary, so the process's live heap
//! ([`eml_testalloc::live_bytes`]) moves only with what this test
//! builds. It builds `TENANTS` `testbed::tiny_dnn` models the way the
//! serving benchmark does (int8 activation scales calibrated over one
//! batch of `CAL_BATCH` samples at each of the four widths, then `f32`
//! at full width), registers them with a two-driver executor, serves
//! each one request and then enough to fill its latency window, and
//! prints the bytes per tenant each phase added. Per-thread state (the
//! forward's scratch and spares, the im2col plans) is paid once per
//! thread, so at this many tenants it is a rounding error; what the
//! bound sees is what each tenant holds for itself: master weights,
//! packed panels, observers, queue, completion slots and window.

use std::time::Duration;

use eml_core::requirements::Requirements;
use eml_dnn::{DynamicDnn, Precision, WidthLevel};
use eml_nn::tensor::Tensor;
use eml_serve::{testbed, Executor, ExecutorConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[global_allocator]
static ALLOC: eml_testalloc::Counting = eml_testalloc::Counting;

const TENANTS: usize = 100;
/// Width levels of the testbed models.
const LEVELS: usize = 4;
/// The benchmark's calibration batch (its `fanout_100t` pool is one
/// such batch).
const CAL_BATCH: usize = 32;
/// Live heap one tenant may hold after a full window. Measured at
/// 22.2 KB a tenant (x86-64): build 7.8 KB, calibration 1.0 KB,
/// registration 0.9 KB, first request 10.5 KB (its packed panels),
/// steady 2.0 KB (its latency window). A tenant that kept its training
/// state (≈ 11 KB) or private forward scratch (≈ 10 KB f32, and the
/// int8 scratch its calibration grew) read 56.0 KB.
const BOUND: u64 = 28 << 10;
const TIMEOUT: Duration = Duration::from_secs(60);

fn name(i: usize) -> String {
    format!("tenant-{i:03}")
}

/// Bytes per tenant the live heap grew by since `from`.
fn per_tenant(from: u64) -> u64 {
    eml_testalloc::live_bytes().saturating_sub(from) / TENANTS as u64
}

/// Serves one request to every tenant, `rounds` times over.
fn serve(exec: &Executor, sample: &[f32], rounds: usize) {
    let mut tickets = Vec::with_capacity(TENANTS);
    for _ in 0..rounds {
        tickets.extend((0..TENANTS).map(|i| exec.submit(&name(i), sample).unwrap()));
        for t in tickets.drain(..) {
            t.wait_timeout(TIMEOUT).unwrap();
        }
    }
}

#[test]
fn a_served_tiny_tenant_holds_what_inference_reads() {
    let cfg = ExecutorConfig {
        pool_workers: 2,
        ..ExecutorConfig::default()
    };
    let window = cfg.stats_window;
    let exec = Executor::new(cfg);
    let req = Requirements::new();
    let sample = vec![0.25f32; 3 * 8 * 8];
    let start = eml_testalloc::live_bytes();

    let mut mark = start;
    let phase = |from: &mut u64| {
        let bytes = per_tenant(*from);
        *from = eml_testalloc::live_bytes();
        bytes
    };
    let mut dnns: Vec<DynamicDnn> = (0..TENANTS)
        .map(|i| testbed::tiny_dnn(i as u64 + 1))
        .collect();
    let build = phase(&mut mark);
    for (i, dnn) in dnns.iter_mut().enumerate() {
        let batch = Tensor::random(&[CAL_BATCH, 3, 8, 8], &mut StdRng::seed_from_u64(i as u64));
        for level in 0..LEVELS {
            dnn.set_level(WidthLevel(level)).unwrap();
            dnn.calibrate([&batch]).unwrap();
        }
        dnn.set_level(WidthLevel(LEVELS - 1)).unwrap();
        dnn.set_precision(Precision::F32);
    }
    let calibrate = phase(&mut mark);
    for (i, dnn) in dnns.into_iter().enumerate() {
        exec.register_dnn(name(i), dnn, &req).unwrap();
    }
    let register = phase(&mut mark);
    serve(&exec, &sample, 1);
    let first = phase(&mut mark);
    serve(&exec, &sample, window);
    let steady = phase(&mut mark);
    let total = per_tenant(start);
    eprintln!(
        "tenant_bytes: live heap per tiny tenant {total} B: build {build}, calibrate \
         {calibrate}, register {register}, first request {first}, steady {steady}"
    );
    assert!(
        total <= BOUND,
        "a served tiny tenant holds {total} live bytes, over the {BOUND}-byte bound \
         (build {build}, calibrate {calibrate}, register {register}, first request \
         {first}, steady {steady})"
    );
}
