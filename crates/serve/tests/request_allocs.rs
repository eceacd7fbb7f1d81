//! The request path's heap budget, pinned: after warm-up a request
//! allocates nothing but its own logits row, and a batch adds only the
//! forward's output tensor.
//!
//! One test in its own binary, so the process-wide tally
//! ([`eml_testalloc::count_process`]) sees the submitting thread, the
//! pool driver and the watchdog and nothing else. One pool driver, so
//! the forward's per-thread spare buffers are warm on the thread that
//! serves the measured batch.

use std::time::Duration;

use eml_core::requirements::Requirements;
use eml_serve::{testbed, Executor, ExecutorConfig, Ticket};

#[global_allocator]
static ALLOC: eml_testalloc::Counting = eml_testalloc::Counting;

const APP: &str = "cam";
const TIMEOUT: Duration = Duration::from_secs(20);
/// The measured batch: below `batch_cap`, so it rides one forward.
const K: usize = 4;

/// Queues `K` requests behind a pause, releases them as one batch and
/// waits for every ticket, writing each completion's batch size into
/// `sizes`. `tickets` is the caller's, so the test allocates nothing.
fn one_batch(exec: &Executor, sample: &[f32], tickets: &mut Vec<Ticket>, sizes: &mut Vec<usize>) {
    exec.pause(APP).unwrap();
    for _ in 0..K {
        tickets.push(exec.submit(APP, sample).unwrap());
    }
    exec.resume(APP).unwrap();
    sizes.clear();
    for t in tickets.drain(..) {
        sizes.push(t.wait_timeout(TIMEOUT).unwrap().batch_size);
    }
}

#[test]
fn a_warm_request_allocates_only_its_logits() {
    let cfg = ExecutorConfig {
        pool_workers: 1,
        ..ExecutorConfig::default()
    };
    let window = cfg.stats_window;
    let exec = Executor::new(cfg);
    // No deadline: nothing is shed and the batch is never shrunk.
    exec.register_dnn(APP, testbed::tiny_dnn(1), &Requirements::new())
        .unwrap();
    let sample = vec![0.25f32; 3 * 8 * 8];
    let mut tickets = Vec::with_capacity(K);
    let mut sizes = Vec::with_capacity(K);

    // Warm-up: fill the latency window, and take every recycled buffer
    // (slots, queued samples, the batch buffer, the forward's spares)
    // to the high water of batch 1 and batch K.
    for _ in 0..window + 8 {
        exec.submit(APP, &sample)
            .unwrap()
            .wait_timeout(TIMEOUT)
            .unwrap();
    }
    for _ in 0..4 {
        one_batch(&exec, &sample, &mut tickets, &mut sizes);
    }

    // The submitting thread: submit → wait_timeout → drop.
    let ((), mine) = eml_testalloc::count(|| {
        let ticket = exec.submit(APP, &sample).unwrap();
        let done = ticket.wait_timeout(TIMEOUT).unwrap();
        drop(ticket);
        drop(done);
    });

    // The whole process, for one batch of K: the submitter, the driver
    // and the watchdog.
    let ((), process) = eml_testalloc::count_process(|| {
        one_batch(&exec, &sample, &mut tickets, &mut sizes);
    });
    eprintln!(
        "request_allocs: submitting thread {} allocations per request; \
         process {process} per batch of {K} (batch sizes {sizes:?})",
        mine.count
    );
    assert_eq!(sizes, [K; K], "the measured requests rode one batch");
    assert_eq!(
        mine.count, 0,
        "submit → wait_timeout → drop allocated on the submitting thread: {mine:?}"
    );
    // One logits row per request plus the forward's output tensor
    // (its data and its shape).
    assert_eq!(process, K as u64 + 2, "allocations per batch of {K}");
}
