//! Teardown gives back what it built: a process that stands up and
//! closes executors one after another holds one executor's heap, not
//! the sum of every executor it ever ran.
//!
//! One test in its own binary, so the process's live heap
//! ([`eml_testalloc::live_bytes`]) moves only with what this test
//! builds and frees. A first, warm cycle brings every process-lifetime
//! cache (the worker pool's thread-locals, the standard library's
//! lazily built state) to its high water; each later cycle must leave
//! the live heap within [`SLACK`] of where the warm cycle left it. An
//! executor that keeps its tenants alive past its drop leaves about
//! 40 KB per tiny tenant behind, some 4 MB per cycle here.

use std::time::Duration;

use eml_core::requirements::Requirements;
use eml_serve::{testbed, Executor, ExecutorConfig};

#[global_allocator]
static ALLOC: eml_testalloc::Counting = eml_testalloc::Counting;

const TENANTS: usize = 100;
const CYCLES: usize = 3;
/// Growth of the live heap a later cycle may show over the warm one.
/// Measured growth is a few dozen bytes; one leaked cycle is some
/// 250 times this slack.
const SLACK: u64 = 16 << 10;
const TIMEOUT: Duration = Duration::from_secs(20);

fn name(i: usize) -> String {
    format!("tenant-{i:03}")
}

/// One executor lifetime: two drivers, `TENANTS` tiny models, one
/// request each, one deregister and re-register of the same name, and
/// the drop.
fn one_lifetime() {
    let exec = Executor::new(ExecutorConfig {
        pool_workers: 2,
        ..ExecutorConfig::default()
    });
    let req = Requirements::new();
    for i in 0..TENANTS {
        exec.register_dnn(name(i), testbed::tiny_dnn(i as u64 + 1), &req)
            .unwrap();
    }
    let sample = vec![0.25f32; 3 * 8 * 8];
    for i in 0..TENANTS {
        exec.submit(&name(i), &sample)
            .unwrap()
            .wait_timeout(TIMEOUT)
            .unwrap();
    }
    let churned = name(0);
    exec.deregister_dnn(&churned).unwrap();
    exec.register_dnn(churned.as_str(), testbed::tiny_dnn(1), &req)
        .unwrap();
    exec.submit(&churned, &sample)
        .unwrap()
        .wait_timeout(TIMEOUT)
        .unwrap();
    drop(exec);
}

#[test]
fn a_dropped_executor_gives_back_its_tenants() {
    one_lifetime();
    let warm = eml_testalloc::live_bytes();
    let mut after = Vec::with_capacity(CYCLES);
    for _ in 0..CYCLES {
        one_lifetime();
        after.push(eml_testalloc::live_bytes());
    }
    eprintln!(
        "teardown_frees: live bytes after the warm cycle {warm}, after each later cycle {after:?}"
    );
    for (cycle, &live) in after.iter().enumerate() {
        assert!(
            live <= warm + SLACK,
            "cycle {}: {live} live bytes, {} above the warm cycle's {warm} \
             (slack {SLACK}): a dropped executor kept what it built",
            cycle + 1,
            live.saturating_sub(warm)
        );
    }
}
