//! A dropped front end gives back its executor: the server owns the
//! executor behind an `Arc` shared with its accept and connection
//! threads, so a process that binds and closes servers one after
//! another must hold one server's heap, not the sum of every server it
//! ran.
//!
//! One test in its own binary, so the process's live heap
//! ([`eml_testalloc::live_bytes`]) moves only with what this test
//! builds and frees. A first, warm cycle brings every process-lifetime
//! cache to its high water; each later cycle must leave the live heap
//! within [`SLACK`] of where the warm cycle left it.

use std::time::Duration;

use eml_core::requirements::Requirements;
use eml_net::{AdmissionConfig, NetClient, NetConfig, NetServer};
use eml_serve::{testbed, Executor, ExecutorConfig};

#[global_allocator]
static ALLOC: eml_testalloc::Counting = eml_testalloc::Counting;

const TENANTS: usize = 100;
const CYCLES: usize = 3;
/// Growth of the live heap a later cycle may show over the warm one.
/// Measured growth is a few dozen bytes; one leaked cycle is some
/// 250 times this slack.
const SLACK: u64 = 16 << 10;
const READ_TIMEOUT: Duration = Duration::from_secs(20);

fn name(i: usize) -> String {
    format!("tenant-{i:03}")
}

/// One server lifetime: an executor with two drivers and `TENANTS`
/// tiny models behind a loopback listener, one client sending one
/// request to each, one deregister and re-register of the same name,
/// then the client's close and the server's drop.
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
    // Admission opened wide: one honest client sends a burst.
    let cfg = NetConfig {
        read_tick: Duration::from_millis(5),
        admission: AdmissionConfig {
            bucket_capacity: 1e9,
            refill_per_sec: 1e9,
            ban_threshold: 1e9,
            ..AdmissionConfig::default()
        },
        ..NetConfig::default()
    };
    let server = NetServer::bind(cfg, exec).expect("bind loopback");
    let mut client = NetClient::connect(server.local_addr(), READ_TIMEOUT).expect("connect");
    client.hello("teardown").unwrap();
    let sample = vec![0.25f32; 3 * 8 * 8];
    for i in 0..TENANTS {
        client.submit(&name(i), &sample).unwrap();
    }
    let churned = name(0);
    let exec = server.executor();
    exec.deregister_dnn(&churned).unwrap();
    exec.register_dnn(churned.as_str(), testbed::tiny_dnn(1), &req)
        .unwrap();
    client.submit(&churned, &sample).unwrap();
    drop(client);
    drop(server);
}

#[test]
fn a_dropped_server_gives_back_its_executor() {
    one_lifetime();
    let warm = eml_testalloc::live_bytes();
    let mut after = Vec::with_capacity(CYCLES);
    for _ in 0..CYCLES {
        one_lifetime();
        after.push(eml_testalloc::live_bytes());
    }
    eprintln!(
        "teardown_frees (net): live bytes after the warm cycle {warm}, after each later cycle {after:?}"
    );
    for (cycle, &live) in after.iter().enumerate() {
        assert!(
            live <= warm + SLACK,
            "cycle {}: {live} live bytes, {} above the warm cycle's {warm} \
             (slack {SLACK}): a dropped server kept what it built",
            cycle + 1,
            live.saturating_sub(warm)
        );
    }
}
