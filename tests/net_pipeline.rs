//! Pipelined connections through the networked front end: a client
//! that writes many frames before reading gets its replies strictly in
//! frame order, whatever the mix of apps, refusals and control frames,
//! and however TCP splits the bytes; and a client that keeps sending but
//! never reads is scored and disconnected instead of pinning its
//! connection thread. Every ticket the front end took still settles, so
//! both ledgers close.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use emlrt::net::client::encode_submit_payload;
use emlrt::net::server::{TAG_PING, TAG_SUBMIT};
use emlrt::net::{frame, AdmissionConfig, NetClient, NetConfig, NetServer, WireStatus};
use emlrt::nn::arch::CnnConfig;
use emlrt::nn::tensor::Tensor;
use emlrt::prelude::*;
use emlrt::serve::testbed;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The server's per-connection reply window (`REPLY_WINDOW` in
/// `crates/net/src/server.rs`).
const WINDOW: usize = 32;
const SAMPLE_LEN: usize = 3 * 8 * 8;
const CLIENT_READ_TIMEOUT: Duration = Duration::from_secs(60);
/// The two served apps and their weight seeds.
const APPS: [(&str, u64); 2] = [("cam", 1), ("mic", 2)];

/// Admission opened wide: these clients are honest but pipelined, and
/// the scorer's own behaviour has its suite in `net_hostile`.
fn wide_open() -> AdmissionConfig {
    AdmissionConfig {
        bucket_capacity: 1e9,
        refill_per_sec: 1e9,
        ban_threshold: 1e9,
        ..AdmissionConfig::default()
    }
}

fn two_app_server() -> NetServer {
    let exec = Executor::new(ExecutorConfig::default());
    for (name, seed) in APPS {
        exec.register_dnn(name, testbed::tiny_dnn(seed), &Requirements::new())
            .unwrap();
    }
    let cfg = NetConfig {
        read_tick: Duration::from_millis(5),
        admission: wide_open(),
        ..NetConfig::default()
    };
    NetServer::bind(cfg, exec).expect("bind loopback")
}

/// One request of the scripted stream and the reply it must earn.
enum Want {
    /// An `Ok` completion carrying exactly these logits, from `app`.
    Logits { app: usize, logits: Vec<f32> },
    /// A reply with this status (an `Ok` ping carries no payload).
    Status(WireStatus),
}

/// The scripted stream: a ping, an unknown app, a run of valid submits
/// to both apps long enough to fill the window on its own, then a
/// malformed payload, an unknown tag and more submits behind them.
/// Returns the bytes and, frame by frame, the reply each must earn.
fn scripted_stream() -> (Vec<u8>, Vec<Want>) {
    let mut twins: Vec<_> = APPS.iter().map(|&(_, s)| testbed::tiny_dnn(s)).collect();
    let mut rng = StdRng::seed_from_u64(0x5EED);
    let mut bytes = Vec::new();
    let mut wants = Vec::new();
    let mut submit = |app: usize, bytes: &mut Vec<u8>, wants: &mut Vec<Want>| {
        let sample: Vec<f32> = (0..SAMPLE_LEN)
            .map(|_| rng.gen_range(-1.0f32..1.0))
            .collect();
        let x = Tensor::from_vec(&[1, 3, 8, 8], sample.clone()).unwrap();
        let logits = twins[app].network_mut().forward(&x, false).unwrap();
        let payload = encode_submit_payload(APPS[app].0, &sample).unwrap();
        bytes.extend(frame::encode(TAG_SUBMIT, &payload));
        wants.push(Want::Logits {
            app,
            logits: logits.data().to_vec(),
        });
    };
    submit(0, &mut bytes, &mut wants);
    submit(1, &mut bytes, &mut wants);
    bytes.extend(frame::encode(TAG_PING, &[]));
    wants.push(Want::Status(WireStatus::Ok));
    let ghost = encode_submit_payload("ghost", &[0.5; SAMPLE_LEN]).unwrap();
    bytes.extend(frame::encode(TAG_SUBMIT, &ghost));
    wants.push(Want::Status(WireStatus::UnknownApp));
    for k in 0..WINDOW {
        submit(usize::from(k % 3 == 1), &mut bytes, &mut wants);
    }
    bytes.extend(frame::encode(TAG_SUBMIT, &[0xFF; 3]));
    wants.push(Want::Status(WireStatus::Malformed));
    submit(0, &mut bytes, &mut wants);
    bytes.extend(frame::encode(0xEE, b"junk"));
    wants.push(Want::Status(WireStatus::UnknownTag));
    submit(1, &mut bytes, &mut wants);
    (bytes, wants)
}

/// Reads one reply per scripted frame and checks that reply *k*
/// answers frame *k*: its status, and for a completion its logits (bit
/// for bit, so it cannot be another frame's) and a per-app sequence
/// number above the app's previous one.
fn expect_in_order(client: &mut NetClient, wants: &[Want]) {
    let mut last_seq: [Option<u64>; 2] = [None, None];
    for (k, want) in wants.iter().enumerate() {
        let (status, payload) = client.read_status().expect("a reply per frame");
        match want {
            Want::Status(s) => {
                assert_eq!(status, *s, "reply {k}");
                if *s == WireStatus::Ok {
                    assert!(payload.is_empty(), "reply {k} is not the ping's");
                }
            }
            Want::Logits { app, logits } => {
                assert_eq!(status, WireStatus::Ok, "reply {k}");
                let (seq, got) = decode_completion(&payload);
                assert_eq!(&got, logits, "reply {k} answers another frame");
                assert!(
                    last_seq[*app].is_none_or(|prev| seq > prev),
                    "reply {k}: {} seq {seq} after {:?}",
                    APPS[*app].0,
                    last_seq[*app]
                );
                last_seq[*app] = Some(seq);
            }
        }
    }
}

/// `[u64 seq][u32 pred][u32 n][n × f32]` → (seq, logits).
fn decode_completion(body: &[u8]) -> (u64, Vec<f32>) {
    let seq = u64::from_le_bytes(body[..8].try_into().unwrap());
    let n = u32::from_le_bytes(body[12..16].try_into().unwrap()) as usize;
    assert_eq!(body.len(), 16 + 4 * n);
    let logits = body[16..]
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect();
    (seq, logits)
}

/// Counts the scripted frames by kind: (submit frames, valid submits,
/// other frames).
fn census(wants: &[Want]) -> (u64, u64, u64) {
    let valid = wants
        .iter()
        .filter(|w| matches!(w, Want::Logits { .. }))
        .count() as u64;
    // Ping and the unknown tag are the two non-submit frames.
    let other = 2;
    (wants.len() as u64 - other, valid, other)
}

/// Shuts the server down and checks both ledgers.
fn close_the_books(mut server: NetServer, hellos: u64, wants: &[Want], runs: u64) {
    server.shutdown();
    let net = server.stats();
    let (submit_frames, valid, other) = census(wants);
    assert_eq!(net.conn_panics, 0, "{net:?}");
    assert_eq!(
        net.frames,
        hellos + runs * (submit_frames + other),
        "hello + ping + submit + unknown frames: {net:?}"
    );
    assert_eq!(net.exec_submitted, runs * valid, "{net:?}");
    assert_eq!(
        net.exec_submitted,
        net.completions + net.ticket_errors,
        "{net:?}"
    );
    assert_eq!(net.ticket_errors, 0, "{net:?}");
    let exec = server.executor();
    let (mut settled, mut storms) = (0, 0);
    for (name, _) in APPS {
        let s = exec.stats(name).unwrap();
        assert_eq!(s.out_of_order, 0, "{name}: {s:?}");
        settled += s.completed + s.errors + s.rejected + s.shed;
        storms += s.storm_injected;
    }
    assert_eq!(net.exec_submitted + net.exec_rejected + storms, settled);
}

/// A full window and then some, in one write: every reply answers its
/// own frame, in order, across two apps, refusals and control frames.
#[test]
fn a_pipelined_window_is_answered_in_frame_order() {
    let server = two_app_server();
    let (bytes, wants) = scripted_stream();
    assert!(wants.len() > WINDOW);
    let mut c = NetClient::connect(server.local_addr(), CLIENT_READ_TIMEOUT).unwrap();
    c.hello("pipeliner").unwrap();
    c.send_raw(&bytes).unwrap();
    expect_in_order(&mut c, &wants);
    close_the_books(server, 1, &wants, 1);
}

/// The same byte stream cut at seeded random byte boundaries, with
/// pauses well under the frame deadline between the pieces: the reply
/// sequence never depends on how TCP delivers the bytes.
#[test]
fn replies_do_not_depend_on_how_the_bytes_are_split() {
    const SEEDS: u64 = 64;
    let server = two_app_server();
    let (bytes, wants) = scripted_stream();
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cuts: Vec<usize> = (0..rng.gen_range(1..12))
            .map(|_| rng.gen_range(1..bytes.len()))
            .collect();
        cuts.extend([0, bytes.len()]);
        cuts.sort_unstable();
        cuts.dedup();
        let mut c = NetClient::connect(server.local_addr(), CLIENT_READ_TIMEOUT).unwrap();
        c.hello(&format!("splitter-{seed}")).unwrap();
        for piece in cuts.windows(2) {
            c.send_raw(&bytes[piece[0]..piece[1]]).unwrap();
            std::thread::sleep(Duration::from_micros(rng.gen_range(0..3_000)));
        }
        expect_in_order(&mut c, &wants);
    }
    close_the_books(server, SEEDS, &wants, SEEDS);
}

/// A client that fills the window and never reads its replies: once
/// the socket's buffers are full the reply write stalls, and within the
/// write timeout (plus a tick) the connection is scored as a stall and
/// closed. The windowed tickets still settle in both ledgers.
#[test]
fn a_client_that_stops_reading_is_scored_and_closed() {
    const WRITE_TIMEOUT: Duration = Duration::from_millis(300);
    const TICK: Duration = Duration::from_millis(10);
    // Scheduling allowance for a loaded test host, plus the time to
    // settle the last window after the stall.
    const SLACK: Duration = Duration::from_secs(1);
    // 4,096 classes make every reply 16 KiB, so a few hundred replies
    // fill the loopback buffers.
    let wide = testbed::dnn_with(
        CnnConfig {
            input: (3, 8, 8),
            classes: 4096,
            groups: 4,
            base_width: 8,
        },
        5,
    );
    let exec = Executor::new(ExecutorConfig::default());
    exec.register_dnn("wide", wide, &Requirements::new())
        .unwrap();
    let cfg = NetConfig {
        read_tick: TICK,
        write_timeout: WRITE_TIMEOUT,
        admission: wide_open(),
        ..NetConfig::default()
    };
    let mut server = NetServer::bind(cfg, exec).expect("bind loopback");
    let mut c = NetClient::connect(server.local_addr(), CLIENT_READ_TIMEOUT).unwrap();
    c.hello("deaf").unwrap();

    let payload = encode_submit_payload("wide", &[0.25; SAMPLE_LEN]).unwrap();
    let submit = frame::encode(TAG_SUBMIT, &payload);
    let stop = Arc::new(AtomicBool::new(false));
    let sender = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            // Writes until the server hangs up; never reads.
            while !stop.load(Ordering::Relaxed) {
                if c.send_raw(&submit).is_err() {
                    return true;
                }
            }
            false
        })
    };

    // Progress is a completion counted; the connection thread counts
    // its replies just before writing them, so the last change marks
    // when the stalled write began (to within the poll period).
    let give_up = Instant::now() + Duration::from_secs(60);
    let (mut completions, mut progress_at) = (0, Instant::now());
    let scored_at = loop {
        let now = Instant::now();
        if server.admission().violations() > 0 {
            break now;
        }
        let seen = server.stats().completions;
        if seen != completions {
            (completions, progress_at) = (seen, now);
        }
        assert!(now < give_up, "never scored: {:?}", server.stats());
        std::thread::sleep(Duration::from_millis(1));
    };
    let closed_at = loop {
        let now = Instant::now();
        if server.stats().active == 0 {
            break now;
        }
        assert!(now < give_up, "never closed: {:?}", server.stats());
        std::thread::sleep(Duration::from_millis(1));
    };
    let stalled = scored_at - progress_at;
    assert!(
        stalled >= WRITE_TIMEOUT / 2,
        "scored {stalled:?} after the last reply: that was no write timeout"
    );
    assert!(
        closed_at - progress_at <= WRITE_TIMEOUT + TICK + SLACK,
        "closed {:?} after the last reply",
        closed_at - progress_at
    );
    assert!(completions > 0, "replies were never even queued");
    stop.store(true, Ordering::Relaxed);
    assert!(
        sender.join().unwrap(),
        "the server's hang-up must reach the writer"
    );

    server.shutdown();
    let net = server.stats();
    assert_eq!(net.conn_panics, 0, "{net:?}");
    assert_eq!(server.admission().violations(), 1, "exactly the stall");
    assert_eq!(
        net.exec_submitted,
        net.completions + net.ticket_errors,
        "every windowed ticket settled: {net:?}"
    );
    let s = server.executor().stats("wide").unwrap();
    assert_eq!(
        net.exec_submitted + net.exec_rejected + s.storm_injected,
        s.completed + s.errors + s.rejected + s.shed,
        "net={net:?} app={s:?}"
    );
}
