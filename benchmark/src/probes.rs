//! The traced run's direct-call probes, made after the load phase on
//! the then idle system, and the assembly of the 68 per-layer metrics
//! from spans, probes and counters.
//!
//! Every probe calls a crate's public function the way the serving
//! path does, in a loop, and reports the median per-call time restated
//! to reference core speed. Probes run on every workload with the
//! workload's own model, precision and tenants, so each number is a
//! measurement; the catalog says on which workload it matters.

use std::collections::BTreeMap;
use std::hint::black_box;

use eml_core::opspace::{OpSpace, OpSpaceConfig};
use eml_core::rtm::{Rtm, RtmConfig};
use eml_dnn::{DynamicDnn, Precision, WidthLevel};
use eml_net::{
    client::encode_submit_payload, frame, server::TAG_SUBMIT, Admission, AdmissionConfig,
    WireStatus,
};
use eml_nn::gemm::int8::KC8;
use eml_nn::gemm::{
    gemm_i8_q, gemm_with, pack_a8_i16, packed_a8_len, packed_b8_len, packed_b_len, Epilogue, Lhs,
    MatRef, PackedA, PackedA8Ref, PackedB8Ref, PackedBRef, QEpilogueI8, Rhs, KC,
};
use eml_nn::im2col::{im2col_packed, im2col_packed_i8, ConvGeom};
use eml_nn::tensor::Tensor;
use eml_serve::ServeError;

use crate::catalog;
use crate::hist::Histogram;
use crate::load::{decode_completion, request_stages, windows_of, Recorder};
use crate::models::{build_model, ModelKind, LEVELS};
use crate::stats::{median, spread, window_median};
use crate::sut::{Fixture, Ledger, Settled, System, STALL};
use crate::sys::SPIN_EVERY_NS;

/// Timed slices the probe phase divides its budget into.
const SLICES: usize = 38;
/// A timing batch runs at least this long, so the clock reads cost
/// under a percent of it.
const BATCH_NS: u64 = 20_000;
/// Batches behind every median, however short the slice.
const MIN_BATCHES: usize = 3;
/// Times the whole probe set is run; see [`run`].
const ROUNDS: u64 = 3;

/// Probe results by metric name, in the metric's own unit.
pub type Probed = BTreeMap<&'static str, f64>;

struct Bench<'r> {
    rec: &'r mut Recorder,
    until: u64,
    remaining: usize,
}

impl Bench<'_> {
    /// The next probe's share of what is left of the phase.
    fn slice(&mut self) -> u64 {
        let left = self.until.saturating_sub(self.rec.now());
        let share = left / self.remaining.max(1) as u64;
        self.remaining = self.remaining.saturating_sub(1);
        share
    }

    /// Starts a probe's speed average: a few samples up front, more
    /// through [`Bench::tick`] while it runs.
    fn start_factor(&mut self) {
        let meter = self.rec.meter();
        meter.take_factor(); // drop what was sampled before the probe
        (0..4).for_each(|_| meter.sample());
    }

    /// Probes are short and nothing else needs the thread: sample
    /// eight times as densely as the load phase does.
    fn tick(&mut self) {
        let now = self.rec.now();
        self.rec.meter().tick(now, SPIN_EVERY_NS / 8);
    }

    /// The probe's speed factor: the mean of its samples.
    fn factor(&mut self) -> f64 {
        self.rec.meter().take_factor()
    }

    /// Median nanoseconds per call of `f`, restated: batches sized to
    /// [`BATCH_NS`], at least [`MIN_BATCHES`] of them, until the slice
    /// is used up.
    fn time(&mut self, name: &'static str, mut f: impl FnMut()) -> f64 {
        self.start_factor();
        let slice = self.slice();
        let start = self.rec.now();
        f(); // first call: lazy set-up (scratch growth, plan caches)
        let t0 = self.rec.now();
        f();
        let once = (self.rec.now() - t0).max(1);
        let batch = (BATCH_NS / once).clamp(1, 1 << 20);
        let mut per_call = Vec::new();
        while per_call.len() < MIN_BATCHES || self.rec.now() - start < slice {
            let t0 = self.rec.now();
            for _ in 0..batch {
                f();
            }
            per_call.push((self.rec.now() - t0) as f64 / batch as f64);
            self.tick();
        }
        let end = self.rec.now();
        self.rec.mark(name, (start, end));
        median(&per_call).unwrap_or(0.0) / self.factor()
    }
}

fn set_level(dnn: &mut DynamicDnn, level: usize) {
    dnn.set_level(WidthLevel(level)).expect("level in range");
}

fn forward(dnn: &mut DynamicDnn, x: &Tensor) -> Tensor {
    dnn.network_mut().forward(x, false).expect("probe forward")
}

/// conv2's shape for the two testbed models: `(in channels, out
/// channels, input side)` after the first 2x2 pool; 4 groups, 3x3,
/// stride 1, padding 1.
fn conv2_shape(kind: ModelKind) -> (usize, usize, usize) {
    match kind {
        ModelKind::Default => (32, 64, 8),
        ModelKind::Tiny => (8, 16, 4),
    }
}

fn nn_probes(b: &mut Bench<'_>, fx: &Fixture, out: &mut Probed) {
    let shape = fx.shape;
    let t0 = &fx.tenants[0];
    let mut dnn = build_model(shape.model, t0.weight_seed, &t0.pool, shape.precision);
    let x1 = t0.pool.batch(0, 1);
    let x8 = t0.pool.batch(0, 8.min(t0.pool.len()));

    let b1 = b.time("nn.fwd_b1_us", || {
        black_box(forward(&mut dnn, &x1));
    });
    let b8 = b.time("nn.fwd_b8_us", || {
        black_box(forward(&mut dnn, &x8));
    });
    out.insert("nn.fwd_b1_us", b1 / 1e3);
    out.insert("nn.fwd_b8_us", b8 / 1e3);
    out.insert("nn.batch8_gain", 8.0 * b1 / b8);
    for (level, name) in [
        "nn.fwd_w25_us",
        "nn.fwd_w50_us",
        "nn.fwd_w75_us",
        "nn.fwd_w100_us",
    ]
    .into_iter()
    .enumerate()
    {
        set_level(&mut dnn, level);
        let ns = b.time(name, || {
            black_box(forward(&mut dnn, &x1));
        });
        out.insert(name, ns / 1e3);
    }

    // Cost model at the operating point; bytes are computed, not
    // measured: every layer's input and output plus its parameters,
    // at the precision's nominal element size.
    let cost = dnn.network().cost().expect("cost of a built model");
    let elem = if shape.precision == Precision::F32 {
        4.0
    } else {
        1.0
    };
    let mut elems = shape.model.sample_len() as f64;
    let mut bytes = 0.0;
    for (_, layer) in &cost.per_layer {
        let out_elems = layer.out_shape.iter().product::<usize>() as f64;
        bytes += (elems + out_elems + layer.params as f64) * elem;
        elems = out_elems;
    }
    out.insert("nn.macs", cost.macs);
    out.insert("nn.bytes_moved", bytes);
    out.insert("nn.gmacs_per_s", cost.macs / b1);

    // The layer split, f32: each layer forwards its real input (the
    // previous layer's output), through `Network::layer_mut`.
    dnn.set_precision(Precision::F32);
    let f32_b1 = b.time("nn.residual_us", || {
        black_box(forward(&mut dnn, &x1));
    });
    let layers = dnn.network().layer_count();
    let mut inputs = vec![x1.clone()];
    for i in 0..layers {
        let y = dnn
            .network_mut()
            .layer_mut(i)
            .expect("layer in range")
            .forward(&inputs[i], false)
            .expect("layer forward");
        inputs.push(y);
    }
    let mut sum = 0.0;
    let mut pointwise = 0.0;
    for (i, x) in inputs.iter().take(layers).enumerate() {
        let named = match i {
            0 => Some("nn.conv1_us"),
            3 => Some("nn.conv2_us"),
            6 => Some("nn.conv3_us"),
            9 => Some("nn.fc_us"),
            _ => None,
        };
        let net = dnn.network_mut();
        let ns = b.time(named.unwrap_or("nn.pointwise_us"), || {
            let layer = net.layer_mut(i).expect("layer in range");
            black_box(layer.forward(x, false).expect("layer forward"));
        });
        sum += ns;
        match named {
            Some(name) => {
                out.insert(name, ns / 1e3);
            }
            None => pointwise += ns,
        }
    }
    out.insert("nn.pointwise_us", pointwise / 1e3);
    out.insert("nn.residual_us", (f32_b1 - sum) / 1e3);

    conv2_probes(b, shape.model, shape.precision, out);
}

/// conv2's three phases on conv2-shaped operands, over its four
/// groups, in the workload's precision.
fn conv2_probes(b: &mut Bench<'_>, kind: ModelKind, precision: Precision, out: &mut Probed) {
    let (c_in, c_out, side) = conv2_shape(kind);
    let groups = LEVELS;
    let (cpg, opg) = (c_in / groups, c_out / groups);
    let geoms: Vec<ConvGeom> = (0..groups)
        .map(|g| ConvGeom {
            channels: cpg,
            ch_base: g * cpg,
            h: side,
            w: side,
            k: 3,
            stride: 1,
            padding: 1,
            oh: side,
            ow: side,
        })
        .collect();
    let (kdim, ohw) = (geoms[0].rows(), geoms[0].cols());
    let wave = |i: usize| ((i * 37 % 255) as i32 - 127) as i16;
    let bias = vec![0.25f32; opg];
    let (im2col, pack, gemm);
    if precision == Precision::F32 {
        let x: Vec<f32> = (0..c_in * side * side)
            .map(|i| f32::from(wave(i)) / 127.0)
            .collect();
        let w: Vec<f32> = (0..opg * kdim)
            .map(|i| f32::from(wave(i + 7)) / 512.0)
            .collect();
        let mut pb = vec![0.0f32; packed_b_len(kdim, ohw)];
        let mut c = vec![0.0f32; opg * ohw];
        im2col = b.time("nn.conv2_im2col_us", || {
            for g in &geoms {
                im2col_packed(black_box(&x), g, &mut pb);
            }
        });
        pack = b.time("nn.conv2_pack_us", || {
            for _ in 0..groups {
                black_box(PackedA::pack(MatRef::new(black_box(&w), kdim), opg, kdim));
            }
        });
        let pa = PackedA::pack(MatRef::new(&w, kdim), opg, kdim);
        gemm = b.time("nn.conv2_gemm_us", || {
            for _ in 0..groups {
                gemm_with(
                    opg,
                    ohw,
                    kdim,
                    Lhs::Packed(pa.as_ref()),
                    Rhs::Packed(PackedBRef::new(black_box(&pb), kdim, ohw)),
                    0.0,
                    &mut c,
                    ohw,
                    false,
                    Epilogue::bias_row(&bias),
                );
            }
        });
    } else {
        let qx: Vec<i16> = (0..c_in * side * side).map(wave).collect();
        let qw: Vec<i16> = (0..opg * kdim).map(|i| wave(i + 7)).collect();
        let mut pb = vec![0i16; packed_b8_len(kdim, ohw)];
        let mut pa = vec![0i16; packed_a8_len(opg, kdim)];
        let mut c = vec![0i16; opg * ohw];
        im2col = b.time("nn.conv2_im2col_us", || {
            for g in &geoms {
                im2col_packed_i8(black_box(&qx), g, &mut pb);
            }
        });
        pack = b.time("nn.conv2_pack_us", || {
            for _ in 0..groups {
                pack_a8_i16(black_box(&qw), opg, kdim, &mut pa);
            }
        });
        gemm = b.time("nn.conv2_gemm_us", || {
            for _ in 0..groups {
                gemm_i8_q(
                    opg,
                    ohw,
                    kdim,
                    PackedA8Ref::new(&pa, opg, kdim),
                    PackedB8Ref::new(black_box(&pb), kdim, ohw),
                    &mut c,
                    ohw,
                    false,
                    QEpilogueI8::scaled(1e-3).with_bias_row(&bias).with_relu(),
                );
            }
        });
    }
    out.insert("nn.conv2_im2col_us", im2col / 1e3);
    out.insert("nn.conv2_pack_us", pack / 1e3);
    out.insert("nn.conv2_gemm_us", gemm / 1e3);
}

fn simd_probes(b: &mut Bench<'_>, out: &mut Probed) {
    use eml_simd::{madd_tile_f32, madd_tile_i16, MR, NR};
    let pa: Vec<f32> = (0..KC * MR).map(|i| (i % 13) as f32 * 0.01).collect();
    let pb: Vec<f32> = (0..KC * NR).map(|i| (i % 11) as f32 * 0.01).collect();
    let ns = b.time("simd.tile_f32_ns", || {
        let mut acc = [[0.0f32; NR]; MR];
        madd_tile_f32(black_box(&pa), black_box(&pb), KC, &mut acc);
        black_box(acc);
    });
    out.insert("simd.tile_f32_ns", ns);
    let pairs = KC8 / 2;
    let pa: Vec<i16> = (0..pairs * 2 * MR)
        .map(|i| (i % 255) as i16 - 127)
        .collect();
    let pb: Vec<i16> = (0..pairs * 2 * NR)
        .map(|i| (i % 251) as i16 - 125)
        .collect();
    let ns = b.time("simd.tile_i16_ns", || {
        let mut acc = [[0i32; NR]; MR];
        madd_tile_i16(black_box(&pa), black_box(&pb), pairs, &mut acc);
        black_box(acc);
    });
    out.insert("simd.tile_i16_ns", ns);
}

/// `switch` + first forward, minus a steady forward at the point
/// switched to: what the first request after a knob command pays.
fn switch_penalty(
    b: &mut Bench<'_>,
    name: &'static str,
    dnn: &mut DynamicDnn,
    x: &Tensor,
    mut switch: impl FnMut(&mut DynamicDnn, usize),
) -> f64 {
    b.start_factor();
    let slice = b.slice();
    let start = b.rec.now();
    let mut penalties = Vec::new();
    let mut flip = 0usize;
    while penalties.len() < MIN_BATCHES || b.rec.now() - start < slice {
        flip += 1;
        let t0 = b.rec.now();
        switch(dnn, flip % 2);
        black_box(forward(dnn, x));
        let first = b.rec.now() - t0;
        let mut steady = [0u64; 3];
        for s in &mut steady {
            let t0 = b.rec.now();
            black_box(forward(dnn, x));
            *s = b.rec.now() - t0;
        }
        steady.sort_unstable();
        penalties.push(first as f64 - steady[1] as f64);
        b.tick();
    }
    let end = b.rec.now();
    b.rec.mark(name, (start, end));
    median(&penalties).unwrap_or(0.0) / b.factor()
}

fn dnn_probes(b: &mut Bench<'_>, fx: &Fixture, out: &mut Probed) {
    let shape = fx.shape;
    let t0 = &fx.tenants[0];
    let ns = b.time("dnn.build_ms", || {
        black_box(shape.model.build(t0.weight_seed));
    });
    out.insert("dnn.build_ms", ns / 1e6);
    let mut dnn = shape.model.build(t0.weight_seed);
    let batches = t0.pool.calibration_batches();
    let ns = b.time("dnn.calibrate_ms", || {
        black_box(dnn.calibrate(batches.iter()).expect("calibration"));
    });
    out.insert("dnn.calibrate_ms", ns / 1e6);

    let mut dnn = build_model(shape.model, t0.weight_seed, &t0.pool, shape.precision);
    let x = t0.pool.batch(0, 1);
    let ns = switch_penalty(b, "dnn.width_switch_us", &mut dnn, &x, |dnn, odd| {
        set_level(dnn, LEVELS - 1 - odd);
    });
    out.insert("dnn.width_switch_us", ns / 1e3);
    set_level(&mut dnn, LEVELS - 1);
    let ns = switch_penalty(b, "dnn.precision_switch_us", &mut dnn, &x, |dnn, odd| {
        dnn.set_precision(if odd == 1 {
            Precision::Int8
        } else {
            Precision::F32
        });
    });
    out.insert("dnn.precision_switch_us", ns / 1e3);
}

fn planner_probes(b: &mut Bench<'_>, sys: &mut System, fx: &Fixture, out: &mut Probed) {
    let soc = fx.soc();
    let specs = sys.specs();
    let rtm = Rtm::new(RtmConfig::default());
    let ns = b.time("core.rtm_allocate_us", || {
        black_box(rtm.allocate(&soc, &specs).expect("allocation"));
    });
    out.insert("core.rtm_allocate_us", ns / 1e3);

    let profile = fx
        .shape
        .model
        .build(fx.tenants[0].weight_seed)
        .profile()
        .clone();
    let mut points = 0usize;
    let ns = b.time("core.opspace_build_us", || {
        let space = OpSpace::new(&soc, &profile, OpSpaceConfig::default()).expect("op space");
        points = black_box(space.evaluate_all().expect("evaluation")).len();
    });
    out.insert("core.opspace_build_us", ns / 1e3);
    out.insert("core.opspace_points", points as f64);

    let (_, cluster) = soc.clusters().next().expect("a soc has a cluster");
    let freq = cluster
        .opps()
        .get(cluster.opps().len() - 1)
        .expect("top opp")
        .freq();
    let workload = profile
        .workload(WidthLevel(LEVELS - 1))
        .expect("full-width workload")
        .clone();
    let cores = cluster.cores();
    let ns = b.time("platform.latency_eval_ns", || {
        black_box(
            cluster
                .latency_model()
                .latency(black_box(freq), &workload, cores)
                .expect("latency"),
        );
    });
    out.insert("platform.latency_eval_ns", ns);
    let ns = b.time("platform.power_eval_ns", || {
        black_box(
            cluster
                .power_model()
                .power(black_box(freq), black_box(0.75)),
        );
    });
    out.insert("platform.power_eval_ns", ns);
}

fn codec_probes(b: &mut Bench<'_>, fx: &Fixture, out: &mut Probed) {
    let t0 = &fx.tenants[0];
    let sample = t0.pool.sample(0);
    let ns = b.time("net.encode_submit_ns", || {
        black_box(encode_submit_payload(black_box(&t0.name), black_box(sample)).expect("payload"));
    });
    out.insert("net.encode_submit_ns", ns);
    let payload = encode_submit_payload(&t0.name, sample).expect("payload");
    let ns = b.time("net.frame_encode_ns", || {
        black_box(frame::encode(TAG_SUBMIT, black_box(&payload)));
    });
    out.insert("net.frame_encode_ns", ns);
    let bytes = frame::encode(TAG_SUBMIT, &payload);
    let ns = b.time("net.frame_decode_ns", || {
        black_box(frame::decode(black_box(&bytes), frame::DEFAULT_MAX_PAYLOAD).expect("frame"));
    });
    out.insert("net.frame_decode_ns", ns);
    let admission = Admission::new(AdmissionConfig {
        bucket_capacity: 1e12,
        refill_per_sec: 1e12,
        ..AdmissionConfig::default()
    });
    let ns = b.time("net.admission_gate_ns", || {
        black_box(admission.request_gate("127.0.0.1#bench-0", std::time::Instant::now()));
    });
    out.insert("net.admission_gate_ns", ns);
}

/// One request at a time, in-process, on the idle system: the
/// baseline the wire tax is taken against, and — for the wire
/// workload, whose load-phase client never sees a `Completion` — the
/// source of the `serve.*` request stages.
fn in_process_loop(
    b: &mut Bench<'_>,
    sys: &mut System,
    fx: &Fixture,
    out: &mut Probed,
) -> Result<(), String> {
    b.start_factor();
    let slice = b.slice();
    let start = b.rec.now();
    // The round trip, then the stages in `STAGE_NAMES` order.
    let names = [
        "probe.in_process_rtt_us",
        "probe.serve.submit_us",
        "probe.serve.queue_wait_us",
        "probe.serve.service_us",
        "probe.serve.handoff_us",
        "probe.serve.service_per_sample_us",
    ];
    let mut hists: Vec<Histogram> = names.iter().map(|_| Histogram::new()).collect();
    let mut scratch = Vec::new();
    let t = &fx.tenants[0];
    let level = sys.levels[0];
    let mut i = 0usize;
    while i < MIN_BATCHES || b.rec.now() - start < slice {
        let sample = i % t.pool.len();
        i += 1;
        sys.attempted += 1;
        let t0 = b.rec.now();
        let ticket = sys.exec().submit(&t.name, t.pool.sample(sample));
        let t1 = b.rec.now();
        let done = match ticket.and_then(|ticket| ticket.wait_timeout(STALL)) {
            Ok(done) => done,
            Err(ServeError::WaitTimeout { app }) => {
                return Err(format!("{app}: no reply within {STALL:?}"))
            }
            Err(_) => {
                sys.failed += 1;
                continue;
            }
        };
        let t2 = b.rec.now();
        if !fx.verify(0, level, sample, &done.logits) {
            sys.failed += 1;
            continue;
        }
        let (_, stages) = request_stages(-(i as i64), (t0, t1, t2), &done, &mut scratch);
        let values = std::iter::once(t2 - t0).chain(stages);
        for (h, v) in hists.iter_mut().zip(values) {
            h.record(v);
        }
        b.tick();
    }
    let end = b.rec.now();
    b.rec.mark("probe.in_process_loop", (start, end));
    let factor = b.factor();
    for (name, h) in names.into_iter().zip(&hists) {
        let ns = h.percentile(0.5).ok_or("in-process probe got no reply")?;
        out.insert(name, ns / factor / 1e3);
    }
    Ok(())
}

/// Ping and unpipelined submit round trips through the first wire
/// client, with a span around each frame write.
fn wire_probes(
    b: &mut Bench<'_>,
    sys: &mut System,
    fx: &Fixture,
    out: &mut Probed,
) -> Result<(), String> {
    sys.ensure_wire()?;
    b.start_factor();
    let slice = b.slice();
    let start = b.rec.now();
    let mut pings = Histogram::new();
    while pings.len() < MIN_BATCHES as u64 || b.rec.now() - start < slice {
        sys.wire_other += 1;
        let t0 = b.rec.now();
        sys.clients()[0].ping().map_err(|e| format!("ping: {e}"))?;
        pings.record(b.rec.now() - t0);
        b.tick();
    }
    let end = b.rec.now();
    b.rec.mark("net.ping_rtt_us", (start, end));
    let factor = b.factor();
    out.insert(
        "net.ping_rtt_us",
        pings.percentile(0.5).unwrap_or(0.0) / factor / 1e3,
    );

    b.start_factor();
    let slice = b.slice();
    let start = b.rec.now();
    let (mut rtts, mut writes) = (Histogram::new(), Histogram::new());
    let t = &fx.tenants[0];
    let level = sys.levels[0];
    let mut i = 0usize;
    while rtts.len() < MIN_BATCHES as u64 || b.rec.now() - start < slice {
        let sample = i % t.pool.len();
        i += 1;
        let payload =
            encode_submit_payload(&t.name, t.pool.sample(sample)).map_err(|e| e.to_string())?;
        let bytes = frame::encode(TAG_SUBMIT, &payload);
        sys.attempted += 1;
        sys.wire_submits += 1;
        let t0 = b.rec.now();
        sys.clients()[0]
            .send_raw(&bytes)
            .map_err(|e| format!("write frame: {e}"))?;
        let t1 = b.rec.now();
        let (status, body) = sys.clients()[0]
            .read_status()
            .map_err(|e| format!("read reply: {e}"))?;
        let t2 = b.rec.now();
        let ok = status == WireStatus::Ok
            && decode_completion(&body)
                .is_some_and(|(_, logits)| fx.verify(0, level, sample, &logits));
        if ok {
            rtts.record(t2 - t0);
            writes.record(t1 - t0);
        } else {
            sys.failed += 1;
        }
        b.tick();
    }
    let end = b.rec.now();
    b.rec.mark("net.submit_rtt_us", (start, end));
    let factor = b.factor();
    out.insert(
        "net.submit_rtt_us",
        rtts.percentile(0.5).unwrap_or(0.0) / factor / 1e3,
    );
    out.insert(
        "probe.net.write_us",
        writes.percentile(0.5).unwrap_or(0.0) / factor / 1e3,
    );
    Ok(())
}

/// Runs every probe on the idle system, in [`ROUNDS`] rounds that each
/// divide their share of the time until `until_secs` (since the run
/// started) between the probes; a probe's number is the median over
/// the rounds. The box's speed shifts in episodes of seconds: a probe
/// measured three times, seconds apart, shrugs off an episode that
/// one long measurement would have sat inside.
///
/// # Errors
///
/// A reply that never came, a socket failure, a churn step refused.
pub fn run(
    sys: &mut System,
    fx: &Fixture,
    rec: &mut Recorder,
    until_secs: f64,
) -> Result<Probed, String> {
    let start = rec.now();
    let budget = ((until_secs * 1e9) as u64).saturating_sub(start);
    // A smoke run has no seconds to split.
    let rounds = if budget >= 3_000_000_000 { ROUNDS } else { 1 };
    let mut values: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for round in 1..=rounds {
        let mut out = Probed::new();
        let mut b = Bench {
            until: start + budget * round / rounds,
            remaining: SLICES,
            rec,
        };
        one_round(&mut b, sys, fx, &mut out)?;
        for (name, v) in out {
            values.entry(name).or_default().push(v);
        }
    }
    Ok(values
        .into_iter()
        .filter_map(|(name, v)| Some((name, median(&v)?)))
        .collect())
}

fn one_round(
    b: &mut Bench<'_>,
    sys: &mut System,
    fx: &Fixture,
    out: &mut Probed,
) -> Result<(), String> {
    in_process_loop(b, sys, fx, out)?;
    // Churn cycles on the idle system: what the load phase of
    // `fanout_100t` scripts once a second, every workload can time
    // here (a quiesced system is the cycle's precondition anyway).
    let slice = b.slice();
    let start = b.rec.now();
    let mut cycles = 0;
    while cycles < MIN_BATCHES || b.rec.now() - start < slice {
        b.start_factor();
        let times = sys.churn_cycle(fx, b.rec.origin())?;
        (0..4).for_each(|_| b.rec.meter().sample());
        let factor = b.factor();
        b.rec.set_event_factor(factor);
        b.rec.churn(&times);
        cycles += 1;
    }
    wire_probes(b, sys, fx, out)?;
    nn_probes(b, fx, out);
    simd_probes(b, out);
    dnn_probes(b, fx, out);
    planner_probes(b, sys, fx, out);
    codec_probes(b, fx, out);
    Ok(())
}

/// Assembles the 68 per-layer metrics, in catalog order. A metric
/// whose source saw no sample (a run too short to close a span
/// window) reads 0.
pub fn per_layer_metrics(
    rec: &Recorder,
    probed: &Probed,
    load_totals: &Settled,
    ledger: &Ledger,
) -> Vec<(&'static str, f64)> {
    let rows = &rec.rows;
    let us = |ns: Option<f64>| ns.map(|v| v / 1e3);
    let probe = |name: &str| probed.get(name).copied();
    // Request stages: from the load phase's spans where the client saw
    // `Completion`s, from the in-process probe on the wire workload.
    let stage =
        |series: &str, probe_name: &str| us(rec.series_ns(series)).or_else(|| probe(probe_name));
    // Tracing cost: each span window against the two plain windows
    // around it — neighbours in time share the box's state, which two
    // medians over the whole run do not.
    let trace_overhead_pct = {
        let rps: Vec<f64> = rows
            .iter()
            .map(|r| r.completions as f64 / r.secs * r.factor)
            .collect();
        let losses: Vec<f64> = (1..rows.len().saturating_sub(1))
            .filter(|&i| rows[i].traced && !rows[i - 1].traced && !rows[i + 1].traced)
            .map(|i| 100.0 * (1.0 - 2.0 * rps[i] / (rps[i - 1] + rps[i + 1])))
            .collect();
        median(&losses)
    };
    let net = ledger.net.as_ref();
    catalog::PER_LAYER
        .iter()
        .map(|m| {
            let v = match m.name {
                "client.p90_us" => window_median(&windows_of(rows, |r| Some(r.p90_ns / 1e3)), true),
                "client.p99_us" => window_median(&windows_of(rows, |r| Some(r.p99_ns / 1e3)), true),
                "client.samples" => Some(rows.iter().map(|r| r.completions).sum::<u64>() as f64),
                "client.window_spread" => {
                    spread(&rows.iter().map(|r| r.p50_ns).collect::<Vec<_>>())
                }
                "client.speed_factor" => median(&rows.iter().map(|r| r.factor).collect::<Vec<_>>()),
                "client.trace_overhead_pct" => trace_overhead_pct,
                "serve.submit_us" => stage("serve.submit", "probe.serve.submit_us"),
                "serve.queue_wait_us" => stage("serve.queue_wait", "probe.serve.queue_wait_us"),
                "serve.service_us" => stage("serve.service", "probe.serve.service_us"),
                "serve.handoff_us" => stage("serve.handoff", "probe.serve.handoff_us"),
                "serve.dispatch_tax_us" => stage(
                    "serve.service_per_sample",
                    "probe.serve.service_per_sample_us",
                )
                .zip(probe("nn.fwd_b1_us"))
                .map(|(per_sample, fwd)| per_sample - fwd),
                "serve.mean_batch" => (load_totals.batches > 0)
                    .then(|| load_totals.batched_samples as f64 / load_totals.batches as f64),
                "serve.batches" => Some(load_totals.batches as f64),
                "serve.max_queue_depth" => Some(load_totals.max_queue_depth as f64),
                "serve.rejected" => Some(ledger.totals.rejected as f64),
                "serve.shed" => Some(ledger.totals.shed as f64),
                "serve.errors" => Some(ledger.totals.errors as f64),
                "serve.missed" => Some(ledger.totals.missed as f64),
                "serve.stats_us" => us(rec.event_ns("serve.stats")),
                "serve.health_observe_us" => us(rec.event_ns("serve.health_observe")),
                "serve.control_epoch_us" => us(rec.event_ns("serve.control_epoch")),
                "serve.replan_us" => us(rec.event_ns("control.replan")),
                "serve.knob_settle_us" => us(rec.event_ns("serve.knob_settle")),
                "serve.register_us" => us(rec.event_ns("serve.register")),
                "serve.deregister_us" => us(rec.event_ns("serve.deregister")),
                "serve.control_turns" => Some(rec.turn_count as f64),
                "net.wire_tax_us" => probe("net.submit_rtt_us")
                    .zip(probe("probe.in_process_rtt_us"))
                    .map(|(wire, direct)| wire - direct),
                "net.write_us" => {
                    us(rec.series_ns("net.write")).or_else(|| probe("probe.net.write_us"))
                }
                "net.frames" => net.map(|n| n.frames as f64),
                "net.completions" => net.map(|n| n.completions as f64),
                "net.rate_limited" => net.map(|n| n.rate_limited as f64),
                "net.conn_panics" => net.map(|n| n.conn_panics as f64),
                other => probe(other),
            };
            (m.name, v.filter(|v| v.is_finite()).unwrap_or(0.0))
        })
        .collect()
}
