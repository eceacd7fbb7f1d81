//! Emits `BENCH_nn.json`: the machine-readable perf baseline of the
//! hot paths — median forward-pass latency per width (batch 1, on the
//! reference, f32 GEMM, dynamic-scale int8 and calibrated *chained*
//! int8 backends; batch 32 on the chained int8 backend, the serving
//! executor's micro-batched path), median training-step latency per
//! width (batches 8 and 32, GEMM backend) and the RTM's `allocate`
//! decision latency.
//! Later PRs compare against this baseline to track the perf
//! trajectory. `chained_quant_gemm_ns` measures the frozen-scale
//! pipeline (`Network::calibrate` + chained plan); `quant_gemm_ns`
//! stays the dynamic per-batch-scale path.
//!
//! Usage: `cargo run --release -p eml-bench --bin bench_nn_json
//! [-- --out PATH] [-- --quick] [-- --check BASELINE]`
//!
//! - `--quick` shrinks sample counts for CI smoke runs.
//! - `--check BASELINE` compares the fresh measurement against a
//!   committed baseline file and exits non-zero if any width's
//!   `gemm_ns`, `quant_gemm_ns` or `chained_quant_gemm_ns` regressed
//!   by more than 25% (training steps get a looser 35%). Because CI runners and dev
//!   machines differ in absolute speed, the comparison is normalised by
//!   the reference backend: the reference loop nest is rarely touched,
//!   so `reference_ns(now)/reference_ns(baseline)` estimates the
//!   machine-speed ratio and cancels it out of the `gemm_ns`
//!   comparison. A change that slows both backends equally slips
//!   through; the absolute numbers are printed so a human can spot it.

use std::hint::black_box;
use std::time::Instant;

use eml_core::requirements::Requirements;
use eml_core::rtm::{AppSpec, DnnAppSpec, RigidAppSpec, Rtm, RtmConfig};
use eml_dnn::profile::DnnProfile;
use eml_nn::arch::{build_group_cnn, CnnConfig};
use eml_nn::gemm::Backend;
use eml_nn::network::Network;
use eml_nn::tensor::Tensor;
use eml_platform::presets;
use eml_platform::soc::CoreKind;
use eml_platform::units::TimeSpan;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Batch size of the training-step measurement (the mid-sized batch
/// embedded incremental training uses — see ISSUE 2 / ROADMAP).
const TRAIN_BATCH: usize = 8;

/// Batch size of the second training-step measurement (the larger
/// batch the ROADMAP calls out for amortised-lowering throughput).
const TRAIN_BATCH_32: usize = 32;

/// Maximum tolerated normalised `gemm_ns` regression in `--check` mode.
const MAX_REGRESSION: f64 = 1.25;

/// Looser bound for `train_step_ns`: a full training step has more
/// non-kernel variance (allocator, page faults, scheduler) than a
/// batch-1 forward, so its medians jitter more on shared runners.
const MAX_TRAIN_REGRESSION: f64 = 1.35;

struct Opts {
    out: String,
    samples: usize,
    target_sample_ns: u128,
    check: Option<String>,
}

fn parse_opts() -> Opts {
    let mut opts = Opts {
        out: "BENCH_nn.json".to_string(),
        samples: 15,
        target_sample_ns: 20_000_000,
        check: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => {
                opts.out = args.next().expect("--out requires a path");
            }
            "--check" => {
                opts.check = Some(args.next().expect("--check requires a baseline path"));
            }
            "--quick" => {
                opts.samples = 3;
                opts.target_sample_ns = 2_000_000;
            }
            other => panic!("unknown argument `{other}`"),
        }
    }
    opts
}

/// Median nanoseconds per call of `f`, over `samples` batched samples.
fn median_ns(opts: &Opts, mut f: impl FnMut()) -> f64 {
    // Warm up (fills scratch arenas, faults pages) and calibrate the
    // per-sample iteration count.
    let t0 = Instant::now();
    f();
    let once = t0.elapsed().as_nanos().max(100);
    let iters = (opts.target_sample_ns / once).clamp(1, 1_000_000) as usize;
    for _ in 0..iters.min(16) {
        f();
    }
    let mut means: Vec<f64> = (0..opts.samples)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    means.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    means[means.len() / 2]
}

fn forward_ns(opts: &Opts, net: &mut Network, x: &Tensor) -> f64 {
    median_ns(opts, || {
        black_box(net.forward(black_box(x), false).expect("forward"));
    })
}

/// Median latency of one full training step (zero grads, forward, loss,
/// backward, SGD update) at the network's current width.
fn train_step_ns(opts: &Opts, net: &mut Network, x: &Tensor, labels: &[usize]) -> f64 {
    median_ns(opts, || {
        net.zero_grads();
        let out = net
            .train_batch(black_box(x), black_box(labels))
            .expect("train batch");
        net.sgd_step(0.01, 0.9);
        black_box(out.loss);
    })
}

/// The RTM decision-latency scenario: three mixed-priority apps on the
/// flagship SoC.
fn rtm_allocate_ns(opts: &Opts) -> f64 {
    let soc = presets::flagship();
    let rtm = Rtm::new(RtmConfig::default());
    let apps = vec![
        AppSpec::Dnn(DnnAppSpec {
            name: "dnn1".into(),
            profile: DnnProfile::reference("dnn1"),
            requirements: Requirements::new().with_max_latency(TimeSpan::from_millis(11.0)),
            priority: 1,
            objective: None,
        }),
        AppSpec::Dnn(DnnAppSpec {
            name: "dnn2".into(),
            profile: DnnProfile::reference("dnn2"),
            requirements: Requirements::new().with_target_fps(60.0),
            priority: 2,
            objective: None,
        }),
        AppSpec::Rigid(RigidAppSpec {
            name: "vr".into(),
            preferred: vec![CoreKind::Gpu],
            utilization: 0.9,
            priority: 3,
        }),
    ];
    median_ns(opts, || {
        black_box(
            rtm.allocate(black_box(&soc), black_box(&apps))
                .expect("allocates"),
        );
    })
}

/// Every `"key": <number>` occurrence in `json`, in order. Enough of a
/// parser for the flat format this binary itself writes.
fn extract_all(json: &str, key: &str) -> Vec<f64> {
    let needle = format!("\"{key}\":");
    let mut out = Vec::new();
    let mut rest = json;
    while let Some(pos) = rest.find(&needle) {
        rest = &rest[pos + needle.len()..];
        let end = rest
            .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == ' '))
            .unwrap_or(rest.len());
        if let Ok(v) = rest[..end].trim().parse::<f64>() {
            out.push(v);
        }
    }
    out
}

struct WidthRow {
    active_groups: usize,
    width_pct: usize,
    reference_ns: f64,
    gemm_ns: f64,
    quant_gemm_ns: f64,
    chained_quant_gemm_ns: f64,
    /// Whole-batch latency of a batch-32 chained int8 forward — the
    /// serving executor's micro-batched inference unit. Batching wins
    /// when this beats `32 × chained_quant_gemm_ns`.
    quant_fwd32_ns: f64,
    train_step_ns: f64,
    train_step32_ns: f64,
}

/// Compares fresh `rows` against the committed `baseline` JSON; returns
/// an error message per width whose machine-normalised `gemm_ns` (or
/// `quant_gemm_ns` / `train_step_ns` / `train_step32_ns`, when the
/// baseline records them) regressed past its threshold.
///
/// The reference-backend normalisation cancels *scalar* machine-speed
/// differences only; it cannot account for core-count differences
/// (reference is always serial, the GEMM path may parallelise), so the
/// CI step pins `RAYON_NUM_THREADS=1` to keep both sides serial.
fn check_regressions(rows: &[WidthRow], baseline: &str) -> Vec<String> {
    let base_groups = extract_all(baseline, "active_groups");
    let base_ref = extract_all(baseline, "reference_ns");
    let base_gemm = extract_all(baseline, "gemm_ns");
    let base_quant = extract_all(baseline, "quant_gemm_ns");
    let base_chained = extract_all(baseline, "chained_quant_gemm_ns");
    let base_fwd32 = extract_all(baseline, "quant_fwd32_ns");
    let base_train = extract_all(baseline, "train_step_ns");
    let base_train32 = extract_all(baseline, "train_step32_ns");
    assert!(
        base_groups.len() == base_ref.len() && base_groups.len() == base_gemm.len(),
        "malformed baseline: {} widths, {} reference_ns, {} gemm_ns",
        base_groups.len(),
        base_ref.len(),
        base_gemm.len()
    );
    let mut failures = Vec::new();
    println!("\nperf check vs baseline (machine-normalised by reference_ns):");
    println!(
        "{:>8} {:>14} {:>14} {:>14} {:>14} {:>8}",
        "width", "metric", "baseline", "allowed", "measured", "ratio"
    );
    for row in rows {
        let Some(i) = base_groups
            .iter()
            .position(|&g| g == row.active_groups as f64)
        else {
            println!("{:>7}% (not in baseline, skipped)", row.width_pct);
            continue;
        };
        let machine_scale = row.reference_ns / base_ref[i];
        // (metric name, baseline ns, measured ns, threshold); the
        // train row is skipped for baselines predating train_step_ns.
        let mut metrics = vec![("gemm_ns", base_gemm[i], row.gemm_ns, MAX_REGRESSION)];
        if let Some(&bq) = base_quant.get(i) {
            metrics.push(("quant_gemm_ns", bq, row.quant_gemm_ns, MAX_REGRESSION));
        }
        if let Some(&bc) = base_chained.get(i) {
            metrics.push((
                "chained_quant_gemm_ns",
                bc,
                row.chained_quant_gemm_ns,
                MAX_REGRESSION,
            ));
        }
        if let Some(&bf) = base_fwd32.get(i) {
            metrics.push(("quant_fwd32_ns", bf, row.quant_fwd32_ns, MAX_REGRESSION));
        }
        if let Some(&bt) = base_train.get(i) {
            metrics.push(("train_step_ns", bt, row.train_step_ns, MAX_TRAIN_REGRESSION));
        }
        if let Some(&bt) = base_train32.get(i) {
            metrics.push((
                "train_step32_ns",
                bt,
                row.train_step32_ns,
                MAX_TRAIN_REGRESSION,
            ));
        }
        for (name, base, measured, threshold) in metrics {
            let allowed = base * machine_scale * threshold;
            let ratio = measured / (base * machine_scale);
            let verdict = if measured > allowed { "FAIL" } else { "ok" };
            println!(
                "{:>7}% {:>14} {:>11.0} ns {:>11.0} ns {:>11.0} ns {:>7.2}x {verdict}",
                row.width_pct, name, base, allowed, measured, ratio
            );
            if measured > allowed {
                failures.push(format!(
                    "width {width}%: {name} {measured:.0} exceeds allowed {allowed:.0} \
                     (baseline {base:.0}, machine scale {machine_scale:.2})",
                    width = row.width_pct
                ));
            }
        }
    }
    failures
}

fn main() {
    let opts = parse_opts();
    let cfg = CnnConfig::default();
    let (c, h, w) = cfg.input;
    let x1 = Tensor::full(&[1, c, h, w], 0.1);
    let xt = Tensor::full(&[TRAIN_BATCH, c, h, w], 0.1);
    let xt32 = Tensor::full(&[TRAIN_BATCH_32, c, h, w], 0.1);
    let labels: Vec<usize> = (0..TRAIN_BATCH).map(|i| i % cfg.classes).collect();
    let labels32: Vec<usize> = (0..TRAIN_BATCH_32).map(|i| i % cfg.classes).collect();

    let mut rows = Vec::new();
    println!(
        "nn, default CnnConfig: forward batch 1, training step batches {} and {}",
        TRAIN_BATCH, TRAIN_BATCH_32
    );
    println!(
        "{:>8} {:>16} {:>16} {:>9} {:>16} {:>9} {:>16} {:>9} {:>14} {:>7} {:>14} {:>14}",
        "width",
        "reference",
        "gemm",
        "speedup",
        "quant_i8",
        "vs gemm",
        "chained_i8",
        "vs gemm",
        "qfwd32",
        "gain",
        "train8",
        "train32"
    );
    for g in 1..=cfg.groups {
        let mut rng = StdRng::seed_from_u64(1);
        let mut net = build_group_cnn(cfg, &mut rng).expect("valid arch");
        net.set_active_groups(g).expect("valid width");

        net.set_backend(Backend::Reference);
        let reference_ns = forward_ns(&opts, &mut net, &x1);
        net.set_backend(Backend::Gemm);
        let gemm_ns = forward_ns(&opts, &mut net, &x1);
        net.set_backend(Backend::QuantI8);
        let quant_gemm_ns = forward_ns(&opts, &mut net, &x1);
        // Static-calibration serving mode: freeze the activation
        // scales (the calibration batch doubles as the measured
        // input), which engages the chained int8 pipeline — no
        // per-layer f32 round trips, no per-batch max-abs sweeps.
        net.calibrate(std::slice::from_ref(&x1))
            .expect("calibration runs");
        assert!(
            net.plan_quant_chain().engaged(),
            "frozen QuantI8 network must chain"
        );
        let chained_quant_gemm_ns = forward_ns(&opts, &mut net, &x1);
        // Batch-32 on the same calibrated chained pipeline: the unit of
        // work the serving executor's micro-batcher issues. Throughput
        // (samples/s) should beat 32 independent batch-1 forwards —
        // per-forward fixed costs (plan lookup, scratch setup, output
        // allocation) amortise over the batch.
        let x32b = Tensor::full(&[32, c, h, w], 0.1);
        let quant_fwd32_ns = forward_ns(&opts, &mut net, &x32b);
        net.freeze_act_scales(false);
        // A fresh net for training so the timed steps don't inherit the
        // forward-bench weights; full trainable range, width g.
        let mut train_net = build_group_cnn(cfg, &mut StdRng::seed_from_u64(2)).expect("arch");
        train_net.set_active_groups(g).expect("valid width");
        let step_ns = train_step_ns(&opts, &mut train_net, &xt, &labels);
        let mut train_net32 = build_group_cnn(cfg, &mut StdRng::seed_from_u64(3)).expect("arch");
        train_net32.set_active_groups(g).expect("valid width");
        let step32_ns = train_step_ns(&opts, &mut train_net32, &xt32, &labels32);

        let pct = g * 100 / cfg.groups;
        let speedup = reference_ns / gemm_ns;
        let qspeedup = gemm_ns / quant_gemm_ns;
        let cspeedup = gemm_ns / chained_quant_gemm_ns;
        let batch_gain = 32.0 * chained_quant_gemm_ns / quant_fwd32_ns;
        println!(
            "{:>7}% {:>13.0} ns {:>13.0} ns {:>8.2}x {:>13.0} ns {:>8.2}x {:>13.0} ns {:>8.2}x \
             {:>11.0} ns {:>6.2}x {:>11.0} ns {:>11.0} ns",
            pct,
            reference_ns,
            gemm_ns,
            speedup,
            quant_gemm_ns,
            qspeedup,
            chained_quant_gemm_ns,
            cspeedup,
            quant_fwd32_ns,
            batch_gain,
            step_ns,
            step32_ns
        );
        rows.push(WidthRow {
            active_groups: g,
            width_pct: pct,
            reference_ns,
            gemm_ns,
            quant_gemm_ns,
            chained_quant_gemm_ns,
            quant_fwd32_ns,
            train_step_ns: step_ns,
            train_step32_ns: step32_ns,
        });
    }

    let rtm_ns = rtm_allocate_ns(&opts);
    println!("rtm/allocate (3 apps, flagship): {rtm_ns:.0} ns");

    let width_rows: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                concat!(
                    "    {{\"active_groups\": {}, \"width_pct\": {}, ",
                    "\"reference_ns\": {:.0}, \"gemm_ns\": {:.0}, ",
                    "\"speedup\": {:.3}, \"quant_gemm_ns\": {:.0}, ",
                    "\"quant_speedup\": {:.3}, \"chained_quant_gemm_ns\": {:.0}, ",
                    "\"chained_quant_speedup\": {:.3}, \"quant_fwd32_ns\": {:.0}, ",
                    "\"quant_fwd32_batch_gain\": {:.3}, \"train_step_ns\": {:.0}, ",
                    "\"train_step32_ns\": {:.0}}}"
                ),
                r.active_groups,
                r.width_pct,
                r.reference_ns,
                r.gemm_ns,
                r.reference_ns / r.gemm_ns,
                r.quant_gemm_ns,
                r.gemm_ns / r.quant_gemm_ns,
                r.chained_quant_gemm_ns,
                r.gemm_ns / r.chained_quant_gemm_ns,
                r.quant_fwd32_ns,
                32.0 * r.chained_quant_gemm_ns / r.quant_fwd32_ns,
                r.train_step_ns,
                r.train_step32_ns
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"nn/forward\",\n  \"config\": {{\"input\": [{c}, {h}, {w}], \
         \"classes\": {}, \"groups\": {}, \"base_width\": {}}},\n  \"batch\": 1,\n  \
         \"train_batch\": {TRAIN_BATCH},\n  \"train_batch32\": {TRAIN_BATCH_32},\n  \
         \"unit\": \"ns\",\n  \"widths\": [\n{}\n  ],\n  \
         \"rtm_allocate_ns\": {rtm_ns:.0}\n}}\n",
        cfg.classes,
        cfg.groups,
        cfg.base_width,
        width_rows.join(",\n")
    );
    std::fs::write(&opts.out, json).expect("write BENCH_nn.json");
    println!("wrote {}", opts.out);

    if let Some(baseline_path) = &opts.check {
        let baseline = std::fs::read_to_string(baseline_path)
            .unwrap_or_else(|e| panic!("read baseline {baseline_path}: {e}"));
        let failures = check_regressions(&rows, &baseline);
        if !failures.is_empty() {
            eprintln!("\nperf regression detected:");
            for f in &failures {
                eprintln!("  {f}");
            }
            std::process::exit(1);
        }
        println!(
            "perf check passed (thresholds: gemm {MAX_REGRESSION}x, \
             train {MAX_TRAIN_REGRESSION}x)"
        );
    }
}
