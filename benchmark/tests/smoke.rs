//! Smoke: every workload for one second, untraced and traced, on two
//! seeds — the output line parses, every catalog name appears with its
//! unit, the run is correct, the ledger closes, the trace file's spans
//! nest and share request ids. Run with `cargo test --release`: the
//! numbers are not judged here, but a debug build of the kernels makes
//! `fanout_100t`'s set-up crawl.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use eml_benchmark::catalog::{self, MetricDef};
use eml_benchmark::json::Json;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ sits in the repo root")
        .to_path_buf()
}

fn bench(args: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_eml-benchmark"));
    cmd.args(args)
        .current_dir(repo_root())
        .env("RAYON_NUM_THREADS", "1")
        .env_remove("EML_SIMD_FORCE");
    cmd
}

struct Run {
    result: Json,
    record: Json,
}

fn run(workload: &str, seed: u64, trace: bool) -> Run {
    let out: Output = bench(&[
        "--workload",
        workload,
        "--seed",
        &seed.to_string(),
        "--seconds",
        "1",
        "--trace",
        if trace { "1" } else { "0" },
    ])
    .output()
    .expect("spawn eml-benchmark");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} seed {seed} trace {trace}: {:?}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let result = Json::parse(last).unwrap_or_else(|e| panic!("result line: {e}\n{last}"));
    let record = stdout
        .lines()
        .find_map(|l| l.strip_prefix("run_record "))
        .map(|l| Json::parse(l).expect("run record parses"))
        .expect("a run record");
    Run { result, record }
}

fn num(doc: &Json, key: &str) -> f64 {
    doc.get(key)
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("no number `{key}` in {}", doc.to_line()))
}

/// The result has exactly the contract's keys and exactly `defs`'
/// metrics, in order, each with its unit and a finite value.
fn check_result(run: &Run, defs: &[MetricDef], what: &str) {
    let keys: Vec<&str> = run
        .result
        .as_object()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        ["correct", "attempted", "failed", "metrics"],
        "{what}"
    );
    assert_eq!(
        run.result.get("correct").and_then(Json::as_bool),
        Some(true),
        "{what}"
    );
    assert_eq!(num(&run.result, "failed"), 0.0, "{what}");
    assert!(num(&run.result, "attempted") >= 1.0, "{what}");
    let metrics = run
        .result
        .get("metrics")
        .and_then(Json::as_object)
        .expect("metrics");
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let want: Vec<&str> = defs.iter().map(|m| m.name).collect();
    assert_eq!(names, want, "{what}");
    for (m, (_, v)) in defs.iter().zip(metrics) {
        assert_eq!(
            v.get("unit").and_then(Json::as_str),
            Some(m.unit),
            "{what}: {}",
            m.name
        );
        assert!(num(v, "value").is_finite(), "{what}: {}", m.name);
    }
    assert_eq!(
        run.record.get("ledger_closes").and_then(Json::as_bool),
        Some(true),
        "{what}"
    );
    for key in [
        "simd_tier",
        "rayon_num_threads",
        "cpu_mask",
        "output_digest",
    ] {
        assert!(
            run.record.get(key).and_then(Json::as_str).is_some(),
            "{what}: record lacks {key}"
        );
    }
    for key in [
        "seed",
        "windows",
        "speed_factor_median",
        "speed_factor_idle_before",
        "speed_factor_idle_after",
        "spin_samples_kept",
        "setup_reps",
    ] {
        assert!(num(&run.record, key) > 0.0, "{what}: record lacks {key}");
    }
}

fn metric(run: &Run, name: &str) -> f64 {
    num(
        run.result
            .get("metrics")
            .and_then(|m| m.get(name))
            .unwrap_or_else(|| panic!("no metric {name}")),
        "value",
    )
}

/// Every span's parent exists, shares its request id and contains it.
fn check_trace_file(workload: &str) {
    let path = repo_root().join(format!("benchmark/out/trace-{workload}.json"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let doc = Json::parse(&text).expect("trace file parses");
    assert_eq!(doc.get("workload").and_then(Json::as_str), Some(workload));
    let spans = doc.get("spans").and_then(Json::as_array).expect("spans");
    assert!(!spans.is_empty(), "{workload}: empty trace");
    let mut children = 0;
    let mut names = std::collections::BTreeSet::new();
    for (i, s) in spans.iter().enumerate() {
        assert_eq!(num(s, "id") as usize, i);
        names.insert(
            s.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string(),
        );
        assert!(
            num(s, "end") >= num(s, "start"),
            "{workload}: span {i} runs backwards"
        );
        if let Some(p) = s.get("parent").and_then(Json::as_f64) {
            let parent = &spans[p as usize];
            children += 1;
            assert_eq!(
                num(parent, "request"),
                num(s, "request"),
                "{workload}: span {i}"
            );
            assert!(
                num(s, "start") >= num(parent, "start") && num(s, "end") <= num(parent, "end"),
                "{workload}: span {i} does not nest in its parent"
            );
        }
    }
    assert!(children > 0, "{workload}: no nested span");
    let stage = if workload == "net_pipe" {
        "net.write"
    } else {
        "serve.submit"
    };
    for name in [
        "request",
        stage,
        "control.turn",
        "serve.health_observe",
        "control.replan",
    ] {
        assert!(
            names.contains(name),
            "{workload}: no `{name}` span in {names:?}"
        );
    }
}

fn smoke(workload: &str) {
    let mut digests = Vec::new();
    let mut agreement = Vec::new();
    for seed in [1, 2] {
        let plain = run(workload, seed, false);
        check_result(
            &plain,
            &catalog::END_TO_END,
            &format!("{workload} seed {seed} untraced"),
        );
        for m in &catalog::END_TO_END {
            assert!(
                metric(&plain, m.name) > 0.0,
                "{workload}: {} is not positive",
                m.name
            );
        }
        if workload != "batch_int8" {
            assert_eq!(
                metric(&plain, "top1_agree_pct"),
                100.0,
                "{workload}: f32 replies agree with f32"
            );
        }
        agreement.push(metric(&plain, "top1_agree_pct"));

        let traced = run(workload, seed, true);
        check_result(
            &traced,
            &catalog::PER_LAYER,
            &format!("{workload} seed {seed} traced"),
        );
        for name in [
            "serve.rejected",
            "serve.shed",
            "serve.errors",
            "serve.missed",
            "net.rate_limited",
            "net.conn_panics",
        ] {
            assert_eq!(metric(&traced, name), 0.0, "{workload}: {name}");
        }
        for name in [
            "client.samples",
            "client.p99_us",
            "client.speed_factor",
            "serve.submit_us",
            "serve.service_us",
            "serve.batches",
            "serve.health_observe_us",
            "serve.control_epoch_us",
            "serve.replan_us",
            "serve.knob_settle_us",
            "serve.register_us",
            "serve.deregister_us",
            "nn.fwd_b1_us",
            "nn.fwd_b8_us",
            "nn.fwd_w25_us",
            "nn.conv2_us",
            "nn.conv2_gemm_us",
            "nn.macs",
            "nn.bytes_moved",
            "simd.tile_f32_ns",
            "simd.tile_i16_ns",
            "dnn.build_ms",
            "dnn.calibrate_ms",
            "core.rtm_allocate_us",
            "core.opspace_points",
            "platform.latency_eval_ns",
            "platform.power_eval_ns",
            "net.frame_encode_ns",
            "net.frame_decode_ns",
            "net.encode_submit_ns",
            "net.admission_gate_ns",
            "net.ping_rtt_us",
            "net.submit_rtt_us",
            "net.write_us",
            "net.frames",
            "net.completions",
        ] {
            assert!(
                metric(&traced, name) > 0.0,
                "{workload} seed {seed}: {name} is not positive"
            );
        }
        check_trace_file(workload);

        // Same seed, same expected outputs — traced or not.
        let digest = |r: &Run| {
            r.record
                .get("output_digest")
                .and_then(Json::as_str)
                .map(str::to_string)
        };
        assert_eq!(digest(&plain), digest(&traced), "{workload} seed {seed}");
        digests.push(digest(&plain));
    }
    assert_ne!(
        digests[0], digests[1],
        "{workload}: the seed does not reach the traffic"
    );
    // Weights and pools are the deployment's: the seed reorders the
    // traffic and must not move the agreement.
    assert_eq!(agreement[0], agreement[1], "{workload}");
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "needs the release kernels: run with --release"
)]
fn solo_f32_smoke() {
    smoke("solo_f32");
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "needs the release kernels: run with --release"
)]
fn batch_int8_smoke() {
    smoke("batch_int8");
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "needs the release kernels: run with --release"
)]
fn fanout_100t_smoke() {
    smoke("fanout_100t");
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "needs the release kernels: run with --release"
)]
fn net_pipe_smoke() {
    smoke("net_pipe");
}

#[test]
fn manifest_is_byte_identical_to_benchmark_json() {
    let out = bench(&["manifest"]).output().expect("spawn eml-benchmark");
    assert!(out.status.success());
    let committed =
        std::fs::read(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json at the root");
    assert!(
        out.stdout == committed,
        "BENCHMARK.json is not `eml-benchmark manifest`; regenerate it"
    );
    assert_eq!(catalog::manifest_json().as_bytes(), committed);
}

#[test]
fn readme_catalog_names_every_workload_and_metric() {
    let readme = std::fs::read_to_string(repo_root().join("benchmark/README.md")).expect("README");
    for name in catalog::WORKLOADS
        .iter()
        .map(|w| w.name)
        .chain(catalog::END_TO_END.iter().map(|m| m.name))
        .chain(catalog::PER_LAYER.iter().map(|m| m.name))
    {
        assert!(
            readme.contains(&format!("`{name}`")),
            "README does not mention `{name}`"
        );
    }
}

#[test]
fn a_forced_simd_tier_or_unknown_workload_is_refused_without_a_result() {
    let forced = bench(&[
        "--workload",
        "solo_f32",
        "--seed",
        "1",
        "--seconds",
        "1",
        "--trace",
        "0",
    ])
    .env("EML_SIMD_FORCE", "scalar")
    .output()
    .expect("spawn eml-benchmark");
    assert!(!forced.status.success());
    assert!(
        forced.stdout.is_empty(),
        "a refused run must print no result"
    );
    assert!(String::from_utf8_lossy(&forced.stderr).contains("EML_SIMD_FORCE"));

    let unknown = bench(&[
        "--workload",
        "nope",
        "--seed",
        "1",
        "--seconds",
        "1",
        "--trace",
        "0",
    ])
    .output()
    .expect("spawn eml-benchmark");
    assert!(!unknown.status.success());
    assert!(unknown.stdout.is_empty());
}
