//! The one table the benchmark is defined by: workloads, end-to-end
//! metrics and per-layer metrics. `BENCHMARK.json` is
//! [`manifest_json`] written to a file, the README catalog is
//! [`catalog_markdown`], and the run loop looks its names and units up
//! here — so the file, the prose and the code cannot drift apart.

use std::fmt::Write as _;

/// The command the driver runs, from the root of a checkout.
pub const COMMAND: [&str; 2] = ["bash", "benchmark/run.sh"];
/// The only directory that holds the benchmark.
pub const PATHS: [&str; 1] = ["benchmark"];
/// Length of one run; sized from measured noise (see the README).
pub const RUN_SECONDS: u32 = 30;

/// One workload: a fixed name and the reason it exists.
pub struct WorkloadDef {
    /// Name on the command line.
    pub name: &'static str,
    /// One line on what it stresses (goes to `BENCHMARK.json`).
    pub why: &'static str,
    /// The shape, for the README catalog.
    pub shape: &'static str,
}

/// One metric: name, unit, direction, and — end-to-end only — the
/// relative worsening that counts as a regression.
pub struct MetricDef {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Regression bound (end-to-end metrics only).
    pub bound: Option<f64>,
    /// What is measured and how it is taken.
    pub how: &'static str,
    /// Which end-to-end metric it should move, and where (per-layer).
    pub moves: &'static str,
}

/// The four workloads. Names are fixed.
pub const WORKLOADS: [WorkloadDef; 4] = [
    WorkloadDef {
        name: "solo_f32",
        why: "One default_dnn, f32, one request outstanding: nn/simd GEMM is >90% of the time, so a kernel gain shows here and a serving-path gain must not.",
        shape: "1 x `testbed::default_dnn`, 100 % width, f32, `pool_workers: 1`, one client with 1 request outstanding; a control turn every 256 completions",
    },
    WorkloadDef {
        name: "batch_int8",
        why: "Same model on the chained int8 path, batch_cap 8, 16 outstanding: an f32 or batch-1 gain bought at int8/batched cost shows as a loss here.",
        shape: "same model, int8 scales calibrated and frozen, chained `Precision::Int8`, `batch_cap: 8`, one client with 16 outstanding; a control turn every 512 completions",
    },
    WorkloadDef {
        name: "fanout_100t",
        why: "100 tiny tenants, two drivers time-sliced on one CPU, controller with re-plan and churn: submit, claim scan, dispatch, settle, stats() do the work, not the ~10 us forward; no cross-core contention.",
        shape: "100 x `testbed::tiny_dnn` on `presets::flagship()`, `pool_workers: 2` (time-sliced on one CPU with the client), one client with 32 outstanding over a seeded tenant permutation, `ServeController` + `HealthMonitor`; a control turn every 8 192 completions, a quiesce + forced re-plan + `SetWidth` + deregister/re-register of a seeded victim every 65 536",
    },
    WorkloadDef {
        name: "net_pipe",
        why: "One tiny_dnn behind NetServer on loopback, 2 connections x 8 pipelined frames: decode, admission gate, parse, hand-off and reply write dominate; only this row uses eml-net.",
        shape: "1 x `tiny_dnn` behind `NetServer` on loopback, `pool_workers: 1`, 2 `NetClient` connections each keeping 8 submit frames pipelined via `send_raw`/`read_status`, admission bucket opened wide so the gate runs but never refuses; a control turn every 2 048 completions",
    },
];

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
    how: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        how,
        moves: "",
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    how: &'static str,
    moves: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        how,
        moves,
    }
}

/// The seven end-to-end metrics; every workload reports all of them.
pub const END_TO_END: [MetricDef; 7] = [
    e2e("throughput_rps", "1/s", "higher", 0.15, "verified completions per second of measured window"),
    e2e("p50_us", "us", "lower", 0.15, "client-observed median, submit call (or frame write) to verified reply in hand"),
    e2e("cpu_us_per_req", "us", "lower", 0.15, "process CPU time (all threads, user + sys, generator included) / verified completions: the energy proxy; joules need the board"),
    e2e("peak_rss_mb", "MB", "lower", 0.10, "`VmHWM` at exit"),
    e2e("control_turn_us", "us", "lower", 0.25, "median wall time of one scripted control turn (`HealthMonitor::observe` + `ServeController::control_epoch`) on the client thread with load in flight"),
    e2e("top1_agree_pct", "%", "higher", 0.01, "share of replies whose argmax equals the f32 reference argmax at the same width, over whole passes of the sample pool; exactly 100 on f32 workloads, one constant on `batch_int8` (weights and pools are the deployment's, not the seed's)"),
    e2e("setup_s", "s", "lower", 0.25, "build every model from its seed, calibrate + freeze int8 scales at all four widths, `Executor::new`, register, first `allocate_and_apply`, bind/connect/hello on `net_pipe`, first verified reply from every tenant; median of up to 15 repetitions on fresh objects"),
];

/// The 68 per-layer metrics of the traced run.
pub const PER_LAYER: [MetricDef; 68] = [
    layer("client.p90_us", "us", "lower", "generator's log-bucket histogram, per window", "tail companion of `p50_us`, every workload"),
    layer("client.p99_us", "us", "lower", "generator's log-bucket histogram, per window", "tail companion of `p50_us`, every workload"),
    layer("client.samples", "count", "higher", "latency samples in the measured windows", "says how many samples stand behind the percentiles"),
    layer("client.window_spread", "ratio", "lower", "IQR / median of per-window `p50_us`", "the benchmark's own noise; moves nothing"),
    layer("client.speed_factor", "ratio", "lower", "measured / reference time of the fixed spin (sampled every 2 ms behind an untimed spin, preempted samples dropped, mean per window), median over windows", "how slow the core ran; wall time = reported time x factor"),
    layer("client.trace_overhead_pct", "%", "lower", "throughput lost in a span-recording window against the two untraced windows around it, median over such triples", "cost of tracing; must stay under 5"),
    layer("serve.submit_us", "us", "lower", "span around `Executor::submit`", "`cpu_us_per_req`, `throughput_rps` on `fanout_100t`"),
    layer("serve.queue_wait_us", "us", "lower", "`Completion.latency - Completion.service`", "`p50_us` on `batch_int8`/`fanout_100t`"),
    layer("serve.service_us", "us", "lower", "`Completion.service` (the batched forward the request rode)", "`p50_us` on `batch_int8`/`fanout_100t`"),
    layer("serve.handoff_us", "us", "lower", "self time of `serve.wait`: client wait minus `Completion.latency` (ticket channel + wake-up)", "`p50_us` on `solo_f32`, `batch_int8`, `fanout_100t`"),
    layer("serve.dispatch_tax_us", "us", "lower", "`Completion.service / batch_size` minus `nn.fwd_b1_us`", "`p50_us` on `solo_f32`, `cpu_us_per_req` on `fanout_100t`"),
    layer("serve.mean_batch", "ratio", "higher", "`AppStatsSnapshot` at the end of the load phase, all tenants", "`throughput_rps` on `batch_int8`"),
    layer("serve.batches", "count", "lower", "`AppStatsSnapshot` at the end of the load phase, all tenants", "`throughput_rps` on `batch_int8`"),
    layer("serve.max_queue_depth", "count", "lower", "`AppStatsSnapshot`, largest over tenants", "`p50_us` on `batch_int8`"),
    layer("serve.rejected", "count", "lower", "`AppStatsSnapshot`, live + retired lifetimes; must be 0", "failures, every workload"),
    layer("serve.shed", "count", "lower", "`AppStatsSnapshot`, live + retired lifetimes; must be 0", "failures, every workload"),
    layer("serve.errors", "count", "lower", "`AppStatsSnapshot`, live + retired lifetimes; must be 0", "failures, every workload"),
    layer("serve.missed", "count", "lower", "`AppStatsSnapshot`, live + retired lifetimes; must be 0", "failures, every workload"),
    layer("serve.stats_us", "us", "lower", "span around one `Executor::stats` call beside each traced turn", "`control_turn_us` on `fanout_100t`"),
    layer("serve.health_observe_us", "us", "lower", "span around `HealthMonitor::observe` inside each turn", "`control_turn_us` on `fanout_100t`"),
    layer("serve.control_epoch_us", "us", "lower", "span around `ServeController::control_epoch` inside each turn", "`control_turn_us` on `fanout_100t`"),
    layer("serve.replan_us", "us", "lower", "span around `ServeController::allocate_and_apply`", "`throughput_rps`, `cpu_us_per_req` on `fanout_100t`"),
    layer("serve.knob_settle_us", "us", "lower", "`route_command(SetWidth)` until `stats().level` shows it", "`throughput_rps` on `fanout_100t`"),
    layer("serve.register_us", "us", "lower", "span around `Executor::register_dnn`", "`throughput_rps` on `fanout_100t`; `setup_s`"),
    layer("serve.deregister_us", "us", "lower", "span around `Executor::deregister_dnn` on a quiesced tenant", "`throughput_rps` on `fanout_100t`"),
    layer("serve.control_turns", "count", "higher", "control turns inside the measured windows", "samples behind `control_turn_us`"),
    layer("nn.fwd_b1_us", "us", "lower", "direct `Network::forward`, workload's model and operating point, batch 1", "`p50_us` on `solo_f32`"),
    layer("nn.fwd_b8_us", "us", "lower", "same, batch 8", "`throughput_rps` on `batch_int8`"),
    layer("nn.batch8_gain", "ratio", "higher", "`8 x fwd_b1 / fwd_b8`", "`throughput_rps` on `batch_int8` (batching pays or goes)"),
    layer("nn.fwd_w25_us", "us", "lower", "direct forward at 25 % width, workload's precision, batch 1", "the operating-point spread the RTM trades on"),
    layer("nn.fwd_w50_us", "us", "lower", "direct forward at 50 % width", "the operating-point spread the RTM trades on"),
    layer("nn.fwd_w75_us", "us", "lower", "direct forward at 75 % width", "the operating-point spread the RTM trades on"),
    layer("nn.fwd_w100_us", "us", "lower", "direct forward at 100 % width", "the operating-point spread the RTM trades on"),
    layer("nn.conv1_us", "us", "lower", "`Network::layer_mut(0)` forward on its real input, f32, batch 1", "`p50_us` on `solo_f32`"),
    layer("nn.conv2_us", "us", "lower", "`layer_mut(3)` forward, f32", "`p50_us` on `solo_f32`"),
    layer("nn.conv3_us", "us", "lower", "`layer_mut(6)` forward, f32", "`p50_us` on `solo_f32`"),
    layer("nn.fc_us", "us", "lower", "`layer_mut(9)` forward, f32", "`p50_us` on `solo_f32`"),
    layer("nn.pointwise_us", "us", "lower", "ReLU, max-pool and flatten layers in turn, f32", "`p50_us` on `solo_f32`"),
    layer("nn.residual_us", "us", "lower", "f32 batch-1 forward minus the sum of the layer forwards", "what the layer split does not explain"),
    layer("nn.conv2_im2col_us", "us", "lower", "`im2col_packed` (f32) / `im2col_packed_i8` (int8) over conv2's active groups", "`nn.conv2_us`, then `p50_us` on `solo_f32`, `throughput_rps` on `batch_int8`"),
    layer("nn.conv2_pack_us", "us", "lower", "`PackedA::pack` (f32) / `pack_a8_i16` (int8) of conv2's weight panels; paid once per weight version", "`dnn.width_switch_us`"),
    layer("nn.conv2_gemm_us", "us", "lower", "`gemm_with` (f32) / `gemm_i8_q` (int8) on conv2-shaped packed operands", "`nn.conv2_us`, then `p50_us` on `solo_f32`, `throughput_rps` on `batch_int8`"),
    layer("nn.macs", "count", "lower", "`Network::cost()` at the operating point", "context for kernel claims"),
    layer("nn.bytes_moved", "bytes", "lower", "computed from tensor sizes (weights + layer inputs + outputs), not measured", "context for kernel claims"),
    layer("nn.gmacs_per_s", "GMAC/s", "higher", "`nn.macs / nn.fwd_b1_us`", "context for kernel claims"),
    layer("simd.tile_f32_ns", "ns", "lower", "`madd_tile_f32` on one full-K (256) tile", "`nn.conv2_gemm_us`"),
    layer("simd.tile_i16_ns", "ns", "lower", "`madd_tile_i16` on one full-K (512 pairs) tile", "`nn.conv2_gemm_us` on `batch_int8`"),
    layer("dnn.build_ms", "ms", "lower", "`testbed::*_dnn` from a seed", "`setup_s` everywhere"),
    layer("dnn.calibrate_ms", "ms", "lower", "`DynamicDnn::calibrate` over the sample pool at one width", "`setup_s` everywhere"),
    layer("dnn.width_switch_us", "us", "lower", "`set_level` + first forward minus a steady forward (the re-pack penalty)", "`serve.knob_settle_us` on `fanout_100t`"),
    layer("dnn.precision_switch_us", "us", "lower", "`set_precision` + first forward minus a steady forward", "pressure-ladder actuation cost"),
    layer("core.rtm_allocate_us", "us", "lower", "`Rtm::allocate` over the workload's own `AppSpec`s", "`serve.replan_us`, then `throughput_rps` on `fanout_100t`; `setup_s`"),
    layer("core.opspace_build_us", "us", "lower", "`OpSpace::new` + `evaluate_all` for one tenant's profile", "`core.rtm_allocate_us`"),
    layer("core.opspace_points", "count", "lower", "points `evaluate_all` returns", "`core.opspace_build_us`"),
    layer("platform.latency_eval_ns", "ns", "lower", "one `LatencyModel::latency` evaluation", "`core.opspace_build_us`"),
    layer("platform.power_eval_ns", "ns", "lower", "one `AnchoredPowerModel::power` evaluation", "`core.opspace_build_us`"),
    layer("net.frame_encode_ns", "ns", "lower", "`frame::encode` of one submit frame", "`cpu_us_per_req` on `net_pipe`"),
    layer("net.frame_decode_ns", "ns", "lower", "`frame::decode` of one submit frame", "`cpu_us_per_req` on `net_pipe`"),
    layer("net.encode_submit_ns", "ns", "lower", "`encode_submit_payload` of one sample", "`cpu_us_per_req` on `net_pipe`"),
    layer("net.admission_gate_ns", "ns", "lower", "`Admission::request_gate` on a bucket that never refuses", "`cpu_us_per_req` on `net_pipe`"),
    layer("net.ping_rtt_us", "us", "lower", "`NetClient::ping` round trip (touches no executor)", "`p50_us` on `net_pipe`"),
    layer("net.submit_rtt_us", "us", "lower", "unpipelined submit round trip (`send_raw` + `read_status`), verified", "`p50_us`, `throughput_rps` on `net_pipe`"),
    layer("net.wire_tax_us", "us", "lower", "`net.submit_rtt_us` minus the same model's in-process 1-outstanding time", "`p50_us`, `throughput_rps` on `net_pipe`"),
    layer("net.write_us", "us", "lower", "span around `send_raw` of one submit frame", "`cpu_us_per_req` on `net_pipe`"),
    layer("net.frames", "count", "higher", "`NetStatsSnapshot` at run end", "ledger: hello + ping + submit frames sent"),
    layer("net.completions", "count", "higher", "`NetStatsSnapshot` at run end", "ledger: equals the client's verified wire replies"),
    layer("net.rate_limited", "count", "lower", "`NetStatsSnapshot`; must be 0", "failures on `net_pipe`"),
    layer("net.conn_panics", "count", "lower", "`NetStatsSnapshot`; must be 0", "failures on `net_pipe`"),
];

/// Looks a metric's unit up by name, end-to-end or per-layer.
///
/// # Panics
///
/// Panics on a name the catalog does not hold: emitting an undeclared
/// metric is a bug in this program.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric `{name}` is not in the catalog"))
        .unit
}

fn quoted_list(items: &[&str]) -> String {
    items
        .iter()
        .map(|s| format!("\"{s}\""))
        .collect::<Vec<_>>()
        .join(", ")
}

/// `BENCHMARK.json`, byte for byte.
pub fn manifest_json() -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"command\": [{}],", quoted_list(&COMMAND));
    let _ = writeln!(out, "  \"paths\": [{}],", quoted_list(&PATHS));
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}",
            w.name,
            crate::json::escape(w.why)
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            m.name,
            m.unit,
            m.better,
            m.bound.expect("end-to-end metrics carry a bound")
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}",
            m.name, m.unit, m.better
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// The README's workload and metric catalog, as markdown tables.
pub fn catalog_markdown() -> String {
    let mut out = String::from("| workload | shape | why |\n|---|---|---|\n");
    for w in &WORKLOADS {
        let _ = writeln!(out, "| `{}` | {} | {} |", w.name, w.shape, w.why);
    }
    out.push_str(
        "\n| end-to-end metric | unit | better | bound | definition |\n|---|---|---|---|---|\n",
    );
    for m in &END_TO_END {
        let _ = writeln!(
            out,
            "| `{}` | {} | {} | {} | {} |",
            m.name,
            m.unit,
            m.better,
            m.bound.expect("end-to-end metrics carry a bound"),
            m.how
        );
    }
    out.push_str(
        "\n| per-layer metric | unit | how it is taken from outside | moves |\n|---|---|---|---|\n",
    );
    for m in &PER_LAYER {
        let _ = writeln!(
            out,
            "| `{}` | {} | {} | {} |",
            m.name, m.unit, m.how, m.moves
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut names: Vec<&str> = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "a name is used twice");
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        for name in names {
            assert!(name.len() <= 64 && name.chars().all(ok), "{name}");
            assert!(name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric()));
        }
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let unit_ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
            assert!(
                m.unit.len() <= 16 && m.unit.chars().all(unit_ok),
                "{}",
                m.unit
            );
            assert!(matches!(m.better, "lower" | "higher"));
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(m.bound.is_some_and(|b| b > 0.0 && b <= 0.25));
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
        assert!(manifest_json().len() <= 64 * 1024);
    }

    #[test]
    fn manifest_parses_back_to_the_table() {
        let doc = crate::json::Json::parse(&manifest_json()).unwrap();
        assert_eq!(doc.get("run_seconds").and_then(|v| v.as_f64()), Some(30.0));
        let per_layer = doc.get("per_layer").and_then(|v| v.as_array()).unwrap();
        assert_eq!(per_layer.len(), PER_LAYER.len());
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
    }
}
