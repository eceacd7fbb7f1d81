//! `eml-benchmark agree`: do two sets of runs of the same build agree
//! within the benchmark's own bounds? Runs the contract's command
//! itself (so the build step and the pinning are the ones the driver
//! gets), two interleaved sets per workload, every run on another
//! seed, and judges each end-to-end metric the way the driver does:
//! the second set's median against the first's, and the quartile
//! spread over all runs, both against the metric's bound.

use std::fmt::Write as _;
use std::process::Command;

use crate::catalog::{self, MetricDef};
use crate::json::Json;
use crate::stats::{median, spread};

/// Runs per set; two interleaved sets per workload.
const RUNS_PER_SET: usize = 3;
/// Run `i` of a workload uses seed `FIRST_SEED + i`.
const FIRST_SEED: u64 = 1;

/// One run through the contract's command; its end-to-end values in
/// catalog order.
fn one_run(workload: &str, seed: u64) -> Result<Vec<f64>, String> {
    let seconds = catalog::RUN_SECONDS;
    let out = Command::new(catalog::COMMAND[0])
        .args(&catalog::COMMAND[1..])
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .output()
        .map_err(|e| format!("cannot start `{}`: {e}", catalog::COMMAND.join(" ")))?;
    if !out.status.success() {
        return Err(format!(
            "{workload} seed {seed}: exit {:?}\n{}",
            out.status.code(),
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().ok_or("no output")?;
    let doc = Json::parse(line).map_err(|e| format!("result line: {e}"))?;
    if doc.get("correct").and_then(Json::as_bool) != Some(true)
        || doc.get("failed").and_then(Json::as_f64) != Some(0.0)
    {
        return Err(format!(
            "{workload} seed {seed}: run is not correct: {line}"
        ));
    }
    catalog::END_TO_END
        .iter()
        .map(|m| {
            doc.get("metrics")
                .and_then(|ms| ms.get(m.name))
                .and_then(|v| v.get("value"))
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{workload} seed {seed}: no `{}`", m.name))
        })
        .collect()
}

/// How much worse `b` is than `a`, as a share of `a` (negative =
/// better), in the metric's own direction.
pub fn worsening(m: &MetricDef, a: f64, b: f64) -> f64 {
    if m.better == "lower" {
        (b - a) / a
    } else {
        (a - b) / a
    }
}

/// Runs the check and returns `(report, all within bounds)`.
///
/// # Errors
///
/// A run that fails, prints no result or is not correct.
pub fn agree() -> Result<(String, bool), String> {
    let mut report = String::new();
    let mut ok = true;
    let _ = writeln!(
        report,
        "| workload | metric | set A median | set B median | B worse by | spread (IQR/median) | bound | verdict |\n|---|---|---|---|---|---|---|---|"
    );
    for workload in catalog::WORKLOADS.iter().map(|w| w.name) {
        // values[set][metric][run]
        let mut values = vec![vec![Vec::new(); catalog::END_TO_END.len()]; 2];
        for i in 0..2 * RUNS_PER_SET {
            let seed = FIRST_SEED + i as u64;
            eprintln!(
                "agree: {workload} run {} of {} (set {}, seed {seed})",
                i + 1,
                2 * RUNS_PER_SET,
                ["A", "B"][i % 2]
            );
            let run = one_run(workload, seed)?;
            eprintln!("agree: {workload} seed {seed} values {run:?}");
            for (slot, v) in values[i % 2].iter_mut().zip(run) {
                slot.push(v);
            }
        }
        for (mi, m) in catalog::END_TO_END.iter().enumerate() {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            let a = median(&values[0][mi]).ok_or("empty set")?;
            let b = median(&values[1][mi]).ok_or("empty set")?;
            // Neither set is "the parent": hold the gap either way.
            let gap = worsening(m, a, b).max(worsening(m, b, a));
            let all: Vec<f64> = values[0][mi]
                .iter()
                .chain(&values[1][mi])
                .copied()
                .collect();
            let spread = spread(&all).unwrap_or(0.0);
            // The driver exempts set-up time from the spread rule.
            let within = gap <= bound && (m.name == "setup_s" || spread <= bound);
            ok &= within;
            let _ = writeln!(
                report,
                "| `{workload}` | `{}` | {a:.4} | {b:.4} | {:+.2} % | {:.2} % | {:.0} % | {} |",
                m.name,
                100.0 * worsening(m, a, b),
                100.0 * spread,
                100.0 * bound,
                if within { "ok" } else { "BREACH" }
            );
        }
    }
    Ok((report, ok))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_metric_direction() {
        let lower = &catalog::END_TO_END[1];
        let higher = &catalog::END_TO_END[0];
        assert_eq!((lower.name, lower.better), ("p50_us", "lower"));
        assert_eq!((higher.name, higher.better), ("throughput_rps", "higher"));
        assert!((worsening(lower, 100.0, 110.0) - 0.10).abs() < 1e-12);
        assert!((worsening(lower, 100.0, 90.0) + 0.10).abs() < 1e-12);
        assert!((worsening(higher, 1000.0, 900.0) - 0.10).abs() < 1e-12);
        assert!((worsening(higher, 1000.0, 1100.0) + 0.10).abs() < 1e-12);
    }
}
