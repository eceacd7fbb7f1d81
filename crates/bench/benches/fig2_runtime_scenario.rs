//! Regenerates **Fig 2** of the paper: the multi-application runtime
//! scenario on a flagship SoC (two DNNs, a VR/AR app, a thermal violation,
//! and a requirement change), with the RTM re-allocating at every event.
//!
//! ```sh
//! cargo bench --bench fig2_runtime_scenario
//! ```

use eml_bench::{banner, Verdicts};
use eml_sim::scenario::{self, names};
use eml_sim::DecisionReason;

fn main() {
    banner(
        "Fig 2",
        "runtime resource variation under concurrent applications",
    );

    let sim = scenario::fig2_scenario().expect("built-in scenario is valid");
    let trace = sim.run().expect("simulation completes");

    println!("--- RTM decision log ---");
    print!("{}", trace.decision_log());
    println!();

    let mut verdicts = Verdicts::new();

    // (a) t = 0 s: single DNN on the NPU ("the NPU is used").
    let a = trace.app_at(3.0, names::DNN1).expect("dnn1 sampled");
    verdicts.check(
        &format!(
            "(a) t=3s: DNN1 on the NPU at 100% width (got {} @{}%)",
            a.cluster,
            (a.level + 1) * 25
        ),
        a.cluster == "npu" && a.level == 3,
    );

    // (b) t = 5 s: DNN2 takes the NPU; DNN1 migrates to the GPU and is
    // dynamically compressed.
    let d2 = trace.app_at(10.0, names::DNN2).unwrap();
    let d1 = trace.app_at(10.0, names::DNN1).unwrap();
    verdicts.check(
        &format!(
            "(b) t=10s: DNN2 on the NPU at 100% (got {} @{}%)",
            d2.cluster,
            (d2.level + 1) * 25
        ),
        d2.cluster == "npu" && d2.level == 3,
    );
    verdicts.check(
        &format!(
            "(b) t=10s: DNN1 migrated to GPU, compressed (got {} @{}%)",
            d1.cluster,
            (d1.level + 1) * 25
        ),
        d1.cluster == "gpu" && d1.level < 3,
    );

    // (c) t = 15 s: VR/AR claims the GPU; DNN1 moves to the big CPU cluster
    // on all four cores.
    let vr = trace.app_at(16.0, names::VRAR).unwrap();
    let d1 = trace.app_at(16.0, names::DNN1).unwrap();
    verdicts.check(
        &format!("(c) t=16s: VR/AR on the GPU (got {})", vr.cluster),
        vr.cluster == "gpu",
    );
    verdicts.check(
        &format!(
            "(c) t=16s: DNN1 on the big CPU cluster, 4 cores (got {} x{})",
            d1.cluster, d1.cores
        ),
        d1.cluster == "big" && d1.cores == 4,
    );

    // (c') shortly after: thermal violation, throttled re-allocation.
    let violation = trace
        .decisions
        .iter()
        .find(|d| d.reason == DecisionReason::ThermalViolation);
    verdicts.check(
        &format!(
            "(c') thermal violation occurs shortly after VR/AR arrival (at {:?} s)",
            violation.map(|v| v.at_secs)
        ),
        violation
            .map(|v| v.at_secs > 15.0 && v.at_secs < 25.0)
            .unwrap_or(false),
    );
    if let Some(v) = violation {
        let d1 = trace.app_at(v.at_secs + 1.0, names::DNN1).unwrap();
        // Reproduction note: the paper narrates a migration to a *single*
        // core; our optimal allocator instead shrinks to the fewest slow
        // cores that fit the power cap (see the reproduction note in
        // `crates/core/src/rtm.rs`'s thermal-cap test).
        verdicts.check(
            &format!(
                "(c') after throttling: DNN1 compressed to 25% on a reduced core allocation (got {}% x{})",
                (d1.level + 1) * 25,
                d1.cores
            ),
            d1.level == 0 && d1.cores < 4,
        );
    }

    // (d) t = 25 s: DNN2's accuracy requirement drops; both DNNs share the
    // NPU; DNN1 recovers full width.
    let d1 = trace.app_at(30.0, names::DNN1).unwrap();
    let d2 = trace.app_at(30.0, names::DNN2).unwrap();
    verdicts.check(
        &format!(
            "(d) t=30s: both DNNs on the NPU (got dnn1={} dnn2={})",
            d1.cluster, d2.cluster
        ),
        d1.cluster == "npu" && d2.cluster == "npu",
    );
    verdicts.check(
        &format!("(d) t=30s: DNN2 compressed (got {}%)", (d2.level + 1) * 25),
        d2.level < 3,
    );
    verdicts.check(
        &format!(
            "(d) t=30s: DNN1 recovers 100% width (got {}%)",
            (d1.level + 1) * 25
        ),
        d1.level == 3,
    );

    // Global health.
    let s = trace.summary();
    println!(
        "\nsummary: {:.1} s, {:.1} J, mean {:.2} W, peak {:.1} C, {} decisions, {} thermal violations, {:.0}% feasible",
        s.duration.as_secs(),
        s.total_energy.as_joules(),
        s.mean_power.as_watts(),
        s.peak_temp.as_celsius(),
        s.decisions,
        s.thermal_violations,
        s.feasible_fraction * 100.0
    );
    let limit = sim.soc().thermal().limit.as_celsius();
    verdicts.check(
        "the thermal limit is exceeded transiently (that's what triggers the RTM)",
        s.peak_temp.as_celsius() > limit,
    );
    verdicts.check(
        "the run ends below the thermal limit",
        trace.samples.last().unwrap().temp.as_celsius() < limit,
    );

    verdicts.finish("Fig 2");
}
