//! Regenerates **Fig 5 + the §IV worked example**: the RTM navigating the
//! knob/monitor space to meet changing budgets, plus the governor ablation
//! (oracle vs Pareto cache vs greedy hill-climb).
//!
//! The §IV example: with budgets (400 ms, 100 mJ) the optimum is the 100 %
//! model on the A7 at 900 MHz; when the budgets change to (200 ms, 150 mJ)
//! it becomes the 75 % model on the A15 at 1 GHz.
//!
//! ```sh
//! cargo bench --bench fig5_case_study
//! ```

use std::time::Instant;

use eml_bench::{banner, row, Verdicts};
use eml_core::governor::{ExhaustiveGovernor, Governor, GreedyGovernor, ParetoGovernor};
use eml_core::knobs::{commands_for, KnobCommand};
use eml_core::objective::Objective;
use eml_core::opspace::{OpSpace, OpSpaceConfig};
use eml_core::requirements::Requirements;
use eml_core::rtm::{AppSpec, DnnAppSpec, Rtm, RtmConfig};
use eml_dnn::profile::DnnProfile;
use eml_platform::paper::{CaseStudyBudget, CASE_STUDY_BUDGET_1, CASE_STUDY_BUDGET_2};
use eml_platform::presets;
use eml_platform::units::{Energy, TimeSpan};

fn req_of(b: &CaseStudyBudget) -> Requirements {
    Requirements::new()
        .with_max_latency(TimeSpan::from_millis(b.time_ms))
        .with_max_energy(Energy::from_millijoules(b.energy_mj))
}

fn main() {
    banner(
        "Fig 5 / §IV",
        "RTM knobs & monitors: the worked example + governor ablation",
    );

    let soc = presets::odroid_xu3();
    let profile = DnnProfile::reference("camera-dnn");
    let cpus = vec![
        soc.find_cluster("a15").expect("preset"),
        soc.find_cluster("a7").expect("preset"),
    ];
    let space = OpSpace::new(&soc, &profile, OpSpaceConfig::default().with_clusters(cpus))
        .expect("non-empty space");

    let mut verdicts = Verdicts::new();
    let budgets = [CASE_STUDY_BUDGET_1, CASE_STUDY_BUDGET_2];

    // --- The worked example, per governor ---
    let widths = [12, 24, 8, 10, 8, 10, 10];
    println!(
        "{}",
        row(
            &[
                "governor".into(),
                "budget".into(),
                "width".into(),
                "cluster".into(),
                "MHz".into(),
                "t (ms)".into(),
                "E (mJ)".into(),
            ],
            &widths
        )
    );
    let mut timings: Vec<(String, f64)> = Vec::new();
    for (gi, governor) in [
        Box::new(ExhaustiveGovernor) as Box<dyn Governor>,
        Box::new(ParetoGovernor::new()),
        Box::new(GreedyGovernor::default()),
    ]
    .iter_mut()
    .enumerate()
    {
        let _ = gi;
        for b in &budgets {
            let start = Instant::now();
            let pt = governor
                .decide(&space, &req_of(b), Objective::MaxAccuracyThenMinEnergy)
                .expect("no structural error")
                .expect("both budgets are feasible");
            let micros = start.elapsed().as_secs_f64() * 1e6;
            timings.push((governor.name().to_string(), micros));
            let cluster = soc.cluster(pt.op.cluster).expect("valid");
            let freq = cluster.opps().get(pt.op.opp_index).expect("valid").freq();
            println!(
                "{}",
                row(
                    &[
                        governor.name().into(),
                        format!("({} ms, {} mJ)", b.time_ms, b.energy_mj),
                        format!("{}%", (pt.op.level.index() + 1) * 25),
                        cluster.name().into(),
                        format!("{:.0}", freq.as_mhz()),
                        format!("{:.1}", pt.latency.as_millis()),
                        format!("{:.1}", pt.energy.as_millijoules()),
                    ],
                    &widths
                )
            );
            let ok = cluster.name() == b.expect_cluster
                && (freq.as_mhz() - b.expect_freq_mhz).abs() < 0.5
                && ((pt.op.level.index() + 1) as f64 * 0.25 - b.expect_width).abs() < 1e-9;
            verdicts.check(
                &format!(
                    "{}: budget ({} ms, {} mJ) -> {}% on {} @ {:.0} MHz (paper: {}% on {} @ {:.0} MHz)",
                    governor.name(),
                    b.time_ms,
                    b.energy_mj,
                    (pt.op.level.index() + 1) * 25,
                    cluster.name(),
                    freq.as_mhz(),
                    (b.expect_width * 100.0) as u32,
                    b.expect_cluster,
                    b.expect_freq_mhz
                ),
                ok,
            );
        }
    }

    // --- Decision latency ablation (cold-cache numbers; the serving
    // benchmark's `core.rtm_allocate_us` row carries the statistics) ---
    println!("\ndecision latency (single cold decision):");
    for (name, micros) in &timings {
        println!("  {name:>12}: {micros:>9.1} us");
    }

    // --- Fig 5 proper: the decision is actuated through knob commands ---
    let rtm = Rtm::new(RtmConfig {
        partial_cores: false,
        ..RtmConfig::default()
    });
    let app = AppSpec::Dnn(DnnAppSpec {
        name: "camera-dnn".into(),
        profile: profile.clone(),
        requirements: req_of(&CASE_STUDY_BUDGET_1),
        priority: 1,
        objective: None,
    });
    let alloc = rtm.allocate(&soc, &[app]).expect("allocation succeeds");
    let commands = commands_for(&alloc);
    println!("\nknob commands for budget 1 (Fig 5 application/device knobs):");
    for c in &commands {
        println!("  {c:?}");
    }
    verdicts.check(
        "allocation actuates exactly one DVFS, one mapping and one width knob",
        commands.len() == 3
            && matches!(commands[0], KnobCommand::SetOpp { .. })
            && matches!(commands[1], KnobCommand::Map { .. })
            && matches!(commands[2], KnobCommand::SetWidth { .. }),
    );

    verdicts.finish("Fig 5 / §IV");
}
