//! Golden allocation digests: `Rtm::allocate_with_feedback` is a pure
//! function of `(soc, apps, feedback)`, and these constants pin its
//! output — service order, tie-breaks, every predicted metric to the
//! bit — so a planner refactor that claims "same allocation, cheaper"
//! has to prove it against the commit the constants were recorded on.
//!
//! The spec sets come from the synthetic workload engine (Pareto
//! scales and deadlines, mixed priorities, rigid co-tenants) on three
//! SoC presets, each allocated under four regimes: plain, with a
//! [`LatencyFeedback`] carrying non-unit corrections, with a power cap
//! plus power gating, and with all three. The last rows are the
//! serving benchmark's shape: 100 tenants sharing one profile on the
//! flagship SoC, with and without its rigid co-tenant, then a shared
//! profile forced to spill across clusters by tight deadlines.
//!
//! A deliberate planner change re-records the table: the failure
//! message prints the computed constants in source form.

use emlrt::platform::presets;
use emlrt::prelude::*;
use emlrt::rtm::feedback::LatencyFeedback;
use emlrt::rtm::rtm::Allocation;
use emlrt::serve::testbed;
use emlrt::sim::workload::{self, fnv1a64, WorkloadConfig};
use emlrt::sim::Action;

/// Canonical text of everything an [`Allocation`] carries: its
/// `Display`, then every field of every placement with floats as raw
/// bits (so a last-ulp drift in a prediction changes the digest).
fn canonical(alloc: &Allocation) -> String {
    use std::fmt::Write as _;
    let mut s = format!("{alloc}\n");
    for d in &alloc.dnns {
        let p = &d.point;
        writeln!(
            s,
            "dnn {} {} c{} x{} opp{} l{} f{:016x} sharers={} lat={:016x} pow={:016x} en={:016x} top1={:016x} viol={:?}",
            d.app,
            d.cluster_name,
            p.op.cluster.index(),
            p.op.cores,
            p.op.opp_index,
            p.op.level.index(),
            d.freq.as_mhz().to_bits(),
            d.sharers,
            p.latency.as_secs().to_bits(),
            p.power.as_watts().to_bits(),
            p.energy.as_joules().to_bits(),
            p.top1_percent.to_bits(),
            d.violations,
        )
        .unwrap();
    }
    for r in &alloc.rigid {
        writeln!(
            s,
            "rigid {} {} c{} opp{} pow={:016x}",
            r.app,
            r.cluster_name,
            r.cluster.index(),
            r.opp_index,
            r.power.as_watts().to_bits(),
        )
        .unwrap();
    }
    let gated: Vec<usize> = alloc.gated.iter().map(|g| g.index()).collect();
    writeln!(
        s,
        "gated={gated:?} unplaced={:?} total={:016x} cap={:016x}",
        alloc.unplaced,
        alloc.total_power.as_watts().to_bits(),
        alloc.power_cap.as_watts().to_bits(),
    )
    .unwrap();
    s
}

/// Every distinct app a generated schedule ever brings up, in first-
/// arrival order (churn re-arrivals carry the same spec).
fn generated_specs(seed: u64, dnn_apps: usize, rigid_apps: usize) -> Vec<AppSpec> {
    let wl = workload::generate(&WorkloadConfig {
        seed,
        dnn_apps,
        rigid_apps,
        ..WorkloadConfig::default()
    });
    let mut specs: Vec<AppSpec> = Vec::new();
    for ev in &wl.events {
        if let Action::Arrive(spec) = &ev.action {
            if !specs.iter().any(|s| s.name() == spec.name()) {
                specs.push(spec.clone());
            }
        }
    }
    specs
}

/// Non-unit corrections on every cluster of `soc`, alternating slower-
/// and faster-than-modelled (alpha 1.0: the correction is the ratio).
fn skewed_feedback(soc: &Soc) -> LatencyFeedback {
    let mut fb = LatencyFeedback::new(1.0);
    for (i, id) in soc.cluster_ids().enumerate() {
        let ratio = if i % 2 == 0 {
            1.0 + 0.17 * (i + 1) as f64
        } else {
            1.0 / (1.0 + 0.11 * (i + 1) as f64)
        };
        fb.observe(
            id,
            TimeSpan::from_millis(10.0),
            TimeSpan::from_millis(10.0 * ratio),
        );
    }
    fb
}

/// A power cap below what `soc` sustains, with idle clusters gated.
fn capped(soc: &Soc) -> RtmConfig {
    RtmConfig {
        power_cap: Some(soc.thermal().sustainable_power() * 0.7),
        power_gating: true,
        ..RtmConfig::default()
    }
}

/// The four regimes' digests for one spec set on one SoC.
fn regimes(soc: &Soc, specs: &[AppSpec]) -> [u64; 4] {
    let capped = capped(soc);
    let fb = skewed_feedback(soc);
    let run = |cfg: RtmConfig, fb: Option<&LatencyFeedback>| {
        let alloc = Rtm::new(cfg)
            .allocate_with_feedback(soc, specs, fb)
            .expect("generated specs are structurally valid");
        fnv1a64(&canonical(&alloc))
    };
    [
        run(RtmConfig::default(), None),
        run(RtmConfig::default(), Some(&fb)),
        run(capped, None),
        run(capped, Some(&fb)),
    ]
}

/// 100 tenants sharing one measured profile, no latency bound,
/// priority 1 — `fanout_100t`'s controller input.
fn instrument_specs(rigid: bool) -> Vec<AppSpec> {
    let profile = testbed::tiny_dnn(1).profile().clone();
    let mut specs: Vec<AppSpec> = (0..100)
        .map(|i| {
            AppSpec::Dnn(DnnAppSpec {
                name: format!("t{i:03}"),
                profile: profile.clone(),
                requirements: Requirements::new(),
                priority: 1,
                objective: None,
            })
        })
        .collect();
    if rigid {
        specs.push(AppSpec::Rigid(RigidAppSpec {
            name: "rigid".into(),
            preferred: vec![CoreKind::Gpu],
            utilization: 0.9,
            priority: 3,
        }));
    }
    specs
}

/// Twelve tenants sharing the reference profile: half under deadlines
/// too tight to time-share an accelerator for long, half loose and
/// energy-minded. The same model lands on accelerators, spills onto
/// CPU clusters a few cores at a time and finally violates or is
/// refused — the shape that would expose a planner reusing one
/// tenant's evaluated points for another's ledger state.
fn spill_specs() -> Vec<AppSpec> {
    (0..12u8)
        .map(|i| {
            let (deadline_ms, objective) = match i % 4 {
                0 => (11.0, None),
                1 => (19.0, None),
                2 => (400.0, Some(Objective::MinEnergy)),
                _ => (1500.0, Some(Objective::MinEnergy)),
            };
            AppSpec::Dnn(DnnAppSpec {
                name: format!("spill{i:02}"),
                profile: DnnProfile::reference(format!("spill{i:02}")),
                requirements: Requirements::new()
                    .with_max_latency(TimeSpan::from_millis(deadline_ms))
                    .with_max_power(Power::from_milliwatts(if i % 3 == 2 {
                        170.0
                    } else {
                        90.0
                    })),
                priority: 12 - i,
                objective,
            })
        })
        .collect()
}

/// (seed, DNN tenants, rigid co-tenants, SoC preset) of a generated row.
type Row = (u64, usize, usize, fn() -> Soc);

const ROWS: [Row; 10] = [
    (1, 6, 1, presets::flagship),
    (2, 12, 1, presets::flagship),
    (3, 20, 2, presets::flagship),
    (4, 33, 1, presets::flagship),
    (5, 48, 2, presets::flagship),
    (6, 9, 1, presets::odroid_xu3),
    (7, 24, 2, presets::odroid_xu3),
    (8, 16, 1, presets::jetson_nano),
    (9, 3, 0, presets::jetson_nano),
    (10, 64, 2, presets::flagship),
];

/// Recorded at the parent of the O(N) control-plane change (PR 21).
#[rustfmt::skip]
const GOLDEN: [[u64; 4]; 14] = [
    [0x6b6e03eec1021e10, 0x720868c28c59ae57, 0x13547e6981b4d092, 0xe2ff609c30fc1da1],
    [0x4ae463a605668408, 0x252b24cccf663aff, 0x951248ebf71495b7, 0x22d83663a432227c],
    [0x647d16a68c08d71c, 0x2b2e45a892b5d558, 0xa05645353b763c4f, 0x028f7383f05cb4d7],
    [0x38219489afab8847, 0x122a992c93474cf9, 0x9452961c0533a36f, 0xb38a8c27cabbc7a2],
    [0xe0791a3d82aac6c8, 0x39a1dcdda9cbddbf, 0xc906ab0966494795, 0x8ed23a0673d9be80],
    [0xdafae58bc1a52f77, 0x96933fd40862691f, 0xfd55cdffac4fc003, 0x9a8c4b94df37ab1b],
    [0x1a2deb70c958fd61, 0x8e73f74d0a4c316e, 0x2befca353ddd3749, 0xe8b94dcc10e3dee4],
    [0xeb3f55384cf37ac2, 0x2f956e4d2f9f0346, 0x3d9360852e55bd66, 0x90bba2d15770f3f2],
    [0x7afc2fdf32de68a1, 0x53abea5faadc93c9, 0x01facaa84c9b0af7, 0x5acd9e0bc88d1a23],
    [0xaa64bc02fe49cefb, 0xbf0642f61304444b, 0xcc9db3a5e4e6e41e, 0x443be2774493d7e3],
    [0xbc7785f776e72001, 0x646e460cd2427ff8, 0xdbe4f0ca77299b7e, 0xcafc63b1696ceea3],
    [0xdb9b46ab24d112d2, 0x50f349854d7c8249, 0x603e9763c3f4bc01, 0xc62b81a0861d86d0],
    [0xd2bc0f8fdaf8d45e, 0xa2e7b7507931cb02, 0x5a5aaaf83f539afe, 0x0fa2388f3ccaa2e8],
    [0xd222c0d94fafb29c, 0xae493eccaea74ffe, 0x9de8077682ac32ac, 0x1b618c32891aae6c],
];

#[test]
fn allocations_match_the_recorded_digests() {
    let mut got: Vec<[u64; 4]> = ROWS
        .iter()
        .map(|&(seed, dnns, rigid, soc)| regimes(&soc(), &generated_specs(seed, dnns, rigid)))
        .collect();
    let flagship = presets::flagship();
    got.push(regimes(&flagship, &instrument_specs(false)));
    got.push(regimes(&flagship, &instrument_specs(true)));
    got.push(regimes(&flagship, &spill_specs()));
    got.push(regimes(&testbed::quad_core_soc(), &spill_specs()));

    let rendered: Vec<String> = got
        .iter()
        .map(|row| {
            let cells: Vec<String> = row.iter().map(|d| format!("0x{d:016x}")).collect();
            format!("    [{}],", cells.join(", "))
        })
        .collect();
    assert_eq!(
        got.as_slice(),
        GOLDEN.as_slice(),
        "allocation digests moved; computed table:\n[\n{}\n]",
        rendered.join("\n")
    );
}

#[test]
fn the_rows_exercise_sharing_violations_gating_and_refusal() {
    // The digests only pin behaviour the spec sets reach; make sure
    // they reach the interesting parts of the planner.
    let soc = presets::flagship();
    let specs = generated_specs(5, 48, 2);
    let plain = Rtm::new(RtmConfig::default())
        .allocate(&soc, &specs)
        .unwrap();
    assert!(plain.dnns.iter().any(|d| d.sharers > 1), "{plain}");
    assert!(!plain.rigid.is_empty(), "{plain}");
    let capped = Rtm::new(capped(&soc))
        .allocate_with_feedback(&soc, &specs, Some(&skewed_feedback(&soc)))
        .unwrap();
    assert!(
        capped.dnns.iter().any(|d| !d.violations.is_empty()) || !capped.unplaced.is_empty(),
        "{capped}"
    );
    assert!(capped.total_power <= capped.power_cap, "{capped}");
    let fanout = Rtm::new(RtmConfig::default())
        .allocate(&soc, &instrument_specs(true))
        .unwrap();
    assert_eq!(fanout.dnns.len(), 100, "{fanout}");
    assert!(fanout.dnns.iter().any(|d| d.sharers > 50), "{fanout}");
}
