//! Deterministic serving fixtures: a single-cluster SoC whose analytic
//! latency model is deliberately *optimistic*, and small real networks
//! to serve on it.
//!
//! The paper's presets are calibrated against boards the analytic model
//! describes well; a serving testbed wants the opposite — a model the
//! feedback loop must *repair*. [`quad_core_soc`] claims the reference
//! workload completes in microseconds, so the first allocation always
//! picks the widest feasible point; reality (the actual kernels on the
//! test machine) is slower, the deadline misses accumulate, and the
//! closed loop has to learn the correction and compress. With a single
//! cluster, every re-allocation is a pure knob decision (width × cores
//! × OPP) — no migration nondeterminism — which is what the
//! stress/property harnesses need to assert exact round trips.

use eml_dnn::profile::DnnProfile;
use eml_dnn::DynamicDnn;
use eml_nn::arch::{build_group_cnn, CnnConfig};
use eml_platform::latency::LatencyModel;
use eml_platform::opp::OppTable;
use eml_platform::power::{AnchoredPowerModel, PowerAnchor};
use eml_platform::presets::REFERENCE_MACS;
use eml_platform::soc::{ClusterSpec, CoreKind, Soc};
use eml_platform::thermal::ThermalModel;
use eml_platform::units::{Freq, Power, TimeSpan};

/// Nominal per-width accuracies for testbed profiles (the Fig 4b shape,
/// as fractions).
const TESTBED_TOP1: [f64; 4] = [0.55, 0.62, 0.66, 0.70];

/// A single 4-core CPU cluster ("quad") with four OPPs and an
/// optimistic latency model: the reference workload in 10 µs at the top
/// OPP. See the module docs for why optimism is the point.
///
/// # Panics
///
/// Never panics: the embedded model data is validated by unit tests.
pub fn quad_core_soc() -> Soc {
    let opps = OppTable::from_mhz_mv(&[
        (400.0, 800.0),
        (800.0, 900.0),
        (1200.0, 1000.0),
        (1600.0, 1100.0),
    ])
    .expect("valid OPP table");
    let latency = LatencyModel::from_anchors(
        &[
            (Freq::from_mhz(400.0), TimeSpan::from_micros(40.0)),
            (Freq::from_mhz(1600.0), TimeSpan::from_micros(10.0)),
        ],
        REFERENCE_MACS,
        4,
    )
    .expect("valid latency anchors");
    let power = AnchoredPowerModel::new(
        vec![
            PowerAnchor::from_mhz_mw(400.0, 200.0),
            PowerAnchor::from_mhz_mw(1600.0, 1500.0),
        ],
        Power::from_milliwatts(50.0),
        &opps,
    )
    .expect("valid power anchors");
    let quad =
        ClusterSpec::new("quad", CoreKind::BigCpu, 4, opps, latency, power).expect("valid cluster");
    Soc::new("serve-testbed", vec![quad], ThermalModel::mobile_default()).expect("valid soc")
}

/// Builds a real dynamic DNN from `cfg`, profiled by its own exact cost
/// model ([`DnnProfile::from_network`]) with the nominal
/// `TESTBED_TOP1` accuracies. Deterministic in `seed`: two calls with
/// the same seed produce bit-identical networks, which the co-tenant
/// independence properties rely on.
///
/// # Panics
///
/// Panics on an invalid `cfg` (a test-fixture bug, not a runtime
/// condition).
pub fn dnn_with(cfg: CnnConfig, seed: u64) -> DynamicDnn {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut net = build_group_cnn(cfg, &mut rng).expect("valid testbed arch");
    let profile = DnnProfile::from_network("testbed-dnn", &mut net, &TESTBED_TOP1[..cfg.groups])
        .expect("profile from network");
    DynamicDnn::new(net, profile).expect("profile matches network")
}

/// A miniature model (3×8×8 input, 4 groups, base width 8) for
/// high-request-count harnesses where per-inference cost must stay in
/// the microseconds.
pub fn tiny_dnn(seed: u64) -> DynamicDnn {
    dnn_with(
        CnnConfig {
            input: (3, 8, 8),
            classes: 4,
            groups: 4,
            base_width: 8,
        },
        seed,
    )
}

/// The default-config model (3×16×16, 4 groups, base width 32): wide
/// enough that width levels separate clearly in measured latency —
/// the closed-loop tests need the spread.
pub fn default_dnn(seed: u64) -> DynamicDnn {
    dnn_with(CnnConfig::default(), seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn testbed_soc_is_single_cluster_and_optimistic() {
        let soc = quad_core_soc();
        assert_eq!(soc.cluster_count(), 1);
        let id = soc.find_cluster("quad").unwrap();
        let cluster = soc.cluster(id).unwrap();
        assert_eq!(cluster.cores(), 4);
        // Analytic full-reference latency at the top OPP is 10 µs —
        // far below any deadline the serving tests use, so the first
        // allocation always believes full width fits.
        let lat = cluster
            .latency_model()
            .latency(
                Freq::from_mhz(1600.0),
                &eml_platform::presets::reference_workload(),
                4,
            )
            .unwrap();
        assert!((lat.as_secs() - 10e-6).abs() < 1e-9, "{lat}");
    }

    #[test]
    fn testbed_dnns_are_deterministic_in_seed() {
        let mut a = tiny_dnn(3);
        let mut b = tiny_dnn(3);
        let x = eml_nn::tensor::Tensor::full(&[1, 3, 8, 8], 0.25);
        let ya = a.network_mut().forward(&x, false).unwrap();
        let yb = b.network_mut().forward(&x, false).unwrap();
        assert_eq!(ya.data(), yb.data());
        assert_eq!(a.profile().level_count(), 4);
    }
}
