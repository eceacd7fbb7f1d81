//! Published measurements from the paper, embedded as ground truth.
//!
//! These constants are the reproduction targets: every table/figure
//! regenerator in `eml-bench` compares the simulator's predictions against
//! them and prints the per-row deltas.
//!
//! Source: Xun et al., "Optimising Resource Management for Embedded Machine
//! Learning", DATE 2020 (experimental data DOI: 10.5258/SOTON/D1154).

/// One row of the paper's Table I.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TableOneRow {
    /// Board the row was measured on.
    pub platform: &'static str,
    /// Cluster name in the corresponding [`crate::presets`] SoC.
    pub cluster: &'static str,
    /// Cluster frequency in MHz.
    pub freq_mhz: f64,
    /// The paper's "Computing cores" label, verbatim.
    pub label: &'static str,
    /// Measured inference execution time in milliseconds.
    pub time_ms: f64,
    /// Measured power in milliwatts.
    pub power_mw: f64,
    /// Measured energy per inference in millijoules.
    pub energy_mj: f64,
    /// Top-1 accuracy in percent (platform-independent: identical in every
    /// row).
    pub top1_percent: f64,
}

/// The paper's Table I: platform-dependent and -independent DNN performance
/// metrics.
pub const TABLE_ONE: [TableOneRow; 10] = [
    TableOneRow {
        platform: "jetson-nano",
        cluster: "gpu",
        freq_mhz: 614.4,
        label: "GPU (614MHz) + A57 CPU (921MHz)",
        time_ms: 7.4,
        power_mw: 1340.0,
        energy_mj: 9.92,
        top1_percent: 71.2,
    },
    TableOneRow {
        platform: "jetson-nano",
        cluster: "gpu",
        freq_mhz: 921.6,
        label: "GPU (921MHz) + A57 CPU (1.43GHz)",
        time_ms: 4.93,
        power_mw: 2500.0,
        energy_mj: 12.3,
        top1_percent: 71.2,
    },
    TableOneRow {
        platform: "jetson-nano",
        cluster: "a57",
        freq_mhz: 921.6,
        label: "A57 CPU (921MHz)",
        time_ms: 69.4,
        power_mw: 878.0,
        energy_mj: 60.9,
        top1_percent: 71.2,
    },
    TableOneRow {
        platform: "jetson-nano",
        cluster: "a57",
        freq_mhz: 1428.0,
        label: "A57 CPU (1.43GHz)",
        time_ms: 46.9,
        power_mw: 1490.0,
        energy_mj: 69.9,
        top1_percent: 71.2,
    },
    TableOneRow {
        platform: "odroid-xu3",
        cluster: "a15",
        freq_mhz: 200.0,
        label: "A15 CPU (200MHz)",
        time_ms: 1020.0,
        power_mw: 326.0,
        energy_mj: 320.0,
        top1_percent: 71.2,
    },
    TableOneRow {
        platform: "odroid-xu3",
        cluster: "a15",
        freq_mhz: 1000.0,
        label: "A15 CPU (1GHz)",
        time_ms: 204.0,
        power_mw: 846.0,
        energy_mj: 173.0,
        top1_percent: 71.2,
    },
    TableOneRow {
        platform: "odroid-xu3",
        cluster: "a15",
        freq_mhz: 1800.0,
        label: "A15 CPU (1.8GHz)",
        time_ms: 117.0,
        power_mw: 2120.0,
        energy_mj: 248.0,
        top1_percent: 71.2,
    },
    TableOneRow {
        platform: "odroid-xu3",
        cluster: "a7",
        freq_mhz: 200.0,
        label: "A7 CPU (200MHz)",
        time_ms: 1780.0,
        power_mw: 72.4,
        energy_mj: 129.0,
        top1_percent: 71.2,
    },
    TableOneRow {
        platform: "odroid-xu3",
        cluster: "a7",
        freq_mhz: 700.0,
        label: "A7 CPU (700MHz)",
        time_ms: 504.0,
        power_mw: 141.0,
        energy_mj: 71.4,
        top1_percent: 71.2,
    },
    TableOneRow {
        platform: "odroid-xu3",
        cluster: "a7",
        freq_mhz: 1300.0,
        label: "A7 CPU (1.3GHz)",
        time_ms: 280.0,
        power_mw: 329.0,
        energy_mj: 92.1,
        top1_percent: 71.2,
    },
];

/// Fig 4(b): Top-1 CIFAR-10 accuracy (%) of the 25/50/75/100 % dynamic-DNN
/// configurations.
pub const FIG4B_TOP1: [f64; 4] = [56.0, 62.7, 68.8, 71.2];

/// Width fractions of the paper's four dynamic-DNN configurations.
pub const WIDTH_LEVELS: [f64; 4] = [0.25, 0.50, 0.75, 1.00];

/// §IV worked example, first budget: 400 ms and 100 mJ.
///
/// Expected optimum: 100 % model on the A7 at 900 MHz.
pub const CASE_STUDY_BUDGET_1: CaseStudyBudget = CaseStudyBudget {
    time_ms: 400.0,
    energy_mj: 100.0,
    expect_cluster: "a7",
    expect_freq_mhz: 900.0,
    expect_width: 1.00,
};

/// §IV worked example, second budget: 200 ms and 150 mJ.
///
/// Expected optimum: 75 % model on the A15 at 1 GHz.
pub const CASE_STUDY_BUDGET_2: CaseStudyBudget = CaseStudyBudget {
    time_ms: 200.0,
    energy_mj: 150.0,
    expect_cluster: "a15",
    expect_freq_mhz: 1000.0,
    expect_width: 0.75,
};

/// A budget/expected-optimum pair from the paper's worked example.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CaseStudyBudget {
    /// Latency budget in milliseconds.
    pub time_ms: f64,
    /// Energy budget in millijoules.
    pub energy_mj: f64,
    /// Expected optimal cluster (preset name).
    pub expect_cluster: &'static str,
    /// Expected optimal frequency in MHz.
    pub expect_freq_mhz: f64,
    /// Expected optimal width fraction.
    pub expect_width: f64,
}

/// Number of A15 DVFS levels used in Fig 4(a).
pub const FIG4A_A15_LEVELS: usize = 17;

/// Number of A7 DVFS levels used in Fig 4(a).
pub const FIG4A_A7_LEVELS: usize = 12;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_one_energy_is_consistent_with_power_times_time() {
        // The paper's own energy column equals P·t to within rounding
        // (< 5 %); assert so our reproduction tolerance is justified.
        for row in &TABLE_ONE {
            let computed_mj = row.power_mw * row.time_ms / 1000.0;
            let rel = ((computed_mj - row.energy_mj) / row.energy_mj).abs();
            assert!(
                rel < 0.05,
                "row `{}`: paper energy {} vs P·t {:.2} ({}%)",
                row.label,
                row.energy_mj,
                computed_mj,
                rel * 100.0
            );
        }
    }

    #[test]
    fn accuracy_is_platform_independent() {
        assert!(TABLE_ONE.iter().all(|r| r.top1_percent == 71.2));
    }

    #[test]
    fn fig4b_accuracy_is_monotone_with_diminishing_returns() {
        for w in FIG4B_TOP1.windows(2) {
            assert!(w[1] > w[0]);
        }
        let gains: Vec<f64> = FIG4B_TOP1.windows(2).map(|w| w[1] - w[0]).collect();
        for g in gains.windows(2) {
            assert!(g[1] < g[0], "accuracy gains should diminish with width");
        }
    }

    #[test]
    fn width_levels_ascend_to_full() {
        assert_eq!(WIDTH_LEVELS.len(), FIG4B_TOP1.len());
        assert_eq!(WIDTH_LEVELS[3], 1.0);
    }
}
