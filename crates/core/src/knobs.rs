//! Knobs and monitors: the PRiME-style control interface of the paper's
//! Fig 5.
//!
//! The RTM does not touch applications or hardware directly — it reads
//! *monitors* (accuracy, confidence, latency, frame rate; power,
//! temperature, performance counters) and writes *knobs* (DNN width, DVFS
//! level, task mapping, power gating). The monitors are the executor's
//! statistics and health scores (`eml-serve`); this module defines the
//! knob vocabulary and the translation from an [`Allocation`] decision to
//! a concrete actuation list, which the simulator (or a real platform
//! shim) executes.

use eml_dnn::{DynamicDnn, Precision, WidthLevel};
use eml_platform::soc::ClusterId;

use crate::error::Result;
use crate::rtm::Allocation;

/// One actuation the RTM issues to the application or device layer.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum KnobCommand {
    /// Application knob: set a dynamic DNN's width level.
    SetWidth {
        /// Application name.
        app: String,
        /// Target width level.
        level: WidthLevel,
    },
    /// Application knob: set a dynamic DNN's data-precision mode
    /// (executed int8 vs full `f32` — see
    /// [`eml_dnn::DynamicDnn::set_precision`]). The allocator does not
    /// yet place precision in its operating-point search, so
    /// [`commands_for`] never emits this; it is the vocabulary an RTM
    /// policy issues directly and [`apply_app_command`] executes.
    SetPrecision {
        /// Application name.
        app: String,
        /// Target precision mode.
        precision: Precision,
    },
    /// Device knob: map an application onto a cluster with a core count.
    Map {
        /// Application name.
        app: String,
        /// Target cluster.
        cluster: ClusterId,
        /// Cores to use.
        cores: u32,
    },
    /// Device knob: set a cluster's DVFS operating point.
    SetOpp {
        /// Target cluster.
        cluster: ClusterId,
        /// OPP index.
        opp_index: usize,
    },
    /// Device knob: clock/power-gate an unused cluster.
    Gate {
        /// Target cluster.
        cluster: ClusterId,
        /// `true` to gate, `false` to ungate.
        gated: bool,
    },
}

/// Translates an allocation into the ordered knob commands that realise it.
///
/// Order: DVFS first (so mappings land on correctly clocked clusters), then
/// mappings, then width levels — mirroring how a real RTM avoids transient
/// deadline violations during reconfiguration.
pub fn commands_for(allocation: &Allocation) -> Vec<KnobCommand> {
    let mut cmds = Vec::new();
    let mut seen_opp: Vec<(ClusterId, usize)> = Vec::new();
    for d in &allocation.dnns {
        let pair = (d.point.op.cluster, d.point.op.opp_index);
        if !seen_opp.contains(&pair) {
            seen_opp.push(pair);
            cmds.push(KnobCommand::SetOpp {
                cluster: pair.0,
                opp_index: pair.1,
            });
        }
    }
    for r in &allocation.rigid {
        let pair = (r.cluster, r.opp_index);
        if !seen_opp.contains(&pair) {
            seen_opp.push(pair);
            cmds.push(KnobCommand::SetOpp {
                cluster: pair.0,
                opp_index: pair.1,
            });
        }
    }
    for d in &allocation.dnns {
        cmds.push(KnobCommand::Map {
            app: d.app.clone(),
            cluster: d.point.op.cluster,
            cores: d.point.op.cores,
        });
    }
    for d in &allocation.dnns {
        cmds.push(KnobCommand::SetWidth {
            app: d.app.clone(),
            level: d.point.op.level,
        });
    }
    for &cluster in &allocation.gated {
        cmds.push(KnobCommand::Gate {
            cluster,
            gated: true,
        });
    }
    cmds
}

/// Executes one command's *application-layer* part against the dynamic
/// DNN backing `app`: [`KnobCommand::SetWidth`] switches the width
/// level, [`KnobCommand::SetPrecision`] the data-precision mode.
/// Returns `true` when the command addressed `app` with an application
/// knob; device knobs ([`KnobCommand::Map`] / [`KnobCommand::SetOpp`] /
/// [`KnobCommand::Gate`]) and commands for other apps return `false`
/// untouched — they belong to the device layer. This is the shim a
/// real platform (or a test harness) uses to actuate an RTM decision
/// on live models.
///
/// # Errors
///
/// Propagates the width-switch error of an out-of-range
/// [`KnobCommand::SetWidth`] level.
pub fn apply_app_command(cmd: &KnobCommand, app: &str, dnn: &mut DynamicDnn) -> Result<bool> {
    match cmd {
        KnobCommand::SetWidth { app: a, level } if a == app => {
            dnn.set_level(*level)?;
            Ok(true)
        }
        KnobCommand::SetPrecision { app: a, precision } if a == app => {
            dnn.set_precision(*precision);
            Ok(true)
        }
        _ => Ok(false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::Objective;
    use crate::requirements::Requirements;
    use crate::rtm::{AppSpec, DnnAppSpec, Rtm, RtmConfig};
    use eml_dnn::profile::DnnProfile;
    use eml_platform::presets;
    use eml_platform::units::TimeSpan;

    /// The application-knob executor actuates width and precision
    /// commands on the addressed model and leaves everything else to
    /// the device layer.
    #[test]
    fn app_commands_actuate_width_and_precision() {
        use eml_nn::arch::{build_group_cnn, CnnConfig};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(0);
        let mut net = build_group_cnn(CnnConfig::default(), &mut rng).unwrap();
        let profile = DnnProfile::from_network("dnn1", &mut net, &[0.5, 0.6, 0.65, 0.7]).unwrap();
        let mut dnn = eml_dnn::DynamicDnn::new(net, profile).unwrap();

        let quant = KnobCommand::SetPrecision {
            app: "dnn1".into(),
            precision: Precision::Int8,
        };
        assert!(apply_app_command(&quant, "dnn1", &mut dnn).unwrap());
        assert_eq!(dnn.precision(), Precision::Int8);

        let narrow = KnobCommand::SetWidth {
            app: "dnn1".into(),
            level: WidthLevel(1),
        };
        assert!(apply_app_command(&narrow, "dnn1", &mut dnn).unwrap());
        assert_eq!(dnn.level(), WidthLevel(1));

        // Another app's command and device knobs are not for us.
        assert!(!apply_app_command(&quant, "dnn2", &mut dnn).unwrap());
        let gate = KnobCommand::Gate {
            cluster: presets::flagship().cluster_ids().next().unwrap(),
            gated: true,
        };
        assert!(!apply_app_command(&gate, "dnn1", &mut dnn).unwrap());
        assert_eq!(dnn.precision(), Precision::Int8, "state untouched");

        // Out-of-range width errors propagate.
        let bad = KnobCommand::SetWidth {
            app: "dnn1".into(),
            level: WidthLevel(9),
        };
        assert!(apply_app_command(&bad, "dnn1", &mut dnn).is_err());
    }

    #[test]
    fn allocation_translates_to_ordered_commands() {
        let soc = presets::flagship();
        let rtm = Rtm::new(RtmConfig::default());
        let app = AppSpec::Dnn(DnnAppSpec {
            name: "dnn1".into(),
            profile: DnnProfile::reference("dnn1"),
            requirements: Requirements::new().with_max_latency(TimeSpan::from_millis(11.0)),
            priority: 1,
            objective: Some(Objective::MaxAccuracyThenMinEnergy),
        });
        let alloc = rtm.allocate(&soc, &[app]).unwrap();
        let cmds = commands_for(&alloc);
        // One SetOpp, one Map, one SetWidth, in that order.
        assert_eq!(cmds.len(), 3);
        assert!(matches!(cmds[0], KnobCommand::SetOpp { .. }));
        assert!(matches!(cmds[1], KnobCommand::Map { ref app, .. } if app == "dnn1"));
        assert!(
            matches!(cmds[2], KnobCommand::SetWidth { ref app, level } if app == "dnn1" && level == WidthLevel(3))
        );
    }

    #[test]
    fn duplicate_opp_commands_are_merged() {
        // Two DNNs sharing one accelerator should produce a single SetOpp
        // for that cluster.
        let soc = presets::flagship();
        let rtm = Rtm::new(RtmConfig::default());
        let mk = |name: &str, prio: u8| {
            AppSpec::Dnn(DnnAppSpec {
                name: name.into(),
                profile: DnnProfile::reference(name),
                requirements: Requirements::new().with_max_latency(TimeSpan::from_millis(50.0)),
                priority: prio,
                objective: None,
            })
        };
        let alloc = rtm.allocate(&soc, &[mk("a", 1), mk("b", 2)]).unwrap();
        let cmds = commands_for(&alloc);
        let opp_cmds = cmds
            .iter()
            .filter(|c| matches!(c, KnobCommand::SetOpp { .. }))
            .count();
        let clusters: std::collections::HashSet<_> = alloc
            .dnns
            .iter()
            .map(|d| (d.point.op.cluster, d.point.op.opp_index))
            .collect();
        assert_eq!(opp_cmds, clusters.len());
    }
}
