//! Governors: decision policies that pick an operating point satisfying an
//! application's requirements.
//!
//! Three policies with different decision-latency/quality trade-offs (an
//! ablation the benches quantify):
//!
//! - [`ExhaustiveGovernor`] — the oracle: evaluates every point, returns
//!   the true optimum. `O(|space|)` per decision.
//! - [`ParetoGovernor`] — pre-computes the Pareto frontier once, then scans
//!   only the frontier per decision. Optimal for objectives monotone in
//!   (latency, energy, accuracy), which all built-in objectives are.
//! - [`GreedyGovernor`] — hill-climbs the (mapping, DVFS, width) lattice
//!   from a handful of seeds; `O(steps)` evaluations, near-optimal in
//!   practice, can miss the global optimum on non-convex spaces.

use eml_dnn::WidthLevel;

use crate::error::Result;
use crate::objective::Objective;
use crate::opspace::{EvaluatedPoint, OpSpace, OperatingPoint};
use crate::pareto::pareto_front;
use crate::requirements::Requirements;

/// A decision policy over an operating-point space.
pub trait Governor {
    /// The policy's name (for traces and reports).
    fn name(&self) -> &str;

    /// Picks the best feasible point, or `None` when no point satisfies
    /// `req`.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors from the space.
    fn decide(
        &mut self,
        space: &OpSpace<'_>,
        req: &Requirements,
        objective: Objective,
    ) -> Result<Option<EvaluatedPoint>>;
}

/// The oracle: exhaustive search over the whole space.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExhaustiveGovernor;

impl Governor for ExhaustiveGovernor {
    fn name(&self) -> &str {
        "exhaustive"
    }

    fn decide(
        &mut self,
        space: &OpSpace<'_>,
        req: &Requirements,
        objective: Objective,
    ) -> Result<Option<EvaluatedPoint>> {
        let mut best: Option<EvaluatedPoint> = None;
        for op in space.iter() {
            let pt = space.evaluate(op)?;
            if !req.satisfied_by(&pt) {
                continue;
            }
            best = match best {
                None => Some(pt),
                Some(b) => {
                    if objective.compare(&pt, &b).is_lt() {
                        Some(pt)
                    } else {
                        Some(b)
                    }
                }
            };
        }
        Ok(best)
    }
}

/// Pareto-cache governor: evaluates the space once, keeps only the
/// non-dominated frontier, and answers subsequent decisions by scanning the
/// frontier.
///
/// The cache is keyed by nothing — construct one governor per
/// (SoC, profile, restrictions) combination.
#[derive(Debug, Clone, Default)]
pub struct ParetoGovernor {
    frontier: Option<Vec<EvaluatedPoint>>,
}

impl ParetoGovernor {
    /// Creates an empty (not yet prepared) governor.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Governor for ParetoGovernor {
    fn name(&self) -> &str {
        "pareto"
    }

    fn decide(
        &mut self,
        space: &OpSpace<'_>,
        req: &Requirements,
        objective: Objective,
    ) -> Result<Option<EvaluatedPoint>> {
        if self.frontier.is_none() {
            let all = space.evaluate_all()?;
            self.frontier = Some(pareto_front(&all));
        }
        let frontier = self.frontier.as_ref().expect("just populated");
        Ok(objective
            .best(frontier.iter().filter(|pt| req.satisfied_by(pt)))
            .copied())
    }
}

/// Greedy hill-climbing governor.
///
/// Starts from several seeds (one per cluster, at the highest width and a
/// mid OPP) and repeatedly moves to the best feasible neighbour (±1 OPP,
/// ±1 width level, ±1 core) until no neighbour improves the objective.
/// Infeasible points are penalised by their violation count, so the search
/// can walk *through* lightly infeasible regions toward feasibility.
#[derive(Debug, Clone, Copy)]
pub struct GreedyGovernor {
    /// Maximum hill-climbing steps per seed (safety bound).
    pub max_steps: usize,
}

impl Default for GreedyGovernor {
    fn default() -> Self {
        Self { max_steps: 64 }
    }
}

impl GreedyGovernor {
    fn penalised_score(objective: Objective, req: &Requirements, pt: &EvaluatedPoint) -> f64 {
        // Infeasibility dominates; its *magnitude* (normalised excess)
        // gives the climb a gradient toward the feasible region, so the
        // search does not stall at the feasibility boundary chasing the
        // objective.
        let violations = req.violations(pt).len() as f64;
        objective.score(pt) + violations * 1.0e12 + req.violation_excess(pt) * 1.0e9
    }

    fn neighbours(space: &OpSpace<'_>, op: OperatingPoint) -> Vec<OperatingPoint> {
        let mut out = Vec::with_capacity(8);
        let spec = space
            .soc()
            .cluster(op.cluster)
            .expect("ops enumerated from this soc");
        if op.opp_index > 0 {
            out.push(OperatingPoint {
                opp_index: op.opp_index - 1,
                ..op
            });
        }
        if op.opp_index + 1 < spec.opps().len() {
            out.push(OperatingPoint {
                opp_index: op.opp_index + 1,
                ..op
            });
        }
        if op.level.index() > 0 {
            out.push(OperatingPoint {
                level: WidthLevel(op.level.index() - 1),
                ..op
            });
        }
        if op.level.index() + 1 < space.profile().level_count() {
            out.push(OperatingPoint {
                level: WidthLevel(op.level.index() + 1),
                ..op
            });
        }
        if op.cores > 1 {
            out.push(OperatingPoint {
                cores: op.cores - 1,
                ..op
            });
        }
        if op.cores < spec.cores() {
            out.push(OperatingPoint {
                cores: op.cores + 1,
                ..op
            });
        }
        // Stay within the configured space: `evaluate` would happily
        // predict e.g. partial-core points even when the space only
        // enumerates whole clusters.
        out.retain(|&n| space.contains(n));
        out
    }

    fn seeds(space: &OpSpace<'_>) -> Vec<OperatingPoint> {
        // Two seeds per cluster at maximum width: the lowest and the
        // highest enumerated OPP. Starting from both frequency extremes
        // lets the climb approach the feasible region from either side.
        let mut seeds: Vec<OperatingPoint> = Vec::new();
        for op in space.iter() {
            if op.level.index() + 1 != space.profile().level_count() {
                continue;
            }
            match seeds
                .iter()
                .position(|s| s.cluster == op.cluster && s.cores == op.cores)
            {
                None => {
                    seeds.push(op); // lowest OPP seen for this cluster
                    seeds.push(op); // placeholder for the highest
                }
                Some(i) => seeds[i + 1] = op, // keep updating the highest
            }
        }
        seeds.dedup();
        seeds
    }
}

impl Governor for GreedyGovernor {
    fn name(&self) -> &str {
        "greedy"
    }

    fn decide(
        &mut self,
        space: &OpSpace<'_>,
        req: &Requirements,
        objective: Objective,
    ) -> Result<Option<EvaluatedPoint>> {
        let mut best: Option<(f64, EvaluatedPoint)> = None;
        for seed in Self::seeds(space) {
            let mut current = space.evaluate(seed)?;
            let mut current_score = Self::penalised_score(objective, req, &current);
            for _ in 0..self.max_steps {
                let mut improved = false;
                for n in Self::neighbours(space, current.op) {
                    let pt = space.evaluate(n)?;
                    let s = Self::penalised_score(objective, req, &pt);
                    if s < current_score {
                        current = pt;
                        current_score = s;
                        improved = true;
                    }
                }
                if !improved {
                    break;
                }
            }
            if req.satisfied_by(&current) {
                match &best {
                    None => best = Some((current_score, current)),
                    Some((bs, _)) if current_score < *bs => best = Some((current_score, current)),
                    _ => {}
                }
            }
        }
        Ok(best.map(|(_, pt)| pt))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opspace::OpSpaceConfig;
    use eml_dnn::profile::DnnProfile;
    use eml_platform::paper;
    use eml_platform::presets;
    use eml_platform::units::{Energy, Freq, TimeSpan};
    use eml_platform::Soc;

    fn xu3_cpu_space<'a>(soc: &'a Soc, profile: &'a DnnProfile) -> OpSpace<'a> {
        let cpu = vec![
            soc.find_cluster("a15").unwrap(),
            soc.find_cluster("a7").unwrap(),
        ];
        OpSpace::new(soc, profile, OpSpaceConfig::default().with_clusters(cpu)).unwrap()
    }

    fn budget_req(b: &paper::CaseStudyBudget) -> Requirements {
        Requirements::new()
            .with_max_latency(TimeSpan::from_millis(b.time_ms))
            .with_max_energy(Energy::from_millijoules(b.energy_mj))
    }

    /// The paper's §IV worked example, budget 1: (400 ms, 100 mJ) must
    /// select the 100 % model on the A7 at 900 MHz.
    #[test]
    fn case_study_budget_one_reproduced() {
        let soc = presets::odroid_xu3();
        let profile = DnnProfile::reference("dnn");
        let space = xu3_cpu_space(&soc, &profile);
        let b = paper::CASE_STUDY_BUDGET_1;
        let pt = ExhaustiveGovernor
            .decide(&space, &budget_req(&b), Objective::MaxAccuracyThenMinEnergy)
            .unwrap()
            .expect("budget 1 is feasible");
        let cluster = soc.cluster(pt.op.cluster).unwrap();
        let freq = cluster.opps().get(pt.op.opp_index).unwrap().freq();
        assert_eq!(cluster.name(), b.expect_cluster, "{pt}");
        assert_eq!(freq, Freq::from_mhz(b.expect_freq_mhz), "{pt}");
        assert_eq!(pt.op.level, WidthLevel(3), "{pt}");
    }

    /// Budget 2: (200 ms, 150 mJ) must select the 75 % model on the A15 at
    /// 1 GHz.
    #[test]
    fn case_study_budget_two_reproduced() {
        let soc = presets::odroid_xu3();
        let profile = DnnProfile::reference("dnn");
        let space = xu3_cpu_space(&soc, &profile);
        let b = paper::CASE_STUDY_BUDGET_2;
        let pt = ExhaustiveGovernor
            .decide(&space, &budget_req(&b), Objective::MaxAccuracyThenMinEnergy)
            .unwrap()
            .expect("budget 2 is feasible");
        let cluster = soc.cluster(pt.op.cluster).unwrap();
        let freq = cluster.opps().get(pt.op.opp_index).unwrap().freq();
        assert_eq!(cluster.name(), b.expect_cluster, "{pt}");
        assert_eq!(freq, Freq::from_mhz(b.expect_freq_mhz), "{pt}");
        assert_eq!(pt.op.level, WidthLevel(2), "{pt}");
    }

    #[test]
    fn pareto_governor_matches_oracle() {
        let soc = presets::odroid_xu3();
        let profile = DnnProfile::reference("dnn");
        let space = xu3_cpu_space(&soc, &profile);
        let mut pareto = ParetoGovernor::new();
        for b in [paper::CASE_STUDY_BUDGET_1, paper::CASE_STUDY_BUDGET_2] {
            let req = budget_req(&b);
            let oracle = ExhaustiveGovernor
                .decide(&space, &req, Objective::MaxAccuracyThenMinEnergy)
                .unwrap();
            let cached = pareto
                .decide(&space, &req, Objective::MaxAccuracyThenMinEnergy)
                .unwrap();
            assert_eq!(oracle.map(|p| p.op), cached.map(|p| p.op));
        }
        assert!(pareto.frontier.as_ref().is_some_and(|f| !f.is_empty()));
    }

    #[test]
    fn greedy_governor_finds_feasible_near_optimum() {
        let soc = presets::odroid_xu3();
        let profile = DnnProfile::reference("dnn");
        let space = xu3_cpu_space(&soc, &profile);
        let mut greedy = GreedyGovernor::default();
        for b in [paper::CASE_STUDY_BUDGET_1, paper::CASE_STUDY_BUDGET_2] {
            let req = budget_req(&b);
            let pt = greedy
                .decide(&space, &req, Objective::MaxAccuracyThenMinEnergy)
                .unwrap()
                .expect("greedy must find a feasible point");
            assert!(req.satisfied_by(&pt));
            // Quality: within one accuracy level of the oracle.
            let oracle = ExhaustiveGovernor
                .decide(&space, &req, Objective::MaxAccuracyThenMinEnergy)
                .unwrap()
                .unwrap();
            assert!(pt.top1_percent >= oracle.top1_percent - 7.0);
        }
    }

    #[test]
    fn infeasible_requirements_yield_none() {
        let soc = presets::odroid_xu3();
        let profile = DnnProfile::reference("dnn");
        let space = xu3_cpu_space(&soc, &profile);
        let impossible = Requirements::new()
            .with_max_latency(TimeSpan::from_millis(0.001))
            .with_max_energy(Energy::from_millijoules(0.001));
        for g in [
            &mut ExhaustiveGovernor as &mut dyn Governor,
            &mut ParetoGovernor::new(),
            &mut GreedyGovernor::default(),
        ] {
            assert!(g
                .decide(&space, &impossible, Objective::MaxAccuracyThenMinEnergy)
                .unwrap()
                .is_none());
        }
    }

    #[test]
    fn unconstrained_paper_objective_picks_full_width() {
        let soc = presets::odroid_xu3();
        let profile = DnnProfile::reference("dnn");
        let space = xu3_cpu_space(&soc, &profile);
        let pt = ExhaustiveGovernor
            .decide(
                &space,
                &Requirements::new(),
                Objective::MaxAccuracyThenMinEnergy,
            )
            .unwrap()
            .unwrap();
        assert_eq!(pt.op.level, WidthLevel(3));
        // Min-energy full-width point lives on the A7 (Table I shape).
        assert_eq!(soc.cluster(pt.op.cluster).unwrap().name(), "a7");
    }
}
