//! Placement policies — the "Plan" stage of the MAPE loop.
//!
//! A [`PlacementPolicy`] turns one scheduling-round [`Problem`] into a
//! [`Schedule`]. Every policy the paper evaluates (and every baseline it
//! compares against) is expressed through this one trait, so experiment
//! drivers swap policies without touching the simulation loop. The
//! engine plans every round through
//! [`decide_at`](PlacementPolicy::decide_at) at the round's
//! [`RoundFidelity`] rung; only policies with a consolidation pass plan
//! differently below full fidelity.

use crate::engine::RoundFidelity;
use pamdc_sched::baselines;
use pamdc_sched::bestfit::best_fit;
use pamdc_sched::hierarchical::{hierarchical_round, HierarchicalConfig};
use pamdc_sched::index::IndexMode;
use pamdc_sched::localsearch::{improve_schedule, LocalSearchConfig};
use pamdc_sched::oracle::QosOracle;
use pamdc_sched::problem::{Problem, Schedule};
use pamdc_simcore::rng::RngStream;
use std::sync::Mutex;

/// Report-name suffix for the opt-in approximate index: policies running
/// with near-equivalence shortlists relax the bit-identity guarantee, so
/// every report naming them says so loudly.
fn near_label(mode: IndexMode) -> String {
    match mode {
        IndexMode::Near { top_k } => format!("+NEAR-EQUIV(top{top_k})"),
        IndexMode::Exact => String::new(),
    }
}

/// The consolidation pass a ladder rung keeps: the configured one at
/// full fidelity, a quarter of its move budget (floor 1) on the middle
/// rung — most of the gain comes from the first few moves — and none at
/// the bottom. Shared by every policy with a local-search pass so the
/// ladder trims uniformly.
fn local_search_at(
    cfg: Option<&LocalSearchConfig>,
    rung: RoundFidelity,
) -> Option<LocalSearchConfig> {
    let cfg = cfg?;
    match rung {
        RoundFidelity::Full => Some(cfg.clone()),
        RoundFidelity::Trimmed => Some(LocalSearchConfig {
            max_moves: (cfg.max_moves / 4).max(1),
            ..cfg.clone()
        }),
        RoundFidelity::BestFitOnly => None,
    }
}

/// The Plan stage: problem in, schedule out.
pub trait PlacementPolicy: Send + Sync {
    /// Decides this round's schedule at full fidelity.
    fn decide(&self, problem: &Problem) -> Schedule;

    /// Decides at a rung of the serve degradation ladder. Placement is
    /// never skipped: policies with a consolidation pass shrink it to a
    /// quarter of its move budget (floor 1) on
    /// [`RoundFidelity::Trimmed`] and drop it on
    /// [`RoundFidelity::BestFitOnly`]. Every other policy, and any
    /// policy that implements only [`decide`](PlacementPolicy::decide),
    /// plans as `decide` at every rung.
    fn decide_at(&self, problem: &Problem, _rung: RoundFidelity) -> Schedule {
        self.decide(problem)
    }

    /// Display name for reports.
    fn name(&self) -> String;
}

/// Keep every VM where it is (the paper's "Static-Global").
pub struct StaticPolicy<O: QosOracle>(pub O);

impl<O: QosOracle> PlacementPolicy for StaticPolicy<O> {
    fn decide(&self, problem: &Problem) -> Schedule {
        baselines::static_schedule(problem, &self.0)
    }
    fn name(&self) -> String {
        "static".into()
    }
}

/// Latency-only packing (the Figure 5 sanity check).
pub struct FollowLoadPolicy<O: QosOracle>(pub O);

impl<O: QosOracle> PlacementPolicy for FollowLoadPolicy<O> {
    fn decide(&self, problem: &Problem) -> Schedule {
        baselines::follow_the_load(problem, &self.0)
    }
    fn name(&self) -> String {
        "follow-load".into()
    }
}

/// Flat (single-layer) Descending Best-Fit with any oracle, followed by
/// the profit-improving consolidation pass (which is what lets the
/// scheduler power hosts down — and what makes plain BF dangerous: its
/// monitored beliefs under-report demand under contention, so it
/// consolidates into trouble it cannot see).
pub struct BestFitPolicy<O: QosOracle> {
    /// The belief source (BF / BF-OB / BF-ML / BF-True).
    pub oracle: O,
    /// Consolidation pass configuration (None = raw Algorithm 1 only).
    pub refine: Option<LocalSearchConfig>,
    /// Candidate-index grouping for placement and consolidation (exact
    /// by default; near mode is the opt-in approximation).
    pub index_mode: IndexMode,
}

impl<O: QosOracle> BestFitPolicy<O> {
    /// Best-Fit with the default consolidation pass.
    pub fn new(oracle: O) -> Self {
        BestFitPolicy {
            oracle,
            refine: Some(LocalSearchConfig::default()),
            index_mode: IndexMode::Exact,
        }
    }

    /// Raw Algorithm 1, no consolidation pass.
    pub fn raw(oracle: O) -> Self {
        BestFitPolicy {
            oracle,
            refine: None,
            index_mode: IndexMode::Exact,
        }
    }
}

impl<O: QosOracle> PlacementPolicy for BestFitPolicy<O> {
    fn decide(&self, problem: &Problem) -> Schedule {
        self.decide_at(problem, RoundFidelity::Full)
    }
    /// Best-Fit, then the consolidation pass `rung` keeps.
    fn decide_at(&self, problem: &Problem, rung: RoundFidelity) -> Schedule {
        let schedule = best_fit(problem, &self.oracle, self.index_mode).schedule;
        match local_search_at(self.refine.as_ref(), rung) {
            Some(cfg) => improve_schedule(problem, &self.oracle, schedule, &cfg, self.index_mode).0,
            None => schedule,
        }
    }
    fn name(&self) -> String {
        format!(
            "bestfit[{}]{}",
            self.oracle.name(),
            near_label(self.index_mode)
        )
    }
}

/// The paper's two-layer hierarchical scheduler.
pub struct HierarchicalPolicy<O: QosOracle> {
    /// The belief source.
    pub oracle: O,
    /// Filtering thresholds.
    pub config: HierarchicalConfig,
}

impl<O: QosOracle> HierarchicalPolicy<O> {
    /// Default-config hierarchical policy.
    pub fn new(oracle: O) -> Self {
        HierarchicalPolicy {
            oracle,
            config: HierarchicalConfig::default(),
        }
    }
}

impl<O: QosOracle> PlacementPolicy for HierarchicalPolicy<O> {
    fn decide(&self, problem: &Problem) -> Schedule {
        self.decide_at(problem, RoundFidelity::Full)
    }
    /// Both layers place at every rung; only the consolidation pass
    /// shrinks.
    fn decide_at(&self, problem: &Problem, rung: RoundFidelity) -> Schedule {
        let cfg = HierarchicalConfig {
            local_search: local_search_at(self.config.local_search.as_ref(), rung),
            ..self.config.clone()
        };
        hierarchical_round(problem, &self.oracle, &cfg).0
    }
    fn name(&self) -> String {
        format!(
            "hierarchical[{}]{}",
            self.oracle.name(),
            near_label(self.config.index_mode)
        )
    }
}

/// Consolidate toward the cheapest tariff (energy-only sanity check).
pub struct CheapestEnergyPolicy<O: QosOracle>(pub O);

impl<O: QosOracle> PlacementPolicy for CheapestEnergyPolicy<O> {
    fn decide(&self, problem: &Problem) -> Schedule {
        baselines::cheapest_energy(problem, &self.0)
    }
    fn name(&self) -> String {
        "cheapest-energy".into()
    }
}

/// Uniform-random placement each round — the exploration policy the
/// training pipeline uses to visit diverse co-locations and contention
/// levels.
pub struct RandomPolicy {
    rng: Mutex<RngStream>,
}

impl RandomPolicy {
    /// Seeded exploration policy.
    pub fn new(seed: u64) -> Self {
        RandomPolicy {
            rng: Mutex::new(RngStream::root(seed).derive("random-policy")),
        }
    }
}

impl PlacementPolicy for RandomPolicy {
    fn decide(&self, problem: &Problem) -> Schedule {
        let mut rng = self.rng.lock().expect("random-policy rng lock");
        let assignment = problem
            .vms
            .iter()
            .map(|_| problem.hosts[rng.index(problem.hosts.len())].id)
            .collect();
        Schedule { assignment }
    }
    fn name(&self) -> String {
        "random-exploration".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pamdc_sched::oracle::TrueOracle;
    use pamdc_sched::problem::synthetic;

    #[test]
    fn every_policy_produces_valid_schedules() {
        let p = synthetic::problem(4, 4, 100.0);
        let policies: Vec<Box<dyn PlacementPolicy>> = vec![
            Box::new(StaticPolicy(TrueOracle::new())),
            Box::new(FollowLoadPolicy(TrueOracle::new())),
            Box::new(BestFitPolicy::new(TrueOracle::new())),
            Box::new(HierarchicalPolicy::new(TrueOracle::new())),
            Box::new(CheapestEnergyPolicy(TrueOracle::new())),
            Box::new(RandomPolicy::new(1)),
        ];
        for policy in policies {
            let s = policy.decide(&p);
            s.validate(&p);
            assert!(!policy.name().is_empty());
        }
    }

    #[test]
    fn random_policy_is_seed_deterministic() {
        let p = synthetic::problem(4, 4, 100.0);
        let a = RandomPolicy::new(42).decide(&p);
        let b = RandomPolicy::new(42).decide(&p);
        assert_eq!(a, b);
    }
}
