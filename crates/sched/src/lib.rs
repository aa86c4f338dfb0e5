//! # pamdc-sched — the paper's scheduling stack
//!
//! The mathematical model of Figure 3 ([`problem`]), its objective
//! function ([`profit`]), the Descending Best-Fit heuristic of
//! Algorithm 1 ([`bestfit`]), the information sources that differentiate
//! BF / BF-OB / BF-ML ([`oracle`]), an exact branch-and-bound reference
//! solver reproducing the "MILP is too slow" observation ([`exact`]),
//! the comparison baselines ([`baselines`]), the §IV-C candidate filters
//! ([`filter`]), the incremental schedule evaluator that makes the
//! consolidation pass cheap ([`evaluator`]), the bucketed free-capacity
//! candidate index that keeps Best-Fit sub-linear on planet-scale fleets
//! ([`index`]), the two-layer hierarchical multi-DC scheduler that is
//! the paper's headline contribution ([`hierarchical`]), and the literal
//! reference loops the indexed solvers are tested against
//! ([`mod@reference`]).

pub mod baselines;
pub mod bestfit;
pub mod evaluator;
pub mod exact;
pub mod filter;
pub mod hierarchical;
pub mod index;
pub mod localsearch;
pub mod oracle;
pub mod problem;
pub mod profit;
pub mod reference;

/// Common imports.
pub mod prelude {
    pub use crate::baselines::{
        cheapest_energy, first_fit, follow_the_load, round_robin, static_schedule,
    };
    pub use crate::bestfit::{best_fit, BestFitResult};
    pub use crate::evaluator::ScheduleEvaluator;
    pub use crate::exact::{
        branch_and_bound, branch_and_bound_with_budget, ExactOutcome, ExactResult,
    };
    pub use crate::filter::{hosts_worth_offering, reduced_problem, vms_needing_attention};
    pub use crate::hierarchical::{hierarchical_round, HierarchicalConfig, RoundStats};
    pub use crate::index::{CandidateIndex, IndexMode};
    pub use crate::localsearch::{improve_schedule, LocalSearchConfig};
    pub use crate::oracle::{MlOracle, MonitorOracle, QosOracle, TrueOracle};
    pub use crate::problem::{HostInfo, Problem, Schedule, VmInfo};
    pub use crate::profit::{
        evaluate_schedule, marginal_profit, BelievedTotals, PlacementScore, PlacementState,
        ScheduleEval,
    };
}
