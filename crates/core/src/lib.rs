//! # pamdc-core — the managed multi-DC system
//!
//! The paper's pieces assembled into a running system: experimental
//! [`scenario`]s, the MAPE [`simulation`] loop, pluggable placement
//! [`policy`] implementations, the Table-I [`training`] pipeline, report
//! rendering ([`report`]), the shared [`experiment`] arm runner and one
//! report module per table/figure of the evaluation ([`experiments`]).

pub mod energy;
pub mod engine;
pub mod experiment;
pub mod experiments;
pub mod policy;
pub mod report;
pub mod scenario;
pub mod simulation;
pub mod training;

/// Common imports.
pub mod prelude {
    pub use crate::energy::EnergyEnvironment;
    pub use crate::engine::{
        Controller, DeadlineGovernor, RoundFidelity, RoundOutcome, StepDemand, TickOutcome,
    };
    pub use crate::experiment::{outcome_metrics, Arm, ExperimentReport, ExperimentRun};
    pub use crate::policy::{
        BestFitPolicy, CheapestEnergyPolicy, FollowLoadPolicy, HierarchicalPolicy, PlacementPolicy,
        RandomPolicy, StaticPolicy,
    };
    pub use crate::report::TextTable;
    pub use crate::scenario::{ProfileChange, Scenario, ScenarioBuilder};
    pub use crate::simulation::{RunConfig, RunOutcome};
    pub use crate::training::{
        collect_training_data, train_paper_suite, train_suite, TrainingCollector, TrainingOutcome,
    };
}
