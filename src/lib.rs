//! # pamdc — Power-Aware Multi-DataCenter Management using Machine Learning
//!
//! A from-scratch reproduction of Berral, Gavaldà and Torres,
//! *"Power-aware Multi-DataCenter Management using Machine Learning"*
//! (ICPP 2013), as a production-quality Rust workspace.
//!
//! This facade crate re-exports every subsystem under a single name:
//!
//! * [`simcore`] — simulation clock, deterministic RNG streams, online
//!   statistics, time-series recording and a deterministic parallel map.
//! * [`infra`] — physical machines, virtual machines, datacenters, the
//!   measured Atom power curve, the inter-DC network, migrations, monitors
//!   and the client gateway.
//! * [`workload`] — Li-BCN-like synthetic web workload generation: diurnal
//!   and weekly patterns, per-timezone phase shifts, flash crowds.
//! * [`perf`] — ground-truth response-time model (queueing + contention) and
//!   the paper's piecewise-linear SLA function.
//! * [`ml`] — machine learning from scratch: M5 model trees, linear
//!   regression, k-NN regression, datasets, validation metrics.
//! * [`econ`] — the paper's Table II prices, revenue and penalty accounting.
//! * [`green`] — dynamic tariffs, solar/wind production traces and carbon
//!   accounting (the paper's "follow the sun/wind" future-work direction).
//! * [`sched`] — the Figure 3 mathematical model, the profit function,
//!   Descending Best-Fit (Algorithm 1) and its BF / BF-OB / BF-ML variants,
//!   an exact branch-and-bound solver, baselines, and the hierarchical
//!   two-layer multi-DC scheduler.
//! * [`manager`] — the Monitor-Analyze-Plan-Execute loop, the full multi-DC
//!   simulation binding, the model-training pipeline and one report
//!   module per table/figure of the paper (the `pamdc-scenario` crate
//!   runs them from scenario specs).
//!
//! ## Quickstart
//!
//! ```
//! use pamdc::prelude::*;
//! use pamdc::sched::oracle::TrueOracle;
//!
//! // Build the paper's 4-city scenario, seed 7, with 5 web-service VMs.
//! let scenario = ScenarioBuilder::paper_multi_dc().vms(5).seed(7).build();
//! // Drive it for 2 simulated hours under the hierarchical scheduler.
//! let policy = Box::new(HierarchicalPolicy::new(TrueOracle::new()));
//! let (outcome, _) = Controller::new(scenario, policy).run_for(SimDuration::from_hours(2));
//! assert!(outcome.mean_sla > 0.0 && outcome.mean_sla <= 1.0);
//! ```

pub use pamdc_core as manager;
pub use pamdc_econ as econ;
pub use pamdc_green as green;
pub use pamdc_infra as infra;
pub use pamdc_ml as ml;
pub use pamdc_perf as perf;
pub use pamdc_sched as sched;
pub use pamdc_simcore as simcore;
pub use pamdc_workload as workload;

/// One-stop imports for examples, tests and downstream users.
pub mod prelude {
    pub use crate::econ::prelude::*;
    pub use crate::green::prelude::*;
    pub use crate::infra::prelude::*;
    pub use crate::manager::prelude::*;
    pub use crate::ml::prelude::*;
    pub use crate::perf::prelude::*;
    pub use crate::sched::prelude::*;
    pub use crate::simcore::prelude::*;
    pub use crate::workload::prelude::*;
}
