//! Shared fixtures of the sched property suites.

use pamdc_ml::predictors::PredictorSuite;
use pamdc_sched::oracle::{MlOracle, MonitorOracle, QosOracle, TrueOracle};
use pamdc_sched::problem::synthetic;
use std::sync::{Arc, OnceLock};

/// Every belief source a production policy can run on: the indexed
/// solvers must agree with their references whatever demands and SLA
/// estimates drive them. Each call hands out a fresh `MlOracle` (empty
/// memo) over one shared synthetic suite.
pub fn oracles() -> Vec<Box<dyn QosOracle>> {
    static SUITE: OnceLock<Arc<PredictorSuite>> = OnceLock::new();
    let suite = SUITE.get_or_init(synthetic::ml_suite).clone();
    vec![
        Box::new(TrueOracle::new()),
        Box::new(MonitorOracle::plain()),
        Box::new(MonitorOracle::overbooked()),
        Box::new(MlOracle::new(suite)),
    ]
}
