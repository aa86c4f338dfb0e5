//! Report modules: one per table/figure of the paper's evaluation —
//! plus one per future-work extension. A world study's module folds the
//! arms `pamdc-scenario` built from its spec into a report; an analysis
//! study's module (Table I/II, the ablations, the scaling studies) runs
//! its own computation.

pub mod ablations;
pub mod deloc;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7_table3;
pub mod fig8;
pub mod green;
pub mod heterogeneity;
pub mod online_drift;
pub mod price_adaptation;
pub mod scaling;
pub mod solver_scaling;
pub mod table1;
pub mod table2;
