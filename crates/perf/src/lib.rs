//! # pamdc-perf — ground-truth performance and SLA models
//!
//! The paper measures response times on a real Apache/PHP/MySQL stack;
//! this crate replaces that stack with an analytical model of the same
//! observable shape: required resources as a function of load
//! ([`demand`]), contention sharing on a host ([`contention`]),
//! processor-sharing response times with thrashing and bandwidth caps
//! ([`rt`], [`queueing`]), and the paper's piecewise-linear SLA
//! fulfillment function ([`sla`]).
//!
//! Everything here is the **ground truth** the simulator executes; the
//! machine-learning layer (`pamdc-ml`) never sees these equations — it
//! learns them from noisy monitored observations, exactly as the paper's
//! WEKA models learned the real testbed.

pub mod contention;
pub mod demand;
pub mod queueing;
pub mod rt;
pub mod sla;

/// Common imports.
pub mod prelude {
    pub use crate::contention::{
        oversubscription, share_proportionally_into, share_work_conserving_into, ProportionalShare,
        WorkConservingShare,
    };
    pub use crate::demand::{cpu_demand_pct, required_resources, OfferedLoad, VmPerfProfile};
    pub use crate::queueing::{ps_sojourn_time, utilization};
    pub use crate::rt::{evaluate, rt_core, PerfOutcome, RtCore};
    pub use crate::sla::SlaFunction;
}
