//! # pamdc-workload — synthetic Li-BCN-like web workload generation
//!
//! The paper drives its experiments with the Li-BCN 2010 trace collection;
//! that data is not redistributable, so this crate rebuilds its *shape*
//! parametrically: diurnal + weekly load curves ([`profile`]), per-class
//! request cost distributions with heavy-tailed response sizes
//! ([`service`]), per-region timezone phase shifts and affinity weights
//! ([`generator`]), and injected flash crowds ([`flashcrowd`]). Preset
//! scenarios matching each of the paper's experiments live in [`libcn`].
//!
//! Sampling is a pure function of `(seed, service, tick)`, so traces are
//! reproducible and safe to generate from parallel workers.
//!
//! Real-world demand enters through [`import`]: streaming parsers for
//! the Azure VM trace and Alibaba cluster-trace schemas that normalize
//! public datasets into the same [`trace::DemandTrace`] pipeline the
//! synthetic recorder feeds.

pub mod flashcrowd;
pub mod generator;
pub mod import;
pub mod libcn;
pub mod profile;
pub mod service;
pub mod source;
pub mod tail;
pub mod trace;

/// Common imports.
pub mod prelude {
    pub use crate::flashcrowd::{combined_factor, FlashCrowd};
    pub use crate::generator::{FlowSample, Region, ServiceWorkload, Workload};
    pub use crate::import::{ImportOptions, TraceFormat};
    pub use crate::libcn;
    pub use crate::profile::{DayPeak, DiurnalProfile};
    pub use crate::service::ServiceClass;
    pub use crate::source::{Demand, DemandSource};
    pub use crate::tail::TailSource;
    pub use crate::trace::{DemandTrace, TraceSource};
}
