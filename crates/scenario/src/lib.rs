//! # pamdc-scenario — declarative scenario specs
//!
//! Moves evaluation from hard-coded Rust drivers to data: a
//! [`spec::ScenarioSpec`] describes topology, workload (synthetic or a
//! replayed trace), energy environment, billing, faults, profile
//! changes, scheduler policy and horizon; [`build`] turns a spec into a
//! runnable world; [`registry`] names every paper experiment as a
//! built-in spec; [`kinds`] registers each experiment driver's
//! [`pamdc_core::experiment::Experiment`] constructor; [`runner`]
//! executes specs through the shared experiment pipeline (bit-identical
//! to the pre-pipeline drivers — `tests/golden_reports.rs` proves it);
//! [`campaign`] batches many specs into one run; [`output`] emits
//! results as CSV/JSON.
//!
//! The wire format is a hand-rolled TOML subset ([`toml`]) — same
//! offline-shim philosophy as `crates/shims`: no registry dependency,
//! and `parse(emit(spec)) == spec` holds bit-for-bit.
//!
//! See `docs/SCENARIOS.md` for the format and worked examples, and
//! `crates/cli` for the `pamdc` command-line front-end.

pub mod build;
pub mod campaign;
pub mod kinds;
pub mod output;
pub mod registry;
pub mod runner;
pub mod schema;
pub mod spec;
pub mod toml;

/// Common imports.
pub mod prelude {
    pub use crate::build::{build_policy, build_scenario, run_config};
    pub use crate::campaign::{Campaign, CampaignRun};
    pub use crate::kinds::{KindEntry, KINDS};
    pub use crate::output::{reports_csv, reports_json};
    pub use crate::registry::{builtins, find, BuiltinSpec};
    pub use crate::runner::{run_spec, SpecReport};
    pub use crate::spec::{ScenarioSpec, SpecError};
}
