//! # pamdc-obs — deterministic observability for the MAPE loop
//!
//! Dependency-free (simcore only) instrumentation, built in the same
//! offline spirit as the shim crates. Three layers:
//!
//! * [`metrics`] — a fixed **registry** of named counters, gauges and
//!   fixed-bucket histograms, accumulated into a per-run [`Collector`]
//!   that each run's `Controller` installs thread-locally and flushes
//!   into the run's report metrics. Counter totals are pure functions
//!   of the simulated world, so they are bit-identical at any `--jobs`
//!   budget and pinnable by golden tests.
//! * [`mod@span`] — `span!("plan")`-style RAII guards recording nested
//!   wall-clock timings per MAPE phase, scheduler stage and DC shard.
//!   Wall-clock never enters a report: span timings exist only in the
//!   JSONL trace, and the guards are no-ops unless tracing is on, so
//!   instrumentation cannot influence decisions (the replay-safety
//!   invariant; see `docs/OBSERVABILITY.md`).
//! * [`trace`] — a JSONL event sink (`pamdc run --trace-out`) with
//!   hand-rolled emission, a flat-JSON line scanner, and the
//!   `pamdc trace summarize` aggregation. The deterministic `tick`
//!   field is the timestamp of record; `wall_ns` is the **only**
//!   nondeterministic field in a trace.
//!
//! Plus [`log`], the one leveled stderr sink every CLI diagnostic goes
//! through (`PAMDC_LOG`, `--quiet`), so machine-readable stdout never
//! interleaves with human chatter.
//!
//! Ambient state crosses `simcore::par` worker threads through the
//! [`pamdc_simcore::par::register_worker_context`] seam, so counters
//! bumped inside a sharded `hierarchical_round` land in the same
//! collector at any parallelism budget.

pub mod clock;
pub mod log;
pub mod metrics;
pub mod span;
pub mod trace;

pub use metrics::{Collector, CollectorGuard, Counter, Gauge, Hist};
pub use span::SpanGuard;

/// Enters a span with a static name. Expands to an RAII guard; the span
/// closes when the guard drops. No-op unless the current thread has a
/// collector with timing enabled.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span::enter($name)
    };
}

/// `error!`-level diagnostic (always shown; `error: ` prefix, stderr).
#[macro_export]
macro_rules! error {
    ($($arg:tt)*) => {
        $crate::log::log($crate::log::Level::Error, format_args!($($arg)*))
    };
}

/// `warn!`-level diagnostic (shown under `--quiet`; `warn: ` prefix).
#[macro_export]
macro_rules! warn {
    ($($arg:tt)*) => {
        $crate::log::log($crate::log::Level::Warn, format_args!($($arg)*))
    };
}

/// `info!`-level diagnostic (default level; plain, stderr).
#[macro_export]
macro_rules! info {
    ($($arg:tt)*) => {
        $crate::log::log($crate::log::Level::Info, format_args!($($arg)*))
    };
}

/// `debug!`-level diagnostic (`PAMDC_LOG=debug`; `debug: ` prefix).
#[macro_export]
macro_rules! debug {
    ($($arg:tt)*) => {
        $crate::log::log($crate::log::Level::Debug, format_args!($($arg)*))
    };
}
