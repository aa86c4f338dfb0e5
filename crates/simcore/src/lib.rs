//! # pamdc-simcore — simulation substrate primitives
//!
//! The lowest layer of the `pamdc` workspace: a simulation clock
//! ([`time::SimTime`]), deterministic named RNG streams
//! ([`rng::RngStream`]), numerically-stable online statistics
//! ([`stats`]) and timestamped series recording ([`series`]).
//!
//! Nothing in this crate knows about datacenters; it is the generic
//! discrete-time toolkit the rest of the workspace builds on. Everything is deterministic given a master seed, which is what lets
//! the experiment harness reproduce each table and figure of the paper
//! bit-for-bit across runs and across parallel/sequential execution.

pub mod par;
pub mod rng;
pub mod series;
pub mod stats;
pub mod time;

/// Common imports.
pub mod prelude {
    pub use crate::par::{join, parallel_map};
    pub use crate::rng::RngStream;
    pub use crate::series::{SeriesSet, TimeSeries};
    pub use crate::stats::{
        error_std_dev, mean_absolute_error, pearson, percentile, root_mean_squared_error,
        weighted_mean, Correlation, OnlineStats,
    };
    pub use crate::time::{SimDuration, SimTime};
}
