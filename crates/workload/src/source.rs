//! Pluggable demand sources.
//!
//! The simulation loop does not care where demand comes from: the
//! synthetic Li-BCN-style [`Workload`] generator, a recorded
//! [`TraceSource`] replayer and a live [`TailSource`] feed tailer expose the same
//! sampling surface through [`DemandSource`], and [`Demand`] is the
//! concrete closed sum the rest of the workspace stores (scenarios must
//! stay `Clone + Debug`, which a trait object would forfeit).

use crate::generator::{FlowSample, Workload};
use crate::service::ServiceClass;
use crate::tail::TailSource;
use crate::trace::TraceSource;
use pamdc_simcore::time::SimTime;

/// Anything that can drive a simulation's per-tick demand.
///
/// Implementations must be **pure functions of `(self, service, t)`** —
/// no interior mutation — so parallel sweeps, replays and partial
/// re-runs all see identical traces.
pub trait DemandSource {
    /// Number of hosted services (service index i drives VM i).
    fn service_count(&self) -> usize;

    /// Number of client regions flows may originate from.
    fn region_count(&self) -> usize;

    /// The request-shape class of one service (drives per-request memory
    /// constants in the performance profiles).
    fn service_class(&self, service: usize) -> ServiceClass;

    /// Measured memory held per in-flight request, MB, when the source
    /// carries one (imported traces normalize Alibaba's
    /// `mem_util_percent` into this; see `docs/TRACES.md`). `None`
    /// falls back to the service class's constant.
    fn mem_mb_per_inflight(&self, service: usize) -> Option<f64> {
        let _ = service;
        None
    }

    /// Samples the realized demand for one service at one tick: one
    /// [`FlowSample`] per region with nonzero load.
    fn sample(&self, service: usize, t: SimTime) -> Vec<FlowSample>;

    /// Where known demand ends, if it ends at all. `None` — the
    /// default — means open-ended: synthetic generators extend forever
    /// and live feeds keep growing. Sources backed by a fixed recording
    /// return the end of their data (after any playback transform);
    /// what they answer *past* the horizon is implementation-defined
    /// (replays wrap, live feeds go quiet).
    fn horizon(&self) -> Option<SimTime> {
        None
    }

    /// The expected (noise-free, for synthetic sources; recorded, for
    /// traces) request rate from one region to one service at `t`.
    fn expected_rps(&self, service: usize, region: usize, t: SimTime) -> f64;

    /// Total expected rate over all regions for a service at `t`.
    fn expected_total_rps(&self, service: usize, t: SimTime) -> f64 {
        (0..self.region_count())
            .map(|r| self.expected_rps(service, r, t))
            .sum()
    }

    /// The region contributing the most expected load to `service` at
    /// `t` — the "main source load" the paper's Figure 5 VM chases.
    fn dominant_region(&self, service: usize, t: SimTime) -> usize {
        (0..self.region_count())
            .max_by(|&a, &b| {
                self.expected_rps(service, a, t)
                    .partial_cmp(&self.expected_rps(service, b, t))
                    .expect("rates are finite")
            })
            .unwrap_or(0)
    }
}

impl DemandSource for Workload {
    fn service_count(&self) -> usize {
        Workload::service_count(self)
    }
    fn region_count(&self) -> usize {
        Workload::region_count(self)
    }
    fn service_class(&self, service: usize) -> ServiceClass {
        self.services
            .get(service)
            .map(|s| s.class)
            .unwrap_or(ServiceClass::Blog)
    }
    fn sample(&self, service: usize, t: SimTime) -> Vec<FlowSample> {
        Workload::sample(self, service, t)
    }
    fn expected_rps(&self, service: usize, region: usize, t: SimTime) -> f64 {
        Workload::expected_rps(self, service, region, t)
    }
}

/// The closed sum of demand sources a [`Scenario`] can carry.
///
/// Mirrors the [`DemandSource`] surface as inherent methods so call
/// sites don't need the trait in scope.
///
/// [`Scenario`]: https://docs.rs/pamdc-core
#[derive(Clone, Debug)]
pub enum Demand {
    /// The parametric Li-BCN-style generator.
    Synthetic(Workload),
    /// A recorded trace replayed (optionally transformed).
    Trace(TraceSource),
    /// A live append-only feed tailed as it grows. Boxed: the tailer
    /// carries its whole parsed prefix, far larger than the siblings.
    Tail(Box<TailSource>),
}

/// Dispatches one [`DemandSource`] call across the [`Demand`] variants.
macro_rules! each_source {
    ($self:expr, $s:ident => $call:expr) => {
        match $self {
            Demand::Synthetic($s) => $call,
            Demand::Trace($s) => $call,
            Demand::Tail(boxed) => {
                let $s = boxed.as_ref();
                $call
            }
        }
    };
}

impl Demand {
    /// The synthetic generator, when this is one.
    pub fn synthetic(&self) -> Option<&Workload> {
        match self {
            Demand::Synthetic(w) => Some(w),
            _ => None,
        }
    }

    /// The trace replayer, when this is one.
    pub fn trace(&self) -> Option<&TraceSource> {
        match self {
            Demand::Trace(t) => Some(t),
            _ => None,
        }
    }

    /// The live feed tailer, when this is one.
    pub fn tail(&self) -> Option<&TailSource> {
        match self {
            Demand::Tail(t) => Some(t.as_ref()),
            _ => None,
        }
    }

    /// Number of hosted services.
    pub fn service_count(&self) -> usize {
        each_source!(self, s => DemandSource::service_count(s))
    }

    /// Number of client regions.
    pub fn region_count(&self) -> usize {
        each_source!(self, s => DemandSource::region_count(s))
    }

    /// The request-shape class of one service.
    pub fn service_class(&self, service: usize) -> ServiceClass {
        each_source!(self, s => DemandSource::service_class(s, service))
    }

    /// Measured memory-per-in-flight-request profile, when the source
    /// carries one (imported traces only).
    pub fn mem_mb_per_inflight(&self, service: usize) -> Option<f64> {
        each_source!(self, s => DemandSource::mem_mb_per_inflight(s, service))
    }

    /// Samples the realized demand for one service at one tick.
    pub fn sample(&self, service: usize, t: SimTime) -> Vec<FlowSample> {
        each_source!(self, s => DemandSource::sample(s, service, t))
    }

    /// Expected request rate from one region to one service at `t`.
    pub fn expected_rps(&self, service: usize, region: usize, t: SimTime) -> f64 {
        each_source!(self, s => DemandSource::expected_rps(s, service, region, t))
    }

    /// Total expected rate over all regions.
    pub fn expected_total_rps(&self, service: usize, t: SimTime) -> f64 {
        each_source!(self, s => DemandSource::expected_total_rps(s, service, t))
    }

    /// The region contributing the most expected load at `t`.
    pub fn dominant_region(&self, service: usize, t: SimTime) -> usize {
        each_source!(self, s => DemandSource::dominant_region(s, service, t))
    }

    /// Where known demand ends, if it ends at all (see
    /// [`DemandSource::horizon`]).
    pub fn horizon(&self) -> Option<SimTime> {
        each_source!(self, s => DemandSource::horizon(s))
    }
}

impl DemandSource for Demand {
    fn service_count(&self) -> usize {
        Demand::service_count(self)
    }
    fn region_count(&self) -> usize {
        Demand::region_count(self)
    }
    fn service_class(&self, service: usize) -> ServiceClass {
        Demand::service_class(self, service)
    }
    fn mem_mb_per_inflight(&self, service: usize) -> Option<f64> {
        Demand::mem_mb_per_inflight(self, service)
    }
    fn sample(&self, service: usize, t: SimTime) -> Vec<FlowSample> {
        Demand::sample(self, service, t)
    }
    fn expected_rps(&self, service: usize, region: usize, t: SimTime) -> f64 {
        Demand::expected_rps(self, service, region, t)
    }
    fn horizon(&self) -> Option<SimTime> {
        Demand::horizon(self)
    }
}

impl From<Workload> for Demand {
    fn from(w: Workload) -> Self {
        Demand::Synthetic(w)
    }
}

impl From<TraceSource> for Demand {
    fn from(t: TraceSource) -> Self {
        Demand::Trace(t)
    }
}

impl From<TailSource> for Demand {
    fn from(t: TailSource) -> Self {
        Demand::Tail(Box::new(t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::libcn;

    #[test]
    fn demand_delegates_to_workload() {
        let w = libcn::multi_dc(3, 100.0, 7);
        let d = Demand::from(w.clone());
        assert_eq!(d.service_count(), 3);
        assert_eq!(d.region_count(), 4);
        let t = SimTime::from_mins(123);
        assert_eq!(d.sample(1, t), w.sample(1, t));
        assert_eq!(d.expected_rps(0, 2, t), w.expected_rps(0, 2, t));
        assert_eq!(d.dominant_region(0, t), w.dominant_region(0, t));
        assert_eq!(d.service_class(0), w.services[0].class);
        assert!(d.synthetic().is_some());
        assert!(d.trace().is_none());
    }
}
