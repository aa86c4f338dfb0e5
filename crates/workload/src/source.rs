//! The demand surface: where a simulation's per-tick load comes from.
//!
//! [`Demand`] is the one way demand reaches the engine's batch path:
//! either the synthetic Li-BCN-style [`Workload`] generator or a
//! recorded [`TraceSource`] replay. It is a closed sum rather than a
//! trait object so scenarios stay `Clone + Debug`. A live feed does not
//! sample through here: `pamdc serve` steps each tick it ingests as
//! explicit flows, over a controller built from the feed's header shape.

use crate::generator::{FlowSample, Workload};
use crate::service::ServiceClass;
use crate::trace::TraceSource;
use pamdc_simcore::time::SimTime;

/// The demand a [`Scenario`] carries.
///
/// Every method is a **pure function of `(self, service, t)`** — no
/// interior mutation — so parallel sweeps, replays and partial re-runs
/// all see identical demand.
///
/// [`Scenario`]: https://docs.rs/pamdc-core
#[derive(Clone, Debug)]
pub enum Demand {
    /// The parametric Li-BCN-style generator.
    Synthetic(Workload),
    /// A recorded trace replayed (optionally transformed).
    Trace(TraceSource),
}

impl Demand {
    /// Number of hosted services (service index i drives VM i).
    pub fn service_count(&self) -> usize {
        match self {
            Demand::Synthetic(w) => w.service_count(),
            Demand::Trace(t) => t.trace().service_count(),
        }
    }

    /// Number of client regions flows may originate from.
    pub fn region_count(&self) -> usize {
        match self {
            Demand::Synthetic(w) => w.region_count(),
            Demand::Trace(t) => t.trace().regions,
        }
    }

    /// The request-shape class of one service (drives per-request memory
    /// constants in the performance profiles).
    pub fn service_class(&self, service: usize) -> ServiceClass {
        let class = match self {
            Demand::Synthetic(w) => w.services.get(service).map(|s| s.class),
            Demand::Trace(t) => t.trace().classes.get(service).copied(),
        };
        class.unwrap_or(ServiceClass::Blog)
    }

    /// Measured memory held per in-flight request, MB, when the source
    /// carries one (imported traces normalize Alibaba's
    /// `mem_util_percent` into this; see `docs/TRACES.md`). `None`
    /// falls back to the service class's constant.
    pub fn mem_mb_per_inflight(&self, service: usize) -> Option<f64> {
        match self {
            Demand::Synthetic(_) => None,
            Demand::Trace(t) => *t.trace().mem_mb_per_inflight.get(service)?,
        }
    }

    /// Samples the realized demand for one service at one tick into
    /// `out` (cleared first): one [`FlowSample`] per region with nonzero
    /// load.
    pub fn sample_into(&self, service: usize, t: SimTime, out: &mut Vec<FlowSample>) {
        match self {
            Demand::Synthetic(w) => w.sample_into(service, t, out),
            Demand::Trace(r) => r.sample_into(service, t, out),
        }
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
        let (mut got, mut want) = (Vec::new(), Vec::new());
        d.sample_into(1, t, &mut got);
        w.sample_into(1, t, &mut want);
        assert!(!got.is_empty());
        assert_eq!(got, want);
        assert_eq!(d.service_class(0), w.services[0].class);
        assert_eq!(d.mem_mb_per_inflight(0), None);
    }
}
