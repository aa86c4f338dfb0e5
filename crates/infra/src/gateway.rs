//! The client gateway (ISP access point).
//!
//! Each region's clients enter through their local DC's gateway. The
//! gateway's two jobs in the model:
//!
//! 1. **Routing accounting** — a request for a VM hosted elsewhere pays
//!    the provider-network latency between the client's region and the
//!    VM's current DC ([`weighted_transport_secs`] aggregates this over a
//!    VM's flow mix, weighted by request rate).
//! 2. **Pending-request queues** — when a VM cannot drain its arrival
//!    rate, requests back up in the gateway. Queue length is both an ML
//!    feature in the paper ("sizes of the queues of pending requests ...
//!    represent additional immediate load") and the source of the
//!    next-tick carryover load. Queues are bounded; overflow requests are
//!    dropped and score SLA 0.

use crate::ids::{LocationId, VmId};
use crate::network::NetworkModel;

/// One region's demand towards one VM during one tick.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FlowDemand {
    /// Client region.
    pub source: LocationId,
    /// Request arrival rate, requests/second.
    pub req_per_sec: f64,
    /// Mean payload per request, KB.
    pub kb_per_req: f64,
    /// Mean no-contention compute time per request, CPU-milliseconds.
    pub cpu_ms_per_req: f64,
}

/// Result of settling one VM's queue for a tick.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct QueueSettle {
    /// Requests carried over to the next tick.
    pub queued: f64,
    /// Requests dropped because the queue was full.
    pub dropped: f64,
    /// Requests actually served this tick.
    pub served: f64,
}

/// Per-VM bounded pending-request queues.
#[derive(Clone, Debug)]
pub struct Gateway {
    backlog: Vec<f64>,
    dropped_total: Vec<f64>,
    max_backlog: f64,
}

impl Gateway {
    /// A gateway tracking `vm_count` VMs with the given per-VM queue
    /// bound (requests).
    pub fn new(vm_count: usize, max_backlog: f64) -> Self {
        assert!(max_backlog >= 0.0, "queue bound must be non-negative");
        Gateway {
            backlog: vec![0.0; vm_count],
            dropped_total: vec![0.0; vm_count],
            max_backlog,
        }
    }

    /// Pending requests for a VM.
    pub fn backlog(&self, vm: VmId) -> f64 {
        self.backlog[vm.index()]
    }

    /// Lifetime dropped requests for a VM.
    pub fn dropped_total(&self, vm: VmId) -> f64 {
        self.dropped_total[vm.index()]
    }

    /// Offered load this tick: fresh arrivals plus carryover backlog.
    pub fn offered(&self, vm: VmId, arrivals: f64) -> f64 {
        arrivals + self.backlog[vm.index()]
    }

    /// Settles a VM's queue after the tick: `arrived` fresh requests,
    /// `served` actually processed (from the performance model). Excess
    /// above the queue bound is dropped.
    pub fn settle(&mut self, vm: VmId, arrived: f64, served: f64) -> QueueSettle {
        let i = vm.index();
        let offered = self.backlog[i] + arrived;
        let served = served.clamp(0.0, offered);
        let pending = offered - served;
        let queued = pending.min(self.max_backlog);
        let dropped = pending - queued;
        self.backlog[i] = queued;
        self.dropped_total[i] += dropped;
        QueueSettle {
            queued,
            dropped,
            served,
        }
    }

    /// Clears one VM's queue (e.g. the customer restarted the service).
    pub fn clear(&mut self, vm: VmId) {
        self.backlog[vm.index()] = 0.0;
    }
}

/// Request-rate-weighted mean transport latency (seconds) for a VM hosted
/// at `vm_loc`, over its flow mix. Zero when the VM receives no load.
pub fn weighted_transport_secs(
    flows: &[FlowDemand],
    vm_loc: LocationId,
    net: &NetworkModel,
) -> f64 {
    let total: f64 = flows.iter().map(|f| f.req_per_sec).sum();
    if total <= 0.0 {
        return 0.0;
    }
    flows
        .iter()
        .map(|f| f.req_per_sec * net.transport_secs(f.source, vm_loc))
        .sum::<f64>()
        / total
}

/// Total request rate over a flow mix, requests/second.
pub fn total_rps(flows: &[FlowDemand]) -> f64 {
    flows.iter().map(|f| f.req_per_sec).sum()
}

/// Request-rate-weighted mean of a per-flow attribute.
pub fn weighted_attr(flows: &[FlowDemand], attr: impl Fn(&FlowDemand) -> f64) -> f64 {
    let total = total_rps(flows);
    if total <= 0.0 {
        return 0.0;
    }
    flows.iter().map(|f| f.req_per_sec * attr(f)).sum::<f64>() / total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::City;

    #[test]
    fn queue_carries_over_and_bounds() {
        let mut g = Gateway::new(2, 100.0);
        let vm = VmId(0);
        assert_eq!(g.offered(vm, 50.0), 50.0);

        // 80 arrive, 30 served -> 50 queue.
        let s = g.settle(vm, 80.0, 30.0);
        assert!((s.queued - 50.0).abs() < 1e-9);
        assert_eq!(s.dropped, 0.0);
        assert!((g.offered(vm, 10.0) - 60.0).abs() < 1e-9);

        // 100 more arrive, none served -> 150 pending, 50 dropped.
        let s = g.settle(vm, 100.0, 0.0);
        assert!((s.queued - 100.0).abs() < 1e-9);
        assert!((s.dropped - 50.0).abs() < 1e-9);
        assert!((g.dropped_total(vm) - 50.0).abs() < 1e-9);

        // Other VM untouched.
        assert_eq!(g.backlog(VmId(1)), 0.0);
    }

    #[test]
    fn over_serving_empties_queue() {
        let mut g = Gateway::new(1, 100.0);
        let vm = VmId(0);
        g.settle(vm, 50.0, 10.0);
        let s = g.settle(vm, 0.0, 1000.0);
        assert_eq!(s.queued, 0.0);
        assert_eq!(g.backlog(vm), 0.0);
    }

    #[test]
    fn clear_resets() {
        let mut g = Gateway::new(1, 100.0);
        g.settle(VmId(0), 80.0, 0.0);
        g.clear(VmId(0));
        assert_eq!(g.backlog(VmId(0)), 0.0);
    }

    #[test]
    fn weighted_transport_matches_mix() {
        let net = NetworkModel::paper();
        let bcn = City::Barcelona.location();
        let bst = City::Boston.location();
        let flows = vec![
            FlowDemand {
                source: bcn,
                req_per_sec: 30.0,
                kb_per_req: 10.0,
                cpu_ms_per_req: 5.0,
            },
            FlowDemand {
                source: bst,
                req_per_sec: 10.0,
                kb_per_req: 10.0,
                cpu_ms_per_req: 5.0,
            },
        ];
        // Hosted in BCN: 30/40 pay 10ms, 10/40 pay 100ms.
        let rt = weighted_transport_secs(&flows, bcn, &net);
        assert!((rt - (0.75 * 0.010 + 0.25 * 0.100)).abs() < 1e-12);
        assert_eq!(weighted_transport_secs(&[], bcn, &net), 0.0);
        assert!((total_rps(&flows) - 40.0).abs() < 1e-12);
        assert!((weighted_attr(&flows, |f| f.kb_per_req) - 10.0).abs() < 1e-12);
    }
}
