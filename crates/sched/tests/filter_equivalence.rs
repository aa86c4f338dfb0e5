//! Property suite: the interface filter's early exit and per-location
//! transport cache pick exactly the candidates of the literal filter.
//!
//! [`vms_needing_attention`] escalates a poorly served VM at the first
//! believed alternative that clears the improvement bar, pricing each
//! client transport latency once per location. The reference below is
//! the literal test it replaces: take the best alternative from 0 up
//! over every other host, re-deriving the latency per host, then
//! compare once. Both must flag the same VMs in the same order, under
//! every production oracle, on multi-location problems with homeless
//! VMs — and the early exit must never ask the oracle more.

mod common;

use pamdc_infra::gateway::{weighted_transport_secs, FlowDemand};
use pamdc_infra::network::City;
use pamdc_infra::resources::Resources;
use pamdc_sched::filter::vms_needing_attention;
use pamdc_sched::oracle::{QosOracle, TrueOracle};
use pamdc_sched::problem::{synthetic, HostInfo, Problem, VmInfo};
use pamdc_sched::profit::BelievedTotals;
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

/// The keep threshold and improvement bar of `filter.rs`.
const SLA_KEEP_THRESHOLD: f64 = 0.95;
const MIN_IMPROVEMENT: f64 = 0.02;

/// The filter as a full fold over every alternative host.
fn reference_attention(
    problem: &Problem,
    oracle: &dyn QosOracle,
    believed: &BelievedTotals,
    current_host: &[Option<usize>],
) -> Vec<usize> {
    let totals: Vec<Resources> = (0..problem.hosts.len())
        .map(|hi| believed.with_overhead(problem, hi))
        .collect();
    (0..problem.vms.len())
        .filter(|&vi| {
            let vm = &problem.vms[vi];
            match current_host[vi] {
                None => true,
                Some(hi) => {
                    let host = &problem.hosts[hi];
                    let transport = weighted_transport_secs(&vm.flows, host.location, &problem.net);
                    let current = oracle.sla(vm, host, &totals[hi], transport);
                    if current >= SLA_KEEP_THRESHOLD {
                        return false;
                    }
                    let demand = believed.demands[vi];
                    let best_alt = (0..problem.hosts.len())
                        .filter(|&hj| hj != hi)
                        .map(|hj| {
                            let alt = &problem.hosts[hj];
                            let mut total = totals[hj];
                            total += demand;
                            total.cpu += alt.virt_overhead_cpu_per_vm;
                            let tr = weighted_transport_secs(&vm.flows, alt.location, &problem.net);
                            oracle.sla(vm, alt, &total, tr)
                        })
                        .fold(0.0f64, f64::max);
                    best_alt >= current + MIN_IMPROVEMENT
                }
            }
        })
        .collect()
}

/// Passes every query through to `inner`, counting SLA queries.
struct Counting<'a> {
    inner: &'a dyn QosOracle,
    sla_calls: AtomicU64,
}

impl<'a> Counting<'a> {
    fn new(inner: &'a dyn QosOracle) -> Self {
        Counting {
            inner,
            sla_calls: AtomicU64::new(0),
        }
    }

    fn take(&self) -> u64 {
        self.sla_calls.swap(0, Ordering::Relaxed)
    }
}

impl QosOracle for Counting<'_> {
    fn demand(&self, vm: &VmInfo) -> Resources {
        self.inner.demand(vm)
    }

    fn sla(&self, vm: &VmInfo, host: &HostInfo, total: &Resources, transport: f64) -> f64 {
        self.sla_calls.fetch_add(1, Ordering::Relaxed);
        self.inner.sla(vm, host, total, transport)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// A fleet over the four paper DCs with per-VM load, clients split
/// across two regions for every third VM, and a drawn placement:
/// `slots[i] % (hosts + 1) == hosts` leaves VM `i` homeless.
fn drawn_problem(hosts: usize, loads: &[f64], slots: &[usize]) -> (Problem, Vec<Option<usize>>) {
    let mut p = synthetic::problem(loads.len(), hosts, 100.0);
    let mut host_of = Vec::with_capacity(loads.len());
    for (i, (vm, (&rps, &slot))) in p.vms.iter_mut().zip(loads.iter().zip(slots)).enumerate() {
        vm.load.rps = rps;
        let home = City::ALL[i % 4].location();
        vm.flows = if i % 3 == 0 {
            let away = City::ALL[(i + 2) % 4].location();
            vec![flow(home, rps * 0.7), flow(away, rps * 0.3)]
        } else {
            vec![flow(home, rps)]
        };
        vm.observed_usage = pamdc_perf::demand::required_resources(&vm.load, &vm.perf, 600.0);
        let hi = slot % (hosts + 1);
        if hi == hosts {
            vm.current_pm = None;
            vm.current_location = None;
            host_of.push(None);
        } else {
            vm.current_pm = Some(p.hosts[hi].id);
            vm.current_location = Some(p.hosts[hi].location);
            host_of.push(Some(hi));
        }
    }
    (p, host_of)
}

fn flow(source: pamdc_infra::ids::LocationId, req_per_sec: f64) -> FlowDemand {
    FlowDemand {
        source,
        req_per_sec,
        kb_per_req: 4.0,
        cpu_ms_per_req: 6.0,
    }
}

/// Both filters on one problem under one oracle: identical candidates,
/// and no more SLA queries from the production filter.
fn assert_same_candidates(p: &Problem, host_of: &[Option<usize>], oracle: &dyn QosOracle) {
    let counted = Counting::new(oracle);
    let demands = p.vms.iter().map(|vm| counted.demand(vm)).collect();
    let believed = BelievedTotals::from_placement(p, demands, host_of);
    let want = reference_attention(p, &counted, &believed, host_of);
    let reference_calls = counted.take();
    let got = vms_needing_attention(p, &counted, &believed, host_of);
    let calls = counted.take();
    assert_eq!(got, want, "{}: candidates diverged", oracle.name());
    assert!(
        calls <= reference_calls,
        "{}: {calls} SLA queries against the reference's {reference_calls}",
        oracle.name()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Light to crushing loads over 1–48 hosts in four locations, with
    /// homeless VMs and split client regions.
    #[test]
    fn early_exit_filter_matches_the_fold(
        hosts in 1usize..48,
        loads in collection::vec(5.0f64..700.0, 1..40),
        slots in collection::vec(0usize..10_000, 40..41),
    ) {
        let (p, host_of) = drawn_problem(hosts, &loads, &slots);
        for o in common::oracles() {
            assert_same_candidates(&p, &host_of, o.as_ref());
        }
    }
}

/// An oracle answering one fixed SLA on host 0 and another everywhere
/// else, whatever it is asked.
struct Fixed {
    host0: f64,
    elsewhere: f64,
}

impl QosOracle for Fixed {
    fn demand(&self, vm: &VmInfo) -> Resources {
        TrueOracle::new().demand(vm)
    }

    fn sla(&self, _: &VmInfo, host: &HostInfo, _: &Resources, _: f64) -> f64 {
        if host.id.index() == 0 {
            self.host0
        } else {
            self.elsewhere
        }
    }

    fn name(&self) -> &'static str {
        "fixed"
    }
}

/// Edge SLAs flag the same VMs: an alternative exactly at the bar
/// escalates, and a NaN SLA escalates nothing. SLAs lie in [0, 1], so
/// the bar is above the fold's starting 0 and the first alternative
/// that reaches it decides as the best one would.
#[test]
fn edge_slas_match_the_fold() {
    let loads = [50.0, 300.0, 600.0, 20.0, 400.0];
    let slots = [0, 1, 2, 3, 4];
    for hosts in [1, 2, 5] {
        let (p, host_of) = drawn_problem(hosts, &loads, &slots);
        for sla in [0.0, 0.5, 0.94, 0.95, 1.0, f64::NAN] {
            for elsewhere in [sla, sla + MIN_IMPROVEMENT, sla + 0.01] {
                let oracle = Fixed {
                    host0: sla,
                    elsewhere,
                };
                assert_same_candidates(&p, &host_of, &oracle);
            }
        }
    }
}
