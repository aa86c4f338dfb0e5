//! Candidate filtering — the paper's §IV-C scalability optimisations:
//!
//! * "we do not include in the scheduling process VMs and PMs that are
//!   already performing well in a consolidated way";
//! * "the method only considers for scheduling across DC's those virtual
//!   machines that could improve its QoS if moved";
//! * "considering only once identical empty host machines and not
//!   considering almost full hosts that cannot accommodate additional
//!   VM's".

use crate::localsearch::VMS_PER_CHUNK;
use crate::oracle::QosOracle;
use crate::problem::{HostInfo, Problem, VmInfo};
use crate::profit::BelievedTotals;
use pamdc_infra::gateway::weighted_transport_secs;
use pamdc_infra::ids::{LocationId, PmId};
use pamdc_infra::resources::Resources;
use pamdc_simcore::par::map_chunks;

/// VMs whose estimated SLA on their current host is at least this are
/// "performing well" and left alone by the global round.
const SLA_KEEP_THRESHOLD: f64 = 0.95;

/// A flagged VM escalates only when some other host is believed to
/// improve its SLA by at least this much — the paper's "could improve
/// its QoS if moved" condition. Prevents latency-limited VMs (whose SLA
/// is capped by client geography everywhere) from being reshuffled
/// forever.
const MIN_IMPROVEMENT: f64 = 0.02;

/// Hosts whose believed free capacity (dominant-share headroom) falls
/// below this fraction are "almost full" and not offered.
const MIN_HEADROOM_FRAC: f64 = 0.10;

/// VM indices whose estimated SLA *in place* is below the keep
/// threshold — the candidates a DC offers to the global scheduler —
/// plus every VM with no host. `current_host` is the per-VM placement
/// to judge (`None` = unplaced): the hierarchical round passes its
/// post-local effective placement instead of cloning the whole
/// `Problem` to rewrite `current_pm`. `believed` must describe the same
/// placement.
pub fn vms_needing_attention(
    problem: &Problem,
    oracle: &dyn QosOracle,
    believed: &BelievedTotals,
    current_host: &[Option<usize>],
) -> Vec<usize> {
    debug_assert_eq!(current_host.len(), problem.vms.len());
    // Believed totals per host under that placement.
    let totals: Vec<Resources> = (0..problem.hosts.len())
        .map(|hi| believed.with_overhead(problem, hi))
        .collect();
    // A VM's transport latency depends on a host only through its
    // location: price it once per (flagged VM, location) on first use.
    let n_loc_slots = problem
        .hosts
        .iter()
        .map(|h| h.location.index() + 1)
        .max()
        .unwrap_or(0);

    // Each VM's verdict reads only shared state, so the VMs fan out in
    // chunks, each with its own transport buffer; chunks come back in
    // ascending VM order.
    let flagged = map_chunks(problem.vms.len(), VMS_PER_CHUNK, |range| {
        let mut transport_at: Vec<Option<f64>> = vec![None; n_loc_slots];
        range
            .filter(|&vi| {
                let vm = &problem.vms[vi];
                match current_host[vi] {
                    None => true, // unplaced or hosted off-round: must be handled
                    Some(hi) => {
                        let host = &problem.hosts[hi];
                        let transport =
                            weighted_transport_secs(&vm.flows, host.location, &problem.net);
                        let current = oracle.sla(vm, host, &totals[hi], transport);
                        if current >= SLA_KEEP_THRESHOLD {
                            return false;
                        }
                        // "Could improve its QoS if moved": escalate at
                        // the first believed alternative that clears the
                        // bar.
                        let bar = current + MIN_IMPROVEMENT;
                        transport_at.fill(None);
                        transport_at[host.location.index()] = Some(transport);
                        let demand = believed.demands[vi];
                        (0..problem.hosts.len()).filter(|&hj| hj != hi).any(|hj| {
                            let alt = &problem.hosts[hj];
                            let mut total = totals[hj];
                            total += demand;
                            total.cpu += alt.virt_overhead_cpu_per_vm;
                            let tr = *transport_at[alt.location.index()].get_or_insert_with(|| {
                                weighted_transport_secs(&vm.flows, alt.location, &problem.net)
                            });
                            oracle.sla(vm, alt, &total, tr) >= bar
                        })
                    }
                }
            })
            .collect::<Vec<usize>>()
    });
    flagged.concat()
}

/// Host indices worth offering: enough believed headroom, with identical
/// empty hosts deduplicated (one representative per DC + capacity
/// signature).
pub fn hosts_worth_offering(problem: &Problem, believed: &BelievedTotals) -> Vec<usize> {
    // Headroom is judged on raw believed totals (no hypervisor
    // overhead), matching the original filter's accounting.
    let totals = &believed.raw;
    let counts = &believed.counts;

    let mut seen_empty: Vec<(u32, u64)> = Vec::new(); // (dc, capacity hash)
    let mut out = Vec::new();
    for (hi, host) in problem.hosts.iter().enumerate() {
        let headroom = 1.0 - totals[hi].dominant_share(&host.capacity);
        if headroom < MIN_HEADROOM_FRAC {
            continue; // almost full
        }
        if counts[hi] == 0 && host.fixed_vm_count == 0 {
            let sig = capacity_signature(host);
            if seen_empty.contains(&(host.dc.0, sig)) {
                continue; // identical empty twin already offered
            }
            seen_empty.push((host.dc.0, sig));
        }
        out.push(hi);
    }
    out
}

fn capacity_signature(host: &HostInfo) -> u64 {
    // Quantized capacity fingerprint; identical machine models collide
    // (that is the point).
    let q = |x: f64| (x * 100.0).round() as u64;
    q(host.capacity.cpu)
        .wrapping_mul(1_000_003)
        .wrapping_add(q(host.capacity.mem_mb))
        .wrapping_mul(1_000_033)
        .wrapping_add(q(host.capacity.net_in_kbps))
        .wrapping_mul(1_000_037)
        .wrapping_add(q(host.capacity.net_out_kbps))
}

/// Builds the reduced sub-problem over selected VMs and hosts under an
/// explicit per-VM placement. VMs *not* selected but residing on a
/// selected host (by `current_pm`) fold into that host's fixed demand,
/// and the cloned round-VMs carry the given `current_pm` /
/// `current_location` — so the hierarchical round can build its global
/// sub-problem from the post-local placement without cloning and
/// rewriting the whole `Problem` first.
pub fn reduced_problem(
    problem: &Problem,
    demands: &[Resources],
    vm_indices: &[usize],
    host_indices: &[usize],
    current_pm: &[Option<PmId>],
    current_location: &[Option<LocationId>],
) -> (Problem, Vec<usize>) {
    debug_assert_eq!(current_pm.len(), problem.vms.len());
    debug_assert_eq!(current_location.len(), problem.vms.len());
    let selected_vms: std::collections::BTreeSet<usize> = vm_indices.iter().copied().collect();
    let mut hosts: Vec<HostInfo> = host_indices
        .iter()
        .map(|&hi| problem.hosts[hi].clone())
        .collect();

    // Fold unselected residents into fixed demand.
    for vi in 0..problem.vms.len() {
        if selected_vms.contains(&vi) {
            continue;
        }
        if let Some(cur) = current_pm[vi] {
            if let Some(pos) = hosts.iter().position(|h| h.id == cur) {
                let mut d = demands[vi];
                d.cpu += hosts[pos].virt_overhead_cpu_per_vm;
                hosts[pos].fixed_demand += d;
                hosts[pos].fixed_vm_count += 1;
            }
        }
    }

    let vms: Vec<VmInfo> = vm_indices
        .iter()
        .map(|&vi| {
            let mut vm = problem.vms[vi].clone();
            vm.current_pm = current_pm[vi];
            vm.current_location = current_location[vi];
            vm
        })
        .collect();
    (
        Problem {
            vms,
            hosts,
            net: problem.net.clone(),
            billing: problem.billing.clone(),
            horizon: problem.horizon,
            stickiness_eur: problem.stickiness_eur,
            host_index_cache: Default::default(),
        },
        vm_indices.to_vec(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::TrueOracle;
    use crate::problem::synthetic::problem;
    use pamdc_infra::ids::PmId;

    /// Believed totals under each VM's `current_pm`, and that placement.
    fn in_place(p: &Problem) -> (BelievedTotals, Vec<Option<usize>>) {
        let o = TrueOracle::new();
        let demands = p.vms.iter().map(|vm| o.demand(vm)).collect();
        let host_of: Vec<Option<usize>> = p
            .vms
            .iter()
            .map(|vm| vm.current_pm.and_then(|pm| p.host_index(pm)))
            .collect();
        (
            BelievedTotals::from_placement(p, demands, &host_of),
            host_of,
        )
    }

    fn attention(p: &Problem) -> Vec<usize> {
        let (believed, host_of) = in_place(p);
        vms_needing_attention(p, &TrueOracle::new(), &believed, &host_of)
    }

    #[test]
    fn happy_vms_are_kept_out() {
        // Light load on host 0 with local clients: everything is fine,
        // nothing needs moving.
        let mut p = problem(2, 4, 20.0);
        let home = p.hosts[0].location;
        for vm in &mut p.vms {
            for f in &mut vm.flows {
                f.source = home;
            }
        }
        let need = attention(&p);
        assert!(need.is_empty(), "light VMs should be left alone: {need:?}");
    }

    #[test]
    fn crushed_vms_raise_their_hands() {
        // 5 heavy VMs piled on host 0: SLA collapses, all become
        // candidates.
        let p = problem(5, 4, 400.0);
        let need = attention(&p);
        assert_eq!(need.len(), 5);
    }

    #[test]
    fn unplaced_vms_always_need_attention() {
        let mut p = problem(2, 4, 20.0);
        p.vms[1].current_pm = None;
        let need = attention(&p);
        assert_eq!(need, vec![1]);
    }

    #[test]
    fn full_hosts_not_offered_and_empty_twins_deduped() {
        // 8 hosts: 0..4 in DCs 0..4, 4..8 duplicates. Host 0 holds all
        // VMs (nearly full); hosts 4..8 are empty twins of 0..4.
        let mut p = problem(4, 8, 350.0);
        for vm in &mut p.vms {
            vm.current_pm = Some(PmId(0));
        }
        let offered = hosts_worth_offering(&p, &in_place(&p).0);
        assert!(!offered.contains(&0), "crushed host must not be offered");
        // Empty twins: host 4 shares DC0 with host 0; hosts 1..4 (powered
        // off, empty) each get one representative; their twins 5,6,7 are
        // deduped away.
        assert!(offered.contains(&1) && offered.contains(&2) && offered.contains(&3));
        assert!(
            offered.contains(&4),
            "dc0 still has an empty representative"
        );
        for twin in [5usize, 6, 7] {
            assert!(
                !offered.contains(&twin),
                "twin {twin} should be deduped: {offered:?}"
            );
        }
    }

    #[test]
    fn reduced_problem_folds_residents() {
        let p = problem(3, 2, 100.0);
        let (believed, _) = in_place(&p);
        let current_pm: Vec<_> = p.vms.iter().map(|vm| vm.current_pm).collect();
        let current_location: Vec<_> = p.vms.iter().map(|vm| vm.current_location).collect();
        // Keep only VM 1 in the round; hosts both. VMs 0 and 2 stay as
        // fixed demand on host 0.
        let (sub, mapping) = reduced_problem(
            &p,
            &believed.demands,
            &[1],
            &[0, 1],
            &current_pm,
            &current_location,
        );
        assert_eq!(sub.vms.len(), 1);
        assert_eq!(mapping, vec![1]);
        assert_eq!(sub.hosts[0].fixed_vm_count, 2);
        assert!(sub.hosts[0].fixed_demand.cpu > 0.0);
        assert_eq!(sub.hosts[1].fixed_vm_count, 0);
    }
}
