//! Bucketed free-capacity candidate index — the sub-linear shortlist
//! behind Best-Fit on planet-scale fleets.
//!
//! The full scan of Algorithm 1 scores every (VM, host) pair. At fleet
//! sizes the paper never reached (thousands of hosts) that inner loop
//! dominates the round, yet almost all of its work is redundant: real
//! fleets are built from a handful of machine classes, and two hosts of
//! the same class holding bit-identical committed demand produce
//! **bit-identical** marginal profits for any VM not currently on them
//! (every term of the profit function reads only the host's static
//! fields and the accumulated [`PlacementState`](crate::profit::PlacementState) demand).
//!
//! The index therefore groups hosts into *equivalence groups* — same
//! static class, same assigned-VM count, same exact committed demand —
//! and keeps the groups in a `BTreeMap` ordered by quantized free
//! capacity over (CPU, RAM). One placement query:
//!
//! 1. range-scans groups whose quantized free CPU can possibly hold the
//!    demand (groups below the bucket floor are skipped wholesale),
//! 2. drops groups whose quantized free RAM cannot hold it,
//! 3. exact-checks and scores **one representative per surviving
//!    group** — the profit of every other member is the same bits.
//!
//! Quantization is conservative (floor of free capacity with the same
//! 1e-9 slack [`Resources::fits_within`] grants), so a host that truly
//! fits is never range-skipped; false positives are removed by the
//! representative's exact `fits` check. The VM's *current* host is the
//! one member whose profit differs (no migration term), so queries
//! exclude it from its group and Best-Fit scores it individually.
//!
//! Maintenance is incremental: assigning a VM changes one host's key,
//! which moves it between groups in O(log groups + group size).
//!
//! ## Near-equivalence mode
//!
//! Exact grouping needs bit-identical committed demand, so heterogeneous
//! fleets (every host carrying a different demand mix) degenerate to one
//! group per host and the shortlist stops paying for itself. The opt-in
//! [`IndexMode::Near`] drops the demand bits from the key: hosts of the
//! same class with the same assigned count land in the same group
//! whenever their free capacity falls in the same coarse bucket. Members
//! are then merely *similar*, so consumers score up to `top_k` members
//! per group instead of one representative — a bounded profit search
//! that trades the bit-identity guarantee for shortlisting on fleets the
//! exact mode cannot compress. Off by default; policies that enable it
//! advertise the relaxation in their report names.

use crate::problem::{HostInfo, Problem};
use pamdc_infra::resources::Resources;
use std::collections::BTreeMap;

/// Grouping discipline of a [`CandidateIndex`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum IndexMode {
    /// Exact equivalence: same class, same count, bit-identical committed
    /// demand. Scoring one representative per group is exact, so indexed
    /// consumers are bit-identical to their full scans.
    #[default]
    Exact,
    /// Coarse-bucket near-equivalence: the demand bits are dropped from
    /// the key, so same-class same-count hosts group by quantized free
    /// capacity alone. Consumers bound the within-group search to the
    /// first `top_k` members — approximate, and loudly labeled as such.
    Near {
        /// Members scored per group (≥ 1).
        top_k: usize,
    },
}

/// CPU bucket width, percent-of-core (half an Atom core).
const QUANT_CPU: f64 = 50.0;
/// RAM bucket width, MB.
const QUANT_MEM_MB: f64 = 512.0;
/// The slack [`Resources::fits_within`] grants; quantizing `free + EPS`
/// keeps the bucket floor conservative for demands that fit only thanks
/// to the epsilon.
const FIT_EPS: f64 = 1e-9;

/// One group's ordering key. Groups sort by quantized free CPU first —
/// the range dimension of fitting queries — then free RAM, then the
/// exact equivalence descriptor (class, count, committed-demand bits).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
struct GroupKey {
    /// Quantized free CPU after committed demand + hypervisor overhead.
    qcpu: i64,
    /// Quantized free RAM after committed demand.
    qmem: i64,
    /// Static equivalence class (see [`ClassKey`]).
    class: u32,
    /// Round-VMs assigned so far.
    count: usize,
    /// Exact committed raw demand (f64 bit patterns, so grouping is
    /// bitwise — never "close enough").
    demand_bits: [u64; 4],
}

/// The static, profit-relevant fingerprint of a host: every `HostInfo`
/// field [`crate::profit::marginal_profit`] reads. Hosts sharing a
/// `ClassKey` differ only in id and DC — neither enters the profit of a
/// non-resident VM.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
struct ClassKey {
    location: u32,
    capacity_bits: [u64; 4],
    energy_bits: u64,
    overhead_bits: u64,
    powered_on: bool,
    boot_bits: u64,
    /// Only `fixed_vm_count > 0` matters (it drives `host_active`); the
    /// fixed demand itself is part of the dynamic committed demand.
    has_fixed_residents: bool,
    /// Power curve by value: idle, cooling, then the per-core watts.
    power_bits: Vec<u64>,
}

fn bits(r: &Resources) -> [u64; 4] {
    [
        r.cpu.to_bits(),
        r.mem_mb.to_bits(),
        r.net_in_kbps.to_bits(),
        r.net_out_kbps.to_bits(),
    ]
}

fn class_key(host: &HostInfo) -> ClassKey {
    let mut power_bits = Vec::with_capacity(2 + host.power.active_core_watts.len());
    power_bits.push(host.power.idle_watts.to_bits());
    power_bits.push(host.power.cooling_factor.to_bits());
    power_bits.extend(host.power.active_core_watts.iter().map(|w| w.to_bits()));
    ClassKey {
        location: host.location.0,
        capacity_bits: bits(&host.capacity),
        energy_bits: host.energy_eur_kwh.to_bits(),
        overhead_bits: host.virt_overhead_cpu_per_vm.to_bits(),
        powered_on: host.powered_on,
        boot_bits: host.boot_penalty.as_secs_f64().to_bits(),
        has_fixed_residents: host.fixed_vm_count > 0,
        power_bits,
    }
}

/// The bucketed free-capacity index over a fleet's hosts. Built once per
/// Best-Fit run, updated on every assignment; see the module docs.
#[derive(Clone, Debug)]
pub struct CandidateIndex {
    /// Static class per host.
    class_of: Vec<u32>,
    /// Number of distinct static classes.
    n_classes: usize,
    /// Current group key per host.
    key_of: Vec<GroupKey>,
    /// Ordered groups: key → member host indices, ascending.
    groups: BTreeMap<GroupKey, Vec<usize>>,
    /// Grouping discipline (exact vs near-equivalence).
    mode: IndexMode,
}

impl CandidateIndex {
    /// Builds the index from a fleet and its committed per-host demand
    /// (`demand[hi]`, raw, excluding hypervisor overhead) and assigned-VM
    /// counts, grouping hosts per `mode`. Class ids are assigned
    /// first-seen in host order, so construction is deterministic.
    pub(crate) fn new(
        problem: &Problem,
        demand: &[Resources],
        counts: &[usize],
        mode: IndexMode,
    ) -> Self {
        let mut class_ids: BTreeMap<ClassKey, u32> = BTreeMap::new();
        let mut class_of = Vec::with_capacity(problem.hosts.len());
        for host in &problem.hosts {
            let next = class_ids.len() as u32;
            let id = *class_ids.entry(class_key(host)).or_insert(next);
            class_of.push(id);
        }
        let n_classes = class_ids.len();

        let mut key_of = Vec::with_capacity(problem.hosts.len());
        let mut groups: BTreeMap<GroupKey, Vec<usize>> = BTreeMap::new();
        for hi in 0..problem.hosts.len() {
            let key = group_key(
                &problem.hosts[hi],
                class_of[hi],
                &demand[hi],
                counts[hi],
                mode,
            );
            key_of.push(key);
            groups.entry(key).or_default().push(hi); // ascending hi
        }
        CandidateIndex {
            class_of,
            n_classes,
            key_of,
            groups,
            mode,
        }
    }

    /// The grouping discipline this index was built with.
    pub fn mode(&self) -> IndexMode {
        self.mode
    }

    /// Moves `host_idx` to the group matching its new committed state.
    pub(crate) fn update_host(
        &mut self,
        problem: &Problem,
        host_idx: usize,
        demand: Resources,
        count: usize,
    ) {
        let old = self.key_of[host_idx];
        let new = group_key(
            &problem.hosts[host_idx],
            self.class_of[host_idx],
            &demand,
            count,
            self.mode,
        );
        if new == old {
            return;
        }
        let members = self.groups.get_mut(&old).expect("host's group exists");
        let pos = members.binary_search(&host_idx).expect("host in its group");
        members.remove(pos);
        if members.is_empty() {
            self.groups.remove(&old);
        }
        let members = self.groups.entry(new).or_default();
        let pos = members.binary_search(&host_idx).unwrap_err();
        members.insert(pos, host_idx);
        self.key_of[host_idx] = new;
    }

    /// Groups that can possibly hold `demand`: quantized free CPU is
    /// range-scanned, quantized free RAM filtered per group. Conservative
    /// — every truly fitting host's group is yielded; the caller
    /// exact-checks one representative per group. Members are ascending.
    pub fn fitting_groups(&self, demand: &Resources) -> impl Iterator<Item = &[usize]> {
        let min_qcpu = (demand.cpu / QUANT_CPU).floor() as i64;
        let min_qmem = (demand.mem_mb / QUANT_MEM_MB).floor() as i64;
        let lo = GroupKey {
            qcpu: min_qcpu,
            qmem: i64::MIN,
            class: 0,
            count: 0,
            demand_bits: [0; 4],
        };
        self.groups
            .range(lo..)
            .filter(move |(k, _)| k.qmem >= min_qmem)
            .map(|(_, members)| members.as_slice())
    }

    /// Every group (the overflow path scores them all). Members are
    /// ascending host indices.
    pub fn all_groups(&self) -> impl Iterator<Item = &[usize]> {
        self.groups.values().map(|members| members.as_slice())
    }

    /// Current number of equivalence groups (the per-VM scoring cost of
    /// the indexed path).
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Number of distinct static host classes in the fleet.
    pub fn class_count(&self) -> usize {
        self.n_classes
    }
}

/// A host's current group key: free capacity after its committed demand
/// (including hypervisor overhead on CPU), quantized conservatively. In
/// near-equivalence mode the exact demand bits are dropped, merging
/// same-bucket same-class same-count hosts whose demands merely differ.
fn group_key(
    host: &HostInfo,
    class: u32,
    demand: &Resources,
    count: usize,
    mode: IndexMode,
) -> GroupKey {
    let used_cpu = demand.cpu + host.virt_overhead_cpu_per_vm * count as f64;
    let free_cpu = host.capacity.cpu - used_cpu + FIT_EPS;
    let free_mem = host.capacity.mem_mb - demand.mem_mb + FIT_EPS;
    GroupKey {
        qcpu: (free_cpu / QUANT_CPU).floor() as i64,
        qmem: (free_mem / QUANT_MEM_MB).floor() as i64,
        class,
        count,
        demand_bits: match mode {
            IndexMode::Exact => bits(demand),
            IndexMode::Near { .. } => [0; 4],
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::synthetic::problem;
    use crate::profit::PlacementState;

    #[test]
    fn uniform_fleet_collapses_to_few_groups() {
        // 64 identical Atoms over 4 locations; host 0 is powered on and
        // boot-free, so: 4 locations × (on/off splits only host 0's
        // location) = 5 static classes, each one group while empty.
        let p = problem(1, 64, 50.0);
        let state = PlacementState::with_candidate_index(&p, IndexMode::Exact);
        let ix = state.candidate_index().expect("index enabled");
        assert_eq!(ix.class_count(), 5);
        assert_eq!(ix.group_count(), 5);
    }

    #[test]
    fn near_mode_merges_heterogeneous_demands() {
        // Two different assignments land twin hosts in the same coarse
        // bucket: exact mode splits them (different demand bits), near
        // mode keeps them merged.
        let p = problem(2, 64, 50.0);
        let run = |mode: IndexMode| {
            let mut state = PlacementState::with_candidate_index(&p, mode);
            // Hosts 5 and 9 share a class (9 % 4 == 5 % 4); the demands
            // differ by far less than a bucket quantum.
            state.assign(&p, 5, Resources::new(3.0, 16.0, 1.0, 1.0));
            state.assign(&p, 9, Resources::new(4.0, 17.0, 1.0, 1.0));
            state.candidate_index().unwrap().group_count()
        };
        let exact = run(IndexMode::Exact);
        let near = run(IndexMode::Near { top_k: 3 });
        assert_eq!(near, exact - 1, "near mode must merge the twins");
    }

    #[test]
    fn assignment_splits_a_group() {
        let p = problem(2, 64, 50.0);
        let mut state = PlacementState::with_candidate_index(&p, IndexMode::Exact);
        let before = state.candidate_index().unwrap().group_count();
        let d = Resources::new(30.0, 256.0, 10.0, 10.0);
        // Host 5 leaves its empty-twin group.
        state.assign(&p, 5, d);
        let after = state.candidate_index().unwrap().group_count();
        assert_eq!(after, before + 1);
        // A bit-identical assignment onto its twin host 9 (same class:
        // 9 % 4 == 5 % 4 == 1) joins host 5's new group, not another.
        state.assign(&p, 9, d);
        assert_eq!(state.candidate_index().unwrap().group_count(), after);
    }

    #[test]
    fn fitting_groups_never_skip_a_fitting_host() {
        let p = problem(4, 64, 300.0);
        let mut state = PlacementState::with_candidate_index(&p, IndexMode::Exact);
        state.assign(&p, 0, Resources::new(350.0, 3000.0, 100.0, 100.0));
        state.assign(&p, 7, Resources::new(120.0, 512.0, 50.0, 50.0));
        for demand in [
            Resources::new(40.0, 256.0, 10.0, 10.0),
            Resources::new(200.0, 1024.0, 10.0, 10.0),
            Resources::new(399.0, 4000.0, 10.0, 10.0),
            Resources::ZERO,
        ] {
            let truth: Vec<usize> = (0..p.hosts.len())
                .filter(|&hi| state.fits(&p, hi, &demand))
                .collect();
            let mut from_index: Vec<usize> = state
                .candidate_index()
                .unwrap()
                .fitting_groups(&demand)
                .flat_map(|members| members.iter().copied())
                .filter(|&hi| state.fits(&p, hi, &demand))
                .collect();
            from_index.sort_unstable();
            assert_eq!(from_index, truth, "demand {demand:?}");
        }
    }

    #[test]
    fn groups_are_exact_demand_matches() {
        // Two near-identical but not bit-identical demands must land
        // their hosts in different groups.
        let p = problem(2, 64, 50.0);
        let mut state = PlacementState::with_candidate_index(&p, IndexMode::Exact);
        let before = state.candidate_index().unwrap().group_count();
        state.assign(&p, 5, Resources::new(30.0, 256.0, 10.0, 10.0));
        state.assign(&p, 9, Resources::new(30.0 + 1e-12, 256.0, 10.0, 10.0));
        assert_eq!(state.candidate_index().unwrap().group_count(), before + 2);
    }
}
