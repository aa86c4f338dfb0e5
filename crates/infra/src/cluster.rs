//! The multi-DC cluster: owner of all datacenters, hosts, VMs, the
//! network model, the placement map and in-flight migrations.
//!
//! `Cluster` is the single mutable world-state the simulation loop drives.
//! Schedulers never touch it directly — they receive an immutable snapshot
//! (built by `pamdc-sched`) and return a target schedule; the manager then
//! applies the diff through [`Cluster::migrate`] / power management calls.

use crate::bandwidth::LinkLoad;
use crate::datacenter::DataCenter;
use crate::ids::{DcId, LocationId, PmId, VmId};
use crate::migration::Migration;
use crate::network::NetworkModel;
use crate::pm::{MachineSpec, PhysicalMachine};
use crate::vm::{VirtualMachine, VmSpec};
use pamdc_simcore::time::SimTime;

/// The complete infrastructure state.
#[derive(Clone, Debug)]
pub struct Cluster {
    dcs: Vec<DataCenter>,
    pms: Vec<PhysicalMachine>,
    vms: Vec<VirtualMachine>,
    /// The provider network.
    pub net: NetworkModel,
    /// Background client traffic per inter-DC link (set by the manager
    /// each tick; migrations share the pipe with it).
    pub link_load: LinkLoad,
    placement: Vec<Option<PmId>>,
    in_flight: Vec<Migration>,
}

impl Cluster {
    /// An empty cluster over the given network model.
    pub fn new(net: NetworkModel) -> Self {
        let n_locations = net.latency.len();
        Cluster {
            dcs: Vec::new(),
            pms: Vec::new(),
            vms: Vec::new(),
            net,
            link_load: LinkLoad::new(n_locations),
            placement: Vec::new(),
            in_flight: Vec::new(),
        }
    }

    // ------------------------------------------------------------------
    // Construction
    // ------------------------------------------------------------------

    /// Adds a datacenter.
    pub fn add_datacenter(
        &mut self,
        name: impl Into<String>,
        location: LocationId,
        energy_price_eur_kwh: f64,
    ) -> DcId {
        let id = DcId::from_index(self.dcs.len());
        self.dcs
            .push(DataCenter::new(id, name, location, energy_price_eur_kwh));
        id
    }

    /// Adds a host to a datacenter (initially powered off).
    pub fn add_pm(&mut self, dc: DcId, spec: MachineSpec) -> PmId {
        let id = PmId::from_index(self.pms.len());
        self.pms.push(PhysicalMachine::new(id, dc, spec));
        self.dcs[dc.index()].add_pm(id);
        id
    }

    /// Adds a VM (initially unplaced).
    pub fn add_vm(&mut self, spec: VmSpec, home: LocationId) -> VmId {
        let id = VmId::from_index(self.vms.len());
        self.vms.push(VirtualMachine::new(id, spec, home));
        self.placement.push(None);
        id
    }

    /// Initial deployment of an unplaced VM onto a host: no migration
    /// cost, host powered on if needed (boot completes instantly only if
    /// it was already on).
    pub fn deploy(&mut self, vm: VmId, pm: PmId, now: SimTime) {
        assert!(
            self.placement[vm.index()].is_none(),
            "{vm} is already placed"
        );
        self.pms[pm.index()].power_on(now);
        self.pms[pm.index()].attach(vm);
        self.placement[vm.index()] = Some(pm);
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// All datacenters.
    pub fn dcs(&self) -> &[DataCenter] {
        &self.dcs
    }

    /// All hosts.
    pub fn pms(&self) -> &[PhysicalMachine] {
        &self.pms
    }

    /// All VMs.
    pub fn vms(&self) -> &[VirtualMachine] {
        &self.vms
    }

    /// One datacenter.
    pub fn dc(&self, id: DcId) -> &DataCenter {
        &self.dcs[id.index()]
    }

    /// One host.
    pub fn pm(&self, id: PmId) -> &PhysicalMachine {
        &self.pms[id.index()]
    }

    /// One VM.
    pub fn vm(&self, id: VmId) -> &VirtualMachine {
        &self.vms[id.index()]
    }

    /// Number of datacenters.
    pub fn dc_count(&self) -> usize {
        self.dcs.len()
    }

    /// Number of hosts.
    pub fn pm_count(&self) -> usize {
        self.pms.len()
    }

    /// Number of VMs.
    pub fn vm_count(&self) -> usize {
        self.vms.len()
    }

    /// Current host of a VM (its destination while migrating).
    pub fn placement(&self, vm: VmId) -> Option<PmId> {
        self.placement[vm.index()]
    }

    /// Datacenter of a host.
    pub fn dc_of_pm(&self, pm: PmId) -> DcId {
        self.pms[pm.index()].dc
    }

    /// Location of a host (its DC's location).
    pub fn location_of_pm(&self, pm: PmId) -> LocationId {
        self.dcs[self.pms[pm.index()].dc.index()].location
    }

    /// Location of the VM's current host, if placed.
    pub fn location_of_vm(&self, vm: VmId) -> Option<LocationId> {
        self.placement(vm).map(|pm| self.location_of_pm(pm))
    }

    /// In-flight migrations.
    pub fn in_flight(&self) -> &[Migration] {
        &self.in_flight
    }

    /// Count of hosts currently drawing power (anything but `Off` or
    /// crashed).
    pub fn powered_pm_count(&self) -> usize {
        self.pms
            .iter()
            .filter(|p| {
                !matches!(
                    p.state(),
                    crate::pm::PmState::Off | crate::pm::PmState::Failed { .. }
                )
            })
            .count()
    }

    /// Crashes a host (failure injection). Hosted VMs stay attached and
    /// are blacked out until migrated away or the repair completes.
    pub fn fail_pm(
        &mut self,
        pm: PmId,
        now: SimTime,
        repair_after: pamdc_simcore::time::SimDuration,
    ) {
        self.pms[pm.index()].fail(now, repair_after);
    }

    // ------------------------------------------------------------------
    // Mutation
    // ------------------------------------------------------------------

    /// Starts migrating `vm` to host `to`. Returns the migration record,
    /// or `None` when the VM is already on `to` or currently in flight.
    /// Capacity accounting moves to the destination immediately (the image
    /// must fit there for the restore), and the VM serves nothing until
    /// [`Migration::completes`].
    pub fn migrate(&mut self, vm: VmId, to: PmId, now: SimTime) -> Option<Migration> {
        let from = self.placement(vm).expect("cannot migrate an unplaced VM");
        if from == to || self.vms[vm.index()].is_migrating() {
            return None;
        }
        let from_loc = self.location_of_pm(from);
        let to_loc = self.location_of_pm(to);
        // This transfer shares its link with every in-flight migration on
        // the same location pair and with the tick's client traffic.
        let concurrent = 1 + self
            .in_flight
            .iter()
            .filter(|m| {
                let (a, b) = (self.location_of_pm(m.from), self.location_of_pm(m.to));
                (a, b) == (from_loc, to_loc) || (b, a) == (from_loc, to_loc)
            })
            .count();
        let client_gbps = if from_loc == to_loc {
            0.0
        } else {
            self.link_load.client_gbps(from_loc, to_loc)
        };
        let dur = self.net.migration_duration_shared(
            self.vms[vm.index()].spec.image_size_mb,
            from_loc,
            to_loc,
            concurrent,
            client_gbps,
        );
        let completes = now + dur;

        self.pms[from.index()].detach(vm);
        self.pms[to.index()].power_on(now);
        self.pms[to.index()].attach(vm);
        self.placement[vm.index()] = Some(to);
        self.vms[vm.index()].begin_migration(from, to, completes);

        let mig = Migration {
            vm,
            from,
            to,
            started: now,
            completes,
            cross_dc: self.dc_of_pm(from) != self.dc_of_pm(to),
        };
        self.in_flight.push(mig);
        Some(mig)
    }

    /// Advances host state machines and completes due migrations.
    /// Returns the migrations that finished at or before `now`.
    pub fn tick(&mut self, now: SimTime) -> Vec<Migration> {
        for pm in &mut self.pms {
            pm.tick_state(now);
        }
        let mut done = Vec::new();
        self.in_flight.retain(|m| {
            if now >= m.completes {
                done.push(*m);
                false
            } else {
                true
            }
        });
        for m in &done {
            let arrived = self.vms[m.vm.index()].try_complete_migration(now);
            debug_assert_eq!(arrived, Some(m.to), "migration completion mismatch");
        }
        done
    }

    /// Requests shutdown of every empty, on host **except** those listed
    /// in `keep` (e.g. one warm spare per DC). Returns how many shutdowns
    /// were issued.
    pub fn power_off_idle(&mut self, now: SimTime, keep: &[PmId]) -> usize {
        let mut n = 0;
        for pm in &mut self.pms {
            if pm.is_on() && pm.hosted().is_empty() && !keep.contains(&pm.id) {
                pm.request_shutdown(now);
                n += 1;
            }
        }
        n
    }

    // ------------------------------------------------------------------
    // Capacity accounting
    // ------------------------------------------------------------------

    // ------------------------------------------------------------------
    // Invariants
    // ------------------------------------------------------------------

    /// Verifies structural consistency; panics with a description on
    /// violation. Used by tests and (in debug builds) by the manager after
    /// every scheduling round.
    pub fn check_invariants(&self) {
        // Every placed VM appears exactly once across all hosted lists.
        let mut seen = vec![0u32; self.vms.len()];
        for pm in &self.pms {
            for &vm in pm.hosted() {
                seen[vm.index()] += 1;
                assert_eq!(
                    self.placement[vm.index()],
                    Some(pm.id),
                    "{vm} hosted on {} but placement says {:?}",
                    pm.id,
                    self.placement[vm.index()]
                );
            }
        }
        for (i, &count) in seen.iter().enumerate() {
            let vm = VmId::from_index(i);
            match self.placement[i] {
                Some(_) => assert_eq!(count, 1, "{vm} must be hosted exactly once, found {count}"),
                None => assert_eq!(count, 0, "unplaced {vm} must not appear in any hosted list"),
            }
        }
        // Hosts never report VMs while off.
        for pm in &self.pms {
            if matches!(pm.state(), crate::pm::PmState::Off) {
                assert!(pm.hosted().is_empty(), "{} is off but hosts VMs", pm.id);
            }
        }
        // In-flight migrations reference migrating VMs placed at their
        // destination.
        for m in &self.in_flight {
            assert!(
                self.vms[m.vm.index()].is_migrating(),
                "{} not migrating",
                m.vm
            );
            assert_eq!(self.placement[m.vm.index()], Some(m.to));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pamdc_simcore::time::SimDuration;

    /// Two DCs, two Atom hosts each, three VMs deployed on dc0.
    fn fixture() -> Cluster {
        let mut c = Cluster::new(NetworkModel::paper());
        let d0 = c.add_datacenter("BCN", crate::network::City::Barcelona.location(), 0.1513);
        let d1 = c.add_datacenter("BST", crate::network::City::Boston.location(), 0.1120);
        for _ in 0..2 {
            c.add_pm(d0, MachineSpec::atom());
            c.add_pm(d1, MachineSpec::atom());
        }
        for _ in 0..3 {
            c.add_vm(
                VmSpec::web_service(),
                crate::network::City::Barcelona.location(),
            );
        }
        let now = SimTime::ZERO;
        c.deploy(VmId(0), PmId(0), now);
        c.deploy(VmId(1), PmId(0), now);
        c.deploy(VmId(2), PmId(2), now);
        // Finish boots.
        c.tick(SimTime::from_mins(5));
        c
    }

    #[test]
    fn construction_and_lookup() {
        let c = fixture();
        assert_eq!(c.dc_count(), 2);
        assert_eq!(c.pm_count(), 4);
        assert_eq!(c.vm_count(), 3);
        assert_eq!(c.placement(VmId(0)), Some(PmId(0)));
        assert_eq!(c.dc_of_pm(PmId(1)), DcId(1));
        assert_eq!(
            c.location_of_vm(VmId(2)),
            Some(crate::network::City::Barcelona.location())
        );
        c.check_invariants();
    }

    #[test]
    fn migration_moves_capacity_immediately_but_blacks_out() {
        let mut c = fixture();
        let now = SimTime::from_mins(10);
        let mig = c.migrate(VmId(0), PmId(1), now).expect("migration starts");
        assert!(mig.cross_dc);
        assert_eq!(c.placement(VmId(0)), Some(PmId(1)));
        assert!(c.vm(VmId(0)).is_migrating());
        assert_eq!(c.in_flight().len(), 1);
        c.check_invariants();

        // Completes after its duration.
        let done = c.tick(mig.completes);
        assert_eq!(done.len(), 1);
        assert!(!c.vm(VmId(0)).is_migrating());
        assert!(c.in_flight().is_empty());
        c.check_invariants();
    }

    #[test]
    fn migrate_to_self_is_noop() {
        let mut c = fixture();
        assert!(c
            .migrate(VmId(0), PmId(0), SimTime::from_mins(10))
            .is_none());
        assert!(!c.vm(VmId(0)).is_migrating());
    }

    #[test]
    fn no_double_migration() {
        let mut c = fixture();
        let now = SimTime::from_mins(10);
        assert!(c.migrate(VmId(0), PmId(1), now).is_some());
        assert!(
            c.migrate(VmId(0), PmId(3), now).is_none(),
            "in-flight VM cannot re-migrate"
        );
    }

    #[test]
    fn cross_dc_flag() {
        let mut c = fixture();
        let now = SimTime::from_mins(10);
        // PmId(0) and PmId(2) are both in dc0 (added alternating: 0->d0,
        // 1->d1, 2->d0, 3->d1).
        let m = c.migrate(VmId(0), PmId(2), now).unwrap();
        assert!(!m.cross_dc);
    }

    #[test]
    fn power_off_idle_respects_keep_list() {
        let mut c = fixture();
        let now = SimTime::from_mins(20);
        // Bring the two empty hosts (pm1, pm3) online first.
        c.pms[1].power_on(SimTime::from_mins(10));
        c.pms[3].power_on(SimTime::from_mins(10));
        c.tick(now);
        let n = c.power_off_idle(now, &[PmId(1)]);
        assert_eq!(n, 1, "only pm3 should be shut down");
        c.tick(now + SimDuration::from_mins(2));
        assert!(matches!(c.pm(PmId(3)).state(), crate::pm::PmState::Off));
        assert!(c.pm(PmId(1)).is_on());
        c.check_invariants();
    }

    #[test]
    fn powered_pm_count_tracks_states() {
        let mut c = fixture();
        // deploy() powered pm0 and pm2 only; pm1 and pm3 stay off.
        assert_eq!(c.powered_pm_count(), 2);
        let now = SimTime::from_mins(20);
        c.pms[1].power_on(now);
        assert_eq!(c.powered_pm_count(), 3);
        c.tick(now + SimDuration::from_mins(5));
        assert_eq!(c.powered_pm_count(), 3);
    }

    #[test]
    fn concurrent_migrations_share_the_link() {
        // Two cross-DC migrations on the same pair: the second must take
        // longer than the first because it shares the pipe.
        let mut c = fixture();
        let now = SimTime::from_mins(10);
        let first = c.migrate(VmId(0), PmId(1), now).unwrap();
        let second = c.migrate(VmId(1), PmId(3), now).unwrap();
        assert!(
            second.duration() > first.duration(),
            "{:?} vs {:?}",
            second,
            first
        );
    }

    #[test]
    fn client_traffic_slows_migrations() {
        let mut c1 = fixture();
        let mut c2 = fixture();
        let now = SimTime::from_mins(10);
        let quiet = c1.migrate(VmId(0), PmId(1), now).unwrap();
        c2.link_load.add_client_gbps(
            crate::network::City::Barcelona.location(),
            crate::network::City::Boston.location(),
            8.0,
        );
        let congested = c2.migrate(VmId(0), PmId(1), now).unwrap();
        assert!(congested.duration() > quiet.duration());
    }

    #[test]
    #[should_panic(expected = "already placed")]
    fn double_deploy_panics() {
        let mut c = fixture();
        c.deploy(VmId(0), PmId(1), SimTime::ZERO);
    }
}
