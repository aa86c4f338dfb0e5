//! Virtual machines (hosted web-services).
//!
//! A VM boxes one customer web-service. Its SLA parameters (`RT0`, `α`)
//! come straight from the paper's SLA function; its image size determines
//! migration cost; its base memory is the allocation floor below which the
//! guest OS cannot operate.

use crate::ids::{LocationId, PmId, VmId};
use pamdc_simcore::time::SimTime;

/// Static description of a VM / hosted web-service.
#[derive(Clone, Debug)]
pub struct VmSpec {
    /// Disk image size, MB — drives migration transfer time.
    pub image_size_mb: f64,
    /// Memory floor, MB (guest OS + stack idle footprint).
    pub base_mem_mb: f64,
    /// SLA: response time fully satisfying the agreement, seconds
    /// (the paper uses 0.1 s).
    pub rt0_secs: f64,
    /// SLA: tolerance multiplier; fulfillment reaches 0 at `alpha * rt0`
    /// (the paper uses 10).
    pub alpha: f64,
}

impl VmSpec {
    /// The paper's experimental web-service VM: 0.1 s RT0, α = 10, a few
    /// GB of image, 256 MB base footprint.
    pub fn web_service() -> Self {
        VmSpec {
            image_size_mb: 2048.0,
            base_mem_mb: 256.0,
            rt0_secs: 0.1,
            alpha: 10.0,
        }
    }
}

/// VM runtime state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VmState {
    /// Serving requests on its current host.
    Running,
    /// Frozen and in transit. The paper's pessimistic assumption: while
    /// migrating the VM does not respond at all, so its SLA is 0.
    Migrating {
        /// Source host.
        from: PmId,
        /// Destination host.
        to: PmId,
        /// Restore-completion instant.
        until: SimTime,
    },
}

/// A virtual machine.
#[derive(Clone, Debug)]
pub struct VirtualMachine {
    /// This VM's identifier.
    pub id: VmId,
    /// Static spec.
    pub spec: VmSpec,
    /// The location whose clients this service primarily targets (its
    /// customer picked this DC region when signing up).
    pub home: LocationId,
    state: VmState,
    migration_count: u64,
}

impl VirtualMachine {
    /// A new, running VM.
    pub fn new(id: VmId, spec: VmSpec, home: LocationId) -> Self {
        VirtualMachine {
            id,
            spec,
            home,
            state: VmState::Running,
            migration_count: 0,
        }
    }

    /// Current runtime state.
    pub fn state(&self) -> VmState {
        self.state
    }

    /// True when the VM is frozen in transit.
    pub fn is_migrating(&self) -> bool {
        matches!(self.state, VmState::Migrating { .. })
    }

    /// Lifetime number of migrations started.
    pub fn migration_count(&self) -> u64 {
        self.migration_count
    }

    /// Marks the VM as in-flight between hosts.
    pub fn begin_migration(&mut self, from: PmId, to: PmId, until: SimTime) {
        debug_assert!(!self.is_migrating(), "{} is already migrating", self.id);
        self.state = VmState::Migrating { from, to, until };
        self.migration_count += 1;
    }

    /// Completes an in-flight migration if its restore time has passed.
    /// Returns the destination host on completion.
    pub fn try_complete_migration(&mut self, now: SimTime) -> Option<PmId> {
        if let VmState::Migrating { to, until, .. } = self.state {
            if now >= until {
                self.state = VmState::Running;
                return Some(to);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn migration_state_machine() {
        let mut vm = VirtualMachine::new(VmId(0), VmSpec::web_service(), LocationId(2));
        assert_eq!(vm.state(), VmState::Running);
        assert_eq!(vm.migration_count(), 0);

        vm.begin_migration(PmId(0), PmId(1), SimTime::from_secs(30));
        assert!(vm.is_migrating());
        assert_eq!(vm.migration_count(), 1);

        assert_eq!(vm.try_complete_migration(SimTime::from_secs(29)), None);
        assert!(vm.is_migrating());
        assert_eq!(
            vm.try_complete_migration(SimTime::from_secs(30)),
            Some(PmId(1))
        );
        assert_eq!(vm.state(), VmState::Running);
    }

    #[test]
    fn specs_have_paper_sla_params() {
        let s = VmSpec::web_service();
        assert!((s.rt0_secs - 0.1).abs() < 1e-12);
        assert!((s.alpha - 10.0).abs() < 1e-12);
    }
}
