//! Physical machines (hosts).
//!
//! A PM owns a capacity vector, a power curve and a lifecycle state
//! machine: `Off → Booting → On → ShuttingDown → Off`. Consolidation saves
//! energy precisely because empty hosts can be shut down, and the boot
//! latency is what makes over-eager shutdowns risky — both effects the
//! scheduler must reason about.

use crate::ids::{DcId, PmId, VmId};
use crate::power::PowerModel;
use crate::resources::Resources;
use pamdc_simcore::time::{SimDuration, SimTime};
use std::sync::Arc;

/// Static description of a host model.
#[derive(Clone, Debug)]
pub struct MachineSpec {
    /// Total schedulable capacity.
    pub capacity: Resources,
    /// Power curve (shared across every host of the same model and
    /// every scheduling round's snapshot of it).
    pub power: Arc<PowerModel>,
    /// Time from power-on command to servicing VMs.
    pub boot_time: SimDuration,
    /// Time from shutdown command to zero draw.
    pub shutdown_time: SimDuration,
    /// Hypervisor CPU overhead per hosted VM, percent-of-core. The paper
    /// observes PM CPU exceeds the sum of VM CPU because of management
    /// overhead; this is that overhead's ground truth.
    pub virt_overhead_cpu_per_vm: f64,
}

impl MachineSpec {
    /// The paper's experimental host: Intel Atom, 4 cores (400 %CPU),
    /// 4 GB RAM, ~1 Gbps NIC (125 MB/s ≈ 128000 KB/s shared in/out),
    /// 2-minute boot.
    pub fn atom() -> Self {
        MachineSpec {
            capacity: Resources::new(400.0, 4096.0, 64_000.0, 64_000.0),
            power: Arc::new(PowerModel::atom_4core()),
            boot_time: SimDuration::from_secs(120),
            shutdown_time: SimDuration::from_secs(30),
            virt_overhead_cpu_per_vm: 6.0,
        }
    }

    /// A Xeon-class host for heterogeneous fleets: 8 cores, 16 GB RAM,
    /// 4× the Atom's NIC, the [`PowerModel::xeon_8core`] curve, and a
    /// slower (3-minute) boot. Amortized hypervisor overhead is lower
    /// per VM than on the Atom (more cores to hide it on).
    pub fn xeon() -> Self {
        MachineSpec {
            capacity: Resources::new(800.0, 16_384.0, 256_000.0, 256_000.0),
            power: Arc::new(PowerModel::xeon_8core()),
            boot_time: SimDuration::from_secs(180),
            shutdown_time: SimDuration::from_secs(45),
            virt_overhead_cpu_per_vm: 4.0,
        }
    }

    /// A custom host class from four headline numbers: core count,
    /// memory, and the idle/peak watt endpoints of its power curve.
    ///
    /// The per-active-core curve is filled in as
    /// `idle + (peak - idle) · sqrt(i / cores)` — the concave shape that
    /// reproduces the paper's measured Atom levels (29.1/30.4/31.3/31.8 W
    /// from idle 27 → peak 31.8) within 0.3 W, so consolidation stays
    /// profitable on custom classes exactly as it is on measured ones.
    /// NIC capacity scales with cores (the Atom's 64 MB/s per 4 cores);
    /// boot/shutdown times and virtualization overhead stay at the
    /// Atom's values.
    pub fn custom(cores: usize, mem_mb: f64, idle_watts: f64, peak_watts: f64) -> Self {
        assert!(cores >= 1, "a host needs at least one core");
        assert!(
            mem_mb > 0.0 && mem_mb.is_finite(),
            "memory must be positive"
        );
        assert!(
            idle_watts.is_finite() && peak_watts.is_finite() && 0.0 < idle_watts,
            "power endpoints must be finite and positive"
        );
        assert!(
            idle_watts <= peak_watts,
            "idle draw cannot exceed peak draw"
        );
        let span = peak_watts - idle_watts;
        let active_core_watts = (1..=cores)
            .map(|i| idle_watts + span * (i as f64 / cores as f64).sqrt())
            .collect();
        let nic_kbps = 16_000.0 * cores as f64;
        MachineSpec {
            capacity: Resources::new(100.0 * cores as f64, mem_mb, nic_kbps, nic_kbps),
            power: Arc::new(PowerModel {
                idle_watts,
                active_core_watts,
                cooling_factor: 1.5,
            }),
            boot_time: SimDuration::from_secs(120),
            shutdown_time: SimDuration::from_secs(30),
            virt_overhead_cpu_per_vm: 6.0,
        }
    }

    /// Number of cores (the power curve's length).
    pub fn cores(&self) -> usize {
        self.power.cores()
    }
}

/// Host lifecycle state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PmState {
    /// Powered down, drawing nothing.
    Off,
    /// Booting; becomes `On` at the embedded time.
    Booting {
        /// Boot completion instant.
        until: SimTime,
    },
    /// Serving.
    On,
    /// Shutting down; becomes `Off` at the embedded time.
    ShuttingDown {
        /// Shutdown completion instant.
        until: SimTime,
    },
    /// Crashed. Draws nothing, serves nothing, ignores power commands;
    /// auto-restarts (enters `Booting`) once repaired at the embedded
    /// time. Hosted VMs stay attached — their images are on DC-shared
    /// storage, so the scheduler may re-provision them elsewhere at the
    /// standard migration cost.
    Failed {
        /// Repair completion instant.
        until: SimTime,
    },
}

/// A scheduled host crash for failure-injection experiments.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultEvent {
    /// The host that crashes.
    pub pm: PmId,
    /// Crash instant.
    pub at: SimTime,
    /// Time until the repair completes (the host then reboots).
    pub repair_after: SimDuration,
}

/// A physical machine.
#[derive(Clone, Debug)]
pub struct PhysicalMachine {
    /// This host's identifier.
    pub id: PmId,
    /// Datacenter this host lives in.
    pub dc: DcId,
    /// Hardware description.
    pub spec: MachineSpec,
    state: PmState,
    hosted: Vec<VmId>,
}

impl PhysicalMachine {
    /// A new host, initially powered off and empty.
    pub fn new(id: PmId, dc: DcId, spec: MachineSpec) -> Self {
        PhysicalMachine {
            id,
            dc,
            spec,
            state: PmState::Off,
            hosted: Vec::new(),
        }
    }

    /// Current lifecycle state.
    pub fn state(&self) -> PmState {
        self.state
    }

    /// True when the host can run VMs right now.
    pub fn is_on(&self) -> bool {
        matches!(self.state, PmState::On)
    }

    /// True when the host is on or will be shortly (a scheduler may place
    /// onto a booting host; the VM starts when boot completes).
    pub fn is_schedulable(&self) -> bool {
        matches!(self.state, PmState::On | PmState::Booting { .. })
    }

    /// Crashes the host: immediate power loss, repair completing after
    /// `repair_after`. Any state may fail, including `Off` (a dead PSU
    /// discovered on the next boot attempt). Hosted VMs stay attached
    /// and are blacked out until migrated away or the host returns.
    pub fn fail(&mut self, now: SimTime, repair_after: SimDuration) {
        self.state = PmState::Failed {
            until: now + repair_after,
        };
    }

    /// Issues a power-on. No-op unless the host is off or shutting down
    /// (a shutdown is aborted by rebooting, paying the full boot time).
    /// Failed hosts ignore the command — nothing boots until repair.
    pub fn power_on(&mut self, now: SimTime) {
        match self.state {
            PmState::Off | PmState::ShuttingDown { .. } => {
                self.state = PmState::Booting {
                    until: now + self.spec.boot_time,
                };
            }
            PmState::On | PmState::Booting { .. } | PmState::Failed { .. } => {}
        }
    }

    /// Issues a shutdown. Only an idle, on host may shut down; hosting or
    /// transitioning hosts ignore the request (the caller migrates VMs away
    /// first).
    pub fn request_shutdown(&mut self, now: SimTime) {
        if matches!(self.state, PmState::On) && self.hosted.is_empty() {
            self.state = PmState::ShuttingDown {
                until: now + self.spec.shutdown_time,
            };
        }
    }

    /// Advances the lifecycle state machine to `now`. A repaired host
    /// restarts automatically (it still pays its boot time).
    pub fn tick_state(&mut self, now: SimTime) {
        match self.state {
            PmState::Booting { until } if now >= until => self.state = PmState::On,
            PmState::ShuttingDown { until } if now >= until => self.state = PmState::Off,
            PmState::Failed { until } if now >= until => {
                self.state = PmState::Booting {
                    until: now + self.spec.boot_time,
                };
            }
            _ => {}
        }
    }

    /// VMs currently assigned to this host.
    pub fn hosted(&self) -> &[VmId] {
        &self.hosted
    }

    /// Number of hosted VMs.
    pub fn vm_count(&self) -> usize {
        self.hosted.len()
    }

    /// Assigns a VM to this host. Panics on double-assignment, which is
    /// always a scheduler bug.
    pub fn attach(&mut self, vm: VmId) {
        assert!(
            !self.hosted.contains(&vm),
            "{vm} already hosted on {}",
            self.id
        );
        self.hosted.push(vm);
    }

    /// Removes a VM from this host. Panics if the VM was not here.
    pub fn detach(&mut self, vm: VmId) {
        let pos = self
            .hosted
            .iter()
            .position(|&v| v == vm)
            .unwrap_or_else(|| panic!("{vm} not hosted on {}", self.id));
        self.hosted.swap_remove(pos);
    }

    /// Hypervisor CPU overhead at the current VM count (ground truth for
    /// the "Predict PM CPU" target of Table I).
    pub fn virt_overhead_cpu(&self) -> f64 {
        self.spec.virt_overhead_cpu_per_vm * self.hosted.len() as f64
    }

    /// Facility power draw at the given aggregate CPU usage
    /// (percent-of-core, including hypervisor overhead).
    pub fn facility_watts(&self, cpu_pct: f64) -> f64 {
        match self.state {
            PmState::Off | PmState::Failed { .. } => 0.0,
            PmState::Booting { .. } | PmState::ShuttingDown { .. } => {
                self.spec.power.transition_watts()
            }
            PmState::On => self.spec.power.facility_watts(cpu_pct),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pm() -> PhysicalMachine {
        PhysicalMachine::new(PmId(0), DcId(0), MachineSpec::atom())
    }

    #[test]
    fn lifecycle_happy_path() {
        let mut m = pm();
        assert_eq!(m.state(), PmState::Off);
        assert!(!m.is_schedulable());

        let t0 = SimTime::ZERO;
        m.power_on(t0);
        assert!(matches!(m.state(), PmState::Booting { .. }));
        assert!(m.is_schedulable());
        assert!(!m.is_on());

        m.tick_state(t0 + SimDuration::from_secs(119));
        assert!(!m.is_on());
        m.tick_state(t0 + SimDuration::from_secs(120));
        assert!(m.is_on());

        m.request_shutdown(t0 + SimDuration::from_mins(10));
        assert!(matches!(m.state(), PmState::ShuttingDown { .. }));
        m.tick_state(t0 + SimDuration::from_mins(11));
        assert_eq!(m.state(), PmState::Off);
    }

    #[test]
    fn shutdown_refused_while_hosting() {
        let mut m = pm();
        m.power_on(SimTime::ZERO);
        m.tick_state(SimTime::from_mins(5));
        m.attach(VmId(1));
        m.request_shutdown(SimTime::from_mins(6));
        assert!(m.is_on(), "a hosting PM must not shut down");
        m.detach(VmId(1));
        m.request_shutdown(SimTime::from_mins(7));
        assert!(matches!(m.state(), PmState::ShuttingDown { .. }));
    }

    #[test]
    fn attach_detach_bookkeeping() {
        let mut m = pm();
        m.attach(VmId(0));
        m.attach(VmId(1));
        assert_eq!(m.vm_count(), 2);
        assert!((m.virt_overhead_cpu() - 12.0).abs() < 1e-12);
        m.detach(VmId(0));
        assert_eq!(m.hosted(), &[VmId(1)]);
    }

    #[test]
    #[should_panic(expected = "already hosted")]
    fn double_attach_panics() {
        let mut m = pm();
        m.attach(VmId(3));
        m.attach(VmId(3));
    }

    #[test]
    #[should_panic(expected = "not hosted")]
    fn detach_missing_panics() {
        let mut m = pm();
        m.detach(VmId(3));
    }

    #[test]
    fn xeon_class_is_bigger_in_every_dimension() {
        let atom = MachineSpec::atom();
        let xeon = MachineSpec::xeon();
        assert_eq!(xeon.cores(), 8);
        assert!(xeon.capacity.cpu > atom.capacity.cpu);
        assert!(xeon.capacity.mem_mb > atom.capacity.mem_mb);
        assert!(xeon.boot_time > atom.boot_time);
        assert!(xeon.power.it_watts(800.0) > atom.power.it_watts(400.0));
    }

    #[test]
    fn custom_curve_reproduces_the_atom_shape() {
        // idle 27 → peak 31.8 over 4 cores: the sqrt fill-in must land
        // within 0.3 W of the paper's measured levels.
        let m = MachineSpec::custom(4, 4096.0, 27.0, 31.8);
        for (i, &measured) in [29.1, 30.4, 31.3, 31.8].iter().enumerate() {
            let w = m.power.it_watts(100.0 * (i + 1) as f64);
            assert!(
                (w - measured).abs() < 0.31,
                "core {}: {w} vs measured {measured}",
                i + 1
            );
        }
        assert_eq!(m.cores(), 4);
        // Endpoints are exact.
        assert_eq!(m.power.idle_watts, 27.0);
        assert!((m.power.it_watts(400.0) - 31.8).abs() < 1e-12);
        // NIC scales with cores.
        let big = MachineSpec::custom(8, 8192.0, 100.0, 250.0);
        assert!((big.capacity.net_out_kbps - 2.0 * m.capacity.net_out_kbps).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "idle draw cannot exceed peak")]
    fn custom_rejects_inverted_power_endpoints() {
        let _ = MachineSpec::custom(4, 4096.0, 50.0, 20.0);
    }

    #[test]
    fn power_by_state() {
        let mut m = pm();
        assert_eq!(m.facility_watts(100.0), 0.0);
        m.power_on(SimTime::ZERO);
        let boot_w = m.facility_watts(0.0);
        assert!((boot_w - 29.1 * 1.5).abs() < 1e-9);
        m.tick_state(SimTime::from_mins(5));
        assert!((m.facility_watts(100.0) - 29.1 * 1.5).abs() < 1e-9);
        assert!((m.facility_watts(0.0) - 27.0 * 1.5).abs() < 1e-9);
    }

    #[test]
    fn failure_lifecycle() {
        let mut m = pm();
        m.power_on(SimTime::ZERO);
        m.tick_state(SimTime::from_mins(5));
        m.attach(VmId(0));
        assert!(m.is_on());

        // Crash at t=10, 20-minute repair.
        m.fail(SimTime::from_mins(10), SimDuration::from_mins(20));
        assert!(matches!(m.state(), PmState::Failed { .. }));
        assert!(!m.is_on() && !m.is_schedulable());
        assert_eq!(m.facility_watts(100.0), 0.0, "a dead host draws nothing");
        assert_eq!(
            m.hosted(),
            &[VmId(0)],
            "VMs stay attached through the crash"
        );

        // Power commands are ignored while failed.
        m.power_on(SimTime::from_mins(15));
        assert!(matches!(m.state(), PmState::Failed { .. }));

        // Repair completes at t=30: auto-restart pays the boot time.
        m.tick_state(SimTime::from_mins(30));
        assert!(matches!(m.state(), PmState::Booting { .. }));
        m.tick_state(SimTime::from_mins(33));
        assert!(m.is_on());
    }

    #[test]
    fn failure_from_off_keeps_it_dark() {
        let mut m = pm();
        m.fail(SimTime::ZERO, SimDuration::from_mins(5));
        assert!(matches!(m.state(), PmState::Failed { .. }));
        m.power_on(SimTime::from_mins(1));
        assert!(
            matches!(m.state(), PmState::Failed { .. }),
            "a failed host cannot be booted"
        );
        m.tick_state(SimTime::from_mins(5));
        assert!(matches!(m.state(), PmState::Booting { .. }));
    }

    #[test]
    fn reboot_aborts_shutdown() {
        let mut m = pm();
        m.power_on(SimTime::ZERO);
        m.tick_state(SimTime::from_mins(5));
        m.request_shutdown(SimTime::from_mins(5));
        m.power_on(SimTime::from_mins(5));
        assert!(matches!(m.state(), PmState::Booting { .. }));
    }
}
