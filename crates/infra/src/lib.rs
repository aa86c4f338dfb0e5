//! # pamdc-infra — the multi-datacenter infrastructure model
//!
//! Everything physical in the paper's world, built as a simulation
//! substrate: resource vectors ([`resources`]), the measured Atom power
//! curve ([`power`]), host and VM lifecycles ([`pm`], [`vm`]),
//! datacenters ([`datacenter`]), the Verizon-derived inter-DC network
//! ([`network`]), migration blackout accounting ([`migration`]), the
//! cluster world-state ([`cluster`]), noisy monitors ([`monitor`]) and the
//! client gateway with pending-request queues ([`gateway`]).
//!
//! The paper ran on physical Atom hosts under VirtualBox/OpenNebula; this
//! crate replaces that testbed with a deterministic model exposing the
//! same observable quantities (monitored usage, power draw, latencies,
//! migration blackouts) to the layers above.

pub mod bandwidth;
pub mod cluster;
pub mod datacenter;
pub mod gateway;
pub mod ids;
pub mod migration;
pub mod monitor;
pub mod network;
pub mod pm;
pub mod power;
pub mod resources;
pub mod vm;

/// Common imports.
pub mod prelude {
    pub use crate::bandwidth::LinkLoad;
    pub use crate::cluster::Cluster;
    pub use crate::datacenter::DataCenter;
    pub use crate::gateway::{
        total_rps, weighted_attr, weighted_transport_secs, FlowDemand, Gateway, QueueSettle,
    };
    pub use crate::ids::{DcId, LocationId, PmId, VmId};
    pub use crate::migration::Migration;
    pub use crate::monitor::{observe, SlidingWindow};
    pub use crate::network::{City, LatencyMatrix, NetworkModel};
    pub use crate::pm::{FaultEvent, MachineSpec, PhysicalMachine, PmState};
    pub use crate::power::PowerModel;
    pub use crate::resources::Resources;
    pub use crate::vm::{VirtualMachine, VmSpec, VmState};
}
