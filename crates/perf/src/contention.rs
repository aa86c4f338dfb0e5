//! Resource sharing under contention — the paper's `fOccupation`
//! (constraint 5.2): how a host splits its capacity among the VMs it
//! hosts when their combined demand exceeds what it has.
//!
//! The hypervisor grants each VM its demand when everything fits;
//! otherwise each over-subscribed component is scaled down proportionally
//! (weighted fair sharing, the VirtualBox/Xen default behaviour for CPU
//! shares without explicit caps).
//!
//! Each rule has a per-demand form, built once from a host's total
//! demand and capacity and then applied to one demand at a time
//! ([`ProportionalShare`], [`WorkConservingShare`]), and a slice form
//! that maps it over every demand on the host
//! ([`share_proportionally_into`], [`share_work_conserving_into`]).

use pamdc_infra::resources::Resources;

/// The proportional rule for one host: per-component factors
/// `min(1, cap_c / Σ demand_c)`, applied as `granted_i = demand_i · factor`.
#[derive(Clone, Copy, Debug)]
pub struct ProportionalShare {
    factors: Resources,
}

impl ProportionalShare {
    /// The factors for a host whose demands sum to `total`.
    pub fn new(total: &Resources, capacity: &Resources) -> Self {
        let factor = |cap: f64, tot: f64| {
            if tot > cap && tot > 0.0 {
                cap / tot
            } else {
                1.0
            }
        };
        ProportionalShare {
            factors: Resources {
                cpu: factor(capacity.cpu, total.cpu),
                mem_mb: factor(capacity.mem_mb, total.mem_mb),
                net_in_kbps: factor(capacity.net_in_kbps, total.net_in_kbps),
                net_out_kbps: factor(capacity.net_out_kbps, total.net_out_kbps),
            },
        }
    }

    /// What a VM demanding `demand` is granted.
    pub fn grant(&self, demand: &Resources) -> Resources {
        let f = &self.factors;
        Resources {
            cpu: demand.cpu * f.cpu,
            mem_mb: demand.mem_mb * f.mem_mb,
            net_in_kbps: demand.net_in_kbps * f.net_in_kbps,
            net_out_kbps: demand.net_out_kbps * f.net_out_kbps,
        }
    }
}

/// Splits `capacity` among demands into a reusable buffer (cleared
/// first): one granted vector per demand, by [`ProportionalShare`]. The
/// simulation tick loop calls this once per host per tick and must not
/// allocate.
pub fn share_proportionally_into(
    demands: &[Resources],
    capacity: Resources,
    out: &mut Vec<Resources>,
) {
    out.clear();
    if demands.is_empty() {
        return;
    }
    let total: Resources = demands.iter().copied().sum();
    let share = ProportionalShare::new(&total, &capacity);
    out.extend(demands.iter().map(|d| share.grant(d)));
}

/// The work-conserving rule for one host: what each VM can actually
/// consume when the host's scheduler redistributes slack —
/// `demand_i · cap / Σdemand` per component (≥ demand when the host is
/// underloaded, the contended share when overloaded). CPU and network
/// behave this way; memory does not (it is space-shared, see
/// [`ProportionalShare`]), so the memory component is the demand itself.
#[derive(Clone, Copy, Debug)]
pub struct WorkConservingShare {
    cpu: f64,
    net_in_kbps: f64,
    net_out_kbps: f64,
}

impl WorkConservingShare {
    /// The factors for a host whose demands sum to `total`.
    pub fn new(total: &Resources, capacity: &Resources) -> Self {
        let factor = |cap: f64, tot: f64| if tot > 0.0 { cap / tot } else { f64::INFINITY };
        WorkConservingShare {
            cpu: factor(capacity.cpu, total.cpu),
            net_in_kbps: factor(capacity.net_in_kbps, total.net_in_kbps),
            net_out_kbps: factor(capacity.net_out_kbps, total.net_out_kbps),
        }
    }

    /// The burst capacity of a VM demanding `demand`.
    pub fn burst(&self, demand: &Resources) -> Resources {
        let scale = |d: f64, f: f64| {
            if d <= 0.0 {
                // A VM demanding nothing can still burst into idle capacity;
                // report it as unconstrained.
                f64::INFINITY
            } else {
                d * f
            }
        };
        Resources {
            cpu: scale(demand.cpu, self.cpu),
            mem_mb: demand.mem_mb, // memory is not work-conserving
            net_in_kbps: scale(demand.net_in_kbps, self.net_in_kbps),
            net_out_kbps: scale(demand.net_out_kbps, self.net_out_kbps),
        }
    }
}

/// Work-conserving capacity per demand into a reusable buffer (cleared
/// first), by [`WorkConservingShare`] — allocation-free companion of
/// [`share_proportionally_into`] for the tick loop.
pub fn share_work_conserving_into(
    demands: &[Resources],
    capacity: Resources,
    out: &mut Vec<Resources>,
) {
    out.clear();
    if demands.is_empty() {
        return;
    }
    let total: Resources = demands.iter().copied().sum();
    let share = WorkConservingShare::new(&total, &capacity);
    out.extend(demands.iter().map(|d| share.burst(d)));
}

/// Stress level of a host: the largest over-subscription ratio across
/// components (1.0 = everything fits exactly; 2.0 = demand is double the
/// capacity somewhere).
pub fn oversubscription(demands: &[Resources], capacity: Resources) -> f64 {
    let total: Resources = demands.iter().copied().sum();
    let ratio = |tot: f64, cap: f64| {
        if cap > 0.0 {
            tot / cap
        } else if tot > 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    };
    ratio(total.cpu, capacity.cpu)
        .max(ratio(total.mem_mb, capacity.mem_mb))
        .max(ratio(total.net_in_kbps, capacity.net_in_kbps))
        .max(ratio(total.net_out_kbps, capacity.net_out_kbps))
        .max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(cpu: f64, mem: f64) -> Resources {
        Resources::new(cpu, mem, 10.0, 10.0)
    }

    fn grants(demands: &[Resources], cap: Resources) -> Vec<Resources> {
        let mut out = vec![Resources::ZERO; 3];
        share_proportionally_into(demands, cap, &mut out);
        out
    }

    #[test]
    fn underloaded_host_grants_demand() {
        let cap = Resources::new(400.0, 4096.0, 1000.0, 1000.0);
        let demands = vec![r(100.0, 512.0), r(150.0, 1024.0)];
        let granted = grants(&demands, cap);
        assert_eq!(granted, demands);
    }

    #[test]
    fn overloaded_component_scales_down_proportionally() {
        let cap = Resources::new(400.0, 4096.0, 1000.0, 1000.0);
        // CPU demand 600 vs capacity 400 -> factor 2/3; memory fits.
        let demands = vec![r(400.0, 512.0), r(200.0, 512.0)];
        let granted = grants(&demands, cap);
        assert!((granted[0].cpu - 400.0 * 2.0 / 3.0).abs() < 1e-9);
        assert!((granted[1].cpu - 200.0 * 2.0 / 3.0).abs() < 1e-9);
        // Non-contended components untouched.
        assert_eq!(granted[0].mem_mb, 512.0);
        // Total grant equals capacity on the contended axis.
        let total: Resources = granted.iter().copied().sum();
        assert!((total.cpu - 400.0).abs() < 1e-9);
    }

    #[test]
    fn grants_never_exceed_demand_or_capacity() {
        let cap = Resources::new(400.0, 2048.0, 100.0, 100.0);
        let demands = vec![r(300.0, 1500.0), r(300.0, 1500.0), r(300.0, 1500.0)];
        let granted = grants(&demands, cap);
        let total: Resources = granted.iter().copied().sum();
        assert!(total.fits_within(&cap));
        for (g, d) in granted.iter().zip(&demands) {
            assert!(g.fits_within(d));
        }
    }

    #[test]
    fn empty_input_clears_the_buffer() {
        assert!(grants(&[], Resources::ZERO).is_empty());
        let mut out = vec![Resources::ZERO];
        share_work_conserving_into(&[], Resources::ZERO, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn oversubscription_ratio() {
        let cap = Resources::new(400.0, 4096.0, 1000.0, 1000.0);
        assert!((oversubscription(&[r(200.0, 1024.0)], cap) - 0.5).abs() < 1e-9);
        assert!((oversubscription(&[r(400.0, 512.0), r(400.0, 512.0)], cap) - 2.0).abs() < 1e-9);
        assert_eq!(oversubscription(&[], cap), 0.0);
    }
}

#[cfg(test)]
mod wc_tests {
    use super::*;

    fn bursts(demands: &[Resources], cap: Resources) -> Vec<Resources> {
        let mut out = Vec::new();
        share_work_conserving_into(demands, cap, &mut out);
        out
    }

    #[test]
    fn underloaded_host_lets_vms_burst() {
        let cap = Resources::new(400.0, 4096.0, 1000.0, 1000.0);
        let demands = vec![Resources::new(50.0, 512.0, 10.0, 10.0)];
        let burst = bursts(&demands, cap);
        assert!(
            (burst[0].cpu - 400.0).abs() < 1e-9,
            "single VM can use the whole host"
        );
    }

    #[test]
    fn contended_host_gives_proportional_share() {
        let cap = Resources::new(400.0, 4096.0, 1000.0, 1000.0);
        let demands = vec![
            Resources::new(300.0, 0.0, 0.0, 0.0),
            Resources::new(100.0, 0.0, 0.0, 0.0),
        ];
        let burst = bursts(&demands, cap);
        assert!((burst[0].cpu - 300.0).abs() < 1e-9);
        assert!((burst[1].cpu - 100.0).abs() < 1e-9);
    }

    #[test]
    fn zero_demand_is_unconstrained() {
        let cap = Resources::new(400.0, 4096.0, 1000.0, 1000.0);
        let demands = vec![Resources::ZERO, Resources::new(100.0, 0.0, 0.0, 0.0)];
        let burst = bursts(&demands, cap);
        assert_eq!(burst[0].cpu, f64::INFINITY);
    }
}
