//! The ground-truth response-time model — the paper's `fRT`
//! (constraint 6.1): processing RT as a function of load, required and
//! granted resources.
//!
//! The model is a processor-sharing queue whose capacity is the VM's
//! work-conserving share of its host, degraded by memory pressure
//! (thrashing) and capped by network bandwidth. It produces the
//! behaviours the paper relies on:
//!
//! * an unstressed VM answers well under `RT0`;
//! * as a host's aggregate utilisation approaches 1, RT rises smoothly
//!   through the SLA degradation band (piecewise-linear-ish — learnable
//!   by M5 model trees);
//! * an overloaded VM serves fewer requests than arrive, so queues build
//!   and its *observed* CPU stays flat at its share — the monitor bias
//!   that defeats plain Best-Fit;
//! * RT saturates at ~20 s, the top of the paper's observed range.

use crate::demand::{cpu_demand_pct, OfferedLoad, VmPerfProfile};
use crate::queueing::{ps_sojourn_time, utilization};
use pamdc_infra::resources::Resources;
use pamdc_simcore::rng::RngStream;

/// RT ceiling, seconds (paper's Table I tops out at 19.35 s).
pub const MAX_RT_SECS: f64 = 20.0;

/// Fixed dispatch/network-stack overhead inside the DC, seconds.
const DISPATCH_OVERHEAD_SECS: f64 = 0.015;

/// Strength of the memory-thrash RT multiplier.
const THRASH_SHARPNESS: f64 = 3.0;

/// Log-normal σ of the multiplicative RT noise [`evaluate`] applies
/// when given a jitter stream.
const JITTER_SIGMA: f64 = 0.08;

/// What one VM did during one tick.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PerfOutcome {
    /// Mean processing response time (excludes client transport), seconds.
    pub rt_process_secs: f64,
    /// Requests actually served, per second.
    pub served_rps: f64,
    /// True resource usage — what a perfect monitor would report.
    pub used: Resources,
    /// Requests the VM could serve at most, per second (its capacity).
    pub capacity_rps: f64,
}

/// The deterministic part of [`evaluate`]: the response time before
/// jitter, and the capacity and offered rate it came from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RtCore {
    /// Requests offered this tick, per second (arrivals plus backlog drain).
    pub offered_rps: f64,
    /// Requests the VM could serve at most, per second.
    pub capacity_rps: f64,
    /// Mean processing response time without jitter, seconds.
    pub rt_process_secs: f64,
}

/// The response-time arithmetic of the model, without jitter and
/// without the served/used bookkeeping: base service time, capacity per
/// resource axis, memory thrash, utilisation, the processor-sharing
/// sojourn time and the thrash multiplier. Arguments as for
/// [`evaluate`], which is this plus jitter plus usage.
pub fn rt_core(
    load: &OfferedLoad,
    profile: &VmPerfProfile,
    required: &Resources,
    granted: &Resources,
    burst: &Resources,
    drain_secs: f64,
) -> RtCore {
    let offered = load.total_rps(drain_secs);

    // Base service time: CPU plus I/O waits plus dispatch.
    let s0 = load.cpu_ms_per_req / 1000.0 * (1.0 + profile.io_wait_factor) + DISPATCH_OVERHEAD_SECS;

    // Capacity in requests/second per resource axis.
    let mu_cpu = if load.cpu_ms_per_req > 0.0 {
        ((burst.cpu - profile.idle_cpu_pct).max(0.0)) * 10.0 / load.cpu_ms_per_req
    } else {
        f64::INFINITY
    };
    let mu_in = if load.kb_in_per_req > 0.0 {
        burst.net_in_kbps / load.kb_in_per_req
    } else {
        f64::INFINITY
    };
    let mu_out = if load.kb_out_per_req > 0.0 {
        burst.net_out_kbps / load.kb_out_per_req
    } else {
        f64::INFINITY
    };

    // Memory pressure: thrashing slows the whole stack down.
    let mem_ratio = if granted.mem_mb > 0.0 {
        required.mem_mb / granted.mem_mb
    } else if required.mem_mb > 0.0 {
        f64::INFINITY
    } else {
        1.0
    };
    let thrash = (mem_ratio - 1.0).max(0.0);
    let slow = 1.0 / (1.0 + 2.0 * thrash.min(10.0));

    let mu = mu_cpu.min(mu_in).min(mu_out) * slow;
    let rho = utilization(offered, mu);

    let mut rt = ps_sojourn_time(s0, rho, MAX_RT_SECS);
    if thrash > 0.0 {
        rt = (rt * (1.0 + THRASH_SHARPNESS * thrash.min(10.0))).min(MAX_RT_SECS);
    }
    RtCore {
        offered_rps: offered,
        capacity_rps: mu,
        rt_process_secs: rt,
    }
}

/// Evaluates the model for one VM on one tick.
///
/// * `required` — demand from [`crate::demand::required_resources`];
/// * `granted` — the space-shared allocation
///   ([`crate::contention::ProportionalShare`]); memory pressure comes
///   from here;
/// * `burst` — the work-conserving capacity share
///   ([`crate::contention::WorkConservingShare`]); CPU and network rates
///   come from here;
/// * `drain_secs` — tick length, over which backlog drains;
/// * `rng` — jitter source; `None` leaves the response time
///   deterministic.
pub fn evaluate(
    load: &OfferedLoad,
    profile: &VmPerfProfile,
    required: &Resources,
    granted: &Resources,
    burst: &Resources,
    drain_secs: f64,
    rng: Option<&mut RngStream>,
) -> PerfOutcome {
    let RtCore {
        offered_rps: offered,
        capacity_rps: mu,
        rt_process_secs: mut rt,
    } = rt_core(load, profile, required, granted, burst, drain_secs);
    let served = offered.min(mu);
    if let Some(rng) = rng {
        rt = (rt * rng.lognormal(0.0, JITTER_SIGMA)).clamp(0.0, MAX_RT_SECS);
    }

    // True usage: what the VM actually consumed serving `served` rps.
    let cpu_used = cpu_demand_pct(served, load.cpu_ms_per_req, profile.idle_cpu_pct).min(
        if burst.cpu.is_finite() {
            burst.cpu
        } else {
            f64::MAX
        },
    );
    let used = Resources {
        cpu: cpu_used,
        mem_mb: required.mem_mb.min(granted.mem_mb),
        net_in_kbps: (served * load.kb_in_per_req).min(if burst.net_in_kbps.is_finite() {
            burst.net_in_kbps
        } else {
            f64::MAX
        }),
        net_out_kbps: (served * load.kb_out_per_req).min(if burst.net_out_kbps.is_finite() {
            burst.net_out_kbps
        } else {
            f64::MAX
        }),
    };

    PerfOutcome {
        rt_process_secs: rt,
        served_rps: served,
        used,
        capacity_rps: mu,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demand::required_resources;

    const ATOM: Resources = Resources::new(400.0, 4096.0, 64_000.0, 64_000.0);

    fn blog_load(rps: f64) -> OfferedLoad {
        OfferedLoad {
            rps,
            kb_in_per_req: 0.5,
            kb_out_per_req: 3.0,
            cpu_ms_per_req: 5.0,
            backlog: 0.0,
        }
    }

    /// Single VM alone on an Atom host: demand + full burst headroom.
    fn solo(load: &OfferedLoad) -> PerfOutcome {
        let p = VmPerfProfile::default();
        let req = required_resources(load, &p, 60.0);
        // Alone on the host: granted = demand (fits), burst = whole host.
        evaluate(load, &p, &req, &req, &ATOM, 60.0, None)
    }

    #[test]
    fn unstressed_vm_meets_rt0() {
        let o = solo(&blog_load(50.0));
        assert!(o.rt_process_secs < 0.1, "rt {}", o.rt_process_secs);
        assert!((o.served_rps - 50.0).abs() < 1e-9, "all requests served");
    }

    #[test]
    fn rt_monotone_in_load() {
        let mut last = 0.0;
        for rps in [10.0, 100.0, 300.0, 500.0, 700.0, 760.0] {
            let o = solo(&blog_load(rps));
            assert!(
                o.rt_process_secs >= last - 1e-9,
                "rt must grow with load: {} at {rps}",
                o.rt_process_secs
            );
            last = o.rt_process_secs;
        }
    }

    #[test]
    fn saturation_caps_throughput_and_rt() {
        // Atom: (400-2)*10/5 = 796 rps CPU capacity.
        let o = solo(&blog_load(2000.0));
        assert!(o.served_rps < 810.0, "served {}", o.served_rps);
        assert!(
            (o.rt_process_secs - 20.0).abs() < 1e-6,
            "rt saturates at max"
        );
        assert!(o.capacity_rps < 810.0);
    }

    #[test]
    fn contention_raises_rt() {
        // Two identical VMs each demanding ~60% of the host CPU.
        let p = VmPerfProfile::default();
        let load = blog_load(480.0);
        let req = required_resources(&load, &p, 60.0);
        let total = req + req;
        let granted = crate::contention::ProportionalShare::new(&total, &ATOM).grant(&req);
        let burst = crate::contention::WorkConservingShare::new(&total, &ATOM).burst(&req);
        let shared = evaluate(&load, &p, &req, &granted, &burst, 60.0, None);
        let alone = solo(&load);
        assert!(
            shared.rt_process_secs > 2.0 * alone.rt_process_secs,
            "shared {} vs alone {}",
            shared.rt_process_secs,
            alone.rt_process_secs
        );
        assert!(
            shared.served_rps < 480.0,
            "contended VM cannot serve everything"
        );
    }

    #[test]
    fn memory_thrash_punishes_rt() {
        let p = VmPerfProfile::default();
        let load = blog_load(100.0);
        let req = required_resources(&load, &p, 60.0);
        let healthy = evaluate(&load, &p, &req, &req, &ATOM, 60.0, None);
        // Grant only 60% of the needed memory.
        let starved_mem = Resources {
            mem_mb: req.mem_mb * 0.6,
            ..req
        };
        let starved = evaluate(&load, &p, &req, &starved_mem, &ATOM, 60.0, None);
        assert!(starved.rt_process_secs > 2.0 * healthy.rt_process_secs);
        assert!(
            starved.capacity_rps < healthy.capacity_rps,
            "thrashing shrinks capacity"
        );
        assert!(starved.used.mem_mb <= starved_mem.mem_mb + 1e-9);
    }

    #[test]
    fn network_bottleneck_caps_served() {
        let p = VmPerfProfile::default();
        // Huge responses: 3 MB each; host NIC 64_000 KB/s -> ~21 rps cap.
        let load = OfferedLoad {
            rps: 100.0,
            kb_in_per_req: 0.5,
            kb_out_per_req: 3000.0,
            cpu_ms_per_req: 2.0,
            backlog: 0.0,
        };
        let req = required_resources(&load, &p, 60.0);
        let o = evaluate(&load, &p, &req, &req, &ATOM, 60.0, None);
        assert!(o.served_rps < 25.0, "served {}", o.served_rps);
        assert!(o.used.net_out_kbps <= 64_000.0 + 1e-6);
    }

    #[test]
    fn starved_vm_reports_low_cpu_usage() {
        // The monitor-bias effect: a VM that *needs* 2 cores but only has
        // capacity for ~1 reports ~1 core of usage.
        let p = VmPerfProfile::default();
        let load = blog_load(400.0); // needs ~200% cpu
        let req = required_resources(&load, &p, 60.0);
        let small_burst = Resources { cpu: 100.0, ..ATOM };
        let o = evaluate(&load, &p, &req, &req, &small_burst, 60.0, None);
        assert!(req.cpu > 195.0, "true demand ~2 cores: {}", req.cpu);
        assert!(
            o.used.cpu <= 100.0 + 1e-9,
            "observed usage capped at share: {}",
            o.used.cpu
        );
    }

    #[test]
    fn backlog_increases_pressure() {
        let p = VmPerfProfile::default();
        let mut load = blog_load(700.0);
        let calm = solo(&load);
        load.backlog = 6000.0; // +100 rps over a minute
        let req = required_resources(&load, &p, 60.0);
        let pressured = evaluate(&load, &p, &req, &req, &ATOM, 60.0, None);
        assert!(pressured.rt_process_secs > calm.rt_process_secs);
    }

    #[test]
    fn jitter_is_bounded_and_reproducible() {
        let p = VmPerfProfile::default();
        let load = blog_load(100.0);
        let req = required_resources(&load, &p, 60.0);
        let mut r1 = RngStream::root(7).derive("rt");
        let mut r2 = RngStream::root(7).derive("rt");
        let a = evaluate(&load, &p, &req, &req, &ATOM, 60.0, Some(&mut r1));
        let b = evaluate(&load, &p, &req, &req, &ATOM, 60.0, Some(&mut r2));
        assert_eq!(a, b, "same stream, same outcome");
        assert!(a.rt_process_secs <= MAX_RT_SECS);
    }

    #[test]
    fn zero_load_is_cheap() {
        let o = solo(&blog_load(0.0));
        assert_eq!(o.served_rps, 0.0);
        assert!(o.rt_process_secs < 0.05);
        assert!(o.used.cpu <= VmPerfProfile::default().idle_cpu_pct + 1e-9);
    }
}
