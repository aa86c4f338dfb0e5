//! QoS oracles: where the scheduler's beliefs come from.
//!
//! The paper's central comparison is *what information drives Best-Fit*:
//!
//! * [`MonitorOracle`] — plain BF: sizes VMs by the last monitoring
//!   window and guesses SLA from fit + client latency only. Under
//!   contention the window under-reports true demand (a starved VM shows
//!   the usage it got), so this oracle over-consolidates.
//! * [`MonitorOracle::overbooked`] — BF-OB: the same, but books twice
//!   the observation (the paper's 2×) to absorb surprises — safe but
//!   wasteful.
//! * [`MlOracle`] — BF-ML: predicts demand and SLA with the Table-I
//!   models from load characteristics, which *do* reflect true demand.
//! * [`TrueOracle`] — an upper-bound ablation with ground-truth access
//!   (not available to a real system; used to measure the ML gap).

use crate::problem::{HostInfo, VmInfo};
use pamdc_infra::resources::Resources;
use pamdc_ml::predictors::{PredictionTarget, PredictorSuite};
use pamdc_perf::contention::{ProportionalShare, WorkConservingShare};
use pamdc_perf::demand::required_resources;
use pamdc_perf::rt::rt_core;
use std::sync::{Arc, Mutex};

/// A scheduler's belief system: demand estimates and SLA forecasts.
pub trait QosOracle: Send + Sync {
    /// Estimated resource demand of `vm` over the coming period.
    fn demand(&self, vm: &VmInfo) -> Resources;

    /// Estimated SLA fulfillment of `vm` if placed on `host` where the
    /// total demand (everyone incl. `vm` and fixed residents) is
    /// `host_total_demand`, and clients reach it with `transport_secs`
    /// mean latency.
    fn sla(
        &self,
        vm: &VmInfo,
        host: &HostInfo,
        host_total_demand: &Resources,
        transport_secs: f64,
    ) -> f64;

    /// Display name for reports.
    fn name(&self) -> &'static str;
}

/// Plain Best-Fit beliefs: last monitoring window + latency.
#[derive(Clone, Debug)]
pub struct MonitorOracle {
    /// Optional multiplier on the observation (1.0 = plain BF).
    pub booking_factor: f64,
}

impl MonitorOracle {
    /// Plain BF (factor 1).
    pub fn plain() -> Self {
        MonitorOracle {
            booking_factor: 1.0,
        }
    }

    /// BF-OB: the paper's 2× overbooking variant.
    pub fn overbooked() -> Self {
        MonitorOracle {
            booking_factor: 2.0,
        }
    }
}

impl QosOracle for MonitorOracle {
    fn demand(&self, vm: &VmInfo) -> Resources {
        vm.observed_usage * self.booking_factor
    }

    fn sla(
        &self,
        vm: &VmInfo,
        host: &HostInfo,
        host_total_demand: &Resources,
        transport_secs: f64,
    ) -> f64 {
        // Reactive estimate: if (believed) demand fits, assume processing
        // stays at the no-stress baseline and only client latency moves
        // the needle; if it does not fit, degrade by the overflow ratio.
        // This deliberately reproduces the blind spot of the non-ML
        // scheduler.
        let base_rt = 0.05 + transport_secs;
        let fit = host_total_demand.dominant_share(&host.capacity);
        let est_rt = if fit <= 1.0 {
            base_rt
        } else {
            base_rt * fit * fit
        };
        vm.sla.fulfillment(est_rt)
    }

    fn name(&self) -> &'static str {
        if self.booking_factor > 1.0 {
            "BF-OB"
        } else {
            "BF"
        }
    }
}

/// Slots in [`MlOracle`]'s SLA memo (a power of two).
const SLA_MEMO_SLOTS: usize = 4096;

/// Every input [`MlOracle::sla`]'s answer depends on, as exact bit
/// patterns: the five load features, the CPU and memory grant factors
/// and the transport latency.
type SlaKey = [u64; 8];

/// A direct-mapped memo of SLA answers: one entry per slot, a new key
/// evicts the old one. A hit returns the value the suite computed for
/// bit-identical inputs, so it is exact.
struct SlaMemo {
    slots: Box<[Option<(SlaKey, f64)>]>,
}

impl SlaMemo {
    fn new() -> Self {
        SlaMemo {
            slots: vec![None; SLA_MEMO_SLOTS].into_boxed_slice(),
        }
    }

    fn slot(key: &SlaKey) -> usize {
        let mut h = 0u64;
        for &w in key {
            h = (h.rotate_left(5) ^ w).wrapping_mul(0x517c_c1b7_2722_0a95);
        }
        (h >> (64 - SLA_MEMO_SLOTS.trailing_zeros())) as usize
    }
}

/// ML-driven beliefs: the Table-I predictor suite.
///
/// `sla` memoizes its answers. The k-NN SLA query is a pure function of
/// the key's inputs and the suite is immutable, and on a healthy fleet
/// every host under capacity asks the same question about a VM, so most
/// queries in a round repeat. The memo sits behind a mutex taken with
/// `try_lock`: a caller that finds it busy (parallel shards sharing the
/// oracle) computes the answer instead of waiting.
pub struct MlOracle {
    suite: Arc<PredictorSuite>,
    memo: Mutex<SlaMemo>,
}

impl Clone for MlOracle {
    /// Shares the suite; the clone starts with an empty memo.
    fn clone(&self) -> Self {
        MlOracle::new(self.suite.clone())
    }
}

impl MlOracle {
    /// Wraps a trained suite (shared: cloning the oracle shares the
    /// models, which is what parallel experiment arms want).
    pub fn new(suite: Arc<PredictorSuite>) -> Self {
        MlOracle {
            suite,
            memo: Mutex::new(SlaMemo::new()),
        }
    }

    /// Borrow the underlying suite (e.g. to print Table I).
    pub fn suite(&self) -> &PredictorSuite {
        &self.suite
    }

    fn load_features(vm: &VmInfo) -> [f64; 5] {
        [
            vm.load.rps,
            vm.load.kb_in_per_req,
            vm.load.kb_out_per_req,
            vm.load.cpu_ms_per_req,
            vm.load.backlog,
        ]
    }

    /// The k-NN SLA prediction, uncached. Of the demand models only the
    /// CPU one feeds it.
    fn predict_sla(
        &self,
        load: &[f64; 5],
        cpu_factor: f64,
        mem_factor: f64,
        transport_secs: f64,
    ) -> f64 {
        let [rps, _, _, cpu_ms_per_req, backlog] = *load;
        let demand_cpu = self.suite.predict(PredictionTarget::VmCpu, load);
        let granted_cpu = demand_cpu * cpu_factor;
        let features = [
            rps,
            cpu_ms_per_req,
            demand_cpu,
            granted_cpu,
            mem_factor,
            backlog,
            transport_secs,
        ];
        self.suite.predict(PredictionTarget::VmSla, &features)
    }
}

impl QosOracle for MlOracle {
    fn demand(&self, vm: &VmInfo) -> Resources {
        let f = Self::load_features(vm);
        Resources {
            cpu: self.suite.predict(PredictionTarget::VmCpu, &f),
            mem_mb: self.suite.predict(PredictionTarget::VmMem, &f),
            net_in_kbps: self.suite.predict(PredictionTarget::VmIn, &f),
            net_out_kbps: self.suite.predict(PredictionTarget::VmOut, &f),
        }
    }

    fn sla(
        &self,
        vm: &VmInfo,
        host: &HostInfo,
        host_total_demand: &Resources,
        transport_secs: f64,
    ) -> f64 {
        // Predicted grant: proportional share of the host under the
        // tentative total demand.
        let cpu_factor = if host_total_demand.cpu > host.capacity.cpu && host_total_demand.cpu > 0.0
        {
            host.capacity.cpu / host_total_demand.cpu
        } else {
            1.0
        };
        let mem_factor =
            if host_total_demand.mem_mb > host.capacity.mem_mb && host_total_demand.mem_mb > 0.0 {
                host.capacity.mem_mb / host_total_demand.mem_mb
            } else {
                1.0
            };
        let load = Self::load_features(vm);
        let key: SlaKey = [
            load[0].to_bits(),
            load[1].to_bits(),
            load[2].to_bits(),
            load[3].to_bits(),
            load[4].to_bits(),
            cpu_factor.to_bits(),
            mem_factor.to_bits(),
            transport_secs.to_bits(),
        ];
        let slot = SlaMemo::slot(&key);
        if let Ok(memo) = self.memo.try_lock() {
            if let Some((k, sla)) = memo.slots[slot] {
                if k == key {
                    return sla;
                }
            }
        }
        let sla = self.predict_sla(&load, cpu_factor, mem_factor, transport_secs);
        if let Ok(mut memo) = self.memo.try_lock() {
            memo.slots[slot] = Some((key, sla));
        }
        sla
    }

    fn name(&self) -> &'static str {
        "BF-ML"
    }
}

/// Horizon over which [`TrueOracle`] drains a VM's backlog when sizing
/// its demand, seconds: one 10-minute scheduling round.
const DRAIN_SECS: f64 = 600.0;

/// Ground-truth beliefs (ablation upper bound): the deterministic RT
/// model, without jitter, over a 10-minute horizon.
#[derive(Clone, Debug, Default)]
pub struct TrueOracle;

impl TrueOracle {
    /// The true oracle.
    pub fn new() -> Self {
        TrueOracle
    }
}

impl QosOracle for TrueOracle {
    fn demand(&self, vm: &VmInfo) -> Resources {
        required_resources(&vm.load, &vm.perf, DRAIN_SECS)
    }

    fn sla(
        &self,
        vm: &VmInfo,
        host: &HostInfo,
        host_total_demand: &Resources,
        transport_secs: f64,
    ) -> f64 {
        // The VM's share of a host holding two demands, the VM and
        // everyone else, as the tick loop's share rules compute it; only
        // the VM's own grant and burst are built. The total is the sum
        // of that pair, not `host_total_demand`: `rest` saturates at
        // zero, so the two differ when the total is below the VM's own
        // demand.
        let required = self.demand(vm);
        let rest = host_total_demand.saturating_sub(&required);
        let total: Resources = [required, rest].into_iter().sum();
        let granted = ProportionalShare::new(&total, &host.capacity).grant(&required);
        let burst = WorkConservingShare::new(&total, &host.capacity).burst(&required);
        let rt =
            rt_core(&vm.load, &vm.perf, &required, &granted, &burst, DRAIN_SECS).rt_process_secs;
        vm.sla.fulfillment(rt + transport_secs)
    }

    fn name(&self) -> &'static str {
        "BF-True"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::synthetic::problem;

    #[test]
    fn monitor_oracle_books_observation() {
        let p = problem(2, 2, 50.0);
        let plain = MonitorOracle::plain();
        let ob = MonitorOracle::overbooked();
        let d1 = plain.demand(&p.vms[0]);
        let d2 = ob.demand(&p.vms[0]);
        assert!((d2.cpu - 2.0 * d1.cpu).abs() < 1e-9);
        assert_eq!(plain.name(), "BF");
        assert_eq!(ob.name(), "BF-OB");
    }

    #[test]
    fn monitor_oracle_blind_below_capacity() {
        let p = problem(1, 1, 50.0);
        let o = MonitorOracle::plain();
        let host = &p.hosts[0];
        // Anything that "fits" looks perfect apart from latency.
        let light = Resources::new(100.0, 1024.0, 10.0, 10.0);
        let sla = o.sla(&p.vms[0], host, &light, 0.01);
        assert_eq!(sla, 1.0);
        // Overflow degrades.
        let heavy = Resources::new(800.0, 1024.0, 10.0, 10.0);
        assert!(o.sla(&p.vms[0], host, &heavy, 0.01) < 1.0);
    }

    #[test]
    fn monitor_oracle_sees_latency() {
        let p = problem(1, 1, 50.0);
        let o = MonitorOracle::plain();
        let host = &p.hosts[0];
        let d = Resources::new(100.0, 1024.0, 10.0, 10.0);
        let near = o.sla(&p.vms[0], host, &d, 0.01);
        let far = o.sla(&p.vms[0], host, &d, 0.40);
        assert!(near > far, "remote clients must hurt estimated SLA");
    }

    #[test]
    fn true_oracle_matches_ground_truth_shape() {
        let p = problem(1, 1, 50.0);
        let o = TrueOracle::new();
        let host = &p.hosts[0];
        let d = o.demand(&p.vms[0]);
        // Lightly loaded host: excellent SLA.
        let good = o.sla(&p.vms[0], host, &d, 0.01);
        assert!(good > 0.95, "sla {good}");
        // Crushed host: terrible SLA.
        let crushed = Resources::new(1600.0, 8192.0, 100.0, 400.0);
        let bad = o.sla(&p.vms[0], host, &crushed, 0.01);
        assert!(bad < good, "contention must reduce SLA: {bad} vs {good}");
    }

    /// The SLA answer as `TrueOracle::sla` composed it from the
    /// whole-host share rules and the full tick model: both shares of
    /// the pair [vm, everyone else] into vectors, then `evaluate`.
    fn composed_true_sla(
        oracle: &TrueOracle,
        vm: &VmInfo,
        host: &HostInfo,
        total: &Resources,
        transport_secs: f64,
    ) -> f64 {
        use pamdc_perf::contention::{share_proportionally_into, share_work_conserving_into};
        let required = oracle.demand(vm);
        let demands = [required, total.saturating_sub(&required)];
        let (mut granted, mut burst) = (Vec::new(), Vec::new());
        share_proportionally_into(&demands, host.capacity, &mut granted);
        share_work_conserving_into(&demands, host.capacity, &mut burst);
        let outcome = pamdc_perf::rt::evaluate(
            &vm.load,
            &vm.perf,
            &required,
            &granted[0],
            &burst[0],
            DRAIN_SECS,
            None,
        );
        vm.sla.fulfillment(outcome.rt_process_secs + transport_secs)
    }

    #[test]
    fn true_oracle_matches_composed_model_bit_for_bit() {
        let mut p = problem(12, 2, 50.0);
        for (i, vm) in p.vms.iter_mut().enumerate() {
            vm.load.rps = 5.0 + 40.0 * i as f64;
            vm.load.backlog = 100.0 * (i % 3) as f64;
            if i % 4 == 3 {
                // A VM with no network demand: unbounded burst there.
                vm.load.kb_in_per_req = 0.0;
                vm.load.kb_out_per_req = 0.0;
            }
        }
        let cap = p.hosts[0].capacity;
        let mut cases = [0usize; 4];
        let o = TrueOracle::new();
        for vm in &p.vms {
            let d = o.demand(vm);
            let totals = [
                // Under capacity, with the VM's own demand inside.
                d + Resources::new(0.2 * cap.cpu, 0.2 * cap.mem_mb, 10.0, 10.0),
                // CPU overcommitted.
                d + Resources::new(1.5 * cap.cpu, 0.1 * cap.mem_mb, 10.0, 10.0),
                // Memory overcommitted.
                d + Resources::new(0.1 * cap.cpu, 2.0 * cap.mem_mb, 10.0, 10.0),
                // Below the VM's own demand: the rest saturates at zero.
                d * 0.5,
                Resources::ZERO,
            ];
            for total in totals {
                for transport in [0.0, 0.05, 0.3] {
                    let want = composed_true_sla(&o, vm, &p.hosts[0], &total, transport);
                    let got = o.sla(vm, &p.hosts[0], &total, transport);
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "vm {:?} total {total:?}",
                        vm.id
                    );
                }
                let sum = d + total.saturating_sub(&d);
                cases[0] += usize::from(sum.fits_within(&cap));
                cases[1] += usize::from(sum.cpu > cap.cpu);
                cases[2] += usize::from(sum.mem_mb > cap.mem_mb);
                cases[3] += usize::from(!d.fits_within(&total));
            }
        }
        assert!(
            cases.iter().all(|&n| n > 0),
            "every regime is covered: {cases:?}"
        );
    }

    /// The SLA answer as `MlOracle::sla` computed it before the memo:
    /// all four demand predictions, then the k-NN query.
    fn uncached_sla(
        oracle: &MlOracle,
        vm: &VmInfo,
        host: &HostInfo,
        total: &Resources,
        transport_secs: f64,
    ) -> f64 {
        let demand = oracle.demand(vm);
        let cpu_factor = if total.cpu > host.capacity.cpu && total.cpu > 0.0 {
            host.capacity.cpu / total.cpu
        } else {
            1.0
        };
        let mem_factor = if total.mem_mb > host.capacity.mem_mb && total.mem_mb > 0.0 {
            host.capacity.mem_mb / total.mem_mb
        } else {
            1.0
        };
        let features = [
            vm.load.rps,
            vm.load.cpu_ms_per_req,
            demand.cpu,
            demand.cpu * cpu_factor,
            mem_factor,
            vm.load.backlog,
            transport_secs,
        ];
        oracle.suite().predict(PredictionTarget::VmSla, &features)
    }

    /// Queries that repeat, on hosts under capacity and overcommitted in
    /// CPU, memory or both, with more distinct keys than memo slots. For
    /// each of `sla`'s inputs, some queries differ in that input alone.
    fn queries() -> (crate::problem::Problem, Vec<(usize, usize, Resources, f64)>) {
        let mut p = problem(40, 3, 50.0);
        // Groups of five VMs: the first is the group's base load, each
        // other changes one load feature.
        for (i, vm) in p.vms.iter_mut().enumerate() {
            let l = &mut vm.load;
            l.rps = 10.0 + 30.0 * (i / 5) as f64;
            l.backlog = 1.0;
            match i % 5 {
                1 => l.kb_in_per_req += 2.0,
                2 => l.kb_out_per_req += 8.0,
                3 => l.cpu_ms_per_req += 5.0,
                4 => l.backlog += 3.0,
                _ => {}
            }
        }
        let cap = p.hosts[0].capacity;
        let totals = [
            Resources::new(0.5 * cap.cpu, 0.5 * cap.mem_mb, 10.0, 10.0),
            Resources::new(1.7 * cap.cpu, 0.5 * cap.mem_mb, 10.0, 10.0),
            Resources::new(0.5 * cap.cpu, 2.5 * cap.mem_mb, 10.0, 10.0),
            Resources::new(3.0 * cap.cpu, 1.2 * cap.mem_mb, 10.0, 10.0),
        ];
        let mut q = Vec::new();
        for round in 0..3 {
            for vm in 0..p.vms.len() {
                for host in 0..p.hosts.len() {
                    for total in totals {
                        let transport = 0.1 + 0.2 * (vm % 3) as f64;
                        q.push((vm, host, total, transport));
                        if round == 0 && host == 0 {
                            // One distinct key per (vm, total, e): more
                            // than the memo has slots.
                            for e in 1..=32 {
                                q.push((vm, host, total, transport + e as f64 * 0.02));
                            }
                        }
                    }
                }
            }
        }
        (p, q)
    }

    #[test]
    fn ml_oracle_memo_matches_uncached_bit_for_bit() {
        let oracle = MlOracle::new(crate::problem::synthetic::ml_suite());
        let (p, q) = queries();
        const { assert!(40 * 4 * 32 > SLA_MEMO_SLOTS) };
        let mut overcommitted = 0;
        for &(vm, host, total, transport) in &q {
            let (vm, host) = (&p.vms[vm], &p.hosts[host]);
            let want = uncached_sla(&oracle, vm, host, &total, transport);
            let got = oracle.sla(vm, host, &total, transport);
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "vm {:?} total {total:?}",
                vm.id
            );
            overcommitted += usize::from(total.cpu > host.capacity.cpu);
        }
        assert!(overcommitted > 0);
        // A clone shares the suite and starts with an empty memo.
        let clone = oracle.clone();
        let (vm, host, total, transport) = q[0];
        assert_eq!(
            clone
                .sla(&p.vms[vm], &p.hosts[host], &total, transport)
                .to_bits(),
            oracle
                .sla(&p.vms[vm], &p.hosts[host], &total, transport)
                .to_bits()
        );
    }

    #[test]
    fn ml_oracle_memo_is_exact_under_concurrent_callers() {
        let oracle = MlOracle::new(crate::problem::synthetic::ml_suite());
        let (p, q) = queries();
        let want: Vec<u64> = q
            .iter()
            .map(|&(vm, host, total, t)| {
                uncached_sla(&oracle, &p.vms[vm], &p.hosts[host], &total, t).to_bits()
            })
            .collect();
        // Every worker walks the whole query list, so callers meet on
        // the memo's lock.
        let got = pamdc_simcore::par::parallel_map((0..8).collect(), |shift: usize| {
            (0..q.len())
                .map(|i| {
                    let j = (i + shift * 37) % q.len();
                    let (vm, host, total, t) = q[j];
                    (
                        j,
                        oracle.sla(&p.vms[vm], &p.hosts[host], &total, t).to_bits(),
                    )
                })
                .collect::<Vec<_>>()
        });
        for (i, bits) in got.into_iter().flatten() {
            assert_eq!(bits, want[i], "query {i}");
        }
        // A caller that finds the memo taken computes the answer itself.
        let held = oracle.memo.lock().expect("memo lock");
        for (&(vm, host, total, t), &bits) in q.iter().zip(&want).step_by(13) {
            assert_eq!(
                oracle.sla(&p.vms[vm], &p.hosts[host], &total, t).to_bits(),
                bits
            );
        }
        drop(held);
    }

    #[test]
    fn true_oracle_demand_reflects_load() {
        let mut p = problem(1, 1, 50.0);
        let o = TrueOracle::new();
        let lo = o.demand(&p.vms[0]);
        p.vms[0].load.rps = 400.0;
        let hi = o.demand(&p.vms[0]);
        assert!(hi.cpu > 4.0 * lo.cpu);
    }
}
