//! The multi-DC simulation loop — Monitor, Analyze, Plan, Execute.
//!
//! One-minute ticks drive the world: workload samples arrive through the
//! gateways, the ground-truth performance model resolves contention and
//! response times per host, monitors record (noisily) what they can see,
//! energy and revenue are billed, and every N ticks the configured
//! [`PlacementPolicy`](crate::policy::PlacementPolicy) re-plans placements, triggering migrations and
//! power management. This is the substrate on which every figure and
//! table of the paper is regenerated.
//!
//! The loop body itself lives in [`crate::engine::Controller`] — a
//! public, resumable stepper whose
//! [`run_for`](crate::engine::Controller::run_for) is the batch path
//! every experiment arm goes through. This module holds the run knobs
//! ([`RunConfig`]) and the folded result ([`RunOutcome`]).

use pamdc_econ::billing::ProfitSnapshot;
use pamdc_green::carbon::EnergyBreakdown;
use pamdc_simcore::prelude::*;

/// Simulation-run knobs.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Tick length (default 1 simulated minute).
    pub tick: SimDuration,
    /// Scheduling round cadence, in ticks (the paper: every 10 minutes).
    pub round_every_ticks: u64,
    /// Record full time series (disable for throughput-oriented sweeps).
    pub keep_series: bool,
    /// Minimum ticks between two migrations of the same VM (anti-thrash
    /// cooldown; migrations black out service, so rapid re-migration
    /// compounds queue debt).
    pub migration_cooldown_ticks: u64,
    /// Planning horizon, in ticks, over which the profit function
    /// amortizes each round's placement decisions. `None` (the paper's
    /// implicit choice) uses the round cadence — maximally myopic: a
    /// migration must pay for itself within one round. Energy-chasing
    /// policies (follow-the-sun, price shocks) need a longer horizon,
    /// because a ~10-second migration blackout buys *hours* of cheaper
    /// energy, not ten minutes.
    pub plan_horizon_ticks: Option<u64>,
    /// Buffer a JSONL event trace for this run (span timings + counter
    /// deltas, drained into [`RunOutcome::trace_lines`]). Off by
    /// default; tracing never influences decisions — wall-clock stays
    /// out of every report (see `docs/OBSERVABILITY.md`).
    pub trace: bool,
    /// Emit a stderr heartbeat every simulated hour.
    pub progress: bool,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            tick: SimDuration::from_mins(1),
            round_every_ticks: 10,
            keep_series: true,
            migration_cooldown_ticks: 10,
            plan_horizon_ticks: None,
            trace: false,
            progress: false,
        }
    }
}

/// Everything measured over one run.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// The policy that drove the run.
    pub policy_name: String,
    /// Scenario label.
    pub scenario_name: String,
    /// Recorded time series (`sla`, `watts`, `active_pms`, `rps`,
    /// `migrations`, and `vm{i}_dc` placement traces).
    pub series: SeriesSet,
    /// Money totals.
    pub profit: ProfitSnapshot,
    /// Wall-clock span simulated.
    pub duration: SimDuration,
    /// Mean SLA over all VM-ticks.
    pub mean_sla: f64,
    /// Time-average facility draw, watts.
    pub avg_watts: f64,
    /// Total energy, watt-hours.
    pub total_wh: f64,
    /// Migrations executed.
    pub migrations: u64,
    /// Requests dropped at gateways.
    pub dropped_requests: f64,
    /// Requests served in total.
    pub served_requests: f64,
    /// Mean count of powered hosts.
    pub avg_active_pms: f64,
    /// Green/brown energy split and emissions over the run.
    pub energy: EnergyBreakdown,
    /// The obs registry flush: every counter, gauge and histogram
    /// bucket of the run's collector, sorted by name (fixed schema;
    /// deterministic at any `--jobs` budget — wall-clock never enters).
    pub obs_metrics: Vec<(String, f64)>,
    /// Buffered JSONL trace (empty unless [`RunConfig::trace`]); the
    /// experiment runner flushes it to the ambient sink in arm order.
    pub trace_lines: Vec<String>,
}

impl RunOutcome {
    /// Net €/h over the run (Table III's "Avg Euro/h").
    pub fn eur_per_hour(&self) -> f64 {
        let h = self.duration.as_hours_f64();
        if h <= 0.0 {
            0.0
        } else {
            self.profit.profit_eur() / h
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Controller;
    use crate::policy::{BestFitPolicy, PlacementPolicy, StaticPolicy};
    use crate::scenario::ScenarioBuilder;
    use pamdc_sched::oracle::TrueOracle;

    fn short_run(policy: Box<dyn PlacementPolicy>) -> RunOutcome {
        let scenario = ScenarioBuilder::paper_intra_dc().vms(3).seed(5).build();
        let (outcome, _) = Controller::new(scenario, policy).run_for(SimDuration::from_hours(2));
        outcome
    }

    #[test]
    fn static_run_completes_with_sane_metrics() {
        let o = short_run(Box::new(StaticPolicy(TrueOracle::new())));
        assert_eq!(o.migrations, 0, "static never migrates");
        assert!(o.mean_sla > 0.0 && o.mean_sla <= 1.0, "sla {}", o.mean_sla);
        assert!(o.avg_watts > 0.0, "hosts draw power");
        assert!(o.total_wh > 0.0);
        assert!(o.profit.revenue_eur > 0.0);
        assert!(o.served_requests > 0.0);
        assert!(!o.series.is_empty());
    }

    #[test]
    fn bestfit_run_is_deterministic() {
        let a = short_run(Box::new(BestFitPolicy::new(TrueOracle::new())));
        let b = short_run(Box::new(BestFitPolicy::new(TrueOracle::new())));
        assert_eq!(a.mean_sla.to_bits(), b.mean_sla.to_bits());
        assert_eq!(a.total_wh.to_bits(), b.total_wh.to_bits());
        assert_eq!(a.migrations, b.migrations);
    }

    #[test]
    fn energy_accounting_is_consistent() {
        let o = short_run(Box::new(StaticPolicy(TrueOracle::new())));
        // avg_watts * hours ≈ total_wh.
        let expect = o.avg_watts * o.duration.as_hours_f64();
        assert!(
            (o.total_wh - expect).abs() < 0.02 * expect,
            "wh {} vs avg*h {}",
            o.total_wh,
            expect
        );
        // Ledger energy cost positive and below revenue cap of the run.
        assert!(o.profit.energy_eur > 0.0);
    }

    #[test]
    fn flat_environment_books_all_brown() {
        let o = short_run(Box::new(StaticPolicy(TrueOracle::new())));
        assert_eq!(o.energy.green_wh, 0.0, "paper default has no renewables");
        assert!((o.energy.brown_wh - o.total_wh).abs() < 1e-6 * o.total_wh.max(1.0));
        // Barcelona grid at 270 g/kWh.
        assert!((o.energy.intensity_g_per_kwh() - 270.0).abs() < 1e-6);
        // Energy euros = kWh * flat Barcelona price.
        let expect = o.total_wh / 1000.0 * 0.1513;
        assert!(
            (o.profit.energy_eur - expect).abs() < 1e-9 * expect.max(1.0),
            "booked {} vs flat-price {}",
            o.profit.energy_eur,
            expect
        );
    }

    #[test]
    fn solar_environment_books_green_and_discounts() {
        let run = |solar: bool| {
            let mut builder = ScenarioBuilder::paper_intra_dc().vms(3).seed(5);
            if solar {
                builder = builder.energy(|cluster, env| {
                    let pms = cluster.dcs()[0].pms().len() as f64;
                    env.with_solar_at(cluster, 0, 100.0 * pms, 1.0, 2, 9)
                });
            }
            let scenario = builder.build();
            let policy = Box::new(StaticPolicy(TrueOracle::new()));
            // Run across local midday (Barcelona +1: 11:00 UTC = noon).
            Controller::new(scenario, policy)
                .run_for(SimDuration::from_hours(24))
                .0
        };
        let brown = run(false);
        let green = run(true);
        assert!(
            green.energy.green_wh > 0.0,
            "solar must cover daytime watts"
        );
        assert!(
            green.profit.energy_eur < brown.profit.energy_eur,
            "green energy is cheaper: {} vs {}",
            green.profit.energy_eur,
            brown.profit.energy_eur
        );
        assert!(green.energy.intensity_g_per_kwh() < brown.energy.intensity_g_per_kwh());
        // Same policy, same workload: the physical energy is identical,
        // only its sourcing differs.
        assert!((green.total_wh - brown.total_wh).abs() < 1e-6);
        assert!((green.energy.total_wh() - green.total_wh).abs() < 1e-6);
    }

    #[test]
    fn dynamic_policy_recovers_from_host_failure() {
        // Crash the busiest host 30 minutes in, repaired after 4 hours.
        // A reactive Best-Fit evacuates its VMs at the next round; the
        // static baseline leaves them dark until repair.
        let run = |policy: Box<dyn PlacementPolicy>| {
            let scenario = ScenarioBuilder::paper_intra_dc()
                .vms(3)
                .seed(5)
                .fault(0, SimTime::from_mins(30), SimDuration::from_hours(4))
                .build();
            Controller::new(scenario, policy)
                .run_for(SimDuration::from_hours(3))
                .0
        };
        let dynamic = run(Box::new(BestFitPolicy::new(TrueOracle::new())));
        let frozen = run(Box::new(StaticPolicy(TrueOracle::new())));
        assert!(dynamic.migrations > 0, "evacuation requires migrations");
        assert!(
            dynamic.mean_sla > frozen.mean_sla + 0.1,
            "reactive {} must clearly beat static {} under failure",
            dynamic.mean_sla,
            frozen.mean_sla
        );
    }

    #[test]
    fn priced_network_books_transit() {
        let run = |eur_per_gb: f64| {
            let mut scenario = ScenarioBuilder::paper_multi_dc().vms(5).seed(5).build();
            scenario.cluster.net.eur_per_gb_interdc = eur_per_gb;
            let policy = Box::new(StaticPolicy(TrueOracle::new()));
            Controller::new(scenario, policy)
                .run_for(SimDuration::from_hours(2))
                .0
        };
        let free = run(0.0);
        let priced = run(0.05);
        assert_eq!(free.profit.network_eur, 0.0, "paper network is free");
        // Static multi-DC placement leaves remote flows (5 VMs over 4
        // DCs: at least the 5th VM serves some remote region), so a
        // priced network must book transit.
        assert!(priced.profit.network_eur > 0.0);
        assert!(priced.profit.profit_eur() < free.profit.profit_eur());
        // Identical physics otherwise.
        assert!((priced.total_wh - free.total_wh).abs() < 1e-9);
        assert!((priced.mean_sla - free.mean_sla).abs() < 1e-12);
    }

    #[test]
    fn series_share_time_axis() {
        let o = short_run(Box::new(StaticPolicy(TrueOracle::new())));
        let sla = o.series.get("sla").unwrap();
        let watts = o.series.get("watts").unwrap();
        assert_eq!(sla.len(), watts.len());
        assert_eq!(sla.len(), 120, "one sample per minute for 2 h");
    }
}
