//! Output checks. Each one compares the engine's output with a value
//! the benchmark computes on its own, or with a property the method
//! must have; none compares with a stored copy of earlier output.

use crate::workloads::{Workload, TABLE1_FLOORS, TICK};
use pamdc_core::engine::TickOutcome;
use pamdc_core::scenario::Scenario;
use pamdc_core::simulation::RunOutcome;
use pamdc_econ::billing::BillingPolicy;
use pamdc_infra::ids::{PmId, VmId};
use pamdc_infra::pm::PmState;

/// Failed checks, as readable lines.
#[derive(Default)]
pub struct Checks {
    pub failures: Vec<String>,
}

/// Relative tolerance for sums the benchmark recomputes in another
/// order than the engine.
const REL_TOL: f64 = 1e-9;

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= REL_TOL * a.abs().max(b.abs()).max(1.0)
}

/// Per-host power state, taken before a step: draws during the step's
/// analysis lie between what the host could draw in its states before
/// and after the step.
pub fn power_states(scenario: &Scenario) -> Vec<PmState> {
    scenario.cluster.pms().iter().map(|pm| pm.state()).collect()
}

fn drawing(state: PmState) -> bool {
    !matches!(state, PmState::Off | PmState::Failed { .. })
}

impl Checks {
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }

    pub fn expect(&mut self, holds: bool, what: impl FnOnce() -> String) {
        if !holds {
            self.failures.push(what());
        }
    }

    /// Checks one tick against the world around it.
    pub fn tick(
        &mut self,
        workload: Workload,
        before: &[PmState],
        after: &Scenario,
        out: &TickOutcome,
        expected_rps: Option<f64>,
    ) {
        let t = out.tick_idx;
        if let Some(rps) = expected_rps {
            self.expect(close(out.rps, rps), || {
                format!(
                    "tick {t}: engine rps {} != generated trace rps {rps}",
                    out.rps
                )
            });
        }

        // Facility draw: hosts on throughout draw at least idle; hosts
        // that drew at any point draw at most full load (or the
        // boot/shutdown draw).
        let (mut low, mut high) = (0.0, 0.0);
        for (pm, &was) in after.cluster.pms().iter().zip(before) {
            let now = pm.state();
            if was == PmState::On && now == PmState::On {
                low += pm.facility_watts(0.0);
            }
            if drawing(was) || drawing(now) {
                let full = pm.spec.power.facility_watts(pm.spec.capacity.cpu);
                high += full.max(pm.spec.power.transition_watts());
            }
        }
        self.expect(
            out.watts >= low * (1.0 - REL_TOL) && out.watts <= high * (1.0 + REL_TOL),
            || format!("tick {t}: {} W outside [{low}, {high}] W", out.watts),
        );

        if let Some(round) = &out.round {
            self.placement(t, after);
            if workload == Workload::StaticFleet {
                self.expect(round.migrations == 0, || {
                    format!("tick {t}: static round migrated {} VMs", round.migrations)
                });
            }
        }
        if workload == Workload::StaticFleet {
            let pms = after.cluster.pm_count();
            self.expect(out.active_pms == pms, || {
                format!("tick {t}: {} of {pms} hosts powered", out.active_pms)
            });
        }
    }

    /// Every VM sits on exactly one existing host.
    fn placement(&mut self, t: u64, world: &Scenario) {
        let cluster = &world.cluster;
        let mut seen = vec![0usize; cluster.vm_count()];
        for pm in cluster.pms() {
            for vm in pm.hosted() {
                match seen.get_mut(vm.index()) {
                    Some(n) => *n += 1,
                    None => self.failures.push(format!("tick {t}: unknown VM {vm:?}")),
                }
            }
        }
        for (vm, &n) in seen.iter().enumerate() {
            let placed = cluster.placement(VmId::from_index(vm));
            let on_host = placed.is_some_and(|pm: PmId| {
                pm.index() < cluster.pm_count()
                    && cluster.pm(pm).hosted().contains(&VmId::from_index(vm))
            });
            self.expect(n == 1 && on_host, || {
                format!("tick {t}: VM {vm} hosted {n} times, placement {placed:?}")
            });
        }
    }

    /// Checks the run's totals against the benchmark's own sums.
    pub fn run(&mut self, world: &WorldFacts, ticks: &[TickOutcome], outcome: &RunOutcome) {
        let hours = TICK.as_hours_f64();
        let own_kwh: f64 = ticks.iter().map(|t| t.watts * hours).sum::<f64>() / 1000.0;
        let kwh = outcome.total_wh / 1000.0;
        self.expect(close(kwh, own_kwh), || {
            format!("energy {kwh} kWh != sum of tick draws {own_kwh} kWh")
        });

        let p = &outcome.profit;
        let vm_hours = world.vms as f64 * hours * ticks.len() as f64;
        let cap = world.billing.vm_eur_per_hour * vm_hours;
        self.expect(p.revenue_eur <= cap * (1.0 + REL_TOL), || {
            format!(
                "revenue {} EUR above rate x VM-hours {cap} EUR",
                p.revenue_eur
            )
        });
        let own_profit = p.revenue_eur - p.energy_eur - p.migration_eur - p.network_eur;
        self.expect(close(p.profit_eur(), own_profit), || {
            format!(
                "profit {} EUR != revenue - costs {own_profit} EUR",
                p.profit_eur()
            )
        });

        let round_migrations: u64 = ticks
            .iter()
            .filter_map(|t| t.round.as_ref().map(|r| r.migrations))
            .sum();
        self.expect(outcome.migrations == round_migrations, || {
            format!(
                "{} migrations reported, rounds started {round_migrations}",
                outcome.migrations
            )
        });
        let fees = round_migrations as f64 * world.billing.migration_fee_eur;
        self.expect(close(p.migration_eur, fees), || {
            format!(
                "migration cost {} EUR != fee x migrations {fees} EUR",
                p.migration_eur
            )
        });
    }

    /// The learned oracle clears its Table-I floors.
    pub fn table1(&mut self, correlations: &[(String, f64)]) {
        self.expect(correlations.len() == TABLE1_FLOORS.len(), || {
            format!(
                "{} Table-I predictors, expected {}",
                correlations.len(),
                TABLE1_FLOORS.len()
            )
        });
        for ((name, corr), (floor_name, floor)) in correlations.iter().zip(TABLE1_FLOORS) {
            self.expect(name == floor_name && *corr >= floor, || {
                format!("{name}: held-out correlation {corr} below the {floor_name} floor {floor}")
            });
        }
    }

    /// Two runs of one world give bit-identical simulated outcomes and
    /// counters (`what` names the pair).
    pub fn identical(&mut self, what: &str, a: &Run, b: &Run) {
        let first_diff = a.ticks.iter().zip(&b.ticks).position(|(x, y)| x != y);
        self.expect(
            a.ticks.len() == b.ticks.len() && first_diff.is_none(),
            || format!("{what}: tick outcomes differ from tick {first_diff:?}"),
        );
        let (x, y) = (&a.outcome, &b.outcome);
        let same = x.profit.revenue_eur.to_bits() == y.profit.revenue_eur.to_bits()
            && x.profit.profit_eur().to_bits() == y.profit.profit_eur().to_bits()
            && x.total_wh.to_bits() == y.total_wh.to_bits()
            && x.mean_sla.to_bits() == y.mean_sla.to_bits()
            && x.migrations == y.migrations
            && x.dropped_requests.to_bits() == y.dropped_requests.to_bits()
            && x.served_requests.to_bits() == y.served_requests.to_bits();
        self.expect(same, || format!("{what}: simulated outcomes differ"));
        let obs = |o: &RunOutcome| -> Vec<(String, u64)> {
            o.obs_metrics
                .iter()
                .map(|(name, v)| (name.clone(), v.to_bits()))
                .collect()
        };
        self.expect(obs(x) == obs(y), || {
            format!("{what}: obs.* counters differ")
        });
    }
}

/// The parts of a world the totals are checked against, kept past
/// `Controller::finish`.
pub struct WorldFacts {
    pub vms: usize,
    pub billing: BillingPolicy,
}

impl WorldFacts {
    pub fn of(world: &Scenario) -> WorldFacts {
        WorldFacts {
            vms: world.cluster.vm_count(),
            billing: world.billing.clone(),
        }
    }
}

/// What one simulated day produced.
pub struct Run {
    pub ticks: Vec<TickOutcome>,
    pub outcome: RunOutcome,
}
