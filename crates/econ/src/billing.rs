//! Revenue, penalties and the profit ledger — the paper's objective
//! function made bankable:
//!
//! ```text
//! Profit = Σ_vm f_revenue(SLA)  −  Σ_vm f_penalty(migrations)  −  Σ_pm f_energycost(Power)
//! ```
//!
//! The ledger also carries a network-cost account (per-GB inter-DC
//! transfer pricing), which the paper defers to future work ("the
//! inclusion of more operational costs like networking costs and
//! bandwidth management") and which defaults to zero so the paper's
//! original three-term objective is reproduced exactly.

use pamdc_simcore::time::{SimDuration, SimTime};

/// The provider's pricing policy.
#[derive(Clone, Debug)]
pub struct BillingPolicy {
    /// Revenue per VM-hour at SLA = 1 (€).
    pub vm_eur_per_hour: f64,
    /// Revenue scaling with SLA fulfillment: `revenue = rate · sla^gamma`.
    /// γ = 1 is linear (the paper's implicit choice).
    pub sla_gamma: f64,
    /// Extra fixed penalty per migration (€), on top of the revenue lost
    /// while the VM is frozen (which the SLA-0 blackout already charges).
    pub migration_fee_eur: f64,
}

impl Default for BillingPolicy {
    fn default() -> Self {
        BillingPolicy {
            vm_eur_per_hour: crate::prices::PAPER_VM_EUR_PER_HOUR,
            sla_gamma: 1.0,
            migration_fee_eur: 0.0,
        }
    }
}

impl BillingPolicy {
    /// Revenue earned by one VM over `dt` at SLA level `sla`.
    ///
    /// At the linear γ = 1 every builtin uses, `sla^1` is `sla` itself,
    /// so the schedulers' scoring loops skip the `powf` (tens of
    /// nanoseconds a call) and read the same bits.
    pub fn revenue(&self, sla: f64, dt: SimDuration) -> f64 {
        let sla = sla.clamp(0.0, 1.0);
        let earned = if self.sla_gamma == 1.0 {
            sla
        } else {
            sla.powf(self.sla_gamma)
        };
        self.vm_eur_per_hour * earned * dt.as_hours_f64()
    }
}

/// Running profit accounts for one experiment run.
#[derive(Clone, Debug, Default)]
pub struct ProfitLedger {
    revenue_eur: f64,
    energy_eur: f64,
    migration_eur: f64,
    network_eur: f64,
    migrations: u64,
    vm_hours: f64,
}

/// A point-in-time copy of the ledger.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ProfitSnapshot {
    /// Cumulative customer revenue, €.
    pub revenue_eur: f64,
    /// Cumulative electricity spend, €.
    pub energy_eur: f64,
    /// Cumulative migration fees, €.
    pub migration_eur: f64,
    /// Cumulative inter-DC transfer charges, €.
    pub network_eur: f64,
    /// Count of migrations billed.
    pub migrations: u64,
    /// VM-hours served.
    pub vm_hours: f64,
}

impl ProfitSnapshot {
    /// Net profit, €.
    pub fn profit_eur(&self) -> f64 {
        self.revenue_eur - self.energy_eur - self.migration_eur - self.network_eur
    }
}

impl ProfitLedger {
    /// A zeroed ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Books one VM's revenue for a tick.
    pub fn book_revenue(&mut self, policy: &BillingPolicy, sla: f64, dt: SimDuration) {
        self.revenue_eur += policy.revenue(sla, dt);
        self.vm_hours += dt.as_hours_f64();
    }

    /// Books electricity consumed.
    pub fn book_energy(&mut self, eur: f64) {
        debug_assert!(eur >= 0.0, "energy cost cannot be negative");
        self.energy_eur += eur;
    }

    /// Books one migration's fixed fee.
    pub fn book_migration(&mut self, policy: &BillingPolicy) {
        self.migration_eur += policy.migration_fee_eur;
        self.migrations += 1;
    }

    /// Books inter-DC transfer charges (client traffic or image
    /// shipping).
    pub fn book_network(&mut self, eur: f64) {
        debug_assert!(eur >= 0.0, "network cost cannot be negative");
        self.network_eur += eur;
    }

    /// Snapshot of the current totals.
    pub fn snapshot(&self) -> ProfitSnapshot {
        ProfitSnapshot {
            revenue_eur: self.revenue_eur,
            energy_eur: self.energy_eur,
            migration_eur: self.migration_eur,
            network_eur: self.network_eur,
            migrations: self.migrations,
            vm_hours: self.vm_hours,
        }
    }

    /// Mean profit per hour over the elapsed `span` (the paper's Table
    /// III "Avg Euro/h" column).
    pub fn eur_per_hour(&self, span: SimDuration) -> f64 {
        let h = span.as_hours_f64();
        if h <= 0.0 {
            0.0
        } else {
            self.snapshot().profit_eur() / h
        }
    }

    /// Merges another ledger (parallel sub-runs).
    pub fn merge(&mut self, other: &ProfitLedger) {
        self.revenue_eur += other.revenue_eur;
        self.energy_eur += other.energy_eur;
        self.migration_eur += other.migration_eur;
        self.network_eur += other.network_eur;
        self.migrations += other.migrations;
        self.vm_hours += other.vm_hours;
    }
}

/// Span bookkeeping helper: elapsed simulated span between two instants.
pub fn span(from: SimTime, to: SimTime) -> SimDuration {
    to - from
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn revenue_scales_with_sla_and_time() {
        let p = BillingPolicy::default();
        let hour = SimDuration::from_hours(1);
        assert!((p.revenue(1.0, hour) - 0.17).abs() < 1e-12);
        assert!((p.revenue(0.5, hour) - 0.085).abs() < 1e-12);
        assert!((p.revenue(1.0, SimDuration::from_mins(30)) - 0.085).abs() < 1e-12);
        assert_eq!(p.revenue(0.0, hour), 0.0);
        // Clamped.
        assert!((p.revenue(1.5, hour) - 0.17).abs() < 1e-12);
    }

    #[test]
    fn gamma_bends_the_curve() {
        let p = BillingPolicy {
            sla_gamma: 2.0,
            ..Default::default()
        };
        let hour = SimDuration::from_hours(1);
        assert!((p.revenue(0.5, hour) - 0.17 * 0.25).abs() < 1e-12);
    }

    #[test]
    fn ledger_accumulates_and_snapshots() {
        let policy = BillingPolicy {
            migration_fee_eur: 0.01,
            ..Default::default()
        };
        let mut l = ProfitLedger::new();
        l.book_revenue(&policy, 1.0, SimDuration::from_hours(2));
        l.book_energy(0.05);
        l.book_migration(&policy);
        l.book_network(0.02);
        let s = l.snapshot();
        assert!((s.revenue_eur - 0.34).abs() < 1e-12);
        assert!((s.energy_eur - 0.05).abs() < 1e-12);
        assert!((s.migration_eur - 0.01).abs() < 1e-12);
        assert!((s.network_eur - 0.02).abs() < 1e-12);
        assert_eq!(s.migrations, 1);
        assert!((s.profit_eur() - 0.26).abs() < 1e-12);
        assert!((s.vm_hours - 2.0).abs() < 1e-12);
    }

    #[test]
    fn eur_per_hour_normalizes() {
        let policy = BillingPolicy::default();
        let mut l = ProfitLedger::new();
        l.book_revenue(&policy, 1.0, SimDuration::from_hours(10));
        assert!((l.eur_per_hour(SimDuration::from_hours(10)) - 0.17).abs() < 1e-12);
        assert_eq!(l.eur_per_hour(SimDuration::ZERO), 0.0);
    }

    #[test]
    fn merge_adds() {
        let policy = BillingPolicy::default();
        let mut a = ProfitLedger::new();
        a.book_revenue(&policy, 1.0, SimDuration::from_hours(1));
        let mut b = ProfitLedger::new();
        b.book_energy(0.02);
        a.merge(&b);
        let s = a.snapshot();
        assert!((s.profit_eur() - (0.17 - 0.02)).abs() < 1e-12);
    }
}
