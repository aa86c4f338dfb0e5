//! E-T2 — the paper's **Table II**: prices and latencies used in the
//! experiments.
//!
//! These are model inputs rather than results; the driver echoes them
//! (for EXPERIMENTS.md) and sanity-checks the invariants every other
//! experiment relies on: matrix symmetry, zero diagonal, and the
//! cheapest/dearest tariff ordering that drives consolidation targets.

use crate::experiment::ExperimentReport;
use crate::report::TextTable;
use pamdc_econ::prices::paper_prices;
use pamdc_infra::network::{City, LatencyMatrix};

/// The report: echo and verify the model inputs.
pub fn report() -> ExperimentReport {
    verify();
    ExperimentReport {
        text: render(),
        metrics: Vec::new(),
    }
}

/// Renders the paper's Table II from the embedded constants.
pub fn render() -> String {
    let m = LatencyMatrix::paper_table2();
    let prices = paper_prices();
    let mut t = TextTable::new(&["DC", "Euro/kWh", "LatBRS", "LatBNG", "LatBCN", "LatBST"]);
    for p in prices {
        let mut row = vec![
            format!("{} ({})", city_name(p.city), p.city.code()),
            format!("{:.4}", p.eur_per_kwh),
        ];
        for other in City::ALL {
            row.push(format!("{:.0}", m.get(p.city.location(), other.location())));
        }
        t.row(row);
    }
    format!(
        "Table II — prices and latencies (ms, 10 Gbps links)\n{}",
        t.render()
    )
}

fn city_name(c: City) -> &'static str {
    match c {
        City::Brisbane => "Brisbane",
        City::Bangalore => "Bangalore",
        City::Barcelona => "Barcelona",
        City::Boston => "Boston",
    }
}

/// Checks the invariants the rest of the evaluation depends on; panics
/// with a message when violated.
pub fn verify() {
    let m = LatencyMatrix::paper_table2();
    for a in City::ALL {
        assert_eq!(
            m.get(a.location(), a.location()),
            0.0,
            "diagonal must be zero"
        );
        for b in City::ALL {
            assert_eq!(
                m.get(a.location(), b.location()),
                m.get(b.location(), a.location()),
                "latency must be symmetric"
            );
        }
    }
    let prices = paper_prices();
    let boston = prices.iter().find(|p| p.city == City::Boston).unwrap();
    assert!(
        prices.iter().all(|p| p.eur_per_kwh >= boston.eur_per_kwh),
        "Boston must be the cheapest tariff (consolidation target)"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_all_cities_and_verifies() {
        verify();
        let s = render();
        for c in City::ALL {
            assert!(s.contains(c.code()), "{s}");
        }
        assert!(s.contains("0.1120"));
        assert!(s.contains("390"));
    }
}
