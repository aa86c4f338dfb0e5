//! Resilience extensions: bandwidth-shared migration timing (future
//! work 2) and failure recovery. Prints a migration-storm duration table
//! and a crash-recovery comparison, then micro-benchmarks the shared-
//! bandwidth path.

use criterion::{criterion_group, criterion_main, Criterion};
use pamdc_core::engine::Controller;
use pamdc_core::policy::{BestFitPolicy, PlacementPolicy, StaticPolicy};
use pamdc_core::scenario::ScenarioBuilder;
use pamdc_infra::network::{City, NetworkModel};
use pamdc_sched::oracle::TrueOracle;
use pamdc_simcore::time::{SimDuration, SimTime};
use std::hint::black_box;

fn migration_storm_table() {
    let net = NetworkModel::paper();
    let bcn = City::Barcelona.location();
    let bst = City::Boston.location();
    println!("\nMigration duration under link sharing (2 GB image, BCN->BST)");
    println!(
        "{:>12} {:>14} {:>14}",
        "concurrent", "client Gbps", "duration s"
    );
    for concurrent in [1usize, 2, 4, 8] {
        for client_gbps in [0.0, 5.0, 9.0] {
            let d = net.migration_duration_shared(2048.0, bcn, bst, concurrent, client_gbps);
            println!(
                "{concurrent:>12} {client_gbps:>14.1} {:>14.2}",
                d.as_secs_f64()
            );
        }
    }
}

fn failure_recovery_table() {
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
    println!("\nHost crash at minute 30 (repair after 4 h), 3 h run");
    println!(
        "{:<22} {:>9} {:>12} {:>11}",
        "policy", "mean SLA", "migrations", "€/h"
    );
    for (label, o) in [("reactive best-fit", &dynamic), ("static", &frozen)] {
        println!(
            "{label:<22} {:>9.4} {:>12} {:>11.4}",
            o.mean_sla,
            o.migrations,
            o.eur_per_hour()
        );
    }
}

fn bench(c: &mut Criterion) {
    migration_storm_table();
    failure_recovery_table();

    let net = NetworkModel::paper();
    let bcn = City::Barcelona.location();
    let bst = City::Boston.location();
    let mut g = c.benchmark_group("resilience");
    g.bench_function("migration_duration_shared", |b| {
        b.iter(|| black_box(net.migration_duration_shared(2048.0, bcn, bst, 4, 5.0)))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
