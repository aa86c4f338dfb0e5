//! Planet-scale placement tier: indexed-shortlist Best-Fit vs the
//! literal Algorithm 1 full scan on fleets far beyond the paper's
//! two-digit instances, plus one sharded hierarchical round.
//!
//! The full scan is O(VMs × hosts) marginal-profit evaluations; the
//! bucketed candidate index scores one representative per
//! host-equivalence group instead. Both must produce bit-identical
//! schedules (asserted here before timing, and property-tested in
//! `pamdc-sched/tests/shortlist_equivalence.rs`), so the only thing this
//! bench measures is speed.
//!
//! Quick mode (`PAMDC_BENCH_QUICK=1`, the CI setting) skips timing the
//! full scan on the 10000×1000 tier — a single pass is ~10 M scored
//! pairs — so its baseline id is simply absent from quick runs; the
//! perf gate ignores ids missing from one side.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pamdc_infra::ids::PmId;
use pamdc_sched::bestfit::best_fit;
use pamdc_sched::hierarchical::{hierarchical_round, HierarchicalConfig};
use pamdc_sched::index::IndexMode;
use pamdc_sched::oracle::TrueOracle;
use pamdc_sched::problem::{synthetic, Problem};
use pamdc_sched::reference::best_fit_full_scan;
use std::hint::black_box;

/// A large fleet the synthetic fixture cannot express on its own:
/// residency scattered across all hosts, so every DC shard has work and
/// the stay/migrate trade-off is exercised. All VMs share one flavor
/// (the cloud-provider norm) — that is what the candidate index feeds
/// on: hosts holding the same number of same-flavor VMs are bitwise
/// interchangeable, so the fleet collapses to a handful of equivalence
/// groups per round. (Fully heterogeneous demands degrade the index
/// towards the full scan's cost — never its answers; see
/// `shortlist_equivalence.rs` — so this tier measures the intended
/// deployment shape.) ~27 CPU units per VM incl. hypervisor overhead
/// against 400-unit Atoms: the 10000×1000 tier settles around 70% fleet
/// utilisation with no overflow.
fn fleet(vms: usize, hosts: usize) -> Problem {
    let mut p = synthetic::problem(vms, hosts, 30.0);
    for (i, vm) in p.vms.iter_mut().enumerate() {
        let hi = i % hosts;
        vm.current_pm = Some(PmId::from_index(hi));
        vm.current_location = Some(p.hosts[hi].location);
    }
    p
}

fn bench(c: &mut Criterion) {
    let quick = std::env::var("PAMDC_BENCH_QUICK").is_ok_and(|v| v != "0" && !v.is_empty());
    let oracle = TrueOracle::new();

    let mut g = c.benchmark_group("bestfit_scale");
    for (vms, hosts) in [(2000usize, 200usize), (10000, 1000)] {
        let p = fleet(vms, hosts);
        let tier = format!("{vms}x{hosts}");
        let big = vms >= 10000;

        // The two implementations must agree bit-for-bit before either
        // is timed. On the big tier this is the one full-scan pass quick
        // mode still pays; it doubles as the equality check.
        if !quick || !big {
            let full = best_fit_full_scan(&p, &oracle);
            let indexed = best_fit(&p, &oracle, IndexMode::Exact);
            assert_eq!(full.schedule, indexed.schedule, "{tier}: diverged");
            assert_eq!(full.overflow_count, indexed.overflow_count);
            assert_eq!(full.overflow_count, 0, "{tier}: tier must not overflow");
            println!(
                "bestfit_scale/{tier}: full scan scored {} candidates, index scored {} ({}x fewer)",
                full.scored_candidates,
                indexed.scored_candidates,
                full.scored_candidates / indexed.scored_candidates.max(1)
            );
        }

        g.bench_with_input(BenchmarkId::new("indexed", &tier), &p, |b, p| {
            b.iter(|| {
                black_box(
                    best_fit(p, &oracle, IndexMode::Exact)
                        .schedule
                        .assignment
                        .len(),
                )
            })
        });
        if !quick || !big {
            g.bench_with_input(BenchmarkId::new("full_scan", &tier), &p, |b, p| {
                b.iter(|| black_box(best_fit_full_scan(p, &oracle).schedule.assignment.len()))
            });
        }
    }
    g.finish();

    // One sharded hierarchical round at the mid tier: per-DC intra
    // passes fan out in parallel, then the global pass runs over the
    // shard summaries. Consolidation is disabled — it has its own bench
    // (`solver_scaling/local_search`) and would dominate the timing.
    let mut g = c.benchmark_group("hierarchical_scale");
    let p = fleet(2000, 200);
    let cfg = HierarchicalConfig {
        local_search: None,
        ..Default::default()
    };
    let (_, stats) = hierarchical_round(&p, &oracle, &cfg);
    println!(
        "hierarchical_scale/2000x200: {} shards, {} intra VMs, {} escalated, {} offered hosts",
        stats.shards, stats.intra_vms, stats.global_vms, stats.offered_hosts
    );
    g.bench_with_input(BenchmarkId::new("sharded_round", "2000x200"), &p, |b, p| {
        b.iter(|| black_box(hierarchical_round(p, &oracle, &cfg).1.shards))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
