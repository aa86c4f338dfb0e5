//! `hier-jobs` — the CI multi-core lane: one sharded hierarchical round
//! timed at `PAMDC_PAR_WORKERS=1` and `=2`, reporting the speedup ratio.
//!
//! ```text
//! hier_jobs [--out hier-jobs.json] [--rounds 3]
//! ```
//!
//! The ratio is **recorded, never gated**: CI runners make no core
//! count promises, so a gate on parallel speedup would flake. What IS
//! asserted (and exits non-zero on failure) is determinism — the round
//! must produce bit-identical schedules and equal `RoundStats` at any
//! worker count. The 2000-VM round runs every fan-out the round has:
//! the intra-DC shards, the interface filter's VM chunks, and the
//! consolidation pass's seeding and per-move upkeep chunks. The JSON
//! record deliberately carries no `"id"` key, so the perf gate's
//! scanner never picks it up even when the file is concatenated with
//! gated emissions.

use pamdc_infra::ids::PmId;
use pamdc_sched::hierarchical::{hierarchical_round, HierarchicalConfig};
use pamdc_sched::oracle::TrueOracle;
use pamdc_sched::problem::{synthetic, Problem};
use std::process::ExitCode;
use std::time::Instant;

/// The `bestfit_scale` mid-tier fleet: 2000 VMs over 200 hosts,
/// residency scattered so every DC shard has work.
fn fleet(vms: usize, hosts: usize) -> Problem {
    let mut p = synthetic::problem(vms, hosts, 30.0);
    for (i, vm) in p.vms.iter_mut().enumerate() {
        let hi = i % hosts;
        vm.current_pm = Some(PmId::from_index(hi));
        vm.current_location = Some(p.hosts[hi].location);
    }
    p
}

fn run() -> Result<String, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out: Option<String> = None;
    let mut rounds = 3usize;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                i += 1;
                out = Some(args.get(i).ok_or("--out needs a path")?.clone());
            }
            "--rounds" => {
                i += 1;
                rounds = args
                    .get(i)
                    .ok_or("--rounds needs a value")?
                    .parse()
                    .map_err(|_| "--rounds needs a positive integer".to_string())?;
                if rounds == 0 {
                    return Err("--rounds must be >= 1".into());
                }
            }
            other => return Err(format!("unknown option {other}")),
        }
        i += 1;
    }

    let p = fleet(2000, 200);
    let oracle = TrueOracle::new();
    let cfg = HierarchicalConfig::default();

    // Best-of-N wall time per worker budget. The env cap is read by
    // `pamdc_simcore::par::parallel_map_bounded` in each of the round's
    // fan-outs: the intra-DC shards, the interface filter
    // (`vms_needing_attention`) and the consolidation pass
    // (`improve_schedule`: seeding and the upkeep after every move).
    // The global and fallback Best-Fit passes are sequential.
    let mut timed = Vec::new();
    for workers in [1usize, 2] {
        std::env::set_var("PAMDC_PAR_WORKERS", workers.to_string());
        let mut best_ns = u128::MAX;
        let mut outcome = None;
        for _ in 0..rounds {
            let t = Instant::now();
            let round = hierarchical_round(&p, &oracle, &cfg);
            best_ns = best_ns.min(t.elapsed().as_nanos());
            outcome = Some(round);
        }
        timed.push((best_ns, outcome.expect("rounds >= 1")));
    }
    std::env::remove_var("PAMDC_PAR_WORKERS");

    let (ns_1, (ref sched_1, ref stats_1)) = timed[0];
    let (ns_2, (ref sched_2, ref stats_2)) = timed[1];
    if sched_1 != sched_2 {
        return Err("hierarchical_round diverged between 1 and 2 workers".into());
    }
    if stats_1 != stats_2 {
        return Err(format!(
            "hierarchical_round stats diverged between 1 and 2 workers: {stats_1:?} vs {stats_2:?}"
        ));
    }
    let ratio = ns_1 as f64 / (ns_2 as f64).max(1.0);
    let cores = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let line = format!(
        "{{\"bench\":\"hier_jobs/sharded_round/2000x200\",\"jobs1_ns\":{ns_1},\"jobs2_ns\":{ns_2},\
         \"speedup\":{ratio:.3},\"rounds\":{rounds},\"host_cores\":{cores}}}\n"
    );
    if let Some(path) = out {
        std::fs::write(&path, &line).map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    Ok(line)
}

fn main() -> ExitCode {
    match run() {
        Ok(line) => {
            print!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("hier_jobs: {e}");
            ExitCode::from(2)
        }
    }
}
