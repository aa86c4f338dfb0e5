//! End-to-end MAPE benchmark: whole simulated days driven through the
//! public engine API (`Controller::step` tick by tick), timed layer by
//! layer, with every output checked.
//!
//! ```text
//! pamdc-perfbench gen --seed N --out DIR
//! pamdc-perfbench run --workload W --seed N --seconds S --trace 0|1 [--inputs DIR]
//! pamdc-perfbench selftest --dir DIR
//! ```
//!
//! `gen` records the hier-day demand trace of a seed (`trace.csv`) and
//! the per-tick request rate the generator produced (`rps.txt`). `run`
//! prints one JSON line: end-to-end metrics with `--trace 0`, per-layer
//! metrics with `--trace 1`. See README.md for the workloads and the
//! metric map.

mod checks;
mod layers;
mod workloads;

use checks::{power_states, Checks, Run, WorldFacts};
use layers::{peak_rss_mb, Reference, SpanTimes};
use pamdc_core::engine::StepDemand;
use pamdc_simcore::stats::percentile;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};
use workloads::{setup, SetupTimes, Workload, TICK};

/// One simulated day: 1,440 one-minute ticks, 144 scheduling rounds.
const DAY_HOURS: u64 = 24;

/// Set-ups timed per run, at least: `setup_s` is their median. Cheap
/// set-ups repeat until they have also filled `SETUP_BUDGET`, so a
/// sub-millisecond set-up is a median of many samples.
const MIN_SETUPS: usize = 5;
const SETUP_BUDGET: Duration = Duration::from_secs(2);

/// The self-test's short day and its seed.
const SELFTEST_HOURS: u64 = 3;
const SELFTEST_SEED: u64 = 1;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("gen") => Opts::parse(&args[1..]).and_then(|o| gen(&o)),
        Some("run") => Opts::parse(&args[1..]).and_then(|o| run(&o)),
        Some("selftest") => Opts::parse(&args[1..]).and_then(|o| selftest(&o)),
        _ => Err("usage: pamdc-perfbench gen|run|selftest [--key value]...".into()),
    };
    if let Err(e) = result {
        eprintln!("pamdc-perfbench: {e}");
        std::process::exit(2);
    }
}

/// `--key value` options.
struct Opts(BTreeMap<String, String>);

impl Opts {
    fn parse(args: &[String]) -> Result<Opts, String> {
        let mut map = BTreeMap::new();
        for pair in args.chunks(2) {
            match pair {
                [key, value] if key.starts_with("--") => {
                    map.insert(key[2..].to_string(), value.clone());
                }
                _ => return Err(format!("expected `--key value`, got {pair:?}")),
            }
        }
        Ok(Opts(map))
    }

    fn str(&self, key: &str) -> Result<&str, String> {
        self.0
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("missing --{key}"))
    }

    fn num(&self, key: &str, default: Option<u64>) -> Result<u64, String> {
        match (self.0.get(key), default) {
            (Some(v), _) => v
                .parse()
                .map_err(|_| format!("--{key}: not a whole number: {v}")),
            (None, Some(d)) => Ok(d),
            (None, None) => Err(format!("missing --{key}")),
        }
    }
}

fn gen(opts: &Opts) -> Result<(), String> {
    write_trace(
        Path::new(opts.str("out")?),
        opts.num("seed", None)?,
        DAY_HOURS,
    )
}

/// Writes the hier-day inputs of `seed` into `out`: `trace.csv` and the
/// generated per-tick request rates, `rps.txt`.
fn write_trace(out: &Path, seed: u64, hours: u64) -> Result<(), String> {
    let (csv, rps) = workloads::generate_trace(seed, hours);
    std::fs::create_dir_all(out).map_err(|e| format!("{}: {e}", out.display()))?;
    let mut lines = String::with_capacity(rps.len() * 24);
    for r in &rps {
        let _ = writeln!(lines, "{r}");
    }
    for (name, text) in [("trace.csv", csv.as_str()), ("rps.txt", lines.as_str())] {
        let path = out.join(name);
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(())
}

/// The prepared inputs of one workload at one seed.
struct Inputs {
    trace: Option<PathBuf>,
    /// Request rate per tick, as generated.
    rps: Option<Vec<f64>>,
}

impl Inputs {
    fn load(workload: Workload, dir: Option<&Path>) -> Result<Inputs, String> {
        if !workload.needs_trace() {
            return Ok(Inputs {
                trace: None,
                rps: None,
            });
        }
        let dir = dir.ok_or("hier-day needs --inputs (made by `gen`)")?;
        let path = dir.join("rps.txt");
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let rps = text
            .lines()
            .map(|l| {
                l.parse::<f64>()
                    .map_err(|_| format!("{}: bad line {l:?}", path.display()))
            })
            .collect::<Result<Vec<_>, _>>()?;
        if rps.is_empty() {
            return Err(format!("{}: no ticks", path.display()));
        }
        Ok(Inputs {
            trace: Some(dir.join("trace.csv")),
            rps: Some(rps),
        })
    }
}

/// One simulated day and its timings. Times are at the reference speed
/// (each divided by the `Reference` slowdown read just before it) unless
/// named raw.
struct Day {
    /// `None` when a step panicked.
    run: Option<Run>,
    failed: u64,
    vms: usize,
    ticks: u64,
    /// Step wall times of ticks that end no round, ms.
    tick_ms: Vec<f64>,
    /// Step wall times of round ticks, ms.
    round_ms: Vec<f64>,
    /// `decide` wall time of each round, ms.
    decide_ms: Vec<f64>,
    /// From the first `step` to the return of `finish`, checks excluded.
    wall_s: f64,
    /// `wall_s` and `round_ms` as the clock read them.
    raw_wall_s: f64,
    raw_round_ms: Vec<f64>,
    /// Every `Reference` slowdown read during the day.
    slowdowns: Vec<f64>,
    setup: SetupTimes,
    /// Oracle calls (demand, sla) and busy ms; traced days only.
    oracle: Option<(u64, u64, f64)>,
}

/// Sets up one world and steps it through `ticks` ticks, checking every
/// tick between steps (outside the timed calls).
fn day(
    workload: Workload,
    seed: u64,
    inputs: &Inputs,
    ticks: u64,
    traced: bool,
    checks: &mut Checks,
    reference: &Reference,
) -> Result<Day, String> {
    let slowdown = reference.slowdown();
    let world = setup(workload, seed, inputs.trace.as_deref(), traced)?;
    if workload == Workload::BfMl {
        checks.table1(&world.table1);
    }
    let mut controller = world.controller;
    let facts = WorldFacts::of(controller.scenario());
    let mut d = Day {
        run: None,
        failed: 0,
        vms: facts.vms,
        ticks,
        tick_ms: Vec::new(),
        round_ms: Vec::new(),
        decide_ms: Vec::new(),
        wall_s: 0.0,
        raw_wall_s: 0.0,
        raw_round_ms: Vec::new(),
        slowdowns: vec![slowdown],
        setup: world.setup.scaled(slowdown),
        oracle: None,
    };
    let mut outcomes = Vec::with_capacity(ticks as usize);
    let (mut wall, mut raw_wall) = (Duration::ZERO, Duration::ZERO);
    let mut slowdown = 1.0;
    for i in 0..ticks {
        let before = power_states(controller.scenario());
        // Ticks between rounds take well under a millisecond; they use
        // the reading taken before the last round step.
        if i == 0 || controller.next_step_is_round() {
            slowdown = reference.slowdown();
            d.slowdowns.push(slowdown);
        }
        let start = Instant::now();
        let step = catch_unwind(AssertUnwindSafe(|| controller.step(StepDemand::Source)));
        let took = start.elapsed();
        raw_wall += took;
        wall += took.div_f64(slowdown);
        let Ok(out) = step else {
            d.failed = ticks - i;
            return Ok(d);
        };
        let ms = took.as_secs_f64() * 1e3;
        if out.round.is_some() {
            d.raw_round_ms.push(ms);
            d.round_ms.push(ms / slowdown);
            d.decide_ms
                .push(world.last_decide_ns.load(Ordering::Relaxed) as f64 / 1e6 / slowdown);
        } else {
            d.tick_ms.push(ms / slowdown);
        }
        let rps = inputs.rps.as_ref().map(|r| r[i as usize % r.len()]);
        checks.tick(workload, &before, controller.scenario(), &out, rps);
        outcomes.push(out);
    }
    let start = Instant::now();
    let (outcome, _) = controller.finish(TICK * ticks);
    let took = start.elapsed();
    raw_wall += took;
    wall += took.div_f64(slowdown);
    d.wall_s = wall.as_secs_f64();
    d.raw_wall_s = raw_wall.as_secs_f64();
    eprintln!(
        "{} day{}: {:.3} s stepping, {:.0} vm-ticks/s at reference speed \
         ({:.3} s, {:.0} vm-ticks/s raw; median slowdown {:.2})",
        workload.name(),
        if traced { " (traced)" } else { "" },
        d.wall_s,
        (d.vms as u64 * ticks) as f64 / d.wall_s,
        d.raw_wall_s,
        (d.vms as u64 * ticks) as f64 / d.raw_wall_s,
        percentile(&d.slowdowns, 0.5),
    );
    d.oracle = world.oracle.map(|s| {
        (
            s.demand_calls.load(Ordering::Relaxed),
            s.sla_calls.load(Ordering::Relaxed),
            s.busy_ns.load(Ordering::Relaxed) as f64 / 1e6,
        )
    });
    checks.run(&facts, &outcomes, &outcome);
    d.run = Some(Run {
        ticks: outcomes,
        outcome,
    });
    Ok(d)
}

/// Metrics in output order: name, value, unit.
type Metrics = Vec<(String, f64, &'static str)>;

fn run(opts: &Opts) -> Result<(), String> {
    let workload = Workload::from_name(opts.str("workload")?)
        .ok_or_else(|| format!("unknown workload {:?}", opts.str("workload")))?;
    let seed = opts.num("seed", None)?;
    let budget = Duration::from_secs(opts.num("seconds", None)?);
    let traced = match opts.num("trace", Some(0))? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, got {t}")),
    };
    let ticks = DAY_HOURS * 60;
    let inputs = Inputs::load(workload, opts.0.get("inputs").map(Path::new))?;
    // One untimed read first, so every timed set-up finds the trace in
    // the page cache.
    if let Some(trace) = &inputs.trace {
        std::fs::read(trace).map_err(|e| format!("{}: {e}", trace.display()))?;
    }

    // Whole days while the next one is expected to end no later than
    // half of it past the budget, so a run measures for about the budget
    // on average. An untraced run takes at least two days, so its
    // medians straddle more than one state of the machine. A traced run
    // pairs every untraced day with a traced one, so the difference is
    // the cost of tracing.
    let min_days = if traced { 1 } else { 2 };
    let reference = Reference::new();
    let start = Instant::now();
    let mut checks = Checks::default();
    let (mut plain, mut spanned) = (Vec::new(), Vec::new());
    let mut last = Duration::ZERO;
    while plain.len() < min_days || start.elapsed() + last / 2 < budget {
        let began = Instant::now();
        plain.push(day(
            workload,
            seed,
            &inputs,
            ticks,
            false,
            &mut checks,
            &reference,
        )?);
        if traced {
            spanned.push(day(
                workload,
                seed,
                &inputs,
                ticks,
                true,
                &mut checks,
                &reference,
            )?);
        }
        last = began.elapsed();
    }
    let mut setups: Vec<SetupTimes> = plain.iter().chain(&spanned).map(|d| d.setup).collect();
    let spent = |s: &[SetupTimes]| Duration::from_secs_f64(s.iter().map(|t| t.total_s).sum());
    while setups.len() < MIN_SETUPS || spent(&setups) < SETUP_BUDGET {
        let slowdown = reference.slowdown();
        let times = setup(workload, seed, inputs.trace.as_deref(), false)?.setup;
        setups.push(times.scaled(slowdown));
    }
    let totals: Vec<f64> = setups.iter().map(|s| s.total_s).collect();
    eprintln!(
        "{}: {} set-ups, {:.4} to {:.4} s",
        workload.name(),
        totals.len(),
        percentile(&totals, 0.0),
        percentile(&totals, 1.0)
    );

    let days: Vec<&Day> = plain.iter().chain(&spanned).collect();
    let attempted: u64 = days.iter().map(|d| d.ticks).sum();
    let failed: u64 = days.iter().map(|d| d.failed).sum();
    let runs: Vec<&Run> = days.iter().filter_map(|d| d.run.as_ref()).collect();
    if let Some((first, rest)) = runs.split_first() {
        for (k, other) in rest.iter().enumerate() {
            checks.identical(&format!("day {} vs day 0", k + 1), first, other);
        }
        report_health(workload, first);
    }

    let metrics = if traced {
        per_layer(&plain, &spanned, &setups)?
    } else {
        end_to_end(&plain, &setups)?
    };
    for failure in &checks.failures {
        eprintln!("check failed: {failure}");
    }
    println!("{}", result_json(checks.ok(), attempted, failed, &metrics));
    Ok(())
}

fn ms(seconds: f64) -> f64 {
    seconds * 1e3
}

fn pooled(days: &[Day], pick: impl Fn(&Day) -> &Vec<f64>) -> Vec<f64> {
    days.iter().flat_map(|d| pick(d).iter().copied()).collect()
}

fn first_run(days: &[Day]) -> Result<&Run, String> {
    days.iter()
        .find_map(|d| d.run.as_ref())
        .ok_or_else(|| "every day failed".to_string())
}

fn end_to_end(days: &[Day], setups: &[SetupTimes]) -> Result<Metrics, String> {
    let outcome = &first_run(days)?.outcome;
    let rates: Vec<f64> = days
        .iter()
        .filter(|d| d.run.is_some())
        .map(|d| (d.vms as u64 * d.ticks) as f64 / d.wall_s)
        .collect();
    let rounds = pooled(days, |d| &d.round_ms);
    Ok(vec![
        (
            "setup_s".into(),
            percentile(&setups.iter().map(|s| s.total_s).collect::<Vec<_>>(), 0.5),
            "s",
        ),
        (
            "vm_ticks_per_s".into(),
            percentile(&rates, 0.5),
            "vm-ticks/s",
        ),
        ("round_ms_p50".into(), percentile(&rounds, 0.5), "ms"),
        ("round_ms_p90".into(), percentile(&rounds, 0.9), "ms"),
        ("peak_rss_mb".into(), peak_rss_mb()?, "MB"),
        ("profit_eur".into(), outcome.profit.profit_eur(), "EUR"),
        ("energy_kwh".into(), outcome.total_wh / 1000.0, "kWh"),
        ("mean_sla".into(), outcome.mean_sla, "fraction"),
    ])
}

/// Span paths reported by self time, as `span.<path with dots>_ms`.
const SPAN_SELF: [&str; 9] = [
    "tick/world",
    "tick/monitor",
    "tick/analyze",
    "tick/plan",
    "tick/execute",
    "tick/plan/hier/consolidate",
    "tick/plan/hier/interface",
    "tick/plan/hier/global",
    "tick/plan/hier/fallback",
];

/// Solver spans, reported by self time summed over every caller.
const SPAN_LEAVES: [&str; 3] = ["localsearch", "bestfit_index", "bestfit_scan"];

/// `obs.*` counters copied from the run report.
const COUNTERS: [&str; 9] = [
    "sched.bestfit.calls",
    "sched.bestfit.overflow",
    "sched.hier.global_vms",
    "sched.hier.offered_hosts",
    "sched.localsearch.candidates_rescored",
    "sched.localsearch.vm_rescans",
    "sched.localsearch.moves_accepted",
    "sched.localsearch.moves_rejected",
    "sim.migrations",
];

fn per_layer(plain: &[Day], spanned: &[Day], setups: &[SetupTimes]) -> Result<Metrics, String> {
    let mut m: Metrics = Vec::new();
    let setup_ms = |f: fn(&SetupTimes) -> f64| {
        percentile(&setups.iter().map(|s| ms(f(s))).collect::<Vec<_>>(), 0.5)
    };
    m.push((
        "setup.trace_parse_ms".into(),
        setup_ms(|s| s.trace_parse_s),
        "ms",
    ));
    m.push(("setup.train_ms".into(), setup_ms(|s| s.train_s), "ms"));
    m.push(("setup.build_ms".into(), setup_ms(|s| s.build_s), "ms"));

    m.push((
        "engine.tick_ms_p50".into(),
        percentile(&pooled(plain, |d| &d.tick_ms), 0.5),
        "ms",
    ));
    let outside: Vec<f64> = plain
        .iter()
        .flat_map(|d| d.round_ms.iter().zip(&d.decide_ms).map(|(r, p)| r - p))
        .collect();
    m.push((
        "round.outside_decide_ms_p50".into(),
        percentile(&outside, 0.5),
        "ms",
    ));
    let decide = pooled(plain, |d| &d.decide_ms);
    m.push(("plan.decide_ms_p50".into(), percentile(&decide, 0.5), "ms"));
    m.push(("plan.decide_ms_p90".into(), percentile(&decide, 0.9), "ms"));

    // Traced days: oracle wrapper and span tree, median over days.
    let traced: Vec<(&Day, SpanTimes)> = spanned
        .iter()
        .filter_map(|d| d.run.as_ref().map(|r| (d, &r.outcome.trace_lines)))
        .map(|(d, lines)| SpanTimes::from_trace(lines).map(|s| (d, s)))
        .collect::<Result<_, _>>()?;
    let over = |f: &dyn Fn(&Day, &SpanTimes) -> f64| {
        percentile(
            &traced.iter().map(|(d, s)| f(d, s)).collect::<Vec<_>>(),
            0.5,
        )
    };
    let oracle = |d: &Day| d.oracle.unwrap_or((0, 0, 0.0));
    m.push((
        "oracle.demand_calls".into(),
        over(&|d, _| oracle(d).0 as f64),
        "count",
    ));
    m.push((
        "oracle.sla_calls".into(),
        over(&|d, _| oracle(d).1 as f64),
        "count",
    ));
    m.push(("oracle.busy_ms".into(), over(&|d, _| oracle(d).2), "ms"));
    for path in SPAN_SELF {
        let name = format!("span.{}_ms", path.replace('/', "."));
        m.push((name, over(&|_, s| s.self_of(path)), "ms"));
    }
    // The intra pass fans out over per-DC shards on worker threads, so
    // its self time is not defined: report its wall time.
    m.push((
        "span.tick.plan.hier.intra_ms".into(),
        over(&|_, s| s.total_of("tick/plan/hier/intra")),
        "ms",
    ));
    for leaf in SPAN_LEAVES {
        m.push((
            format!("span.{leaf}_ms"),
            over(&|_, s| s.self_of_leaf(leaf)),
            "ms",
        ));
    }
    m.push((
        "span.tick.plan.hier.intra_parallelism".into(),
        over(&|_, s| s.intra_parallelism()),
        "ratio",
    ));

    let counters: BTreeMap<&str, f64> = first_run(plain)?
        .outcome
        .obs_metrics
        .iter()
        .map(|(name, v)| (name.as_str(), *v))
        .collect();
    for name in COUNTERS {
        m.push((
            name.into(),
            counters.get(name).copied().unwrap_or(0.0),
            "count",
        ));
    }
    let accepted = counters
        .get("sched.localsearch.moves_accepted")
        .copied()
        .unwrap_or(0.0);
    let tried = accepted
        + counters
            .get("sched.localsearch.moves_rejected")
            .copied()
            .unwrap_or(0.0);
    m.push(("sched.localsearch.moves_tried".into(), tried, "count"));
    let ratio = if tried > 0.0 { accepted / tried } else { 0.0 };
    m.push(("sched.localsearch.accept_ratio".into(), ratio, "ratio"));

    let wall = |days: &[Day]| {
        percentile(
            &days
                .iter()
                .filter(|d| d.run.is_some())
                .map(|d| d.wall_s)
                .collect::<Vec<_>>(),
            0.5,
        )
    };
    m.push((
        "obs.trace_overhead_ms".into(),
        ms(wall(spanned) - wall(plain)),
        "ms",
    ));

    // The untraced days as the clock read them, and how slow the machine
    // was: raw time = time at the reference speed x slowdown.
    let raw_rates: Vec<f64> = plain
        .iter()
        .filter(|d| d.run.is_some())
        .map(|d| (d.vms as u64 * d.ticks) as f64 / d.raw_wall_s)
        .collect();
    m.push((
        "raw.vm_ticks_per_s".into(),
        percentile(&raw_rates, 0.5),
        "vm-ticks/s",
    ));
    m.push((
        "raw.round_ms_p50".into(),
        percentile(&pooled(plain, |d| &d.raw_round_ms), 0.5),
        "ms",
    ));
    m.push((
        "machine.slowdown_p50".into(),
        percentile(&pooled(plain, |d| &d.slowdowns), 0.5),
        "ratio",
    ));
    Ok(m)
}

/// Health of the first day, on stderr: the fleet must serve its load.
fn report_health(workload: Workload, run: &Run) {
    let o = &run.outcome;
    let pending = o
        .obs_metrics
        .iter()
        .find(|(name, _)| name == "sim.pending_vms_final")
        .map_or(0.0, |(_, v)| *v);
    eprintln!(
        "{}: mean_sla {:.4}, dropped {:.0} of {:.3e} requests, {pending} VMs backlogged at the \
         end, {} migrations, avg {:.1} powered hosts",
        workload.name(),
        o.mean_sla,
        o.dropped_requests,
        o.dropped_requests + o.served_requests,
        o.migrations,
        o.avg_active_pms,
    );
}

fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            // JSON has no NaN or infinity; a non-finite reading is 0.
            // Adding 0.0 turns -0.0 into 0.0.
            let value = if value.is_finite() { value + 0.0 } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Short versions of every workload with all checks, plus a corrupted
/// trace that the rps check must catch.
fn selftest(opts: &Opts) -> Result<(), String> {
    let dir = PathBuf::from(opts.str("dir")?);
    let (hours, seed) = (SELFTEST_HOURS, SELFTEST_SEED);
    let ticks = hours * 60;
    let trace_dir = dir.join("trace");
    write_trace(&trace_dir, seed, hours)?;

    let reference = Reference::new();
    let mut ok = true;
    for workload in Workload::ALL {
        let inputs = Inputs::load(workload, Some(&trace_dir))?;
        let mut checks = Checks::default();
        let plain = day(
            workload,
            seed,
            &inputs,
            ticks,
            false,
            &mut checks,
            &reference,
        )?;
        let traced = day(
            workload,
            seed,
            &inputs,
            ticks,
            true,
            &mut checks,
            &reference,
        )?;
        match (&plain.run, &traced.run) {
            (Some(a), Some(b)) => checks.identical("traced vs untraced", a, b),
            _ => checks.failures.push("a step panicked".into()),
        }
        ok &= verdict(
            &format!("{} ({hours} h), all checks pass", workload.name()),
            checks.ok(),
            &checks,
        );
    }

    // Scale one generated row's rps after generation: the engine then
    // reads a demand the generator never produced.
    let bad_dir = dir.join("corrupt");
    std::fs::create_dir_all(&bad_dir).map_err(|e| format!("{}: {e}", bad_dir.display()))?;
    let csv = std::fs::read_to_string(trace_dir.join("trace.csv")).map_err(|e| e.to_string())?;
    std::fs::write(bad_dir.join("trace.csv"), scale_one_rps(&csv, 1.5)?)
        .map_err(|e| e.to_string())?;
    std::fs::copy(trace_dir.join("rps.txt"), bad_dir.join("rps.txt")).map_err(|e| e.to_string())?;
    let inputs = Inputs::load(Workload::HierDay, Some(&bad_dir))?;
    let mut checks = Checks::default();
    day(
        Workload::HierDay,
        seed,
        &inputs,
        ticks,
        false,
        &mut checks,
        &reference,
    )?;
    let caught = checks
        .failures
        .iter()
        .any(|f| f.contains("generated trace rps"));
    ok &= verdict(
        "hier-day on a corrupted trace, rps check fails",
        caught,
        &checks,
    );
    if ok {
        Ok(())
    } else {
        Err("self-test failed".into())
    }
}

fn verdict(what: &str, pass: bool, checks: &Checks) -> bool {
    println!("{} {what}", if pass { "PASS" } else { "FAIL" });
    if !pass {
        for f in checks.failures.iter().take(5) {
            println!("     {f}");
        }
    }
    pass
}

/// Multiplies the rps field of the first data row with positive demand.
fn scale_one_rps(csv: &str, factor: f64) -> Result<String, String> {
    let mut done = false;
    let mut out = String::with_capacity(csv.len() + 16);
    for line in csv.lines() {
        let fields: Vec<&str> = line.split(',').collect();
        let rps = fields.get(3).and_then(|f| f.parse::<f64>().ok());
        match rps {
            Some(r) if !done && fields.len() == 7 && r > 0.0 => {
                let scaled = (r * factor).to_string();
                let mut row = fields.clone();
                row[3] = &scaled;
                out.push_str(&row.join(","));
                done = true;
            }
            _ => out.push_str(line),
        }
        out.push('\n');
    }
    if done {
        Ok(out)
    } else {
        Err("no data row with positive rps to corrupt".into())
    }
}
