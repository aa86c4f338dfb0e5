//! `pamdc` — the scenario-engine command line.
//!
//! ```text
//! pamdc list [--names]
//! pamdc show fig4
//! pamdc run  <spec.toml | builtin> [--quick] [--csv out.csv] [--json out.json]
//! pamdc sweep <spec.toml | builtin> --param a=1,2 [--param b=x,y ...]
//!             [--quick] [--csv ...] [--json ...]
//! pamdc campaign <campaign.toml> [--quick] [--csv ...] [--json ...]
//! pamdc record <spec.toml | builtin> --out trace.csv [--hours N]
//! pamdc replay <trace.csv> [--spec <spec|builtin>] [--hours N] [--rate-scale K]
//!              [--stretch F] [--remap 3,2,1,0] [--quick] [--csv ...] [--json ...]
//! pamdc import <dataset.csv> --format azure|alibaba --out trace.csv
//!              [--tick-secs N] [--regions N] [--rate-scale K] [--stretch F]
//!              [--remap 3,2,1,0] [--max-services N] [--max-ticks N]
//! pamdc serve <spec> --feed <feed.csv> [--session <dir>] [--budget-ms N]
//!             [--poll-ms N] [--max-ticks N]
//! pamdc replay --manifest <session.json>
//! pamdc trace summarize <trace.jsonl>
//! ```
//!
//! Specs resolve as a file path first, then as a built-in registry name.
//! Everything is deterministic: sweeps and campaigns fan out via
//! `simcore::par` and every run derives its randomness from the spec's
//! seed. Repeating `--param` sweeps the full cartesian product. Even
//! the live daemon (`serve`) is replayable: it records every consumed
//! tick and degraded round, and `replay --manifest` re-executes the
//! session bit-for-bit (docs/SERVE.md).

use pamdc_scenario::campaign::{self, Campaign};
use pamdc_scenario::output::{reports_csv, reports_json};
use pamdc_scenario::registry;
use pamdc_scenario::runner::{run_spec, SpecReport};
use pamdc_scenario::spec::{ScenarioSpec, TraceReplaySpec};
use pamdc_simcore::time::SimDuration;
use pamdc_workload::tail::TailSource;
use pamdc_workload::trace::DemandTrace;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

mod serve;

const USAGE: &str = "\
pamdc — power-aware multi-DC scenario engine (Berral, Gavaldà & Torres, ICPP 2013)

USAGE:
  pamdc list [--names]               list built-in paper scenarios
  pamdc show <builtin>               print a built-in spec as TOML
  pamdc run <spec> [opts]            run a spec (file path or built-in name)
  pamdc sweep <spec> --param k=a,b,c [--param k2=x,y ...] [opts]
                                     run the cartesian product, in parallel
  pamdc campaign <file> [opts]       run every spec a campaign file lists,
                                     merged into one CSV/JSON
  pamdc record <spec> --out <trace.csv> [--hours N]
                                     dump the spec's synthetic demand to a trace
  pamdc replay <trace.csv> [--spec <spec>] [--rate-scale K] [--stretch F]
               [--remap 3,2,1,0] [opts]
                                     drive a simulation from a recorded trace
  pamdc import <dataset.csv> --format azure|alibaba --out <trace.csv>
               [--tick-secs N] [--regions N] [--rate-scale K] [--stretch F]
               [--remap 3,2,1,0] [--max-services N] [--max-ticks N]
                                     normalize a public dataset (Azure VM
                                     trace / Alibaba cluster trace) into a
                                     replayable pamdc trace (docs/TRACES.md)
  pamdc serve <spec> --feed <feed.csv> [--session <dir>] [--budget-ms N]
              [--poll-ms N] [--max-ticks N] [opts]
                                     daemon: tail a live demand feed, one MAPE
                                     step per consumed tick, periodic snapshots
                                     and a JSONL status stream (docs/SERVE.md)
  pamdc replay --manifest <session.json> [opts]
                                     re-execute a recorded serve session
                                     bit-for-bit, degraded rounds included
  pamdc trace summarize <trace.jsonl>
                                     per-phase wall-clock breakdown of a
                                     JSONL run trace (docs/OBSERVABILITY.md)

OPTIONS:
  --quick          use each experiment's quick preset (CI smoke)
  --csv <path>     write run metrics as CSV
  --json <path>    write run metrics as JSON
  --hours <n>      override the simulated horizon
  --jobs <n>       cap concurrent runs (sweep, campaign; default: one
                   per hardware thread) — results are identical at any
                   budget
  --out <path>     output path (record, import)
  --names          machine-readable listing: names only (list)
  --trace-out <p>  stream a JSONL trace of the run (run, replay)
  --progress       heartbeat to stderr every simulated hour
  --quiet          only warnings and errors on stderr (PAMDC_LOG also
                   sets the level: error|warn|info|debug)
";

/// A parsed invocation.
#[derive(Clone, Debug, PartialEq)]
enum Cmd {
    List {
        names_only: bool,
    },
    Show {
        name: String,
    },
    Run {
        spec: String,
        opts: Opts,
    },
    Sweep {
        spec: String,
        /// `(key, values)` per `--param`, in flag order; the sweep runs
        /// the full cartesian product (later params vary fastest).
        params: Vec<(String, Vec<String>)>,
        opts: Opts,
    },
    Campaign {
        file: PathBuf,
        opts: Opts,
    },
    Record {
        spec: String,
        out: PathBuf,
        hours: Option<u64>,
    },
    Replay {
        /// Trace to replay; `None` when `--manifest` drives instead.
        trace: Option<PathBuf>,
        /// Serve-session manifest (`session.json`) to re-execute.
        manifest: Option<PathBuf>,
        spec: Option<String>,
        rate_scale: f64,
        stretch: f64,
        remap: Vec<usize>,
        opts: Opts,
    },
    Serve {
        spec: String,
        feed: PathBuf,
        session: Option<PathBuf>,
        max_ticks: Option<usize>,
        poll_ms: u64,
        budget_ms: Option<u64>,
        opts: Opts,
    },
    Import {
        file: PathBuf,
        format: String,
        out: PathBuf,
        tick_secs: Option<u64>,
        regions: Option<usize>,
        rate_scale: f64,
        stretch: f64,
        remap: Vec<usize>,
        max_services: Option<usize>,
        max_ticks: Option<usize>,
    },
    TraceSummarize {
        file: PathBuf,
    },
}

/// Options shared by run/sweep/replay.
#[derive(Clone, Debug, Default, PartialEq)]
struct Opts {
    quick: bool,
    csv: Option<PathBuf>,
    json: Option<PathBuf>,
    hours: Option<u64>,
    /// Parallel budget for sweep/campaign fan-outs (`None` = one
    /// worker per hardware thread).
    jobs: Option<usize>,
    /// JSONL trace destination (run, replay).
    trace_out: Option<PathBuf>,
    /// Hourly stderr heartbeat.
    progress: bool,
    /// Lower the stderr level to warnings and errors.
    quiet: bool,
}

fn parse_args(args: &[String]) -> Result<Cmd, String> {
    let mut it = args.iter();
    let cmd = it.next().ok_or_else(|| "missing command".to_string())?;
    let rest: Vec<&String> = it.collect();

    // Pull `--flag [value]` pairs out; positionals remain.
    let mut positional: Vec<String> = Vec::new();
    let mut opts = Opts::default();
    let mut params: Vec<String> = Vec::new();
    let mut out: Option<PathBuf> = None;
    let mut spec_flag: Option<String> = None;
    let mut names_only = false;
    let mut rate_scale = 1.0f64;
    let mut stretch = 1.0f64;
    let mut remap: Vec<usize> = Vec::new();
    let mut format: Option<String> = None;
    let mut tick_secs: Option<u64> = None;
    let mut regions: Option<usize> = None;
    let mut max_services: Option<usize> = None;
    let mut max_ticks: Option<usize> = None;
    let mut feed: Option<PathBuf> = None;
    let mut session: Option<PathBuf> = None;
    let mut poll_ms: u64 = 200;
    let mut budget_ms: Option<u64> = None;
    let mut manifest: Option<PathBuf> = None;

    let mut i = 0;
    while i < rest.len() {
        let arg = rest[i].as_str();
        let mut value = |name: &str| -> Result<String, String> {
            i += 1;
            rest.get(i)
                .map(|s| s.to_string())
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg {
            "--quick" => opts.quick = true,
            "--csv" => opts.csv = Some(PathBuf::from(value("--csv")?)),
            "--json" => opts.json = Some(PathBuf::from(value("--json")?)),
            "--hours" => {
                opts.hours = Some(
                    value("--hours")?
                        .parse()
                        .ok()
                        .filter(|&h| h >= 1)
                        .ok_or("--hours needs an integer >= 1")?,
                )
            }
            "--param" => params.push(value("--param")?),
            "--jobs" => {
                let jobs: usize = value("--jobs")?
                    .parse()
                    .map_err(|_| "--jobs needs an integer".to_string())?;
                if jobs == 0 {
                    return Err("--jobs must be >= 1".into());
                }
                opts.jobs = Some(jobs);
            }
            "--names" => names_only = true,
            "--trace-out" => opts.trace_out = Some(PathBuf::from(value("--trace-out")?)),
            "--progress" => opts.progress = true,
            "--quiet" => opts.quiet = true,
            "--out" => out = Some(PathBuf::from(value("--out")?)),
            "--spec" => spec_flag = Some(value("--spec")?),
            "--rate-scale" => {
                rate_scale = value("--rate-scale")?
                    .parse()
                    .map_err(|_| "--rate-scale needs a number".to_string())?
            }
            "--stretch" => {
                stretch = value("--stretch")?
                    .parse()
                    .map_err(|_| "--stretch needs a number".to_string())?
            }
            "--remap" => {
                remap = value("--remap")?
                    .split(',')
                    .map(|p| p.trim().parse::<usize>())
                    .collect::<Result<_, _>>()
                    .map_err(|_| "--remap needs comma-separated region indices".to_string())?
            }
            "--format" => format = Some(value("--format")?),
            "--tick-secs" => {
                tick_secs = Some(
                    value("--tick-secs")?
                        .parse()
                        .map_err(|_| "--tick-secs needs an integer".to_string())?,
                )
            }
            "--regions" => {
                regions = Some(
                    value("--regions")?
                        .parse()
                        .map_err(|_| "--regions needs an integer".to_string())?,
                )
            }
            "--max-services" => {
                max_services = Some(
                    value("--max-services")?
                        .parse()
                        .map_err(|_| "--max-services needs an integer".to_string())?,
                )
            }
            "--max-ticks" => {
                max_ticks = Some(
                    value("--max-ticks")?
                        .parse()
                        .map_err(|_| "--max-ticks needs an integer".to_string())?,
                )
            }
            "--feed" => feed = Some(PathBuf::from(value("--feed")?)),
            "--session" => session = Some(PathBuf::from(value("--session")?)),
            "--poll-ms" => {
                poll_ms = value("--poll-ms")?
                    .parse()
                    .map_err(|_| "--poll-ms needs an integer".to_string())?
            }
            "--budget-ms" => {
                budget_ms = Some(
                    value("--budget-ms")?
                        .parse()
                        .map_err(|_| "--budget-ms needs an integer".to_string())?,
                )
            }
            "--manifest" => manifest = Some(PathBuf::from(value("--manifest")?)),
            other if other.starts_with("--") => return Err(format!("unknown option {other}")),
            other => positional.push(other.to_string()),
        }
        i += 1;
    }

    let one_positional = |what: &str| -> Result<String, String> {
        match positional.as_slice() {
            [one] => Ok(one.clone()),
            [] => Err(format!("missing {what}")),
            more => Err(format!("unexpected extra arguments {more:?}")),
        }
    };

    match cmd.as_str() {
        "list" => Ok(Cmd::List { names_only }),
        "show" => Ok(Cmd::Show {
            name: one_positional("built-in name")?,
        }),
        "run" => Ok(Cmd::Run {
            spec: one_positional("spec path or built-in name")?,
            opts,
        }),
        "sweep" => {
            if opts.trace_out.is_some() {
                return Err("--trace-out only applies to single runs (run, replay)".into());
            }
            let spec = one_positional("spec path or built-in name")?;
            if params.is_empty() {
                return Err("sweep needs --param key=v1,v2,... (repeatable)".into());
            }
            let mut parsed: Vec<(String, Vec<String>)> = Vec::with_capacity(params.len());
            for param in &params {
                let (key, values) = param
                    .split_once('=')
                    .ok_or("--param must look like key=v1,v2,...")?;
                let values: Vec<String> = values
                    .split(',')
                    .map(|v| v.trim().to_string())
                    .filter(|v| !v.is_empty())
                    .collect();
                if values.is_empty() {
                    return Err(format!("--param {key} needs at least one value"));
                }
                let key = key.trim().to_string();
                if parsed.iter().any(|(k, _)| *k == key) {
                    return Err(format!("--param {key} given twice"));
                }
                parsed.push((key, values));
            }
            Ok(Cmd::Sweep {
                spec,
                params: parsed,
                opts,
            })
        }
        "campaign" => {
            if opts.trace_out.is_some() {
                return Err("--trace-out only applies to single runs (run, replay)".into());
            }
            Ok(Cmd::Campaign {
                file: PathBuf::from(one_positional("campaign file")?),
                opts,
            })
        }
        "record" => Ok(Cmd::Record {
            spec: one_positional("spec path or built-in name")?,
            out: out.ok_or("record needs --out <trace.csv>")?,
            hours: opts.hours,
        }),
        "replay" => {
            let trace = match (&manifest, positional.as_slice()) {
                (Some(_), []) => None,
                (Some(_), _) => {
                    return Err("replay takes either a trace file or --manifest, not both".into())
                }
                (None, _) => Some(PathBuf::from(one_positional("trace path (or --manifest)")?)),
            };
            Ok(Cmd::Replay {
                trace,
                manifest,
                spec: spec_flag,
                rate_scale,
                stretch,
                remap,
                opts,
            })
        }
        "serve" => Ok(Cmd::Serve {
            spec: one_positional("spec path or built-in name")?,
            feed: feed.ok_or("serve needs --feed <feed.csv>")?,
            session,
            max_ticks,
            poll_ms,
            budget_ms,
            opts,
        }),
        "import" => Ok(Cmd::Import {
            file: PathBuf::from(one_positional("dataset path")?),
            format: format.ok_or("import needs --format azure|alibaba")?,
            out: out.ok_or("import needs --out <trace.csv>")?,
            tick_secs,
            regions,
            rate_scale,
            stretch,
            remap,
            max_services,
            max_ticks,
        }),
        "trace" => match positional.as_slice() {
            [sub, file] if sub == "summarize" => Ok(Cmd::TraceSummarize {
                file: PathBuf::from(file),
            }),
            _ => Err("trace usage: pamdc trace summarize <trace.jsonl>".into()),
        },
        "help" | "--help" | "-h" => Err(String::new()),
        other => Err(format!("unknown command {other:?}")),
    }
}

/// Resolves a spec argument: file path first, then built-in name.
/// Returns the spec and the directory trace paths resolve against.
fn load_spec(arg: &str) -> Result<(ScenarioSpec, PathBuf), String> {
    load_spec_in(arg, Path::new(""))
}

/// [`load_spec`] with relative paths anchored at `base_dir` (campaign
/// entries resolve against the campaign file's directory).
fn load_spec_in(arg: &str, base_dir: &Path) -> Result<(ScenarioSpec, PathBuf), String> {
    let path = base_dir.join(arg);
    let path = path.as_path();
    if path.is_file() {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let spec = ScenarioSpec::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let base = path.parent().unwrap_or(Path::new(".")).to_path_buf();
        return Ok((spec, base));
    }
    if let Some(builtin) = registry::find(arg) {
        return Ok((builtin.spec, PathBuf::from(".")));
    }
    Err(format!(
        "{arg:?} is neither a spec file nor a built-in (try `pamdc list`)"
    ))
}

fn write_outputs(reports: &[SpecReport], opts: &Opts) -> Result<(), String> {
    if let Some(path) = &opts.csv {
        std::fs::write(path, reports_csv(reports))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        pamdc_obs::info!("wrote {}", path.display());
    }
    if let Some(path) = &opts.json {
        std::fs::write(path, reports_json(reports))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        pamdc_obs::info!("wrote {}", path.display());
    }
    Ok(())
}

/// The trace destination a run resolves to: the `--trace-out` flag wins,
/// then the spec's `[profile] trace_out` (relative to the invoking cwd).
fn resolve_trace_out(opts: &Opts, spec: &ScenarioSpec) -> Option<PathBuf> {
    opts.trace_out
        .clone()
        .or_else(|| spec.profile.trace_out.as_ref().map(PathBuf::from))
}

/// Installs the JSONL file sink when a destination is set. The returned
/// flag tells the caller to [`pamdc_obs::trace::finish`] afterwards.
fn install_trace(path: Option<&PathBuf>) -> Result<bool, String> {
    match path {
        None => Ok(false),
        Some(path) => {
            pamdc_obs::trace::install_file(path)
                .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
            Ok(true)
        }
    }
}

fn finish_trace(path: &Path) -> Result<(), String> {
    pamdc_obs::trace::finish().map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    pamdc_obs::info!("wrote trace {}", path.display());
    Ok(())
}

fn cmd_list(names_only: bool) {
    if names_only {
        for b in registry::builtins() {
            println!("{}", b.name);
        }
        return;
    }
    println!("built-in scenarios ({}):\n", registry::builtins().len());
    let width = registry::builtins()
        .iter()
        .map(|b| b.name.len())
        .max()
        .unwrap_or(0);
    for b in registry::builtins() {
        println!("  {:width$}  {}", b.name, b.title);
    }
    println!("\nrun one with `pamdc run <name>`; inspect with `pamdc show <name>`.");
}

fn cmd_run(spec_arg: &str, opts: &Opts) -> Result<(), String> {
    let (mut spec, base) = load_spec(spec_arg)?;
    if let Some(hours) = opts.hours {
        spec.run.hours = hours;
    }
    if opts.progress {
        spec.profile.progress = true;
    }
    let trace_out = resolve_trace_out(opts, &spec);
    let tracing = install_trace(trace_out.as_ref())?;
    let report = run_spec(&spec, &base, opts.quick).map_err(|e| e.to_string())?;
    println!("{}", report.text);
    if tracing {
        finish_trace(trace_out.as_ref().expect("tracing implies a path"))?;
    }
    write_outputs(std::slice::from_ref(&report), opts)
}

/// Expands the cartesian product of every `--param` axis. Each variant
/// carries its override suffix (`k1=v1,k2=v2`); later params vary
/// fastest, so rows group by the first axis.
fn cartesian(
    base_spec: &ScenarioSpec,
    params: &[(String, Vec<String>)],
) -> Result<Vec<(String, ScenarioSpec)>, String> {
    let mut variants: Vec<(String, ScenarioSpec)> = vec![(String::new(), base_spec.clone())];
    for (key, values) in params {
        let mut next = Vec::with_capacity(variants.len() * values.len());
        for (suffix, spec) in &variants {
            for value in values {
                let v = spec.with_param(key, value).map_err(|e| {
                    let hints = pamdc_scenario::spec::sweep_hints();
                    format!("{e}\nsweepable keys include: {}", hints.join(", "))
                })?;
                let suffix = if suffix.is_empty() {
                    format!("{key}={value}")
                } else {
                    format!("{suffix},{key}={value}")
                };
                next.push((suffix, v));
            }
        }
        variants = next;
    }
    Ok(variants)
}

fn cmd_sweep(spec_arg: &str, params: &[(String, Vec<String>)], opts: &Opts) -> Result<(), String> {
    let (mut base_spec, base) = load_spec(spec_arg)?;
    if let Some(hours) = opts.hours {
        base_spec.run.hours = hours;
    }
    // Build every variant up front so a bad value fails before any work.
    let mut variants = cartesian(&base_spec, params)?;
    for (suffix, spec) in &mut variants {
        spec.name = format!("{}[{suffix}]", base_spec.name);
        if opts.progress {
            spec.profile.progress = true;
        }
    }
    let axes: Vec<String> = params
        .iter()
        .map(|(k, vs)| format!("{k} ({} values)", vs.len()))
        .collect();
    pamdc_obs::info!(
        "sweeping {} -> {} variants...",
        axes.join(" x "),
        variants.len()
    );
    let quick = opts.quick;
    let base_dir = base.clone();
    let reports: Vec<Result<SpecReport, String>> =
        pamdc_simcore::par::parallel_map_bounded(variants, opts.jobs, move |(suffix, spec)| {
            run_spec(&spec, &base_dir, quick).map_err(|e| format!("{suffix}: {e}"))
        });
    // `parallel_map` preserves input order, so rows line up with values.
    let mut ok = Vec::with_capacity(reports.len());
    for r in reports {
        ok.push(r?);
    }
    println!("{}", reports_csv(&ok));
    write_outputs(&ok, opts)
}

fn cmd_campaign(file: &Path, opts: &Opts) -> Result<(), String> {
    let text = std::fs::read_to_string(file)
        .map_err(|e| format!("cannot read {}: {e}", file.display()))?;
    let campaign = Campaign::parse(&text).map_err(|e| format!("{}: {e}", file.display()))?;
    let campaign_dir = file.parent().unwrap_or(Path::new("")).to_path_buf();

    // Resolve and override every entry up front: a typo in run 7 fails
    // before run 1 burns any compute.
    let mut jobs: Vec<(ScenarioSpec, PathBuf)> = Vec::with_capacity(campaign.runs.len());
    for run in &campaign.runs {
        let (spec, base_dir) = load_spec_in(&run.spec, &campaign_dir)?;
        let mut spec =
            campaign::apply_overrides(&spec, run).map_err(|e| format!("{}: {e}", run.spec))?;
        if let Some(hours) = opts.hours {
            spec.run.hours = hours;
        }
        if opts.progress {
            spec.profile.progress = true;
        }
        jobs.push((spec, base_dir));
    }
    match opts.jobs {
        Some(budget) => pamdc_obs::info!(
            "campaign '{}': {} runs, at most {budget} in parallel...",
            campaign.name,
            jobs.len()
        ),
        None => pamdc_obs::info!(
            "campaign '{}': {} runs, in parallel...",
            campaign.name,
            jobs.len()
        ),
    }
    let quick = opts.quick;
    let reports: Vec<Result<SpecReport, String>> =
        pamdc_simcore::par::parallel_map_bounded(jobs, opts.jobs, move |(spec, base_dir)| {
            let name = spec.name.clone();
            run_spec(&spec, &base_dir, quick).map_err(|e| format!("{name}: {e}"))
        });
    let mut ok = Vec::with_capacity(reports.len());
    for r in reports {
        ok.push(r?);
    }
    for report in &ok {
        println!("# {}\n{}", report.name, report.text);
    }
    println!("{}", reports_csv(&ok));
    write_outputs(&ok, opts)
}

fn cmd_record(spec_arg: &str, out: &Path, hours: Option<u64>) -> Result<(), String> {
    let (spec, base) = load_spec(spec_arg)?;
    let scenario =
        pamdc_scenario::build::build_scenario(&spec, &base).map_err(|e| e.to_string())?;
    let horizon = SimDuration::from_hours(hours.unwrap_or(spec.run.hours));
    let tick = SimDuration::from_secs(spec.run.tick_secs);
    let trace = DemandTrace::record(&scenario.workload, horizon, tick);
    std::fs::write(out, trace.to_csv())
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    pamdc_obs::info!(
        "recorded {} ticks x {} services ({} regions) -> {}",
        trace.tick_count(),
        trace.service_count(),
        trace.regions,
        out.display()
    );
    Ok(())
}

#[allow(clippy::too_many_arguments)] // one flag each, mirrored from Cmd::Replay
fn cmd_replay(
    trace_path: Option<&Path>,
    manifest: Option<&Path>,
    spec_arg: Option<&str>,
    rate_scale: f64,
    stretch: f64,
    remap: &[usize],
    opts: &Opts,
) -> Result<(), String> {
    if let Some(manifest) = manifest {
        if spec_arg.is_some() || rate_scale != 1.0 || stretch != 1.0 || !remap.is_empty() {
            return Err(
                "--manifest replays the recorded session verbatim; --spec/--rate-scale/\
                 --stretch/--remap do not apply"
                    .into(),
            );
        }
        let report = serve::cmd_replay_manifest(manifest)?;
        println!("{}", report.text);
        return write_outputs(std::slice::from_ref(&report), opts);
    }
    let trace_path = trace_path.expect("parse_args requires a trace when --manifest is absent");
    let text = std::fs::read_to_string(trace_path)
        .map_err(|e| format!("cannot read {}: {e}", trace_path.display()))?;
    // A torn final row (a recorder killed mid-append) degrades to a
    // clean partial replay of the ticks the tail reader vouches for.
    let trace = match DemandTrace::parse_csv(&text) {
        Ok(trace) => trace,
        Err(err) => match TailSource::open(trace_path) {
            Ok(tail) if tail.ready_ticks() > 0 => {
                let ready = tail.ready_ticks();
                pamdc_obs::warn!(
                    "{}: tick {ready} is truncated mid-write; replaying the {ready} complete \
                     tick(s) before it",
                    trace_path.display()
                );
                let mut trace = tail.trace().clone();
                trace.flows.truncate(ready);
                trace
            }
            _ => return Err(format!("{}: {err}", trace_path.display())),
        },
    };
    let services = trace.service_count();
    // Validate transforms up front: bad flags get an error message, not
    // a panic backtrace from the replayer's asserts.
    if !(rate_scale.is_finite() && rate_scale >= 0.0) {
        return Err(format!(
            "--rate-scale must be finite and >= 0, got {rate_scale}"
        ));
    }
    if !(stretch.is_finite() && stretch > 0.0) {
        return Err(format!("--stretch must be finite and > 0, got {stretch}"));
    }
    let replay = TraceReplaySpec {
        path: trace_path.display().to_string(),
        rate_scale,
        time_stretch: stretch,
        region_map: remap.to_vec(),
    };
    let source =
        pamdc_scenario::build::trace_source(trace, &replay, trace_path).map_err(|e| e.0)?;

    let (mut spec, base) = match spec_arg {
        Some(arg) => load_spec(arg)?,
        None => (ScenarioSpec::default(), PathBuf::from(".")),
    };
    spec.workload.vms = services;
    spec.workload.trace = None; // the world is built around the parsed source below
    if let Some(hours) = opts.hours {
        spec.run.hours = hours;
    }
    let _ = base; // the trace path is as-given (cwd-relative), not spec-relative
    let scenario = pamdc_scenario::build::build_scenario_with_demand(&spec, source.into())
        .map_err(|e| e.to_string())?;
    let suite = pamdc_scenario::build::trained_suite(&spec);
    let policy = pamdc_scenario::build::build_policy(&spec, suite).map_err(|e| e.to_string())?;
    let trace_out = resolve_trace_out(opts, &spec);
    let tracing = install_trace(trace_out.as_ref())?;
    let mut cfg = pamdc_scenario::build::run_config(&spec);
    cfg.trace = tracing;
    cfg.progress = cfg.progress || opts.progress;
    let (mut outcome, _) = pamdc_core::engine::Controller::with(scenario, policy, cfg, None)
        .run_for(SimDuration::from_hours(if opts.quick {
            spec.run.hours.min(3)
        } else {
            spec.run.hours
        }));
    if tracing {
        // This path drives the runner directly (no experiment pipeline),
        // so it flushes the run's buffered lines itself.
        pamdc_obs::trace::write_lines(&outcome.trace_lines);
        outcome.trace_lines.clear();
        finish_trace(trace_out.as_ref().expect("tracing implies a path"))?;
    }
    let report = SpecReport {
        name: format!("replay[{}]", trace_path.display()),
        text: pamdc_scenario::runner::render_outcome(&outcome),
        metrics: pamdc_scenario::runner::outcome_metrics("", &outcome),
    };
    println!("{}", report.text);
    write_outputs(std::slice::from_ref(&report), opts)
}

/// `pamdc serve` — resolve the spec and session directory, then hand
/// off to the daemon loop (docs/SERVE.md).
fn cmd_serve_entry(
    spec_arg: &str,
    feed: &Path,
    session: Option<&Path>,
    max_ticks: Option<usize>,
    poll_ms: u64,
    budget_ms: Option<u64>,
    opts: &Opts,
) -> Result<(), String> {
    let (spec, _base) = load_spec(spec_arg)?;
    let session = session
        .map(Path::to_path_buf)
        .unwrap_or_else(|| feed.with_extension("session"));
    let report = serve::cmd_serve(
        spec,
        &serve::ServeConfig {
            feed: feed.to_path_buf(),
            session,
            max_ticks: max_ticks.map(|n| n as u64),
            poll_ms,
            budget_ms,
        },
    )?;
    println!("{}", report.text);
    write_outputs(std::slice::from_ref(&report), opts)
}

#[allow(clippy::too_many_arguments)] // one flag each, mirrored from Cmd::Import
fn cmd_import(
    file: &Path,
    format: &str,
    out: &Path,
    tick_secs: Option<u64>,
    regions: Option<usize>,
    rate_scale: f64,
    stretch: f64,
    remap: &[usize],
    max_services: Option<usize>,
    max_ticks: Option<usize>,
) -> Result<(), String> {
    let format = pamdc_workload::import::TraceFormat::from_name(format)
        .ok_or_else(|| format!("unknown --format {format:?} (azure | alibaba)"))?;
    let mut opts = pamdc_workload::import::ImportOptions {
        tick: tick_secs.map(SimDuration::from_secs),
        rate_scale,
        time_stretch: stretch,
        region_map: remap.to_vec(),
        max_services,
        max_ticks,
        ..pamdc_workload::import::ImportOptions::default()
    };
    if let Some(regions) = regions {
        opts.regions = regions;
    }
    let trace = pamdc_workload::import::import_path(format, file, &opts)
        .map_err(|e| format!("{}: {e}", file.display()))?;
    std::fs::write(out, trace.to_csv())
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    pamdc_obs::info!(
        "imported {} ({}): {} ticks x {} services ({} regions, tick {}s) -> {}",
        file.display(),
        format.name(),
        trace.tick_count(),
        trace.service_count(),
        trace.regions,
        trace.tick.as_millis() / 1000,
        out.display()
    );
    Ok(())
}

/// `pamdc trace summarize <trace.jsonl>` — the per-phase wall-clock
/// breakdown of a recorded trace, plus final counters.
fn cmd_trace_summarize(file: &Path) -> Result<(), String> {
    let text = std::fs::read_to_string(file)
        .map_err(|e| format!("cannot read {}: {e}", file.display()))?;
    let summary = pamdc_obs::trace::summarize(text.lines())
        .map_err(|e| format!("{}: {e}", file.display()))?;
    let root_ns = summary.root_ns();
    let mut spans = pamdc_core::report::TextTable::new(&["span", "count", "total_ms", "share"]);
    for row in &summary.spans {
        let share = if root_ns > 0 {
            format!("{:.1}%", 100.0 * row.total_ns as f64 / root_ns as f64)
        } else {
            "-".to_string()
        };
        spans.row(vec![
            row.path.clone(),
            row.count.to_string(),
            format!("{:.3}", row.total_ns as f64 / 1e6),
            share,
        ]);
    }
    println!(
        "{}: {} run(s), {} tick(s)\n\n{}",
        file.display(),
        summary.runs,
        summary.ticks,
        spans.render()
    );
    if let Some(coverage) = summary.coverage() {
        println!(
            "phase coverage: {:.1}% of root span wall-clock is under named phases",
            100.0 * coverage
        );
    }
    if !summary.counters.is_empty() {
        let mut counters = pamdc_core::report::TextTable::new(&["counter", "final value"]);
        for (name, value) in &summary.counters {
            counters.row(vec![name.clone(), value.to_string()]);
        }
        println!("\n{}", counters.render());
    }
    Ok(())
}

fn cmd_show(name: &str) -> Result<(), String> {
    let builtin = registry::find(name)
        .ok_or_else(|| format!("no built-in named {name:?} (try `pamdc list`)"))?;
    print!("{}", builtin.spec.emit());
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = match parse_args(&args) {
        Ok(cmd) => cmd,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}\n");
            }
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Cmd::Run { opts, .. }
    | Cmd::Sweep { opts, .. }
    | Cmd::Campaign { opts, .. }
    | Cmd::Replay { opts, .. }
    | Cmd::Serve { opts, .. } = &cmd
    {
        if opts.quiet {
            pamdc_obs::log::set_level(pamdc_obs::log::Level::Warn);
        }
    }
    let result = match &cmd {
        Cmd::List { names_only } => {
            cmd_list(*names_only);
            Ok(())
        }
        Cmd::Show { name } => cmd_show(name),
        Cmd::Run { spec, opts } => cmd_run(spec, opts),
        Cmd::Sweep { spec, params, opts } => cmd_sweep(spec, params, opts),
        Cmd::Campaign { file, opts } => cmd_campaign(file, opts),
        Cmd::Record { spec, out, hours } => cmd_record(spec, out, *hours),
        Cmd::Replay {
            trace,
            manifest,
            spec,
            rate_scale,
            stretch,
            remap,
            opts,
        } => cmd_replay(
            trace.as_deref(),
            manifest.as_deref(),
            spec.as_deref(),
            *rate_scale,
            *stretch,
            remap,
            opts,
        ),
        Cmd::Serve {
            spec,
            feed,
            session,
            max_ticks,
            poll_ms,
            budget_ms,
            opts,
        } => cmd_serve_entry(
            spec,
            feed,
            session.as_deref(),
            *max_ticks,
            *poll_ms,
            *budget_ms,
            opts,
        ),
        Cmd::Import {
            file,
            format,
            out,
            tick_secs,
            regions,
            rate_scale,
            stretch,
            remap,
            max_services,
            max_ticks,
        } => cmd_import(
            file,
            format,
            out,
            *tick_secs,
            *regions,
            *rate_scale,
            *stretch,
            remap,
            *max_services,
            *max_ticks,
        ),
        Cmd::TraceSummarize { file } => cmd_trace_summarize(file),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            pamdc_obs::error!("{msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Cmd, String> {
        parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_run_with_options() {
        let cmd = parse(&["run", "fig4", "--quick", "--json", "out.json"]).unwrap();
        match cmd {
            Cmd::Run { spec, opts } => {
                assert_eq!(spec, "fig4");
                assert!(opts.quick);
                assert_eq!(opts.json, Some(PathBuf::from("out.json")));
                assert_eq!(opts.csv, None);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_sweep_params() {
        let cmd = parse(&[
            "sweep",
            "fig6",
            "--param",
            "workload.load_scale=0.5,1.0,1.5",
        ])
        .unwrap();
        match cmd {
            Cmd::Sweep { params, .. } => {
                assert_eq!(params.len(), 1);
                assert_eq!(params[0].0, "workload.load_scale");
                assert_eq!(params[0].1, vec!["0.5", "1.0", "1.5"]);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&["sweep", "fig6"]).is_err());
        assert!(parse(&["sweep", "fig6", "--param", "novalues"]).is_err());
    }

    #[test]
    fn parses_cartesian_sweep_axes() {
        let cmd = parse(&[
            "sweep",
            "fig6",
            "--param",
            "seed=1,2",
            "--param",
            "workload.vms=4,5",
        ])
        .unwrap();
        match cmd {
            Cmd::Sweep { params, .. } => {
                assert_eq!(params.len(), 2);
                assert_eq!(params[0].0, "seed");
                assert_eq!(params[1].0, "workload.vms");
            }
            other => panic!("{other:?}"),
        }
        // The same axis twice is a user error, not a silent override.
        assert!(parse(&["sweep", "fig6", "--param", "seed=1", "--param", "seed=2"]).is_err());
    }

    #[test]
    fn cartesian_expands_the_full_product_in_order() {
        let base = registry::find("resilience").expect("builtin").spec;
        let params = vec![
            ("seed".to_string(), vec!["1".to_string(), "2".to_string()]),
            (
                "workload.vms".to_string(),
                vec!["3".to_string(), "4".to_string()],
            ),
        ];
        let variants = cartesian(&base, &params).expect("expand");
        let suffixes: Vec<&str> = variants.iter().map(|(s, _)| s.as_str()).collect();
        assert_eq!(
            suffixes,
            vec![
                "seed=1,workload.vms=3",
                "seed=1,workload.vms=4",
                "seed=2,workload.vms=3",
                "seed=2,workload.vms=4",
            ]
        );
        assert_eq!(variants[3].1.seed, 2);
        assert_eq!(variants[3].1.workload.vms, 4);
        // Bad keys fail before any simulation runs, with hints.
        let bad = vec![("workload.nonsense".to_string(), vec!["1".to_string()])];
        let err = cartesian(&base, &bad).unwrap_err();
        assert!(err.contains("sweepable keys include"), "{err}");
    }

    #[test]
    fn parses_campaign_command() {
        let cmd = parse(&["campaign", "c.toml", "--quick", "--csv", "out.csv"]).unwrap();
        match cmd {
            Cmd::Campaign { file, opts } => {
                assert_eq!(file, PathBuf::from("c.toml"));
                assert!(opts.quick);
                assert_eq!(opts.csv, Some(PathBuf::from("out.csv")));
                assert_eq!(opts.jobs, None, "unbounded by default");
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&["campaign"]).is_err(), "campaign needs a file");
    }

    #[test]
    fn parses_jobs_budget() {
        let cmd = parse(&["campaign", "c.toml", "--jobs", "2"]).unwrap();
        match cmd {
            Cmd::Campaign { opts, .. } => assert_eq!(opts.jobs, Some(2)),
            other => panic!("{other:?}"),
        }
        let cmd = parse(&["sweep", "fig6", "--param", "seed=1,2", "--jobs", "1"]).unwrap();
        match cmd {
            Cmd::Sweep { opts, .. } => assert_eq!(opts.jobs, Some(1)),
            other => panic!("{other:?}"),
        }
        assert!(parse(&["campaign", "c.toml", "--jobs", "0"]).is_err());
        assert!(parse(&["campaign", "c.toml", "--jobs", "many"]).is_err());
    }

    #[test]
    fn parses_replay_transforms() {
        let cmd = parse(&[
            "replay",
            "t.csv",
            "--stretch",
            "2.0",
            "--rate-scale",
            "1.5",
            "--remap",
            "3,2,1,0",
        ])
        .unwrap();
        match cmd {
            Cmd::Replay {
                trace,
                stretch,
                rate_scale,
                remap,
                ..
            } => {
                assert_eq!(trace, Some(PathBuf::from("t.csv")));
                assert_eq!(stretch, 2.0);
                assert_eq!(rate_scale, 1.5);
                assert_eq!(remap, vec![3, 2, 1, 0]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_replay_manifest() {
        let cmd = parse(&["replay", "--manifest", "s/session.json"]).unwrap();
        match cmd {
            Cmd::Replay {
                trace, manifest, ..
            } => {
                assert_eq!(trace, None);
                assert_eq!(manifest, Some(PathBuf::from("s/session.json")));
            }
            other => panic!("{other:?}"),
        }
        assert!(
            parse(&["replay", "t.csv", "--manifest", "m.json"]).is_err(),
            "a trace and a manifest are mutually exclusive"
        );
        assert!(parse(&["replay"]).is_err(), "needs a trace or a manifest");
    }

    #[test]
    fn parses_serve_flags() {
        let cmd = parse(&[
            "serve",
            "fig4",
            "--feed",
            "feed.csv",
            "--session",
            "s",
            "--budget-ms",
            "250",
            "--poll-ms",
            "50",
            "--max-ticks",
            "40",
        ])
        .unwrap();
        match cmd {
            Cmd::Serve {
                spec,
                feed,
                session,
                max_ticks,
                poll_ms,
                budget_ms,
                ..
            } => {
                assert_eq!(spec, "fig4");
                assert_eq!(feed, PathBuf::from("feed.csv"));
                assert_eq!(session, Some(PathBuf::from("s")));
                assert_eq!(max_ticks, Some(40));
                assert_eq!(poll_ms, 50);
                assert_eq!(budget_ms, Some(250));
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&["serve", "fig4"]).is_err(), "--feed is required");
    }

    #[test]
    fn parses_import_options() {
        let cmd = parse(&[
            "import",
            "azure.csv",
            "--format",
            "azure",
            "--out",
            "t.csv",
            "--tick-secs",
            "600",
            "--regions",
            "4",
            "--max-services",
            "8",
            "--remap",
            "1,0,3,2",
        ])
        .unwrap();
        match cmd {
            Cmd::Import {
                file,
                format,
                out,
                tick_secs,
                regions,
                max_services,
                remap,
                ..
            } => {
                assert_eq!(file, PathBuf::from("azure.csv"));
                assert_eq!(format, "azure");
                assert_eq!(out, PathBuf::from("t.csv"));
                assert_eq!(tick_secs, Some(600));
                assert_eq!(regions, Some(4));
                assert_eq!(max_services, Some(8));
                assert_eq!(remap, vec![1, 0, 3, 2]);
            }
            other => panic!("{other:?}"),
        }
        assert!(
            parse(&["import", "a.csv", "--out", "t.csv"]).is_err(),
            "--format is required"
        );
        assert!(
            parse(&["import", "a.csv", "--format", "azure"]).is_err(),
            "--out is required"
        );
    }

    #[test]
    fn rejects_unknown_commands_and_options() {
        assert!(parse(&["frobnicate"]).is_err());
        assert!(parse(&["run", "fig4", "--frob"]).is_err());
        assert!(parse(&["record", "fig4"]).is_err(), "record requires --out");
    }

    #[test]
    fn parses_observability_flags() {
        let cmd = parse(&[
            "run",
            "fig4",
            "--trace-out",
            "t.jsonl",
            "--progress",
            "--quiet",
        ])
        .unwrap();
        match cmd {
            Cmd::Run { opts, .. } => {
                assert_eq!(opts.trace_out, Some(PathBuf::from("t.jsonl")));
                assert!(opts.progress);
                assert!(opts.quiet);
            }
            other => panic!("{other:?}"),
        }
        // Parallel fan-outs would interleave arms in one file.
        let err = parse(&[
            "sweep",
            "fig6",
            "--param",
            "seed=1,2",
            "--trace-out",
            "t.jsonl",
        ])
        .unwrap_err();
        assert!(err.contains("single runs"), "{err}");
        let err = parse(&["campaign", "c.toml", "--trace-out", "t.jsonl"]).unwrap_err();
        assert!(err.contains("single runs"), "{err}");
    }

    #[test]
    fn parses_trace_summarize() {
        let cmd = parse(&["trace", "summarize", "out.jsonl"]).unwrap();
        assert_eq!(
            cmd,
            Cmd::TraceSummarize {
                file: PathBuf::from("out.jsonl")
            }
        );
        assert!(parse(&["trace"]).is_err());
        assert!(parse(&["trace", "frobnicate", "x"]).is_err());
    }

    #[test]
    fn replaying_a_header_only_trace_is_an_error_naming_the_file() {
        let dir = std::env::temp_dir().join("pamdc-cli-replay-test");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("header-only.csv");
        std::fs::write(
            &path,
            "# pamdc-trace v1\n# tick_ms = 60000\n# regions = 4\n# classes = blog\n\
             tick,service,region,rps,kb_in_per_req,kb_out_per_req,cpu_ms_per_req\n",
        )
        .expect("fixture");
        let opts = Opts {
            quick: true,
            ..Opts::default()
        };
        let err = cmd_replay(Some(&path), None, None, 1.0, 1.0, &[], &opts)
            .expect_err("nothing to replay");
        assert!(
            err.contains("header-only.csv") && err.contains("no ticks"),
            "{err}"
        );
        // A bad --remap is named by the same check, before any run.
        std::fs::write(
            &path,
            "# tick_ms = 60000\n# regions = 4\n# classes = blog\n\
             tick,service,region,rps,kb_in_per_req,kb_out_per_req,cpu_ms_per_req\n\
             0,0,1,1,1,1,1\n",
        )
        .expect("fixture");
        let err = cmd_replay(Some(&path), None, None, 1.0, 1.0, &[0, 1], &opts)
            .expect_err("map covers 2 of 4 regions");
        assert!(err.contains("region_map lists 2 regions"), "{err}");
    }

    #[test]
    fn builtins_resolve_as_specs() {
        let (spec, _) = load_spec("fig6").expect("builtin");
        assert_eq!(spec.name, "fig6");
        assert!(load_spec("not-a-thing").is_err());
    }
}
