//! `pamdc` — the scenario-engine command line.
//!
//! Two tables declare the whole command line: `COMMANDS` (each
//! command's name, arguments and handler) and `OPTIONS` (each option's
//! flag, the commands that read it, what it takes, its help line and,
//! for an option that restates a spec key, that key). Parsing, the
//! per-command refusal of an option it does not read and the `pamdc
//! help` text all read them. A keyed option is applied to the spec
//! through `ScenarioSpec::with_params`, so its parsing, range check and
//! error text are the key's own, as in a spec file.
//!
//! Specs resolve as a file path first, then as a built-in registry name.
//! Everything is deterministic: sweeps and campaigns fan out via
//! `simcore::par` and every run derives its randomness from the spec's
//! seed. Even the live daemon (`serve`) is replayable: it records every
//! consumed tick and degraded round, and a session replay re-executes
//! it bit-for-bit (docs/SERVE.md).

use pamdc_core::simulation::RunOutcome;
use pamdc_scenario::campaign::{self, Campaign};
use pamdc_scenario::output::{reports_csv, reports_json};
use pamdc_scenario::runner::{outcome_metrics, render_outcome, run_spec, SpecReport};
use pamdc_scenario::spec::ScenarioSpec;
use pamdc_scenario::toml::{emit_scalar, Value};
use pamdc_scenario::{build, registry, schema};
use pamdc_simcore::time::SimDuration;
use pamdc_workload::tail::TailSource;
use pamdc_workload::trace::DemandTrace;
use std::fmt;
use std::io::{ErrorKind, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

mod serve;

/// `println!` to standard output through [`write_stdout`], returning
/// its error from the enclosing function instead of panicking.
macro_rules! outln {
    ($($arg:tt)*) => {
        write_stdout(
            &mut std::io::stdout().lock(),
            format_args!("{}\n", format_args!($($arg)*)),
        )?
    };
}

/// Writes command output to `w` (standard output). A reader that stops
/// early (`pamdc ... | head`) closes the pipe: the rest of the output is
/// dropped and the command finishes normally. Any other write failure
/// is an error.
fn write_stdout(w: &mut impl Write, args: fmt::Arguments) -> Result<(), String> {
    match w.write_fmt(args) {
        Err(e) if e.kind() != ErrorKind::BrokenPipe => {
            Err(format!("cannot write to standard output: {e}"))
        }
        _ => Ok(()),
    }
}

/// One command.
#[derive(Debug)]
struct Command {
    /// Its name; `replay --manifest` is `replay` given that option.
    name: &'static str,
    /// Its arguments: `<placeholder>`s and literal words.
    args: &'static [&'static str],
    /// The spec key its placeholder argument sets (`""`: none).
    arg_key: &'static str,
    /// What it does, one or more help lines.
    help: &'static str,
    /// Runs it.
    run: fn(&Args) -> Result<(), String>,
}

const fn command(
    name: &'static str,
    args: &'static [&'static str],
    help: &'static str,
    run: fn(&Args) -> Result<(), String>,
) -> Command {
    Command {
        name,
        args,
        arg_key: "",
        help,
        run,
    }
}

/// Every command. A name holding an option (`replay --manifest`) comes
/// after the plain name it refines and is chosen when that option is
/// given.
#[rustfmt::skip]
static COMMANDS: &[Command] = &[
    command("help", &[], "print this text", cmd_help),
    command("list", &[], "list built-in paper scenarios", cmd_list),
    command("show", &["<builtin>"], "print a built-in spec as TOML", cmd_show),
    command("run", &["<spec>"], "run a spec (file path or built-in name)", cmd_run),
    command("sweep", &["<spec>"], "run every combination of the axes, in parallel", cmd_sweep),
    command("campaign", &["<file>"], "run every spec a campaign file lists, merged\ninto one CSV/JSON", cmd_campaign),
    command("record", &["<spec>"], "dump the spec's synthetic demand to a trace", cmd_record),
    Command { arg_key: "workload.trace.path", ..command("replay", &["<trace.csv>"], "drive a simulation from a recorded trace", cmd_replay) },
    command("replay --manifest", &[], "re-execute a recorded serve session\nbit-for-bit, degraded rounds included", cmd_replay_manifest),
    Command { arg_key: "workload.import.path", ..command("import", &["<dataset.csv>"], "normalize a public dataset (Azure VM trace /\nAlibaba cluster trace) into a replayable\npamdc trace (docs/TRACES.md)", cmd_import) },
    command("serve", &["<spec>"], "daemon: tail a live demand feed, one MAPE\nstep per consumed tick, periodic snapshots\nand a JSONL status stream (docs/SERVE.md)", cmd_serve),
    command("trace", &["summarize", "<trace.jsonl>"], "per-phase wall-clock breakdown of a JSONL\nrun trace (docs/OBSERVABILITY.md)", cmd_trace_summarize),
];

/// What an option takes after its flag.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Takes {
    /// Nothing: a switch (`true` for the key it sets).
    Switch,
    /// A string: a path or a name.
    Text,
    /// A spec key's value, parsed by the key's row.
    Value,
    /// A comma list: a spec key's array.
    List,
    /// An integer of at least this much.
    Int(u64),
    /// A sweep axis, `key=v1,v2,...`; an axis key at most once.
    Axis,
}

/// A given option's value.
#[derive(Clone, Debug, PartialEq)]
enum Val {
    On,
    Text(String),
    Int(u64),
    Axis(String, Vec<String>),
}

impl Takes {
    /// Reads the text that follows `flag`.
    fn read(self, flag: &str, text: &str) -> Result<Val, String> {
        match self {
            Takes::Int(min) => text
                .parse()
                .ok()
                .filter(|&n| n >= min)
                .map(Val::Int)
                .ok_or_else(|| format!("{flag} needs an integer >= {min}, got {text:?}")),
            Takes::Axis => {
                let (key, values) = text
                    .split_once('=')
                    .ok_or_else(|| format!("{flag} must look like key=v1,v2,..."))?;
                let key = key.trim();
                let values: Vec<String> = values
                    .split(',')
                    .map(|v| v.trim().to_string())
                    .filter(|v| !v.is_empty())
                    .collect();
                if values.is_empty() {
                    return Err(format!("{flag} {key} needs at least one value"));
                }
                Ok(Val::Axis(key.into(), values))
            }
            _ => Ok(Val::Text(text.into())),
        }
    }

    /// The TOML text of `text` as the value of a spec key.
    fn toml(self, text: &str) -> String {
        match self {
            Takes::Switch => "true".into(),
            Takes::Text => emit_scalar(&Value::Str(text.into())),
            Takes::List => format!("[{text}]"),
            _ => text.into(),
        }
    }
}

/// One option row.
#[derive(Debug)]
struct Opt {
    /// `--name`.
    flag: &'static str,
    /// The commands that read it.
    cmds: &'static [&'static str],
    /// What follows the flag.
    takes: Takes,
    /// Its placeholder in the help text (`""` for a switch).
    value: &'static str,
    /// The spec key it sets (`""`: the command reads it itself).
    key: &'static str,
    /// Whether its commands need it.
    required: bool,
    /// Its help line (a keyed option's is the key's own doc line).
    help: &'static str,
}

/// A command-local option.
const fn opt(
    flag: &'static str,
    cmds: &'static [&'static str],
    takes: Takes,
    value: &'static str,
    help: &'static str,
) -> Opt {
    Opt {
        flag,
        cmds,
        takes,
        value,
        key: "",
        required: false,
        help,
    }
}

/// An option that restates the spec key `key`.
const fn sets(
    flag: &'static str,
    cmds: &'static [&'static str],
    takes: Takes,
    value: &'static str,
    key: &'static str,
) -> Opt {
    Opt {
        key,
        ..opt(flag, cmds, takes, value, "")
    }
}

impl Opt {
    /// This row, needed by its commands.
    const fn required(self) -> Opt {
        Opt {
            required: true,
            ..self
        }
    }

    /// Whether `command` reads this option.
    fn reads(&self, command: &str) -> bool {
        self.cmds == ANY || self.cmds.contains(&command)
    }

    /// The flag and its placeholder.
    fn synopsis(&self) -> String {
        match self.value {
            "" => self.flag.into(),
            value => format!("{} {value}", self.flag),
        }
    }
}

const ANY: &[&str] = &["any command"];
const RUNS: &[&str] = &["run", "sweep", "campaign", "replay"];
const HORIZON: &[&str] = &["run", "sweep", "campaign", "record", "replay"];
const REPORTS: &[&str] = &[
    "run",
    "sweep",
    "campaign",
    "replay",
    "replay --manifest",
    "serve",
];
const REPLAY: &[&str] = &["replay"];
const IMPORT: &[&str] = &["import"];
const SERVE: &[&str] = &["serve"];

/// Declares each option row as a constant, and `OPTIONS` as every row
/// in help-text order.
macro_rules! options {
    ($($id:ident = $row:expr;)*) => {
        $(const $id: Opt = $row;)*
        /// Every option, one row per flag and meaning: `--rate-scale`
        /// sets one key for `replay` and another for `import`.
        static OPTIONS: &[Opt] = &[$($id),*];
    };
}

options! {
    QUICK = opt("--quick", RUNS, Takes::Switch, "", "use each experiment's quick preset (CI smoke)");
    CSV = opt("--csv", REPORTS, Takes::Text, "<path>", "write run metrics as CSV");
    JSON = opt("--json", REPORTS, Takes::Text, "<path>", "write run metrics as JSON");
    HOURS = sets("--hours", HORIZON, Takes::Value, "<n>", "run.hours");
    JOBS = opt("--jobs", &["sweep", "campaign"], Takes::Int(1), "<n>", "cap concurrent runs (default: one per hardware\nthread); results are identical at any budget");
    PARAM = opt("--param", &["sweep"], Takes::Axis, "<key=a,b,...>", "a sweep axis, repeatable: the full cartesian\nproduct runs, later axes varying fastest").required();
    OUT = opt("--out", &["record", "import"], Takes::Text, "<trace.csv>", "the trace to write").required();
    NAMES = opt("--names", &["list"], Takes::Switch, "", "machine-readable listing: names only");
    TRACE_OUT = sets("--trace-out", &["run", "replay"], Takes::Text, "<path>", "profile.trace_out");
    PROGRESS = sets("--progress", RUNS, Takes::Switch, "", "profile.progress");
    QUIET = opt("--quiet", ANY, Takes::Switch, "", "only warnings and errors on stderr (PAMDC_LOG\nalso sets the level: error|warn|info|debug)");
    SPEC = opt("--spec", REPLAY, Takes::Text, "<spec>", "the world to replay in (default: the paper's\nmulti-DC world); the trace replaces its demand");
    RATE_SCALE = sets("--rate-scale", REPLAY, Takes::Value, "<k>", "workload.trace.rate_scale");
    STRETCH = sets("--stretch", REPLAY, Takes::Value, "<f>", "workload.trace.time_stretch");
    REMAP = sets("--remap", REPLAY, Takes::List, "<3,2,1,0>", "workload.trace.region_map");
    MANIFEST = opt("--manifest", &["replay --manifest"], Takes::Text, "<session.json>", "the serve session to re-execute");
    FEED = opt("--feed", SERVE, Takes::Text, "<feed.csv>", "the append-only demand feed to tail").required();
    SESSION = opt("--session", SERVE, Takes::Text, "<dir>", "session directory (default: the feed path with\nthe extension .session)");
    MAX_TICKS = opt("--max-ticks", SERVE, Takes::Int(0), "<n>", "stop after this many consumed ticks, restored\nticks included");
    POLL_MS = opt("--poll-ms", SERVE, Takes::Int(0), "<ms>", "feed poll interval while idle (default 200)");
    BUDGET_MS = sets("--budget-ms", SERVE, Takes::Value, "<ms>", "serve.budget_ms");
    FORMAT = sets("--format", IMPORT, Takes::Text, "<azure|alibaba>", "workload.import.format").required();
    TICK_SECS = sets("--tick-secs", IMPORT, Takes::Value, "<n>", "workload.import.tick_secs");
    REGIONS = sets("--regions", IMPORT, Takes::Value, "<n>", "workload.import.regions");
    IMPORT_RATE_SCALE = sets("--rate-scale", IMPORT, Takes::Value, "<k>", "workload.import.rate_scale");
    IMPORT_STRETCH = sets("--stretch", IMPORT, Takes::Value, "<f>", "workload.import.time_stretch");
    IMPORT_REMAP = sets("--remap", IMPORT, Takes::List, "<3,2,1,0>", "workload.import.region_map");
    MAX_SERVICES = sets("--max-services", IMPORT, Takes::Value, "<n>", "workload.import.max_services");
    IMPORT_MAX_TICKS = sets("--max-ticks", IMPORT, Takes::Value, "<n>", "workload.import.max_ticks");
}

/// A parsed command line.
#[derive(Debug)]
struct Args {
    command: &'static Command,
    /// Its arguments, as [`Command::args`] lists them.
    positional: Vec<String>,
    /// Every option given, in order.
    given: Vec<(&'static Opt, Val)>,
}

impl Args {
    /// The value of `opt`, the last one when it is given twice.
    fn get(&self, opt: &Opt) -> Option<&Val> {
        let mut given = self.given.iter().rev();
        given.find(|(o, _)| o.flag == opt.flag).map(|(_, v)| v)
    }

    fn on(&self, opt: &Opt) -> bool {
        self.get(opt).is_some()
    }

    fn text(&self, opt: &Opt) -> Option<&str> {
        match self.get(opt) {
            Some(Val::Text(s)) => Some(s),
            _ => None,
        }
    }

    fn path(&self, opt: &Opt) -> Option<PathBuf> {
        self.text(opt).map(PathBuf::from)
    }

    fn int(&self, opt: &Opt) -> Option<u64> {
        match self.get(opt) {
            Some(Val::Int(n)) => Some(*n),
            _ => None,
        }
    }

    /// The sweep axes, in flag order.
    fn axes(&self) -> Vec<(String, Vec<String>)> {
        let axis = |(_, v): &(&Opt, Val)| match v {
            Val::Axis(key, values) => Some((key.clone(), values.clone())),
            _ => None,
        };
        self.given.iter().filter_map(axis).collect()
    }

    /// `spec` with the spec keys this command line sets, in order, each
    /// parsed and checked by the key's row.
    fn apply(&self, spec: &ScenarioSpec) -> Result<ScenarioSpec, String> {
        let arg = self.positional.first();
        let arg = arg.map(|a| (self.command.arg_key, Takes::Text.toml(a)));
        let options = self.given.iter().map(|(o, v)| match v {
            Val::Text(text) => (o.key, o.takes.toml(text)),
            _ => (o.key, o.takes.toml("")),
        });
        let keys: Vec<(&str, String)> = arg.into_iter().chain(options).collect();
        let pairs: Vec<(&str, &str)> = (keys.iter())
            .filter(|(key, _)| !key.is_empty())
            .map(|(k, v)| (*k, v.as_str()))
            .collect();
        spec.with_params(&pairs).map_err(|e| e.to_string())
    }
}

/// Parses a command line into the command and whether `--quiet` was
/// given.
fn parse_args(args: &[String]) -> Result<(Args, bool), String> {
    let (first, rest) = args.split_first().ok_or("missing command")?;
    let name = match first.as_str() {
        "--help" | "-h" => "help",
        name => name,
    };
    let command = COMMANDS
        .iter()
        .rev()
        .find(|c| {
            let mut words = c.name.split(' ');
            words.next() == Some(name) && words.all(|w| rest.iter().any(|a| a == w))
        })
        .ok_or_else(|| format!("unknown command {first:?}"))?;
    let mut parsed = Args {
        command,
        positional: Vec::new(),
        given: Vec::new(),
    };
    let mut rest = rest.iter();
    while let Some(arg) = rest.next() {
        if !arg.starts_with("--") {
            parsed.positional.push(arg.clone());
            continue;
        }
        let opt = OPTIONS
            .iter()
            .find(|o| o.flag == arg && o.reads(command.name))
            .ok_or_else(|| format!("`pamdc {}` takes no option {arg}", command.name))?;
        let val = match opt.takes {
            Takes::Switch => Val::On,
            takes => takes.read(arg, rest.next().ok_or(format!("{arg} needs a value"))?)?,
        };
        if let Val::Axis(key, _) = &val {
            if parsed.axes().iter().any(|(k, _)| k == key) {
                return Err(format!("{arg} {key} given twice"));
            }
        }
        parsed.given.push((opt, val));
    }
    let fits = parsed.positional.len() == command.args.len()
        && (command.args.iter().zip(&parsed.positional)).all(|(w, a)| w.starts_with('<') || w == a);
    if !fits {
        return Err(format!(
            "`pamdc {}` takes {}, got {:?}",
            command.name,
            match command.args {
                [] => "no arguments".to_string(),
                args => args.join(" "),
            },
            parsed.positional
        ));
    }
    if let Some(opt) = OPTIONS
        .iter()
        .find(|o| o.required && o.reads(command.name) && !parsed.on(o))
    {
        return Err(format!("`pamdc {}` needs {}", command.name, opt.synopsis()));
    }
    let quiet = parsed.on(&QUIET);
    Ok((parsed, quiet))
}

/// The help text, rendered from [`COMMANDS`] and [`OPTIONS`].
fn usage() -> String {
    let mut out = String::from(
        "pamdc — power-aware multi-DC scenario engine (Berral, Gavaldà & Torres, ICPP 2013)\n\n\
         USAGE:\n",
    );
    for c in COMMANDS {
        let name = c.name.split(' ').map(|word| {
            let opt = OPTIONS.iter().find(|o| o.flag == word);
            opt.map_or(word.to_string(), Opt::synopsis)
        });
        let required = OPTIONS
            .iter()
            .filter(|o| o.required && o.reads(c.name))
            .map(Opt::synopsis);
        let words: Vec<String> = name
            .chain(c.args.iter().map(|a| a.to_string()))
            .chain(required)
            .collect();
        push_row(
            &mut out,
            &format!("pamdc {} [opts]", words.join(" ")),
            c.help,
        );
    }
    out.push_str(
        "\nOPTIONS (a command refuses any option it does not read; an option that sets a\n\
         spec key is parsed and range-checked as that key is in a spec file):\n",
    );
    let keys = schema::keys::<ScenarioSpec>("");
    for o in OPTIONS {
        let mut help = o.help.to_string();
        if let Some(key) = keys.iter().find(|k| k.path == o.key) {
            let accepts = key.check.describe();
            help = format!("{}\nsets {}", key.doc, o.key);
            if !accepts.is_empty() {
                help.push_str(&format!(", {accepts}"));
            }
        }
        push_row(
            &mut out,
            &o.synopsis(),
            &format!("{help}\n({})", o.cmds.join(", ")),
        );
    }
    out
}

/// Appends `left` and the lines of `right` as two columns; `right`
/// starts on a line of its own when `left` is too wide.
fn push_row(out: &mut String, left: &str, right: &str) {
    const WIDTH: usize = 34;
    let mut lines = right.lines();
    if left.len() < WIDTH {
        out.push_str(&format!("  {left:WIDTH$} {}\n", lines.next().unwrap_or("")));
    } else {
        out.push_str(&format!("  {left}\n"));
    }
    for line in lines {
        out.push_str(&format!("  {:WIDTH$} {line}\n", ""));
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

/// The report of one controller-driven run (replay, serve, session
/// replay): the generic summary table and its metrics.
fn outcome_report(name: String, outcome: &RunOutcome) -> SpecReport {
    SpecReport {
        name,
        text: render_outcome(outcome),
        metrics: outcome_metrics("", outcome),
    }
}

/// Prints `report` and writes it where the command line asks.
fn report_one(report: &SpecReport, args: &Args) -> Result<(), String> {
    outln!("{}", report.text);
    write_outputs(std::slice::from_ref(report), args)
}

fn write_outputs(reports: &[SpecReport], args: &Args) -> Result<(), String> {
    // Each format is rendered only when its file is asked for.
    let csv = reports_csv as fn(&[SpecReport]) -> String;
    for (opt, emit) in [(&CSV, csv), (&JSON, reports_json)] {
        if let Some(path) = args.path(opt) {
            std::fs::write(&path, emit(reports))
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            pamdc_obs::info!("wrote {}", path.display());
        }
    }
    Ok(())
}

/// Installs the JSONL file sink `[profile] trace_out` names, if any, and
/// returns its path for [`finish_trace`].
fn install_trace(spec: &ScenarioSpec) -> Result<Option<PathBuf>, String> {
    let Some(path) = spec.profile.trace_out.as_ref().map(PathBuf::from) else {
        return Ok(None);
    };
    pamdc_obs::trace::install_file(&path)
        .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
    Ok(Some(path))
}

fn finish_trace(path: &Path) -> Result<(), String> {
    pamdc_obs::trace::finish().map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    pamdc_obs::info!("wrote trace {}", path.display());
    Ok(())
}

fn cmd_help(_: &Args) -> Result<(), String> {
    write_stdout(&mut std::io::stdout().lock(), format_args!("{}", usage()))
}

fn cmd_list(args: &Args) -> Result<(), String> {
    if args.on(&NAMES) {
        for b in registry::builtins() {
            outln!("{}", b.name);
        }
        return Ok(());
    }
    outln!("built-in scenarios ({}):\n", registry::builtins().len());
    let width = registry::builtins()
        .iter()
        .map(|b| b.name.len())
        .max()
        .unwrap_or(0);
    for b in registry::builtins() {
        outln!("  {:width$}  {}", b.name, b.title);
    }
    outln!("\nrun one with `pamdc run <name>`; inspect with `pamdc show <name>`.");
    Ok(())
}

fn cmd_show(args: &Args) -> Result<(), String> {
    let name = &args.positional[0];
    let builtin = registry::find(name)
        .ok_or_else(|| format!("no built-in named {name:?} (try `pamdc list`)"))?;
    write_stdout(
        &mut std::io::stdout().lock(),
        format_args!("{}", builtin.spec.emit()),
    )
}

fn cmd_run(args: &Args) -> Result<(), String> {
    let (spec, base) = load_spec(&args.positional[0])?;
    let spec = args.apply(&spec)?;
    let trace_out = install_trace(&spec)?;
    let report = run_spec(&spec, &base, args.on(&QUICK)).map_err(|e| e.to_string())?;
    if let Some(path) = trace_out {
        finish_trace(&path)?;
    }
    report_one(&report, args)
}

/// Expands the cartesian product of every sweep axis. Each variant
/// carries its override suffix (`k1=v1,k2=v2`); later axes vary
/// fastest, so rows group by the first axis.
fn cartesian(
    base_spec: &ScenarioSpec,
    axes: &[(String, Vec<String>)],
) -> Result<Vec<(String, ScenarioSpec)>, String> {
    let mut variants: Vec<(String, ScenarioSpec)> = vec![(String::new(), base_spec.clone())];
    for (key, values) in axes {
        let mut next = Vec::with_capacity(variants.len() * values.len());
        for (suffix, spec) in &variants {
            for value in values {
                let v = spec.with_params(&[(key, value)]).map_err(|e| {
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

fn cmd_sweep(args: &Args) -> Result<(), String> {
    let (spec, base) = load_spec(&args.positional[0])?;
    // The command line's own keys set the base, under every axis.
    let base_spec = args.apply(&spec)?;
    let axes = args.axes();
    // Build every variant up front so a bad value fails before any work.
    let mut variants = cartesian(&base_spec, &axes)?;
    for (suffix, spec) in &mut variants {
        spec.name = format!("{}[{suffix}]", base_spec.name);
    }
    let described: Vec<String> = axes
        .iter()
        .map(|(k, vs)| format!("{k} ({} values)", vs.len()))
        .collect();
    pamdc_obs::info!(
        "sweeping {} -> {} variants...",
        described.join(" x "),
        variants.len()
    );
    let quick = args.on(&QUICK);
    let jobs = args
        .int(&JOBS)
        .map(|n| usize::try_from(n).unwrap_or(usize::MAX));
    let reports: Vec<Result<SpecReport, String>> =
        pamdc_simcore::par::parallel_map_bounded(variants, jobs, move |(suffix, spec)| {
            run_spec(&spec, &base, quick).map_err(|e| format!("{suffix}: {e}"))
        });
    // `parallel_map` preserves input order, so rows line up with values.
    let ok = reports.into_iter().collect::<Result<Vec<_>, _>>()?;
    outln!("{}", reports_csv(&ok));
    write_outputs(&ok, args)
}

fn cmd_campaign(args: &Args) -> Result<(), String> {
    let file = Path::new(&args.positional[0]);
    let text = std::fs::read_to_string(file)
        .map_err(|e| format!("cannot read {}: {e}", file.display()))?;
    let campaign = Campaign::parse(&text).map_err(|e| format!("{}: {e}", file.display()))?;
    let campaign_dir = file.parent().unwrap_or(Path::new("")).to_path_buf();

    // Resolve every entry up front, its overrides first and the command
    // line's keys over them: a typo in run 7 fails before run 1 burns
    // any compute.
    let mut runs: Vec<(ScenarioSpec, PathBuf)> = Vec::with_capacity(campaign.runs.len());
    for run in &campaign.runs {
        let (spec, base_dir) = load_spec_in(&run.spec, &campaign_dir)?;
        let spec =
            campaign::apply_overrides(&spec, run).map_err(|e| format!("{}: {e}", run.spec))?;
        runs.push((args.apply(&spec)?, base_dir));
    }
    let jobs = args
        .int(&JOBS)
        .map(|n| usize::try_from(n).unwrap_or(usize::MAX));
    let budget = jobs.map_or(String::new(), |n| format!("at most {n} "));
    pamdc_obs::info!(
        "campaign '{}': {} runs, {budget}in parallel...",
        campaign.name,
        runs.len()
    );
    let quick = args.on(&QUICK);
    let reports: Vec<Result<SpecReport, String>> =
        pamdc_simcore::par::parallel_map_bounded(runs, jobs, move |(spec, base_dir)| {
            let name = spec.name.clone();
            run_spec(&spec, &base_dir, quick).map_err(|e| format!("{name}: {e}"))
        });
    let ok = reports.into_iter().collect::<Result<Vec<_>, _>>()?;
    for report in &ok {
        outln!("# {}\n{}", report.name, report.text);
    }
    outln!("{}", reports_csv(&ok));
    write_outputs(&ok, args)
}

/// The path of an option [`parse_args`] requires.
fn required_path(args: &Args, opt: &Opt) -> PathBuf {
    args.path(opt).expect("parse_args checks required options")
}

fn cmd_record(args: &Args) -> Result<(), String> {
    let (spec, base) = load_spec(&args.positional[0])?;
    let spec = args.apply(&spec)?;
    let out = required_path(args, &OUT);
    let scenario = build::build_scenario(&spec, &base).map_err(|e| e.to_string())?;
    let horizon = SimDuration::from_hours(spec.run.hours);
    let tick = SimDuration::from_secs(spec.run.tick_secs);
    let trace = DemandTrace::record(&scenario.workload, horizon, tick);
    std::fs::write(&out, trace.to_csv())
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

fn cmd_replay(args: &Args) -> Result<(), String> {
    let mut spec = match args.text(&SPEC) {
        Some(arg) => load_spec(arg)?.0,
        None => ScenarioSpec::default(),
    };
    // The replayed file replaces the spec's own demand source; like
    // the trace path, it is as given (cwd-relative), not spec-relative.
    spec.workload.trace = None;
    spec.workload.import = None;
    let mut spec = args.apply(&spec)?;
    let replay = spec.workload.trace.clone().expect("the trace sets it");
    let trace_path = Path::new(&replay.path);
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
    let source = build::trace_source(trace, &replay, trace_path).map_err(|e| e.0)?;
    let trace_out = install_trace(&spec)?;
    let controller = build::session(&mut spec, source.into()).map_err(|e| e.to_string())?;
    let hours = if args.on(&QUICK) {
        spec.run.hours.min(3)
    } else {
        spec.run.hours
    };
    let (mut outcome, _) = controller.run_for(SimDuration::from_hours(hours));
    if let Some(path) = trace_out {
        // This path drives the controller directly (no experiment
        // pipeline), so it flushes the run's buffered lines itself.
        pamdc_obs::trace::write_lines(&outcome.trace_lines);
        outcome.trace_lines.clear();
        finish_trace(&path)?;
    }
    report_one(
        &outcome_report(format!("replay[{}]", trace_path.display()), &outcome),
        args,
    )
}

fn cmd_replay_manifest(args: &Args) -> Result<(), String> {
    let manifest = args.path(&MANIFEST).expect("the command is chosen by it");
    report_one(&serve::cmd_replay_manifest(&manifest)?, args)
}

/// `pamdc serve` — resolve the spec and session directory, then hand
/// off to the daemon loop (docs/SERVE.md).
fn cmd_serve(args: &Args) -> Result<(), String> {
    let spec = args.apply(&load_spec(&args.positional[0])?.0)?;
    let feed = required_path(args, &FEED);
    let session = args
        .path(&SESSION)
        .unwrap_or_else(|| feed.with_extension("session"));
    let cfg = serve::ServeConfig {
        feed,
        session,
        max_ticks: args.int(&MAX_TICKS),
        poll_ms: args.int(&POLL_MS).unwrap_or(200),
    };
    report_one(&serve::cmd_serve(spec, &cfg)?, args)
}

fn cmd_import(args: &Args) -> Result<(), String> {
    let spec = args.apply(&ScenarioSpec::default())?;
    let import = spec.workload.import.as_ref().expect("the dataset sets it");
    let trace = build::import_trace(import, Path::new("")).map_err(|e| e.0)?;
    let out = required_path(args, &OUT);
    std::fs::write(&out, trace.to_csv())
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    pamdc_obs::info!(
        "imported {} ({}): {} ticks x {} services ({} regions, tick {}s) -> {}",
        import.path,
        import.format,
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
fn cmd_trace_summarize(args: &Args) -> Result<(), String> {
    let file = Path::new(&args.positional[1]);
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
    outln!(
        "{}: {} run(s), {} tick(s)\n\n{}",
        file.display(),
        summary.runs,
        summary.ticks,
        spans.render()
    );
    if let Some(coverage) = summary.coverage() {
        outln!(
            "phase coverage: {:.1}% of root span wall-clock is under named phases",
            100.0 * coverage
        );
    }
    if !summary.counters.is_empty() {
        let mut counters = pamdc_core::report::TextTable::new(&["counter", "final value"]);
        for (name, value) in &summary.counters {
            counters.row(vec![name.clone(), value.to_string()]);
        }
        outln!("\n{}", counters.render());
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (args, quiet) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprint!("error: {msg}\n\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if quiet {
        pamdc_obs::log::set_level(pamdc_obs::log::Level::Warn);
    }
    match (args.command.run)(&args) {
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

    /// A writer whose reader is gone, or that fails some other way.
    struct Failing(ErrorKind);

    impl Write for Failing {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            Err(self.0.into())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn closed_stdout_ends_output_quietly() {
        let mut out = Vec::new();
        write_stdout(&mut out, format_args!("{} {}\n", "a", 1)).unwrap();
        assert_eq!(out, b"a 1\n");
        let mut closed = Failing(ErrorKind::BrokenPipe);
        for _ in 0..3 {
            assert_eq!(write_stdout(&mut closed, format_args!("line\n")), Ok(()));
        }
        let err = write_stdout(&mut Failing(ErrorKind::PermissionDenied), format_args!("x"));
        assert!(err
            .unwrap_err()
            .starts_with("cannot write to standard output"));
    }

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>()).map(|(args, _)| args)
    }

    /// Parses and runs a command line, as `main` does.
    fn run(args: &[&str]) -> Result<(), String> {
        let args = parse(args)?;
        (args.command.run)(&args)
    }

    /// The spec a command line's keys make of the default spec.
    fn applied(args: &[&str]) -> ScenarioSpec {
        parse(args)
            .unwrap()
            .apply(&ScenarioSpec::default())
            .unwrap()
    }

    #[test]
    fn parses_run_with_options() {
        let args = parse(&["run", "fig4", "--quick", "--json", "out.json"]).unwrap();
        assert_eq!(args.command.name, "run");
        assert_eq!(args.positional, vec!["fig4"]);
        assert!(args.on(&QUICK));
        assert_eq!(args.path(&JSON), Some(PathBuf::from("out.json")));
        assert_eq!(args.path(&CSV), None);
    }

    #[test]
    fn parses_sweep_params() {
        let args = parse(&[
            "sweep",
            "fig6",
            "--param",
            "workload.load_scale=0.5,1.0,1.5",
        ])
        .unwrap();
        let axes = args.axes();
        assert_eq!(axes.len(), 1);
        assert_eq!(axes[0].0, "workload.load_scale");
        assert_eq!(axes[0].1, vec!["0.5", "1.0", "1.5"]);
        assert!(parse(&["sweep", "fig6"]).is_err());
        assert!(parse(&["sweep", "fig6", "--param", "novalues"]).is_err());
    }

    #[test]
    fn parses_cartesian_sweep_axes() {
        let args = parse(&[
            "sweep",
            "fig6",
            "--param",
            "seed=1,2",
            "--param",
            "workload.vms=4,5",
        ])
        .unwrap();
        let axes = args.axes();
        assert_eq!(axes.len(), 2);
        assert_eq!(axes[0].0, "seed");
        assert_eq!(axes[1].0, "workload.vms");
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
        let args = parse(&["campaign", "c.toml", "--quick", "--csv", "out.csv"]).unwrap();
        assert_eq!(args.command.name, "campaign");
        assert_eq!(args.positional, vec!["c.toml"]);
        assert!(args.on(&QUICK));
        assert_eq!(args.path(&CSV), Some(PathBuf::from("out.csv")));
        assert_eq!(args.int(&JOBS), None, "unbounded by default");
        assert!(parse(&["campaign"]).is_err(), "campaign needs a file");
    }

    #[test]
    fn parses_jobs_budget() {
        let args = parse(&["campaign", "c.toml", "--jobs", "2"]).unwrap();
        assert_eq!(args.int(&JOBS), Some(2));
        let args = parse(&["sweep", "fig6", "--param", "seed=1,2", "--jobs", "1"]).unwrap();
        assert_eq!(args.int(&JOBS), Some(1));
        assert!(parse(&["campaign", "c.toml", "--jobs", "0"]).is_err());
        assert!(parse(&["campaign", "c.toml", "--jobs", "many"]).is_err());
    }

    #[test]
    fn parses_replay_transforms() {
        let spec = applied(&[
            "replay",
            "t.csv",
            "--stretch",
            "2.0",
            "--rate-scale",
            "1.5",
            "--remap",
            "3,2,1,0",
        ]);
        let replay = spec.workload.trace.expect("the trace sets workload.trace");
        assert_eq!(replay.path, "t.csv");
        assert_eq!(replay.time_stretch, 2.0);
        assert_eq!(replay.rate_scale, 1.5);
        assert_eq!(replay.region_map, vec![3, 2, 1, 0]);
    }

    #[test]
    fn parses_replay_manifest() {
        let args = parse(&["replay", "--manifest", "s/session.json"]).unwrap();
        assert_eq!(args.command.name, "replay --manifest");
        assert!(args.positional.is_empty());
        assert_eq!(args.path(&MANIFEST), Some(PathBuf::from("s/session.json")));
        assert!(
            parse(&["replay", "t.csv", "--manifest", "m.json"]).is_err(),
            "a trace and a manifest are mutually exclusive"
        );
        assert!(parse(&["replay"]).is_err(), "needs a trace or a manifest");
    }

    #[test]
    fn parses_serve_flags() {
        let line = [
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
        ];
        let args = parse(&line).unwrap();
        assert_eq!(args.positional, vec!["fig4"]);
        assert_eq!(args.path(&FEED), Some(PathBuf::from("feed.csv")));
        assert_eq!(args.path(&SESSION), Some(PathBuf::from("s")));
        assert_eq!(args.int(&MAX_TICKS), Some(40));
        assert_eq!(args.int(&POLL_MS), Some(50));
        assert_eq!(applied(&line).serve.budget_ms, 250);
        assert!(parse(&["serve", "fig4"]).is_err(), "--feed is required");
    }

    #[test]
    fn parses_import_options() {
        let line = [
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
        ];
        assert_eq!(
            parse(&line).unwrap().path(&OUT),
            Some(PathBuf::from("t.csv"))
        );
        let import = applied(&line).workload.import.expect("import table");
        assert_eq!(import.path, "azure.csv");
        assert_eq!(import.format, "azure");
        assert_eq!(import.tick_secs, Some(600));
        assert_eq!(import.regions, 4);
        assert_eq!(import.max_services, Some(8));
        assert_eq!(import.region_map, vec![1, 0, 3, 2]);
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
        let args = [
            "run",
            "fig4",
            "--trace-out",
            "t.jsonl",
            "--progress",
            "--quiet",
        ];
        let (_, quiet) = parse_args(&args.map(String::from)).unwrap();
        assert!(quiet);
        let spec = applied(&args);
        assert_eq!(spec.profile.trace_out.as_deref(), Some("t.jsonl"));
        assert!(spec.profile.progress);
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
        assert_eq!(err, "`pamdc sweep` takes no option --trace-out");
        let err = parse(&["campaign", "c.toml", "--trace-out", "t.jsonl"]).unwrap_err();
        assert_eq!(err, "`pamdc campaign` takes no option --trace-out");
    }

    #[test]
    fn refuses_options_the_command_does_not_read() {
        for (args, option, usage) in [
            (
                &["run", "fig4", "--rate-scale", "2"][..],
                "--rate-scale",
                "run",
            ),
            (&["run", "fig4", "--jobs", "2"], "--jobs", "run"),
            (
                &["record", "fig4", "--out", "t.csv", "--csv", "x"],
                "--csv",
                "record",
            ),
            (
                &[
                    "import", "a.csv", "--format", "azure", "--out", "t.csv", "--hours", "3",
                ],
                "--hours",
                "import",
            ),
            (&["list", "--feed", "f"], "--feed", "list"),
            (&["show", "fig4", "--quick"], "--quick", "show"),
            (
                &["serve", "fig4", "--feed", "f.csv", "--quick"],
                "--quick",
                "serve",
            ),
            (
                &["replay", "t.csv", "--manifest-dir", "x"],
                "--manifest-dir",
                "replay",
            ),
            (
                &["replay", "--manifest", "m.json", "--spec", "fig4"],
                "--spec",
                "replay --manifest",
            ),
            (
                &["replay", "--manifest", "m.json", "--hours", "2"],
                "--hours",
                "replay --manifest",
            ),
            (
                &["trace", "summarize", "t.jsonl", "--json", "x"],
                "--json",
                "trace",
            ),
        ] {
            let err = parse(args).expect_err(option);
            assert_eq!(err, format!("`pamdc {usage}` takes no option {option}"));
        }
        // `--quiet` is global.
        for args in [
            &["list", "--quiet"][..],
            &["show", "fig4", "--quiet"],
            &["record", "fig4", "--out", "t.csv", "--quiet"],
            &[
                "import", "a.csv", "--format", "azure", "--out", "t.csv", "--quiet",
            ],
            &["replay", "--manifest", "m.json", "--quiet"],
            &["trace", "summarize", "t.jsonl", "--quiet"],
        ] {
            let parsed = parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>());
            assert!(parsed.expect("--quiet is accepted").1, "{args:?}");
        }
    }

    /// The options each command reads, besides the global `--quiet`.
    const ACCEPTED: &[(&str, &str)] = &[
        ("help", ""),
        ("list", "--names"),
        ("show", ""),
        ("run", "--quick --csv --json --hours --trace-out --progress"),
        (
            "sweep",
            "--param --quick --csv --json --hours --jobs --progress",
        ),
        ("campaign", "--quick --csv --json --hours --jobs --progress"),
        ("record", "--out --hours"),
        (
            "replay",
            "--spec --rate-scale --stretch --remap --quick --csv --json --hours --trace-out \
             --progress",
        ),
        ("replay --manifest", "--manifest --csv --json"),
        (
            "serve",
            "--feed --session --max-ticks --poll-ms --budget-ms --csv --json",
        ),
        (
            "import",
            "--format --out --tick-secs --regions --rate-scale --stretch --remap --max-services \
             --max-ticks",
        ),
        ("trace", ""),
    ];

    #[test]
    fn each_command_reads_exactly_its_options_one_row_each() {
        assert_eq!(COMMANDS.len(), ACCEPTED.len());
        for (name, options) in ACCEPTED {
            let mut want: Vec<&str> = options.split_whitespace().collect();
            want.push("--quiet");
            want.sort_unstable();
            let mut got: Vec<&str> = OPTIONS
                .iter()
                .filter(|o| o.reads(name))
                .map(|o| o.flag)
                .collect();
            got.sort_unstable();
            assert_eq!(got, want, "{name}");
        }
        // A keyed row names a key of the spec schema.
        let keys = schema::keys::<ScenarioSpec>("");
        for o in OPTIONS.iter().filter(|o| !o.key.is_empty()) {
            assert!(
                keys.iter().any(|k| k.path == o.key),
                "{}: {}",
                o.flag,
                o.key
            );
        }
    }

    #[test]
    fn help_is_a_command_and_the_usage_text_covers_both_tables() {
        for first in ["help", "--help", "-h"] {
            let (args, _) = parse_args(&[first.to_string()]).expect(first);
            assert_eq!(args.command.name, "help", "{first}");
        }
        assert!(parse(&["run", "fig4", "--help"]).is_err());
        let text = usage();
        for c in COMMANDS {
            assert!(text.contains(&format!("pamdc {}", c.name)), "{}", c.name);
        }
        for o in OPTIONS {
            assert!(text.contains(&o.synopsis()), "{}", o.flag);
            assert!(text.contains(o.key), "{}", o.key);
        }
        assert!(text.contains("sets run.hours, in [1, 8760]"), "{text}");
    }

    #[test]
    fn spec_key_options_are_checked_by_the_key_row() {
        let dir = std::env::temp_dir().join(format!("pamdc-cli-keys-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let out = dir.join("x.csv");
        let out = out.to_str().expect("utf-8 path");
        let err = run(&["record", "resilience", "--out", out, "--hours", "8761"])
            .expect_err("a horizon past a year");
        assert!(err.contains("run.hours must be in [1, 8760]"), "{err}");
        assert!(!Path::new(out).exists(), "refused before recording");
        for line in [
            &["run", "fig4", "--hours", "0"][..],
            &["run", "fig4", "--hours", "2.5"],
            &["sweep", "fig6", "--param", "seed=1,2", "--hours", "0"],
        ] {
            let err = run(line).expect_err("refused before any run");
            assert!(err.contains("run.hours"), "{line:?}: {err}");
        }
        let err = run(&["serve", "fig4", "--feed", out, "--budget-ms", "-1"])
            .expect_err("a negative budget");
        assert!(err.contains("serve.budget_ms"), "{err}");
        let err = run(&["import", "a.csv", "--format", "csv", "--out", out])
            .expect_err("an unknown format");
        assert!(
            err.contains("workload.import.format must be azure | alibaba"),
            "{err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The `pamdc` command lines of a shell text: the words after
    /// `prefix`, found anywhere on a line (`anywhere`) or at its start.
    /// Continuations are joined; comments, redirections, pipes and
    /// command substitutions end a command.
    fn command_lines(text: &str, prefix: &str, anywhere: bool) -> Vec<Vec<String>> {
        let mut out = Vec::new();
        for line in text.replace("\\\n", " ").lines() {
            let line = line.trim_start();
            let tail = match line.find(prefix) {
                Some(at) if anywhere || at == 0 => &line[at + prefix.len()..],
                _ => continue,
            };
            let end = [" #", " 2>", " >", " |", ")", ";"]
                .iter()
                .filter_map(|stop| tail.find(stop))
                .min()
                .unwrap_or(tail.len());
            let words = tail[..end]
                .split_whitespace()
                .map(|w| w.trim_matches('"').to_string())
                .collect();
            out.push(words);
        }
        out
    }

    #[test]
    fn every_documented_command_line_parses() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let ci = std::fs::read_to_string(root.join(".github/workflows/ci.yml")).expect("ci.yml");
        let mut lines = command_lines(&ci, "target/release/pamdc ", true);
        let ci_count = lines.len();
        let mut docs: Vec<PathBuf> = std::fs::read_dir(root.join("docs"))
            .expect("docs/")
            .map(|e| e.expect("entry").path())
            .filter(|p| p.extension().is_some_and(|x| x == "md"))
            .collect();
        docs.sort();
        for doc in docs {
            let text = std::fs::read_to_string(&doc).expect("doc");
            // Only fenced code blocks hold whole command lines.
            for block in text.split("```").skip(1).step_by(2) {
                lines.extend(command_lines(block, "pamdc ", false));
            }
        }
        assert!(ci_count >= 20, "found {ci_count} CI command lines");
        assert!(
            lines.len() > ci_count + 10,
            "found {} command lines",
            lines.len()
        );
        for words in &lines {
            assert!(
                parse_args(words).is_ok(),
                "pamdc {}: {:?}",
                words.join(" "),
                parse_args(words)
            );
        }
    }

    #[test]
    fn parses_trace_summarize() {
        let args = parse(&["trace", "summarize", "out.jsonl"]).unwrap();
        assert_eq!(args.command.name, "trace");
        assert_eq!(args.positional, vec!["summarize", "out.jsonl"]);
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
        let trace = path.to_str().expect("utf-8 path");
        let replay = |options: &[&str]| {
            let mut line = vec!["replay", trace, "--quick"];
            line.extend(options);
            run(&line)
        };
        let err = replay(&[]).expect_err("nothing to replay");
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
        let err = replay(&["--remap", "0,1"]).expect_err("map covers 2 of 4 regions");
        assert!(err.contains("region_map lists 2 regions"), "{err}");
        // So are bad --rate-scale, --stretch and --remap values, by the
        // keys' rows in the spec schema.
        for (option, value, key) in [
            (
                "--rate-scale",
                "NaN",
                "workload.trace.rate_scale must be a number",
            ),
            (
                "--rate-scale",
                "nan",
                "workload.trace.rate_scale must be a finite number",
            ),
            (
                "--rate-scale",
                "-1",
                "workload.trace.rate_scale must be >= 0",
            ),
            ("--stretch", "0", "workload.trace.time_stretch must be > 0"),
            (
                "--stretch",
                "inf",
                "workload.trace.time_stretch must be a finite number",
            ),
            (
                "--remap",
                "a,b",
                "workload.trace.region_map must be an array",
            ),
        ] {
            let err = replay(&[option, value]).expect_err(key);
            assert!(err.contains(key), "{option} {value}: {err}");
        }
        // A spec whose flash crowd cannot apply to a trace is an error
        // naming the key, not a builder panic.
        let (mut spec, _) = load_spec("resilience").expect("builtin");
        spec.workload.flash_crowd = Some(4.0);
        let spec_path = dir.join("flash-crowd.toml");
        std::fs::write(&spec_path, spec.emit()).expect("spec");
        let spec_arg = spec_path.display().to_string();
        let err = replay(&["--spec", &spec_arg]).expect_err("flash crowd over a trace");
        assert!(err.contains("workload.flash_crowd"), "{err}");
        // A spec's own demand source gives way to the replayed file: the
        // run gets as far as the trace's region map.
        spec.workload.flash_crowd = None;
        spec.workload.import = Some(pamdc_scenario::spec::ImportSpec {
            path: "never-read.csv".into(),
            ..Default::default()
        });
        std::fs::write(&spec_path, spec.emit()).expect("spec");
        let err = replay(&["--spec", &spec_arg, "--remap", "0,1"]).expect_err("map");
        assert!(err.contains("region_map lists 2 regions"), "{err}");
    }

    #[test]
    fn builtins_resolve_as_specs() {
        let (spec, _) = load_spec("fig6").expect("builtin");
        assert_eq!(spec.name, "fig6");
        assert!(load_spec("not-a-thing").is_err());
    }
}
