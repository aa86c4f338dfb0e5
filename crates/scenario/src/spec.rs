//! The declarative scenario model: [`ScenarioSpec`] and its TOML-subset
//! wire form.
//!
//! A spec describes everything an experiment needs — topology, workload
//! (synthetic or a replayed trace), energy environment, billing, faults,
//! profile changes, scheduler policy and horizon — as plain data. Specs
//! parse from and emit to the [`crate::toml`] subset; emission is
//! canonical (every field written, keys sorted), so
//! `parse(emit(spec)) == spec` holds bit-for-bit and diffs of emitted
//! specs are meaningful.
//!
//! Field semantics cite the source paper where they reproduce it; see
//! `PAPER.md` for the abstract and `docs/SCENARIOS.md` for the format
//! walk-through with worked examples.

use crate::toml::{self, Table, TomlError, Value};
use std::collections::BTreeMap;

/// Spec-level errors (syntax via [`TomlError`], or semantic).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpecError(pub String);

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "spec error: {}", self.0)
    }
}

impl std::error::Error for SpecError {}

impl From<TomlError> for SpecError {
    fn from(e: TomlError) -> Self {
        SpecError(e.to_string())
    }
}

fn bad(msg: impl Into<String>) -> SpecError {
    SpecError(msg.into())
}

/// Which of the paper's topologies to build (PAPER.md §V-B / §V-C).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TopologyPreset {
    /// One DC (Barcelona), the paper's §V-B testbed.
    IntraDc,
    /// Four DCs (Brisbane/Bangalore/Barcelona/Boston), §V-C.
    MultiDc,
}

impl TopologyPreset {
    fn name(self) -> &'static str {
        match self {
            TopologyPreset::IntraDc => "intra-dc",
            TopologyPreset::MultiDc => "multi-dc",
        }
    }

    fn from_name(s: &str) -> Result<Self, SpecError> {
        match s {
            "intra-dc" => Ok(TopologyPreset::IntraDc),
            "multi-dc" => Ok(TopologyPreset::MultiDc),
            _ => Err(bad(format!(
                "unknown topology preset {s:?} (intra-dc | multi-dc)"
            ))),
        }
    }
}

/// One host model a `[[topology.classes]]` entry can name.
#[derive(Clone, Debug, PartialEq)]
pub enum MachineClass {
    /// The paper's measured Intel Atom host.
    Atom,
    /// The Xeon-class host (8 cores, 16 GB, steeper power curve).
    Xeon,
    /// A custom class from four headline numbers (the power curve is
    /// filled in with the Atom-shaped concave interpolation; see
    /// `MachineSpec::custom`).
    Custom {
        /// Core count (capacity = 100 %CPU per core).
        cores: usize,
        /// Memory, MB.
        mem_mb: f64,
        /// Idle (0 active cores) IT draw, watts.
        idle_watts: f64,
        /// All-cores-active IT draw, watts.
        peak_watts: f64,
    },
}

/// One `[[topology.classes]]` entry: `count` hosts of one machine class
/// in **every** datacenter.
#[derive(Clone, Debug, PartialEq)]
pub struct HostClassSpec {
    /// Hosts of this class per DC.
    pub count: usize,
    /// Which machine model.
    pub machine: MachineClass,
}

/// `[topology]` — datacenters and hosts.
#[derive(Clone, Debug, PartialEq)]
pub struct TopologySpec {
    /// Which city set to build.
    pub preset: TopologyPreset,
    /// Hosts per datacenter (ignored when `classes` is non-empty).
    pub pms_per_dc: usize,
    /// Heterogeneous host-class mix per DC (`[[topology.classes]]`);
    /// empty = `pms_per_dc` Atom hosts, the paper fleet.
    pub classes: Vec<HostClassSpec>,
    /// Deploy every VM into this DC index initially (the de-location
    /// experiments start overloaded); `None` = home-region placement.
    pub deploy_all_in: Option<usize>,
}

impl TopologySpec {
    /// Hosts each DC actually gets: the class mix when one is declared,
    /// `pms_per_dc` otherwise.
    pub fn hosts_per_dc(&self) -> usize {
        if self.classes.is_empty() {
            self.pms_per_dc
        } else {
            self.classes.iter().map(|c| c.count).sum()
        }
    }
}

/// Which synthetic workload preset to attach (PAPER.md §V, Li-BCN).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkloadPreset {
    /// All clients local to Barcelona (Figure 4).
    IntraDc,
    /// Worldwide clients with home-region affinity (Figures 6/7).
    MultiDc,
    /// One noon-peaked service chasing the sun (Figure 5).
    FollowTheSun,
    /// Latency-neutral flat load (energy-isolation extensions).
    Uniform,
}

impl WorkloadPreset {
    fn name(self) -> &'static str {
        match self {
            WorkloadPreset::IntraDc => "intra-dc",
            WorkloadPreset::MultiDc => "multi-dc",
            WorkloadPreset::FollowTheSun => "follow-the-sun",
            WorkloadPreset::Uniform => "uniform",
        }
    }

    fn from_name(s: &str) -> Result<Self, SpecError> {
        match s {
            "intra-dc" => Ok(WorkloadPreset::IntraDc),
            "multi-dc" => Ok(WorkloadPreset::MultiDc),
            "follow-the-sun" => Ok(WorkloadPreset::FollowTheSun),
            "uniform" => Ok(WorkloadPreset::Uniform),
            _ => Err(bad(format!(
                "unknown workload preset {s:?} (intra-dc | multi-dc | follow-the-sun | uniform)"
            ))),
        }
    }
}

/// Replay transforms for a trace-driven workload.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceReplaySpec {
    /// Trace CSV path (resolved relative to the spec file's directory).
    pub path: String,
    /// Arrival-rate multiplier.
    pub rate_scale: f64,
    /// Playback slowdown factor (2.0 = twice as slow).
    pub time_stretch: f64,
    /// Region relabelling (`map[recorded] = replayed`); empty = identity.
    pub region_map: Vec<usize>,
}

impl Default for TraceReplaySpec {
    fn default() -> Self {
        TraceReplaySpec {
            path: String::new(),
            rate_scale: 1.0,
            time_stretch: 1.0,
            region_map: Vec::new(),
        }
    }
}

/// `[workload.import]` — ingest a public dataset (Azure / Alibaba) as
/// the demand source. Normalization and transforms happen at import
/// (see `pamdc_workload::import` and `docs/TRACES.md`); the resulting
/// trace drives the run exactly like a recorded one.
#[derive(Clone, Debug, PartialEq)]
pub struct ImportSpec {
    /// Dataset file path (resolved relative to the spec's directory).
    pub path: String,
    /// Source schema: `"azure"` | `"alibaba"`.
    pub format: String,
    /// Normalization tick, seconds (`None` = the format's native
    /// cadence: 300 s Azure, 10 s Alibaba).
    pub tick_secs: Option<u64>,
    /// Client regions of the target world.
    pub regions: usize,
    /// Arrival-rate multiplier, baked in at import.
    pub rate_scale: f64,
    /// Playback slowdown, baked in at import.
    pub time_stretch: f64,
    /// Home-region relabelling; empty = identity.
    pub region_map: Vec<usize>,
    /// Keep only the first N distinct source ids.
    pub max_services: Option<usize>,
    /// Keep only the first N normalized ticks.
    pub max_ticks: Option<usize>,
}

impl Default for ImportSpec {
    fn default() -> Self {
        ImportSpec {
            path: String::new(),
            format: "azure".into(),
            tick_secs: None,
            regions: 4,
            rate_scale: 1.0,
            time_stretch: 1.0,
            region_map: Vec::new(),
            max_services: None,
            max_ticks: None,
        }
    }
}

/// One `[[workload.services]]` entry: `count` consecutive services (VM
/// indices, in table order) sized by this spec. When the table is
/// present its counts must sum to `workload.vms`; when absent every VM
/// is the paper's uniform web-service spec. Field defaults mirror that
/// uniform VM, so a partial entry only overrides what it names.
#[derive(Clone, Debug, PartialEq)]
pub struct ServiceSpecEntry {
    /// Consecutive services of this spec.
    pub count: usize,
    /// Disk image size, MB (drives migration transfer cost).
    pub image_size_mb: f64,
    /// Memory floor, MB (guest OS + idle stack footprint).
    pub base_mem_mb: f64,
    /// Memory held per in-flight request, MB (`None` = the service
    /// class's constant, or an imported trace's measured profile).
    pub mem_mb_per_inflight: Option<f64>,
    /// SLA: response time fully satisfying the agreement, seconds.
    pub rt0_secs: f64,
    /// SLA: tolerance multiplier (fulfillment reaches 0 at `alpha·rt0`).
    pub alpha: f64,
    /// Non-CPU fraction of service time (I/O waits).
    pub io_wait_factor: f64,
    /// Idle CPU of the stack, percent-of-core.
    pub idle_cpu_pct: f64,
}

impl Default for ServiceSpecEntry {
    fn default() -> Self {
        ServiceSpecEntry {
            count: 1,
            image_size_mb: 2048.0,
            base_mem_mb: 256.0,
            mem_mb_per_inflight: None,
            rt0_secs: 0.1,
            alpha: 10.0,
            io_wait_factor: 0.6,
            idle_cpu_pct: 2.0,
        }
    }
}

/// `[workload]` — demand.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadSpec {
    /// Synthetic preset (ignored when `trace` or `import` is set).
    pub preset: WorkloadPreset,
    /// Hosted services / VMs.
    pub vms: usize,
    /// Nominal peak request rate per service.
    pub peak_rps: f64,
    /// Global load multiplier (Figure 8's sweep axis).
    pub load_scale: f64,
    /// Paper's minute-70–90 flash-crowd multiplier (Figure 6).
    pub flash_crowd: Option<f64>,
    /// Per-service VM sizing (`[[workload.services]]`); empty = the
    /// paper's uniform web-service VM for every service.
    pub services: Vec<ServiceSpecEntry>,
    /// Replay a recorded trace instead of generating synthetically.
    pub trace: Option<TraceReplaySpec>,
    /// Import a public dataset (Azure/Alibaba) as the demand source.
    pub import: Option<ImportSpec>,
}

/// One flat- or step-tariff override for one DC.
#[derive(Clone, Debug, PartialEq)]
pub struct TariffSpec {
    /// DC index.
    pub dc: usize,
    /// Flat €/kWh (before any step).
    pub eur_per_kwh: f64,
    /// Optional step: at this hour the price becomes `step_eur_per_kwh`.
    pub step_at_hour: Option<u64>,
    /// Price after the step (only read when `step_at_hour` is set).
    pub step_eur_per_kwh: f64,
}

/// `[energy]` — per-DC supply beyond the paper's flat Table II regime.
#[derive(Clone, Debug, PartialEq)]
pub struct EnergySpec {
    /// Hide dynamic prices from the scheduler (control arm).
    pub price_blind: bool,
    /// DCs that get on-site solar.
    pub solar_dcs: Vec<usize>,
    /// Solar nameplate per host, watts.
    pub solar_per_pm_w: f64,
    /// Worst-day cloud attenuation in `[0, 1]`.
    pub min_sky: f64,
    /// Tariff overrides.
    pub tariffs: Vec<TariffSpec>,
}

impl Default for EnergySpec {
    fn default() -> Self {
        EnergySpec {
            price_blind: false,
            solar_dcs: Vec::new(),
            solar_per_pm_w: 0.0,
            min_sky: 1.0,
            tariffs: Vec::new(),
        }
    }
}

impl EnergySpec {
    /// True when this is exactly the paper's flat Table II environment.
    pub fn is_paper_default(&self) -> bool {
        *self == EnergySpec::default()
    }
}

/// `[billing]` — the provider's pricing policy.
#[derive(Clone, Debug, PartialEq)]
pub struct BillingSpec {
    /// Revenue per VM-hour at SLA = 1 (€).
    pub vm_eur_per_hour: f64,
    /// Revenue scaling exponent with SLA fulfillment.
    pub sla_gamma: f64,
    /// Extra fixed fee per migration (€).
    pub migration_fee_eur: f64,
}

impl Default for BillingSpec {
    fn default() -> Self {
        let b = pamdc_econ::billing::BillingPolicy::default();
        BillingSpec {
            vm_eur_per_hour: b.vm_eur_per_hour,
            sla_gamma: b.sla_gamma,
            migration_fee_eur: b.migration_fee_eur,
        }
    }
}

/// Which placement policy plans each round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PolicyKind {
    /// Never migrate (the paper's Static-Global).
    Static,
    /// Descending Best-Fit + consolidation pass.
    BestFit,
    /// Raw Algorithm 1 (no consolidation pass).
    BestFitRaw,
    /// The paper's two-layer hierarchical scheduler.
    Hierarchical,
    /// Latency-only packing (Figure 5 sanity check).
    FollowLoad,
    /// Consolidate toward the cheapest tariff.
    CheapestEnergy,
    /// Uniform-random exploration.
    Random,
}

impl PolicyKind {
    fn name(self) -> &'static str {
        match self {
            PolicyKind::Static => "static",
            PolicyKind::BestFit => "bestfit",
            PolicyKind::BestFitRaw => "bestfit-raw",
            PolicyKind::Hierarchical => "hierarchical",
            PolicyKind::FollowLoad => "follow-load",
            PolicyKind::CheapestEnergy => "cheapest-energy",
            PolicyKind::Random => "random",
        }
    }

    fn from_name(s: &str) -> Result<Self, SpecError> {
        match s {
            "static" => Ok(PolicyKind::Static),
            "bestfit" => Ok(PolicyKind::BestFit),
            "bestfit-raw" => Ok(PolicyKind::BestFitRaw),
            "hierarchical" => Ok(PolicyKind::Hierarchical),
            "follow-load" => Ok(PolicyKind::FollowLoad),
            "cheapest-energy" => Ok(PolicyKind::CheapestEnergy),
            "random" => Ok(PolicyKind::Random),
            _ => Err(bad(format!(
                "unknown policy kind {s:?} (static | bestfit | bestfit-raw | hierarchical | \
                 follow-load | cheapest-energy | random)"
            ))),
        }
    }
}

/// The belief source behind a policy (the paper's BF / BF-OB / BF-ML /
/// BF-True arms).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OracleKind {
    /// Monitored last-window usage, as-is.
    Monitor,
    /// Monitored usage with 2× overbooking headroom.
    Overbooked,
    /// The Table-I trained predictor suite (triggers training).
    Ml,
    /// Ground-truth model (upper bound).
    True,
}

impl OracleKind {
    fn name(self) -> &'static str {
        match self {
            OracleKind::Monitor => "monitor",
            OracleKind::Overbooked => "overbooked",
            OracleKind::Ml => "ml",
            OracleKind::True => "true",
        }
    }

    fn from_name(s: &str) -> Result<Self, SpecError> {
        match s {
            "monitor" => Ok(OracleKind::Monitor),
            "overbooked" => Ok(OracleKind::Overbooked),
            "ml" => Ok(OracleKind::Ml),
            "true" => Ok(OracleKind::True),
            _ => Err(bad(format!(
                "unknown oracle {s:?} (monitor | overbooked | ml | true)"
            ))),
        }
    }
}

/// `[policy]` — the Plan stage.
#[derive(Clone, Debug, PartialEq)]
pub struct PolicySpec {
    /// Which scheduler.
    pub kind: PolicyKind,
    /// Which belief source.
    pub oracle: OracleKind,
    /// Planning horizon in ticks (`None` = one round, the paper's
    /// myopic choice; energy-chasing scenarios want ~60).
    pub plan_horizon_ticks: Option<u64>,
    /// Opt into the approximate near-equivalence index, scoring up to
    /// this many hosts per coarse group. **Relaxes the bit-identity
    /// guarantee** — policies carrying it are loudly labeled in reports.
    /// `None` (default) keeps exact behavior.
    pub near_equivalence_top_k: Option<usize>,
}

/// `[run]` — simulation horizon and cadences.
#[derive(Clone, Debug, PartialEq)]
pub struct RunSpec {
    /// Simulated hours.
    pub hours: u64,
    /// Tick length, seconds.
    pub tick_secs: u64,
    /// Scheduling round cadence, ticks (the paper: every 10 minutes).
    pub round_every_ticks: u64,
    /// Anti-thrash cooldown, ticks.
    pub migration_cooldown_ticks: u64,
    /// Record full time series.
    pub keep_series: bool,
}

impl Default for RunSpec {
    fn default() -> Self {
        RunSpec {
            hours: 24,
            tick_secs: 60,
            round_every_ticks: 10,
            migration_cooldown_ticks: 10,
            keep_series: true,
        }
    }
}

/// `[profile]` — observability: stream a JSONL trace of the run and/or
/// heartbeat progress to stderr. Off by default; tracing never changes
/// decisions (reports stay bit-identical with it on or off).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ProfileSpec {
    /// JSONL trace destination (equivalent to `pamdc run --trace-out`).
    /// Relative paths resolve against the invoking working directory.
    pub trace_out: Option<String>,
    /// Print a progress heartbeat to stderr every simulated hour
    /// (equivalent to `--progress`).
    pub progress: bool,
}

/// `[serve]` — live-daemon knobs for `pamdc serve`: the wall-clock
/// budget a control round may spend before the scheduler degrades, the
/// snapshot cadence, and where the per-tick JSONL status stream goes.
/// Batch runs (`pamdc run`) ignore this table.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeSpec {
    /// Wall-clock budget per control round, milliseconds (0 =
    /// unlimited). When a placement round overruns it, subsequent
    /// rounds drop the local-search refinement (bestfit-only) until
    /// rounds fit comfortably again — placement itself never skips.
    pub budget_ms: u64,
    /// Write a restart snapshot (recorded feed + session manifest)
    /// every this many consumed ticks.
    pub snapshot_every: u64,
    /// JSONL status-stream destination. `None` = `status.jsonl` inside
    /// the session directory. Relative paths resolve against the
    /// invoking working directory.
    pub status_out: Option<String>,
}

impl Default for ServeSpec {
    fn default() -> Self {
        ServeSpec {
            budget_ms: 0,
            snapshot_every: 60,
            status_out: None,
        }
    }
}

/// `[[faults]]` — one scheduled host crash.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultSpec {
    /// PM index (global).
    pub pm: usize,
    /// Crash instant, minutes.
    pub at_min: u64,
    /// Repair delay, minutes.
    pub repair_after_min: u64,
}

/// `[[profile_changes]]` — one scheduled ground-truth performance change
/// ("software update", the paper's on-line learning future-work case).
#[derive(Clone, Debug, PartialEq)]
pub struct ProfileChangeSpec {
    /// VM index.
    pub vm: usize,
    /// When the update lands, minutes.
    pub at_min: u64,
    /// New idle memory floor, MB.
    pub base_mem_mb: f64,
    /// New MB per in-flight request.
    pub mem_mb_per_inflight: f64,
    /// New IO-wait factor.
    pub io_wait_factor: f64,
    /// New idle CPU percentage.
    pub idle_cpu_pct: f64,
}

/// `[training]` — the Table-I collection/training pipeline (used when
/// the policy oracle is `ml`, and by the `table1`/`fig4` experiments).
#[derive(Clone, Debug, PartialEq)]
pub struct TrainingSpec {
    /// VMs in the collection scenario.
    pub vms: usize,
    /// Load scales visited by the exploration runs.
    pub scales: Vec<f64>,
    /// Simulated hours per scale.
    pub hours_per_scale: u64,
    /// Training seed.
    pub seed: u64,
}

impl Default for TrainingSpec {
    fn default() -> Self {
        let cfg = pamdc_core::experiments::table1::Table1Config::default();
        TrainingSpec {
            vms: cfg.vms,
            scales: cfg.scales,
            hours_per_scale: cfg.hours_per_scale,
            seed: cfg.seed,
        }
    }
}

/// `[experiment]` — bind the spec to one of the registered experiment
/// drivers instead of the generic single-run path. `pamdc run` then
/// reproduces the driver's report bit-for-bit for the same seed. Valid
/// kinds come from the [`crate::kinds`] registry (`pamdc list` shows
/// them all).
#[derive(Clone, Debug, PartialEq)]
pub struct ExperimentSpec {
    /// Registered driver kind (see [`crate::kinds::kind_names`]).
    pub kind: String,
    /// Include the BF-True upper-bound arm (fig4).
    pub true_arm: bool,
    /// Load-scale sweep axis (fig8).
    pub load_scales: Vec<f64>,
    /// Hosts-per-DC sweep axis (fig8).
    pub pms_levels: Vec<usize>,
    /// Tariff-spread multipliers (heterogeneity; empty = driver
    /// default).
    pub spreads: Vec<f64>,
    /// Midpoint tariff-spike multiplier (price-adaptation).
    pub spike_factor: f64,
}

impl Default for ExperimentSpec {
    fn default() -> Self {
        ExperimentSpec {
            kind: String::new(),
            true_arm: true,
            load_scales: Vec::new(),
            pms_levels: Vec::new(),
            spreads: Vec::new(),
            spike_factor: 4.0,
        }
    }
}

/// A complete declarative scenario.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario name (also the report label).
    pub name: String,
    /// One-line description (shown by `pamdc list`).
    pub description: String,
    /// Master seed.
    pub seed: u64,
    /// Datacenters and hosts.
    pub topology: TopologySpec,
    /// Demand.
    pub workload: WorkloadSpec,
    /// Per-DC energy supply.
    pub energy: EnergySpec,
    /// Pricing.
    pub billing: BillingSpec,
    /// Placement policy.
    pub policy: PolicySpec,
    /// Horizon and cadences.
    pub run: RunSpec,
    /// Observability (tracing + progress heartbeat).
    pub profile: ProfileSpec,
    /// Live-daemon knobs (`pamdc serve`).
    pub serve: ServeSpec,
    /// Scheduled host crashes.
    pub faults: Vec<FaultSpec>,
    /// Scheduled performance changes.
    pub profile_changes: Vec<ProfileChangeSpec>,
    /// Table-I training pipeline configuration.
    pub training: TrainingSpec,
    /// Optional experiment-driver binding.
    pub experiment: Option<ExperimentSpec>,
}

impl Default for ScenarioSpec {
    /// The paper's §V-C world under the hierarchical scheduler.
    fn default() -> Self {
        ScenarioSpec {
            name: "multi-dc".into(),
            description: String::new(),
            seed: 1,
            topology: TopologySpec {
                preset: TopologyPreset::MultiDc,
                pms_per_dc: 1,
                classes: Vec::new(),
                deploy_all_in: None,
            },
            workload: WorkloadSpec {
                preset: WorkloadPreset::MultiDc,
                vms: 5,
                peak_rps: 170.0,
                load_scale: 1.0,
                flash_crowd: None,
                services: Vec::new(),
                trace: None,
                import: None,
            },
            energy: EnergySpec::default(),
            billing: BillingSpec::default(),
            policy: PolicySpec {
                kind: PolicyKind::Hierarchical,
                oracle: OracleKind::True,
                plan_horizon_ticks: None,
                near_equivalence_top_k: None,
            },
            run: RunSpec::default(),
            profile: ProfileSpec::default(),
            serve: ServeSpec::default(),
            faults: Vec::new(),
            profile_changes: Vec::new(),
            training: TrainingSpec::default(),
            experiment: None,
        }
    }
}

// ---------------------------------------------------------------------
// Typed readers over the parsed TOML tree. Each consumes keys from a
// mutable copy of its table; leftovers are unknown keys and error out,
// so typos fail loudly instead of silently running the default.
// (`pub(crate)`: the campaign parser reads its files the same way.)
// ---------------------------------------------------------------------

pub(crate) struct Reader {
    table: Table,
    context: &'static str,
}

impl Reader {
    pub(crate) fn new(table: Table, context: &'static str) -> Self {
        Reader { table, context }
    }

    fn take(&mut self, key: &str) -> Option<Value> {
        self.table.remove(key)
    }

    pub(crate) fn take_str(&mut self, key: &str) -> Result<Option<String>, SpecError> {
        match self.take(key) {
            None => Ok(None),
            Some(Value::Str(s)) => Ok(Some(s)),
            Some(v) => Err(bad(format!(
                "{}.{key} must be a string, got {v:?}",
                self.context
            ))),
        }
    }

    pub(crate) fn take_f64(&mut self, key: &str) -> Result<Option<f64>, SpecError> {
        match self.take(key) {
            None => Ok(None),
            Some(v) => v
                .as_float()
                .map(Some)
                .ok_or_else(|| bad(format!("{}.{key} must be a number", self.context))),
        }
    }

    pub(crate) fn take_u64(&mut self, key: &str) -> Result<Option<u64>, SpecError> {
        match self.take(key) {
            None => Ok(None),
            Some(v) => match v.as_int() {
                Some(i) if i >= 0 => Ok(Some(i as u64)),
                _ => Err(bad(format!(
                    "{}.{key} must be a non-negative integer",
                    self.context
                ))),
            },
        }
    }

    pub(crate) fn take_usize(&mut self, key: &str) -> Result<Option<usize>, SpecError> {
        Ok(self.take_u64(key)?.map(|v| v as usize))
    }

    pub(crate) fn take_bool(&mut self, key: &str) -> Result<Option<bool>, SpecError> {
        match self.take(key) {
            None => Ok(None),
            Some(v) => v
                .as_bool()
                .map(Some)
                .ok_or_else(|| bad(format!("{}.{key} must be a boolean", self.context))),
        }
    }

    pub(crate) fn take_str_list(&mut self, key: &str) -> Result<Option<Vec<String>>, SpecError> {
        match self.take(key) {
            None => Ok(None),
            Some(Value::Array(items)) => items
                .into_iter()
                .map(|v| match v {
                    Value::Str(s) => Ok(s),
                    _ => Err(bad(format!("{}.{key} must list strings", self.context))),
                })
                .collect::<Result<Vec<_>, _>>()
                .map(Some),
            Some(_) => Err(bad(format!("{}.{key} must be an array", self.context))),
        }
    }

    pub(crate) fn take_f64_list(&mut self, key: &str) -> Result<Option<Vec<f64>>, SpecError> {
        match self.take(key) {
            None => Ok(None),
            Some(Value::Array(items)) => items
                .iter()
                .map(|v| {
                    v.as_float()
                        .ok_or_else(|| bad(format!("{}.{key} must list numbers", self.context)))
                })
                .collect::<Result<Vec<_>, _>>()
                .map(Some),
            Some(_) => Err(bad(format!("{}.{key} must be an array", self.context))),
        }
    }

    pub(crate) fn take_usize_list(&mut self, key: &str) -> Result<Option<Vec<usize>>, SpecError> {
        match self.take(key) {
            None => Ok(None),
            Some(Value::Array(items)) => items
                .iter()
                .map(|v| match v.as_int() {
                    Some(i) if i >= 0 => Ok(i as usize),
                    _ => Err(bad(format!(
                        "{}.{key} must list non-negative integers",
                        self.context
                    ))),
                })
                .collect::<Result<Vec<_>, _>>()
                .map(Some),
            Some(_) => Err(bad(format!("{}.{key} must be an array", self.context))),
        }
    }

    pub(crate) fn take_table(
        &mut self,
        key: &str,
        context: &'static str,
    ) -> Result<Option<Reader>, SpecError> {
        match self.take(key) {
            None => Ok(None),
            Some(Value::Table(t)) => Ok(Some(Reader::new(t, context))),
            Some(_) => Err(bad(format!("{}.{key} must be a [table]", self.context))),
        }
    }

    pub(crate) fn take_table_array(
        &mut self,
        key: &str,
        context: &'static str,
    ) -> Result<Vec<Reader>, SpecError> {
        match self.take(key) {
            None => Ok(Vec::new()),
            Some(Value::Array(items)) => items
                .into_iter()
                .map(|v| match v {
                    Value::Table(t) => Ok(Reader::new(t, context)),
                    _ => Err(bad(format!("{}.{key} must be [[tables]]", self.context))),
                })
                .collect(),
            Some(_) => Err(bad(format!("{}.{key} must be [[tables]]", self.context))),
        }
    }

    pub(crate) fn finish(self) -> Result<(), SpecError> {
        if let Some(key) = self.table.keys().next() {
            return Err(bad(format!("unknown key {:?} in [{}]", key, self.context)));
        }
        Ok(())
    }
}

impl ScenarioSpec {
    /// Parses a spec document. Missing sections/keys take the defaults
    /// of [`ScenarioSpec::default`]; unknown keys are errors.
    pub fn parse(text: &str) -> Result<Self, SpecError> {
        let mut spec = ScenarioSpec::default();
        let mut root = Reader::new(toml::parse(text)?, "root");

        if let Some(name) = root.take_str("name")? {
            spec.name = name;
        }
        if let Some(desc) = root.take_str("description")? {
            spec.description = desc;
        }
        if let Some(seed) = root.take_u64("seed")? {
            spec.seed = seed;
        }

        if let Some(mut t) = root.take_table("topology", "topology")? {
            if let Some(preset) = t.take_str("preset")? {
                spec.topology.preset = TopologyPreset::from_name(&preset)?;
                // The intra-DC preset defaults follow the paper testbed.
                if spec.topology.preset == TopologyPreset::IntraDc {
                    spec.topology.pms_per_dc = 4;
                }
            }
            if let Some(pms) = t.take_usize("pms_per_dc")? {
                if pms == 0 {
                    return Err(bad("topology.pms_per_dc must be >= 1"));
                }
                spec.topology.pms_per_dc = pms;
            }
            for mut c in t.take_table_array("classes", "topology.classes")? {
                let count = c.take_usize("count")?.unwrap_or(1);
                let preset = c.take_str("preset")?;
                let cores = c.take_usize("cores")?;
                let mem_mb = c.take_f64("mem_mb")?;
                let idle_watts = c.take_f64("idle_watts")?;
                let peak_watts = c.take_f64("peak_watts")?;
                c.finish()?;
                let machine = match preset.as_deref() {
                    Some(name) => {
                        if cores.is_some()
                            || mem_mb.is_some()
                            || idle_watts.is_some()
                            || peak_watts.is_some()
                        {
                            return Err(bad(format!(
                                "topology.classes: preset {name:?} cannot be combined with \
                                 custom cores/mem_mb/idle_watts/peak_watts fields"
                            )));
                        }
                        match name {
                            "atom" => MachineClass::Atom,
                            "xeon" => MachineClass::Xeon,
                            _ => {
                                return Err(bad(format!(
                                    "unknown machine preset {name:?} (atom | xeon)"
                                )))
                            }
                        }
                    }
                    None => MachineClass::Custom {
                        cores: cores.ok_or_else(|| {
                            bad("topology.classes: custom classes need cores (or a preset)")
                        })?,
                        mem_mb: mem_mb
                            .ok_or_else(|| bad("topology.classes: custom classes need mem_mb"))?,
                        idle_watts: idle_watts.ok_or_else(|| {
                            bad("topology.classes: custom classes need idle_watts")
                        })?,
                        peak_watts: peak_watts.ok_or_else(|| {
                            bad("topology.classes: custom classes need peak_watts")
                        })?,
                    },
                };
                spec.topology.classes.push(HostClassSpec { count, machine });
            }
            spec.topology.deploy_all_in = t.take_usize("deploy_all_in")?;
            t.finish()?;
        }

        if let Some(mut t) = root.take_table("workload", "workload")? {
            if let Some(preset) = t.take_str("preset")? {
                spec.workload.preset = WorkloadPreset::from_name(&preset)?;
                if spec.workload.preset == WorkloadPreset::IntraDc {
                    spec.workload.peak_rps = 240.0;
                }
            }
            if let Some(vms) = t.take_usize("vms")? {
                if vms == 0 {
                    return Err(bad("workload.vms must be >= 1"));
                }
                spec.workload.vms = vms;
            }
            if let Some(v) = t.take_f64("peak_rps")? {
                spec.workload.peak_rps = v;
            }
            if let Some(v) = t.take_f64("load_scale")? {
                spec.workload.load_scale = v;
            }
            spec.workload.flash_crowd = t.take_f64("flash_crowd")?;
            for mut sv in t.take_table_array("services", "workload.services")? {
                let mut entry = ServiceSpecEntry::default();
                if let Some(v) = sv.take_usize("count")? {
                    entry.count = v;
                }
                if let Some(v) = sv.take_f64("image_size_mb")? {
                    entry.image_size_mb = v;
                }
                if let Some(v) = sv.take_f64("base_mem_mb")? {
                    entry.base_mem_mb = v;
                }
                entry.mem_mb_per_inflight = sv.take_f64("mem_mb_per_inflight")?;
                if let Some(v) = sv.take_f64("rt0_secs")? {
                    entry.rt0_secs = v;
                }
                if let Some(v) = sv.take_f64("alpha")? {
                    entry.alpha = v;
                }
                if let Some(v) = sv.take_f64("io_wait_factor")? {
                    entry.io_wait_factor = v;
                }
                if let Some(v) = sv.take_f64("idle_cpu_pct")? {
                    entry.idle_cpu_pct = v;
                }
                sv.finish()?;
                spec.workload.services.push(entry);
            }
            if let Some(mut tr) = t.take_table("trace", "workload.trace")? {
                let path = tr
                    .take_str("path")?
                    .ok_or_else(|| bad("workload.trace.path is required"))?;
                let mut replay = TraceReplaySpec {
                    path,
                    ..TraceReplaySpec::default()
                };
                if let Some(v) = tr.take_f64("rate_scale")? {
                    replay.rate_scale = v;
                }
                if let Some(v) = tr.take_f64("time_stretch")? {
                    replay.time_stretch = v;
                }
                if let Some(map) = tr.take_usize_list("region_map")? {
                    replay.region_map = map;
                }
                tr.finish()?;
                spec.workload.trace = Some(replay);
            }
            if let Some(mut im) = t.take_table("import", "workload.import")? {
                let path = im
                    .take_str("path")?
                    .ok_or_else(|| bad("workload.import.path is required"))?;
                let format = im
                    .take_str("format")?
                    .ok_or_else(|| bad("workload.import.format is required (azure | alibaba)"))?;
                let mut import = ImportSpec {
                    path,
                    format,
                    ..ImportSpec::default()
                };
                import.tick_secs = im.take_u64("tick_secs")?;
                if let Some(v) = im.take_usize("regions")? {
                    import.regions = v;
                }
                if let Some(v) = im.take_f64("rate_scale")? {
                    import.rate_scale = v;
                }
                if let Some(v) = im.take_f64("time_stretch")? {
                    import.time_stretch = v;
                }
                if let Some(map) = im.take_usize_list("region_map")? {
                    import.region_map = map;
                }
                import.max_services = im.take_usize("max_services")?;
                import.max_ticks = im.take_usize("max_ticks")?;
                im.finish()?;
                spec.workload.import = Some(import);
            }
            t.finish()?;
        }

        if let Some(mut t) = root.take_table("energy", "energy")? {
            if let Some(v) = t.take_bool("price_blind")? {
                spec.energy.price_blind = v;
            }
            if let Some(v) = t.take_usize_list("solar_dcs")? {
                spec.energy.solar_dcs = v;
            }
            if let Some(v) = t.take_f64("solar_per_pm_w")? {
                spec.energy.solar_per_pm_w = v;
            }
            if let Some(v) = t.take_f64("min_sky")? {
                spec.energy.min_sky = v;
            }
            for mut tr in t.take_table_array("tariffs", "energy.tariffs")? {
                let dc = tr
                    .take_usize("dc")?
                    .ok_or_else(|| bad("energy.tariffs.dc is required"))?;
                let eur = tr
                    .take_f64("eur_per_kwh")?
                    .ok_or_else(|| bad("energy.tariffs.eur_per_kwh is required"))?;
                let step_at_hour = tr.take_u64("step_at_hour")?;
                let step_eur = tr.take_f64("step_eur_per_kwh")?.unwrap_or(eur);
                tr.finish()?;
                spec.energy.tariffs.push(TariffSpec {
                    dc,
                    eur_per_kwh: eur,
                    step_at_hour,
                    step_eur_per_kwh: step_eur,
                });
            }
            t.finish()?;
        }

        if let Some(mut t) = root.take_table("billing", "billing")? {
            if let Some(v) = t.take_f64("vm_eur_per_hour")? {
                spec.billing.vm_eur_per_hour = v;
            }
            if let Some(v) = t.take_f64("sla_gamma")? {
                spec.billing.sla_gamma = v;
            }
            if let Some(v) = t.take_f64("migration_fee_eur")? {
                spec.billing.migration_fee_eur = v;
            }
            t.finish()?;
        }

        if let Some(mut t) = root.take_table("policy", "policy")? {
            if let Some(kind) = t.take_str("kind")? {
                spec.policy.kind = PolicyKind::from_name(&kind)?;
            }
            if let Some(oracle) = t.take_str("oracle")? {
                spec.policy.oracle = OracleKind::from_name(&oracle)?;
            }
            spec.policy.plan_horizon_ticks = t.take_u64("plan_horizon_ticks")?;
            spec.policy.near_equivalence_top_k = t.take_usize("near_equivalence_top_k")?;
            if spec.policy.near_equivalence_top_k == Some(0) {
                return Err(bad("policy.near_equivalence_top_k must be >= 1"));
            }
            t.finish()?;
        }

        if let Some(mut t) = root.take_table("run", "run")? {
            if let Some(v) = t.take_u64("hours")? {
                spec.run.hours = v;
            }
            if let Some(v) = t.take_u64("tick_secs")? {
                if v == 0 {
                    return Err(bad("run.tick_secs must be >= 1"));
                }
                spec.run.tick_secs = v;
            }
            if let Some(v) = t.take_u64("round_every_ticks")? {
                spec.run.round_every_ticks = v;
            }
            if let Some(v) = t.take_u64("migration_cooldown_ticks")? {
                spec.run.migration_cooldown_ticks = v;
            }
            if let Some(v) = t.take_bool("keep_series")? {
                spec.run.keep_series = v;
            }
            t.finish()?;
        }

        if let Some(mut t) = root.take_table("profile", "profile")? {
            spec.profile.trace_out = t.take_str("trace_out")?;
            if let Some(v) = t.take_bool("progress")? {
                spec.profile.progress = v;
            }
            t.finish()?;
        }

        if let Some(mut t) = root.take_table("serve", "serve")? {
            if let Some(v) = t.take_u64("budget_ms")? {
                spec.serve.budget_ms = v;
            }
            if let Some(v) = t.take_u64("snapshot_every")? {
                spec.serve.snapshot_every = v;
            }
            spec.serve.status_out = t.take_str("status_out")?;
            t.finish()?;
        }

        for mut t in root.take_table_array("faults", "faults")? {
            let pm = t
                .take_usize("pm")?
                .ok_or_else(|| bad("faults.pm is required"))?;
            let at_min = t
                .take_u64("at_min")?
                .ok_or_else(|| bad("faults.at_min is required"))?;
            let repair = t
                .take_u64("repair_after_min")?
                .ok_or_else(|| bad("faults.repair_after_min is required"))?;
            t.finish()?;
            spec.faults.push(FaultSpec {
                pm,
                at_min,
                repair_after_min: repair,
            });
        }

        for mut t in root.take_table_array("profile_changes", "profile_changes")? {
            let vm = t
                .take_usize("vm")?
                .ok_or_else(|| bad("profile_changes.vm is required"))?;
            let at_min = t
                .take_u64("at_min")?
                .ok_or_else(|| bad("profile_changes.at_min is required"))?;
            let change = ProfileChangeSpec {
                vm,
                at_min,
                base_mem_mb: t.take_f64("base_mem_mb")?.unwrap_or(512.0),
                mem_mb_per_inflight: t.take_f64("mem_mb_per_inflight")?.unwrap_or(2.0),
                io_wait_factor: t.take_f64("io_wait_factor")?.unwrap_or(0.6),
                idle_cpu_pct: t.take_f64("idle_cpu_pct")?.unwrap_or(2.0),
            };
            t.finish()?;
            spec.profile_changes.push(change);
        }

        if let Some(mut t) = root.take_table("training", "training")? {
            if let Some(v) = t.take_usize("vms")? {
                spec.training.vms = v;
            }
            if let Some(v) = t.take_f64_list("scales")? {
                spec.training.scales = v;
            }
            if let Some(v) = t.take_u64("hours_per_scale")? {
                spec.training.hours_per_scale = v;
            }
            if let Some(v) = t.take_u64("seed")? {
                spec.training.seed = v;
            }
            t.finish()?;
        }

        if let Some(mut t) = root.take_table("experiment", "experiment")? {
            let kind = t
                .take_str("kind")?
                .ok_or_else(|| bad("experiment.kind is required"))?;
            let mut exp = ExperimentSpec {
                kind,
                ..ExperimentSpec::default()
            };
            if let Some(v) = t.take_bool("true_arm")? {
                exp.true_arm = v;
            }
            if let Some(v) = t.take_f64_list("load_scales")? {
                exp.load_scales = v;
            }
            if let Some(v) = t.take_usize_list("pms_levels")? {
                exp.pms_levels = v;
            }
            if let Some(v) = t.take_f64_list("spreads")? {
                exp.spreads = v;
            }
            if let Some(v) = t.take_f64("spike_factor")? {
                exp.spike_factor = v;
            }
            t.finish()?;
            spec.experiment = Some(exp);
        }

        root.finish()?;
        spec.validate()?;
        Ok(spec)
    }

    /// Semantic checks shared by parsing and hand-built specs.
    pub fn validate(&self) -> Result<(), SpecError> {
        let dcs = match self.topology.preset {
            TopologyPreset::IntraDc => 1,
            TopologyPreset::MultiDc => 4,
        };
        if let Some(dc) = self.topology.deploy_all_in {
            if dc >= dcs {
                return Err(bad(format!(
                    "topology.deploy_all_in {dc} out of range ({dcs} DCs)"
                )));
            }
        }
        for t in &self.energy.tariffs {
            if t.dc >= dcs {
                return Err(bad(format!(
                    "energy.tariffs.dc {} out of range ({dcs} DCs)",
                    t.dc
                )));
            }
        }
        for &dc in &self.energy.solar_dcs {
            if dc >= dcs {
                return Err(bad(format!(
                    "energy.solar_dcs entry {dc} out of range ({dcs} DCs)"
                )));
            }
        }
        for c in &self.topology.classes {
            if c.count == 0 {
                return Err(bad("topology.classes count must be >= 1"));
            }
            if let MachineClass::Custom {
                cores,
                mem_mb,
                idle_watts,
                peak_watts,
            } = &c.machine
            {
                if *cores == 0 {
                    return Err(bad("topology.classes cores must be >= 1"));
                }
                if !(mem_mb.is_finite() && *mem_mb > 0.0) {
                    return Err(bad("topology.classes mem_mb must be finite and > 0"));
                }
                if !(idle_watts.is_finite() && peak_watts.is_finite() && *idle_watts > 0.0) {
                    return Err(bad(
                        "topology.classes idle_watts/peak_watts must be finite and > 0",
                    ));
                }
                if idle_watts > peak_watts {
                    return Err(bad("topology.classes idle_watts cannot exceed peak_watts"));
                }
            }
        }
        if self.profile.trace_out.as_deref() == Some("") {
            return Err(bad("profile.trace_out must be a non-empty path"));
        }
        if self.serve.status_out.as_deref() == Some("") {
            return Err(bad("serve.status_out must be a non-empty path"));
        }
        if self.serve.snapshot_every == 0 {
            return Err(bad("serve.snapshot_every must be at least 1 tick"));
        }
        let pms = dcs * self.topology.hosts_per_dc();
        for f in &self.faults {
            if f.pm >= pms {
                return Err(bad(format!("faults.pm {} out of range ({pms} PMs)", f.pm)));
            }
        }
        for c in &self.profile_changes {
            if c.vm >= self.workload.vms {
                return Err(bad(format!(
                    "profile_changes.vm {} out of range ({} VMs)",
                    c.vm, self.workload.vms
                )));
            }
        }
        if !self.workload.services.is_empty() {
            let total: usize = self.workload.services.iter().map(|s| s.count).sum();
            if total != self.workload.vms {
                return Err(bad(format!(
                    "[[workload.services]] counts sum to {total} services but workload.vms \
                     = {} — size every VM exactly once",
                    self.workload.vms
                )));
            }
            for s in &self.workload.services {
                if s.count == 0 {
                    return Err(bad("workload.services count must be >= 1"));
                }
                let positive = |v: f64| v.is_finite() && v > 0.0;
                if !positive(s.image_size_mb) || !positive(s.base_mem_mb) || !positive(s.rt0_secs) {
                    return Err(bad(
                        "workload.services image_size_mb/base_mem_mb/rt0_secs must be finite \
                         and > 0",
                    ));
                }
                if !(s.alpha.is_finite() && s.alpha > 1.0) {
                    return Err(bad("workload.services alpha must be finite and > 1"));
                }
                if let Some(m) = s.mem_mb_per_inflight {
                    if !positive(m) {
                        return Err(bad(
                            "workload.services mem_mb_per_inflight must be finite and > 0",
                        ));
                    }
                }
                let non_negative = |v: f64| v.is_finite() && v >= 0.0;
                if !non_negative(s.io_wait_factor) || !non_negative(s.idle_cpu_pct) {
                    return Err(bad(
                        "workload.services io_wait_factor/idle_cpu_pct must be finite and >= 0",
                    ));
                }
            }
        }
        if self.workload.preset == WorkloadPreset::FollowTheSun {
            if self.topology.preset != TopologyPreset::MultiDc {
                return Err(bad(
                    "workload preset follow-the-sun requires the multi-dc topology",
                ));
            }
            if self.workload.vms != 1
                && self.workload.trace.is_none()
                && self.workload.import.is_none()
            {
                return Err(bad(format!(
                    "workload preset follow-the-sun hosts exactly one VM, not {}",
                    self.workload.vms
                )));
            }
        }
        if self.workload.trace.is_some() && self.workload.flash_crowd.is_some() {
            return Err(bad(
                "workload.flash_crowd cannot be combined with workload.trace — a replayed \
                 trace already carries its demand; bake the crowd into the recording instead",
            ));
        }
        if self.workload.import.is_some() && self.workload.trace.is_some() {
            return Err(bad(
                "workload.trace and workload.import are mutually exclusive — pick one \
                 demand source",
            ));
        }
        if self.workload.import.is_some() && self.workload.flash_crowd.is_some() {
            return Err(bad(
                "workload.flash_crowd cannot be combined with workload.import — an imported \
                 trace already carries its demand",
            ));
        }
        if let Some(import) = &self.workload.import {
            if import.path.is_empty() {
                return Err(bad("workload.import.path must not be empty"));
            }
            if pamdc_workload::import::TraceFormat::from_name(&import.format).is_none() {
                return Err(bad(format!(
                    "unknown workload.import.format {:?} (azure | alibaba)",
                    import.format
                )));
            }
            // The knob rules (regions, scales, region_map, tick, caps)
            // live with the importer — one source of truth.
            crate::build::import_options(import)
                .validate()
                .map_err(|e| bad(format!("workload.import: {}", e.0)))?;
        }
        if let Some(trace) = &self.workload.trace {
            if trace.path.is_empty() {
                return Err(bad("workload.trace.path must not be empty"));
            }
            if !(trace.time_stretch.is_finite() && trace.time_stretch > 0.0) {
                return Err(bad("workload.trace.time_stretch must be finite and > 0"));
            }
            if !(trace.rate_scale.is_finite() && trace.rate_scale >= 0.0) {
                return Err(bad("workload.trace.rate_scale must be finite and >= 0"));
            }
        }
        if let Some(exp) = &self.experiment {
            // The kind registry is the single source of truth: a kind
            // registered there is automatically valid here.
            let Some(entry) = crate::kinds::find(&exp.kind) else {
                return Err(bad(format!(
                    "unknown experiment kind {:?} (expected one of {})",
                    exp.kind,
                    crate::kinds::kind_names().join(" | ")
                )));
            };
            if !(exp.spike_factor.is_finite() && exp.spike_factor > 0.0) {
                return Err(bad("experiment.spike_factor must be finite and > 0"));
            }
            // Experiment drivers build their own worlds: a file-backed
            // demand source or an unhonored class mix would be silently
            // ignored, so reject the combination loudly instead.
            if self.workload.trace.is_some() || self.workload.import.is_some() {
                return Err(bad(format!(
                    "[experiment] kind = {:?} builds its own demand, so workload.trace/\
                     workload.import would be ignored — drop the [experiment] table to run \
                     the file-backed demand through the generic path",
                    exp.kind
                )));
            }
            if !self.topology.classes.is_empty() && !entry.uses_topology_classes {
                return Err(bad(format!(
                    "[experiment] kind = {:?} does not honor [[topology.classes]] (its driver \
                     builds its own fleet) — drop the class table, or drop the [experiment] \
                     binding to run the mixed fleet through the generic path",
                    exp.kind
                )));
            }
            if !self.workload.services.is_empty() {
                return Err(bad(format!(
                    "[experiment] kind = {:?} does not honor [[workload.services]] (its \
                     driver sizes its own VMs) — drop the services table, or drop the \
                     [experiment] binding to run the sized fleet through the generic path",
                    exp.kind
                )));
            }
        }
        Ok(())
    }

    /// Emits the canonical TOML form (every field written, keys sorted
    /// by the emitter). `parse(emit(spec)) == spec`.
    pub fn emit(&self) -> String {
        let mut root = Table::new();
        root.insert("name".into(), Value::Str(self.name.clone()));
        root.insert("description".into(), Value::Str(self.description.clone()));
        root.insert("seed".into(), Value::Int(self.seed as i64));

        let mut topology = Table::new();
        topology.insert(
            "preset".into(),
            Value::Str(self.topology.preset.name().into()),
        );
        topology.insert(
            "pms_per_dc".into(),
            Value::Int(self.topology.pms_per_dc as i64),
        );
        if !self.topology.classes.is_empty() {
            let classes = self
                .topology
                .classes
                .iter()
                .map(|c| {
                    let mut table = Table::new();
                    table.insert("count".into(), Value::Int(c.count as i64));
                    match &c.machine {
                        MachineClass::Atom => {
                            table.insert("preset".into(), Value::Str("atom".into()));
                        }
                        MachineClass::Xeon => {
                            table.insert("preset".into(), Value::Str("xeon".into()));
                        }
                        MachineClass::Custom {
                            cores,
                            mem_mb,
                            idle_watts,
                            peak_watts,
                        } => {
                            table.insert("cores".into(), Value::Int(*cores as i64));
                            table.insert("mem_mb".into(), Value::Float(*mem_mb));
                            table.insert("idle_watts".into(), Value::Float(*idle_watts));
                            table.insert("peak_watts".into(), Value::Float(*peak_watts));
                        }
                    }
                    Value::Table(table)
                })
                .collect();
            topology.insert("classes".into(), Value::Array(classes));
        }
        if let Some(dc) = self.topology.deploy_all_in {
            topology.insert("deploy_all_in".into(), Value::Int(dc as i64));
        }
        root.insert("topology".into(), Value::Table(topology));

        let mut workload = Table::new();
        workload.insert(
            "preset".into(),
            Value::Str(self.workload.preset.name().into()),
        );
        workload.insert("vms".into(), Value::Int(self.workload.vms as i64));
        workload.insert("peak_rps".into(), Value::Float(self.workload.peak_rps));
        workload.insert("load_scale".into(), Value::Float(self.workload.load_scale));
        if let Some(fc) = self.workload.flash_crowd {
            workload.insert("flash_crowd".into(), Value::Float(fc));
        }
        if !self.workload.services.is_empty() {
            let services = self
                .workload
                .services
                .iter()
                .map(|s| {
                    let mut t = Table::new();
                    t.insert("count".into(), Value::Int(s.count as i64));
                    t.insert("image_size_mb".into(), Value::Float(s.image_size_mb));
                    t.insert("base_mem_mb".into(), Value::Float(s.base_mem_mb));
                    if let Some(m) = s.mem_mb_per_inflight {
                        t.insert("mem_mb_per_inflight".into(), Value::Float(m));
                    }
                    t.insert("rt0_secs".into(), Value::Float(s.rt0_secs));
                    t.insert("alpha".into(), Value::Float(s.alpha));
                    t.insert("io_wait_factor".into(), Value::Float(s.io_wait_factor));
                    t.insert("idle_cpu_pct".into(), Value::Float(s.idle_cpu_pct));
                    Value::Table(t)
                })
                .collect();
            workload.insert("services".into(), Value::Array(services));
        }
        if let Some(trace) = &self.workload.trace {
            let mut t = Table::new();
            t.insert("path".into(), Value::Str(trace.path.clone()));
            t.insert("rate_scale".into(), Value::Float(trace.rate_scale));
            t.insert("time_stretch".into(), Value::Float(trace.time_stretch));
            if !trace.region_map.is_empty() {
                t.insert(
                    "region_map".into(),
                    Value::Array(
                        trace
                            .region_map
                            .iter()
                            .map(|&r| Value::Int(r as i64))
                            .collect(),
                    ),
                );
            }
            workload.insert("trace".into(), Value::Table(t));
        }
        if let Some(import) = &self.workload.import {
            let mut t = Table::new();
            t.insert("path".into(), Value::Str(import.path.clone()));
            t.insert("format".into(), Value::Str(import.format.clone()));
            if let Some(secs) = import.tick_secs {
                t.insert("tick_secs".into(), Value::Int(secs as i64));
            }
            t.insert("regions".into(), Value::Int(import.regions as i64));
            t.insert("rate_scale".into(), Value::Float(import.rate_scale));
            t.insert("time_stretch".into(), Value::Float(import.time_stretch));
            if !import.region_map.is_empty() {
                t.insert(
                    "region_map".into(),
                    Value::Array(
                        import
                            .region_map
                            .iter()
                            .map(|&r| Value::Int(r as i64))
                            .collect(),
                    ),
                );
            }
            if let Some(n) = import.max_services {
                t.insert("max_services".into(), Value::Int(n as i64));
            }
            if let Some(n) = import.max_ticks {
                t.insert("max_ticks".into(), Value::Int(n as i64));
            }
            workload.insert("import".into(), Value::Table(t));
        }
        root.insert("workload".into(), Value::Table(workload));

        let mut energy = Table::new();
        energy.insert("price_blind".into(), Value::Bool(self.energy.price_blind));
        energy.insert(
            "solar_dcs".into(),
            Value::Array(
                self.energy
                    .solar_dcs
                    .iter()
                    .map(|&d| Value::Int(d as i64))
                    .collect(),
            ),
        );
        energy.insert(
            "solar_per_pm_w".into(),
            Value::Float(self.energy.solar_per_pm_w),
        );
        energy.insert("min_sky".into(), Value::Float(self.energy.min_sky));
        if !self.energy.tariffs.is_empty() {
            let tariffs = self
                .energy
                .tariffs
                .iter()
                .map(|t| {
                    let mut table = Table::new();
                    table.insert("dc".into(), Value::Int(t.dc as i64));
                    table.insert("eur_per_kwh".into(), Value::Float(t.eur_per_kwh));
                    if let Some(h) = t.step_at_hour {
                        table.insert("step_at_hour".into(), Value::Int(h as i64));
                        table.insert("step_eur_per_kwh".into(), Value::Float(t.step_eur_per_kwh));
                    }
                    Value::Table(table)
                })
                .collect();
            energy.insert("tariffs".into(), Value::Array(tariffs));
        }
        root.insert("energy".into(), Value::Table(energy));

        let mut billing = Table::new();
        billing.insert(
            "vm_eur_per_hour".into(),
            Value::Float(self.billing.vm_eur_per_hour),
        );
        billing.insert("sla_gamma".into(), Value::Float(self.billing.sla_gamma));
        billing.insert(
            "migration_fee_eur".into(),
            Value::Float(self.billing.migration_fee_eur),
        );
        root.insert("billing".into(), Value::Table(billing));

        let mut policy = Table::new();
        policy.insert("kind".into(), Value::Str(self.policy.kind.name().into()));
        policy.insert(
            "oracle".into(),
            Value::Str(self.policy.oracle.name().into()),
        );
        if let Some(h) = self.policy.plan_horizon_ticks {
            policy.insert("plan_horizon_ticks".into(), Value::Int(h as i64));
        }
        if let Some(k) = self.policy.near_equivalence_top_k {
            policy.insert("near_equivalence_top_k".into(), Value::Int(k as i64));
        }
        root.insert("policy".into(), Value::Table(policy));

        let mut run = Table::new();
        run.insert("hours".into(), Value::Int(self.run.hours as i64));
        run.insert("tick_secs".into(), Value::Int(self.run.tick_secs as i64));
        run.insert(
            "round_every_ticks".into(),
            Value::Int(self.run.round_every_ticks as i64),
        );
        run.insert(
            "migration_cooldown_ticks".into(),
            Value::Int(self.run.migration_cooldown_ticks as i64),
        );
        run.insert("keep_series".into(), Value::Bool(self.run.keep_series));
        root.insert("run".into(), Value::Table(run));

        if self.profile != ProfileSpec::default() {
            let mut profile = Table::new();
            if let Some(path) = &self.profile.trace_out {
                profile.insert("trace_out".into(), Value::Str(path.clone()));
            }
            if self.profile.progress {
                profile.insert("progress".into(), Value::Bool(true));
            }
            root.insert("profile".into(), Value::Table(profile));
        }

        if self.serve != ServeSpec::default() {
            let defaults = ServeSpec::default();
            let mut serve = Table::new();
            if self.serve.budget_ms != defaults.budget_ms {
                serve.insert("budget_ms".into(), Value::Int(self.serve.budget_ms as i64));
            }
            if self.serve.snapshot_every != defaults.snapshot_every {
                serve.insert(
                    "snapshot_every".into(),
                    Value::Int(self.serve.snapshot_every as i64),
                );
            }
            if let Some(path) = &self.serve.status_out {
                serve.insert("status_out".into(), Value::Str(path.clone()));
            }
            root.insert("serve".into(), Value::Table(serve));
        }

        if !self.faults.is_empty() {
            let faults = self
                .faults
                .iter()
                .map(|f| {
                    let mut t = Table::new();
                    t.insert("pm".into(), Value::Int(f.pm as i64));
                    t.insert("at_min".into(), Value::Int(f.at_min as i64));
                    t.insert(
                        "repair_after_min".into(),
                        Value::Int(f.repair_after_min as i64),
                    );
                    Value::Table(t)
                })
                .collect();
            root.insert("faults".into(), Value::Array(faults));
        }

        if !self.profile_changes.is_empty() {
            let changes = self
                .profile_changes
                .iter()
                .map(|c| {
                    let mut t = Table::new();
                    t.insert("vm".into(), Value::Int(c.vm as i64));
                    t.insert("at_min".into(), Value::Int(c.at_min as i64));
                    t.insert("base_mem_mb".into(), Value::Float(c.base_mem_mb));
                    t.insert(
                        "mem_mb_per_inflight".into(),
                        Value::Float(c.mem_mb_per_inflight),
                    );
                    t.insert("io_wait_factor".into(), Value::Float(c.io_wait_factor));
                    t.insert("idle_cpu_pct".into(), Value::Float(c.idle_cpu_pct));
                    Value::Table(t)
                })
                .collect();
            root.insert("profile_changes".into(), Value::Array(changes));
        }

        let mut training = Table::new();
        training.insert("vms".into(), Value::Int(self.training.vms as i64));
        training.insert(
            "scales".into(),
            Value::Array(
                self.training
                    .scales
                    .iter()
                    .map(|&s| Value::Float(s))
                    .collect(),
            ),
        );
        training.insert(
            "hours_per_scale".into(),
            Value::Int(self.training.hours_per_scale as i64),
        );
        training.insert("seed".into(), Value::Int(self.training.seed as i64));
        root.insert("training".into(), Value::Table(training));

        if let Some(exp) = &self.experiment {
            let mut t = Table::new();
            t.insert("kind".into(), Value::Str(exp.kind.clone()));
            t.insert("true_arm".into(), Value::Bool(exp.true_arm));
            if !exp.load_scales.is_empty() {
                t.insert(
                    "load_scales".into(),
                    Value::Array(exp.load_scales.iter().map(|&s| Value::Float(s)).collect()),
                );
            }
            if !exp.pms_levels.is_empty() {
                t.insert(
                    "pms_levels".into(),
                    Value::Array(
                        exp.pms_levels
                            .iter()
                            .map(|&p| Value::Int(p as i64))
                            .collect(),
                    ),
                );
            }
            if !exp.spreads.is_empty() {
                t.insert(
                    "spreads".into(),
                    Value::Array(exp.spreads.iter().map(|&s| Value::Float(s)).collect()),
                );
            }
            if exp.spike_factor != ExperimentSpec::default().spike_factor {
                t.insert("spike_factor".into(), Value::Float(exp.spike_factor));
            }
            root.insert("experiment".into(), Value::Table(t));
        }

        toml::emit(&root)
    }

    /// Applies one `--param path.key=value` override to the spec by
    /// editing its emitted TOML form and re-parsing. The value text is
    /// parsed as a TOML scalar (so `policy.kind=static` needs quoting by
    /// the caller: strings are auto-quoted when a bare parse fails).
    pub fn with_param(&self, path: &str, value: &str) -> Result<ScenarioSpec, SpecError> {
        let mut root = toml::parse(&self.emit())?;
        set_path(&mut root, path, value)?;
        let spec = ScenarioSpec::parse(&toml::emit(&root))?;
        Ok(spec)
    }
}

/// Sets `a.b.c = value` inside a parsed tree; the value is parsed as a
/// TOML scalar, falling back to a quoted string.
fn set_path(root: &mut Table, path: &str, value: &str) -> Result<(), SpecError> {
    let parts: Vec<&str> = path.split('.').collect();
    let (last, parents) = parts
        .split_last()
        .ok_or_else(|| bad("empty --param path"))?;
    let mut table = root;
    for part in parents {
        let entry = table
            .entry(part.to_string())
            .or_insert_with(|| Value::Table(Table::new()));
        table = match entry {
            Value::Table(t) => t,
            _ => return Err(bad(format!("--param path segment {part:?} is not a table"))),
        };
    }
    // Try the raw text as a scalar document; fall back to quoting.
    let parsed = toml::parse(&format!("x = {value}"))
        .or_else(|_| toml::parse(&format!("x = \"{value}\"")))
        .map_err(|e| bad(format!("cannot parse --param value {value:?}: {e}")))?;
    let v = parsed
        .into_iter()
        .next()
        .map(|(_, v)| v)
        .expect("one key parsed");
    table.insert(last.to_string(), v);
    Ok(())
}

/// The parameter paths `pamdc sweep --param` accepts, for error hints.
pub fn sweepable_params() -> BTreeMap<&'static str, &'static str> {
    BTreeMap::from([
        ("seed", "master seed"),
        ("topology.pms_per_dc", "hosts per DC"),
        ("workload.vms", "hosted services"),
        ("workload.peak_rps", "nominal peak rate"),
        ("workload.load_scale", "global load multiplier"),
        ("workload.flash_crowd", "flash-crowd multiplier"),
        ("energy.solar_per_pm_w", "solar nameplate per host"),
        ("billing.vm_eur_per_hour", "revenue per VM-hour"),
        ("policy.kind", "placement policy"),
        ("policy.oracle", "belief source"),
        (
            "policy.near_equivalence_top_k",
            "approximate shortlist width (opt-in)",
        ),
        ("run.hours", "simulated hours"),
        ("run.round_every_ticks", "scheduling cadence"),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_round_trips() {
        let spec = ScenarioSpec::default();
        let emitted = spec.emit();
        let parsed = ScenarioSpec::parse(&emitted).expect("parse");
        assert_eq!(spec, parsed);
    }

    #[test]
    #[allow(clippy::field_reassign_with_default)]
    fn rich_spec_round_trips() {
        let mut spec = ScenarioSpec::default();
        spec.name = "everything".into();
        spec.description = "all fields exercised \"quoted\"".into();
        spec.seed = 999;
        spec.topology.pms_per_dc = 3;
        spec.topology.deploy_all_in = Some(2);
        spec.workload.preset = WorkloadPreset::Uniform;
        // flash_crowd and trace are mutually exclusive (validate());
        // exercise the crowd here and the trace in a second spec below.
        spec.workload.flash_crowd = Some(8.5);
        spec.energy.price_blind = true;
        spec.energy.solar_dcs = vec![0, 2];
        spec.energy.solar_per_pm_w = 150.0;
        spec.energy.min_sky = 0.7;
        spec.energy.tariffs = vec![TariffSpec {
            dc: 3,
            eur_per_kwh: 0.112,
            step_at_hour: Some(12),
            step_eur_per_kwh: 0.448,
        }];
        spec.billing.sla_gamma = 2.0;
        spec.policy.kind = PolicyKind::BestFit;
        spec.policy.oracle = OracleKind::Ml;
        spec.policy.plan_horizon_ticks = Some(60);
        spec.policy.near_equivalence_top_k = Some(3);
        spec.run.hours = 6;
        spec.profile = ProfileSpec {
            trace_out: Some("out/trace.jsonl".into()),
            progress: true,
        };
        spec.serve = ServeSpec {
            budget_ms: 250,
            snapshot_every: 30,
            status_out: Some("out/status.jsonl".into()),
        };
        spec.faults = vec![FaultSpec {
            pm: 1,
            at_min: 30,
            repair_after_min: 240,
        }];
        spec.profile_changes = vec![ProfileChangeSpec {
            vm: 0,
            at_min: 60,
            base_mem_mb: 640.0,
            mem_mb_per_inflight: 3.5,
            io_wait_factor: 0.5,
            idle_cpu_pct: 1.5,
        }];
        spec.experiment = Some(ExperimentSpec {
            kind: "fig8".into(),
            true_arm: false,
            load_scales: vec![0.5, 1.5],
            pms_levels: vec![1, 2],
            spreads: vec![1.0, 6.0],
            spike_factor: 2.5,
        });
        let parsed = ScenarioSpec::parse(&spec.emit()).expect("parse");
        assert_eq!(spec, parsed);

        let mut traced = ScenarioSpec::default();
        traced.workload.trace = Some(TraceReplaySpec {
            path: "traces/day.csv".into(),
            rate_scale: 1.5,
            time_stretch: 2.0,
            region_map: vec![3, 2, 1, 0],
        });
        let parsed = ScenarioSpec::parse(&traced.emit()).expect("parse");
        assert_eq!(traced, parsed);

        // An empty trace path is a config mistake, not "no trace".
        let mut bad_profile = ScenarioSpec::default();
        bad_profile.profile.trace_out = Some(String::new());
        assert!(bad_profile
            .validate()
            .unwrap_err()
            .0
            .contains("profile.trace_out"));
    }

    #[test]
    #[allow(clippy::field_reassign_with_default)]
    fn serve_table_round_trips_and_validates() {
        // An all-default [serve] table is not emitted at all.
        let spec = ScenarioSpec::default();
        assert!(!spec.emit().contains("[serve]"));
        // Partial overrides round-trip and only emit what moved.
        let mut budgeted = ScenarioSpec::default();
        budgeted.serve.budget_ms = 120;
        let emitted = budgeted.emit();
        assert!(emitted.contains("[serve]") && emitted.contains("budget_ms"));
        assert!(!emitted.contains("snapshot_every"), "default stays silent");
        assert_eq!(ScenarioSpec::parse(&emitted).expect("parse"), budgeted);
        // Misconfigurations fail loudly.
        let mut never_snapshots = ScenarioSpec::default();
        never_snapshots.serve.snapshot_every = 0;
        assert!(never_snapshots
            .validate()
            .unwrap_err()
            .0
            .contains("serve.snapshot_every"));
        let mut empty_status = ScenarioSpec::default();
        empty_status.serve.status_out = Some(String::new());
        assert!(empty_status
            .validate()
            .unwrap_err()
            .0
            .contains("serve.status_out"));
    }

    #[test]
    #[allow(clippy::field_reassign_with_default)]
    fn host_classes_and_import_round_trip() {
        let mut spec = ScenarioSpec::default();
        spec.topology.classes = vec![
            HostClassSpec {
                count: 2,
                machine: MachineClass::Atom,
            },
            HostClassSpec {
                count: 1,
                machine: MachineClass::Xeon,
            },
            HostClassSpec {
                count: 3,
                machine: MachineClass::Custom {
                    cores: 2,
                    mem_mb: 2048.0,
                    idle_watts: 15.5,
                    peak_watts: 22.25,
                },
            },
        ];
        spec.workload.import = Some(ImportSpec {
            path: "traces/azure.csv".into(),
            format: "azure".into(),
            tick_secs: Some(600),
            regions: 4,
            rate_scale: 0.5,
            time_stretch: 2.0,
            region_map: vec![1, 0, 3, 2],
            max_services: Some(5),
            max_ticks: Some(100),
        });
        spec.workload.vms = 5;
        let emitted = spec.emit();
        let parsed = ScenarioSpec::parse(&emitted).expect("parse");
        assert_eq!(spec, parsed);
        assert_eq!(parsed.emit(), emitted, "emission is a fixed point");
        assert_eq!(spec.topology.hosts_per_dc(), 6);
        // A defaulted import table keeps its defaults through the trip.
        let doc = "[workload.import]\npath = \"a.csv\"\nformat = \"alibaba\"\n";
        let parsed = ScenarioSpec::parse(doc).expect("parse");
        let import = parsed.workload.import.expect("import");
        assert_eq!(import.tick_secs, None);
        assert_eq!(import.regions, 4);
        assert_eq!(import.rate_scale, 1.0);
    }

    #[test]
    #[allow(clippy::field_reassign_with_default)]
    fn workload_services_round_trip_and_validate() {
        let mut spec = ScenarioSpec::default();
        spec.workload.vms = 3;
        spec.workload.services = vec![
            ServiceSpecEntry {
                count: 2,
                ..ServiceSpecEntry::default()
            },
            ServiceSpecEntry {
                count: 1,
                image_size_mb: 8192.0,
                base_mem_mb: 3072.0,
                mem_mb_per_inflight: Some(32.0),
                rt0_secs: 0.2,
                alpha: 5.0,
                io_wait_factor: 0.4,
                idle_cpu_pct: 1.0,
            },
        ];
        let emitted = spec.emit();
        let parsed = ScenarioSpec::parse(&emitted).expect("parse");
        assert_eq!(parsed, spec);
        assert_eq!(parsed.emit(), emitted, "emission is a fixed point");

        // A partial entry only overrides what it names.
        let doc = "[workload]\nvms = 1\n[[workload.services]]\nbase_mem_mb = 1536.0\n";
        let parsed = ScenarioSpec::parse(doc).expect("parse");
        assert_eq!(parsed.workload.services[0].base_mem_mb, 1536.0);
        assert_eq!(parsed.workload.services[0].image_size_mb, 2048.0);
        assert_eq!(parsed.workload.services[0].mem_mb_per_inflight, None);

        // Counts must sum to the VM count — size every VM exactly once.
        let doc = "[workload]\nvms = 5\n[[workload.services]]\ncount = 2\n";
        assert!(ScenarioSpec::parse(doc).unwrap_err().0.contains("sum"));
        // Zero counts, non-positive sizes and bad SLA terms all fail.
        let doc = "[workload]\nvms = 1\n[[workload.services]]\ncount = 0\n";
        assert!(ScenarioSpec::parse(doc).is_err());
        let doc = "[workload]\nvms = 1\n[[workload.services]]\nbase_mem_mb = -1.0\n";
        assert!(ScenarioSpec::parse(doc).is_err());
        let doc = "[workload]\nvms = 1\n[[workload.services]]\nalpha = 1.0\n";
        assert!(ScenarioSpec::parse(doc).is_err());
        let doc = "[workload]\nvms = 1\n[[workload.services]]\nmem_mb_per_inflight = 0.0\n";
        assert!(ScenarioSpec::parse(doc).is_err());
        // Experiment-bound specs reject the table loudly (their drivers
        // size their own VMs).
        let doc = "[experiment]\nkind = \"fig4\"\n\
                   [workload]\nvms = 5\n[[workload.services]]\ncount = 5\n";
        assert!(ScenarioSpec::parse(doc)
            .unwrap_err()
            .0
            .contains("workload.services"));
    }

    #[test]
    fn host_class_validation_fires() {
        // Preset + custom fields is ambiguous.
        let doc = "[[topology.classes]]\npreset = \"atom\"\ncores = 8\n";
        assert!(ScenarioSpec::parse(doc).unwrap_err().0.contains("preset"));
        // Unknown preset.
        let doc = "[[topology.classes]]\npreset = \"mainframe\"\n";
        assert!(ScenarioSpec::parse(doc).is_err());
        // Custom classes need all four numbers.
        let doc = "[[topology.classes]]\ncores = 8\nmem_mb = 1024.0\n";
        assert!(ScenarioSpec::parse(doc).is_err());
        // Zero hosts of a class is meaningless.
        let doc = "[[topology.classes]]\npreset = \"atom\"\ncount = 0\n";
        assert!(ScenarioSpec::parse(doc).is_err());
        // Inverted power endpoints.
        let doc = "[[topology.classes]]\ncores = 2\nmem_mb = 1024.0\n\
                   idle_watts = 50.0\npeak_watts = 20.0\n";
        assert!(ScenarioSpec::parse(doc).unwrap_err().0.contains("exceed"));
        // Fault indices validate against the class fleet, not pms_per_dc.
        let doc = "[[topology.classes]]\npreset = \"atom\"\ncount = 2\n\
                   [[faults]]\npm = 7\nat_min = 1\nrepair_after_min = 1\n";
        assert!(ScenarioSpec::parse(doc).is_ok(), "8 PMs: pm 7 in range");
        let doc = "[[topology.classes]]\npreset = \"atom\"\ncount = 2\n\
                   [[faults]]\npm = 8\nat_min = 1\nrepair_after_min = 1\n";
        assert!(
            ScenarioSpec::parse(doc).is_err(),
            "8 PMs: pm 8 out of range"
        );
    }

    #[test]
    fn experiment_bound_specs_reject_ignored_sections() {
        // A driver-bound spec would silently drop a file-backed demand
        // source or an unhonored class mix — both are hard errors.
        let doc = "[experiment]\nkind = \"fig4\"\n\
                   [workload.import]\npath = \"a.csv\"\nformat = \"azure\"\n";
        assert!(ScenarioSpec::parse(doc).unwrap_err().0.contains("ignored"));
        let doc = "[experiment]\nkind = \"fig4\"\n[workload.trace]\npath = \"t.csv\"\n";
        assert!(ScenarioSpec::parse(doc).is_err());
        let doc = "[[topology.classes]]\npreset = \"atom\"\n[experiment]\nkind = \"fig4\"\n";
        assert!(ScenarioSpec::parse(doc)
            .unwrap_err()
            .0
            .contains("topology.classes"));
        // ...but the heterogeneity driver honors the class table.
        let doc =
            "[[topology.classes]]\npreset = \"atom\"\n[experiment]\nkind = \"heterogeneity\"\n";
        assert!(ScenarioSpec::parse(doc).is_ok());
    }

    #[test]
    fn import_validation_fires() {
        let base = "[workload.import]\npath = \"a.csv\"\n";
        assert!(
            ScenarioSpec::parse(base).unwrap_err().0.contains("format"),
            "format is required"
        );
        let doc = format!("{base}format = \"gcp\"\n");
        assert!(ScenarioSpec::parse(&doc).unwrap_err().0.contains("gcp"));
        let doc = format!("{base}format = \"azure\"\ntick_secs = 0\n");
        assert!(ScenarioSpec::parse(&doc).is_err());
        let doc = format!("{base}format = \"azure\"\nregion_map = [0, 1]\n");
        assert!(ScenarioSpec::parse(&doc).is_err(), "map must cover regions");
        let doc = format!("{base}format = \"azure\"\nrate_scale = -2.0\n");
        assert!(ScenarioSpec::parse(&doc).is_err());
        // trace + import, flash_crowd + import: one demand source only.
        let doc = "[workload]\nflash_crowd = 4.0\n\
                   [workload.import]\npath = \"a.csv\"\nformat = \"azure\"\n";
        assert!(ScenarioSpec::parse(doc).is_err());
        let doc = "[workload.trace]\npath = \"t.csv\"\n\
                   [workload.import]\npath = \"a.csv\"\nformat = \"azure\"\n";
        assert!(ScenarioSpec::parse(doc).is_err());
    }

    #[test]
    fn minimal_document_takes_defaults() {
        let spec = ScenarioSpec::parse("name = \"tiny\"\n").expect("parse");
        assert_eq!(spec.name, "tiny");
        assert_eq!(spec.workload.vms, 5);
        assert_eq!(spec.run.hours, 24);
        assert_eq!(spec.policy.kind, PolicyKind::Hierarchical);
    }

    #[test]
    fn intra_dc_preset_shifts_defaults() {
        let spec = ScenarioSpec::parse(
            "[topology]\npreset = \"intra-dc\"\n[workload]\npreset = \"intra-dc\"\n",
        )
        .expect("parse");
        assert_eq!(
            spec.topology.pms_per_dc, 4,
            "paper testbed has 4 Atom hosts"
        );
        assert_eq!(spec.workload.peak_rps, 240.0);
    }

    #[test]
    fn unknown_keys_error() {
        assert!(ScenarioSpec::parse("nam = \"typo\"").is_err());
        assert!(ScenarioSpec::parse("[workload]\nvmz = 3").is_err());
        assert!(ScenarioSpec::parse("[experiment]\nkind = \"fig99\"").is_err());
    }

    #[test]
    fn retired_index_min_hosts_is_rejected_by_name() {
        // The candidate index serves every fleet size, so the old
        // dispatch threshold has nothing left to tune: a spec still
        // setting it must fail loudly, not run as if it were honored.
        let err = ScenarioSpec::parse("[policy]\nindex_min_hosts = 8").unwrap_err();
        assert!(
            err.0
                .contains("unknown key \"index_min_hosts\" in [policy]"),
            "{}",
            err.0
        );
    }

    #[test]
    fn semantic_validation_fires() {
        assert!(ScenarioSpec::parse("[topology]\ndeploy_all_in = 9").is_err());
        assert!(
            ScenarioSpec::parse("[[faults]]\npm = 99\nat_min = 1\nrepair_after_min = 1").is_err()
        );
        let s = "[topology]\npreset = \"intra-dc\"\n[workload]\npreset = \"follow-the-sun\"";
        assert!(ScenarioSpec::parse(s).is_err());
        // follow-the-sun hosts exactly one VM: a bare preset line must
        // not inherit the default vms = 5 and crash mid-simulation.
        assert!(ScenarioSpec::parse("[workload]\npreset = \"follow-the-sun\"").is_err());
        assert!(ScenarioSpec::parse("[workload]\npreset = \"follow-the-sun\"\nvms = 1").is_ok());
        // A replayed trace already carries its demand: no flash crowd on top.
        let s = "[workload]\nflash_crowd = 8.0\n[workload.trace]\npath = \"t.csv\"";
        assert!(ScenarioSpec::parse(s).is_err());
    }

    #[test]
    fn with_param_overrides() {
        let spec = ScenarioSpec::default();
        let swept = spec.with_param("workload.load_scale", "1.5").unwrap();
        assert_eq!(swept.workload.load_scale, 1.5);
        let policy = spec.with_param("policy.kind", "static").unwrap();
        assert_eq!(policy.kind_name(), "static");
        assert!(spec.with_param("workload.nonsense", "1").is_err());
    }

    impl ScenarioSpec {
        fn kind_name(&self) -> &'static str {
            self.policy.kind.name()
        }
    }
}
