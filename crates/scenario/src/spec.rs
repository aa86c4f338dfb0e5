//! The declarative scenario model: [`ScenarioSpec`] and its TOML-subset
//! wire form.
//!
//! A spec describes everything an experiment needs — topology, workload
//! (synthetic or a replayed trace), energy environment, billing, faults,
//! profile changes, scheduler policy and horizon — as plain data. Specs
//! parse from and emit to the [`crate::toml`] subset; emission is
//! canonical (keys sorted), so `parse(emit(spec)) == spec` holds
//! bit-for-bit and diffs of emitted specs are meaningful.
//!
//! Every key is one row of a [`crate::schema`] field table (the
//! `impl Record` blocks below): parsing, emission, range checks, the
//! `--param` hints and the key table in `docs/SCENARIOS.md` all derive
//! from it. [`ScenarioSpec::validate`] adds the rules that span keys.
//!
//! Field semantics cite the source paper where they reproduce it; see
//! `PAPER.md` for the abstract and `docs/SCENARIOS.md` for the format
//! walk-through with worked examples.

use crate::schema::{
    above, at_least, fields, named, within, Check, Field, Record, Slot, REQ, SPARSE, SWEEP,
};
use crate::toml::{self, Table, TomlError, Value};

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

named!(TopologyPreset {
    IntraDc = "intra-dc",
    MultiDc = "multi-dc",
});

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

impl Default for HostClassSpec {
    /// One paper Atom host.
    fn default() -> Self {
        HostClassSpec {
            count: 1,
            machine: MachineClass::Atom,
        }
    }
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

named!(WorkloadPreset {
    IntraDc = "intra-dc",
    MultiDc = "multi-dc",
    FollowTheSun = "follow-the-sun",
    Uniform = "uniform",
});

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
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TariffSpec {
    /// DC index.
    pub dc: usize,
    /// Flat €/kWh (before any step).
    pub eur_per_kwh: f64,
    /// Optional step: at this hour the price becomes `step_eur_per_kwh`
    /// (the two are set together or not at all).
    pub step_at_hour: Option<u64>,
    /// Price after the step, €/kWh.
    pub step_eur_per_kwh: Option<f64>,
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

named!(PolicyKind {
    Static = "static",
    BestFit = "bestfit",
    BestFitRaw = "bestfit-raw",
    Hierarchical = "hierarchical",
    FollowLoad = "follow-load",
    CheapestEnergy = "cheapest-energy",
    Random = "random",
});

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

named!(OracleKind {
    Monitor = "monitor",
    Overbooked = "overbooked",
    Ml = "ml",
    True = "true",
});

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
#[derive(Clone, Debug, Default, PartialEq)]
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

impl Default for ProfileChangeSpec {
    fn default() -> Self {
        ProfileChangeSpec {
            vm: 0,
            at_min: 0,
            base_mem_mb: 512.0,
            mem_mb_per_inflight: 2.0,
            io_wait_factor: 0.6,
            idle_cpu_pct: 2.0,
        }
    }
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
/// kinds instead of the generic single-run path. Valid kinds come from
/// the [`crate::kinds`] registry (`pamdc list` shows them all).
#[derive(Clone, Debug, PartialEq)]
pub struct ExperimentSpec {
    /// Registered kind (see [`crate::kinds::kind_names`]).
    pub kind: String,
    /// Include the BF-True upper-bound arm (fig4).
    pub true_arm: bool,
    /// Load-scale sweep axis (fig8; empty = the spec's `load_scale`).
    pub load_scales: Vec<f64>,
    /// Hosts-per-DC sweep axis (fig8; empty = the spec's `pms_per_dc`).
    pub pms_levels: Vec<usize>,
    /// Tariff-spread multipliers (heterogeneity; empty = x1 only).
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
    /// Optional experiment-kind binding.
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
// The field table: one row per key. Reading order is row order, so a
// preset row comes before the keys whose defaults it shifts.
// ---------------------------------------------------------------------

/// World sizes are bounded far above the largest fleet the repository
/// runs (4,000 VMs on 800 hosts) and low enough that a typo cannot ask
/// for an allocation no machine holds: VMs (or services) in a world.
const VMS: Check = within(1.0, 100_000.0);
/// Hosts per DC, or per host class in every DC.
const HOSTS: Check = within(1.0, 10_000.0);
/// Simulated hours: at most a year.
const HOURS: Check = within(1.0, 8_760.0);

/// A path key: any non-empty string.
const PATH: Check = Check::Text(|s| !s.is_empty(), "a non-empty path");

/// The paper's §V-B testbed has four Atom hosts.
fn intra_dc_hosts(s: &mut ScenarioSpec) {
    if s.topology.preset == TopologyPreset::IntraDc {
        s.topology.pms_per_dc = 4;
    }
}

/// Intra-DC clients run the §V-B testbed's higher peak rate.
fn intra_dc_peak(s: &mut ScenarioSpec) {
    if s.workload.preset == WorkloadPreset::IntraDc {
        s.workload.peak_rps = 240.0;
    }
}

impl Record for ScenarioSpec {
    const FIELDS: &'static [Field<Self>] = fields! {
        "" "name" => name: Check::Any, 0, "Scenario name, also the report label.";
        "" "description" => description: Check::Any, 0, "One-line description (`pamdc list`).";
        "" "seed" => seed: Check::Any, SWEEP, "Master seed.";
        "topology" "preset" => topology.preset: Check::Any, 0, then intra_dc_hosts, "City set: one DC (Barcelona) or four.";
        "topology" "pms_per_dc" => topology.pms_per_dc: HOSTS, SWEEP, "Atom hosts per DC (4 under the intra-dc preset); ignored when classes are declared.";
        "topology" "classes" => topology.classes: Check::Any, SPARSE, "Host-class mix of every DC, replacing the `pms_per_dc` Atoms.";
        "topology" "deploy_all_in" => topology.deploy_all_in: Check::Any, 0, "Deploy every VM into this DC index first (unset = home region).";
        "workload" "preset" => workload.preset: Check::Any, 0, then intra_dc_peak, "Synthetic demand (ignored under a trace or an import).";
        "workload" "vms" => workload.vms: VMS, SWEEP, "Hosted services, one VM each.";
        "workload" "peak_rps" => workload.peak_rps: above(0.0), SWEEP, "Nominal peak request rate per service (240 under the intra-dc preset).";
        "workload" "load_scale" => workload.load_scale: at_least(0.0), SWEEP, "Global load multiplier (Figure 8's sweep axis).";
        "workload" "flash_crowd" => workload.flash_crowd: at_least(0.0), SWEEP, "Minute 70-90 flash-crowd multiplier (Figure 6).";
        "workload" "services" => workload.services: Check::Any, SPARSE, "Per-service VM sizing; counts sum to `vms`.";
        "workload" "trace" => workload.trace: Check::Any, 0, "Replay a recorded demand trace.";
        "workload" "import" => workload.import: Check::Any, 0, "Import a public dataset as the demand source.";
        "energy" "price_blind" => energy.price_blind: Check::Any, 0, "Hide dynamic prices from the scheduler (control arm).";
        "energy" "solar_dcs" => energy.solar_dcs: Check::Any, 0, "DC indices with on-site solar.";
        "energy" "solar_per_pm_w" => energy.solar_per_pm_w: at_least(0.0), SWEEP, "Solar nameplate per host, W.";
        "energy" "min_sky" => energy.min_sky: within(0.0, 1.0), 0, "Worst-day cloud attenuation.";
        "energy" "tariffs" => energy.tariffs: Check::Any, SPARSE, "Per-DC electricity prices replacing Table II's.";
        "billing" "vm_eur_per_hour" => billing.vm_eur_per_hour: at_least(0.0), SWEEP, "Revenue per VM-hour at SLA = 1, EUR.";
        "billing" "sla_gamma" => billing.sla_gamma: at_least(0.0), 0, "Exponent of revenue in SLA fulfillment.";
        "billing" "migration_fee_eur" => billing.migration_fee_eur: at_least(0.0), 0, "Fixed fee per migration, EUR.";
        "policy" "kind" => policy.kind: Check::Any, SWEEP, "Placement policy.";
        "policy" "oracle" => policy.oracle: Check::Any, SWEEP, "Belief source (the BF / BF-OB / BF-ML / BF-True arms).";
        "policy" "plan_horizon_ticks" => policy.plan_horizon_ticks: Check::Any, 0, "Planning horizon in ticks (unset = one round).";
        "policy" "near_equivalence_top_k" => policy.near_equivalence_top_k: at_least(1.0), SWEEP, "Opt-in approximate index: score the top-K host groups; tags the report `+NEAR-EQUIV(topK)`.";
        "run" "hours" => run.hours: HOURS, SWEEP, "Simulated hours.";
        "run" "tick_secs" => run.tick_secs: at_least(1.0), 0, "Tick length, s.";
        "run" "round_every_ticks" => run.round_every_ticks: Check::Any, SWEEP, "Scheduling round cadence, ticks (0 = never plan).";
        "run" "migration_cooldown_ticks" => run.migration_cooldown_ticks: Check::Any, 0, "Anti-thrash cooldown, ticks.";
        "run" "keep_series" => run.keep_series: Check::Any, 0, "Record full time series.";
        "profile" "trace_out" => profile.trace_out: PATH, 0, "JSONL span/counter trace path (`--trace-out` overrides).";
        "profile" "progress" => profile.progress: Check::Any, SPARSE, "Heartbeat to stderr every simulated hour.";
        "serve" "budget_ms" => serve.budget_ms: Check::Any, SPARSE, "Wall-clock budget per `pamdc serve` round, ms (0 = unlimited).";
        "serve" "snapshot_every" => serve.snapshot_every: at_least(1.0), SPARSE, "Restart-snapshot cadence, consumed ticks.";
        "serve" "status_out" => serve.status_out: PATH, 0, "JSONL status-stream path (unset = `<session>/status.jsonl`).";
        "" "faults" => faults: Check::Any, SPARSE, "Scheduled host crashes.";
        "" "profile_changes" => profile_changes: Check::Any, SPARSE, "Scheduled ground-truth performance changes.";
        "training" "vms" => training.vms: VMS, 0, "VMs in the Table-I collection runs.";
        "training" "scales" => training.scales: at_least(0.0), 0, "Load scales the collection runs visit.";
        "training" "hours_per_scale" => training.hours_per_scale: HOURS, 0, "Simulated hours per scale.";
        "training" "seed" => training.seed: Check::Any, 0, "Training seed.";
        "" "experiment" => experiment: Check::Any, 0, "Bind the spec to a registered experiment kind.";
    };
}

/// A machine model a `[[topology.classes]]` entry can name.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
enum MachinePreset {
    #[default]
    Atom,
    Xeon,
}

named!(MachinePreset {
    Atom = "atom",
    Xeon = "xeon",
});

/// The wire form of a [`HostClassSpec`]: a preset, or the four numbers
/// of a custom class.
struct ClassRow {
    count: usize,
    preset: Option<MachinePreset>,
    cores: Option<usize>,
    mem_mb: Option<f64>,
    idle_watts: Option<f64>,
    peak_watts: Option<f64>,
}

impl Default for ClassRow {
    fn default() -> Self {
        ClassRow {
            count: 1,
            preset: None,
            cores: None,
            mem_mb: None,
            idle_watts: None,
            peak_watts: None,
        }
    }
}

impl Record for ClassRow {
    const FIELDS: &'static [Field<Self>] = fields! {
        "" "count" => count: HOSTS, 0, "Hosts of this class in every DC.";
        "" "preset" => preset: Check::Any, 0, "Machine model; or leave it out and give the four custom numbers.";
        "" "cores" => cores: at_least(1.0), 0, "Custom class: cores (100 %CPU each).";
        "" "mem_mb" => mem_mb: above(0.0), 0, "Custom class: memory, MB.";
        "" "idle_watts" => idle_watts: above(0.0), 0, "Custom class: idle draw, W.";
        "" "peak_watts" => peak_watts: above(0.0), 0, "Custom class: all-cores draw, W (>= idle_watts).";
    };
}

impl From<&HostClassSpec> for ClassRow {
    fn from(c: &HostClassSpec) -> Self {
        let mut row = ClassRow {
            count: c.count,
            ..ClassRow::default()
        };
        match c.machine {
            MachineClass::Atom => row.preset = Some(MachinePreset::Atom),
            MachineClass::Xeon => row.preset = Some(MachinePreset::Xeon),
            MachineClass::Custom {
                cores,
                mem_mb,
                idle_watts,
                peak_watts,
            } => {
                row.cores = Some(cores);
                row.mem_mb = Some(mem_mb);
                row.idle_watts = Some(idle_watts);
                row.peak_watts = Some(peak_watts);
            }
        }
        row
    }
}

impl Slot for HostClassSpec {
    fn kind(&self) -> String {
        ClassRow::from(self).kind()
    }

    fn read(&mut self, v: Value, path: &str) -> Result<(), SpecError> {
        let mut r = ClassRow::default();
        r.read(v, path)?;
        let custom = (r.cores, r.mem_mb, r.idle_watts, r.peak_watts);
        let machine = match (r.preset, custom) {
            (Some(MachinePreset::Atom), (None, None, None, None)) => MachineClass::Atom,
            (Some(MachinePreset::Xeon), (None, None, None, None)) => MachineClass::Xeon,
            (Some(p), _) => {
                return Err(bad(format!(
                    "{path}: preset {:?} cannot be combined with custom \
                     cores/mem_mb/idle_watts/peak_watts fields",
                    p.name()
                )))
            }
            (None, (Some(cores), Some(mem_mb), Some(idle_watts), Some(peak_watts))) => {
                MachineClass::Custom {
                    cores,
                    mem_mb,
                    idle_watts,
                    peak_watts,
                }
            }
            (None, _) => {
                return Err(bad(format!(
                    "{path}: a custom class needs cores, mem_mb, idle_watts and peak_watts \
                     (or a preset)"
                )))
            }
        };
        *self = HostClassSpec {
            count: r.count,
            machine,
        };
        Ok(())
    }

    fn write(&self) -> Option<Value> {
        ClassRow::from(self).write()
    }

    fn check(&self, check: Check, path: &str) -> Result<(), SpecError> {
        ClassRow::from(self).check(check, path)?;
        match self.machine {
            MachineClass::Custom {
                idle_watts,
                peak_watts,
                ..
            } if idle_watts > peak_watts => {
                Err(bad(format!("{path}: idle_watts cannot exceed peak_watts")))
            }
            _ => Ok(()),
        }
    }

    fn nested(&self, path: &str) -> Vec<crate::schema::KeyDoc> {
        ClassRow::from(self).nested(path)
    }
}

impl Record for ServiceSpecEntry {
    const FIELDS: &'static [Field<Self>] = fields! {
        "" "count" => count: VMS, 0, "Consecutive services (VM indices, in table order) of this size.";
        "" "image_size_mb" => image_size_mb: above(0.0), 0, "Disk image, MB (migration transfer cost).";
        "" "base_mem_mb" => base_mem_mb: above(0.0), 0, "Memory floor, MB.";
        "" "mem_mb_per_inflight" => mem_mb_per_inflight: above(0.0), 0, "MB per in-flight request (unset = the class constant or the imported profile).";
        "" "rt0_secs" => rt0_secs: above(0.0), 0, "SLA: response time fully meeting the agreement, s.";
        "" "alpha" => alpha: above(1.0), 0, "SLA: fulfillment reaches 0 at `alpha * rt0_secs`.";
        "" "io_wait_factor" => io_wait_factor: at_least(0.0), 0, "Non-CPU fraction of service time.";
        "" "idle_cpu_pct" => idle_cpu_pct: at_least(0.0), 0, "Idle CPU of the stack, percent of a core.";
    };
}

impl Record for TraceReplaySpec {
    const FIELDS: &'static [Field<Self>] = fields! {
        "" "path" => path: PATH, REQ, "Trace CSV, relative to the spec file.";
        "" "rate_scale" => rate_scale: at_least(0.0), 0, "Arrival-rate multiplier.";
        "" "time_stretch" => time_stretch: above(0.0), 0, "Playback slowdown (2.0 = half speed).";
        "" "region_map" => region_map: Check::Any, SPARSE, "Region relabelling, `map[recorded] = replayed` (empty = identity).";
    };
}

/// The dataset formats `[workload.import]` reads.
const FORMAT: Check = Check::Text(
    |s| pamdc_workload::import::TraceFormat::from_name(s).is_some(),
    "azure | alibaba",
);

impl Record for ImportSpec {
    const FIELDS: &'static [Field<Self>] = fields! {
        "" "path" => path: PATH, REQ, "Dataset file, relative to the spec file.";
        "" "format" => format: FORMAT, REQ, "Source schema.";
        "" "tick_secs" => tick_secs: at_least(1.0), 0, "Normalization tick, s (unset = 300 Azure, 10 Alibaba).";
        "" "regions" => regions: at_least(1.0), 0, "Client regions of the target world.";
        "" "rate_scale" => rate_scale: at_least(0.0), 0, "Arrival-rate multiplier, baked in at import.";
        "" "time_stretch" => time_stretch: above(0.0), 0, "Playback slowdown, baked in at import.";
        "" "region_map" => region_map: Check::Any, SPARSE, "Home-region relabelling (empty = identity).";
        "" "max_services" => max_services: at_least(1.0), 0, "Keep only the first N source ids.";
        "" "max_ticks" => max_ticks: at_least(1.0), 0, "Keep only the first N ticks.";
    };
}

impl Record for TariffSpec {
    const FIELDS: &'static [Field<Self>] = fields! {
        "" "dc" => dc: Check::Any, REQ, "DC index.";
        "" "eur_per_kwh" => eur_per_kwh: at_least(0.0), REQ, "Price, EUR/kWh (before any step).";
        "" "step_at_hour" => step_at_hour: Check::Any, 0, "Hour the price steps (set with `step_eur_per_kwh`).";
        "" "step_eur_per_kwh" => step_eur_per_kwh: at_least(0.0), 0, "Price after the step, EUR/kWh.";
    };
}

impl Record for FaultSpec {
    const FIELDS: &'static [Field<Self>] = fields! {
        "" "pm" => pm: Check::Any, REQ, "Global PM index.";
        "" "at_min" => at_min: Check::Any, REQ, "Crash instant, minutes.";
        "" "repair_after_min" => repair_after_min: Check::Any, REQ, "Repair delay, minutes.";
    };
}

impl Record for ProfileChangeSpec {
    const FIELDS: &'static [Field<Self>] = fields! {
        "" "vm" => vm: Check::Any, REQ, "VM index.";
        "" "at_min" => at_min: Check::Any, REQ, "When the update lands, minutes.";
        "" "base_mem_mb" => base_mem_mb: above(0.0), 0, "New memory floor, MB.";
        "" "mem_mb_per_inflight" => mem_mb_per_inflight: at_least(0.0), 0, "New MB per in-flight request.";
        "" "io_wait_factor" => io_wait_factor: at_least(0.0), 0, "New non-CPU fraction of service time.";
        "" "idle_cpu_pct" => idle_cpu_pct: at_least(0.0), 0, "New idle CPU, percent of a core.";
    };
}

impl Record for ExperimentSpec {
    const FIELDS: &'static [Field<Self>] = fields! {
        "" "kind" => kind: Check::Any, REQ, "Registered kind (`pamdc list`).";
        "" "true_arm" => true_arm: Check::Any, 0, "Include the BF-True upper-bound arm (fig4).";
        "" "load_scales" => load_scales: at_least(0.0), SPARSE, "Load-scale sweep axis (fig8; empty = the spec's `load_scale`).";
        "" "pms_levels" => pms_levels: HOSTS, SPARSE, "Hosts-per-DC sweep axis (fig8; empty = the spec's `pms_per_dc`).";
        "" "spreads" => spreads: at_least(0.0), SPARSE, "Tariff-spread multipliers (heterogeneity; empty = x1 only).";
        "" "spike_factor" => spike_factor: above(0.0), SPARSE, "Midpoint tariff-spike multiplier (price-adaptation).";
    };
}

impl ScenarioSpec {
    /// Parses a spec document. Missing sections/keys take the defaults
    /// of [`ScenarioSpec::default`]; unknown keys are errors.
    pub fn parse(text: &str) -> Result<Self, SpecError> {
        let spec: ScenarioSpec = crate::schema::read_record(toml::parse(text)?, "")?;
        spec.validate()?;
        Ok(spec)
    }

    /// Checks every key against its row's range, then the rules that
    /// span keys. Parsing runs it; hand-built specs should too.
    pub fn validate(&self) -> Result<(), SpecError> {
        crate::schema::check_record(self, "")?;
        let dcs = match self.topology.preset {
            TopologyPreset::IntraDc => 1,
            TopologyPreset::MultiDc => 4,
        };
        let pms = dcs * self.topology.hosts_per_dc();
        index_in(
            "topology.deploy_all_in",
            self.topology.deploy_all_in,
            dcs,
            "DCs",
        )?;
        index_in(
            "energy.tariffs.dc",
            self.energy.tariffs.iter().map(|t| t.dc),
            dcs,
            "DCs",
        )?;
        index_in(
            "energy.solar_dcs",
            self.energy.solar_dcs.iter().copied(),
            dcs,
            "DCs",
        )?;
        index_in("faults.pm", self.faults.iter().map(|f| f.pm), pms, "PMs")?;
        let vms = self.workload.vms;
        index_in(
            "profile_changes.vm",
            self.profile_changes.iter().map(|c| c.vm),
            vms,
            "VMs",
        )?;
        if self
            .energy
            .tariffs
            .iter()
            .any(|t| t.step_at_hour.is_some() != t.step_eur_per_kwh.is_some())
        {
            return Err(bad(
                "energy.tariffs: step_at_hour and step_eur_per_kwh are set together or not at all",
            ));
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
            // The knob rules (regions, scales, region_map, tick, caps)
            // live with the importer — one source of truth.
            crate::build::import_options(import)
                .validate()
                .map_err(|e| bad(format!("workload.import: {}", e.0)))?;
        }
        // The kind registry is the single source of truth: a kind
        // registered there is automatically valid here. Analysis kinds
        // build no world, so a world table bound to one would be
        // silently ignored: reject it loudly instead.
        let entry = crate::kinds::entry_for(self)?;
        if matches!(entry.plan, crate::kinds::Plan::Analysis(_)) {
            let w = &self.workload;
            let worlds = [
                ("topology.classes", !self.topology.classes.is_empty()),
                ("workload.services", !w.services.is_empty()),
                ("workload.trace", w.trace.is_some()),
                ("workload.import", w.import.is_some()),
            ];
            if let Some((key, _)) = worlds.iter().find(|(_, set)| *set) {
                return Err(bad(format!(
                    "[experiment] kind = {:?} builds no world, so {key} would be ignored — \
                     drop it, or drop the [experiment] binding to run it through the generic path",
                    entry.kind
                )));
            }
        }
        Ok(())
    }

    /// Emits the canonical TOML form (keys sorted by the emitter).
    /// `parse(emit(spec)) == spec`.
    pub fn emit(&self) -> String {
        toml::emit(&crate::schema::write_record(self))
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

/// Errors naming `path` when an index in `values` is not below `n`.
fn index_in(
    path: &str,
    values: impl IntoIterator<Item = usize>,
    n: usize,
    what: &str,
) -> Result<(), SpecError> {
    match values.into_iter().find(|&i| i >= n) {
        Some(i) => Err(bad(format!("{path} {i} out of range ({n} {what})"))),
        None => Ok(()),
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

/// The key paths suggested as `pamdc sweep --param` axes, for error
/// hints.
pub fn sweep_hints() -> Vec<String> {
    crate::schema::keys::<ScenarioSpec>("")
        .into_iter()
        .filter(|k| k.flags & SWEEP != 0)
        .map(|k| k.path)
        .collect()
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
            step_eur_per_kwh: Some(0.448),
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
        // Analysis kinds build no world, so they reject the table loudly;
        // world kinds size their arms' VMs from it.
        let doc = "[experiment]\nkind = \"table1\"\n\
                   [workload]\nvms = 5\n[[workload.services]]\ncount = 5\n";
        assert!(ScenarioSpec::parse(doc)
            .unwrap_err()
            .0
            .contains("workload.services"));
        assert!(ScenarioSpec::parse(&doc.replace("table1", "fig4")).is_ok());
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
        // An analysis kind builds no world: a file-backed demand source
        // or a class mix bound to it would be silently dropped, so both
        // are hard errors naming the key.
        let doc = "[experiment]\nkind = \"table1\"\n\
                   [workload.import]\npath = \"a.csv\"\nformat = \"azure\"\n";
        let err = ScenarioSpec::parse(doc).unwrap_err().0;
        assert!(
            err.contains("ignored") && err.contains("workload.import"),
            "{err}"
        );
        let doc = "[experiment]\nkind = \"scaling\"\n[workload.trace]\npath = \"t.csv\"\n";
        assert!(ScenarioSpec::parse(doc)
            .unwrap_err()
            .0
            .contains("workload.trace"));
        let doc = "[[topology.classes]]\npreset = \"atom\"\n[experiment]\nkind = \"table2\"\n";
        assert!(ScenarioSpec::parse(doc)
            .unwrap_err()
            .0
            .contains("topology.classes"));
        // ...but every world kind honors them.
        for kind in ["fig4", "heterogeneity"] {
            let doc = format!(
                "[[topology.classes]]\npreset = \"atom\"\n[experiment]\nkind = \"{kind}\"\n"
            );
            assert!(ScenarioSpec::parse(&doc).is_ok(), "{kind}");
            let doc =
                format!("[experiment]\nkind = \"{kind}\"\n[workload.trace]\npath = \"t.csv\"\n");
            assert!(ScenarioSpec::parse(&doc).is_ok(), "{kind}");
        }
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
    fn world_sizes_are_bounded() {
        // A billion VMs would hang `pamdc run` while it allocates the
        // world.
        let err = ScenarioSpec::parse("[workload]\nvms = 1000000000\n").unwrap_err();
        assert!(err.0.contains("workload.vms"), "{err}");
        let err = ScenarioSpec::parse("[run]\nhours = 100000\n").unwrap_err();
        assert!(err.0.contains("run.hours"), "{err}");
        // The largest fleet the repository runs stays inside the bounds.
        let spec = ScenarioSpec::parse("[topology]\npms_per_dc = 200\n[workload]\nvms = 4000\n");
        assert!(spec.is_ok());
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
    fn wrong_types_name_the_key() {
        let err = ScenarioSpec::parse("[workload]\nvms = \"five\"").unwrap_err();
        assert!(err.0.contains("workload.vms"), "{}", err.0);
        let err = ScenarioSpec::parse("topology = 3").unwrap_err();
        assert!(err.0.contains("topology must be a table"), "{}", err.0);
        let err = ScenarioSpec::parse("[[faults]]\npm = 0\nat_min = 1\n").unwrap_err();
        assert!(
            err.0.contains("faults.repair_after_min is required"),
            "{}",
            err.0
        );
        let err = ScenarioSpec::parse("[energy]\nsolar_dcs = [0, -1]").unwrap_err();
        assert!(err.0.contains("energy.solar_dcs"), "{}", err.0);
    }

    #[test]
    fn tariff_step_keys_come_as_a_pair() {
        // The after-step price alone used to parse and then vanish on
        // the next emit; both halves of the step are now required.
        let flat = "[[energy.tariffs]]\ndc = 0\neur_per_kwh = 0.1\n";
        for half in ["step_eur_per_kwh = 0.3\n", "step_at_hour = 5\n"] {
            let err = ScenarioSpec::parse(&format!("{flat}{half}")).unwrap_err();
            assert!(
                err.0.contains("step_at_hour and step_eur_per_kwh"),
                "{}",
                err.0
            );
        }
        let stepped = format!("{flat}step_at_hour = 5\nstep_eur_per_kwh = 0.3\n");
        let spec = ScenarioSpec::parse(&stepped).expect("parse");
        assert_eq!(spec.energy.tariffs[0].step_eur_per_kwh, Some(0.3));
        assert_eq!(ScenarioSpec::parse(&spec.emit()).expect("reparse"), spec);
    }

    #[test]
    #[allow(clippy::field_reassign_with_default)]
    fn validate_checks_hand_built_specs() {
        let mut spec = ScenarioSpec::default();
        spec.workload.vms = 0;
        assert!(spec.validate().unwrap_err().0.contains("workload.vms"));
        let mut spec = ScenarioSpec::default();
        spec.run.tick_secs = 0;
        assert!(spec.validate().unwrap_err().0.contains("run.tick_secs"));
        let mut spec = ScenarioSpec::default();
        spec.billing.vm_eur_per_hour = f64::INFINITY;
        assert!(spec
            .validate()
            .unwrap_err()
            .0
            .contains("billing.vm_eur_per_hour"));
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
