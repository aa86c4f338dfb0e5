//! Public-dataset trace ingestion: Azure and Alibaba cluster traces,
//! normalized into the native [`DemandTrace`] pipeline.
//!
//! The paper drives its evaluation with the (non-redistributable) Li-BCN
//! hosting traces; this module family opens the engine to the two big
//! public alternatives instead:
//!
//! * [`azure`] — the Azure public VM trace's CPU-readings schema
//!   (`timestamp,vm id,min cpu,max cpu,avg cpu`, 5-minute cadence);
//! * [`alibaba`] — the Alibaba cluster-trace `container_usage` schema
//!   (`container_id,machine_id,time_stamp,cpu_util_percent,...,net_in,
//!   net_out,...`, 10-second cadence).
//!
//! Both parsers are **streaming** (line-at-a-time over any
//! [`std::io::BufRead`], never materializing the raw file) and
//! **total** (malformed or truncated rows return a line-numbered
//! [`ImportError`], never a panic). They normalize into the exact same
//! [`DemandTrace`] a `pamdc record` run produces, so an imported trace
//! replays through [`TraceSource`](crate::trace::TraceSource) — and
//! round-trips through the trace CSV form — bit-identically, and every
//! downstream consumer (scenario specs, sweeps, campaigns, golden
//! tests) works on public data unchanged.
//!
//! ## Normalization rules (see `docs/TRACES.md` for the walk-through)
//!
//! Neither dataset records request-level flows, so rows are converted
//! with deterministic, documented rules:
//!
//! * **services** — source ids (VM ids, container ids) become service
//!   indices in first-seen order; `max_services` caps the fleet (rows
//!   for later ids are dropped).
//! * **classes** — service `i` gets [`ServiceClass::ALL`]`[i % 4]`, the
//!   same rotation the synthetic Li-BCN presets use.
//! * **regions** — service `i`'s demand originates from home region
//!   `i % regions` (the multi-DC world's home-region rotation);
//!   `region_map` relabels afterwards.
//! * **rate** — `cpu` percent is read as percent-of-core and converted
//!   to a request rate through the class's per-request CPU cost:
//!   `rps = cpu/100 × 1000 / cpu_ms_mean`. Multiple samples landing in
//!   one tick average their utilization first.
//! * **bytes** — Azure rows carry no network columns, so per-request KB
//!   are the class means; Alibaba `net_in`/`net_out` (KB/s) divide by
//!   the row's rate to per-request KB, falling back to the class means
//!   when the rate is zero or the column is empty.
//! * **memory** — Alibaba `mem_util_percent` (percent of machine
//!   memory) is read against the paper host's 4096 MB, the default
//!   web-service VM's 256 MB floor is subtracted, and the excess is
//!   divided by the sample's in-flight request count (Little's law at
//!   the class's nominal service time) to give MB-per-in-flight-request
//!   per service, clamped to [0.1, 1024]. Azure rows carry no memory
//!   column, so the profile stays unmeasured (class constants apply).
//!
//! The replay transforms (`rate_scale`, `time_stretch`, `region_map`)
//! are applied **at import**, so the emitted trace carries them baked
//! in and replays verbatim.

pub mod alibaba;
pub mod azure;

use crate::generator::FlowSample;
use crate::service::ServiceClass;
use crate::trace::{check_ceiling, check_transforms, scaled_rate, DemandTrace};
use pamdc_simcore::time::SimDuration;
use std::collections::HashMap;
use std::io::BufRead;
use std::path::Path;

/// Import errors, line-numbered where a source row is at fault.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ImportError(pub String);

impl std::fmt::Display for ImportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "import error: {}", self.0)
    }
}

impl std::error::Error for ImportError {}

pub(crate) fn line_err(lineno: usize, msg: impl Into<String>) -> ImportError {
    ImportError(format!("line {lineno}: {}", msg.into()))
}

/// A supported public-dataset schema.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceFormat {
    /// Azure public VM trace, CPU-readings files.
    Azure,
    /// Alibaba cluster trace, `container_usage` files.
    Alibaba,
}

impl TraceFormat {
    /// The format a `workload.import.format` name (`pamdc import
    /// --format`) selects.
    pub fn from_name(s: &str) -> Option<Self> {
        match s {
            "azure" => Some(TraceFormat::Azure),
            "alibaba" => Some(TraceFormat::Alibaba),
            _ => None,
        }
    }

    /// The dataset's native sampling cadence, used when
    /// [`ImportOptions::tick`] is not set (Azure publishes 5-minute
    /// readings; Alibaba's usage files sample every ~10 seconds).
    pub fn default_tick(self) -> SimDuration {
        match self {
            TraceFormat::Azure => SimDuration::from_secs(300),
            TraceFormat::Alibaba => SimDuration::from_secs(10),
        }
    }
}

/// Import knobs shared by both formats. The replay transforms mirror
/// [`TraceSource`](crate::trace::TraceSource)'s, applied at import.
#[derive(Clone, Debug)]
pub struct ImportOptions {
    /// Normalization tick; `None` = the format's native cadence.
    /// Source timestamps floor into their containing tick; samples
    /// sharing a tick average their utilization.
    pub tick: Option<SimDuration>,
    /// Client regions of the target world (service `i` originates from
    /// region `i % regions`).
    pub regions: usize,
    /// Arrival-rate multiplier, baked into the imported rows.
    pub rate_scale: f64,
    /// Playback slowdown, baked in by stretching the tick duration.
    pub time_stretch: f64,
    /// Region relabelling (`map[home] = replayed`); empty = identity.
    pub region_map: Vec<usize>,
    /// Keep only the first N distinct source ids (first-seen order).
    pub max_services: Option<usize>,
    /// Keep only the first N ticks after rebasing to the earliest
    /// timestamp.
    pub max_ticks: Option<usize>,
}

/// The options of a `[workload.import]` table that sets no key — where
/// the importers' unit tests start.
#[cfg(test)]
pub(crate) fn test_options() -> ImportOptions {
    ImportOptions {
        tick: None,
        regions: 4,
        rate_scale: 1.0,
        time_stretch: 1.0,
        region_map: Vec::new(),
        max_services: None,
        max_ticks: None,
    }
}

impl ImportOptions {
    /// Checks every knob (also called by [`import`]); the scenario
    /// spec's `[workload.import]` validation delegates here, so the
    /// rules live in exactly one place.
    pub fn validate(&self) -> Result<(), ImportError> {
        if self.regions == 0 {
            return Err(ImportError("regions must be >= 1".into()));
        }
        check_transforms(
            self.rate_scale,
            self.time_stretch,
            &self.region_map,
            self.regions,
        )
        .map_err(ImportError)?;
        if let Some(t) = self.tick {
            if t <= SimDuration::ZERO {
                return Err(ImportError("tick must be positive".into()));
            }
        }
        if self.max_services == Some(0) {
            return Err(ImportError("max_services must be >= 1".into()));
        }
        if self.max_ticks == Some(0) {
            return Err(ImportError("max_ticks must be >= 1".into()));
        }
        Ok(())
    }
}

/// One normalized usage sample, shared by both format parsers.
#[derive(Clone, Copy, Debug)]
pub(crate) struct UsageRow {
    /// Source timestamp, seconds (absolute; rebased to the minimum).
    pub timestamp: u64,
    /// Service index (already first-seen-ordered and capped).
    pub service: usize,
    /// CPU utilization, percent-of-core.
    pub cpu_pct: f64,
    /// Network in, KB/s (`None` = column absent/empty → class mean).
    pub net_in_kbps: Option<f64>,
    /// Network out, KB/s.
    pub net_out_kbps: Option<f64>,
    /// Memory utilization, percent of machine memory (`None` = column
    /// absent/empty → no measured memory profile for this sample).
    pub mem_util_pct: Option<f64>,
}

/// Iterates `reader` line by line through a reused buffer, handing each
/// line to `f` with its 1-based number. Trailing `\n` **and** `\r` are
/// stripped, so CRLF-exported dataset files (Excel, Windows tooling)
/// parse identically to LF ones — without this, the final field of
/// every row keeps a `\r` that corrupts interned service names and the
/// last numeric column.
pub(crate) fn for_each_line<R: BufRead>(
    mut reader: R,
    mut f: impl FnMut(usize, &str) -> Result<(), ImportError>,
) -> Result<(), ImportError> {
    let mut buf = String::new();
    let mut lineno = 0usize;
    loop {
        buf.clear();
        lineno += 1;
        let n = reader
            .read_line(&mut buf)
            .map_err(|e| line_err(lineno, format!("read failed: {e}")))?;
        if n == 0 {
            return Ok(());
        }
        let line = buf.strip_suffix('\n').unwrap_or(&buf);
        let line = line.strip_suffix('\r').unwrap_or(line);
        f(lineno, line)?;
    }
}

/// First-seen-order service id interning, with an optional cap.
pub(crate) struct ServiceInterner {
    ids: HashMap<String, usize>,
    cap: Option<usize>,
}

impl ServiceInterner {
    pub fn new(cap: Option<usize>) -> Self {
        ServiceInterner {
            ids: HashMap::new(),
            cap,
        }
    }

    /// The service index for a source id, or `None` when the id falls
    /// beyond the `max_services` cap.
    pub fn intern(&mut self, id: &str) -> Option<usize> {
        if let Some(&idx) = self.ids.get(id) {
            return Some(idx);
        }
        let idx = self.ids.len();
        if self.cap.is_some_and(|cap| idx >= cap) {
            return None;
        }
        self.ids.insert(id.to_string(), idx);
        Some(idx)
    }
}

/// Mean outbound KB per request of a class (the Pareto distribution's
/// mean, `scale · shape / (shape - 1)`), used when the source has no
/// network columns.
pub(crate) fn class_kb_out_mean(class: ServiceClass) -> f64 {
    class.kb_out_scale() * class.kb_out_shape() / (class.kb_out_shape() - 1.0)
}

/// The class a normalized service index gets (the Li-BCN rotation).
pub(crate) fn class_for(service: usize) -> ServiceClass {
    // pamdc-lint: allow(no-panic-parser) -- index is modulo the array length
    ServiceClass::ALL[service % ServiceClass::ALL.len()]
}

/// CPU percent → request rate through the class's per-request cost.
pub(crate) fn rps_from_cpu(cpu_pct: f64, class: ServiceClass) -> f64 {
    (cpu_pct / 100.0) * 1000.0 / class.cpu_ms_mean()
}

/// Machine memory the Alibaba `mem_util_percent` column is read
/// against: the paper host's 4 GB (see `docs/TRACES.md`).
pub(crate) const REF_MACHINE_MEM_MB: f64 = 4096.0;

/// The default web-service VM's idle memory floor, MB — subtracted
/// before deriving the per-in-flight cost (matches
/// `VmSpec::web_service`).
pub(crate) const BASE_MEM_MB: f64 = 256.0;

/// The nominal non-CPU service-time multiplier used for the in-flight
/// estimate (matches `VmPerfProfile::default`).
pub(crate) const IO_WAIT_FACTOR: f64 = 0.6;

/// Clamp bounds for the derived MB-per-in-flight-request. The ceiling
/// is deliberately high: a low-rate container with a large resident set
/// legitimately derives a huge per-request cost (that is how its
/// observed footprint is reproduced at its observed rate), and the
/// clamp only guards against degenerate rows.
pub(crate) const MEM_PER_INFLIGHT_MIN: f64 = 0.1;
/// See [`MEM_PER_INFLIGHT_MIN`].
pub(crate) const MEM_PER_INFLIGHT_MAX: f64 = 1024.0;

/// Folds parsed rows into a [`DemandTrace`]: rebase timestamps, floor
/// into ticks, average samples sharing a tick, convert to flows, apply
/// the import-time transforms.
pub(crate) fn rows_to_trace(
    rows: Vec<UsageRow>,
    opts: &ImportOptions,
) -> Result<DemandTrace, ImportError> {
    if rows.is_empty() {
        return Err(ImportError(
            "no usable data rows (empty or fully filtered input)".into(),
        ));
    }
    let Some(tick) = opts.tick else {
        return Err(ImportError(
            "internal: tick_secs unresolved (the importer failed to apply the format default)"
                .into(),
        ));
    };
    let tick_ms = tick.as_millis();
    let t0 = rows.iter().map(|r| r.timestamp).min().unwrap_or(0);
    let services = rows.iter().map(|r| r.service).max().map_or(1, |m| m + 1);

    // (sum cpu, sum net_in, n(net_in), sum net_out, n(net_out), samples)
    // per (tick, service); averaging keeps a coarser tick deterministic.
    #[derive(Clone, Copy, Default)]
    struct Acc {
        cpu: f64,
        net_in: f64,
        n_in: u32,
        net_out: f64,
        n_out: u32,
        n: u32,
    }
    let mut ticks = 0usize;
    let mut cells: HashMap<(usize, usize), Acc> = HashMap::new();
    // Memory profile: the sum of memory held above the VM floor and the
    // sum of in-flight requests per service, over every kept sample
    // that measured both. Their ratio is the service's MB-per-in-flight
    // (documented in docs/TRACES.md).
    let mut mem_excess = vec![0.0f64; services];
    let mut mem_inflight = vec![0.0f64; services];
    for r in &rows {
        let tick_idx = ((r.timestamp - t0) * 1000 / tick_ms) as usize;
        if opts.max_ticks.is_some_and(|cap| tick_idx >= cap) {
            continue;
        }
        ticks = ticks.max(tick_idx + 1);
        let acc = cells.entry((tick_idx, r.service)).or_default();
        acc.cpu += r.cpu_pct;
        acc.n += 1;
        if let Some(v) = r.net_in_kbps {
            acc.net_in += v;
            acc.n_in += 1;
        }
        if let Some(v) = r.net_out_kbps {
            acc.net_out += v;
            acc.n_out += 1;
        }
        if let Some(mem_util) = r.mem_util_pct {
            let class = class_for(r.service);
            let raw_rps = rps_from_cpu(r.cpu_pct, class);
            if raw_rps > 0.0 {
                let service_secs = class.cpu_ms_mean() / 1000.0 * (1.0 + IO_WAIT_FACTOR);
                // pamdc-lint: allow(no-panic-parser) -- r.service < services: both vecs are sized from max(service)+1
                mem_excess[r.service] +=
                    (mem_util / 100.0 * REF_MACHINE_MEM_MB - BASE_MEM_MB).max(0.0);
                // pamdc-lint: allow(no-panic-parser) -- same bound as mem_excess above
                mem_inflight[r.service] += raw_rps * service_secs;
            }
        }
    }
    if ticks == 0 {
        return Err(ImportError(
            "no usable data rows (max_ticks filtered everything)".into(),
        ));
    }

    let mut flows: Vec<Vec<Vec<FlowSample>>> = vec![vec![Vec::new(); services]; ticks];
    // Deterministic emission order: tick-major, then service. Draining
    // the map into a sorted vec keeps the loop free of map indexing.
    let mut entries: Vec<((usize, usize), Acc)> = cells.into_iter().collect();
    entries.sort_unstable_by_key(|(key, _)| *key);
    for ((tick_idx, service), acc) in entries {
        let class = class_for(service);
        let cpu_pct = acc.cpu / acc.n as f64;
        let raw_rps = rps_from_cpu(cpu_pct, class);
        let cell_err = |e: String| ImportError(format!("tick {tick_idx}, service {service}: {e}"));
        let rps = scaled_rate(raw_rps, opts.rate_scale).map_err(cell_err)?;
        if rps <= 0.0 {
            continue; // idle sample: no flow this tick (like the recorder)
        }
        // Unscaled rate converts KB/s columns to per-request KB; the
        // scale then multiplies arrivals without inflating volume/req.
        let kb_in = if acc.n_in > 0 && raw_rps > 0.0 {
            (acc.net_in / acc.n_in as f64) / raw_rps
        } else {
            class.kb_in_mean()
        };
        let kb_out = if acc.n_out > 0 && raw_rps > 0.0 {
            (acc.net_out / acc.n_out as f64) / raw_rps
        } else {
            class_kb_out_mean(class)
        };
        check_ceiling("kb_in", kb_in).map_err(cell_err)?;
        check_ceiling("kb_out", kb_out).map_err(cell_err)?;
        let home = service % opts.regions;
        let region = if opts.region_map.is_empty() {
            home
        } else {
            // pamdc-lint: allow(no-panic-parser) -- validate() pins region_map.len() == regions and home < regions
            opts.region_map[home]
        };
        // pamdc-lint: allow(no-panic-parser) -- tick_idx < ticks and service < services by construction of `cells`
        flows[tick_idx][service].push(FlowSample {
            region,
            rps,
            kb_in_per_req: kb_in,
            kb_out_per_req: kb_out,
            cpu_ms_per_req: class.cpu_ms_mean(),
        });
    }

    // time-stretch bakes in as a longer tick (replayed 1:1 afterwards).
    let stretched_ms = (tick_ms as f64 * opts.time_stretch).round().max(1.0) as u64;
    let mem_mb_per_inflight = mem_excess
        .iter()
        .zip(&mem_inflight)
        .map(|(&excess, &inflight)| {
            (inflight > 0.0 && excess > 0.0)
                .then(|| (excess / inflight).clamp(MEM_PER_INFLIGHT_MIN, MEM_PER_INFLIGHT_MAX))
        })
        .collect();
    Ok(DemandTrace {
        tick: SimDuration::from_millis(stretched_ms),
        regions: opts.regions,
        classes: (0..services).map(class_for).collect(),
        mem_mb_per_inflight,
        flows,
    })
}

/// Imports a trace from any buffered reader.
pub fn import<R: BufRead>(
    format: TraceFormat,
    reader: R,
    opts: &ImportOptions,
) -> Result<DemandTrace, ImportError> {
    opts.validate()?;
    let mut opts = opts.clone();
    opts.tick = Some(opts.tick.unwrap_or_else(|| format.default_tick()));
    let rows = match format {
        TraceFormat::Azure => azure::parse_rows(reader, &opts)?,
        TraceFormat::Alibaba => alibaba::parse_rows(reader, &opts)?,
    };
    rows_to_trace(rows, &opts)
}

/// Imports a trace from a file on disk.
pub fn import_path(
    format: TraceFormat,
    path: &Path,
    opts: &ImportOptions,
) -> Result<DemandTrace, ImportError> {
    let file = std::fs::File::open(path)
        .map_err(|e| ImportError(format!("cannot open {}: {e}", path.display())))?;
    import(format, std::io::BufReader::new(file), opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceSource;

    const AZURE: &str = "\
timestamp,vm id,min cpu,max cpu,avg cpu
0,vm-a,1.0,30.0,20.0
0,vm-b,1.0,50.0,40.0
300,vm-a,2.0,28.0,10.0
300,vm-b,3.0,55.0,50.0
600,vm-a,0.0,0.0,0.0
";

    #[test]
    fn azure_import_normalizes_shape() {
        let t = import(TraceFormat::Azure, AZURE.as_bytes(), &test_options()).expect("import");
        assert_eq!(t.service_count(), 2);
        assert_eq!(t.tick_count(), 3);
        assert_eq!(t.regions, 4);
        assert_eq!(t.tick, SimDuration::from_secs(300));
        // Classes rotate like the synthetic presets.
        assert_eq!(t.classes[0], ServiceClass::FileHosting);
        assert_eq!(t.classes[1], ServiceClass::ImageGallery);
        // vm-a at 20% of a core, file-hosting (3 ms/req): 66.7 req/s.
        let f = &t.flows[0][0][0];
        assert!((f.rps - 200.0 / 3.0).abs() < 1e-9, "rps {}", f.rps);
        assert_eq!(f.region, 0);
        assert_eq!(t.flows[0][1][0].region, 1, "home region rotates");
        // The zero-CPU tail tick carries no flow but keeps the length.
        assert!(t.flows[2][0].is_empty());
    }

    #[test]
    fn import_round_trips_and_replays_bit_identically() {
        let t = import(TraceFormat::Azure, AZURE.as_bytes(), &test_options()).expect("import");
        let csv = t.to_csv();
        let reparsed = DemandTrace::parse_csv(&csv).expect("reparse");
        assert_eq!(t, reparsed);
        assert_eq!(csv, reparsed.to_csv(), "emission is a fixed point");
        let replay = TraceSource::new(reparsed);
        let mut sampled = Vec::new();
        for tick in 0..3u64 {
            for s in 0..2 {
                let now = pamdc_simcore::time::SimTime::ZERO + t.tick * tick;
                replay.sample_into(s, now, &mut sampled);
                assert_eq!(sampled, t.flows[tick as usize][s]);
            }
        }
    }

    #[test]
    fn transforms_bake_in_at_import() {
        let opts = ImportOptions {
            rate_scale: 2.0,
            time_stretch: 3.0,
            region_map: vec![3, 2, 1, 0],
            ..test_options()
        };
        let base = import(TraceFormat::Azure, AZURE.as_bytes(), &test_options()).unwrap();
        let t = import(TraceFormat::Azure, AZURE.as_bytes(), &opts).unwrap();
        assert_eq!(t.tick, SimDuration::from_secs(900), "stretched cadence");
        let (b, f) = (&base.flows[0][0][0], &t.flows[0][0][0]);
        assert!((f.rps - 2.0 * b.rps).abs() < 1e-12);
        assert_eq!(
            f.kb_out_per_req, b.kb_out_per_req,
            "volume per request unchanged by rate scaling"
        );
        assert_eq!(f.region, 3, "home region 0 relabelled to 3");
    }

    #[test]
    fn service_and_tick_caps_apply() {
        let opts = ImportOptions {
            max_services: Some(1),
            max_ticks: Some(2),
            ..test_options()
        };
        let t = import(TraceFormat::Azure, AZURE.as_bytes(), &opts).expect("import");
        assert_eq!(t.service_count(), 1);
        assert_eq!(t.tick_count(), 2);
    }

    #[test]
    fn coarser_tick_averages_samples() {
        let opts = ImportOptions {
            tick: Some(SimDuration::from_secs(600)),
            ..test_options()
        };
        let t = import(TraceFormat::Azure, AZURE.as_bytes(), &opts).expect("import");
        assert_eq!(t.tick_count(), 2);
        // vm-a's 20% and 10% samples average to 15% in tick 0.
        let f = &t.flows[0][0][0];
        assert!((f.rps - 150.0 / 3.0).abs() < 1e-9, "rps {}", f.rps);
    }

    #[test]
    fn bad_options_rejected() {
        let t = |opts| import(TraceFormat::Azure, AZURE.as_bytes(), &opts);
        assert!(t(ImportOptions {
            regions: 0,
            ..test_options()
        })
        .is_err());
    }

    #[test]
    fn replay_and_import_share_the_transform_rules() {
        let base = import(TraceFormat::Azure, AZURE.as_bytes(), &test_options()).expect("import");
        assert_eq!(base.regions, test_options().regions);
        let (nan, inf) = (f64::NAN, f64::INFINITY);
        for (rate_scale, time_stretch, region_map, refusal) in [
            (
                -1.0,
                1.0,
                vec![],
                "rate_scale must be finite and >= 0, got -1",
            ),
            (
                nan,
                1.0,
                vec![],
                "rate_scale must be finite and >= 0, got NaN",
            ),
            (
                inf,
                1.0,
                vec![],
                "rate_scale must be finite and >= 0, got inf",
            ),
            (
                1.0,
                0.0,
                vec![],
                "time_stretch must be finite and > 0, got 0",
            ),
            (
                1.0,
                -2.0,
                vec![],
                "time_stretch must be finite and > 0, got -2",
            ),
            (
                1.0,
                nan,
                vec![],
                "time_stretch must be finite and > 0, got NaN",
            ),
            (
                1.0,
                1.0,
                vec![0, 1],
                "region_map lists 2 regions but there are 4",
            ),
            (
                1.0,
                1.0,
                vec![0, 1, 2, 4],
                "region_map target 4 is out of range (4 regions)",
            ),
            (1e306, 1.0, vec![], "rps, above the demand ceiling of 1e9"),
            (0.0, 1.0, vec![], ""),
            (1.0, 1.0, vec![0, 1, 2, 3], ""),
        ] {
            let opts = ImportOptions {
                rate_scale,
                time_stretch,
                region_map: region_map.clone(),
                ..test_options()
            };
            let imported = import(TraceFormat::Azure, AZURE.as_bytes(), &opts).map_err(|e| e.0);
            let replayed = TraceSource::replay(base.clone(), rate_scale, time_stretch, region_map)
                .map_err(|e| e.0);
            for (path, result) in [("import", imported.err()), ("replay", replayed.err())] {
                match result {
                    Some(err) => assert!(
                        !refusal.is_empty() && err.contains(refusal),
                        "{path}: {err}"
                    ),
                    None => assert!(refusal.is_empty(), "{path} accepted: {refusal}"),
                }
            }
        }
    }

    #[test]
    fn crlf_exports_parse_identically_to_lf() {
        // CRLF leaves a `\r` on the last field of every row (the
        // numeric column here; the service id survives because it is
        // first) — both importers must strip it, including on a final
        // line with no terminator at all.
        let azure_crlf = AZURE.replace('\n', "\r\n");
        let lf = import(TraceFormat::Azure, AZURE.as_bytes(), &test_options()).unwrap();
        let crlf = import(TraceFormat::Azure, azure_crlf.as_bytes(), &test_options()).unwrap();
        assert_eq!(lf, crlf, "azure CRLF must normalize identically");
        let unterminated = azure_crlf.trim_end_matches('\n').to_string(); // ends "...0.0\r"
        let tail = import(TraceFormat::Azure, unterminated.as_bytes(), &test_options());
        assert_eq!(lf, tail.expect("lone trailing \\r"));

        let alibaba = "c_1,m_1,10,25.0,40.2,1.1,0.4,0.02,120.0,350.0,5.0\n\
                       c_2,m_1,10,50.0,60.0,,,,,,\n";
        let lf = import(TraceFormat::Alibaba, alibaba.as_bytes(), &test_options()).unwrap();
        let crlf = import(
            TraceFormat::Alibaba,
            alibaba.replace('\n', "\r\n").as_bytes(),
            &test_options(),
        )
        .unwrap();
        assert_eq!(lf, crlf, "alibaba CRLF must normalize identically");
        assert_eq!(
            crlf.flows[0][0][0].kb_out_per_req,
            lf.flows[0][0][0].kb_out_per_req
        );
    }

    #[test]
    fn azure_has_no_memory_columns_so_profiles_stay_unmeasured() {
        let t = import(TraceFormat::Azure, AZURE.as_bytes(), &test_options()).unwrap();
        assert_eq!(t.mem_mb_per_inflight, vec![None, None]);
        // ...and the emitted CSV carries no memory header, keeping
        // pre-PR azure trace files byte-identical.
        assert!(!t.to_csv().contains("mem_mb_per_inflight"));
    }

    #[test]
    fn empty_input_is_an_error_not_a_panic() {
        let err = import(TraceFormat::Azure, "".as_bytes(), &test_options()).unwrap_err();
        assert!(err.0.contains("no usable"), "{err}");
        let header_only = "timestamp,vm id,min cpu,max cpu,avg cpu\n";
        assert!(import(TraceFormat::Azure, header_only.as_bytes(), &test_options()).is_err());
    }

    #[test]
    fn format_names_parse() {
        assert_eq!(TraceFormat::from_name("azure"), Some(TraceFormat::Azure));
        assert_eq!(
            TraceFormat::from_name("alibaba"),
            Some(TraceFormat::Alibaba)
        );
        assert_eq!(TraceFormat::from_name("gcp"), None);
    }
}
