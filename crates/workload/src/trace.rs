//! Demand traces: record any run's demand to CSV, replay it later.
//!
//! A [`DemandTrace`] is the materialized per-tick output of a
//! [`Demand`]: every `(tick, service, region)` flow, plus the header
//! metadata needed to rebuild performance profiles (service classes)
//! and validate transforms (region count).
//! The CSV form is deliberately dumb — one row per flow, floats printed
//! in shortest round-trip form — so `parse(emit(trace))` is
//! **bit-identical** and a replayed run reproduces the recorded run's
//! scheduler decisions exactly.
//!
//! One incremental reader parses every trace CSV, whether a finished
//! file or a live feed another process is still appending to.
//! [`DemandTrace::parse_csv`] feeds it the whole text once and then
//! finishes it strictly; [`TailSource`](crate::tail::TailSource) feeds it
//! each poll's appended bytes and withholds a torn final row. Both see
//! the same rows, checks and line-numbered errors.
//!
//! A [`TraceSource`] replays a trace, optionally transformed:
//!
//! * **rate-scale** — multiply every arrival rate by `k`;
//! * **time-stretch** — play the trace `f`× slower (a 24 h trace drives
//!   a 48 h run at `f = 2`);
//! * **region-remap** — relabel client regions (move a trace recorded
//!   against Barcelona clients to Boston).
//!
//! [`TraceSource::replay`] checks the transforms once and returns an
//! error rather than panicking. Queries past the end of the trace wrap
//! around, so one recorded day can drive arbitrarily long scenarios; an
//! empty trace samples no flows.

use crate::generator::FlowSample;
use crate::service::ServiceClass;
use crate::source::Demand;
use pamdc_simcore::time::{SimDuration, SimTime};
use std::fmt::Write as _;
use std::sync::Arc;

/// Furthest a data row's tick, or a declared `# ticks` count, may reach
/// past the ticks stored so far: a week of one-minute ticks. Zero-demand
/// ticks carry no rows, so gaps are legal, but every skipped tick costs
/// one empty row per service — a corrupt tick index or header must be an
/// error, not a request for terabytes.
const MAX_TICK_GAP: usize = 7 * 24 * 60;

/// Largest value a trace's demand columns may hold, replay transforms
/// included: 1e9 requests/s on one flow, 1e9 KB (a terabyte) per request
/// each way, 1e9 ms (11½ days) of CPU per request. Recorded, imported
/// and benchmark traces stay below 1e5 in every column. Under the
/// ceiling the engine's largest products stay finite: a tick's client
/// transfer, `rps × (kb_in + kb_out) × tick_secs`, is at most 2e18 KB/s
/// times the tick, and the quadratic CPU demand of
/// `pamdc_perf::demand::cpu_demand_pct` at most about 1.2e30 % of a
/// core. Without it a transfer that overflows to infinity, priced at
/// 0 €/GB, makes the profit NaN.
pub const MAX_DEMAND: f64 = 1e9;

/// Trace format errors (line-numbered where possible).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceError(pub String);

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace error: {}", self.0)
    }
}

impl std::error::Error for TraceError {}

/// A fully materialized demand trace.
#[derive(Clone, Debug, PartialEq)]
pub struct DemandTrace {
    /// Sampling cadence the trace was recorded at.
    pub tick: SimDuration,
    /// Client-region count of the recording world.
    pub regions: usize,
    /// Per-service request-shape class (len = service count).
    pub classes: Vec<ServiceClass>,
    /// Per-service measured memory per in-flight request, MB (len =
    /// service count). `None` = not measured: replays fall back to the
    /// class constant. Imported Alibaba traces fill this from
    /// `mem_util_percent` (see `docs/TRACES.md`); recorded synthetic
    /// traces carry all `None`.
    pub mem_mb_per_inflight: Vec<Option<f64>>,
    /// `flows[tick_idx][service]` — the recorded flows of that tick.
    pub flows: Vec<Vec<Vec<FlowSample>>>,
}

impl DemandTrace {
    /// Records `horizon` of demand at cadence `tick`.
    pub fn record(source: &Demand, horizon: SimDuration, tick: SimDuration) -> Self {
        assert!(tick > SimDuration::ZERO, "tick must be positive");
        let services = source.service_count();
        let ticks = horizon.ticks(tick);
        let mut flows = Vec::with_capacity(ticks as usize);
        let mut buf = Vec::new();
        for tick_idx in 0..ticks {
            let now = SimTime::ZERO + tick * tick_idx;
            let sampled = (0..services).map(|s| {
                source.sample_into(s, now, &mut buf);
                buf.clone()
            });
            flows.push(sampled.collect());
        }
        DemandTrace {
            tick,
            regions: source.region_count(),
            classes: (0..services).map(|s| source.service_class(s)).collect(),
            mem_mb_per_inflight: (0..services)
                .map(|s| source.mem_mb_per_inflight(s))
                .collect(),
            flows,
        }
    }

    /// Number of services.
    pub fn service_count(&self) -> usize {
        self.classes.len()
    }

    /// Number of recorded ticks.
    pub fn tick_count(&self) -> usize {
        self.flows.len()
    }

    /// Emits the CSV form (header comments + one row per flow).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str("# pamdc-trace v1\n");
        let _ = writeln!(out, "# tick_ms = {}", self.tick.as_millis());
        // The explicit count keeps zero-demand ticks (which emit no data
        // rows) through a round-trip — required for bit-exact replay.
        let _ = writeln!(out, "# ticks = {}", self.flows.len());
        let _ = writeln!(out, "# regions = {}", self.regions);
        let labels: Vec<&str> = self.classes.iter().map(|c| c.label()).collect();
        let _ = writeln!(out, "# classes = {}", labels.join(","));
        // The memory-profile header is written only when some service
        // carries a measurement, so traces recorded before the header
        // existed keep emitting byte-identical CSV.
        if self.mem_mb_per_inflight.iter().any(Option::is_some) {
            let cells: Vec<String> = self
                .mem_mb_per_inflight
                .iter()
                .map(|m| match m {
                    Some(v) => format!("{v}"),
                    None => "-".to_string(),
                })
                .collect();
            let _ = writeln!(out, "# mem_mb_per_inflight = {}", cells.join(","));
        }
        out.push_str("tick,service,region,rps,kb_in_per_req,kb_out_per_req,cpu_ms_per_req\n");
        for (tick_idx, services) in self.flows.iter().enumerate() {
            for (service, flows) in services.iter().enumerate() {
                for f in flows {
                    let _ = writeln!(
                        out,
                        "{},{},{},{},{},{},{}",
                        tick_idx,
                        service,
                        f.region,
                        f.rps,
                        f.kb_in_per_req,
                        f.kb_out_per_req,
                        f.cpu_ms_per_req
                    );
                }
            }
        }
        out
    }

    /// Parses the CSV form back into a trace.
    ///
    /// Strict: the whole file must be well-formed. The text runs once
    /// through the incremental reader behind
    /// [`TailSource`](crate::tail::TailSource), which then finishes
    /// it: a final row that merely lacks its newline still parses
    /// (legacy tolerance for editors that strip the trailing `\n`), but
    /// a row torn mid-write errors with the tick it belongs to. A
    /// declared `# ticks` count pads trailing zero-demand ticks;
    /// without one the trace ends at the last tick seen.
    pub fn parse_csv(text: &str) -> Result<Self, TraceError> {
        let mut reader = TraceTail::new();
        reader.feed(text.as_bytes())?;
        reader.finish()
    }
}

/// Which tick an unterminated final row belongs to. The tick field is
/// only trusted when a `,` follows it (otherwise the number itself may
/// be half-written: `12` could be a truncated `120`); without one the
/// conservative answer is the highest tick seen so far, whose rows the
/// writer may still be flushing.
fn partial_tick_guess(line: &str, ticks_seen: usize) -> usize {
    line.split_once(',')
        .and_then(|(first, _)| first.trim().parse::<usize>().ok())
        .unwrap_or_else(|| ticks_seen.saturating_sub(1))
}

/// The `flows[tick_idx][service]` store a [`CsvParser`] fills. The
/// [`TraceTail`] parks it inside the [`DemandTrace`] it hands out by
/// reference while the parser keeps cracking appended lines into it.
type Flows = Vec<Vec<Vec<FlowSample>>>;

/// Line-by-line trace-CSV parser: the header state and row cracking
/// of the [`TraceTail`] reader.
#[derive(Debug, Default)]
struct CsvParser {
    tick_ms: Option<u64>,
    ticks: Option<usize>,
    regions: Option<usize>,
    classes: Vec<ServiceClass>,
    mem_mb_per_inflight: Vec<Option<f64>>,
    saw_header_row: bool,
    ended: bool,
}

impl CsvParser {
    fn line(&mut self, lineno: usize, raw: &str, flows: &mut Flows) -> Result<(), TraceError> {
        let line = raw.trim();
        if line.is_empty() {
            return Ok(());
        }
        let err = |msg: String| TraceError(format!("line {lineno}: {msg}"));
        if let Some(meta) = line.strip_prefix('#') {
            let meta = meta.trim();
            if meta == "end" {
                self.ended = true;
            } else if let Some((key, value)) = meta.split_once('=') {
                let (key, value) = (key.trim(), value.trim());
                match key {
                    "tick_ms" => {
                        self.tick_ms = Some(
                            value
                                .parse()
                                .map_err(|_| err(format!("bad tick_ms {value:?}")))?,
                        )
                    }
                    "ticks" => {
                        self.ticks = Some(
                            value
                                .parse()
                                .map_err(|_| err(format!("bad ticks {value:?}")))?,
                        )
                    }
                    "regions" => {
                        self.regions = Some(
                            value
                                .parse()
                                .map_err(|_| err(format!("bad regions {value:?}")))?,
                        )
                    }
                    "classes" => {
                        self.classes = value
                            .split(',')
                            .map(|label| {
                                ServiceClass::from_label(label.trim())
                                    .ok_or_else(|| err(format!("unknown service class {label:?}")))
                            })
                            .collect::<Result<_, _>>()?;
                    }
                    "mem_mb_per_inflight" => {
                        self.mem_mb_per_inflight = value
                            .split(',')
                            .map(|cell| {
                                let cell = cell.trim();
                                if cell == "-" {
                                    return Ok(None);
                                }
                                cell.parse::<f64>().map(Some).map_err(|_| {
                                    err(format!("bad mem_mb_per_inflight cell {cell:?}"))
                                })
                            })
                            .collect::<Result<_, _>>()?;
                    }
                    _ => {} // forward-compatible: ignore unknown metadata
                }
            }
            return Ok(());
        }
        if line.starts_with("tick,") {
            self.saw_header_row = true;
            return Ok(());
        }
        // Exactly seven cells: an eighth `next()` must come back empty.
        let mut cells = line.split(',');
        let cols: [Option<&str>; 8] = std::array::from_fn(|_| cells.next());
        let [Some(c_tick), Some(c_service), Some(c_region), Some(c_rps), Some(c_kb_in), Some(c_kb_out), Some(c_cpu), None] =
            cols
        else {
            let got = line.split(',').count();
            return Err(err(format!("expected 7 columns, got {got}")));
        };
        let tick_idx: usize = c_tick
            .parse()
            .map_err(|_| err(format!("bad tick index {c_tick:?}")))?;
        let service: usize = c_service
            .parse()
            .map_err(|_| err(format!("bad service {c_service:?}")))?;
        let region: usize = c_region
            .parse()
            .map_err(|_| err(format!("bad region {c_region:?}")))?;
        // Demand must be a finite non-negative quantity under the
        // ceiling: NaN, a negative rate or an overflowing product would
        // poison the engine's accounting downstream.
        let num = |column: &str, text: &str| -> Result<f64, TraceError> {
            let v: f64 = text
                .parse()
                .map_err(|_| err(format!("bad number {text:?}")))?;
            if !(0.0..f64::INFINITY).contains(&v) {
                return Err(err(format!(
                    "{column} must be finite and non-negative, got {text:?}"
                )));
            }
            check_ceiling(column, v).map_err(err)?;
            Ok(v)
        };
        if service >= self.classes.len() {
            return Err(err(format!(
                "service {service} out of range (classes header lists {})",
                self.classes.len()
            )));
        }
        // Validate eagerly once the regions header has arrived; rows
        // read before it are swept when the shape freezes.
        if let Some(regions) = self.regions {
            if region >= regions {
                return Err(err(format!(
                    "flow region {region} out of range ({regions} regions)"
                )));
            }
        }
        if flows.len() <= tick_idx {
            // Growing is the one step an absurd tick makes dangerous; rows
            // inside the store were bounded when it grew to hold them.
            self.check_tick(lineno, tick_idx, flows.len())?;
            let services = self.classes.len();
            flows.resize_with(tick_idx + 1, || vec![Vec::new(); services]);
        }
        // pamdc-lint: allow(no-panic-parser) -- tick_idx/service are resized/range-checked just above
        flows[tick_idx][service].push(FlowSample {
            region,
            rps: num("rps", c_rps)?,
            kb_in_per_req: num("kb_in", c_kb_in)?,
            kb_out_per_req: num("kb_out", c_kb_out)?,
            cpu_ms_per_req: num("cpu_ms", c_cpu)?,
        });
        Ok(())
    }

    /// Rejects a row tick the store must not grow to, before anything is
    /// resized: at or past a declared `# ticks` count, or more than
    /// [`MAX_TICK_GAP`] ticks past the `stored` ones.
    fn check_tick(&self, lineno: usize, tick: usize, stored: usize) -> Result<(), TraceError> {
        let bad = match self.ticks {
            Some(ticks) if tick >= ticks => {
                format!("tick {tick} is past the declared ticks = {ticks}")
            }
            _ if tick > stored + MAX_TICK_GAP => format!(
                "tick {tick} jumps more than {MAX_TICK_GAP} ticks past the {stored} read so far"
            ),
            _ => return Ok(()),
        };
        Err(TraceError(format!("line {lineno}: {bad}")))
    }

    /// The shape the header block declares — every header field of a
    /// trace, no flows — once the column-header row and the `tick_ms`,
    /// `regions` and `classes` headers have arrived and the memory
    /// profile (absent = every service unmeasured) lists one cell per
    /// class.
    fn shape(&self) -> Result<DemandTrace, TraceError> {
        if !self.saw_header_row {
            return Err(TraceError("missing column header row".into()));
        }
        let tick_ms = self
            .tick_ms
            .ok_or_else(|| TraceError("missing '# tick_ms = ...'".into()))?;
        let regions = self
            .regions
            .ok_or_else(|| TraceError("missing '# regions = ...'".into()))?;
        let services = self.classes.len();
        if services == 0 {
            return Err(TraceError("missing '# classes = ...'".into()));
        }
        let mem_mb_per_inflight = match self.mem_mb_per_inflight.len() {
            0 => vec![None; services],
            n if n == services => self.mem_mb_per_inflight.clone(),
            n => {
                return Err(TraceError(format!(
                    "mem_mb_per_inflight header lists {n} services but classes lists {services}"
                )))
            }
        };
        Ok(DemandTrace {
            tick: SimDuration::from_millis(tick_ms),
            regions,
            classes: self.classes.clone(),
            mem_mb_per_inflight,
            flows: Flows::new(),
        })
    }
}

/// The one trace-CSV reader, incremental and tail-tolerant. It backs
/// [`DemandTrace::parse_csv`] (feed the whole text once, then
/// [`TraceTail::finish`]) and [`TailSource`](crate::tail::TailSource)
/// ([`TraceTail::open`] on the bytes on disk, then one
/// [`TraceTail::feed`] per poll).
///
/// Each feed takes only the bytes appended since the last one. The
/// reader keeps the parser state (headers, line number, a carry buffer
/// holding the unterminated final line) across feeds and parks the
/// growing flow store inside the [`DemandTrace`] it exposes by
/// reference — so each poll of a multi-gigabyte feed costs only the
/// delta.
///
/// A torn final row never enters the store of a live feed: it waits in
/// the carry buffer as raw bytes until a later feed terminates it. The
/// rows of the tick it names that *are* already stored stay there,
/// hidden behind the `ready` count [`TraceTail::refresh`] computes.
#[derive(Debug)]
pub(crate) struct TraceTail {
    parser: CsvParser,
    /// The shape [`TraceTail::freeze_shape`] validated (placeholders
    /// before that) plus every fully-written row fed so far.
    trace: DemandTrace,
    /// Bytes of the last feed's unterminated final line.
    carry: Vec<u8>,
    /// 1-based number of the last terminated line parsed.
    lineno: usize,
    /// Total bytes ever fed — the offset the next feed starts at.
    fed: u64,
    /// Byte offset just past the `tick,...` column-header row: the
    /// prefix the file's shape headers live in under the standard
    /// emission layout (callers pin and re-verify those raw bytes).
    header_end: u64,
}

impl TraceTail {
    /// A reader fed nothing yet.
    fn new() -> TraceTail {
        TraceTail {
            parser: CsvParser::default(),
            trace: DemandTrace {
                tick: SimDuration::ZERO,
                regions: 0,
                classes: Vec::new(),
                mem_mb_per_inflight: Vec::new(),
                flows: Flows::new(),
            },
            carry: Vec::new(),
            lineno: 0,
            fed: 0,
            header_end: 0,
        }
    }

    /// Reads the feed's current contents and requires the full header
    /// block; callers retry while the writer has not flushed it yet.
    pub(crate) fn open(bytes: &[u8]) -> Result<TraceTail, TraceError> {
        let mut tail = TraceTail::new();
        tail.feed(bytes)?;
        tail.freeze_shape()?;
        Ok(tail)
    }

    /// Parses the bytes appended since the last feed straight into the
    /// store: every `\n`-terminated line (`line` trims, so CRLF parses
    /// like LF), with the unterminated remainder left in the carry.
    /// `header_end` is stamped when the column-header row goes past.
    /// Call [`TraceTail::refresh`] afterwards to recompute the visible
    /// view.
    pub(crate) fn feed(&mut self, bytes: &[u8]) -> Result<(), TraceError> {
        self.fed += bytes.len() as u64;
        let joined: Vec<u8>;
        let chunk: &[u8] = if self.carry.is_empty() {
            bytes
        } else {
            joined = [self.carry.as_slice(), bytes].concat();
            &joined
        };
        let (whole, rest) =
            chunk.split_at(chunk.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1));
        // UTF-8 is checked once per feed; a bad byte fails its own line
        // after the lines before it have parsed.
        let valid = utf8_prefix(whole);
        let text = if valid.len() == whole.len() {
            valid
        } else {
            valid
                .get(..valid.rfind('\n').map_or(0, |i| i + 1))
                .unwrap_or_default()
        };
        let mut offset = self.fed - chunk.len() as u64;
        for line in text.split_terminator('\n') {
            self.lineno += 1;
            offset += line.len() as u64 + 1;
            let had_header = self.parser.saw_header_row;
            self.parser.line(self.lineno, line, &mut self.trace.flows)?;
            if self.parser.saw_header_row && !had_header {
                self.header_end = offset;
            }
        }
        if text.len() < whole.len() {
            return Err(TraceError(format!(
                "line {}: invalid UTF-8",
                self.lineno + 1
            )));
        }
        self.carry = rest.to_vec();
        Ok(())
    }

    /// Ends a one-shot read ([`DemandTrace::parse_csv`]): the
    /// unterminated final line, if any, parses as the last row; then
    /// the header block must be whole, and the trace takes every tick
    /// seen, padded to a declared `# ticks` count.
    fn finish(mut self) -> Result<DemandTrace, TraceError> {
        let last = std::mem::take(&mut self.carry);
        // `parse_csv` feeds a `&str`, so the carry is whole UTF-8.
        let line = utf8_prefix(&last);
        self.parser
            .line(self.lineno + 1, line, &mut self.trace.flows)
            .map_err(|e| {
                let tick = partial_tick_guess(line, self.trace.flows.len());
                TraceError(format!(
                    "{} — file ends mid-row (truncated append?): tick {tick} is \
                     partially written; `pamdc replay` recovers the ticks before it",
                    e.0
                ))
            })?;
        self.freeze_shape()?;
        self.refresh()?;
        Ok(self.trace)
    }

    /// Freezes the shape the header block declares into the store, then
    /// range-checks the regions of rows fed before `# regions` arrived,
    /// which dodged `line`'s eager check.
    fn freeze_shape(&mut self) -> Result<(), TraceError> {
        let shape = self.parser.shape()?;
        self.trace = DemandTrace {
            flows: std::mem::take(&mut self.trace.flows),
            ..shape
        };
        let regions = self.trace.regions;
        match self
            .trace
            .flows
            .iter()
            .flatten()
            .flatten()
            .find(|f| f.region >= regions)
        {
            Some(f) => Err(TraceError(format!(
                "flow region {} out of range ({regions} regions)",
                f.region
            ))),
            None => Ok(()),
        }
    }

    /// Recomputes `(ready_ticks, is_complete)` from the current state.
    /// Ready are every tick of a finished feed — one that declared
    /// `# ticks` (recorded files always do) or carries a terminated
    /// `# end` marker, with no torn row after it — or, while the feed
    /// is live, every tick the writer has provably moved past: without
    /// an explicit end the last tick seen may still be receiving rows,
    /// so it only counts once a later tick (or a torn row for one)
    /// appears. Errors when a header appended after `open` redeclares
    /// the feed's shape, or data rows overrun a declared `# ticks`
    /// count.
    pub(crate) fn refresh(&mut self) -> Result<(usize, bool), TraceError> {
        // Shape headers are frozen at open: a redefinition appended
        // later would silently fork the already-consumed prefix.
        let frozen = &self.trace;
        if !self.parser.shape().is_ok_and(|s| {
            (s.tick, s.regions, &s.classes, &s.mem_mb_per_inflight)
                == (
                    frozen.tick,
                    frozen.regions,
                    &frozen.classes,
                    &frozen.mem_mb_per_inflight,
                )
        }) {
            return Err(TraceError(
                "shape headers (tick_ms/regions/classes/mem_mb_per_inflight) changed mid-stream"
                    .into(),
            ));
        }
        let services = self.trace.classes.len();
        let stored = self.trace.flows.len();
        // A non-blank carry is a torn row: the writer provably moved
        // past every tick before the one it names (rowless zero-demand
        // ticks included — pad so the view can index them).
        let torn = utf8_prefix(&self.carry).trim();
        if !torn.is_empty() {
            let p = partial_tick_guess(torn, stored);
            self.parser.check_tick(self.lineno + 1, p, stored)?;
            if stored < p {
                self.trace
                    .flows
                    .resize_with(p, || vec![Vec::new(); services]);
            }
            return Ok((p, false));
        }
        if let Some(ticks) = self.parser.ticks {
            if stored > ticks {
                return Err(TraceError(format!(
                    "data rows reach tick {} but the header declares ticks = {ticks}",
                    stored - 1
                )));
            }
            // Rowless padding past the stored ticks is bounded like a
            // row's tick gap, before it is allocated.
            if ticks > stored + MAX_TICK_GAP {
                return Err(TraceError(format!(
                    "'# ticks = {ticks}' declares more than {MAX_TICK_GAP} rowless ticks past \
                     the {stored} read"
                )));
            }
            self.trace
                .flows
                .resize_with(ticks, || vec![Vec::new(); services]);
            return Ok((ticks, true));
        }
        if self.parser.ended {
            return Ok((stored, true));
        }
        Ok((stored.saturating_sub(1), false))
    }

    /// The materialized store: headers plus every fully-written row fed
    /// so far. Rows of a tick still behind the `ready` horizon are
    /// present but not yet vouched for.
    pub(crate) fn trace(&self) -> &DemandTrace {
        &self.trace
    }

    /// Total bytes fed — the file offset the next poll reads from.
    pub(crate) fn fed_bytes(&self) -> u64 {
        self.fed
    }

    /// Byte offset just past the column-header row (see the field doc).
    pub(crate) fn header_end(&self) -> u64 {
        self.header_end
    }
}

/// The valid-UTF-8 prefix of `bytes`. In a carry buffer, a feed
/// boundary can split a multi-byte character; the torn tail cannot
/// affect the tick-field guess, which only reads ASCII digits before
/// the first comma.
fn utf8_prefix(bytes: &[u8]) -> &str {
    match std::str::from_utf8(bytes) {
        Ok(s) => s,
        Err(e) => {
            let valid = bytes.get(..e.valid_up_to()).unwrap_or_default();
            std::str::from_utf8(valid).unwrap_or_default()
        }
    }
}

/// Replays a [`DemandTrace`], optionally transformed. Sampling past the
/// end of the trace wraps around; an empty trace samples no flows.
#[derive(Clone, Debug)]
pub struct TraceSource {
    trace: Arc<DemandTrace>,
    /// Arrival-rate multiplier (1.0 = verbatim).
    rate_scale: f64,
    /// Playback slowdown: simulated time `t` reads trace time
    /// `t / time_stretch` (2.0 plays a 24 h trace over 48 h).
    time_stretch: f64,
    /// `region_map[recorded_region] = replayed_region` (empty =
    /// identity).
    region_map: Vec<usize>,
}

/// `Err` naming `what` unless `v` is at most [`MAX_DEMAND`].
pub(crate) fn check_ceiling(what: &str, v: f64) -> Result<(), String> {
    if v <= MAX_DEMAND {
        Ok(())
    } else {
        Err(format!(
            "{what} must be at most the demand ceiling of {MAX_DEMAND:e}, got {v:e}"
        ))
    }
}

/// A recorded rate of `rps` under `rate_scale`, checked against
/// [`MAX_DEMAND`]: the rate half of the transform rules, applied by
/// [`TraceSource::replay`] to the trace's peak rate and by the importers
/// to every rate they emit.
pub(crate) fn scaled_rate(rps: f64, rate_scale: f64) -> Result<f64, String> {
    let scaled = rps * rate_scale;
    if scaled <= MAX_DEMAND {
        Ok(scaled)
    } else {
        Err(format!(
            "rate_scale {rate_scale:e} lifts a {rps:.6e} rps flow to {scaled:.6e} rps, above \
             the demand ceiling of {MAX_DEMAND:e}"
        ))
    }
}

/// The one check of the replay transforms, shared by
/// [`TraceSource::replay`] and the importers' `ImportOptions::validate`:
/// a negative or non-finite scale, a stretch that is not finite and
/// positive, or a non-empty map that does not send each of the
/// `regions` regions to one of them is an error.
pub fn check_transforms(
    rate_scale: f64,
    time_stretch: f64,
    region_map: &[usize],
    regions: usize,
) -> Result<(), String> {
    if !(rate_scale.is_finite() && rate_scale >= 0.0) {
        return Err(format!(
            "rate_scale must be finite and >= 0, got {rate_scale}"
        ));
    }
    if !(time_stretch.is_finite() && time_stretch > 0.0) {
        return Err(format!(
            "time_stretch must be finite and > 0, got {time_stretch}"
        ));
    }
    if !region_map.is_empty() && region_map.len() != regions {
        return Err(format!(
            "region_map lists {} regions but there are {regions} (need one target per region)",
            region_map.len()
        ));
    }
    if let Some(bad) = region_map.iter().find(|&&r| r >= regions) {
        return Err(format!(
            "region_map target {bad} is out of range ({regions} regions)"
        ));
    }
    Ok(())
}

impl TraceSource {
    /// A verbatim replayer over a trace.
    pub fn new(trace: DemandTrace) -> Self {
        TraceSource {
            trace: Arc::new(trace),
            rate_scale: 1.0,
            time_stretch: 1.0,
            region_map: Vec::new(),
        }
    }

    /// A replayer under the playback transforms: every arrival rate
    /// times `rate_scale`, played `time_stretch`× slower (`> 1`
    /// stretches, `< 1` compresses), recorded region `i` relabelled as
    /// `region_map[i]` (empty = identity), checked by
    /// [`check_transforms`] over the trace's regions, with the peak
    /// scaled rate at most [`MAX_DEMAND`].
    pub fn replay(
        trace: DemandTrace,
        rate_scale: f64,
        time_stretch: f64,
        region_map: Vec<usize>,
    ) -> Result<Self, TraceError> {
        check_transforms(rate_scale, time_stretch, &region_map, trace.regions)
            .map_err(TraceError)?;
        let flows = trace.flows.iter().flatten().flatten();
        scaled_rate(flows.map(|f| f.rps).fold(0.0, f64::max), rate_scale).map_err(TraceError)?;
        Ok(TraceSource {
            trace: Arc::new(trace),
            rate_scale,
            time_stretch,
            region_map,
        })
    }

    /// The underlying trace.
    pub fn trace(&self) -> &DemandTrace {
        &self.trace
    }

    /// Samples one service's replayed flows at simulated time `t` into
    /// `out` (cleared first), transforms applied.
    pub fn sample_into(&self, service: usize, t: SimTime, out: &mut Vec<FlowSample>) {
        out.clear();
        let ticks = self.trace.tick_count();
        if ticks == 0 {
            return;
        }
        // The trace tick `t` reads, wrapping at the end of the trace.
        let tick_ms = self.trace.tick.as_millis() as f64;
        let virt_ms = t.as_millis() as f64 / self.time_stretch;
        let idx = (virt_ms / tick_ms).floor() as usize % ticks;
        let Some(flows) = self.trace.flows.get(idx).and_then(|tick| tick.get(service)) else {
            return;
        };
        out.extend(flows.iter().map(|f| FlowSample {
            region: self.region_map.get(f.region).copied().unwrap_or(f.region),
            rps: f.rps * self.rate_scale,
            ..*f
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::libcn;

    fn short_trace(seed: u64) -> DemandTrace {
        let w = Demand::from(libcn::multi_dc(3, 120.0, seed));
        DemandTrace::record(&w, SimDuration::from_hours(2), SimDuration::from_mins(1))
    }

    #[test]
    fn record_has_expected_shape() {
        let t = short_trace(5);
        assert_eq!(t.tick_count(), 120);
        assert_eq!(t.service_count(), 3);
        assert_eq!(t.regions, 4);
    }

    #[test]
    fn csv_round_trips_bit_identically() {
        let t = short_trace(11);
        let parsed = DemandTrace::parse_csv(&t.to_csv()).expect("parse");
        assert_eq!(t, parsed);
        // And emit is a fixed point.
        assert_eq!(t.to_csv(), parsed.to_csv());
    }

    /// One service's sampled flows at `t`.
    fn sampled(d: &Demand, service: usize, t: SimTime) -> Vec<FlowSample> {
        let mut out = Vec::new();
        d.sample_into(service, t, &mut out);
        out
    }

    #[test]
    fn verbatim_replay_matches_source() {
        let w = Demand::from(libcn::multi_dc(2, 100.0, 3));
        let trace = DemandTrace::record(&w, SimDuration::from_hours(1), SimDuration::from_mins(1));
        let replay = Demand::from(TraceSource::new(trace));
        for m in 0..60 {
            let t = SimTime::from_mins(m);
            for s in 0..2 {
                assert_eq!(sampled(&replay, s, t), sampled(&w, s, t), "minute {m}");
            }
        }
    }

    #[test]
    fn replay_wraps_past_the_end() {
        let replay = Demand::from(TraceSource::new(short_trace(5)));
        let a = sampled(&replay, 0, SimTime::from_mins(10));
        let b = sampled(&replay, 0, SimTime::from_mins(130)); // 120-tick trace
        assert_eq!(a, b);
    }

    /// `short_trace(5)` replayed under the given transforms.
    fn replayed(rate_scale: f64, time_stretch: f64, region_map: Vec<usize>) -> Demand {
        TraceSource::replay(short_trace(5), rate_scale, time_stretch, region_map)
            .expect("valid transforms")
            .into()
    }

    #[test]
    fn rate_scale_scales_rates_only() {
        let replay = replayed(1.0, 1.0, Vec::new());
        let scaled = replayed(2.5, 1.0, Vec::new());
        let t = SimTime::from_mins(33);
        let base = sampled(&replay, 1, t);
        let boosted = sampled(&scaled, 1, t);
        assert_eq!(base.len(), boosted.len());
        for (a, b) in base.iter().zip(&boosted) {
            assert_eq!(b.rps, a.rps * 2.5);
            assert_eq!(a.kb_out_per_req, b.kb_out_per_req);
            assert_eq!(a.region, b.region);
        }
    }

    #[test]
    fn time_stretch_slows_playback() {
        let replay = replayed(1.0, 1.0, Vec::new());
        let slow = replayed(1.0, 2.0, Vec::new());
        // Minute 40 of the stretched replay reads minute 20 of the trace.
        assert_eq!(
            sampled(&slow, 0, SimTime::from_mins(40)),
            sampled(&replay, 0, SimTime::from_mins(20)),
        );
    }

    #[test]
    fn region_map_relabels() {
        let remapped = replayed(1.0, 1.0, vec![3, 2, 1, 0]);
        let orig = replayed(1.0, 1.0, Vec::new());
        let t = SimTime::from_mins(7);
        let (got, want) = (sampled(&remapped, 0, t), sampled(&orig, 0, t));
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.region, 3 - w.region);
            assert_eq!(
                FlowSample {
                    region: w.region,
                    ..*g
                },
                *w
            );
        }
    }

    #[test]
    fn an_empty_trace_samples_no_flows() {
        let empty = DemandTrace {
            tick: SimDuration::from_mins(1),
            regions: 4,
            classes: vec![ServiceClass::Blog; 2],
            mem_mb_per_inflight: vec![None; 2],
            flows: Vec::new(),
        };
        let d = Demand::from(TraceSource::new(empty));
        assert_eq!(d.service_count(), 2);
        let mut out = vec![FlowSample {
            region: 0,
            rps: 1.0,
            kb_in_per_req: 1.0,
            kb_out_per_req: 1.0,
            cpu_ms_per_req: 1.0,
        }];
        for m in [0, 1, 59, 10_000] {
            d.sample_into(1, SimTime::from_mins(m), &mut out);
            assert!(out.is_empty(), "minute {m}");
        }
        // A service past the roster samples nothing either.
        d.sample_into(5, SimTime::ZERO, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn demand_enum_replays_traces() {
        let mut t = short_trace(9);
        t.mem_mb_per_inflight = vec![Some(12.5), None, None];
        let d = Demand::from(TraceSource::new(t));
        assert_eq!(d.service_count(), 3);
        assert_eq!(d.region_count(), 4);
        assert_eq!(d.mem_mb_per_inflight(0), Some(12.5));
        assert_eq!(d.mem_mb_per_inflight(1), None);
        assert!(!sampled(&d, 0, SimTime::from_mins(50)).is_empty());
    }

    #[test]
    fn zero_demand_ticks_survive_the_round_trip() {
        // A trace whose ticks carry no flows (e.g. load scaled to zero)
        // must keep its length through CSV — and replay, not panic.
        let empty = DemandTrace {
            tick: SimDuration::from_mins(1),
            regions: 4,
            classes: vec![ServiceClass::Blog],
            mem_mb_per_inflight: vec![None],
            flows: vec![vec![Vec::new()]; 60],
        };
        let parsed = DemandTrace::parse_csv(&empty.to_csv()).expect("parse");
        assert_eq!(parsed, empty);
        assert_eq!(parsed.tick_count(), 60);
        let replay = TraceSource::new(parsed);
        let replay = Demand::from(replay);
        assert!(sampled(&replay, 0, SimTime::from_mins(30)).is_empty());
        // And a partially-quiet tail keeps its wrap-around period.
        let mut tail_quiet = short_trace(5);
        let n = tail_quiet.tick_count();
        for services in tail_quiet.flows.iter_mut().skip(n - 10) {
            services.iter_mut().for_each(Vec::clear);
        }
        let reparsed = DemandTrace::parse_csv(&tail_quiet.to_csv()).expect("parse");
        assert_eq!(reparsed.tick_count(), n, "quiet tail ticks preserved");
        assert_eq!(reparsed, tail_quiet);
    }

    #[test]
    fn mem_profile_header_round_trips_and_validates() {
        let mut t = short_trace(7);
        t.mem_mb_per_inflight = vec![Some(12.5), None, Some(3.0)];
        let csv = t.to_csv();
        assert!(csv.contains("# mem_mb_per_inflight = 12.5,-,3\n"), "{csv}");
        let parsed = DemandTrace::parse_csv(&csv).expect("parse");
        assert_eq!(parsed, t);
        assert_eq!(csv, parsed.to_csv(), "emission is a fixed point");
        // Traces without the header (everything recorded pre-PR) parse
        // to all-None — and emit no header, byte-identical to before.
        let plain = short_trace(7);
        assert_eq!(plain.mem_mb_per_inflight, vec![None; 3]);
        assert!(!plain.to_csv().contains("mem_mb_per_inflight"));
        // A header whose length disagrees with classes is an error.
        let bad = csv.replace("12.5,-,3", "12.5,-");
        assert!(DemandTrace::parse_csv(&bad).is_err());
        let garbage = csv.replace("12.5,-,3", "12.5,lots,3");
        assert!(DemandTrace::parse_csv(&garbage).is_err());
    }

    #[test]
    fn crlf_trace_files_parse_identically() {
        let t = short_trace(13);
        let lf = t.to_csv();
        let crlf = lf.replace('\n', "\r\n");
        assert_eq!(DemandTrace::parse_csv(&crlf).expect("crlf"), t);
    }

    #[test]
    fn declared_ticks_bound_data_rows() {
        let csv = "# tick_ms = 60000\n# ticks = 1\n# regions = 4\n# classes = blog\n\
                   tick,service,region,rps,kb_in_per_req,kb_out_per_req,cpu_ms_per_req\n\
                   5,0,1,1.0,1.0,1.0,1.0\n";
        assert!(DemandTrace::parse_csv(csv).is_err());
    }

    /// A hand-built three-tick trace CSV, torn mid-row in tick 2 — the
    /// shape a reader sees when it races a writer flushing an append.
    fn torn_csv() -> String {
        "# pamdc-trace v1\n# tick_ms = 60000\n# regions = 4\n# classes = blog\n\
         tick,service,region,rps,kb_in_per_req,kb_out_per_req,cpu_ms_per_req\n\
         0,0,1,10,1,2,3\n1,0,1,11,1,2,3\n2,0,1,12"
            .to_string()
    }

    /// What a reader reports after a refresh: ready ticks, completeness
    /// and the store cut to its ready prefix.
    fn report(tail: &mut TraceTail) -> Result<(usize, bool, DemandTrace), TraceError> {
        let (ready, complete) = tail.refresh()?;
        let mut trace = tail.trace().clone();
        trace.flows.truncate(ready);
        Ok((ready, complete, trace))
    }

    /// What [`TailSource::open`](crate::tail::TailSource::open) reports
    /// for a file holding exactly `bytes`.
    fn one_shot(bytes: &[u8]) -> Result<(usize, bool, DemandTrace), TraceError> {
        TraceTail::open(bytes).and_then(|mut tail| report(&mut tail))
    }

    /// Opens a fresh temp file holding `csv` through the public tail
    /// entry point.
    fn tail_source(csv: &str) -> Result<crate::tail::TailSource, TraceError> {
        static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let dir = std::env::temp_dir().join("pamdc-trace-tests");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let path = dir.join(format!("{}-{n}.csv", std::process::id()));
        std::fs::write(&path, csv).expect("write feed");
        crate::tail::TailSource::open(&path)
    }

    #[test]
    fn torn_final_row_errors_name_the_partial_tick() {
        // Strict parsing of a file caught mid-append must say *which*
        // tick is partial and point at the recovery path — not surface
        // a bare column-count error.
        let err = DemandTrace::parse_csv(&torn_csv()).expect_err("torn row");
        assert!(err.0.contains("tick 2"), "names the partial tick: {err}");
        assert!(err.0.contains("mid-row"), "names the cause: {err}");
        assert!(err.0.contains("pamdc replay"), "names the recovery: {err}");
    }

    #[test]
    fn tail_parse_withholds_the_partial_tick() {
        let mut tail = TraceTail::open(torn_csv().as_bytes()).expect("open");
        assert_eq!(
            tail.refresh().expect("refresh"),
            (2, false),
            "tick 2 caught mid-write"
        );
        assert_eq!(tail.carry, b"2,0,1,12", "the torn row waits as raw bytes");
        assert_eq!(tail.trace().tick_count(), 2, "ticks 0-1 are whole");
        assert_eq!(tail.trace().flows[1][0][0].rps, 11.0);
        // Once the writer finishes the row, the store holds tick 2...
        tail.feed(b",1,2,3\n").expect("heal");
        assert!(tail.carry.is_empty(), "no torn row left");
        assert_eq!(tail.trace().tick_count(), 3);
        // ...but tick 2 may still be growing, so it is not ready yet.
        assert_eq!(tail.refresh().expect("refresh"), (2, false));
        // A terminated `# end` marker finishes the feed.
        tail.feed(b"# end\n").expect("end");
        assert_eq!(tail.refresh().expect("refresh"), (3, true));
    }

    #[test]
    fn tail_parse_distrusts_a_commaless_torn_tick_field() {
        // `...\n12` could be tick 12 — or tick 120 half-written. The
        // reader must fall back to "the highest tick seen may still be
        // growing" instead of trusting the bare number.
        let torn = format!("{},1,2,3\n12", torn_csv());
        let mut tail = TraceTail::open(torn.as_bytes()).expect("open");
        assert_eq!(tail.refresh().expect("refresh"), (2, false));
        assert_eq!(
            tail.trace().tick_count(),
            3,
            "tick 2's rows wait behind ready"
        );
    }

    #[test]
    fn tail_parse_of_a_recorded_file_is_complete() {
        // Recorded traces declare `# ticks`; tailing one sees the whole
        // thing — including trailing zero-demand ticks — as complete.
        let t = short_trace(5);
        let (ready, complete, trace) = one_shot(t.to_csv().as_bytes()).expect("tail read");
        assert!(complete);
        assert_eq!(ready, 120);
        assert_eq!(trace, t);
    }

    #[test]
    fn tail_parse_skips_rowless_ticks_behind_a_torn_row() {
        // The torn row names tick 5: ticks 3-4 emitted no rows (zero
        // demand) but the writer provably moved past them.
        let torn = format!("{},1,2,3\n5,0", torn_csv());
        let (ready, complete, trace) = one_shot(torn.as_bytes()).expect("tail read");
        assert_eq!((ready, complete), (5, false));
        assert_eq!(trace.tick_count(), 5);
        assert!(trace.flows[3][0].is_empty());
    }

    /// A trace with one good row at tick 0, then `row` as its last line.
    fn ending_in(header: &str, row: &str) -> String {
        format!(
            "# tick_ms = 60000\n{header}# regions = 4\n# classes = blog\n\
             tick,service,region,rps,kb_in_per_req,kb_out_per_req,cpu_ms_per_req\n\
             0,0,1,1,1,1,1\n{row}\n"
        )
    }

    /// Both public ways into the reader — the strict `parse_csv` and a
    /// `TailSource` opened on the file — reject `csv`.
    fn rejections(csv: &str) -> [TraceError; 2] {
        [
            DemandTrace::parse_csv(csv).map(|_| ()),
            tail_source(csv).map(|_| ()),
        ]
        .map(|r| r.expect_err("must be rejected"))
    }

    /// Both public entry points reject `csv` with an error on its last
    /// line that mentions `what`.
    fn assert_rejected(csv: &str, what: &str) {
        let line = format!("line {}: ", csv.lines().count());
        for e in rejections(csv) {
            assert!(e.0.contains(&line) && e.0.contains(what), "{e}");
        }
    }

    /// `value` in each demand column of the last row.
    fn each_demand_column(value: &str) -> Vec<String> {
        (3..7)
            .map(|column| {
                let mut cells = ["1", "0", "1", "1", "1", "1", "1"];
                cells[column] = value;
                ending_in("", &cells.join(","))
            })
            .collect()
    }

    #[test]
    fn nan_demand_is_rejected() {
        for csv in each_demand_column("NaN") {
            assert_rejected(&csv, "must be finite and non-negative, got \"NaN\"");
        }
    }

    #[test]
    fn infinite_demand_is_rejected() {
        for csv in each_demand_column("inf") {
            assert_rejected(&csv, "must be finite and non-negative, got \"inf\"");
        }
    }

    #[test]
    fn negative_demand_is_rejected() {
        for csv in each_demand_column("-1e9") {
            assert_rejected(&csv, "must be finite and non-negative, got \"-1e9\"");
        }
    }

    #[test]
    fn demand_above_the_ceiling_is_rejected() {
        for csv in each_demand_column("1.5e9") {
            assert_rejected(&csv, "must be at most the demand ceiling of 1e9, got 1.5e9");
        }
        for csv in each_demand_column("1e9") {
            assert!(DemandTrace::parse_csv(&csv).is_ok(), "{csv}");
            assert!(tail_source(&csv).is_ok(), "{csv}");
        }
    }

    #[test]
    fn a_tick_past_the_declared_count_is_rejected_before_growing() {
        let csv = ending_in("# ticks = 2\n", "99999999999,0,1,1,1,1,1");
        assert_rejected(&csv, "tick 99999999999 is past the declared ticks = 2");
        assert_rejected(&ending_in("# ticks = 2\n", "2,0,1,1,1,1,1"), "past");
        assert!(DemandTrace::parse_csv(&ending_in("# ticks = 2\n", "1,0,1,1,1,1,1")).is_ok());
        // A huge header does not lift the gap bound on rows...
        let huge = "# ticks = 99999999999\n";
        assert_rejected(&ending_in(huge, "50000000000,0,1,1,1,1,1"), "jumps");
        // ...nor may it pad that far past the rows itself.
        let what = "'# ticks = 99999999999' declares more than 10080 rowless ticks";
        for err in rejections(&ending_in(huge, "1,0,1,1,1,1,1")) {
            assert!(err.0.contains(what), "{err}");
        }
    }

    #[test]
    fn a_huge_tick_gap_without_a_header_is_rejected_before_growing() {
        let csv = ending_in("", "99999999999,0,1,1,1,1,1");
        assert_rejected(&csv, "jumps more than 10080 ticks");
        // The gap is measured from the ticks stored so far (1 here).
        let far = format!("{},0,1,1,1,1,1", 2 + MAX_TICK_GAP);
        assert_rejected(&ending_in("", &far), "jumps");
        let edge = format!("{},0,1,1,1,1,1", 1 + MAX_TICK_GAP);
        let parsed = DemandTrace::parse_csv(&ending_in("", &edge)).expect("at the limit");
        assert_eq!(parsed.tick_count(), 2 + MAX_TICK_GAP);
        // A torn row naming the tick is held to the same bound, whether
        // it is on disk at open or arrives with a later feed.
        let torn = ending_in("", "").trim_end().to_string() + "\n99999999999,0";
        let err = tail_source(&torn).expect_err("torn tail");
        assert!(err.0.contains("line 6: tick 99999999999 jumps"), "{err}");
        let mut tail = TraceTail::open(ending_in("", "").trim_end().as_bytes()).expect("open");
        tail.feed(b"\n99999999999,0").expect("feed");
        let err = tail.refresh().expect_err("torn feed");
        assert!(err.0.contains("line 6: tick 99999999999 jumps"), "{err}");
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!(DemandTrace::parse_csv("").is_err());
        assert!(DemandTrace::parse_csv("# tick_ms = 60000\n# regions = 4\n").is_err());
        let bad_cols = "# tick_ms = 60000\n# regions = 4\n# classes = blog\n\
                        tick,service,region,rps,kb_in_per_req,kb_out_per_req,cpu_ms_per_req\n0,0,1\n";
        assert!(DemandTrace::parse_csv(bad_cols).is_err());
        let bad_region = "# tick_ms = 60000\n# regions = 2\n# classes = blog\n\
                          tick,service,region,rps,kb_in_per_req,kb_out_per_req,cpu_ms_per_req\n\
                          0,0,5,1.0,1.0,1.0,1.0\n";
        assert!(DemandTrace::parse_csv(bad_region).is_err());
    }

    /// A TailSource's life over `bytes` growing through `cuts`: open
    /// retried until the header block reads, then one feed per cut.
    /// Each cut reports what a one-shot read of the same prefix
    /// reports; the first error after open ends the feed.
    fn assert_chunked_reads_match_one_shot(bytes: &[u8], cuts: &[usize]) {
        let mut live: Option<TraceTail> = None;
        for &cut in cuts {
            let was_live = live.is_some();
            let chunked = match live.take() {
                None => TraceTail::open(&bytes[..cut]).and_then(|mut tail| {
                    let r = report(&mut tail)?;
                    live = Some(tail);
                    Ok(r)
                }),
                Some(mut tail) => {
                    let from = tail.fed_bytes() as usize;
                    let r = tail
                        .feed(&bytes[from..cut])
                        .and_then(|()| report(&mut tail));
                    live = Some(tail);
                    r
                }
            };
            assert_eq!(chunked, one_shot(&bytes[..cut]), "at byte {cut}");
            if was_live && chunked.is_err() {
                return;
            }
        }
    }

    /// Feeding `text` in the chunks `cuts` delimit, then finishing,
    /// equals the strict one-shot [`DemandTrace::parse_csv`].
    fn assert_chunked_finish_matches_parse_csv(text: &str, cuts: &[usize]) {
        let mut tail = TraceTail::new();
        let mut from = 0;
        let chunked = cuts
            .iter()
            .try_for_each(|&cut| {
                let r = tail.feed(&text.as_bytes()[from..cut]);
                from = cut;
                r
            })
            .and_then(|()| tail.finish());
        assert_eq!(chunked, DemandTrace::parse_csv(text));
    }

    /// Bytes a fuzz edit writes: mostly the ones the grammar turns on,
    /// plus a stray UTF-8 lead byte and an invalid one.
    const EDIT_BYTES: &[u8] = b"0123456789,.-#\n\r e=\xc3\xff";

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The one reader over a recorded trace — kept as recorded,
        /// stripped of `# ticks` like a live feed, or closed with
        /// `# end`, then corrupted by up to three random byte edits and
        /// cut at random points — reports at every cut what a one-shot
        /// read of the same bytes reports (same `Ok`/`Err` and message,
        /// ready ticks, completeness, ready prefix), finishes to what
        /// `parse_csv` returns, and never panics. The shim does not
        /// shrink, so a failure prints the case's inputs and bytes.
        #[test]
        fn chunked_feeds_match_one_shot_reads(
            seed in 0u64..1_000,
            layout in 0u8..3,
            edits in proptest::collection::vec((0.0f64..1.0, 0u8..3, 0usize..EDIT_BYTES.len()), 0..4),
            cut_points in proptest::collection::vec(0.0f64..1.0, 1..8),
        ) {
            let w = Demand::from(libcn::multi_dc(2, 90.0, seed));
            let recorded =
                DemandTrace::record(&w, SimDuration::from_mins(8), SimDuration::from_mins(1))
                    .to_csv();
            let mut bytes: Vec<u8> = match layout {
                0 => recorded,
                _ => recorded
                    .lines()
                    .filter(|l| !l.starts_with("# ticks"))
                    .map(|l| format!("{l}\n"))
                    .chain((layout == 2).then(|| "# end\n".to_string()))
                    .collect(),
            }
            .into_bytes();
            for &(at, op, byte) in &edits {
                let at = (at * bytes.len() as f64) as usize;
                match op {
                    0 if at < bytes.len() => bytes[at] = EDIT_BYTES[byte],
                    1 => bytes.insert(at, EDIT_BYTES[byte]),
                    _ if at < bytes.len() => {
                        bytes.remove(at);
                    }
                    _ => {}
                }
            }
            let mut cuts: Vec<usize> = cut_points
                .iter()
                .map(|&c| (c * bytes.len() as f64) as usize)
                .chain([bytes.len()])
                .collect();
            cuts.sort_unstable();
            let case = std::panic::catch_unwind(|| {
                assert_chunked_reads_match_one_shot(&bytes, &cuts);
                if let Ok(text) = std::str::from_utf8(&bytes) {
                    assert_chunked_finish_matches_parse_csv(text, &cuts);
                }
            });
            if case.is_err() {
                panic!(
                    "seed {seed}, layout {layout}, edits {edits:?}, cuts {cuts:?}, bytes:\n{}",
                    String::from_utf8_lossy(&bytes)
                );
            }
        }
    }
}
