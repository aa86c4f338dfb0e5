//! Demand traces: record any run's demand to CSV, replay it later.
//!
//! A [`DemandTrace`] is the materialized per-tick output of a
//! [`DemandSource`]: every `(tick, service,
//! region)` flow, plus the header metadata needed to rebuild performance
//! profiles (service classes) and validate transforms (region count).
//! The CSV form is deliberately dumb — one row per flow, floats printed
//! in shortest round-trip form — so `parse(emit(trace))` is
//! **bit-identical** and a replayed run reproduces the recorded run's
//! scheduler decisions exactly.
//!
//! A [`TraceSource`] replays a trace, optionally transformed:
//!
//! * **rate-scale** — multiply every arrival rate by `k`;
//! * **time-stretch** — play the trace `f`× slower (a 24 h trace drives
//!   a 48 h run at `f = 2`);
//! * **region-remap** — relabel client regions (move a trace recorded
//!   against Barcelona clients to Boston).
//!
//! Queries past the end of the trace wrap around, so one recorded day
//! can drive arbitrarily long scenarios.

use crate::generator::FlowSample;
use crate::import::{for_each_line, ImportError};
use crate::service::ServiceClass;
use crate::source::DemandSource;
use pamdc_simcore::time::{SimDuration, SimTime};
use std::fmt::Write as _;
use std::sync::Arc;

/// Furthest a data row's tick, or a declared `# ticks` count, may reach
/// past the ticks stored so far: a week of one-minute ticks. Zero-demand
/// ticks carry no rows, so gaps are legal, but every skipped tick costs
/// one empty row per service — a corrupt tick index or header must be an
/// error, not a request for terabytes.
const MAX_TICK_GAP: usize = 7 * 24 * 60;

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
    /// Records `horizon` of demand from any source at cadence `tick`.
    pub fn record<S: DemandSource>(source: &S, horizon: SimDuration, tick: SimDuration) -> Self {
        assert!(tick > SimDuration::ZERO, "tick must be positive");
        let services = source.service_count();
        let ticks = horizon.ticks(tick);
        let mut flows = Vec::with_capacity(ticks as usize);
        for tick_idx in 0..ticks {
            let now = SimTime::ZERO + tick * tick_idx;
            flows.push((0..services).map(|s| source.sample(s, now)).collect());
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
    /// Strict: the whole file must be well-formed. A final row that
    /// merely lacks its newline still parses (legacy tolerance for
    /// editors that strip the trailing `\n`), but a row torn mid-write
    /// errors with the tick it belongs to — use
    /// [`DemandTrace::parse_csv_tail`] to recover the complete prefix
    /// of a file caught mid-append.
    pub fn parse_csv(text: &str) -> Result<Self, TraceError> {
        let (mut parser, mut flows, partial) = CsvParser::scan(text)?;
        if let Some((lineno, line)) = partial {
            parser.line(lineno, &line, &mut flows).map_err(|e| {
                let tick = partial_tick_guess(&line, flows.len());
                TraceError(format!(
                    "{} — file ends mid-row (truncated append?): tick {tick} is \
                     partially written; parse_csv_tail() recovers the complete prefix",
                    e.0
                ))
            })?;
        }
        Ok(parser.finalize(flows, false, None)?.trace)
    }

    /// Tail-tolerant parse for a file that may still be growing.
    ///
    /// Every `\n`-terminated line must be well-formed, but an
    /// unterminated final line — the signature of catching a live
    /// writer mid-append — is withheld instead of failing: its tick
    /// becomes [`TraceParse::partial_tick`] and the returned trace is
    /// truncated to the fully-written ticks before it. A terminated
    /// `# end` line (or a declared `# ticks` count, for recorded files)
    /// marks the feed finished.
    pub fn parse_csv_tail(text: &str) -> Result<TraceParse, TraceError> {
        let (parser, flows, partial) = CsvParser::scan(text)?;
        let mut partial_tick = None;
        if let Some((lineno, line)) = partial {
            let tick = partial_tick_guess(&line, flows.len());
            parser.check_tick(lineno, tick, flows.len())?;
            // A torn row before any data means nothing to withhold.
            if parser.saw_header_row || !flows.is_empty() {
                partial_tick = Some(tick as u64);
            }
        }
        parser.finalize(flows, true, partial_tick)
    }
}

/// Outcome of a tail-tolerant parse ([`DemandTrace::parse_csv_tail`]):
/// the complete-tick prefix of a file that may still be growing.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceParse {
    /// The parsed trace, holding only fully-written ticks.
    pub trace: DemandTrace,
    /// The tick the torn (unterminated) final row belongs to, when the
    /// file was caught mid-append. That tick's rows are withheld from
    /// `trace`; a later re-read picks them up once the writer flushes.
    pub partial_tick: Option<u64>,
    /// Whether the feed is finished: it declared `# ticks` (recorded
    /// files always do) or carries a terminated `# end` marker, and no
    /// torn row follows.
    pub is_complete: bool,
}

impl TraceParse {
    /// Ticks safe to consume now: every tick of a finished feed, or —
    /// while the feed is live — every tick the writer has provably
    /// moved past. Without an explicit end the last tick seen may
    /// still be receiving rows, so it only counts once a later tick
    /// (or a torn row for one) appears.
    pub fn complete_ticks(&self) -> usize {
        if self.is_complete || self.partial_tick.is_some() {
            self.trace.flows.len()
        } else {
            self.trace.flows.len().saturating_sub(1)
        }
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

/// The `flows[tick_idx][service]` store a [`CsvParser`] fills. Kept
/// outside the parser so the incremental tail reader ([`TraceTail`])
/// can park it inside the [`DemandTrace`] it hands out by reference
/// while the parser keeps cracking appended lines into it.
type Flows = Vec<Vec<Vec<FlowSample>>>;

/// Line-by-line trace-CSV parser, shared by the strict and
/// tail-tolerant entry points. Lines stream through the same
/// [`for_each_line`] layer as the dataset importers, which reports
/// whether the final line was `\n`-terminated — the signal the
/// tail-tolerant path keys off.
#[derive(Clone, Debug, Default)]
struct CsvParser {
    tick_ms: Option<u64>,
    ticks: Option<usize>,
    regions: Option<usize>,
    classes: Vec<ServiceClass>,
    mem_mb_per_inflight: Vec<Option<f64>>,
    saw_header_row: bool,
    ended: bool,
}

/// A withheld unterminated final line: 1-based line number + content.
type TornLine = (usize, String);

impl CsvParser {
    /// Runs every *terminated* line of `text` through the parser and
    /// returns it, the flows it filled, and the withheld unterminated
    /// final line (1-based line number and content), if any. The
    /// one-line lookahead is what lets both entry points decide how to
    /// treat a torn final row.
    fn scan(text: &str) -> Result<(CsvParser, Flows, Option<TornLine>), TraceError> {
        let mut parser = CsvParser::default();
        let mut flows = Flows::new();
        let mut pending: Option<usize> = None;
        let mut pending_buf = String::new();
        let scan = for_each_line(text.as_bytes(), |lineno, line| {
            if let Some(n) = pending.take() {
                parser
                    .line(n, &pending_buf, &mut flows)
                    .map_err(|e| ImportError(e.0))?;
            }
            pending_buf.clear();
            pending_buf.push_str(line);
            pending = Some(lineno);
            Ok(())
        })
        .map_err(|e| TraceError(e.0))?;
        let mut partial = None;
        if let Some(n) = pending {
            if scan.last_line_terminated || pending_buf.trim().is_empty() {
                parser.line(n, &pending_buf, &mut flows)?;
            } else {
                partial = Some((n, pending_buf));
            }
        }
        Ok((parser, flows, partial))
    }

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
        let cols: Vec<&str> = line.split(',').collect();
        let [c_tick, c_service, c_region, c_rps, c_kb_in, c_kb_out, c_cpu] = cols.as_slice() else {
            return Err(err(format!("expected 7 columns, got {}", cols.len())));
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
        // Demand must be a finite non-negative quantity: NaN or a negative
        // rate would poison the engine's accounting downstream.
        let num = |column: &str, text: &str| -> Result<f64, TraceError> {
            let v: f64 = text
                .parse()
                .map_err(|_| err(format!("bad number {text:?}")))?;
            if !(0.0..f64::INFINITY).contains(&v) {
                return Err(err(format!(
                    "{column} must be finite and non-negative, got {text:?}"
                )));
            }
            Ok(v)
        };
        if service >= self.classes.len() {
            return Err(err(format!(
                "service {service} out of range (classes header lists {})",
                self.classes.len()
            )));
        }
        // Validate eagerly when the regions header already arrived (it
        // always has on the incremental tail path, which never sees
        // `finalize`'s deferred whole-store sweep).
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

    /// Rejects a declared `# ticks` count whose rowless padding past the
    /// `stored` ticks exceeds [`MAX_TICK_GAP`], before it is allocated.
    fn check_padding(ticks: usize, stored: usize) -> Result<(), TraceError> {
        if ticks > stored + MAX_TICK_GAP {
            return Err(TraceError(format!(
                "'# ticks = {ticks}' declares more than {MAX_TICK_GAP} rowless ticks past \
                 the {stored} read"
            )));
        }
        Ok(())
    }

    /// Validates headers and assembles the trace. `tail` selects the
    /// growing-file semantics: the partial tick's rows are dropped
    /// (they will be re-read whole later) and a declared `# ticks`
    /// count only pads — to cover trailing zero-demand ticks — when no
    /// torn row contradicts it.
    fn finalize(
        self,
        mut flows: Flows,
        tail: bool,
        partial_tick: Option<u64>,
    ) -> Result<TraceParse, TraceError> {
        if let Some(t) = partial_tick {
            // Ticks before the torn row are fully written — including
            // zero-demand ones the writer skipped rows for.
            let services = self.classes.len();
            flows.resize_with(t as usize, || vec![Vec::new(); services]);
        }
        if !self.saw_header_row {
            return Err(TraceError("missing column header row".into()));
        }
        let tick_ms = self
            .tick_ms
            .ok_or_else(|| TraceError("missing '# tick_ms = ...'".into()))?;
        let regions = self
            .regions
            .ok_or_else(|| TraceError("missing '# regions = ...'".into()))?;
        if self.classes.is_empty() {
            return Err(TraceError("missing '# classes = ...'".into()));
        }
        let mut mem_mb_per_inflight = self.mem_mb_per_inflight;
        if mem_mb_per_inflight.is_empty() {
            mem_mb_per_inflight = vec![None; self.classes.len()];
        } else if mem_mb_per_inflight.len() != self.classes.len() {
            return Err(TraceError(format!(
                "mem_mb_per_inflight header lists {} services but classes lists {}",
                mem_mb_per_inflight.len(),
                self.classes.len()
            )));
        }
        // Honor the declared tick count so zero-demand ticks (no data
        // rows) survive the round-trip; traces written before the
        // header existed fall back to the max tick index seen.
        let mut is_complete = false;
        if let Some(ticks) = self.ticks {
            if flows.len() > ticks {
                return Err(TraceError(format!(
                    "data rows reach tick {} but the header declares ticks = {ticks}",
                    flows.len() - 1
                )));
            }
            if !tail || partial_tick.is_none() {
                Self::check_padding(ticks, flows.len())?;
                let services = self.classes.len();
                flows.resize_with(ticks, || vec![Vec::new(); services]);
                is_complete = true;
            }
        }
        if self.ended && partial_tick.is_none() {
            is_complete = true;
        }
        // Deferred region sweep: rows parsed before the `# regions`
        // header appeared were not range-checked in `line`.
        for services in &flows {
            for service_flows in services {
                for f in service_flows {
                    if f.region >= regions {
                        return Err(TraceError(format!(
                            "flow region {} out of range ({} regions)",
                            f.region, regions
                        )));
                    }
                }
            }
        }
        Ok(TraceParse {
            trace: DemandTrace {
                tick: SimDuration::from_millis(tick_ms),
                regions,
                classes: self.classes,
                mem_mb_per_inflight,
                flows,
            },
            partial_tick,
            is_complete,
        })
    }

    /// The memory-profile header in its post-validation form (empty =
    /// every service unmeasured), or `None` when its length disagrees
    /// with the classes header.
    fn normalized_mem(&self) -> Option<Vec<Option<f64>>> {
        if self.mem_mb_per_inflight.is_empty() {
            Some(vec![None; self.classes.len()])
        } else if self.mem_mb_per_inflight.len() == self.classes.len() {
            Some(self.mem_mb_per_inflight.clone())
        } else {
            None
        }
    }
}

/// Incremental, tail-tolerant trace reader: the engine behind
/// [`TailSource`](crate::tail::TailSource).
///
/// Where [`DemandTrace::parse_csv_tail`] re-parses a whole file on
/// every look, a `TraceTail` is fed only the bytes appended since the
/// last feed. It keeps the parser state (headers, line number, a carry
/// buffer holding the unterminated final line) across feeds and parks
/// the growing flow store inside the [`DemandTrace`] it exposes by
/// reference — so each poll of a multi-gigabyte feed costs only the
/// delta.
///
/// A torn final row never enters the store at all: it waits in the
/// carry buffer as raw bytes until a later feed terminates it. The
/// rows of the tick it names that *are* already stored stay there,
/// hidden behind the `ready` count [`TraceTail::refresh`] computes —
/// the same visible view the whole-file parser produced by truncating
/// and re-reading.
#[derive(Clone, Debug)]
pub(crate) struct TraceTail {
    parser: CsvParser,
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
    /// Parses the feed's current contents and validates that the full
    /// header block has arrived (same requirements as
    /// [`DemandTrace::parse_csv_tail`] + `finalize`); callers retry
    /// while the writer has not flushed it yet.
    pub(crate) fn open(bytes: &[u8]) -> Result<TraceTail, TraceError> {
        let mut parser = CsvParser::default();
        let mut flows = Flows::new();
        let (mut carry, mut lineno, mut fed, mut header_end) = (Vec::new(), 0, 0, 0);
        ingest_lines(
            &mut parser,
            &mut flows,
            &mut carry,
            &mut lineno,
            &mut fed,
            &mut header_end,
            bytes,
        )?;
        if !parser.saw_header_row {
            return Err(TraceError("missing column header row".into()));
        }
        let tick_ms = parser
            .tick_ms
            .ok_or_else(|| TraceError("missing '# tick_ms = ...'".into()))?;
        let regions = parser
            .regions
            .ok_or_else(|| TraceError("missing '# regions = ...'".into()))?;
        if parser.classes.is_empty() {
            return Err(TraceError("missing '# classes = ...'".into()));
        }
        let mem_mb_per_inflight = parser.normalized_mem().ok_or_else(|| {
            TraceError(format!(
                "mem_mb_per_inflight header lists {} services but classes lists {}",
                parser.mem_mb_per_inflight.len(),
                parser.classes.len()
            ))
        })?;
        // Rows fed before the regions header appeared dodged `line`'s
        // eager range check; sweep them once here.
        for services in &flows {
            for service_flows in services {
                for f in service_flows {
                    if f.region >= regions {
                        return Err(TraceError(format!(
                            "flow region {} out of range ({} regions)",
                            f.region, regions
                        )));
                    }
                }
            }
        }
        Ok(TraceTail {
            trace: DemandTrace {
                tick: SimDuration::from_millis(tick_ms),
                regions,
                classes: parser.classes.clone(),
                mem_mb_per_inflight,
                flows,
            },
            parser,
            carry,
            lineno,
            fed,
            header_end,
        })
    }

    /// Parses the bytes appended since the last feed straight into the
    /// store. Call [`TraceTail::refresh`] afterwards to recompute the
    /// visible view.
    pub(crate) fn feed(&mut self, bytes: &[u8]) -> Result<(), TraceError> {
        ingest_lines(
            &mut self.parser,
            &mut self.trace.flows,
            &mut self.carry,
            &mut self.lineno,
            &mut self.fed,
            &mut self.header_end,
            bytes,
        )
    }

    /// Recomputes `(ready_ticks, is_complete)` from the current state:
    /// the exact view [`DemandTrace::parse_csv_tail`] +
    /// [`TraceParse::complete_ticks`] would report for the same bytes.
    /// Errors when a header appended after `open` redeclares the feed's
    /// shape, or data rows overrun a declared `# ticks` count.
    pub(crate) fn refresh(&mut self) -> Result<(usize, bool), TraceError> {
        // Shape headers are frozen at open: a redefinition appended
        // later would silently fork the already-consumed prefix.
        if self.parser.tick_ms != Some(self.trace.tick.as_millis())
            || self.parser.regions != Some(self.trace.regions)
            || self.parser.classes != self.trace.classes
            || self.parser.normalized_mem().as_ref() != Some(&self.trace.mem_mb_per_inflight)
        {
            return Err(TraceError(
                "shape headers (tick_ms/regions/classes/mem_mb_per_inflight) changed mid-stream"
                    .into(),
            ));
        }
        let services = self.trace.classes.len();
        // A non-blank carry is a torn row: the writer provably moved
        // past every tick before the one it names (rowless zero-demand
        // ticks included — pad so the view can index them).
        let torn = carry_str(&self.carry);
        let partial = (!torn.trim().is_empty())
            .then(|| partial_tick_guess(torn.trim(), self.trace.flows.len()));
        if let Some(p) = partial {
            self.parser
                .check_tick(self.lineno + 1, p, self.trace.flows.len())?;
            if self.trace.flows.len() < p {
                self.trace
                    .flows
                    .resize_with(p, || vec![Vec::new(); services]);
            }
            return Ok((p, false));
        }
        if let Some(ticks) = self.parser.ticks {
            if self.trace.flows.len() > ticks {
                return Err(TraceError(format!(
                    "data rows reach tick {} but the header declares ticks = {ticks}",
                    self.trace.flows.len() - 1
                )));
            }
            CsvParser::check_padding(ticks, self.trace.flows.len())?;
            self.trace
                .flows
                .resize_with(ticks, || vec![Vec::new(); services]);
            return Ok((ticks, true));
        }
        if self.parser.ended {
            return Ok((self.trace.flows.len(), true));
        }
        // Without an end marker the newest tick may still be growing.
        Ok((self.trace.flows.len().saturating_sub(1), false))
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

/// The valid-UTF-8 prefix of a carry buffer. A feed boundary can split
/// a multi-byte character; the torn tail cannot affect the tick-field
/// guess, which only reads ASCII digits before the first comma.
fn carry_str(carry: &[u8]) -> &str {
    match std::str::from_utf8(carry) {
        Ok(s) => s,
        Err(e) => {
            let valid = carry.get(..e.valid_up_to()).unwrap_or_default();
            std::str::from_utf8(valid).unwrap_or_default()
        }
    }
}

/// Splits `carry ++ bytes` into `\n`-terminated lines, runs each
/// through the parser, and leaves the unterminated remainder in
/// `carry`. `fed` advances by `bytes.len()` (the carry was counted
/// when first fed); `header_end` is stamped when the column-header row
/// goes past.
fn ingest_lines(
    parser: &mut CsvParser,
    flows: &mut Flows,
    carry: &mut Vec<u8>,
    lineno: &mut usize,
    fed: &mut u64,
    header_end: &mut u64,
    bytes: &[u8],
) -> Result<(), TraceError> {
    *fed += bytes.len() as u64;
    let joined: Vec<u8>;
    let mut rest: &[u8] = if carry.is_empty() {
        bytes
    } else {
        joined = [carry.as_slice(), bytes].concat();
        &joined
    };
    while let Some(pos) = rest.iter().position(|&b| b == b'\n') {
        let mut line_bytes = rest.get(..pos).unwrap_or_default();
        rest = rest.get(pos + 1..).unwrap_or_default();
        if let Some(stripped) = line_bytes.strip_suffix(b"\r") {
            line_bytes = stripped; // CRLF feeds parse like LF ones
        }
        *lineno += 1;
        let line = std::str::from_utf8(line_bytes)
            .map_err(|_| TraceError(format!("line {lineno}: invalid UTF-8")))?;
        let had_header = parser.saw_header_row;
        parser.line(*lineno, line, flows)?;
        if parser.saw_header_row && !had_header {
            *header_end = *fed - rest.len() as u64;
        }
    }
    *carry = rest.to_vec();
    Ok(())
}

/// Replays a [`DemandTrace`], optionally transformed.
#[derive(Clone, Debug)]
pub struct TraceSource {
    trace: Arc<DemandTrace>,
    /// Arrival-rate multiplier (1.0 = verbatim).
    rate_scale: f64,
    /// Playback slowdown: simulated time `t` reads trace time
    /// `t / time_stretch` (2.0 plays a 24 h trace over 48 h).
    time_stretch: f64,
    /// `region_map[recorded_region] = replayed_region`.
    region_map: Option<Vec<usize>>,
}

impl TraceSource {
    /// A verbatim replayer over a trace.
    pub fn new(trace: DemandTrace) -> Self {
        assert!(trace.tick_count() > 0, "cannot replay an empty trace");
        TraceSource {
            trace: Arc::new(trace),
            rate_scale: 1.0,
            time_stretch: 1.0,
            region_map: None,
        }
    }

    /// Multiplies every arrival rate by `k`.
    pub fn with_rate_scale(mut self, k: f64) -> Self {
        assert!(
            k.is_finite() && k >= 0.0,
            "rate scale must be finite and >= 0"
        );
        self.rate_scale = k;
        self
    }

    /// Plays the trace `f`× slower (`f > 1` stretches, `f < 1`
    /// compresses).
    pub fn with_time_stretch(mut self, f: f64) -> Self {
        assert!(
            f.is_finite() && f > 0.0,
            "time stretch must be finite and > 0"
        );
        self.time_stretch = f;
        self
    }

    /// Relabels regions: recorded region `i` replays as `map[i]`.
    pub fn with_region_map(mut self, map: Vec<usize>) -> Self {
        assert_eq!(
            map.len(),
            self.trace.regions,
            "region map must cover every recorded region"
        );
        for &to in &map {
            assert!(
                to < self.trace.regions,
                "region map target {to} out of range"
            );
        }
        self.region_map = Some(map);
        self
    }

    /// The underlying trace.
    pub fn trace(&self) -> &DemandTrace {
        &self.trace
    }

    /// The trace tick index simulated time `t` reads (wraps at the end
    /// of the trace).
    fn tick_index(&self, t: SimTime) -> usize {
        let tick_ms = self.trace.tick.as_millis() as f64;
        let virt_ms = t.as_millis() as f64 / self.time_stretch;
        let idx = (virt_ms / tick_ms).floor() as usize;
        idx % self.trace.tick_count()
    }

    fn mapped_region(&self, region: usize) -> usize {
        match &self.region_map {
            // pamdc-lint: allow(no-panic-parser) -- with_region_map asserts the map covers every recorded region
            Some(map) => map[region],
            None => region,
        }
    }
}

impl DemandSource for TraceSource {
    fn service_count(&self) -> usize {
        self.trace.service_count()
    }

    fn region_count(&self) -> usize {
        self.trace.regions
    }

    fn service_class(&self, service: usize) -> ServiceClass {
        self.trace
            .classes
            .get(service)
            .copied()
            .unwrap_or(ServiceClass::Blog)
    }

    fn mem_mb_per_inflight(&self, service: usize) -> Option<f64> {
        self.trace
            .mem_mb_per_inflight
            .get(service)
            .copied()
            .flatten()
    }

    fn sample(&self, service: usize, t: SimTime) -> Vec<FlowSample> {
        let idx = self.tick_index(t);
        // pamdc-lint: allow(no-panic-parser) -- tick_index wraps modulo tick_count; service bounded by the DemandSource contract
        self.trace.flows[idx][service]
            .iter()
            .map(|f| FlowSample {
                region: self.mapped_region(f.region),
                rps: f.rps * self.rate_scale,
                ..*f
            })
            .collect()
    }

    fn expected_rps(&self, service: usize, region: usize, t: SimTime) -> f64 {
        // A trace is its own expectation: the recorded (already noisy)
        // rate is the best estimate available at replay time.
        let idx = self.tick_index(t);
        // pamdc-lint: allow(no-panic-parser) -- tick_index wraps modulo tick_count; service bounded by the DemandSource contract
        self.trace.flows[idx][service]
            .iter()
            .filter(|f| self.mapped_region(f.region) == region)
            .map(|f| f.rps * self.rate_scale)
            .sum()
    }

    fn horizon(&self) -> Option<SimTime> {
        // The end of the recorded data under the playback transform;
        // sampling past it wraps back to the start.
        let ms =
            self.trace.tick.as_millis() as f64 * self.trace.tick_count() as f64 * self.time_stretch;
        Some(SimTime::ZERO + SimDuration::from_millis(ms.round() as u64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::libcn;
    use crate::source::Demand;

    fn short_trace(seed: u64) -> DemandTrace {
        let w = libcn::multi_dc(3, 120.0, seed);
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

    #[test]
    fn verbatim_replay_matches_source() {
        let w = libcn::multi_dc(2, 100.0, 3);
        let trace = DemandTrace::record(&w, SimDuration::from_hours(1), SimDuration::from_mins(1));
        let replay = TraceSource::new(trace);
        for m in 0..60 {
            let t = SimTime::from_mins(m);
            for s in 0..2 {
                assert_eq!(
                    DemandSource::sample(&replay, s, t),
                    w.sample(s, t),
                    "minute {m}"
                );
            }
        }
    }

    #[test]
    fn replay_wraps_past_the_end() {
        let replay = TraceSource::new(short_trace(5));
        let a = DemandSource::sample(&replay, 0, SimTime::from_mins(10));
        let b = DemandSource::sample(&replay, 0, SimTime::from_mins(130)); // 120-tick trace
        assert_eq!(a, b);
    }

    #[test]
    fn rate_scale_scales_rates_only() {
        let replay = TraceSource::new(short_trace(5));
        let scaled = replay.clone().with_rate_scale(2.5);
        let t = SimTime::from_mins(33);
        let base = DemandSource::sample(&replay, 1, t);
        let boosted = DemandSource::sample(&scaled, 1, t);
        assert_eq!(base.len(), boosted.len());
        for (a, b) in base.iter().zip(&boosted) {
            assert_eq!(b.rps, a.rps * 2.5);
            assert_eq!(a.kb_out_per_req, b.kb_out_per_req);
            assert_eq!(a.region, b.region);
        }
    }

    #[test]
    fn time_stretch_slows_playback() {
        let replay = TraceSource::new(short_trace(5));
        let slow = replay.clone().with_time_stretch(2.0);
        // Minute 40 of the stretched replay reads minute 20 of the trace.
        assert_eq!(
            DemandSource::sample(&slow, 0, SimTime::from_mins(40)),
            DemandSource::sample(&replay, 0, SimTime::from_mins(20)),
        );
    }

    #[test]
    fn region_map_relabels() {
        let replay = TraceSource::new(short_trace(5)).with_region_map(vec![3, 2, 1, 0]);
        let t = SimTime::from_mins(7);
        for f in DemandSource::sample(&replay, 0, t) {
            assert!(f.region < 4);
        }
        // Expected rate moved with the relabelling.
        let orig = TraceSource::new(short_trace(5));
        assert_eq!(
            DemandSource::expected_rps(&replay, 0, 3, t),
            DemandSource::expected_rps(&orig, 0, 0, t),
        );
    }

    #[test]
    fn demand_enum_replays_traces() {
        let d = Demand::from(TraceSource::new(short_trace(9)));
        assert_eq!(d.service_count(), 3);
        assert!(d.trace().is_some());
        assert!(!d.sample(0, SimTime::from_mins(50)).is_empty());
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
        assert!(DemandSource::sample(&replay, 0, SimTime::from_mins(30)).is_empty());
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

    #[test]
    fn torn_final_row_errors_name_the_partial_tick() {
        // Strict parsing of a file caught mid-append must say *which*
        // tick is partial and point at the recovery path — not surface
        // a bare column-count error.
        let err = DemandTrace::parse_csv(&torn_csv()).expect_err("torn row");
        assert!(err.0.contains("tick 2"), "names the partial tick: {err}");
        assert!(err.0.contains("mid-row"), "names the cause: {err}");
    }

    #[test]
    fn tail_parse_withholds_the_partial_tick() {
        let parsed = DemandTrace::parse_csv_tail(&torn_csv()).expect("tail parse");
        assert_eq!(parsed.partial_tick, Some(2), "tick 2 caught mid-write");
        assert!(!parsed.is_complete);
        assert_eq!(parsed.trace.tick_count(), 2, "ticks 0-1 are whole");
        assert_eq!(parsed.complete_ticks(), 2);
        assert_eq!(parsed.trace.flows[1][0][0].rps, 11.0);
        // Once the writer finishes the row, a re-read yields tick 2.
        let healed = format!("{},1,2,3\n", torn_csv());
        let parsed = DemandTrace::parse_csv_tail(&healed).expect("healed");
        assert_eq!(parsed.partial_tick, None);
        assert_eq!(parsed.trace.tick_count(), 3);
        // ...but tick 2 may still be growing, so it is not complete yet.
        assert_eq!(parsed.complete_ticks(), 2);
        assert!(!parsed.is_complete);
        // A terminated `# end` marker finishes the feed.
        let ended = format!("{}# end\n", healed);
        let parsed = DemandTrace::parse_csv_tail(&ended).expect("ended");
        assert!(parsed.is_complete);
        assert_eq!(parsed.complete_ticks(), 3);
    }

    #[test]
    fn tail_parse_distrusts_a_commaless_torn_tick_field() {
        // `...\n12` could be tick 12 — or tick 120 half-written. The
        // parser must fall back to "the highest tick seen may still be
        // growing" instead of trusting the bare number.
        let torn = format!("{},1,2,3\n12", torn_csv());
        let parsed = DemandTrace::parse_csv_tail(&torn).expect("tail parse");
        assert_eq!(parsed.partial_tick, Some(2));
        assert_eq!(parsed.trace.tick_count(), 2);
    }

    #[test]
    fn tail_parse_of_a_recorded_file_is_complete() {
        // Recorded traces declare `# ticks`; tailing one sees the whole
        // thing — including trailing zero-demand ticks — as complete.
        let t = short_trace(5);
        let parsed = DemandTrace::parse_csv_tail(&t.to_csv()).expect("tail parse");
        assert!(parsed.is_complete);
        assert_eq!(parsed.partial_tick, None);
        assert_eq!(parsed.complete_ticks(), 120);
        assert_eq!(parsed.trace, t);
    }

    #[test]
    fn tail_parse_skips_rowless_ticks_behind_a_torn_row() {
        // The torn row names tick 5: ticks 3-4 emitted no rows (zero
        // demand) but the writer provably moved past them.
        let torn = format!("{},1,2,3\n5,0", torn_csv());
        let parsed = DemandTrace::parse_csv_tail(&torn).expect("tail parse");
        assert_eq!(parsed.partial_tick, Some(5));
        assert_eq!(parsed.trace.tick_count(), 5);
        assert!(parsed.trace.flows[3][0].is_empty());
        assert_eq!(parsed.complete_ticks(), 5);
    }

    /// A trace with one good row at tick 0, then `row` as its last line.
    fn ending_in(header: &str, row: &str) -> String {
        format!(
            "# tick_ms = 60000\n{header}# regions = 4\n# classes = blog\n\
             tick,service,region,rps,kb_in_per_req,kb_out_per_req,cpu_ms_per_req\n\
             0,0,1,1,1,1,1\n{row}\n"
        )
    }

    /// Every parser — strict, tail-tolerant and the incremental tail
    /// reader `pamdc serve` feeds — rejects `csv` with an error on its
    /// last line that mentions `what`.
    fn assert_rejected(csv: &str, what: &str) {
        let line = format!("line {}: ", csv.lines().count());
        let errors = [
            DemandTrace::parse_csv(csv).map(|_| ()),
            DemandTrace::parse_csv_tail(csv).map(|_| ()),
            TraceTail::open(csv.as_bytes()).map(|_| ()),
        ];
        for e in errors {
            let e = e.expect_err("must be rejected");
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
    fn a_tick_past_the_declared_count_is_rejected_before_growing() {
        let csv = ending_in("# ticks = 2\n", "99999999999,0,1,1,1,1,1");
        assert_rejected(&csv, "tick 99999999999 is past the declared ticks = 2");
        assert_rejected(&ending_in("# ticks = 2\n", "2,0,1,1,1,1,1"), "past");
        assert!(DemandTrace::parse_csv(&ending_in("# ticks = 2\n", "1,0,1,1,1,1,1")).is_ok());
        // A huge header does not lift the gap bound on rows...
        let huge = "# ticks = 99999999999\n";
        assert_rejected(&ending_in(huge, "50000000000,0,1,1,1,1,1"), "jumps");
        // ...nor may it pad that far past the rows itself.
        let padded = ending_in(huge, "1,0,1,1,1,1,1");
        let what = "'# ticks = 99999999999' declares more than 10080 rowless ticks";
        for err in [
            DemandTrace::parse_csv(&padded).map(|_| ()),
            DemandTrace::parse_csv_tail(&padded).map(|_| ()),
            TraceTail::open(padded.as_bytes()).and_then(|mut t| t.refresh().map(|_| ())),
        ] {
            let err = err.expect_err("must be rejected");
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
        // A torn row naming the tick is held to the same bound.
        let torn = ending_in("", "").trim_end().to_string() + "\n99999999999,0";
        let err = DemandTrace::parse_csv_tail(&torn).expect_err("torn tail");
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
}
