//! The metrics registry and per-run collector.
//!
//! Every metric the workspace emits is declared here, in one place, as
//! an enum variant with a fixed name — the registry. Call sites
//! (`crates/sched` solver stages, the `crates/core` simulation loop,
//! the `crates/workload` importers) bump metrics through the free
//! functions below; increments land in whatever [`Collector`] is
//! installed on the current thread (or vanish, when none is — benches
//! and unit tests pay nothing).
//!
//! A collector is **per run**: each run's `Controller` creates a fresh
//! one, installs it for every step of the run via [`CollectorGuard`]
//! (saving and restoring any outer collector, so nested training
//! simulations don't pollute their parent), and flushes
//! [`Collector::run_metrics`] into the run outcome. Parallel sweep and
//! campaign runs therefore never share a collector, and `simcore::par`
//! worker threads inherit the spawning run's collector through the
//! worker-context seam — counter totals are bit-identical at any
//! `--jobs` budget because addition commutes.
//!
//! Metric names follow `report::metric_key` rules (lowercase,
//! dot-separated namespaces; see `docs/OBSERVABILITY.md`) and are
//! prefixed `obs.` when flushed into a report.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Once};

/// Every counter in the registry. `Import*` counters are bumped by
/// `pamdc import` outside any simulation and are excluded from
/// [`Collector::run_metrics`] (they would pin meaningless zeros into
/// every golden).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Counter {
    /// Simulated ticks executed.
    SimTicks,
    /// Plan/execute rounds entered.
    SimRounds,
    /// Migrations actually applied by the execute phase.
    SimMigrations,
    /// VM-ticks whose satisfaction fell below 1 (any SLA shortfall).
    SimSlaViolations,
    /// `best_fit` invocations.
    BestfitCalls,
    /// VMs no host could take at nonnegative marginal profit.
    BestfitOverflow,
    /// Overflow placements that still found a RAM-fitting host (the
    /// memory tier held; the remainder fell through to `best_any`).
    BestfitMemTierFallback,
    /// Consolidation moves accepted by `improve_schedule`.
    LocalsearchMovesAccepted,
    /// Candidate moves evaluated but not applied.
    LocalsearchMovesRejected,
    /// Candidate (VM, host) gains evaluated by the incremental
    /// local-search path (the work metric its bookkeeping shrinks).
    LocalsearchCandidatesRescored,
    /// Full per-VM shortlist rebuilds in the incremental path.
    LocalsearchVmRescans,
    /// Candidate-index host re-keyings performed by local search.
    LocalsearchIndexUpdates,
    /// Host groups scored through the opt-in near-equivalence index
    /// (approximate shortlists; zero on exact-mode runs).
    IndexNearShortlistHits,
    /// Branch-and-bound runs that exhausted their node budget.
    ExactBudgetExhausted,
    /// `hierarchical_round` invocations.
    HierRounds,
    /// Per-DC shards solved across all rounds.
    HierShards,
    /// Hosts offered to the global pass across all rounds.
    HierOfferedHosts,
    /// VMs escalated to the global pass across all rounds.
    HierGlobalVms,
    /// Consolidation moves accepted inside hierarchical rounds.
    HierConsolidationMoves,
    /// Importer data rows parsed into usage samples.
    ImportRowsRead,
    /// Importer data rows skipped (unusable/filtered).
    ImportRowsDropped,
    /// Scheduling rounds planned in degraded (bestfit-only) mode under
    /// deadline pressure. Counted inside the engine, so a recorded
    /// live session replayed with its degradation manifest reproduces
    /// the same value.
    ServeDegradedRounds,
    /// Scheduling rounds planned at the ladder's middle rung (trimmed
    /// consolidation budget) under deadline pressure. Counted inside
    /// the engine, like `ServeDegradedRounds`, so manifest replays
    /// reproduce it.
    ServeTrimmedRounds,
    /// Feed polls performed by the serve daemon (wall-clock paced;
    /// excluded from run flushes).
    ServeFeedPolls,
    /// Session snapshots written by the serve daemon (excluded from
    /// run flushes).
    ServeSnapshots,
}

impl Counter {
    pub const ALL: [Counter; 25] = [
        Counter::SimTicks,
        Counter::SimRounds,
        Counter::SimMigrations,
        Counter::SimSlaViolations,
        Counter::BestfitCalls,
        Counter::BestfitOverflow,
        Counter::BestfitMemTierFallback,
        Counter::LocalsearchMovesAccepted,
        Counter::LocalsearchMovesRejected,
        Counter::LocalsearchCandidatesRescored,
        Counter::LocalsearchVmRescans,
        Counter::LocalsearchIndexUpdates,
        Counter::IndexNearShortlistHits,
        Counter::ExactBudgetExhausted,
        Counter::HierRounds,
        Counter::HierShards,
        Counter::HierOfferedHosts,
        Counter::HierGlobalVms,
        Counter::HierConsolidationMoves,
        Counter::ImportRowsRead,
        Counter::ImportRowsDropped,
        Counter::ServeDegradedRounds,
        Counter::ServeTrimmedRounds,
        Counter::ServeFeedPolls,
        Counter::ServeSnapshots,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Counter::SimTicks => "sim.ticks",
            Counter::SimRounds => "sim.rounds",
            Counter::SimMigrations => "sim.migrations",
            Counter::SimSlaViolations => "sim.sla_violations",
            Counter::BestfitCalls => "sched.bestfit.calls",
            Counter::BestfitOverflow => "sched.bestfit.overflow",
            Counter::BestfitMemTierFallback => "sched.bestfit.mem_tier_fallback",
            Counter::LocalsearchMovesAccepted => "sched.localsearch.moves_accepted",
            Counter::LocalsearchMovesRejected => "sched.localsearch.moves_rejected",
            Counter::LocalsearchCandidatesRescored => "sched.localsearch.candidates_rescored",
            Counter::LocalsearchVmRescans => "sched.localsearch.vm_rescans",
            Counter::LocalsearchIndexUpdates => "sched.localsearch.index_updates",
            Counter::IndexNearShortlistHits => "sched.index.near_shortlist_hits",
            Counter::ExactBudgetExhausted => "sched.exact.budget_exhausted",
            Counter::HierRounds => "sched.hier.rounds",
            Counter::HierShards => "sched.hier.shards",
            Counter::HierOfferedHosts => "sched.hier.offered_hosts",
            Counter::HierGlobalVms => "sched.hier.global_vms",
            Counter::HierConsolidationMoves => "sched.hier.consolidation_moves",
            Counter::ImportRowsRead => "import.rows_read",
            Counter::ImportRowsDropped => "import.rows_dropped",
            Counter::ServeDegradedRounds => "serve.degraded_rounds",
            Counter::ServeTrimmedRounds => "serve.trimmed_rounds",
            Counter::ServeFeedPolls => "serve.feed_polls",
            Counter::ServeSnapshots => "serve.snapshots",
        }
    }

    /// Whether the counter belongs in a simulation run's flushed
    /// metrics. Importer counters don't (they are bumped outside
    /// runs), and neither do the daemon-side serve counters (polls and
    /// snapshots follow wall-clock pacing, which must never enter a
    /// report). `ServeDegradedRounds` *is* flushed: the engine bumps it
    /// deterministically per degraded round, so a manifest replay
    /// reproduces it bit-for-bit.
    fn in_run_flush(self) -> bool {
        !matches!(
            self,
            Counter::ImportRowsRead
                | Counter::ImportRowsDropped
                | Counter::ServeFeedPolls
                | Counter::ServeSnapshots
        )
    }
}

/// Point-in-time values; last write wins. Written only from the run
/// thread (per-tick state), so no ordering subtleties.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Gauge {
    /// Powered-on PMs at the final tick.
    SimActivePms,
    /// Backlogged VMs awaiting placement at the final tick.
    SimPendingVms,
}

impl Gauge {
    pub const ALL: [Gauge; 2] = [Gauge::SimActivePms, Gauge::SimPendingVms];

    pub fn name(self) -> &'static str {
        match self {
            Gauge::SimActivePms => "sim.active_pms_final",
            Gauge::SimPendingVms => "sim.pending_vms_final",
        }
    }
}

/// Fixed-bucket histograms. Buckets are cumulative-exclusive: a sample
/// lands in the first bucket whose upper edge is `>=` the value, else
/// in the overflow bucket.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Hist {
    /// Per-VM-tick SLA satisfaction in `[0, 1]`.
    SimVmSla,
}

/// Bucket count per histogram (3 edges + overflow).
pub const HIST_BUCKETS: usize = 4;

impl Hist {
    pub const ALL: [Hist; 1] = [Hist::SimVmSla];

    pub fn name(self) -> &'static str {
        match self {
            Hist::SimVmSla => "sim.vm_sla",
        }
    }

    pub fn edges(self) -> [f64; HIST_BUCKETS - 1] {
        match self {
            Hist::SimVmSla => [0.50, 0.90, 0.99],
        }
    }

    pub fn bucket_labels(self) -> [&'static str; HIST_BUCKETS] {
        match self {
            Hist::SimVmSla => ["le_0_50", "le_0_90", "le_0_99", "gt_0_99"],
        }
    }
}

/// Wall-clock stats for one span path, accumulated across a flush
/// interval (one tick, in the simulation loop).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanStat {
    pub count: u64,
    pub total_ns: u64,
}

const COUNTERS: usize = Counter::ALL.len();
const GAUGES: usize = Gauge::ALL.len();
const HISTS: usize = Hist::ALL.len();

/// One run's worth of metrics and (when tracing) span timings and
/// buffered trace lines. Shared across worker threads via `Arc`.
pub struct Collector {
    timing: bool,
    counters: [AtomicU64; COUNTERS],
    gauges: [AtomicU64; GAUGES],
    hists: [[AtomicU64; HIST_BUCKETS]; HISTS],
    spans: Mutex<BTreeMap<String, SpanStat>>,
    events: Mutex<Vec<String>>,
}

impl Collector {
    /// `timing` turns the span layer on (wall-clock reads + path
    /// bookkeeping); leave it off for untraced runs so spans cost one
    /// thread-local check.
    pub fn new(timing: bool) -> Self {
        Collector {
            timing,
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            gauges: std::array::from_fn(|_| AtomicU64::new(0f64.to_bits())),
            hists: std::array::from_fn(|_| std::array::from_fn(|_| AtomicU64::new(0))),
            spans: Mutex::new(BTreeMap::new()),
            events: Mutex::new(Vec::new()),
        }
    }

    pub fn timing(&self) -> bool {
        self.timing
    }

    pub fn add(&self, c: Counter, delta: u64) {
        self.counters[c as usize].fetch_add(delta, Ordering::Relaxed);
    }

    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize].load(Ordering::Relaxed)
    }

    /// All counter values, indexable by `Counter as usize` — the
    /// per-tick trace delta snapshot.
    pub fn counter_snapshot(&self) -> [u64; COUNTERS] {
        std::array::from_fn(|i| self.counters[i].load(Ordering::Relaxed))
    }

    pub fn gauge_set(&self, g: Gauge, value: f64) {
        self.gauges[g as usize].store(value.to_bits(), Ordering::Relaxed);
    }

    pub fn gauge(&self, g: Gauge) -> f64 {
        f64::from_bits(self.gauges[g as usize].load(Ordering::Relaxed))
    }

    pub fn observe(&self, h: Hist, value: f64) {
        let edges = h.edges();
        let mut bucket = HIST_BUCKETS - 1;
        for (i, edge) in edges.iter().enumerate() {
            if value <= *edge {
                bucket = i;
                break;
            }
        }
        self.hists[h as usize][bucket].fetch_add(1, Ordering::Relaxed);
    }

    pub fn hist_buckets(&self, h: Hist) -> [u64; HIST_BUCKETS] {
        std::array::from_fn(|i| self.hists[h as usize][i].load(Ordering::Relaxed))
    }

    pub(crate) fn record_span(&self, path: String, elapsed_ns: u64) {
        let mut spans = self.spans.lock().expect("span map poisoned");
        let stat = spans.entry(path).or_default();
        stat.count += 1;
        stat.total_ns += elapsed_ns;
    }

    /// Drains the span stats accumulated since the previous drain,
    /// sorted by path — the per-tick trace flush.
    pub fn take_spans(&self) -> BTreeMap<String, SpanStat> {
        std::mem::take(&mut self.spans.lock().expect("span map poisoned"))
    }

    /// Appends a pre-formatted JSONL line to the run's trace buffer.
    pub fn push_event(&self, line: String) {
        self.events
            .lock()
            .expect("event buffer poisoned")
            .push(line);
    }

    /// Drains the buffered trace lines (flushed to the ambient sink in
    /// arm order by the experiment runner, never directly by the run —
    /// parallel arms would interleave).
    pub fn take_events(&self) -> Vec<String> {
        std::mem::take(&mut self.events.lock().expect("event buffer poisoned"))
    }

    /// The fixed, sorted `(name, value)` schema a run flushes into its
    /// outcome: every non-importer counter, every gauge, every
    /// histogram bucket — zeros included, so reports and goldens have
    /// identical metric sets whatever the policy exercised.
    pub fn run_metrics(&self) -> Vec<(String, f64)> {
        let mut out: Vec<(String, f64)> = Vec::new();
        for c in Counter::ALL {
            if c.in_run_flush() {
                out.push((c.name().to_string(), self.counter(c) as f64));
            }
        }
        for g in Gauge::ALL {
            out.push((g.name().to_string(), self.gauge(g)));
        }
        for h in Hist::ALL {
            let buckets = self.hist_buckets(h);
            for (label, value) in h.bucket_labels().iter().zip(buckets) {
                out.push((format!("{}.{label}", h.name()), value as f64));
            }
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }
}

/// Number of metrics [`Collector::run_metrics`] flushes — the schema
/// width experiment tests pin against.
pub const RUN_METRIC_COUNT: usize =
    COUNTERS - 4 /* import.*, serve daemon-side */ + GAUGES + HISTS * HIST_BUCKETS;

thread_local! {
    static CURRENT: RefCell<Option<Arc<Collector>>> = const { RefCell::new(None) };
}

/// The collector installed on this thread, if any.
pub fn current() -> Option<Arc<Collector>> {
    CURRENT.with(|c| c.borrow().clone())
}

/// Runs `f` on the collector installed on this thread, if any, without
/// cloning its handle (the span hot path).
pub(crate) fn with_current<R>(f: impl FnOnce(&Collector) -> R) -> Option<R> {
    CURRENT.with(|c| c.borrow().as_deref().map(f))
}

/// Bumps `c` on the current thread's collector; no-op without one.
pub fn add(c: Counter, delta: u64) {
    CURRENT.with(|cell| {
        if let Some(collector) = cell.borrow().as_ref() {
            collector.add(c, delta);
        }
    });
}

/// Sets gauge `g` on the current thread's collector; no-op without one.
pub fn gauge_set(g: Gauge, value: f64) {
    CURRENT.with(|cell| {
        if let Some(collector) = cell.borrow().as_ref() {
            collector.gauge_set(g, value);
        }
    });
}

/// Observes `value` into histogram `h`; no-op without a collector.
pub fn observe(h: Hist, value: f64) {
    CURRENT.with(|cell| {
        if let Some(collector) = cell.borrow().as_ref() {
            collector.observe(h, value);
        }
    });
}

/// RAII installation of a collector on the current thread. Saves and
/// restores the previously installed collector, so nested runs (a
/// training simulation inside an experiment arm) stack cleanly.
pub struct CollectorGuard {
    prev: Option<Arc<Collector>>,
}

impl CollectorGuard {
    pub fn install(collector: Arc<Collector>) -> Self {
        register_par_hook();
        let prev = CURRENT.with(|c| c.borrow_mut().replace(collector));
        CollectorGuard { prev }
    }
}

impl Drop for CollectorGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| *c.borrow_mut() = self.prev.take());
    }
}

/// Registers the `simcore::par` worker-context hook (once per process):
/// workers inherit the spawning thread's collector and, when timing,
/// its span path as a prefix — per-shard spans inside
/// `hierarchical_round` nest under the round's path and shard counters
/// land in the run's collector at any `--jobs` budget.
fn register_par_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| pamdc_simcore::par::register_worker_context(capture_context));
}

fn capture_context() -> Option<pamdc_simcore::par::ContextInstaller> {
    let collector = current()?;
    let prefix = if collector.timing() {
        crate::span::current_path()
    } else {
        None
    };
    Some(Box::new(move || {
        CURRENT.with(|c| *c.borrow_mut() = Some(collector.clone()));
        crate::span::seed_prefix(prefix.clone());
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_flush_sorted() {
        let c = Collector::new(false);
        c.add(Counter::SimMigrations, 3);
        c.add(Counter::SimMigrations, 2);
        c.gauge_set(Gauge::SimActivePms, 7.0);
        c.observe(Hist::SimVmSla, 0.95);
        c.observe(Hist::SimVmSla, 1.0);
        c.observe(Hist::SimVmSla, 0.1);
        let metrics = c.run_metrics();
        assert_eq!(metrics.len(), RUN_METRIC_COUNT);
        assert!(
            metrics.windows(2).all(|w| w[0].0 < w[1].0),
            "sorted, unique"
        );
        let get = |k: &str| metrics.iter().find(|(n, _)| n == k).map(|(_, v)| *v);
        assert_eq!(get("sim.migrations"), Some(5.0));
        assert_eq!(get("sim.active_pms_final"), Some(7.0));
        assert_eq!(get("sim.vm_sla.le_0_50"), Some(1.0));
        assert_eq!(get("sim.vm_sla.le_0_99"), Some(1.0));
        assert_eq!(get("sim.vm_sla.gt_0_99"), Some(1.0));
        assert_eq!(get("sim.vm_sla.le_0_90"), Some(0.0));
        // Importer counters stay out of the run flush.
        assert_eq!(get("import.rows_read"), None);
    }

    #[test]
    fn guard_nests_and_restores() {
        let outer = Arc::new(Collector::new(false));
        let inner = Arc::new(Collector::new(false));
        assert!(current().is_none());
        {
            let _g1 = CollectorGuard::install(outer.clone());
            add(Counter::SimTicks, 1);
            {
                let _g2 = CollectorGuard::install(inner.clone());
                add(Counter::SimTicks, 10);
            }
            add(Counter::SimTicks, 1);
        }
        assert!(current().is_none());
        assert_eq!(outer.counter(Counter::SimTicks), 2);
        assert_eq!(inner.counter(Counter::SimTicks), 10);
    }

    #[test]
    fn increments_without_collector_are_dropped() {
        add(Counter::SimTicks, 99); // must not panic, must not leak anywhere
        assert!(current().is_none());
    }

    // Counters bumped inside parallel_map workers land in the
    // installing thread's collector at any worker budget — the PR 5
    // `parallel_map_bounded` determinism guarantee extended to obs.
    #[test]
    fn worker_counters_bit_identical_at_any_budget() {
        let mut totals = Vec::new();
        for jobs in [1usize, 2, 4, 8] {
            let collector = Arc::new(Collector::new(false));
            let _g = CollectorGuard::install(collector.clone());
            let items: Vec<u64> = (0..50).collect();
            let out = pamdc_simcore::par::parallel_map_bounded(items, Some(jobs), |i| {
                add(Counter::LocalsearchMovesAccepted, i % 3);
                observe(Hist::SimVmSla, (i as f64) / 50.0);
                i
            });
            assert_eq!(out.len(), 50);
            totals.push((
                collector.counter(Counter::LocalsearchMovesAccepted),
                collector.hist_buckets(Hist::SimVmSla),
            ));
        }
        assert!(totals.windows(2).all(|w| w[0] == w[1]), "{totals:?}");
        let expected: u64 = (0..50u64).map(|i| i % 3).sum();
        assert_eq!(totals[0].0, expected);
    }

    // join()'s spawned arm inherits the collector too.
    #[test]
    fn join_arm_inherits_collector() {
        let collector = Arc::new(Collector::new(false));
        let _g = CollectorGuard::install(collector.clone());
        let (a, b) = pamdc_simcore::par::join(
            || {
                add(Counter::SimRounds, 5);
                1
            },
            || {
                add(Counter::SimRounds, 7);
                2
            },
        );
        assert_eq!((a, b), (1, 2));
        assert_eq!(collector.counter(Counter::SimRounds), 12);
    }
}
