//! Layer measurements taken from outside the program: wrappers that
//! time calls into the public planner and oracle traits, and a reduction
//! of the engine's own `pamdc_obs` span tree.

use pamdc_core::policy::PlacementPolicy;
use pamdc_infra::resources::Resources;
use pamdc_sched::oracle::QosOracle;
use pamdc_sched::problem::{HostInfo, Problem, Schedule, VmInfo};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Times every `decide` of the wrapped planner; the last duration is
/// read by the benchmark after each round tick. The benchmark steps at
/// full fidelity only, so the degraded rungs are not wrapped.
pub struct TimedPolicy {
    inner: Box<dyn PlacementPolicy>,
    last_ns: Arc<AtomicU64>,
}

impl TimedPolicy {
    pub fn new(inner: Box<dyn PlacementPolicy>, last_ns: Arc<AtomicU64>) -> Self {
        TimedPolicy { inner, last_ns }
    }
}

impl PlacementPolicy for TimedPolicy {
    fn decide(&self, problem: &Problem) -> Schedule {
        let start = Instant::now();
        let schedule = self.inner.decide(problem);
        // Relaxed: a statistic, read on the stepping thread after the
        // step that wrote it returned.
        self.last_ns
            .store(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        schedule
    }
    fn name(&self) -> String {
        self.inner.name()
    }
}

/// Oracle call counts and busy time, summed over every thread that
/// queried the oracle (sharded passes query it from worker threads, so
/// busy time can exceed wall time).
#[derive(Default)]
pub struct OracleStats {
    pub demand_calls: AtomicU64,
    pub sla_calls: AtomicU64,
    pub busy_ns: AtomicU64,
}

/// Counts and times every call into the wrapped oracle. `name()` is
/// forwarded unchanged, so policy and report names do not move.
pub struct TimedOracle<O> {
    inner: O,
    stats: Arc<OracleStats>,
}

impl<O> TimedOracle<O> {
    pub fn new(inner: O, stats: Arc<OracleStats>) -> Self {
        TimedOracle { inner, stats }
    }

    fn busy(&self, start: Instant) {
        self.stats
            .busy_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
}

impl<O: QosOracle> QosOracle for TimedOracle<O> {
    fn demand(&self, vm: &VmInfo) -> Resources {
        let start = Instant::now();
        let demand = self.inner.demand(vm);
        self.busy(start);
        self.stats.demand_calls.fetch_add(1, Ordering::Relaxed);
        demand
    }

    fn sla(
        &self,
        vm: &VmInfo,
        host: &HostInfo,
        host_total_demand: &Resources,
        transport_secs: f64,
    ) -> f64 {
        let start = Instant::now();
        let sla = self.inner.sla(vm, host, host_total_demand, transport_secs);
        self.busy(start);
        self.stats.sla_calls.fetch_add(1, Ordering::Relaxed);
        sla
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Wall time of `Reference::slowdown`'s loop on an uncontended core of
/// the machine the README's figures come from (Intel Xeon, 2.1 GHz), ms.
pub const REFERENCE_MS: f64 = 1.4;

/// A fixed loop, timed to read how fast the machine runs at the moment.
///
/// On a shared host the same work can take up to twice as long for
/// seconds or minutes at a time, while neighbours compete for the core
/// and its caches. The benchmark times this loop just before every round
/// step and every set-up, and divides each timing by the loop's slowdown,
/// so it reports what the work costs at one reference speed. The loop
/// mixes the two kinds of work the planners do: a walk over many small
/// heap rows, as in a k-NN scan, and floating-point arithmetic. It is the
/// benchmark's own code, so no change to the program moves it.
pub struct Reference {
    rows: Vec<Vec<f64>>,
}

impl Reference {
    pub fn new() -> Self {
        let rows = (0..20_000)
            .map(|i| (0..8).map(|j| ((i * 7 + j * 13) % 101) as f64).collect())
            .collect();
        Reference { rows }
    }

    /// The loop's wall time now over `REFERENCE_MS`.
    pub fn slowdown(&self) -> f64 {
        let start = Instant::now();
        let mut acc = 0.0;
        for q in 0..3 {
            for row in &self.rows {
                let mut d = 0.0;
                for (k, v) in row.iter().enumerate() {
                    let x = v - (q + k) as f64;
                    d += x * x;
                }
                acc += d.sqrt();
            }
        }
        for q in 0..30 {
            for v in 0..4096 {
                acc += (f64::from(v) * f64::from(q)).sin();
            }
        }
        std::hint::black_box(acc);
        start.elapsed().as_secs_f64() * 1e3 / REFERENCE_MS
    }
}

/// The span-tree numbers of one traced run, milliseconds.
pub struct SpanTimes {
    /// Self time per span path: its wall time minus its children's.
    self_ms: BTreeMap<String, f64>,
    /// Wall time per span path, children included.
    total_ms: BTreeMap<String, f64>,
}

impl SpanTimes {
    /// Reduces a run's JSONL trace with the program's own summarizer.
    pub fn from_trace(lines: &[String]) -> Result<SpanTimes, String> {
        let summary = pamdc_obs::trace::summarize(lines)?;
        let total_ms: BTreeMap<String, f64> = summary
            .spans
            .iter()
            .map(|row| (row.path.clone(), row.total_ns as f64 / 1e6))
            .collect();
        let mut self_ms = total_ms.clone();
        for (path, ms) in &total_ms {
            if let Some((parent, _)) = path.rsplit_once('/') {
                if let Some(p) = self_ms.get_mut(parent) {
                    *p -= ms;
                }
            }
        }
        Ok(SpanTimes { self_ms, total_ms })
    }

    /// Self time of one path (0 when the run never entered it).
    pub fn self_of(&self, path: &str) -> f64 {
        self.self_ms.get(path).copied().unwrap_or(0.0).max(0.0)
    }

    /// Wall time of one path, children included.
    pub fn total_of(&self, path: &str) -> f64 {
        self.total_ms.get(path).copied().unwrap_or(0.0)
    }

    /// Self time summed over every path whose last segment is `leaf`
    /// (solver spans nest under whichever pass called them).
    pub fn self_of_leaf(&self, leaf: &str) -> f64 {
        self.self_ms
            .iter()
            .filter(|(path, _)| path.rsplit('/').next() == Some(leaf))
            .map(|(_, ms)| ms.max(0.0))
            .sum()
    }

    /// Summed wall time of the per-DC shards over the intra pass's own
    /// wall time: how many shards ran at once, on average.
    pub fn intra_parallelism(&self) -> f64 {
        let intra = "tick/plan/hier/intra";
        let wall = self.total_of(intra);
        let shards: f64 = self
            .total_ms
            .iter()
            .filter(|(path, _)| {
                path.strip_prefix(intra)
                    .and_then(|rest| rest.strip_prefix("/dc"))
                    .is_some_and(|dc| !dc.contains('/'))
            })
            .map(|(_, ms)| ms)
            .sum();
        if wall > 0.0 {
            shards / wall
        } else {
            0.0
        }
    }
}

/// High-water resident set size of this process, MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}
