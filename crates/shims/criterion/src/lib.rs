//! Offline stand-in for the `criterion` crate.
//!
//! Provides the API surface the workspace's benches use —
//! [`Criterion::benchmark_group`], [`BenchmarkGroup::bench_with_input`],
//! [`BenchmarkGroup::finish`], [`BenchmarkId::new`], [`Bencher::iter`],
//! [`criterion_group!`]/[`criterion_main!`] — backed by a small but real
//! measuring harness: per-benchmark calibration, N timed samples, and a
//! `median [min .. max]` report line.
//!
//! Environment knobs:
//!
//! * `PAMDC_BENCH_QUICK=1` — CI mode: ~40 ms budget per benchmark
//!   instead of ~1.5 s, so a full bench binary finishes in seconds while
//!   still catching order-of-magnitude regressions.
//! * `PAMDC_BENCH_JSON=path` — append one JSON line per benchmark
//!   (`{"id", "median_ns", "mean_ns", "min_ns", "max_ns", "samples"}`),
//!   used to record perf baselines such as `BENCH_solver_scaling.json`.

use std::fmt;
use std::fs::OpenOptions;
use std::hint::black_box;
use std::io::Write as _;
use std::time::{Duration, Instant};

/// Identifier for one benchmark within a group: `name/parameter`.
#[derive(Clone, Debug)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// `BenchmarkId::new("bestfit", "10x40")` → `bestfit/10x40`.
    pub fn new(function_name: impl fmt::Display, parameter: impl fmt::Display) -> Self {
        BenchmarkId {
            id: format!("{function_name}/{parameter}"),
        }
    }
}

/// Passed to the bench closure; [`Bencher::iter`] runs and times the
/// workload.
pub struct Bencher {
    /// Iterations the closure must run this call.
    iters: u64,
    /// Elapsed wall time of the last [`Bencher::iter`] call.
    elapsed: Duration,
}

impl Bencher {
    /// Runs `f` `iters` times, timing the whole batch.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(f());
        }
        self.elapsed = start.elapsed();
    }
}

#[derive(Clone, Debug)]
struct Settings {
    /// Total measurement budget per benchmark.
    budget: Duration,
    /// Number of timed samples to aim for.
    samples: usize,
    /// JSON-lines output path, if recording.
    json_path: Option<String>,
}

impl Settings {
    fn from_env() -> Self {
        let quick = std::env::var("PAMDC_BENCH_QUICK").is_ok_and(|v| v != "0" && !v.is_empty());
        Settings {
            budget: if quick {
                Duration::from_millis(40)
            } else {
                Duration::from_millis(1500)
            },
            samples: if quick { 3 } else { 10 },
            json_path: std::env::var("PAMDC_BENCH_JSON")
                .ok()
                .filter(|p| !p.is_empty()),
        }
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.1} ns")
    } else if ns < 1e6 {
        format!("{:.2} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.3} s", ns / 1e9)
    }
}

fn run_benchmark(settings: &Settings, id: &str, mut routine: impl FnMut(&mut Bencher)) {
    // Calibration pass: one iteration, also serves as warm-up.
    let mut b = Bencher {
        iters: 1,
        elapsed: Duration::ZERO,
    };
    routine(&mut b);
    let per_iter = b.elapsed.max(Duration::from_nanos(1));

    // Choose per-sample iteration counts so `samples` samples fit the
    // budget; long-running workloads degrade to one iteration per sample
    // (and fewer samples once a single run exceeds the whole budget).
    let samples = settings.samples.max(2);
    let per_sample_budget = settings.budget / samples as u32;
    let iters = (per_sample_budget.as_secs_f64() / per_iter.as_secs_f64())
        .floor()
        .max(1.0) as u64;
    let samples = if per_iter > settings.budget {
        2
    } else {
        samples
    };

    let mut sample_ns: Vec<f64> = Vec::with_capacity(samples);
    for _ in 0..samples {
        b.iters = iters;
        routine(&mut b);
        sample_ns.push(b.elapsed.as_nanos() as f64 / iters as f64);
    }
    sample_ns.sort_by(|a, b| a.partial_cmp(b).expect("finite sample times"));
    let median = sample_ns[sample_ns.len() / 2];
    let mean = sample_ns.iter().sum::<f64>() / sample_ns.len() as f64;
    let (min, max) = (sample_ns[0], sample_ns[sample_ns.len() - 1]);

    println!(
        "{id:<48} time: {:>10} [{} .. {}]  ({} samples × {iters} iters)",
        fmt_ns(median),
        fmt_ns(min),
        fmt_ns(max),
        sample_ns.len(),
    );

    if let Some(path) = &settings.json_path {
        let line = format!(
            "{{\"id\":\"{id}\",\"median_ns\":{median:.1},\"mean_ns\":{mean:.1},\"min_ns\":{min:.1},\"max_ns\":{max:.1},\"samples\":{}}}\n",
            sample_ns.len(),
        );
        if let Ok(mut f) = OpenOptions::new().create(true).append(true).open(path) {
            let _ = f.write_all(line.as_bytes());
        }
    }
}

/// The benchmark manager a `criterion_group!` target receives.
pub struct Criterion {
    settings: Settings,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            settings: Settings::from_env(),
        }
    }
}

impl Criterion {
    /// Opens a named group (`group/benchmark` ids).
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
        }
    }
}

/// A group of related benchmarks sharing an id prefix.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    /// Runs one parameterized benchmark within the group.
    pub fn bench_with_input<I: ?Sized>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut routine: impl FnMut(&mut Bencher, &I),
    ) -> &mut Self {
        let full = format!("{}/{}", self.name, id.id);
        run_benchmark(&self.criterion.settings, &full, |b| routine(b, input));
        self
    }

    /// Ends the group.
    pub fn finish(self) {}
}

/// Declares a group function that runs the listed bench targets.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Declares the bench binary's `main`, running the listed groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_measures_and_reports() {
        std::env::set_var("PAMDC_BENCH_QUICK", "1");
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("grp");
        g.bench_with_input(BenchmarkId::new("add", 2), &2u64, |b, &x| {
            b.iter(|| black_box(x) + black_box(3u64))
        });
        g.bench_with_input(BenchmarkId::new("sq", 7), &7u64, |b, &x| b.iter(|| x * x));
        g.finish();
    }
}
