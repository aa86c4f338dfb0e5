//! Deterministic parallel sweeps.
//!
//! Every experiment driver in the workspace fans out independent,
//! seed-derived computations (sweep points, comparison arms, per-target
//! model training). Before this module each driver hand-rolled its own
//! scoped-thread boilerplate; now they all share one helper with two
//! guarantees:
//!
//! 1. **Determinism** — results are returned in input order, and each
//!    item's computation must derive its randomness from its own input
//!    (a seed, a derived [`crate::rng::RngStream`]), so a parallel sweep
//!    is bit-identical to a sequential one regardless of interleaving.
//! 2. **Bounded threads, dynamic balancing** — at most
//!    `available_parallelism` workers, the calling thread among them,
//!    claim items one at a time from a shared counter, so a 1000-point
//!    sweep does not spawn 1000 threads and a sweep whose points grow in
//!    cost (the common small-to-large-instance shape) does not strand
//!    all the expensive work on one worker. A one-item map spawns
//!    nothing, which is what lets [`map_chunks`] fan a small problem out
//!    as one chunk at no cost.
//!
//! Built on `std::thread::scope`; a worker panic propagates to the
//! caller (same behaviour the previous `crossbeam::thread::scope` code
//! had via `join().expect(..)`).
//!
//! ## Worker context propagation
//!
//! Thread-local ambient state (the `pamdc_obs` collector, notably) does
//! not cross `thread::scope` boundaries on its own, so counters bumped
//! inside a worker would silently vanish at `--jobs > 1` while showing
//! up at `--jobs 1` — a determinism hole. [`register_worker_context`]
//! lets exactly one interested crate install a *capture* function: it
//! runs on the calling thread right before workers spawn, and the
//! installer it returns runs once at the start of every spawned worker
//! (and of [`join`]'s spawned arm). Items the calling thread claims, and
//! the sequential fallbacks, never need it — they run with the caller's
//! context intact.

/// Installs captured calling-thread context into a worker thread.
pub type ContextInstaller = Box<dyn Fn() + Send + Sync>;

static WORKER_CONTEXT: std::sync::OnceLock<fn() -> Option<ContextInstaller>> =
    std::sync::OnceLock::new();

/// Registers the process-wide context capture hook. First caller wins;
/// later registrations are ignored (the hook is a singleton seam, not a
/// subscriber list).
pub fn register_worker_context(capture: fn() -> Option<ContextInstaller>) {
    let _ = WORKER_CONTEXT.set(capture);
}

fn capture_worker_context() -> Option<ContextInstaller> {
    WORKER_CONTEXT.get().and_then(|capture| capture())
}

/// The worker count a sweep actually runs with, after clamping the
/// hardware budget by the item count, the caller's explicit bound, and
/// the `PAMDC_PAR_WORKERS` environment override (whichever is
/// smallest wins; zero and unparsable values are ignored). Pure so the
/// clamping chain is testable without spawning threads. Determinism is
/// unaffected by any of the knobs — results are placed by input index.
pub fn effective_workers(
    items: usize,
    hardware: usize,
    max_workers: Option<usize>,
    env_cap: Option<usize>,
) -> usize {
    hardware
        .max(1)
        .min(items)
        .min(max_workers.unwrap_or(usize::MAX).max(1))
        .min(env_cap.filter(|&c| c > 0).unwrap_or(usize::MAX))
}

/// The hardware thread budget, read once per process: on Linux,
/// `available_parallelism` re-reads the cgroup quota files on every
/// call, which costs more than a small fan-out's items.
fn hardware_threads() -> usize {
    static HARDWARE: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *HARDWARE.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    })
}

/// Read on every call: the `hier_jobs` bench and tests change it at
/// run time.
fn env_worker_cap() -> Option<usize> {
    std::env::var("PAMDC_PAR_WORKERS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
}

/// Maps `f` over `items` in parallel, preserving input order.
///
/// `f` must be deterministic given its item (derive all randomness from
/// the item itself). With one item, or when only one hardware thread is
/// available, the sweep degenerates to a sequential loop — same results
/// either way.
pub fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    parallel_map_bounded(items, None, f)
}

/// [`parallel_map`] with an explicit worker budget: at most
/// `max_workers` threads run concurrently (`None` = one per hardware
/// thread). Campaigns whose runs are individually parallel (or memory
/// hungry) cap the fan-out with this instead of oversubscribing the
/// host. The `PAMDC_PAR_WORKERS` environment variable further caps the
/// fan-out (the smallest of hardware, `max_workers`, and the env value
/// wins) — the CI multi-core lane uses it to pin a run to N workers
/// without threading a flag through every driver. Determinism is
/// unaffected — results are placed by input index, so any budget
/// produces bit-identical output.
pub fn parallel_map_bounded<T, R, F>(items: Vec<T>, max_workers: Option<usize>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    if n <= 1 {
        return items.into_iter().map(f).collect();
    }
    let workers = effective_workers(n, hardware_threads(), max_workers, env_worker_cap());
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }

    // The calling thread and `workers - 1` spawned threads each claim
    // the next unprocessed index from a shared counter (dynamic
    // balancing: a sweep ordered cheap-to-expensive still spreads its
    // expensive tail across workers) and collect `(index, result)`
    // pairs; results are then placed by index, so output order is
    // input order regardless of scheduling.
    let items: Vec<std::sync::Mutex<Option<T>>> = items
        .into_iter()
        .map(|t| std::sync::Mutex::new(Some(t)))
        .collect();
    let next = std::sync::atomic::AtomicUsize::new(0);
    let claim = || {
        let mut produced: Vec<(usize, R)> = Vec::new();
        loop {
            let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            if i >= n {
                break;
            }
            let item = items[i]
                .lock()
                .expect("item slot poisoned")
                .take()
                .expect("each item is claimed exactly once");
            produced.push((i, f(item)));
        }
        produced
    };
    let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);

    let ctx = capture_worker_context();
    std::thread::scope(|scope| {
        let (claim, ctx) = (&claim, &ctx);
        let handles: Vec<_> = (1..workers)
            .map(|_| {
                scope.spawn(move || {
                    if let Some(install) = ctx {
                        install();
                    }
                    claim()
                })
            })
            .collect();
        for (i, r) in claim() {
            slots[i] = Some(r);
        }
        for h in handles {
            for (i, r) in h.join().expect("parallel_map worker panicked") {
                slots[i] = Some(r);
            }
        }
    });

    slots
        .into_iter()
        .map(|s| s.expect("worker filled every slot"))
        .collect()
}

/// Maps `f` over `0..n` in consecutive index ranges of `chunk` items
/// (the last one may be shorter) through [`parallel_map`], returning the
/// per-range results in range order. A fixed grain keeps the fan-out
/// free for small inputs: with `n <= chunk` there is one range, and it
/// runs on the calling thread like a plain loop. Panics if `chunk` is 0.
pub fn map_chunks<R, F>(n: usize, chunk: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(std::ops::Range<usize>) -> R + Sync,
{
    let ranges: Vec<std::ops::Range<usize>> = (0..n)
        .step_by(chunk)
        .map(|start| start..n.min(start + chunk))
        .collect();
    parallel_map(ranges, f)
}

/// Runs two independent computations on two threads and returns both
/// results — the two-arm experiment pattern (static vs dynamic,
/// sun-aware vs price-blind, ...).
pub fn join<RA, RB>(a: impl FnOnce() -> RA + Send, b: impl FnOnce() -> RB + Send) -> (RA, RB)
where
    RA: Send,
    RB: Send,
{
    let ctx = capture_worker_context();
    std::thread::scope(|scope| {
        let ha = scope.spawn(move || {
            if let Some(install) = &ctx {
                install();
            }
            a()
        });
        let rb = b();
        (ha.join().expect("parallel arm panicked"), rb)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let out = parallel_map((0..100).collect::<Vec<_>>(), |i| i * 2);
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn matches_sequential_map() {
        let items: Vec<u64> = (0..37).collect();
        let seq: Vec<u64> = items.iter().map(|&i| i.wrapping_mul(0x9E37_79B9)).collect();
        let par = parallel_map(items, |i| i.wrapping_mul(0x9E37_79B9));
        assert_eq!(seq, par);
    }

    #[test]
    fn bounded_budget_matches_unbounded() {
        let items: Vec<u64> = (0..23).collect();
        let unbounded = parallel_map(items.clone(), |i| i * 3 + 1);
        for jobs in [1usize, 2, 7, 64] {
            let bounded = parallel_map_bounded(items.clone(), Some(jobs), |i| i * 3 + 1);
            assert_eq!(bounded, unbounded, "jobs = {jobs}");
        }
        // A zero budget clamps to one worker instead of hanging.
        let one = parallel_map_bounded(items, Some(0), |i| i * 3 + 1);
        assert_eq!(one, unbounded);
    }

    #[test]
    fn effective_workers_takes_the_tightest_bound() {
        // Hardware bound.
        assert_eq!(effective_workers(100, 8, None, None), 8);
        // Item bound.
        assert_eq!(effective_workers(3, 8, None, None), 3);
        // Caller bound, with zero clamped to one.
        assert_eq!(effective_workers(100, 8, Some(2), None), 2);
        assert_eq!(effective_workers(100, 8, Some(0), None), 1);
        // Env bound, with zero/absent ignored.
        assert_eq!(effective_workers(100, 8, None, Some(4)), 4);
        assert_eq!(effective_workers(100, 8, None, Some(0)), 8);
        // Smallest of all wins.
        assert_eq!(effective_workers(100, 8, Some(6), Some(5)), 5);
        assert_eq!(effective_workers(100, 8, Some(3), Some(5)), 3);
        // Degenerate hardware report still runs one worker.
        assert_eq!(effective_workers(100, 0, None, None), 1);
    }

    #[test]
    fn env_capped_run_matches_unbounded() {
        // Env mutation is process-global: restore afterwards so other
        // tests in this binary never observe the cap.
        let items: Vec<u64> = (0..29).collect();
        let unbounded = parallel_map(items.clone(), |i| i * 5 + 3);
        std::env::set_var("PAMDC_PAR_WORKERS", "1");
        let capped = parallel_map(items, |i| i * 5 + 3);
        std::env::remove_var("PAMDC_PAR_WORKERS");
        assert_eq!(capped, unbounded);
    }

    #[test]
    fn handles_empty_and_single() {
        let empty: Vec<i32> = Vec::new();
        assert!(parallel_map(empty, |x: i32| x).is_empty());
        assert_eq!(parallel_map(vec![7], |x| x + 1), vec![8]);
    }

    #[test]
    fn a_single_item_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let ids = parallel_map(vec![()], |()| std::thread::current().id());
        assert_eq!(ids, vec![caller]);
    }

    #[test]
    fn map_chunks_covers_the_range_in_order() {
        let ranges = map_chunks(10, 4, |r| r);
        assert_eq!(ranges, vec![0..4, 4..8, 8..10]);
        assert_eq!(map_chunks(8, 4, |r| r), vec![0..4, 4..8]);
        assert!(map_chunks(0, 4, |r| r).is_empty());
        let flat: Vec<usize> = map_chunks(1000, 64, |r| r.collect::<Vec<_>>()).concat();
        assert_eq!(flat, (0..1000).collect::<Vec<_>>());
    }

    #[test]
    fn join_runs_both_arms() {
        let (a, b) = join(|| 1 + 1, || "two");
        assert_eq!(a, 2);
        assert_eq!(b, "two");
    }

    // The panic surfaces as "boom" on the sequential fallback and as
    // "worker panicked" through a scoped join — either way it must not
    // be swallowed.
    #[test]
    #[should_panic]
    fn worker_panics_propagate() {
        let _ = parallel_map(vec![0, 1, 2, 3], |i| {
            if i == 2 {
                panic!("boom");
            }
            i
        });
    }
}
