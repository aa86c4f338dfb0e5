//! RAII tracing spans with a thread-local path stack.
//!
//! A span is a named interval: `let _s = obs::span!("plan");` opens it,
//! dropping the guard closes it, and nesting is positional — the span's
//! full path is the slash-join of every open span on the thread
//! (`tick/plan/hier/intra/dc3`). Each stack frame holds its span's full
//! path, built once on entry from the parent frame's, so closing a span
//! moves its path into the collector without re-joining the stack.
//! Stats accumulate per path in the installed
//! [`Collector`](crate::Collector) and are drained per tick by the
//! simulation loop into the JSONL trace.
//!
//! **Replay safety:** guards are complete no-ops unless the installed
//! collector has timing enabled (only traced runs do), so wall-clock is
//! never even read on untraced runs and can never influence decisions.
//!
//! **Unbalanced drops:** each guard remembers the stack depth it opened
//! at and *truncates* back to that depth on drop rather than popping
//! blindly. Dropping an outer guard before an inner one (easy to do
//! across `parallel_map` worker boundaries or early returns) closes the
//! abandoned children without panicking; the stale inner guard then
//! drops as a no-op.

use std::cell::RefCell;
use std::time::Instant;

thread_local! {
    // Full paths of the open spans, innermost last. Workers spawned
    // while tracing seed element 0 with the spawning thread's path (see
    // `seed_prefix`), so worker-side paths nest under the spawn site.
    static STACK: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

/// Whether spans on this thread currently record (collector present
/// with timing on). Callers formatting dynamic span names check this
/// first so untraced runs never pay for the `format!`.
pub fn timing_enabled() -> bool {
    crate::metrics::with_current(|c| c.timing()).unwrap_or(false)
}

/// Opens a span with a static name.
pub fn enter(name: &'static str) -> SpanGuard {
    if !timing_enabled() {
        return SpanGuard { open: None };
    }
    let start = Instant::now();
    open(name, start)
}

/// Opens a span with a lazily formatted name (per-DC shards and other
/// data-dependent spans); `f` runs only when timing is enabled.
pub fn enter_dyn(f: impl FnOnce() -> String) -> SpanGuard {
    if !timing_enabled() {
        return SpanGuard { open: None };
    }
    let start = Instant::now();
    open(&f(), start)
}

/// Pushes the frame of span `name`: its parent's path plus `name`.
fn open(name: &str, start: Instant) -> SpanGuard {
    debug_assert!(
        !name.contains('/'),
        "span names are path segments; '/' is the separator: {name:?}"
    );
    let depth = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let path = match s.last() {
            Some(parent) => {
                let mut path = String::with_capacity(parent.len() + 1 + name.len());
                path.push_str(parent);
                path.push('/');
                path.push_str(name);
                path
            }
            None => name.to_string(),
        };
        s.push(path);
        s.len() - 1
    });
    SpanGuard {
        open: Some((depth, start)),
    }
}

/// The path of the innermost open span, if any — captured at
/// `parallel_map` spawn time as the workers' prefix.
pub fn current_path() -> Option<String> {
    STACK.with(|s| s.borrow().last().cloned())
}

/// Seeds this thread's stack with a spawn site's path (worker
/// startup). `None` clears it.
pub fn seed_prefix(prefix: Option<String>) {
    STACK.with(|s| {
        let mut s = s.borrow_mut();
        s.clear();
        if let Some(p) = prefix {
            s.push(p);
        }
    });
}

/// Closes its span on drop. Obtain via [`crate::span!`], [`enter`] or
/// [`enter_dyn`].
///
/// A span's interval covers its own bookkeeping (naming, building its
/// path and the stack push) but not the wait for the collector's span
/// map, so a parent's time splits into its children's with little left
/// between them.
pub struct SpanGuard {
    /// Stack depth and start time; `None` when timing is off.
    open: Option<(usize, Instant)>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some((depth, start)) = self.open else {
            return;
        };
        let path = STACK.with(|s| {
            let mut s = s.borrow_mut();
            if depth >= s.len() {
                // An enclosing guard already truncated past us
                // (unbalanced drop order) — nothing left to close.
                return None;
            }
            s.truncate(depth + 1);
            s.pop()
        });
        // Read before the collector's span map is locked: the map is
        // shared with worker threads, and waiting for it is not the span's.
        let elapsed_ns = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        if let Some(path) = path {
            crate::metrics::with_current(|c| c.record_span(path, elapsed_ns));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{Collector, CollectorGuard};
    use std::sync::Arc;

    fn traced() -> (Arc<Collector>, CollectorGuard) {
        let c = Arc::new(Collector::new(true));
        let g = CollectorGuard::install(c.clone());
        (c, g)
    }

    #[test]
    fn nesting_builds_slash_paths() {
        let (c, _g) = traced();
        {
            let _tick = enter("tick");
            {
                let _plan = enter("plan");
                let _bf = enter("bestfit");
            }
            let _exec = enter("execute");
        }
        let spans = c.take_spans();
        let paths: Vec<&str> = spans.keys().map(|s| s.as_str()).collect();
        assert_eq!(
            paths,
            ["tick", "tick/execute", "tick/plan", "tick/plan/bestfit"]
        );
        assert!(spans.values().all(|s| s.count == 1));
    }

    #[test]
    fn zero_duration_spans_still_record() {
        let (c, _g) = traced();
        drop(enter("instant"));
        let spans = c.take_spans();
        let stat = spans.get("instant").expect("span recorded");
        assert_eq!(stat.count, 1);
        // total_ns may legitimately be 0 on a coarse clock — the span
        // must still appear with its count.
    }

    #[test]
    fn unbalanced_drop_order_is_safe() {
        let (c, _g) = traced();
        let outer = enter("outer");
        let inner = enter("inner");
        drop(outer); // closes outer AND abandons inner
        drop(inner); // stale: must be a silent no-op
        let spans = c.take_spans();
        assert!(spans.contains_key("outer"));
        // The abandoned inner span never recorded.
        assert!(!spans.contains_key("outer/inner"));
        assert_eq!(current_path(), None, "stack fully unwound");
        // The stack is healthy afterwards: new spans nest from the root.
        drop(enter("fresh"));
        assert!(c.take_spans().contains_key("fresh"));
    }

    #[test]
    fn disabled_without_timing_collector() {
        let c = Arc::new(Collector::new(false));
        let _g = CollectorGuard::install(c.clone());
        drop(enter("invisible"));
        assert!(c.take_spans().is_empty());
        assert_eq!(current_path(), None);
    }

    #[test]
    fn dyn_name_not_formatted_when_disabled() {
        let formatted = std::cell::Cell::new(false);
        drop(enter_dyn(|| {
            formatted.set(true);
            "dc0".into()
        }));
        assert!(!formatted.get(), "no collector => closure must not run");
    }

    // Workers spawned mid-span inherit the spawning thread's path as a
    // prefix; their spans nest under it in the shared collector.
    #[test]
    fn worker_spans_nest_under_spawn_path() {
        let (c, _g) = traced();
        {
            let _round = enter("round");
            let _intra = enter("intra");
            let shards: Vec<usize> = (0..4).collect();
            pamdc_simcore::par::parallel_map(shards, |i| {
                let _s = enter_dyn(|| format!("dc{i}"));
                i
            });
        }
        let spans = c.take_spans();
        for i in 0..4 {
            let key = format!("round/intra/dc{i}");
            assert!(spans.contains_key(key.as_str()), "missing {key}: {spans:?}");
        }
        assert!(spans.contains_key("round"));
        assert!(spans.contains_key("round/intra"));
    }

    // Same spans, any worker budget: identical path sets and counts
    // (durations differ — they are wall-clock).
    #[test]
    fn span_paths_deterministic_at_any_budget() {
        let mut shapes: Vec<Vec<(String, u64)>> = Vec::new();
        for jobs in [1usize, 3, 8] {
            let (c, _g) = traced();
            {
                let _root = enter("root");
                pamdc_simcore::par::parallel_map_bounded(
                    (0..12).collect::<Vec<usize>>(),
                    Some(jobs),
                    |i| {
                        let _s = enter_dyn(|| format!("item{i}"));
                        i
                    },
                );
            }
            let shape: Vec<(String, u64)> = c
                .take_spans()
                .into_iter()
                .map(|(path, stat)| (path, stat.count))
                .collect();
            shapes.push(shape);
        }
        assert!(shapes.windows(2).all(|w| w[0] == w[1]), "{shapes:?}");
    }
}
