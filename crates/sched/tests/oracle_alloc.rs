//! The consolidation pass's scoring calls must not touch the heap:
//! `TrueOracle::sla` and `ScheduleEvaluator::move_gain` run tens of
//! millions of times a simulated day. A counting global allocator
//! tallies allocations per thread, so the test harness's other threads
//! never show up in a measurement.

use pamdc_infra::resources::Resources;
use pamdc_sched::evaluator::ScheduleEvaluator;
use pamdc_sched::oracle::{QosOracle, TrueOracle};
use pamdc_sched::problem::synthetic;
use pamdc_sched::problem::Schedule;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count() {
    // `try_with`: the slot may already be gone while a thread exits.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations the calling thread makes while running `f`.
fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn the_counter_sees_an_allocation() {
    let n = allocations_during(|| {
        black_box(vec![Resources::ZERO; 2]);
    });
    assert_eq!(n, 1);
}

#[test]
fn true_oracle_sla_allocates_nothing() {
    let p = synthetic::problem(8, 4, 120.0);
    let oracle = TrueOracle::new();
    let cap = p.hosts[0].capacity;
    let totals = [
        Resources::new(0.3 * cap.cpu, 0.3 * cap.mem_mb, 100.0, 100.0),
        Resources::new(2.0 * cap.cpu, 0.3 * cap.mem_mb, 100.0, 100.0),
        Resources::new(0.3 * cap.cpu, 3.0 * cap.mem_mb, 100.0, 100.0),
        Resources::ZERO,
    ];
    let mut sum = 0.0;
    let n = allocations_during(|| {
        for vm in &p.vms {
            for host in &p.hosts {
                for total in &totals {
                    sum += oracle.sla(vm, host, total, 0.05);
                }
            }
        }
    });
    assert!(black_box(sum) > 0.0);
    assert_eq!(n, 0, "TrueOracle::sla allocated {n} times");
}

#[test]
fn move_gain_allocates_nothing() {
    let p = synthetic::problem(12, 8, 80.0);
    let oracle = TrueOracle::new();
    let schedule = Schedule {
        assignment: (0..p.vms.len()).map(|i| p.hosts[i % 3].id).collect(),
    };
    let eval = ScheduleEvaluator::new(&p, &oracle, &schedule);
    let departures: Vec<_> = (0..p.vms.len()).map(|vi| eval.leave(vi)).collect();
    let mut gains = 0.0;
    let n = allocations_during(|| {
        for (vi, departure) in departures.iter().enumerate() {
            for to in 0..p.hosts.len() {
                if to != eval.host_of(vi) {
                    gains += eval.move_gain(vi, to, departure);
                }
            }
        }
    });
    assert!(black_box(gains).is_finite());
    assert_eq!(n, 0, "move_gain allocated {n} times");
}
