//! Steady-state allocation regression test for the whole task driver.
//!
//! The per-worker scratch pools replace the per-task `vec!` temporaries of
//! the stress / hourglass / EOS bodies, and the iteration graph is built
//! once and re-armed by the workers instead of being re-created from
//! futures every iteration. Together: once everything is warm, a leapfrog
//! iteration performs **zero** heap allocations — bodies, runtime and
//! driver included. This test pins that down with a counting global
//! allocator that counts every thread of the process: a 12-cycle run must
//! allocate exactly as often as a 3-cycle run.
//!
//! One worker thread on purpose: with several workers, *which* worker
//! first executes each body type (and therefore when its pool slot and
//! its deque warm up) depends on stealing order, which would make the
//! strict equality flaky. A single worker warms every buffer in the first
//! cycles, deterministically, while still running everything through the
//! real graph and task bodies.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use lulesh_core::Domain;
use lulesh_task::{PartitionPlan, TaskLulesh};

/// Counts every allocation of the process, whichever thread makes it.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Allocations of a fresh `cycles`-cycle run: runtime start-up, graph
/// construction, the iterations, shutdown.
fn allocs_of_run(cycles: u64) -> u64 {
    let d = Arc::new(Domain::build(8, 4, 1, 1, 0));
    let plan = PartitionPlan::fixed(64, 64);
    let before = ALLOCS.load(Ordering::Relaxed);
    let rt = TaskLulesh::new(1);
    let state = rt.run(&d, plan, cycles).expect("stable run");
    drop(rt);
    assert_eq!(state.cycle, cycles);
    ALLOCS.load(Ordering::Relaxed) - before
}

#[test]
fn iterations_stop_allocating_once_warm() {
    let short = allocs_of_run(3);
    let long = allocs_of_run(12);
    // Start-up, graph construction and warm-up (the first cycles growing
    // the pooled buffers and the deques) allocate; every cycle after that
    // must not. Identical counts for 3 and 12 cycles means the per-cycle
    // allocation rate is exactly zero.
    assert_eq!(
        long,
        short,
        "the driver allocated {} extra times over 9 extra cycles",
        long as i64 - short as i64
    );
    // Self-check that the counter works at all.
    assert!(short > 0, "counting allocator saw no allocations");
}
