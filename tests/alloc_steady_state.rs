//! Steady-state allocation regression test for both step interpreters.
//!
//! Once warm, a leapfrog iteration performs **zero** heap allocations in
//! the fork-join driver on either plan (one parallel region per plan stage,
//! scratch sized once per run) and in the task driver (the iteration graph is built once
//! and re-armed by the workers; the per-worker kernel scratch slots only
//! grow). A counting global allocator that counts every thread of the
//! process pins this down: a 12-cycle run must allocate exactly as often
//! as a 3-cycle run.
//!
//! The allocator is process-global, so the target has no libtest harness
//! (`harness = false`): `main` runs the drivers one after the other on
//! the process's only thread, and no harness thread allocates while a
//! window is counted. The task driver gets one worker on purpose: with
//! several, *which* worker first executes each body type (and therefore
//! when its scratch slot and its deque warm up) depends on stealing order,
//! which would make the strict equality flaky. A single worker warms every
//! buffer in the first cycles, deterministically, while still running
//! everything through the real graph and task bodies.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use lulesh::core::Domain;
use lulesh::omp::OmpLulesh;
use lulesh::task::{PartitionPlan, TaskLulesh};

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

/// Allocations of a fresh `cycles`-cycle run of `run`: runner start-up,
/// plan and scratch (and graph) construction, the iterations, shutdown.
fn allocs_of_run(cycles: u64, run: impl Fn(u64) -> u64) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    assert_eq!(run(cycles), cycles, "stable run");
    ALLOCS.load(Ordering::Relaxed) - before
}

fn omp(cycles: u64) -> u64 {
    let d = Domain::build(8, 4, 1, 1, 0);
    OmpLulesh::new(2).run(&d, cycles).unwrap().cycle
}

fn omp_reference(cycles: u64) -> u64 {
    let d = Domain::build(8, 4, 1, 1, 0);
    OmpLulesh::new(2).reference().run(&d, cycles).unwrap().cycle
}

fn task(cycles: u64) -> u64 {
    let d = Arc::new(Domain::build(8, 4, 1, 1, 0));
    let plan = PartitionPlan::fixed(64, 64);
    TaskLulesh::new(1).run(&d, plan, cycles).unwrap().cycle
}

fn main() {
    for (driver, run) in [
        ("omp", omp as fn(u64) -> u64),
        ("omp reference", omp_reference),
        ("task", task),
    ] {
        let short = allocs_of_run(3, run);
        let long = allocs_of_run(12, run);
        // Start-up and warm-up allocate; every cycle after that must not.
        // Identical counts for 3 and 12 cycles means the per-cycle
        // allocation rate is exactly zero.
        assert_eq!(
            long,
            short,
            "{driver}: allocated {} extra times over 9 extra cycles",
            long as i64 - short as i64
        );
        // Self-check that the counter works at all.
        assert!(short > 0, "{driver}: counting allocator saw no allocations");
    }
    // The summary libtest would print, so the target reads like the rest.
    println!("test iterations_stop_allocating_once_warm ... ok");
    println!("test result: ok. 1 passed; 0 failed; 0 ignored; 0 measured; 0 filtered out");
}
