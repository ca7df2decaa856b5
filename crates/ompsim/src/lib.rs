//! # ompsim — an OpenMP-substitute fork-join runtime
//!
//! Models the execution the LULESH OpenMP reference gets from
//! `#pragma omp parallel for` with libgomp:
//!
//! * a **persistent pool** of worker threads (like `OMP_NUM_THREADS`);
//! * [`Pool::parallel_for`] — a statically scheduled loop: `0..n` is split
//!   into one contiguous chunk per thread (sizes differing by at most one)
//!   and **every loop ends in a join**: the call returns only after every
//!   thread finished its chunk, the synchronization cost the paper's
//!   task-based port eliminates;
//! * [`Pool::parallel_region`] — a fused region executing a closure once
//!   per thread (for the reference's multi-loop parallel regions);
//! * per-thread productive-time counters, mirroring the paper's manual
//!   OpenMP instrumentation for Figure 11.
//!
//! Dispatch is lock-free, like libgomp's: the master publishes a region by
//! bumping an atomic generation that idle workers spin on (bounded, then
//! they park), and joins on a counter of workers still running. Workers
//! never wait for each other.
//!
//! Closures are *borrowed* (non-`'static`), like OpenMP's lexical regions:
//! the pool guarantees every worker finished before `parallel_for` returns,
//! which is what makes the internal lifetime erasure sound.

#![warn(missing_docs)]

use obs::{SpanKind, Tracer};
use parking_lot::{Condvar, Mutex};
use parutil::{static_split, BusyIdleClock, CachePadded, Chunk, UTILIZATION_EPS};
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Polls of the generation (worker) or the completion counter (master) a
/// waiting thread makes before it parks: about 90 µs on a 2.1 GHz Xeon,
/// longer than the gap between two consecutive regions of a LULESH
/// iteration, so a worker parks only when the pool goes idle.
const SPIN_POLLS: u32 = 1 << 12;

/// Every this many polls a waiting thread yields its core instead of
/// pausing, so an oversubscribed pool (more threads than cores) hands the
/// CPU to the threads that still have work.
const YIELD_EVERY: u32 = 64;

/// How long a parked thread sleeps before re-checking on its own. The
/// seq-cst post/park handshake delivers every wakeup; this is a backstop
/// long enough that a lost one shows up as a latency cliff in the tests.
const PARK_BACKSTOP: Duration = Duration::from_millis(100);

/// The job the pool broadcasts to its workers: a borrowed closure invoked
/// as `f(thread_id, nthreads)`.
type Job = *const (dyn Fn(usize, usize) + Sync);

/// Tracing attachment: thread `tid` records [`SpanKind::Region`] spans on
/// `tracer` lane `lane_base + tid`.
struct TraceCtx {
    tracer: Arc<Tracer>,
    lane_base: usize,
}

/// The posted region: written by the master, read by every worker. The
/// master writes `job` only while no worker is inside a region, then
/// publishes it with a store of `gen`; a worker reads `job` only after it
/// loaded that store.
struct Post {
    gen: AtomicU64,
    job: UnsafeCell<Option<(Job, &'static str)>>,
}

struct Shared {
    post: CachePadded<Post>,
    /// Workers still running the current region; the master's join.
    pending: CachePadded<AtomicUsize>,
    /// Workers parked (or about to park) waiting for a new generation.
    sleepers: CachePadded<AtomicUsize>,
    /// The master parked (or is about to park) in its join.
    master_asleep: CachePadded<AtomicBool>,
    /// Set when a worker's closure panicked during the current region; the
    /// master re-raises after the join. Read once per region, written
    /// only on a panic.
    panicked: CachePadded<AtomicBool>,
    /// Set by `Drop` just before its last generation bump.
    shutdown: CachePadded<AtomicBool>,
    sleep_lock: Mutex<()>,
    /// Parked workers wait here for a new generation.
    post_cv: Condvar,
    /// A parked master waits here for `pending == 0`.
    done_cv: Condvar,
    nthreads: usize,
    clocks: Vec<CachePadded<BusyIdleClock>>,
    epoch: Mutex<Instant>,
    /// `None` ⇒ tracing disabled; each region pays one branch.
    trace: Option<TraceCtx>,
}

// SAFETY: every field but `post.job` is `Send + Sync`. `post.job` holds a
// pointer to a `Sync` closure and is written only by the master between
// regions (after it observed `pending == 0` and before it bumps
// `post.gen`), and read by workers only after they observed that bump, so
// no access to it races. The fork-join protocol keeps the closure alive
// until every worker finished it.
unsafe impl Sync for Shared {}
unsafe impl Send for Shared {}

/// One poll of a spin wait: pause, or every [`YIELD_EVERY`]th poll yield.
fn relax(polls: u32) {
    if polls % YIELD_EVERY == YIELD_EVERY - 1 {
        std::thread::yield_now();
    } else {
        std::hint::spin_loop();
    }
}

/// Time `f` on thread `tid`, crediting the single measurement to both the
/// thread's busy clock and (when tracing) a [`SpanKind::Region`] span — so
/// `Pool::stats().busy_ns` equals the summed span durations exactly.
fn exec_region(shared: &Shared, tid: usize, label: &'static str, f: impl FnOnce()) {
    match shared.trace.as_ref() {
        Some(tc) => {
            let start = tc.tracer.now_ns();
            let t0 = Instant::now();
            f();
            let dur = t0.elapsed().as_nanos() as u64;
            shared.clocks[tid].add_busy_ns(dur);
            shared.clocks[tid].count_task();
            tc.tracer.record_interval(
                tc.lane_base + tid,
                SpanKind::Region,
                label,
                start,
                start + dur,
            );
        }
        None => shared.clocks[tid].run_busy(f),
    }
}

/// A persistent fork-join worker pool.
pub struct Pool {
    shared: Arc<Shared>,
    handles: Vec<std::thread::JoinHandle<()>>,
    gen: u64,
}

/// Counter snapshot across the pool's threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Threads in the pool (including the master).
    pub threads: usize,
    /// Σ busy nanoseconds since last reset.
    pub busy_ns: u64,
    /// Parallel loops/regions executed (counted once per thread).
    pub tasks: u64,
    /// Wall nanoseconds since last reset.
    pub wall_ns: u64,
}

impl Pool {
    /// Create a pool of `nthreads` total execution threads. The calling
    /// thread acts as thread 0 (like an OpenMP master), so `nthreads - 1`
    /// OS threads are spawned.
    pub fn new(nthreads: usize) -> Self {
        Self::build(nthreads, None)
    }

    /// [`new`](Self::new) with span tracing attached: thread `tid` records
    /// each parallel region as a [`SpanKind::Region`] span on `tracer`
    /// lane `lane_base + tid`.
    pub fn with_tracer(nthreads: usize, tracer: Arc<Tracer>, lane_base: usize) -> Self {
        Self::build(nthreads, Some(TraceCtx { tracer, lane_base }))
    }

    fn build(nthreads: usize, trace: Option<TraceCtx>) -> Self {
        assert!(nthreads >= 1, "need at least one thread");
        let shared = Arc::new(Shared {
            post: CachePadded(Post {
                gen: AtomicU64::new(0),
                job: UnsafeCell::new(None),
            }),
            pending: CachePadded(AtomicUsize::new(0)),
            sleepers: CachePadded(AtomicUsize::new(0)),
            master_asleep: CachePadded(AtomicBool::new(false)),
            panicked: CachePadded(AtomicBool::new(false)),
            shutdown: CachePadded(AtomicBool::new(false)),
            sleep_lock: Mutex::new(()),
            post_cv: Condvar::new(),
            done_cv: Condvar::new(),
            nthreads,
            clocks: (0..nthreads)
                .map(|_| CachePadded(BusyIdleClock::new()))
                .collect(),
            epoch: Mutex::new(Instant::now()),
            trace,
        });

        let handles = (1..nthreads)
            .map(|tid| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("ompsim-worker-{tid}"))
                    .spawn(move || worker_loop(shared, tid))
                    .expect("spawn pool worker")
            })
            .collect();

        Self {
            shared,
            handles,
            gen: 0,
        }
    }

    /// Number of execution threads (master included).
    pub fn nthreads(&self) -> usize {
        self.shared.nthreads
    }

    /// Execute `f(tid, nthreads)` on every thread and wait for all of them
    /// — one OpenMP `parallel` region.
    pub fn parallel_region<F>(&mut self, f: F)
    where
        F: Fn(usize, usize) + Sync,
    {
        self.parallel_region_labeled("region", f)
    }

    /// [`parallel_region`](Self::parallel_region) with a phase label for
    /// the per-thread trace spans (e.g. the LULESH kernel the region runs).
    pub fn parallel_region_labeled<F>(&mut self, label: &'static str, f: F)
    where
        F: Fn(usize, usize) + Sync,
    {
        let nthreads = self.nthreads();
        if nthreads == 1 {
            exec_region(&self.shared, 0, label, || f(0, 1));
            return;
        }
        let wide: &(dyn Fn(usize, usize) + Sync) = &f;
        // SAFETY (lifetime erasure): `f` outlives this call, and this call
        // does not return until every worker has finished the region (the
        // join below), after which no worker touches the pointer again.
        let job: Job = unsafe { std::mem::transmute::<&(dyn Fn(usize, usize) + Sync), Job>(wide) };
        self.post(job, label);

        // Master participates as thread 0. A panic in `f` must not unwind
        // past the join: the workers still hold the lifetime-erased pointer
        // to `f` until they finish. Catch, join, then re-raise.
        let master_panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            exec_region(&self.shared, 0, label, || f(0, nthreads));
        }))
        .err();

        self.join();

        if let Some(payload) = master_panic {
            std::panic::resume_unwind(payload);
        }
        if self.shared.panicked.load(Ordering::Relaxed) {
            self.shared.panicked.store(false, Ordering::Relaxed);
            panic!("a worker thread panicked inside the parallel region");
        }
    }

    /// Publish `job` as the next region and wake any parked worker.
    fn post(&mut self, job: Job, label: &'static str) {
        let s = &*self.shared;
        self.gen += 1;
        s.pending.store(s.nthreads - 1, Ordering::Relaxed);
        // SAFETY: the previous region's join saw `pending == 0`, so no
        // worker reads the slot until it loads the store below.
        unsafe { *s.post.job.get() = Some((job, label)) };
        // Seq-cst half of the handshake with `wait_for_post`: the parker
        // registers, then re-checks the generation; we bump the
        // generation, then read the registrations. At least one side sees
        // the other's store, so either we notify or it never sleeps.
        s.post.gen.store(self.gen, Ordering::SeqCst);
        if s.sleepers.load(Ordering::SeqCst) > 0 {
            // Lock so the notify cannot land between the parker's check
            // and its wait.
            let _g = s.sleep_lock.lock();
            s.post_cv.notify_all();
        }
    }

    /// Wait until every worker finished the current region: spin, then
    /// park until the last worker out wakes us.
    fn join(&self) {
        let s = &*self.shared;
        let mut polls = 0u32;
        while s.pending.load(Ordering::Acquire) != 0 {
            if polls < SPIN_POLLS {
                relax(polls);
                polls += 1;
                continue;
            }
            // Seq-cst handshake with the last worker out (see `worker_loop`).
            s.master_asleep.store(true, Ordering::SeqCst);
            let mut g = s.sleep_lock.lock();
            if s.pending.load(Ordering::SeqCst) != 0 {
                s.done_cv.wait_for(&mut g, PARK_BACKSTOP);
            }
            drop(g);
            s.master_asleep.store(false, Ordering::Relaxed);
        }
    }

    /// `#pragma omp parallel for schedule(static)`: run `body` over `0..n`
    /// split into one contiguous chunk per thread, then join.
    pub fn parallel_for<F>(&mut self, n: usize, body: F)
    where
        F: Fn(Chunk) + Sync,
    {
        self.parallel_for_labeled("loop", n, body)
    }

    /// [`parallel_for`](Self::parallel_for) with a phase label for the
    /// per-thread trace spans.
    pub fn parallel_for_labeled<F>(&mut self, label: &'static str, n: usize, body: F)
    where
        F: Fn(Chunk) + Sync,
    {
        self.parallel_region_labeled(label, |tid, nthreads| {
            let chunk = static_split(n, nthreads, tid);
            if !chunk.is_empty() {
                body(chunk);
            }
        });
    }

    /// The attached tracer, if tracing is enabled.
    pub fn tracer(&self) -> Option<&Arc<Tracer>> {
        self.shared.trace.as_ref().map(|t| &t.tracer)
    }

    /// The lane tracing was attached at (thread `tid` records on
    /// `lane_base + tid`). `None` when untraced.
    pub fn trace_lane_base(&self) -> Option<usize> {
        self.shared.trace.as_ref().map(|t| t.lane_base)
    }

    /// `#pragma omp parallel for schedule(dynamic, chunk)`: threads grab
    /// `chunk`-sized pieces of `0..n` from a shared counter until the loop
    /// is exhausted, then join. The counterfactual baseline the paper's
    /// "LULESH does not expose load imbalance during its loops" observation
    /// invites (see the `whatif` bench binary).
    pub fn parallel_for_dynamic<F>(&mut self, n: usize, chunk: usize, body: F)
    where
        F: Fn(Chunk) + Sync,
    {
        assert!(chunk > 0, "dynamic chunk must be positive");
        let next = AtomicUsize::new(0);
        self.parallel_region(|_tid, _nthreads| loop {
            let begin = next.fetch_add(chunk, Ordering::Relaxed);
            if begin >= n {
                break;
            }
            body(Chunk {
                begin,
                end: (begin + chunk).min(n),
            });
        });
    }

    /// Counter snapshot since the last reset.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            threads: self.nthreads(),
            busy_ns: self.shared.clocks.iter().map(|c| c.busy_ns()).sum(),
            tasks: self.shared.clocks.iter().map(|c| c.tasks()).sum(),
            wall_ns: self.shared.epoch.lock().elapsed().as_nanos() as u64,
        }
    }

    /// Zero the counters and restart the utilization epoch.
    pub fn reset_counters(&self) {
        for c in &self.shared.clocks {
            c.reset();
        }
        *self.shared.epoch.lock() = Instant::now();
    }

    /// Productive-time ratio since the last reset (Figure 11's metric,
    /// measured the way the paper measures OpenMP: time inside parallel
    /// regions vs. total). Like `taskrt`'s, it returns the *raw* ratio — a
    /// value meaningfully above 1.0 means the busy clocks overcount and
    /// must not be hidden by clamping; debug builds assert ≤ 1 + ε.
    pub fn utilization_since_reset(&self) -> f64 {
        let s = self.stats();
        if s.wall_ns == 0 {
            return 0.0;
        }
        let r = s.busy_ns as f64 / (s.wall_ns as f64 * s.threads as f64);
        debug_assert!(
            r <= 1.0 + UTILIZATION_EPS,
            "busy-time overcounting: productive ratio {r} > 1 + ε"
        );
        r
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        // No region is in flight: every region joins before it returns.
        let s = &*self.shared;
        s.shutdown.store(true, Ordering::Relaxed);
        s.post.gen.store(self.gen + 1, Ordering::SeqCst);
        {
            let _g = s.sleep_lock.lock();
            s.post_cv.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Wait for a generation past `seen`: spin, then park until the master's
/// post wakes us. Returns the new generation.
fn wait_for_post(s: &Shared, seen: u64) -> u64 {
    let mut polls = 0u32;
    loop {
        let gen = s.post.gen.load(Ordering::Acquire);
        if gen != seen {
            return gen;
        }
        if polls < SPIN_POLLS {
            relax(polls);
            polls += 1;
            continue;
        }
        // Seq-cst half of the handshake with `Pool::post`.
        s.sleepers.fetch_add(1, Ordering::SeqCst);
        let mut g = s.sleep_lock.lock();
        if s.post.gen.load(Ordering::SeqCst) == seen {
            s.post_cv.wait_for(&mut g, PARK_BACKSTOP);
        }
        drop(g);
        s.sleepers.fetch_sub(1, Ordering::SeqCst);
    }
}

fn worker_loop(shared: Arc<Shared>, tid: usize) {
    let s = &*shared;
    let mut seen = 0u64;
    loop {
        seen = wait_for_post(s, seen);
        if s.shutdown.load(Ordering::Relaxed) {
            return;
        }
        // SAFETY: the generation we loaded (Acquire) was stored after the
        // master wrote the slot, and the master rewrites it only after we
        // decrement `pending` below.
        let (job, label) = unsafe { (*s.post.job.get()).expect("posted region") };

        // SAFETY: the master keeps the closure alive until `pending` drops
        // to zero, which happens only after this call returns. A panicking
        // closure is caught so the worker still checks out (otherwise the
        // master would wait forever); the master re-raises it after the
        // join.
        let f: &(dyn Fn(usize, usize) + Sync) = unsafe { &*job };
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            exec_region(s, tid, label, || f(tid, s.nthreads));
        }));
        if r.is_err() {
            s.panicked.store(true, Ordering::Relaxed);
        }
        // Release our writes to the master's join. The last worker out
        // completes the seq-cst handshake with a parked master.
        if s.pending.fetch_sub(1, Ordering::SeqCst) == 1 && s.master_asleep.load(Ordering::SeqCst) {
            let _g = s.sleep_lock.lock();
            s.done_cv.notify_one();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parutil::SharedVec;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn parallel_for_covers_all_indices_once() {
        let mut pool = Pool::new(4);
        let hits: Vec<AtomicU64> = (0..1000).map(|_| AtomicU64::new(0)).collect();
        pool.parallel_for(1000, |chunk| {
            for i in chunk.iter() {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "index {i}");
        }
    }

    #[test]
    fn borrowed_state_is_visible_after_barrier() {
        // The defining property of the fork-join barrier: all writes are
        // done when parallel_for returns.
        let mut pool = Pool::new(3);
        let mut data = SharedVec::from_elem(0usize, 100);
        pool.parallel_for(100, |chunk| {
            for i in chunk.iter() {
                // SAFETY: static split → disjoint indices per thread.
                unsafe { data.write(i, i * 3) };
            }
        });
        for (i, v) in data.to_vec().into_iter().enumerate() {
            assert_eq!(v, i * 3);
        }
    }

    #[test]
    fn consecutive_loops_are_ordered() {
        // Loop 2 must observe all of loop 1's writes (barrier semantics).
        let mut pool = Pool::new(4);
        let a = SharedVec::from_elem(0u64, 64);
        let mut b = SharedVec::from_elem(0u64, 64);
        pool.parallel_for(64, |chunk| {
            for i in chunk.iter() {
                // SAFETY: disjoint static chunks.
                unsafe { a.write(i, (i + 1) as u64) };
            }
        });
        pool.parallel_for(64, |chunk| {
            for i in chunk.iter() {
                // Read a *different* thread's region: reversed index.
                let j = 63 - i;
                // SAFETY: loop 1 completed (barrier); reads race nothing.
                unsafe { b.write(i, a.load(j) * 2) };
            }
        });
        for (i, v) in b.to_vec().into_iter().enumerate() {
            assert_eq!(v, ((63 - i) + 1) as u64 * 2);
        }
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        let mut pool = Pool::new(1);
        let total = AtomicU64::new(0);
        pool.parallel_for(10, |chunk| {
            for i in chunk.iter() {
                total.fetch_add(i as u64, Ordering::Relaxed);
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 45);
    }

    #[test]
    fn parallel_region_runs_once_per_thread() {
        let mut pool = Pool::new(5);
        let count = AtomicU64::new(0);
        let tid_sum = AtomicU64::new(0);
        pool.parallel_region(|tid, n| {
            assert_eq!(n, 5);
            count.fetch_add(1, Ordering::SeqCst);
            tid_sum.fetch_add(tid as u64, Ordering::SeqCst);
        });
        assert_eq!(count.load(Ordering::SeqCst), 5);
        assert_eq!(tid_sum.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn many_consecutive_regions() {
        // Five threads oversubscribe a small host: every spin wait must
        // still hand its core to the threads with work.
        for threads in [3, 5] {
            let mut pool = Pool::new(threads);
            let counter = AtomicU64::new(0);
            for _ in 0..200 {
                pool.parallel_region(|_, _| {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
            assert_eq!(counter.load(Ordering::Relaxed), 200 * threads as u64);
        }
    }

    #[test]
    fn parked_threads_wake_without_the_backstop() {
        // Each round posts only once both workers registered to park, and
        // worker 1 finishes only once the master registered to park in
        // its join. Every wakeup must then come from the post or from the
        // last worker out: a lost one costs a whole backstop.
        const ROUNDS: u32 = 10;
        let mut pool = Pool::new(3);
        let shared = Arc::clone(&pool.shared);
        let count = AtomicU64::new(0);
        let t0 = Instant::now();
        for _ in 0..ROUNDS {
            while shared.sleepers.load(Ordering::SeqCst) < 2 {
                std::thread::yield_now();
            }
            pool.parallel_region(|tid, _| {
                while tid == 1 && !shared.master_asleep.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                count.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(count.load(Ordering::Relaxed), 3 * ROUNDS as u64);
        let took = t0.elapsed();
        assert!(
            took < ROUNDS * PARK_BACKSTOP / 2,
            "{ROUNDS} rounds took {took:?}"
        );
    }

    #[test]
    fn stats_count_regions_per_thread() {
        let mut pool = Pool::new(2);
        pool.reset_counters();
        for _ in 0..10 {
            pool.parallel_for(100, |_c| {});
        }
        let s = pool.stats();
        assert_eq!(s.tasks, 20, "10 loops × 2 threads");
        assert!(s.busy_ns > 0);
        let u = pool.utilization_since_reset();
        assert!(
            (0.0..=1.0 + UTILIZATION_EPS).contains(&u),
            "utilization {u}"
        );
    }

    #[test]
    fn dynamic_schedule_covers_all_indices_once() {
        let mut pool = Pool::new(4);
        let hits: Vec<AtomicU64> = (0..997).map(|_| AtomicU64::new(0)).collect();
        pool.parallel_for_dynamic(997, 16, |chunk| {
            for i in chunk.iter() {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "index {i}");
        }
    }

    #[test]
    fn dynamic_matches_static_results() {
        // Scheduling must not change what gets computed.
        let mut pool = Pool::new(3);
        let mut a = SharedVec::from_elem(0u64, 200);
        let mut b = SharedVec::from_elem(0u64, 200);
        pool.parallel_for(200, |c| {
            for i in c.iter() {
                // SAFETY: disjoint chunks.
                unsafe { a.write(i, (i * i) as u64) };
            }
        });
        pool.parallel_for_dynamic(200, 7, |c| {
            for i in c.iter() {
                // SAFETY: dynamic chunks are disjoint (atomic counter).
                unsafe { b.write(i, (i * i) as u64) };
            }
        });
        assert_eq!(a.to_vec(), b.to_vec());
    }

    #[test]
    fn empty_loop_is_fine() {
        let mut pool = Pool::new(4);
        pool.parallel_for(0, |_c| panic!("no chunk should be non-empty"));
        pool.parallel_for(2, |c| assert!(c.len() <= 1));
    }

    #[test]
    fn pool_drop_joins() {
        let pool = Pool::new(6);
        drop(pool);
    }

    #[test]
    fn worker_panic_is_reraised_on_master_and_pool_survives() {
        let mut pool = Pool::new(3);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.parallel_region(|tid, _| {
                if tid == 2 {
                    panic!("boom on worker");
                }
            });
        }));
        assert!(r.is_err(), "worker panic must surface on the master");
        // The pool must remain usable afterwards.
        let count = AtomicU64::new(0);
        pool.parallel_region(|_, _| {
            count.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(count.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn master_panic_is_reraised_after_join() {
        let mut pool = Pool::new(2);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.parallel_region(|tid, _| {
                if tid == 0 {
                    panic!("boom on master");
                }
            });
        }));
        assert!(r.is_err());
        let count = AtomicU64::new(0);
        pool.parallel_region(|_, _| {
            count.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(count.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn traced_pool_records_region_spans_matching_busy_clock() {
        let tracer = Tracer::shared(3);
        let mut pool = Pool::with_tracer(3, Arc::clone(&tracer), 0);
        pool.reset_counters();
        for _ in 0..4 {
            pool.parallel_for_labeled("stress", 300, |c| {
                std::hint::black_box(c.iter().map(|i| i as u64).sum::<u64>());
            });
        }
        let s = pool.stats();
        let spans = tracer.drain();
        let regions: Vec<_> = spans
            .iter()
            .filter(|sp| sp.kind == SpanKind::Region)
            .collect();
        assert_eq!(regions.len(), 12, "4 loops × 3 threads");
        assert!(regions.iter().all(|sp| sp.label == "stress"));
        let span_ns: u64 = regions.iter().map(|sp| sp.dur_ns()).sum();
        assert_eq!(
            s.busy_ns, span_ns,
            "busy clock and region spans must share one measurement"
        );
        // Lanes 0..3 correspond to threads 0..3.
        assert!(regions.iter().all(|sp| sp.worker < 3));
    }

    #[test]
    fn untraced_pool_has_no_tracer() {
        let pool = Pool::new(2);
        assert!(pool.tracer().is_none());
        assert!(pool.trace_lane_base().is_none());
    }

    #[test]
    fn static_schedule_is_deterministic() {
        // The same (n, nthreads) must always produce the same chunks — a
        // property LULESH's bitwise reproducibility relies on.
        let mut pool = Pool::new(3);
        let chunks = Mutex::new(vec![Chunk { begin: 0, end: 0 }; 3]);
        for _ in 0..5 {
            pool.parallel_region(|tid, n| {
                let c = static_split(100, n, tid);
                chunks.lock()[tid] = c;
            });
            let got = chunks.lock().clone();
            assert_eq!(got[0], Chunk { begin: 0, end: 34 });
            assert_eq!(got[1], Chunk { begin: 34, end: 67 });
            assert_eq!(
                got[2],
                Chunk {
                    begin: 67,
                    end: 100
                }
            );
        }
    }
}
