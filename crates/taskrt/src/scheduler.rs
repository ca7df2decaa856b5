//! The work-stealing task scheduler: N OS worker threads, each owning a
//! LIFO deque; a global FIFO injector for external spawns; FIFO stealing
//! between workers. This mirrors HPX's default local scheduling policy
//! (without priorities, which the paper does not use).

use crate::future::{promise_pair, Future};
use crate::graph::{self, NodeRef};
use crate::phases::{self, PhaseCounters, PhaseLabels, PhaseStat};
use crossbeam::deque::{Injector, Stealer, Worker};
use obs::{Span, SpanKind, Tracer};
use parking_lot::{Condvar, Mutex};
use parutil::{BusyIdleClock, CachePadded};
use std::cell::{Cell, RefCell};
use std::sync::atomic::{fence, AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a parked worker sleeps before re-scanning on its own. With the
/// seq-cst submit/park handshake this is a pure backstop, never the
/// mechanism that delivers work — generous enough that a lost wakeup shows
/// up as an obvious latency cliff in the regression test instead of being
/// silently absorbed.
const PARK_BACKSTOP: Duration = Duration::from_millis(100);

/// Slack allowed on the productive-time ratio before the debug assertion
/// in [`Runtime::utilization_since_reset`] fires: the wall clock and the
/// per-worker busy clocks are read at slightly different instants, so tiny
/// overshoots are measurement skew, not overcounting.
const UTILIZATION_EPS: f64 = 0.05;

/// Failed scans of every queue an idle worker makes back to back before it
/// starts yielding its core between scans: ~20 µs, a few task grains of a
/// microsecond-grain graph, so the gap at a sync point is bridged without
/// a sleep/wake round trip.
const POLL_SCANS: u32 = 200;

/// Further failed scans, each followed by `yield_now`, before the worker
/// parks. Yielding keeps an idle worker from starving a runnable one when
/// the pool has more threads than cores (pure spinning there is several
/// times slower than parking); the bound (~1 ms of an otherwise idle
/// core) keeps an idle pool from burning CPU.
const YIELD_SCANS: u32 = 2000;

/// What the deques hold: a one-shot closure (`spawn`, continuations) or a
/// node of a running [`crate::StepGraph`].
pub(crate) enum Task {
    Closure(Box<dyn FnOnce() + Send + 'static>),
    Node(NodeRef),
}

/// Tracing attachment: where this runtime's workers record spans.
/// `lane_base + worker_index` is a worker's lane; `lane_base + threads`
/// is the control lane (spans recorded off-worker).
pub(crate) struct TraceCtx {
    pub(crate) tracer: Arc<Tracer>,
    pub(crate) lane_base: usize,
}

struct Inner {
    injector: Injector<Task>,
    stealers: Vec<Stealer<Task>>,
    clocks: Vec<CachePadded<BusyIdleClock>>,
    /// Per-worker per-phase busy counters (always on; the probe's
    /// `task.phase.*` rows read them from untraced runs, and they agree
    /// with the spans `--metrics` aggregates), indexed by the slots of
    /// `phase_labels`.
    phase_counters: Vec<CachePadded<PhaseCounters>>,
    phase_labels: PhaseLabels,
    sleep_lock: Mutex<()>,
    sleep_cv: Condvar,
    sleepers: AtomicUsize,
    shutdown: AtomicBool,
    epoch: Mutex<Instant>,
    /// `None` ⇒ tracing disabled; the hot paths pay one branch.
    trace: Option<TraceCtx>,
}

thread_local! {
    static CURRENT: RefCell<Option<WorkerCtx>> = const { RefCell::new(None) };
}

struct WorkerCtx {
    inner: *const Inner,
    index: usize,
    queue: Worker<Task>,
    /// xorshift64 state for randomized steal-victim starts (seeded per
    /// worker; deterministic across runs, distinct across workers).
    rng: Cell<u64>,
}

impl WorkerCtx {
    /// Next pseudo-random u64 (xorshift64 — statistical quality is
    /// irrelevant here; we only need victim starts decorrelated across
    /// workers so idle workers stop hammering victim 0 in lockstep).
    fn next_rand(&self) -> u64 {
        let mut x = self.rng.get();
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng.set(x);
        x
    }
}

/// Worker index of the calling thread within its runtime, or `None` off
/// the worker pool. Lets per-worker scratch pools index without locks.
pub fn worker_index() -> Option<usize> {
    CURRENT.with(|c| c.borrow().as_ref().map(|ctx| ctx.index))
}

/// `true` when the calling thread is a `taskrt` worker (of any runtime).
pub(crate) fn on_worker_thread() -> bool {
    CURRENT.with(|c| c.borrow().is_some())
}

/// Handle to a task runtime. Cheap to clone; dropping the last external
/// handle shuts the workers down (pending tasks are abandoned).
pub struct Runtime {
    inner: Arc<Inner>,
    /// Join handles, owned by the *control-side* handle group.
    handles: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
    /// Only the handle returned by [`Runtime::new`] shuts the pool down on
    /// drop; clones (including those captured inside tasks and
    /// continuations) are passive. This makes shutdown deterministic —
    /// counting `Arc` strong references would race against clones parked in
    /// not-yet-run continuations.
    owner: bool,
}

impl Clone for Runtime {
    fn clone(&self) -> Self {
        Self {
            inner: Arc::clone(&self.inner),
            handles: Arc::clone(&self.handles),
            owner: false,
        }
    }
}

/// Counter snapshot across all workers, the substrate of Figure 11.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuntimeStats {
    /// Worker threads in the pool.
    pub threads: usize,
    /// Σ busy nanoseconds over workers since the last reset.
    pub busy_ns: u64,
    /// Tasks executed since the last reset.
    pub tasks: u64,
    /// Successful steals since the last reset.
    pub steals: u64,
    /// Wall nanoseconds since the last reset.
    pub wall_ns: u64,
}

impl Runtime {
    /// Start a runtime with `threads` OS worker threads (≥ 1).
    pub fn new(threads: usize) -> Self {
        Self::build(threads, None)
    }

    /// [`new`](Self::new) with span tracing attached: worker `i` records
    /// onto `tracer` lane `lane_base + i` (driver-level spans go past the
    /// workers, on lane `lane_base + threads`).
    pub fn with_tracer(threads: usize, tracer: Arc<Tracer>, lane_base: usize) -> Self {
        Self::build(threads, Some(TraceCtx { tracer, lane_base }))
    }

    fn build(threads: usize, trace: Option<TraceCtx>) -> Self {
        assert!(threads >= 1, "need at least one worker thread");

        let workers: Vec<Worker<Task>> = (0..threads).map(|_| Worker::new_lifo()).collect();
        let stealers = workers.iter().map(|w| w.stealer()).collect();
        let clocks = (0..threads)
            .map(|_| CachePadded(BusyIdleClock::new()))
            .collect();
        let phase_counters = (0..threads)
            .map(|_| CachePadded(PhaseCounters::new()))
            .collect();

        let inner = Arc::new(Inner {
            injector: Injector::new(),
            stealers,
            clocks,
            phase_counters,
            phase_labels: PhaseLabels::new(),
            sleep_lock: Mutex::new(()),
            sleep_cv: Condvar::new(),
            sleepers: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            epoch: Mutex::new(Instant::now()),
            trace,
        });

        let handles = workers
            .into_iter()
            .enumerate()
            .map(|(index, queue)| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("taskrt-worker-{index}"))
                    .spawn(move || worker_loop(inner, index, queue))
                    .expect("spawn worker thread")
            })
            .collect();

        Self {
            inner,
            handles: Arc::new(Mutex::new(handles)),
            owner: true,
        }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.inner.stealers.len()
    }

    /// `hpx::async`: run `f` as a task, returning its future.
    pub fn spawn<T, F>(&self, f: F) -> Future<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        self.spawn_labeled("task", f)
    }

    /// [`spawn`](Self::spawn) with a phase label for the task's trace
    /// span (e.g. the LULESH kernel phase the task belongs to).
    pub fn spawn_labeled<T, F>(&self, label: &'static str, f: F) -> Future<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let (promise, fut) = promise_pair();
        self.submit(Task::Closure(Box::new(move || {
            // Only the user closure is timed; promise/continuation
            // bookkeeping stays outside the busy clock and the span.
            let value = exec_timed(label, f);
            promise.set_value(value);
        })));
        fut
    }

    /// The attached tracer, if tracing is enabled.
    pub fn tracer(&self) -> Option<&Arc<Tracer>> {
        self.inner.trace.as_ref().map(|t| &t.tracer)
    }

    /// The lane this runtime's tracing was attached at (workers occupy
    /// `lane_base..lane_base + threads`; `lane_base + threads` is the
    /// control lane). `None` when untraced.
    pub fn trace_lane_base(&self) -> Option<usize> {
        self.inner.trace.as_ref().map(|t| t.lane_base)
    }

    /// The lane to record a span on from the calling thread: the calling
    /// worker's lane when invoked on one of this runtime's workers, the
    /// control lane otherwise. Meaningless (0) when untraced.
    pub fn current_lane(&self) -> usize {
        let Some(tc) = self.inner.trace.as_ref() else {
            return 0;
        };
        let idx = CURRENT.with(|c| {
            c.borrow().as_ref().and_then(|ctx| {
                std::ptr::eq(ctx.inner, Arc::as_ptr(&self.inner)).then_some(ctx.index)
            })
        });
        tc.lane_base + idx.unwrap_or(self.threads())
    }

    /// Enqueue a raw task: to the local deque when called from one of this
    /// runtime's workers (HPX "local" policy), to the injector otherwise.
    pub(crate) fn submit(&self, task: Task) {
        let leftover = CURRENT.with(|c| {
            let ctx = c.borrow();
            match ctx.as_ref() {
                Some(ctx) if std::ptr::eq(ctx.inner, Arc::as_ptr(&self.inner)) => {
                    ctx.queue.push(task);
                    None
                }
                _ => Some(task),
            }
        });
        if let Some(task) = leftover {
            self.inner.injector.push(task);
        }
        self.inner.wake(1);
    }

    /// Identity of this runtime's worker pool (shared by clones).
    pub(crate) fn id(&self) -> usize {
        Arc::as_ptr(&self.inner) as usize
    }

    /// The phase-counter slot of `label` on this runtime.
    pub(crate) fn phase_slot(&self, label: &'static str) -> usize {
        self.inner.phase_labels.slot(label)
    }

    /// Counter snapshot since the last [`reset_counters`](Self::reset_counters).
    pub fn stats(&self) -> RuntimeStats {
        let wall_ns = self.inner.epoch.lock().elapsed().as_nanos() as u64;
        RuntimeStats {
            threads: self.threads(),
            busy_ns: self.inner.clocks.iter().map(|c| c.busy_ns()).sum(),
            tasks: self.inner.clocks.iter().map(|c| c.tasks()).sum(),
            steals: self.inner.clocks.iter().map(|c| c.steals()).sum(),
            wall_ns,
        }
    }

    /// Zero all counters (including per-phase aggregates) and restart the
    /// utilization epoch.
    pub fn reset_counters(&self) {
        for c in &self.inner.clocks {
            c.reset();
        }
        for pc in &self.inner.phase_counters {
            pc.reset();
        }
        *self.inner.epoch.lock() = Instant::now();
    }

    /// Productive-time ratio since the last reset: Σ busy / (threads × wall),
    /// the quantity HPX exposes as (1 − idle-rate) and the paper plots in
    /// Figure 11. Returns the *raw* ratio — a value meaningfully above 1.0
    /// means the busy clocks overcount (e.g. a task timed twice) and must
    /// not be hidden by clamping; debug builds assert ≤ 1 + ε.
    pub fn utilization_since_reset(&self) -> f64 {
        let r = self.stats().utilization();
        debug_assert!(
            r <= 1.0 + UTILIZATION_EPS,
            "busy-time overcounting: productive ratio {r} > 1 + ε"
        );
        r
    }

    /// Per-phase busy/task aggregates, merged across workers and sorted by
    /// label. Always available (independent of span tracing); zeroed by
    /// [`reset_counters`](Self::reset_counters).
    pub fn phase_stats(&self) -> Vec<PhaseStat> {
        phases::snapshot(
            &self.inner.phase_labels,
            self.inner.phase_counters.iter().map(|pc| &pc.0),
        )
    }
}

impl Inner {
    /// Wake up to `n` parked workers after queueing work, with one lock
    /// acquisition.
    fn wake(&self, n: usize) {
        if n == 0 {
            return;
        }
        // Dekker-style handshake with the park path in `worker_loop`. The
        // submitter's order is push-queue → read-sleepers; the parker's is
        // increment-sleepers → scan-queues. With weaker orderings both
        // sides can read the other's *old* value (store-buffer reordering)
        // — submitter sees sleepers == 0, parker sees empty queues — and
        // the task sits until a timeout. The seq-cst fences on both sides
        // make that outcome impossible: at least one side observes the
        // other's store, so either we notify or the parker's re-scan finds
        // the task.
        fence(Ordering::SeqCst);
        let sleepers = self.sleepers.load(Ordering::Relaxed);
        if sleepers > 0 {
            // Lock before notifying so the wakeup cannot slip into the
            // window between the parker's queue scan and its wait.
            let _g = self.sleep_lock.lock();
            for _ in 0..n.min(sleepers) {
                self.sleep_cv.notify_one();
            }
        }
    }
}

impl RuntimeStats {
    /// Raw productive-time ratio Σ busy / (threads × wall) for this
    /// snapshot. Unclamped on purpose — see
    /// [`Runtime::utilization_since_reset`].
    pub fn utilization(&self) -> f64 {
        if self.wall_ns == 0 || self.threads == 0 {
            return 0.0;
        }
        self.busy_ns as f64 / (self.wall_ns as f64 * self.threads as f64)
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        // Clones are passive; only the original handle shuts down. (It can
        // never drop on a worker thread — workers only ever hold clones.)
        if !self.owner {
            return;
        }
        debug_assert!(!on_worker_thread(), "owner handle dropped on a worker");
        self.inner.shutdown.store(true, Ordering::Release);
        {
            let _g = self.inner.sleep_lock.lock();
            self.inner.sleep_cv.notify_all();
        }
        let mut handles = self.handles.lock();
        for h in handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(inner: Arc<Inner>, index: usize, queue: Worker<Task>) {
    CURRENT.with(|c| {
        *c.borrow_mut() = Some(WorkerCtx {
            inner: Arc::as_ptr(&inner),
            index,
            queue,
            // splitmix64 of the worker index: deterministic, non-zero,
            // decorrelated across workers.
            rng: Cell::new(splitmix64(index as u64 + 1)),
        });
    });

    let mut idle_scans = 0u32;
    loop {
        let task = CURRENT.with(|c| {
            let ctx = c.borrow();
            let ctx = ctx.as_ref().expect("worker context set");
            find_task(&inner, index, ctx)
        });

        match task {
            Some(Task::Closure(task)) => {
                idle_scans = 0;
                // Busy time is NOT accounted here: the task body times its
                // user closure via `exec_timed`, so promise/continuation
                // bookkeeping never pollutes the busy clock (the paper's
                // productive-time ratio counts kernel execution only).
                // A panicking task must not take the worker down: the
                // panic is contained here, and the task's dropped
                // promise breaks its future (downstream sees a clear
                // "broken promise" instead of a hang).
                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(task));
            }
            Some(Task::Node(node)) => {
                idle_scans = 0;
                with_worker(|w| graph::execute(node, w.expect("on a worker")));
            }
            None => {
                if inner.shutdown.load(Ordering::Acquire) {
                    break;
                }
                // Idle policy: bounded poll, then poll-and-yield, then park.
                idle_scans = idle_scans.saturating_add(1);
                if idle_scans < POLL_SCANS {
                    std::hint::spin_loop();
                } else if idle_scans < POLL_SCANS + YIELD_SCANS {
                    std::thread::yield_now();
                } else {
                    // Seq-cst half of the handshake with `Inner::wake`:
                    // publish the sleeper registration before scanning the
                    // queues, so a submitter whose push we miss is
                    // guaranteed to see sleepers > 0 and notify (it takes
                    // the same lock, so the notify cannot land between our
                    // scan and our wait). `PARK_BACKSTOP` is a backstop
                    // only — the wakeup-latency regression test would
                    // catch any path that actually relies on it.
                    inner.sleepers.fetch_add(1, Ordering::SeqCst);
                    fence(Ordering::SeqCst);
                    let mut g = inner.sleep_lock.lock();
                    let work_visible = !inner.injector.is_empty()
                        || inner.stealers.iter().any(|st| !st.is_empty());
                    if !work_visible && !inner.shutdown.load(Ordering::Acquire) {
                        inner.sleep_cv.wait_for(&mut g, PARK_BACKSTOP);
                    }
                    drop(g);
                    inner.sleepers.fetch_sub(1, Ordering::SeqCst);
                }
            }
        }
    }

    CURRENT.with(|c| *c.borrow_mut() = None);
}

/// The calling worker's view of its runtime, as handed to the code that
/// runs on it (`exec_timed`, graph nodes).
pub(crate) struct WorkerRef<'a> {
    inner: &'a Inner,
    ctx: &'a WorkerCtx,
}

/// Call `f` with the calling thread's [`WorkerRef`], or `None` off the
/// worker pool.
fn with_worker<R>(f: impl FnOnce(Option<&WorkerRef<'_>>) -> R) -> R {
    CURRENT.with(|c| {
        let guard = c.borrow();
        match guard.as_ref() {
            // SAFETY: `ctx.inner` points into the `Arc<Inner>` kept alive
            // by this worker's `worker_loop` stack frame for the thread's
            // whole lifetime; we only read it from that same thread.
            Some(ctx) => f(Some(&WorkerRef {
                inner: unsafe { &*ctx.inner },
                ctx,
            })),
            None => {
                drop(guard);
                f(None)
            }
        }
    })
}

impl WorkerRef<'_> {
    /// Run `f`, timing only `f` itself. The single measured duration feeds
    /// the worker's busy clock, the phase counter `slot` and (when tracing
    /// is attached) a span of the given label and kind — one measurement,
    /// three consumers — so `Runtime::stats().busy_ns` equals the summed
    /// durations of the spans this function records, exactly.
    pub(crate) fn timed<R>(
        &self,
        slot: usize,
        label: &'static str,
        kind: SpanKind,
        f: impl FnOnce() -> R,
    ) -> R {
        let index = self.ctx.index;
        let clock = &self.inner.clocks[index];
        let (r, dur) = match self.inner.trace.as_ref() {
            Some(tc) => {
                // Both endpoints come from the tracer's clock: the span
                // interval, the busy increment, and the per-phase counter
                // are all the same `end - start` on one monotonic clock,
                // so busy_ns == Σ span durations holds exactly and spans
                // align with every other timestamp the tracer hands out
                // (the drift report compares them directly).
                let start = tc.tracer.now_ns();
                let r = f();
                let end = tc.tracer.now_ns();
                let lane = tc.lane_base + index;
                tc.tracer.record(
                    lane,
                    Span {
                        task_id: tc.tracer.next_task_id(),
                        label,
                        worker: lane,
                        start_ns: start,
                        end_ns: end,
                        kind,
                        bytes: 0,
                        peer: -1,
                    },
                );
                (r, end - start)
            }
            None => {
                let t0 = Instant::now();
                let r = f();
                (r, t0.elapsed().as_nanos() as u64)
            }
        };
        clock.add_busy_ns(dur);
        clock.count_task();
        self.inner.phase_counters[index].add(slot, dur);
        r
    }

    /// Queue `task` on this worker's own deque (no wake-up: see
    /// [`wake`](Self::wake)).
    pub(crate) fn push(&self, task: Task) {
        self.ctx.queue.push(task);
    }

    /// Wake up to `n` parked workers.
    pub(crate) fn wake(&self, n: usize) {
        self.inner.wake(n);
    }

    /// The attached tracer and this worker's lane, when tracing is on.
    pub(crate) fn trace(&self) -> Option<(&Tracer, usize)> {
        let tc = self.inner.trace.as_ref()?;
        Some((&*tc.tracer, tc.lane_base + self.ctx.index))
    }
}

/// Run the body of a `spawn`ed task or continuation: timed as a
/// [`SpanKind::Task`] under `label` on a worker thread
/// ([`WorkerRef::timed`]), unmeasured off one.
pub(crate) fn exec_timed<R>(label: &'static str, f: impl FnOnce() -> R) -> R {
    with_worker(|w| match w {
        Some(w) => w.timed(w.inner.phase_labels.slot(label), label, SpanKind::Task, f),
        None => f(),
    })
}

/// splitmix64 finalizer — turns a small integer seed into a well-mixed
/// non-zero xorshift state.
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z = z ^ (z >> 31);
    z | 1 // xorshift64 must never be seeded with 0
}

/// Pop local LIFO, else take from the injector, else one FIFO-steal sweep
/// over the other workers from a randomized start (so idle workers don't
/// all hammer the same victim). Counts successful steals.
fn find_task(inner: &Inner, index: usize, ctx: &WorkerCtx) -> Option<Task> {
    if let Some(t) = ctx.queue.pop() {
        return Some(t);
    }
    loop {
        match inner.injector.steal_batch_and_pop(&ctx.queue) {
            crossbeam::deque::Steal::Success(t) => return Some(t),
            crossbeam::deque::Steal::Retry => continue,
            crossbeam::deque::Steal::Empty => break,
        }
    }
    let n = inner.stealers.len();
    let start = ctx.next_rand() as usize;
    for off in 0..n {
        let victim = (start + off) % n;
        if victim == index {
            continue;
        }
        loop {
            match inner.stealers[victim].steal() {
                crossbeam::deque::Steal::Success(t) => {
                    record_steal(inner, index);
                    return Some(t);
                }
                crossbeam::deque::Steal::Retry => continue,
                crossbeam::deque::Steal::Empty => break,
            }
        }
    }
    None
}

/// Count a successful steal on the thief's clock and (when tracing)
/// drop an instant marker — the interesting datum is *when/where* work
/// moved, not how long the deque operation took.
fn record_steal(inner: &Inner, index: usize) {
    inner.clocks[index].count_steal();
    if let Some(tc) = inner.trace.as_ref() {
        let now = tc.tracer.now_ns();
        tc.tracer
            .record_interval(tc.lane_base + index, SpanKind::Steal, "steal", now, now);
    }
}
