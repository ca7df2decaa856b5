//! Perf-regression harness: run the tier-1 scenarios, emit one
//! `BENCH_<name>.json` per scenario (throughput, busy fraction,
//! critical-path length, overhead breakdown), and gate against a
//! checked-in baseline.
//!
//! Five fixed scenarios cover the execution models the repo grows:
//! `serial_s8` (the reference leapfrog), `task_s10_t2` (the many-task
//! runner with tracing), `multidom_s6x2` (two ranks over the channel
//! transport), `multidom_s6_2x2x2` (the 3-D rank grid with full
//! 27-neighbour halo exchange) and `multidom_s6_2x2x2_ckpt` (the same
//! grid with a checkpoint wave every few cycles, whose paired-run CPU
//! cost is gated under 2%) — the multidom scenarios are analyzed
//! through `obs::dist`, so critical path and Schulz-taxonomy overheads
//! are included, and each topology additionally gets a paired
//! plain-vs-`--live-metrics` measurement at a representative brick size
//! (see [`live_delta`]) to report the live telemetry plane's throughput
//! cost (`live_delta_frac`, informational — printed, not gated). Each
//! scenario runs three repetitions and keeps the best, so a background
//! hiccup does not fail the gate.
//!
//! Schema v2: `critical_path_ns` / `overheads_ns` are **omitted** for
//! scenarios with no dependency graph to analyze (serial, task) instead
//! of being reported as meaningless zeros.
//!
//! Schema v3 adds the SIMD kernel engine's numbers: a top-level
//! `kernels` section records per-kernel throughput of the four
//! lane-ported kernels (stress integrate, fb-hourglass, monoq
//! gradients, EOS) at scalar width against the best wide lane width —
//! the wide throughput is gated against the baseline like scenario
//! throughput, so a kernel port silently losing its vectorization
//! fails the gate — and the task scenario records
//! `simd_auto_speedup`, the measured per-core improvement of
//! `--simd auto` (the 2-D partition × lane-width tuner) over the
//! scalar static plan at a representative brick size (see
//! [`task_simd_speedup`]).
//!
//! The comparison fails on **schema drift** (scenario missing, field
//! sets differ, schema version bumped without `--update`) or on a
//! throughput regression beyond the tolerance (default 10%; `--tol 0.2`
//! or `REGRESS_TOL=0.2` to override). `--update` rewrites the baseline
//! from the current run instead of comparing.
//!
//! Throughput is zone-iterations per **CPU second** (process CPU time,
//! not wall clock): on a loaded or single-CPU host wall time swings by
//! 30%+ with background load, which would make a 10% gate useless,
//! while CPU time only charges the cycles this process actually burned.
//! Wall-clock-derived fields (busy_fraction, critical_path_ns) are
//! reported for inspection but not gated.
//!
//! Usage: `regress [--out DIR] [--baseline FILE] [--update] [--tol F]`

use lulesh_core::kernels::{eos, hourglass, monoq, stress};
use lulesh_core::simd::{self, LaneWidth};
use lulesh_core::Domain;
use lulesh_task::{AutoTuneConfig, Features, PartitionPlan, PartitionPolicy, TaskLulesh};
use multidom::{threaded, Decomposition, Grid3, LivePlan, ResilPlan, RunPlan, SimArgs};
use obs::dist::{Category, RankTrace};
use obs::jsonlint::{self, Value};
use obs::live::{CollectSink, LiveConfig};
use obs::{SpanKind, Tracer};
use parutil::Chunk;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SCHEMA_VERSION: u64 = 3;
const REPS: usize = 3;
const DEFAULT_TOL: f64 = 0.10;
/// Absolute gate on the checkpointing plane's CPU-time cost: writing a
/// snapshot wave every `CKPT_PERIOD` cycles must stay under 2% (the
/// capture is a flat memcpy of the SoA arrays; serialization + checksum +
/// file IO happen on the off-thread writer). Debug builds run the delta
/// measurement at a much smaller size (see `ckpt_delta`), where only a
/// handful of snapshot waves land and run-to-run CPU-time noise alone
/// spans tens of percent, so the debug gate only screens for gross
/// breakage (e.g. serialization landing back on the critical path, which
/// costs well over 25% in an unoptimized build); the 2% contract is
/// enforced in release.
#[cfg(not(debug_assertions))]
const CKPT_TOL: f64 = 0.02;
#[cfg(debug_assertions)]
const CKPT_TOL: f64 = 0.25;
const CKPT_PERIOD: u64 = 10;

/// Process CPU time in seconds — the contention-immune clock the
/// throughput gate runs on. Linux asks the kernel directly (same
/// direct-declaration idiom as `taskrt::topology`, since the workspace
/// builds offline); elsewhere it degrades to wall clock.
#[cfg(target_os = "linux")]
fn cpu_seconds() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clockid: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

#[cfg(not(target_os = "linux"))]
fn cpu_seconds() -> f64 {
    use std::sync::OnceLock;
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_secs_f64()
}

/// One scenario's measured result.
struct Scenario {
    name: &'static str,
    /// Zone-iterations per CPU second (elements × iterations / process
    /// CPU time) — contention-immune, see the module docs.
    throughput_zps: f64,
    /// Fraction of worker (or rank) time spent in useful computation.
    busy_fraction: f64,
    /// Critical-path length through the task/parcel graph, ns. `None`
    /// (omitted from the JSON) when the scenario has no dependency graph
    /// to analyze — reporting 0 for serial/task runs was meaningless.
    critical_path_ns: Option<u64>,
    /// Summed per-category overhead ns across ranks (all nine taxonomy
    /// categories, zero-filled, so the key set never drifts run-to-run).
    /// `None` (omitted) for scenarios the taxonomy does not apply to.
    overheads_ns: Option<BTreeMap<&'static str, u64>>,
    /// Fractional CPU-time cost of arming `--live-metrics` (live / plain
    /// − 1, median of alternating-order pairs at a representative brick
    /// size — see [`live_delta`]). Informational — printed, never gated.
    /// `None` for scenarios without the telemetry plane.
    live_delta_frac: Option<f64>,
    /// Fractional CPU-time cost of arming `--ckpt-dir` (ckpt / plain − 1,
    /// summed alternating-order pairs, same methodology as
    /// [`live_delta`]). **Gated** against the absolute [`CKPT_TOL`]
    /// budget. `None` for scenarios without checkpointing.
    ckpt_delta_frac: Option<f64>,
    /// Per-core throughput of `--simd auto` (the 2-D partition ×
    /// lane-width tuner) divided by the scalar static plan, measured on
    /// the task driver at a representative brick size — see
    /// [`task_simd_speedup`]. Informational (printed and recorded, not
    /// gated: the release number is the meaningful one, and debug
    /// builds do not auto-vectorize). `None` for non-task scenarios.
    simd_auto_speedup: Option<f64>,
}

/// One lane-ported kernel's measured throughput: scalar (W1) against
/// the best wide lane width. Element-iterations per CPU second.
struct KernelRow {
    name: &'static str,
    scalar_zps: f64,
    /// Best throughput over W2/W4/W8 — the configuration `--simd auto`
    /// converges to when this kernel dominates the step.
    simd_zps: f64,
    /// Lane count of that best width.
    simd_lanes: usize,
}

fn zero_overheads() -> BTreeMap<&'static str, u64> {
    Category::ALL.iter().map(|c| (c.name(), 0)).collect()
}

/// One rep of the reference serial leapfrog: pure compute, the
/// throughput floor. Returns CPU seconds.
fn rep_serial_s8(iters: u64) -> f64 {
    let d = Domain::build(8, 2, 1, 1, 0);
    let c0 = cpu_seconds();
    let st = lulesh_core::serial::run(&d, iters).expect("serial run");
    assert_eq!(st.cycle, iters);
    cpu_seconds() - c0
}

/// One rep of the many-task runner with tracing: (CPU seconds, busy
/// fraction from task spans).
fn rep_task_s10_t2(iters: u64, threads: usize) -> (f64, f64) {
    let tracer = Tracer::shared(threads + 1);
    let runner = TaskLulesh::with_tracer(threads, Features::default(), Arc::clone(&tracer), 0);
    let d = Arc::new(Domain::build(10, 2, 1, 1, 0));
    let plan = PartitionPlan::for_size_threads(10, threads);
    let t0 = Instant::now();
    let c0 = cpu_seconds();
    let st = runner.run(&d, plan, iters).expect("task run");
    let cpu = cpu_seconds() - c0;
    let elapsed = t0.elapsed().as_secs_f64();
    assert_eq!(st.cycle, iters);
    let busy_ns: u64 = tracer
        .drain()
        .iter()
        .filter(|s| s.kind == SpanKind::Task)
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    (cpu, busy_ns as f64 / (threads as f64 * elapsed * 1e9))
}

/// One rep of a multidom run over the channel transport: a ζ-slab chain
/// (`grid: None`) or an explicit 3-D rank grid with 27-neighbour halo
/// exchange. With `live` armed the run carries the full `--live-metrics`
/// plane (per-step sampling, telemetry piggybacked on the dt star, rank-0
/// detector feeding a discard sink); with `trace` it additionally goes
/// through the `obs::dist` pipeline (merge, taxonomy, critical path)
/// after the clock stops.
fn rep_multidom(
    iters: u64,
    size: usize,
    grid: Option<Grid3>,
    live: bool,
    trace: bool,
    ckpt: bool,
) -> (f64, Option<obs::dist::Analysis>) {
    let decomp = match grid {
        Some(g) => Decomposition::with_grid(size, g),
        None => Decomposition::new(size, 2),
    };
    let ranks = decomp.ranks();
    let tracer = trace.then(|| Tracer::shared(ranks));
    let live_plan = if live {
        LivePlan {
            metrics: Some(LiveConfig {
                period: 1,
                sink: Arc::new(CollectSink::new()),
                table: false,
            }),
            flight_dir: None,
        }
    } else {
        LivePlan::default()
    };
    // Snapshot waves land in a throwaway directory, recreated per rep so
    // the write path (create + rename) is exercised every time.
    let resil_plan = if ckpt {
        let dir = std::env::temp_dir().join(format!("regress-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ResilPlan {
            ckpt: Some(resil::CkptConfig::new(dir, CKPT_PERIOD)),
            resume_cycle: None,
        }
    } else {
        ResilPlan::default()
    };
    let c0 = cpu_seconds();
    let results = threaded::run(
        decomp,
        SimArgs::new(2, 1, 1, 0, iters),
        &RunPlan {
            trace: tracer.clone(),
            live: live_plan,
            resil: resil_plan,
            ..RunPlan::default()
        },
    );
    let cpu = cpu_seconds() - c0;
    for r in results {
        r.expect("multidom rank");
    }
    let Some(tracer) = tracer else {
        return (cpu, None);
    };
    let spans = tracer.drain();
    let traces: Vec<RankTrace> = (0..ranks)
        .map(|rank| {
            let rank_spans: Vec<obs::Span> =
                spans.iter().filter(|s| s.worker == rank).cloned().collect();
            RankTrace::from_spans(
                rank,
                ranks,
                rank,
                0,
                vec![(rank, format!("rank{rank}"))],
                &rank_spans,
            )
        })
        .collect();
    let merged = obs::dist::merge(traces).expect("merge in-process traces");
    let analysis = obs::dist::analyze(&merged);
    analysis.verify().expect("analysis self-check");
    (cpu, Some(analysis))
}

/// Run all scenarios, reps interleaved round-robin: a transient load
/// burst (the test suite tearing down, another job on a 1-CPU host)
/// spans consecutive reps, so back-to-back reps of one short scenario
/// can ALL be inflated — spreading each scenario's reps across the whole
/// measurement window lets at least one rep escape the burst.
fn run_scenarios() -> Vec<Scenario> {
    let iters = 20u64;
    let (threads, size) = (2usize, 6usize);
    let grid = Grid3::new(2, 2, 2);
    let mut serial_best = f64::MAX;
    let mut task_best: Option<(f64, f64)> = None;
    let mut slab_best: Option<(f64, obs::dist::Analysis)> = None;
    let mut grid_best: Option<(f64, obs::dist::Analysis)> = None;
    let mut ckpt_best: Option<(f64, obs::dist::Analysis)> = None;
    for _ in 0..REPS {
        serial_best = serial_best.min(rep_serial_s8(iters));
        let (cpu, busy) = rep_task_s10_t2(iters, threads);
        if task_best.is_none_or(|(c, _)| cpu < c) {
            task_best = Some((cpu, busy));
        }
        let (cpu, analysis) = rep_multidom(iters, size, None, false, true, false);
        if slab_best.as_ref().is_none_or(|(c, _)| cpu < *c) {
            slab_best = Some((cpu, analysis.expect("traced rep analyzes")));
        }
        let (cpu, analysis) = rep_multidom(iters, size, Some(grid), false, true, false);
        if grid_best.as_ref().is_none_or(|(c, _)| cpu < *c) {
            grid_best = Some((cpu, analysis.expect("traced rep analyzes")));
        }
        let (cpu, analysis) = rep_multidom(iters, size, Some(grid), false, true, true);
        if ckpt_best.as_ref().is_none_or(|(c, _)| cpu < *c) {
            ckpt_best = Some((cpu, analysis.expect("traced rep analyzes")));
        }
    }
    let slab_delta = live_delta(None);
    let grid_delta = live_delta(Some(grid));
    let ckpt_delta = ckpt_delta(grid);
    let simd_speedup = task_simd_speedup();

    let serial = Scenario {
        name: "serial_s8",
        throughput_zps: (8f64.powi(3) * iters as f64) / serial_best,
        busy_fraction: 1.0,
        critical_path_ns: None,
        overheads_ns: None,
        live_delta_frac: None,
        ckpt_delta_frac: None,
        simd_auto_speedup: None,
    };
    let (cpu, busy) = task_best.expect("at least one rep");
    let task = Scenario {
        name: "task_s10_t2",
        throughput_zps: (10f64.powi(3) * iters as f64) / cpu,
        busy_fraction: busy,
        critical_path_ns: None,
        overheads_ns: None,
        live_delta_frac: None,
        ckpt_delta_frac: None,
        simd_auto_speedup: Some(simd_speedup),
    };
    let multidom_scenario = |name: &'static str,
                             best: Option<(f64, obs::dist::Analysis)>,
                             live_delta: Option<f64>,
                             ckpt_delta: Option<f64>| {
        let (cpu, analysis) = best.expect("at least one rep");
        let mut overheads = zero_overheads();
        let mut busy_total = 0u64;
        for b in &analysis.per_rank {
            for cat in Category::ALL {
                *overheads.get_mut(cat.name()).expect("all categories") += b.get(cat);
            }
            busy_total += b.busy_ns;
        }
        let wall_total = analysis.wall_ns as f64 * analysis.ranks as f64;
        Scenario {
            name,
            throughput_zps: (size.pow(3) as f64 * iters as f64) / cpu,
            busy_fraction: if wall_total > 0.0 {
                busy_total as f64 / wall_total
            } else {
                0.0
            },
            critical_path_ns: Some(analysis.critical_path_ns),
            overheads_ns: Some(overheads),
            live_delta_frac: live_delta,
            ckpt_delta_frac: ckpt_delta,
            simd_auto_speedup: None,
        }
    };
    let slab = multidom_scenario("multidom_s6x2", slab_best, Some(slab_delta), None);
    let grid_sc = multidom_scenario("multidom_s6_2x2x2", grid_best, Some(grid_delta), None);
    // The checkpointing scenario: same 2x2x2 topology with a snapshot wave
    // every CKPT_PERIOD cycles. Its overhead breakdown attributes the
    // capture under the Recovery taxonomy slot, and its paired delta is
    // gated against the absolute CKPT_TOL budget.
    let ckpt_sc = multidom_scenario("multidom_s6_2x2x2_ckpt", ckpt_best, None, Some(ckpt_delta));
    vec![serial, task, slab, grid_sc, ckpt_sc]
}

/// Measure the `--live-metrics` throughput cost for one multidom
/// configuration: paired plain/live runs back to back (so a load burst
/// hits both sides of a pair), much longer than the gate reps so thread
/// spawn and domain build amortize away, tracing off on both sides so
/// the delta isolates the telemetry plane alone. Pair order alternates
/// run to run so slow drift (thermal, a decaying background job)
/// cancels across the pair set, and the ratio of **summed** CPU time
/// (Σlive / Σplain − 1) is reported: per-run scheduling noise on a
/// loaded host swamps a sub-percent signal, and summing averages it
/// down where best-of would be systematically optimistic and a single
/// pair would report noise.
///
/// Runs at `DELTA_SIZE`, not the gate scenarios' s6: the gate bricks
/// are deliberately tiny (27 elements per grid rank, a ~65 µs step) so
/// the whole gate finishes in seconds, which magnifies any fixed
/// per-step cost ~100× relative to a brick that does real work per
/// step. s24 (1728 elements per grid rank) is the smallest size where
/// a step is dominated by physics, so the reported fraction reflects
/// what arming `--live-metrics` costs an actual run.
///
/// Debug builds (check.sh's profile) scale the configuration down —
/// every kernel runs ~10× slower there, so the release parameters
/// would hold the gate for minutes, while smaller bricks still give a
/// representative *fraction* because the telemetry hooks slow down by
/// the same debug factor as the physics. Release numbers are the
/// authoritative ones.
fn live_delta(grid: Option<Grid3>) -> f64 {
    #[cfg(not(debug_assertions))]
    const DELTA_SIZE: usize = 24;
    #[cfg(not(debug_assertions))]
    const DELTA_ITERS: u64 = 150;
    #[cfg(not(debug_assertions))]
    const PAIRS: usize = 4;
    #[cfg(debug_assertions)]
    const DELTA_SIZE: usize = 12;
    #[cfg(debug_assertions)]
    const DELTA_ITERS: u64 = 30;
    #[cfg(debug_assertions)]
    const PAIRS: usize = 2;
    let (mut plain_total, mut live_total) = (0.0, 0.0);
    for i in 0..PAIRS {
        let run = |live| rep_multidom(DELTA_ITERS, DELTA_SIZE, grid, live, false, false).0;
        let (plain, live) = if i % 2 == 0 {
            let p = run(false);
            (p, run(true))
        } else {
            let l = run(true);
            (run(false), l)
        };
        plain_total += plain;
        live_total += live;
    }
    live_total / plain_total - 1.0
}

/// Measure the checkpointing plane's CPU-time cost on the 3-D grid
/// topology: identical methodology to [`live_delta`] (paired
/// alternating-order runs, summed ratio, representative brick size), with
/// `--ckpt-dir` armed instead of `--live-metrics`. Snapshot waves land
/// every [`CKPT_PERIOD`] cycles; the async writer thread's CPU time *is*
/// charged to the process, so the fraction covers capture, encode,
/// checksum, and file IO together. This one is gated: it must stay under
/// [`CKPT_TOL`].
fn ckpt_delta(grid: Grid3) -> f64 {
    #[cfg(not(debug_assertions))]
    const DELTA_SIZE: usize = 24;
    #[cfg(not(debug_assertions))]
    const DELTA_ITERS: u64 = 150;
    #[cfg(not(debug_assertions))]
    const PAIRS: usize = 4;
    #[cfg(debug_assertions)]
    const DELTA_SIZE: usize = 12;
    #[cfg(debug_assertions)]
    const DELTA_ITERS: u64 = 30;
    #[cfg(debug_assertions)]
    const PAIRS: usize = 2;
    let (mut plain_total, mut ckpt_total) = (0.0, 0.0);
    for i in 0..PAIRS {
        let run = |ckpt| rep_multidom(DELTA_ITERS, DELTA_SIZE, Some(grid), false, false, ckpt).0;
        let (plain, ckpt) = if i % 2 == 0 {
            let p = run(false);
            (p, run(true))
        } else {
            let c = run(true);
            (run(false), c)
        };
        plain_total += plain;
        ckpt_total += ckpt;
    }
    ckpt_total / plain_total - 1.0
}

/// Measure the per-core throughput improvement of `--simd auto` over the
/// scalar static plan on the task driver: paired alternating-order runs
/// ([`live_delta`]'s methodology — a load burst hits both sides of a
/// pair, slow drift cancels across the pair set), ratio of **summed**
/// CPU times. Both sides run the same thread count, so the CPU-time
/// ratio *is* the per-core throughput ratio. The auto side runs the
/// real 2-D tuner from a scalar start, so its warmup windows and probe
/// excursions are charged to it — the reported speedup is what a user
/// actually gains by typing `--simd auto`, not the converged-state
/// ceiling.
///
/// Release runs the paper-relevant s24 brick for enough iterations
/// that the tuner's climb amortizes; debug scales down (kernels run
/// ~10× slower unoptimized, and — unlike [`live_delta`]'s fractions —
/// the debug *speedup* is not representative at all, because
/// rustc only auto-vectorizes the lane loops with optimization on).
/// Release numbers are the authoritative ones.
fn task_simd_speedup() -> f64 {
    #[cfg(not(debug_assertions))]
    const SPEEDUP_SIZE: usize = 24;
    #[cfg(not(debug_assertions))]
    const SPEEDUP_ITERS: u64 = 150;
    #[cfg(not(debug_assertions))]
    const PAIRS: usize = 2;
    #[cfg(debug_assertions)]
    const SPEEDUP_SIZE: usize = 12;
    #[cfg(debug_assertions)]
    const SPEEDUP_ITERS: u64 = 30;
    #[cfg(debug_assertions)]
    const PAIRS: usize = 1;
    let threads = 2;
    let prior = simd::active();
    let run = |auto: bool| {
        // Both sides start scalar; the auto side's tuner widens mid-run
        // exactly as `--simd auto` does.
        simd::set_active(LaneWidth::W1);
        let d = Arc::new(Domain::build(SPEEDUP_SIZE, 2, 1, 1, 0));
        let policy = if auto {
            PartitionPolicy::Auto(AutoTuneConfig {
                tune_width: true,
                ..AutoTuneConfig::default()
            })
        } else {
            PartitionPolicy::Fixed(PartitionPlan::for_size_threads(SPEEDUP_SIZE, threads))
        };
        let c0 = cpu_seconds();
        let st = TaskLulesh::new(threads)
            .run_policy(&d, policy, SPEEDUP_ITERS)
            .expect("task run");
        assert_eq!(st.cycle, SPEEDUP_ITERS);
        cpu_seconds() - c0
    };
    let (mut scalar_total, mut auto_total) = (0.0, 0.0);
    for i in 0..PAIRS {
        let (scalar, auto) = if i % 2 == 0 {
            let s = run(false);
            (s, run(true))
        } else {
            let a = run(true);
            (run(false), a)
        };
        scalar_total += scalar;
        auto_total += auto;
    }
    simd::set_active(prior);
    scalar_total / auto_total
}

/// Measure the four lane-ported kernels one at a time: a mid-blast
/// domain (realistic branches, same setup as the Criterion kernel
/// bench), each kernel timed at every lane width, best-of-[`REPS`]
/// outer reps on the CPU clock. Every width runs the *same* entry
/// point — only the global `simd::active()` width changes — so the
/// scalar/wide delta isolates the lane engine. The global width is
/// restored afterwards so the sweep cannot leak into later
/// measurements.
fn measure_kernels() -> Vec<KernelRow> {
    #[cfg(not(debug_assertions))]
    const KSIZE: usize = 24;
    #[cfg(not(debug_assertions))]
    const PASSES: usize = 30;
    #[cfg(debug_assertions)]
    const KSIZE: usize = 10;
    #[cfg(debug_assertions)]
    const PASSES: usize = 4;

    let prior = simd::active();
    simd::set_active(LaneWidth::W1);
    let d = Domain::build(KSIZE, 4, 1, 1, 0);
    lulesh_core::serial::run(&d, 30).expect("warm-state run");
    let ne = d.num_elem();
    let elems = Chunk { begin: 0, end: ne };

    // Stress inputs (filled once — the integrate pass only reads them)
    // and its own output buffers.
    let mut sigxx = vec![0.0; ne];
    let mut sigyy = vec![0.0; ne];
    let mut sigzz = vec![0.0; ne];
    stress::init_stress_terms_for_elems(&d, &mut sigxx, &mut sigyy, &mut sigzz, elems);
    let mut s_determ = vec![0.0; ne];
    let mut s_fx = vec![0.0; 8 * ne];
    let mut s_fy = vec![0.0; 8 * ne];
    let mut s_fz = vec![0.0; 8 * ne];

    // Hourglass partials, filled once by the control pass; the timed
    // fb pass only reads them.
    let mut dvdx = vec![0.0; 8 * ne];
    let mut dvdy = vec![0.0; 8 * ne];
    let mut dvdz = vec![0.0; 8 * ne];
    let mut x8n = vec![0.0; 8 * ne];
    let mut y8n = vec![0.0; 8 * ne];
    let mut z8n = vec![0.0; 8 * ne];
    let mut h_determ = vec![0.0; ne];
    hourglass::calc_hourglass_control_for_elems(
        &d,
        &mut dvdx,
        &mut dvdy,
        &mut dvdz,
        &mut x8n,
        &mut y8n,
        &mut z8n,
        &mut h_determ,
        elems,
    )
    .expect("hourglass control on a healthy domain");
    let hgcoef = d.params.hgcoef;
    let mut h_fx = vec![0.0; 8 * ne];
    let mut h_fy = vec![0.0; 8 * ne];
    let mut h_fz = vec![0.0; 8 * ne];

    // EOS inputs: the full element list at material rep 1.
    let vnewc: Vec<f64> = (0..ne).map(|e| d.vnew(e)).collect();
    let list: Vec<usize> = (0..ne).collect();
    let mut es = eos::EosScratch::new(ne);

    type NamedKernel<'a> = (&'static str, Box<dyn FnMut() + 'a>);
    let mut kernels: Vec<NamedKernel> = vec![
        (
            "integrate_stress",
            Box::new(|| {
                stress::integrate_stress_for_elems(
                    &d,
                    &sigxx,
                    &sigyy,
                    &sigzz,
                    &mut s_determ,
                    &mut s_fx,
                    &mut s_fy,
                    &mut s_fz,
                    elems,
                )
            }),
        ),
        (
            "hourglass_fb",
            Box::new(|| {
                hourglass::calc_fb_hourglass_force_for_elems(
                    &d, &h_determ, &x8n, &y8n, &z8n, &dvdx, &dvdy, &dvdz, hgcoef, &mut h_fx,
                    &mut h_fy, &mut h_fz, elems,
                )
            }),
        ),
        (
            "monoq_gradients",
            Box::new(|| monoq::calc_monotonic_q_gradients_for_elems(&d, elems)),
        ),
        (
            "eos_rep1",
            Box::new(|| eos::eval_eos_for_elems(&d, &vnewc, &list, 1, &d.params, &mut es)),
        ),
    ];

    let mut rows = Vec::new();
    for (name, body) in kernels.iter_mut() {
        let mut best: Vec<(LaneWidth, f64)> =
            LaneWidth::ALL.iter().map(|&w| (w, f64::MAX)).collect();
        for _ in 0..REPS {
            for (w, cpu) in best.iter_mut() {
                simd::set_active(*w);
                body(); // warm the new code path before the clock starts
                let c0 = cpu_seconds();
                for _ in 0..PASSES {
                    body();
                }
                *cpu = cpu.min(cpu_seconds() - c0);
            }
        }
        let zps = |cpu: f64| ne as f64 * PASSES as f64 / cpu;
        let per_width: Vec<String> = best
            .iter()
            .map(|&(w, cpu)| format!("{w} {:.0}", zps(cpu)))
            .collect();
        eprintln!("regress: kernel {name} z/s: {}", per_width.join(", "));
        let scalar_zps = best
            .iter()
            .find(|(w, _)| w.lanes() == 1)
            .map(|&(_, cpu)| zps(cpu))
            .expect("ALL includes scalar");
        let (simd_lanes, simd_zps) = best
            .iter()
            .filter(|(w, _)| w.lanes() > 1)
            .map(|&(w, cpu)| (w.lanes(), zps(cpu)))
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .expect("ALL includes wide widths");
        rows.push(KernelRow {
            name,
            scalar_zps,
            simd_zps,
            simd_lanes,
        });
    }
    simd::set_active(prior);
    rows
}

impl Scenario {
    /// Schema v2: `critical_path_ns` / `overheads_ns` / `live_delta_frac`
    /// appear only when the scenario measures them — an absent field says
    /// "not applicable" where v1 said a meaningless 0.
    fn to_json(&self) -> String {
        let mut fields = vec![
            format!("  \"schema_version\": {SCHEMA_VERSION}"),
            format!("  \"name\": \"{}\"", self.name),
            format!("  \"throughput_zps\": {:.3}", self.throughput_zps),
            format!("  \"busy_fraction\": {:.6}", self.busy_fraction),
        ];
        if let Some(cp) = self.critical_path_ns {
            fields.push(format!("  \"critical_path_ns\": {cp}"));
        }
        if let Some(ov) = &self.overheads_ns {
            let inner: Vec<String> = ov.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
            fields.push(format!("  \"overheads_ns\": {{{}}}", inner.join(", ")));
        }
        if let Some(d) = self.live_delta_frac {
            fields.push(format!("  \"live_delta_frac\": {d:.4}"));
        }
        if let Some(d) = self.ckpt_delta_frac {
            fields.push(format!("  \"ckpt_delta_frac\": {d:.4}"));
        }
        if let Some(s) = self.simd_auto_speedup {
            fields.push(format!("  \"simd_auto_speedup\": {s:.4}"));
        }
        format!("{{\n{}\n}}\n", fields.join(",\n"))
    }
}

impl KernelRow {
    fn to_json(&self) -> String {
        format!(
            "{{\"name\": \"{}\", \"scalar_zps\": {:.3}, \"simd_zps\": {:.3}, \
             \"simd_lanes\": {}}}",
            self.name, self.scalar_zps, self.simd_zps, self.simd_lanes
        )
    }
}

fn baseline_json(scenarios: &[Scenario], kernels: &[KernelRow]) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"schema_version\": {SCHEMA_VERSION},");
    out.push_str("  \"scenarios\": [\n");
    for (i, s) in scenarios.iter().enumerate() {
        let body = s.to_json();
        // Indent the scenario object two levels into the array.
        let indented: Vec<String> = body.trim_end().lines().map(|l| format!("  {l}")).collect();
        out.push_str(&indented.join("\n"));
        out.push_str(if i + 1 == scenarios.len() {
            "\n"
        } else {
            ",\n"
        });
    }
    out.push_str("  ],\n  \"kernels\": [\n");
    for (i, k) in kernels.iter().enumerate() {
        let _ = write!(out, "    {}", k.to_json());
        out.push_str(if i + 1 == kernels.len() { "\n" } else { ",\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Top-level keys of a scenario object, sorted — the schema fingerprint.
fn key_set(v: &Value) -> Vec<String> {
    match v {
        Value::Obj(fields) => {
            let mut keys: Vec<String> = fields.iter().map(|(k, _)| k.clone()).collect();
            keys.sort();
            keys
        }
        _ => Vec::new(),
    }
}

fn compare(
    current: &[Scenario],
    kernels: &[KernelRow],
    baseline_text: &str,
    tol: f64,
) -> Result<(), String> {
    let base = jsonlint::parse(baseline_text).map_err(|e| format!("baseline: {e}"))?;
    let version = base
        .get("schema_version")
        .and_then(Value::num)
        .ok_or("baseline: missing schema_version")? as u64;
    if version != SCHEMA_VERSION {
        return Err(format!(
            "schema drift: baseline is version {version}, harness writes {SCHEMA_VERSION} \
             (re-run with --update)"
        ));
    }
    let base_scenarios = base
        .get("scenarios")
        .and_then(Value::arr)
        .ok_or("baseline: missing scenarios array")?;
    println!(
        "{:<16} {:>14} {:>14} {:>8}",
        "scenario", "current z/s", "baseline z/s", "delta"
    );
    let mut failures = Vec::new();
    for s in current {
        let Some(b) = base_scenarios
            .iter()
            .find(|b| b.get("name").and_then(Value::str) == Some(s.name))
        else {
            failures.push(format!(
                "schema drift: scenario '{}' not in baseline",
                s.name
            ));
            continue;
        };
        let cur = jsonlint::parse(&s.to_json()).expect("own JSON parses");
        if key_set(&cur) != key_set(b) {
            failures.push(format!(
                "schema drift: scenario '{}' field set changed (baseline {:?}, current {:?})",
                s.name,
                key_set(b),
                key_set(&cur)
            ));
            continue;
        }
        let base_thr = b
            .get("throughput_zps")
            .and_then(Value::num)
            .unwrap_or(f64::NAN);
        let delta = s.throughput_zps / base_thr - 1.0;
        println!(
            "{:<16} {:>14.0} {:>14.0} {:>+7.1}%",
            s.name,
            s.throughput_zps,
            base_thr,
            delta * 100.0
        );
        if !base_thr.is_finite() {
            failures.push(format!(
                "schema drift: scenario '{}' baseline throughput is not a number",
                s.name
            ));
        } else if s.throughput_zps < base_thr * (1.0 - tol) {
            failures.push(format!(
                "throughput regression: '{}' {:.0} z/s is {:.1}% below baseline {:.0} z/s \
                 (tolerance {:.0}%)",
                s.name,
                s.throughput_zps,
                -delta * 100.0,
                base_thr,
                tol * 100.0
            ));
        }
        // Absolute gate, independent of the baseline: checkpointing must
        // stay cheap enough to leave armed in production runs.
        if let Some(d) = s.ckpt_delta_frac {
            if d > CKPT_TOL {
                failures.push(format!(
                    "checkpoint overhead: '{}' costs {:+.1}% CPU time (budget {:.0}%)",
                    s.name,
                    d * 100.0,
                    CKPT_TOL * 100.0
                ));
            }
        }
    }
    // The kernel section: the wide-lane throughput is gated like
    // scenario throughput, so a port silently falling back to scalar
    // (or losing its vectorization to a refactor) fails the gate. The
    // scalar column and the speedup are informational — the speedup is
    // a ratio of two gated-side measurements and would double-charge
    // noise if gated itself. Debug widens the tolerance (same reasoning
    // as CKPT_TOL): the single-kernel timing windows are milliseconds
    // at debug sizes, where scheduling noise alone swings 10%+, and the
    // failure this gate exists to catch — a lane path structurally
    // deoptimized or dispatch quietly rerouted — costs far more than
    // 25%; the percent-level contract is enforced in release.
    #[cfg(not(debug_assertions))]
    let ktol = tol;
    #[cfg(debug_assertions)]
    let ktol = tol.max(0.25);
    let base_kernels = base
        .get("kernels")
        .and_then(Value::arr)
        .ok_or("schema drift: baseline has no kernels section (re-run with --update)")?;
    println!(
        "{:<18} {:>14} {:>14} {:>6} {:>8} {:>8}",
        "kernel", "scalar z/s", "simd z/s", "lanes", "speedup", "delta"
    );
    for k in kernels {
        let Some(b) = base_kernels
            .iter()
            .find(|b| b.get("name").and_then(Value::str) == Some(k.name))
        else {
            failures.push(format!("schema drift: kernel '{}' not in baseline", k.name));
            continue;
        };
        let base_zps = b.get("simd_zps").and_then(Value::num).unwrap_or(f64::NAN);
        let delta = k.simd_zps / base_zps - 1.0;
        println!(
            "{:<18} {:>14.0} {:>14.0} {:>6} {:>7.2}x {:>+7.1}%",
            k.name,
            k.scalar_zps,
            k.simd_zps,
            k.simd_lanes,
            k.simd_zps / k.scalar_zps,
            delta * 100.0
        );
        if !base_zps.is_finite() {
            failures.push(format!(
                "schema drift: kernel '{}' baseline simd_zps is not a number",
                k.name
            ));
        } else if k.simd_zps < base_zps * (1.0 - ktol) {
            failures.push(format!(
                "kernel regression: '{}' {:.0} z/s is {:.1}% below baseline {:.0} z/s \
                 (tolerance {:.0}%)",
                k.name,
                k.simd_zps,
                -delta * 100.0,
                base_zps,
                ktol * 100.0
            ));
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("\n"))
    }
}

/// The repository root the default baseline lives in. The gate must read
/// the same checked-in `BENCH_baseline.json` no matter which directory it
/// is invoked from (check.sh runs it from the root, a developer may run it
/// from a crate directory), so walk up from the CWD to the workspace
/// marker; fall back to the compile-time manifest location (two levels
/// above `crates/bench`) when invoked from outside the repo entirely.
fn repo_root() -> std::path::PathBuf {
    if let Ok(mut dir) = std::env::current_dir() {
        loop {
            if dir.join("Cargo.toml").is_file() && dir.join("ROADMAP.md").is_file() {
                return dir;
            }
            if !dir.pop() {
                break;
            }
        }
    }
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench has a workspace root two levels up")
        .to_path_buf()
}

/// Write `text` to `path` atomically: temp file in the same directory,
/// then rename. A gate run (or Ctrl-C) racing `--update` sees either the
/// old baseline or the new one, never a torn file.
fn write_atomic(path: &Path, text: &str) -> std::io::Result<()> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let tmp = dir.unwrap_or_else(|| Path::new(".")).join(format!(
        ".{}.tmp{}",
        "BENCH_baseline",
        std::process::id()
    ));
    std::fs::write(&tmp, text)?;
    std::fs::rename(&tmp, path).inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp);
    })
}

fn main() {
    let mut out_dir = ".".to_string();
    let mut baseline: Option<String> = None;
    let mut update = false;
    let mut tol = std::env::var("REGRESS_TOL")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_TOL);
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("--{name} needs a value");
                std::process::exit(2);
            })
        };
        match a.as_str() {
            "--out" => out_dir = val("out"),
            "--baseline" => baseline = Some(val("baseline")),
            "--update" => update = true,
            "--tol" => {
                tol = val("tol").parse().unwrap_or_else(|_| {
                    eprintln!("--tol needs a fraction like 0.1");
                    std::process::exit(2);
                })
            }
            other => {
                eprintln!("unknown flag '{other}'");
                eprintln!(
                    "usage: regress [--out DIR] [--baseline FILE] [--update] [--tol FRACTION]"
                );
                std::process::exit(2);
            }
        }
    }

    // An explicit --baseline is taken as given (relative to the CWD, like
    // any CLI path); the default resolves against the repo root so the
    // gate reads the checked-in baseline from any invocation directory.
    let baseline = baseline
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| repo_root().join("BENCH_baseline.json"));

    eprintln!(
        "regress: running 5 tier-1 scenarios, best-of-{REPS} interleaved reps, \
         plus the 4-kernel lane-width sweep ..."
    );
    // Let whatever just ran (check.sh invokes this right after the test
    // suite) finish tearing down: a decaying load burst context-switches
    // short reps hard enough to inflate even their CPU time (cache
    // refills are charged to us) by double digits.
    std::thread::sleep(Duration::from_secs(2));
    let scenarios = run_scenarios();
    let kernels = measure_kernels();
    for s in &scenarios {
        if let Some(d) = s.live_delta_frac {
            eprintln!(
                "regress: live-metrics throughput cost on {}: {:+.1}% (informational)",
                s.name,
                d * 100.0
            );
        }
        if let Some(d) = s.ckpt_delta_frac {
            eprintln!(
                "regress: checkpointing CPU-time cost on {}: {:+.1}% (budget {:.0}%)",
                s.name,
                d * 100.0,
                CKPT_TOL * 100.0
            );
        }
        if let Some(x) = s.simd_auto_speedup {
            eprintln!(
                "regress: --simd auto per-core speedup on the task driver: {x:.2}x over \
                 scalar (informational; release numbers are authoritative)"
            );
        }
    }

    std::fs::create_dir_all(&out_dir).unwrap_or_else(|e| {
        eprintln!("{out_dir}: {e}");
        std::process::exit(1);
    });
    for s in &scenarios {
        let path = Path::new(&out_dir).join(format!("BENCH_{}.json", s.name));
        std::fs::write(&path, s.to_json()).unwrap_or_else(|e| {
            eprintln!("{}: {e}", path.display());
            std::process::exit(1);
        });
    }
    let kernels_json = format!(
        "{{\n  \"schema_version\": {SCHEMA_VERSION},\n  \"kernels\": [\n{}\n  ]\n}}\n",
        kernels
            .iter()
            .map(|k| format!("    {}", k.to_json()))
            .collect::<Vec<_>>()
            .join(",\n")
    );
    let path = Path::new(&out_dir).join("BENCH_kernels.json");
    std::fs::write(&path, kernels_json).unwrap_or_else(|e| {
        eprintln!("{}: {e}", path.display());
        std::process::exit(1);
    });

    if update {
        write_atomic(&baseline, &baseline_json(&scenarios, &kernels)).unwrap_or_else(|e| {
            eprintln!("{}: {e}", baseline.display());
            std::process::exit(1);
        });
        eprintln!("regress: baseline updated at {}", baseline.display());
        return;
    }
    let text = std::fs::read_to_string(&baseline).unwrap_or_else(|e| {
        eprintln!("{}: {e} (generate one with --update)", baseline.display());
        std::process::exit(1);
    });
    match compare(&scenarios, &kernels, &text, tol) {
        Ok(()) => eprintln!("regress: OK (tolerance {:.0}%)", tol * 100.0),
        Err(e) => {
            eprintln!("regress: FAILED\n{e}");
            std::process::exit(1);
        }
    }
}
