//! `lulesh-omp`, `lulesh-task`, `obs` and `simsched`: in-process runs of
//! the workload's inputs through the drivers' public constructors and
//! `run`, read back through their public counters.

use crate::stats::median;
use crate::workloads::TASK_PHASES;
use crate::Ctx;
use lulesh_omp::OmpLulesh;
use lulesh_task::{Features, PartitionPlan, TaskLulesh};
use obs::{SpanKind, Tracer};
use simsched::{
    estimate_omp, estimate_task, CostModel, LuleshConfig, LuleshModel, MachineParams, SimFeatures,
};
use std::sync::Arc;
use std::time::Instant;

/// Share of the remaining budget one in-process run may take.
const RUN_SHARE: f64 = 0.2;
/// Iterations of the traced run that only counts parallel regions.
const COUNT_ITERS: u64 = 5;

/// Iterations of the omp and task runs.
fn run_iterations(ctx: &Ctx) -> u64 {
    ctx.iterations_for(ctx.remaining_s().max(0.0) * RUN_SHARE, 10, 400)
}

pub fn omp_section(ctx: &mut Ctx) -> Result<(), String> {
    let t = ctx.cfg.threads;
    let iters = run_iterations(ctx);
    let d = ctx.timed_domain();
    let mut runner = OmpLulesh::new(t);
    runner.reset_counters();
    let (state, wall_ns) = ctx.spans.time("omp.run", || runner.run(&d, iters));
    // Read at once: the pool's wall clock keeps running after `run`.
    let util = runner.utilization();
    let state = state.map_err(|e| format!("OmpLulesh::run failed: {e}"))?;
    let n = state.cycle as f64;
    ctx.metric("omp.utilization", util, Some(state.cycle as usize));
    // busy = utilization × T × wall, so idle at barriers = T × wall − busy.
    ctx.metric(
        "omp.barrier_idle_us_per_iter",
        t as f64 * wall_ns as f64 * (1.0 - util) / n / 1e3,
        Some(state.cycle as usize),
    );

    // Parallel regions per iteration: every region leaves one span on
    // thread 0's lane of an attached tracer (the iteration span goes to
    // the control lane past the workers).
    let tracer = Tracer::shared(t + 1);
    let mut counted = OmpLulesh::with_tracer(t, Arc::clone(&tracer), 0);
    let d = ctx.timed_domain();
    let state = ctx
        .spans
        .time("omp.run_counted", || counted.run(&d, COUNT_ITERS))
        .0
        .map_err(|e| format!("traced OmpLulesh::run failed: {e}"))?;
    let regions = tracer
        .drain()
        .iter()
        .filter(|s| s.worker == 0 && s.kind == SpanKind::Region)
        .count();
    ctx.metric(
        "ompsim.regions_per_iter",
        regions as f64 / state.cycle as f64,
        None,
    );
    Ok(())
}

pub fn task_section(ctx: &mut Ctx) -> Result<(), String> {
    let t = ctx.cfg.threads;
    let iters = run_iterations(ctx);
    let plan = PartitionPlan::for_size_threads(ctx.cfg.size, t);
    let d = Arc::new(ctx.timed_domain());
    let runner = TaskLulesh::new(t);
    runner.reset_counters();
    let (state, _) = ctx.spans.time("task.run", || runner.run(&d, plan, iters));
    // One snapshot: busy, tasks and wall all come from the same instant.
    let s = runner.runtime_stats();
    let state = state.map_err(|e| format!("TaskLulesh::run failed: {e}"))?;
    let n = state.cycle as f64;
    let samples = Some(state.cycle as usize);

    let capacity_ns = s.threads as f64 * s.wall_ns as f64;
    ctx.metric("task.utilization", s.busy_ns as f64 / capacity_ns, samples);
    ctx.metric(
        "task.idle_plus_overhead_us_per_iter",
        (capacity_ns - s.busy_ns as f64) / n / 1e3,
        samples,
    );
    let g = runner.graph_stats();
    ctx.metric("task.tasks_per_iter", g.tasks as f64, None);
    ctx.metric("task.sync_points_per_iter", g.barriers as f64, None);
    ctx.metric(
        "task.mean_grain_us",
        s.busy_ns as f64 / s.tasks.max(1) as f64 / 1e3,
        Some(s.tasks as usize),
    );
    ctx.metric("taskrt.tasks_per_iter", s.tasks as f64 / n, samples);
    ctx.metric("taskrt.steals_per_iter", s.steals as f64 / n, samples);

    // Busy time per phase label, for the labels the manifest declares.
    let phases = runner.phase_stats();
    for label in TASK_PHASES {
        let busy = phases
            .iter()
            .find(|p| p.label == label)
            .ok_or_else(|| format!("phase_stats() has no label '{label}'"))?
            .busy_ns;
        ctx.metric(
            &format!("task.phase.{label}.busy_us_per_iter"),
            busy as f64 / n / 1e3,
            samples,
        );
    }
    for p in phases.iter().filter(|p| !TASK_PHASES.contains(&p.label)) {
        eprintln!(
            "probe: task label '{}' ({:.1} us busy per iteration) has no row in TASK_PHASES",
            p.label,
            p.busy_ns as f64 / n / 1e3
        );
    }

    // `simsched.drift_task_t2`: the simulator's prediction for this very
    // configuration over what was just measured.
    let model = LuleshModel::new(
        LuleshConfig {
            size: ctx.cfg.size,
            num_reg: ctx.cfg.regions,
            balance: ctx.cfg.balance,
            cost: ctx.cfg.cost,
            seed: ctx.cfg.seed,
        },
        CostModel::default(),
    );
    let sim = estimate_task(
        &model,
        &MachineParams::epyc_7443p(t),
        plan.nodal,
        plan.elements,
        SimFeatures::default(),
    );
    ctx.metric(
        "simsched.drift_task_t2",
        sim.iteration_ns / (s.wall_ns as f64 / n),
        samples,
    );

    Ok(())
}

/// `obs`: what recording a span costs, and what attaching a tracer to the
/// task runtime costs a whole run (paired, alternating which goes first).
pub fn obs_section(ctx: &mut Ctx) -> Result<(), String> {
    const SPANS: usize = 200_000;
    let tracer = Tracer::new(1);
    let (_, ns) = ctx.spans.time("obs.record_interval", || {
        for i in 0..SPANS as u64 {
            tracer.record_interval(0, SpanKind::Task, "probe", i, i + 1);
        }
    });
    let recorded = tracer.drain().len();
    if recorded != SPANS {
        return Err(format!("tracer kept {recorded} of {SPANS} spans"));
    }
    ctx.metric(
        "obs.record_ns_per_span",
        ns as f64 / SPANS as f64,
        Some(SPANS),
    );

    const PAIRS: usize = 3;
    let t = ctx.cfg.threads;
    let share = ctx.remaining_s().max(0.0) * RUN_SHARE / (2 * PAIRS) as f64;
    let iters = ctx.iterations_for(share, 5, 200);
    let plan = PartitionPlan::for_size_threads(ctx.cfg.size, t);
    let run_one = |ctx: &mut Ctx, traced: bool| -> Result<f64, String> {
        let d = Arc::new(ctx.timed_domain());
        let runner = if traced {
            TaskLulesh::with_tracer(t, Features::default(), Tracer::shared(t + 1), 0)
        } else {
            TaskLulesh::new(t)
        };
        let name = if traced {
            "obs.task_run_traced"
        } else {
            "obs.task_run_plain"
        };
        let (state, ns) = ctx.spans.time(name, || runner.run(&d, plan, iters));
        state.map_err(|e| format!("TaskLulesh::run failed: {e}"))?;
        Ok(ns as f64)
    };
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for pair in 0..PAIRS {
        for traced_now in [pair % 2 == 0, pair % 2 != 0] {
            let ns = run_one(ctx, traced_now)?;
            if traced_now { &mut traced } else { &mut plain }.push(ns);
        }
    }
    // Median of per-pair ratios: only the two runs of one pair see the
    // same host speed.
    let ratios: Vec<f64> = traced.iter().zip(&plain).map(|(t, p)| t / p).collect();
    ctx.metric(
        "obs.task_trace_overhead_frac",
        median(&ratios).expect("PAIRS > 0") - 1.0,
        Some(PAIRS),
    );
    Ok(())
}

/// `simsched`: the paper's headline configuration (s45, 24 threads) is
/// deterministic and must repeat exactly; the simulator's own speed is a
/// timing.
pub fn simsched_section(ctx: &mut Ctx) -> Result<(), String> {
    const THREADS: usize = 24;
    let model = LuleshModel::new(LuleshConfig::with_size(45), CostModel::default());
    let machine = MachineParams::epyc_7443p(THREADS);
    let plan = PartitionPlan::for_size_threads(45, THREADS);
    let omp = ctx
        .spans
        .time("simsched.estimate_omp", || estimate_omp(&model, &machine))
        .0;
    let t0 = Instant::now();
    let task = ctx
        .spans
        .time("simsched.estimate_task", || {
            estimate_task(
                &model,
                &machine,
                plan.nodal,
                plan.elements,
                SimFeatures::default(),
            )
        })
        .0;
    let sim_ns = t0.elapsed().as_nanos() as f64;
    ctx.metric(
        "simsched.sim_speedup_task_over_omp_s45_t24",
        omp.seconds / task.seconds,
        None,
    );
    ctx.metric(
        "simsched.sim_productive_ratio_task_s45_t24",
        task.utilization,
        None,
    );
    ctx.metric(
        "simsched.sim_ns_per_task",
        sim_ns / task.tasks_per_iteration.max(1) as f64,
        Some(task.tasks_per_iteration),
    );
    Ok(())
}
