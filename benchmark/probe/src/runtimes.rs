//! `parutil`, `taskrt` and `ompsim`: what the runtimes charge for an
//! empty unit of work, at the workload's thread count. Each number is
//! the best of a few batches; one span per batch.

use crate::stats::{best, median};
use crate::Ctx;
use ompsim::Pool;
use parutil::SenseBarrier;
use std::time::{Duration, Instant};
use taskrt::{when_all, Future, Runtime};

const BATCHES: usize = 5;

/// Best-of-[`BATCHES`] nanoseconds per operation of `batch`, which runs
/// `ops` operations inside one `span`.
fn best_ns_per_op(ctx: &mut Ctx, span: &'static str, ops: usize, mut batch: impl FnMut()) -> f64 {
    let per_op: Vec<f64> = (0..BATCHES)
        .map(|_| ctx.spans.time(span, &mut batch).1 as f64 / ops as f64)
        .collect();
    best(&per_op).expect("BATCHES > 0")
}

/// Two threads meeting at a sense-reversing barrier: the cost `ompsim`
/// pays after every parallel loop.
pub fn parutil_section(ctx: &mut Ctx) -> Result<(), String> {
    const ROUNDS: usize = 20_000;
    let barrier = SenseBarrier::new(2);
    let ns = best_ns_per_op(ctx, "parutil.sense_barrier", ROUNDS, || {
        std::thread::scope(|s| {
            s.spawn(|| {
                for _ in 0..ROUNDS {
                    barrier.wait();
                }
            });
            for _ in 0..ROUNDS {
                barrier.wait();
            }
        });
    });
    ctx.metric("parutil.sense_barrier_ns", ns, Some(BATCHES));
    Ok(())
}

/// Spawn, continuation, join and wake-up costs of the task runtime with
/// empty bodies.
pub fn taskrt_section(ctx: &mut Ctx) -> Result<(), String> {
    const TASKS: usize = 20_000;
    let rt = Runtime::new(ctx.cfg.threads);

    let ns = best_ns_per_op(ctx, "taskrt.spawn", TASKS, || {
        let futures: Vec<Future<()>> = (0..TASKS).map(|_| rt.spawn(|| ())).collect();
        taskrt::wait_all(futures);
    });
    ctx.metric("taskrt.spawn_ns_per_task", ns, Some(BATCHES));

    let ns = best_ns_per_op(ctx, "taskrt.then_chain", TASKS, || {
        let mut f = rt.spawn(|| ());
        for _ in 0..TASKS {
            f = f.then(&rt, |()| ());
        }
        f.get();
    });
    ctx.metric("taskrt.then_ns_per_link", ns, Some(BATCHES));

    let ns = best_ns_per_op(ctx, "taskrt.when_all", TASKS, || {
        let inputs: Vec<Future<()>> = (0..TASKS).map(|_| Future::ready(())).collect();
        when_all(&rt, inputs).get();
    });
    ctx.metric("taskrt.when_all_ns_per_input", ns, Some(BATCHES));

    // Wake latency: let the workers go idle, then time from the spawn
    // call to the first instruction of the task body.
    const WAKES: usize = 200;
    let id = ctx.spans.open("taskrt.wake");
    let latencies: Vec<f64> = (0..WAKES)
        .map(|_| {
            std::thread::sleep(Duration::from_millis(1));
            let t0 = Instant::now();
            let started = rt.spawn(Instant::now).get();
            started.saturating_duration_since(t0).as_nanos() as f64
        })
        .collect();
    ctx.spans.close(id);
    ctx.metric(
        "taskrt.wake_latency_us",
        median(&latencies).expect("WAKES > 0") / 1e3,
        Some(WAKES),
    );
    Ok(())
}

/// One empty `parallel_for`: fork, static split, join barrier.
pub fn ompsim_section(ctx: &mut Ctx) -> Result<(), String> {
    const LOOPS: usize = 20_000;
    let threads = ctx.cfg.threads;
    let mut pool = Pool::new(threads);
    let ns = best_ns_per_op(ctx, "ompsim.parallel_for_empty", LOOPS, || {
        for _ in 0..LOOPS {
            pool.parallel_for(threads, |chunk| {
                std::hint::black_box(chunk);
            });
        }
    });
    ctx.metric("ompsim.parallel_for_empty_ns", ns, Some(BATCHES));
    Ok(())
}
