//! # taskrt — an HPX-substitute asynchronous many-task runtime
//!
//! A from-scratch Rust implementation of the HPX primitives the paper's
//! LULESH port uses (cf. paper Figs 1, 5–8):
//!
//! * [`Runtime::spawn`] — `hpx::async()`: create a task, get a [`Future`].
//! * [`Future::then`] — continuations: chain a task onto a future.
//! * [`when_all`] — a future that becomes ready when all inputs are ready
//!   (the paper's non-blocking barrier).
//! * [`wait_all`] — block until all futures are ready (`hpx::wait_all`).
//!
//! Beside them, for a graph that is the same every time step:
//! [`GraphBuilder`] records it once into a dependency-counted
//! [`StepGraph`], and [`Runtime::run_graph`] runs it round after round on
//! the same workers and deques, re-armed from the worker side, with no
//! allocation per round.
//!
//! Scheduling follows HPX's default *priority local* policy minus
//! priorities (the paper uses none): each OS worker thread owns a LIFO
//! work-stealing deque (crossbeam), new tasks spawned from a worker go to
//! its local deque, external spawns go to a global FIFO injector, and idle
//! workers steal FIFO from victims. A worker that finds nothing polls the
//! queues for a bounded number of scans, then yields its core between
//! scans, then parks until a submitter wakes it.
//!
//! **Deliberate simplification** (documented in DESIGN.md): tasks are
//! run-to-completion closures with continuation-passing rather than
//! suspendable user-space fibers. LULESH's task graph never blocks inside a
//! task, so the scheduling behaviour the paper measures is preserved.
//! Blocking [`Future::get`]/[`wait_all`] are for non-worker control threads
//! (they panic on a worker in debug builds).
//!
//! Per-worker busy/idle counters reproduce HPX's idle-rate performance
//! counter, which the paper uses for Figure 11.

#![warn(missing_docs)]

mod future;
mod graph;
mod phases;
mod scheduler;

pub use future::{dataflow, when_all, when_all_unit, Future, Promise};
pub use graph::{GraphBuilder, NodeId, StepGraph};
pub use phases::PhaseStat;
pub use scheduler::{worker_index, Runtime, RuntimeStats};

/// Block until every future in the collection is ready and collect the
/// values (`hpx::wait_all`). Must be called from a non-worker thread.
pub fn wait_all<T: Send + 'static>(futures: Vec<Future<T>>) -> Vec<T> {
    futures.into_iter().map(|f| f.get()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn spawn_and_get() {
        let rt = Runtime::new(2);
        let f = rt.spawn(|| 21 * 2);
        assert_eq!(f.get(), 42);
    }

    #[test]
    fn continuation_chain() {
        let rt = Runtime::new(2);
        let f = rt
            .spawn(|| 1)
            .then(&rt, |x| x + 1)
            .then(&rt, |x| x * 10)
            .then(&rt, |x| x - 5);
        assert_eq!(f.get(), 15);
    }

    #[test]
    fn many_tasks_all_run_exactly_once() {
        let rt = Runtime::new(4);
        let count = Arc::new(AtomicUsize::new(0));
        let futures: Vec<_> = (0..1000)
            .map(|_| {
                let count = Arc::clone(&count);
                rt.spawn(move || {
                    count.fetch_add(1, Ordering::Relaxed);
                })
            })
            .collect();
        wait_all(futures);
        assert_eq!(count.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn when_all_collects_in_order() {
        let rt = Runtime::new(3);
        let futures: Vec<_> = (0..100).map(|i| rt.spawn(move || i * i)).collect();
        let all = when_all(&rt, futures);
        let values = all.get();
        assert_eq!(values.len(), 100);
        for (i, v) in values.into_iter().enumerate() {
            assert_eq!(v, i * i);
        }
    }

    #[test]
    fn when_all_empty_is_immediately_ready() {
        let rt = Runtime::new(1);
        let all = when_all::<usize>(&rt, vec![]);
        assert_eq!(all.get(), Vec::<usize>::new());
    }

    #[test]
    fn continuation_after_when_all() {
        // The paper's pattern: attach work after the non-blocking barrier.
        let rt = Runtime::new(2);
        let futures: Vec<_> = (0..10).map(|i| rt.spawn(move || i)).collect();
        let sum = when_all(&rt, futures).then(&rt, |v| v.into_iter().sum::<i32>());
        assert_eq!(sum.get(), 45);
    }

    #[test]
    fn tasks_spawned_from_tasks() {
        let rt = Runtime::new(2);
        let rt2 = rt.clone();
        let f = rt.spawn(move || {
            let inner: Vec<_> = (0..50).map(|i| rt2.spawn(move || i)).collect();
            // Don't block inside the task: chain instead.
            when_all(&rt2, inner)
        });
        let inner_all = f.get();
        assert_eq!(inner_all.get().len(), 50);
    }

    #[test]
    fn single_thread_runtime_works() {
        let rt = Runtime::new(1);
        let futures: Vec<_> = (0..100)
            .map(|i| rt.spawn(move || i).then(&rt, |x| x + 1))
            .collect();
        let vs = wait_all(futures);
        assert_eq!(vs.iter().sum::<i32>(), (1..=100).sum::<i32>());
    }

    #[test]
    fn counters_accumulate_busy_time() {
        let rt = Runtime::new(2);
        let futures: Vec<_> = (0..8)
            .map(|_| {
                rt.spawn(|| {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                })
            })
            .collect();
        wait_all(futures);
        let stats = rt.stats();
        assert_eq!(stats.tasks, 8);
        assert!(stats.busy_ns >= 8 * 1_500_000, "busy = {}", stats.busy_ns);
        rt.reset_counters();
        assert_eq!(rt.stats().tasks, 0);
    }

    #[test]
    fn diamond_dependency() {
        //    a
        //   / \
        //  b   c
        //   \ /
        //    d
        let rt = Runtime::new(2);
        let mut a = rt.spawn(|| 2).fork(2);
        let b = a.pop().unwrap().then(&rt, |x| x + 1);
        let c = a.pop().unwrap().then(&rt, |x| x * 10);
        let d = when_all(&rt, vec![b, c]).then(&rt, |v| v[0] + v[1]);
        assert_eq!(d.get(), 23);
    }

    #[test]
    fn heavy_fan_out_fan_in() {
        let rt = Runtime::new(4);
        let layer1: Vec<_> = (0..64).map(|i| rt.spawn(move || i as u64)).collect();
        let layer2: Vec<_> = layer1.into_iter().map(|f| f.then(&rt, |x| x * 2)).collect();
        let total = when_all(&rt, layer2).then(&rt, |v| v.into_iter().sum::<u64>());
        assert_eq!(total.get(), 63 * 64);
    }

    #[test]
    fn drop_unconsumed_future_is_fine() {
        let rt = Runtime::new(2);
        let count = Arc::new(AtomicUsize::new(0));
        for _ in 0..10 {
            let count = Arc::clone(&count);
            let _ = rt.spawn(move || {
                count.fetch_add(1, Ordering::SeqCst);
            });
        }
        // Dropping futures must not cancel tasks.
        while count.load(Ordering::SeqCst) < 10 {
            std::thread::yield_now();
        }
    }

    #[test]
    fn runtime_drop_joins_workers() {
        let rt = Runtime::new(3);
        let f = rt.spawn(|| 5);
        assert_eq!(f.get(), 5);
        drop(rt); // must not hang
    }

    #[test]
    fn dataflow_composes_dependencies() {
        let rt = Runtime::new(2);
        let deps: Vec<_> = (1..=4).map(|i| rt.spawn(move || i)).collect();
        let product = dataflow(&rt, deps, |vs| vs.into_iter().product::<i32>());
        assert_eq!(product.get(), 24);
    }

    #[test]
    fn panicking_task_breaks_its_future_without_hanging() {
        let rt = Runtime::new(2);
        let f = rt.spawn(|| -> i32 { panic!("kernel exploded") });
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f.get()));
        let err = result.expect_err("get() must panic, not hang");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(msg.contains("broken promise"), "got: {msg}");
    }

    #[test]
    fn worker_survives_a_panicking_task() {
        let rt = Runtime::new(1);
        let _ = rt.spawn(|| panic!("boom"));
        // The single worker must still process subsequent tasks.
        let f = rt.spawn(|| 7);
        assert_eq!(f.get(), 7);
    }

    #[test]
    fn broken_promise_cascades_through_chains() {
        let rt = Runtime::new(2);
        let f = rt
            .spawn(|| -> i32 { panic!("first link fails") })
            .then(&rt, |x| x + 1)
            .then(&rt, |x| x * 2);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f.get()));
        assert!(result.is_err(), "the break must propagate down the chain");
    }

    #[test]
    fn stats_utilization_in_unit_range() {
        let rt = Runtime::new(2);
        let fs: Vec<_> = (0..100).map(|i| rt.spawn(move || i * 3)).collect();
        wait_all(fs);
        let u = rt.utilization_since_reset();
        // Raw ratio: clock-read skew allows a hair above 1.0, never more.
        assert!((0.0..=1.05).contains(&u), "utilization {u}");
    }

    #[test]
    fn utilization_is_raw_not_clamped() {
        // Regression: the ratio used to be silently clamped with
        // `.min(1.0)`, hiding busy-time overcounting. The snapshot math
        // must report overcounting as a ratio > 1.
        let overcounted = RuntimeStats {
            threads: 1,
            busy_ns: 2_000,
            tasks: 2,
            steals: 0,
            wall_ns: 1_000,
        };
        assert_eq!(overcounted.utilization(), 2.0);
        let half = RuntimeStats {
            threads: 2,
            busy_ns: 1_000,
            tasks: 1,
            steals: 0,
            wall_ns: 1_000,
        };
        assert_eq!(half.utilization(), 0.5);
        let empty = RuntimeStats {
            threads: 4,
            busy_ns: 0,
            tasks: 0,
            steals: 0,
            wall_ns: 0,
        };
        assert_eq!(empty.utilization(), 0.0);
    }

    #[test]
    fn phase_stats_attribute_busy_time_per_label() {
        let rt = Runtime::new(2);
        let mut fs = Vec::new();
        for i in 0..10 {
            fs.push(rt.spawn_labeled("alpha", move || {
                std::hint::black_box((0..2_000u64).sum::<u64>());
                i
            }));
        }
        for i in 0..4 {
            fs.push(rt.spawn_labeled("beta", move || i));
        }
        wait_all(fs);
        let phases = rt.phase_stats();
        let get = |l: &str| phases.iter().find(|p| p.label == l).copied();
        let alpha = get("alpha").expect("alpha phase recorded");
        let beta = get("beta").expect("beta phase recorded");
        assert_eq!(alpha.tasks, 10);
        assert_eq!(beta.tasks, 4);
        // Per-phase busy totals are carved from the same measurement as
        // the global busy clock, so they must sum to it exactly.
        let total: u64 = phases.iter().map(|p| p.busy_ns).sum();
        assert_eq!(total, rt.stats().busy_ns);
        rt.reset_counters();
        assert!(rt.phase_stats().iter().all(|p| p.tasks == 0));
    }

    #[test]
    fn phase_counters_agree_with_tracer_span_aggregates() {
        // Traced and untraced paths must produce identical per-phase
        // numbers: the counters are fed from the same measurement as the
        // spans, so the task rows of the spans' metrics must match exactly.
        let tracer = obs::Tracer::shared(3);
        let rt = Runtime::with_tracer(2, Arc::clone(&tracer), 0);
        let mut fs = Vec::new();
        for i in 0..12 {
            fs.push(rt.spawn_labeled("gamma", move || {
                std::hint::black_box((0..3_000u64).sum::<u64>()) + i
            }));
        }
        for i in 0..5 {
            fs.push(rt.spawn_labeled("delta", move || i));
        }
        wait_all(fs);
        let from_counters = rt.phase_stats();
        let metrics = obs::MetricsSnapshot::from_spans(&tracer.drain());
        let from_tracer: Vec<_> = metrics
            .phases
            .iter()
            .filter(|p| p.kind == obs::SpanKind::Task)
            .collect();
        assert_eq!(from_counters.len(), from_tracer.len());
        for (c, p) in from_counters.iter().zip(&from_tracer) {
            assert_eq!(c.label, p.label);
            assert_eq!(
                c.busy_ns, p.total_ns,
                "phase {}: counter vs span busy",
                p.label
            );
            assert_eq!(c.tasks, p.count, "phase {}: counter vs span count", p.label);
        }
    }

    #[test]
    fn spans_share_the_tracer_clock() {
        // Regression: span ends used to be `start + dur` with `start` from
        // the tracer clock but `dur` from a separate `Instant`. Both
        // endpoints must come from the tracer's clock, so every span falls
        // inside a bracketing interval read from that same clock.
        let tracer = obs::Tracer::shared(3);
        let rt = Runtime::with_tracer(2, Arc::clone(&tracer), 0);
        let before = tracer.now_ns();
        let fs: Vec<_> = (0..32)
            .map(|i| {
                rt.spawn_labeled("clocked", move || {
                    std::hint::black_box((0..5_000u64).sum::<u64>()) + i
                })
            })
            .collect();
        wait_all(fs);
        let after = tracer.now_ns();
        let spans = tracer.drain();
        let tasks: Vec<_> = spans
            .iter()
            .filter(|s| s.kind == obs::SpanKind::Task)
            .collect();
        assert_eq!(tasks.len(), 32);
        for s in &tasks {
            assert!(s.end_ns >= s.start_ns, "span runs backwards");
            assert!(
                s.start_ns >= before && s.end_ns <= after,
                "span [{}, {}] outside tracer-clock bracket [{before}, {after}]",
                s.start_ns,
                s.end_ns
            );
        }
    }

    #[test]
    fn busy_time_counts_only_kernel_execution() {
        // The busy clock and the trace spans consume the same measurement:
        // Σ busy_ns must equal Σ task-span durations *exactly*. A runtime
        // that also billed promise/continuation bookkeeping to the busy
        // clock could not satisfy this.
        let tracer = obs::Tracer::shared(3);
        let rt = Runtime::with_tracer(2, Arc::clone(&tracer), 0);
        let fs: Vec<_> = (0..64)
            .map(|i| {
                rt.spawn_labeled("kernel", move || {
                    let mut acc = i as u64;
                    for k in 0..10_000u64 {
                        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
                    }
                    acc
                })
            })
            .collect();
        wait_all(fs);
        let stats = rt.stats();
        let spans = tracer.drain();
        let task_span_ns: u64 = spans
            .iter()
            .filter(|s| s.kind == obs::SpanKind::Task)
            .map(|s| s.dur_ns())
            .sum();
        assert_eq!(stats.tasks, 64);
        assert_eq!(
            stats.busy_ns, task_span_ns,
            "busy clock and task spans must share one measurement"
        );
    }

    #[test]
    fn busy_never_exceeds_threads_times_wall_under_contention() {
        let threads = 4;
        let rt = Runtime::new(threads);
        rt.reset_counters();
        // Oversubscribe with short tasks that spawn follow-on work so
        // workers are busy with both kernels and bookkeeping.
        let fs: Vec<_> = (0..400)
            .map(|i| {
                let rt2 = rt.clone();
                rt.spawn(move || {
                    let inner = rt2.spawn(move || i + 1);
                    let _ = inner.is_ready();
                    std::hint::black_box((0..500u64).sum::<u64>())
                })
            })
            .collect();
        wait_all(fs);
        let s = rt.stats();
        // 5% slack for clock-read skew between workers and the wall epoch.
        let cap = (s.wall_ns as f64) * (s.threads as f64) * 1.05;
        assert!(
            (s.busy_ns as f64) <= cap,
            "Σ busy {} must be ≤ threads × wall {} (+5%)",
            s.busy_ns,
            s.wall_ns * s.threads as u64
        );
    }

    /// `rounds` rounds of a fan-out/fan-in graph: root → `width` "leaf"
    /// tasks → sync "join" → "tail" task (the sink). Returns the thread
    /// each epilogue call ran on.
    fn run_fan_graph(rt: &Runtime, width: usize, rounds: usize) -> Vec<std::thread::ThreadId> {
        let hits = Arc::new(AtomicUsize::new(0));
        let mut b = GraphBuilder::new();
        let root = b.task("root", obs::SpanKind::Task, &[], || ());
        let leaves: Vec<NodeId> = (0..width)
            .map(|_| {
                let hits = Arc::clone(&hits);
                b.task("leaf", obs::SpanKind::Task, &[root], move || {
                    hits.fetch_add(1, Ordering::Relaxed);
                })
            })
            .collect();
        let join = b.sync("join", &leaves);
        b.task("tail", obs::SpanKind::Halo, &[join], || ());
        let mut graph = b.build(rt);
        assert_eq!((graph.tasks(), graph.syncs()), (width + 2, 1));

        let mut epilogue_threads = Vec::new();
        rt.run_graph(&mut graph, || {
            epilogue_threads.push(std::thread::current().id());
            if epilogue_threads.len() < rounds {
                std::ops::ControlFlow::Continue(())
            } else {
                std::ops::ControlFlow::Break(())
            }
        });
        assert_eq!(hits.load(Ordering::Relaxed), width * rounds);
        epilogue_threads
    }

    #[test]
    fn graph_rounds_are_driven_from_the_workers() {
        // N rounds ⇒ N epilogue calls, every one on a worker thread: the
        // caller blocks once, in `run_graph`, and never drives a round.
        let rt = Runtime::new(2);
        let epilogues = run_fan_graph(&rt, 7, 25);
        assert_eq!(epilogues.len(), 25);
        assert!(!epilogues.contains(&std::thread::current().id()));
        // Bodies only: the sync node is not a task.
        assert_eq!(rt.stats().tasks, 25 * 9);
        let phases = rt.phase_stats();
        let tasks_of = |l: &str| phases.iter().find(|p| p.label == l).map(|p| p.tasks);
        assert_eq!(tasks_of("leaf"), Some(25 * 7));
        assert_eq!(tasks_of("join"), None);
        // The futures API still works on the same pool afterwards.
        assert_eq!(rt.spawn(|| 3).then(&rt, |x| x + 1).get(), 4);
    }

    #[test]
    fn traced_graph_records_one_barrier_span_per_sync_per_round() {
        let tracer = obs::Tracer::shared(3);
        let rt = Runtime::with_tracer(2, Arc::clone(&tracer), 0);
        run_fan_graph(&rt, 5, 4);
        let spans = tracer.drain();
        let count = |kind, label| {
            spans
                .iter()
                .filter(|s| s.kind == kind && s.label == label)
                .count()
        };
        assert_eq!(count(obs::SpanKind::Barrier, "join"), 4);
        assert_eq!(count(obs::SpanKind::Task, "leaf"), 20);
        assert_eq!(count(obs::SpanKind::Halo, "tail"), 4);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        // Single clock: busy time is exactly the body spans' durations.
        let body_ns: u64 = spans
            .iter()
            .filter(|s| s.kind != obs::SpanKind::Barrier)
            .map(|s| s.dur_ns())
            .sum();
        assert_eq!(rt.stats().busy_ns, body_ns);
    }

    #[test]
    fn phase_labels_are_keyed_by_content_not_address() {
        // Two labels that share a start address must not share a slot...
        static BUF: &str = "node-gather";
        let (short, long): (&'static str, &'static str) = (&BUF[..4], &BUF[..11]);
        assert_eq!(short.as_ptr(), long.as_ptr());
        // ... and one label at two addresses must not take two.
        let twin_a: &'static str = Box::leak(String::from("twin").into_boxed_str());
        let twin_b: &'static str = Box::leak(String::from("twin").into_boxed_str());
        assert_ne!(twin_a.as_ptr(), twin_b.as_ptr());

        let rt = Runtime::new(2);
        let mut fs = Vec::new();
        for (label, n) in [(short, 3), (long, 5), (twin_a, 2), (twin_b, 4)] {
            fs.extend((0..n).map(|_| rt.spawn_labeled(label, || ())));
        }
        wait_all(fs);
        let seen: Vec<(&str, u64)> = rt
            .phase_stats()
            .iter()
            .map(|p| (p.label, p.tasks))
            .collect();
        assert_eq!(seen, [("node", 3), ("node-gather", 5), ("twin", 6)]);
    }

    #[test]
    fn worker_index_is_set_on_workers_only() {
        assert_eq!(worker_index(), None);
        let rt = Runtime::new(2);
        let idx = rt.spawn(worker_index).get();
        assert!(idx.is_some_and(|i| i < 2));
    }
}
