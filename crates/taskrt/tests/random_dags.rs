//! Property tests executing randomly generated DAGs on the runtime: every
//! task runs exactly once, strictly after all of its dependencies, for any
//! graph shape and worker count.

mod dag_gen;

use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use taskrt::{when_all_unit, Future, Runtime};

/// Execute a DAG given as `deps[i] ⊂ 0..i`; returns the completion stamp of
/// every task (a global monotonically increasing counter).
fn run_dag(rt: &Runtime, deps: &[Vec<usize>]) -> Vec<usize> {
    let n = deps.len();
    let clock = Arc::new(AtomicUsize::new(0));
    let stamps: Arc<Vec<AtomicUsize>> =
        Arc::new((0..n).map(|_| AtomicUsize::new(usize::MAX)).collect());

    // How many dependents consume each task's future.
    let mut consumers = vec![0usize; n];
    for d in deps.iter().flat_map(|v| v.iter()) {
        consumers[*d] += 1;
    }

    // Build bottom-up: forked output futures per task.
    let mut outputs: Vec<Vec<Future<()>>> = Vec::with_capacity(n);
    let mut finals: Vec<Future<()>> = Vec::new();
    for i in 0..n {
        let clock = Arc::clone(&clock);
        let stamps = Arc::clone(&stamps);
        let body = move |_: Vec<()>| {
            let t = clock.fetch_add(1, Ordering::SeqCst);
            let prev = stamps[i].swap(t, Ordering::SeqCst);
            assert_eq!(prev, usize::MAX, "task {i} ran twice");
        };
        let dep_futs: Vec<Future<()>> = deps[i]
            .iter()
            .map(|&d| outputs[d].pop().expect("enough forks"))
            .collect();
        let fut = if dep_futs.is_empty() {
            rt.spawn(move || body(Vec::new()))
        } else {
            taskrt::dataflow(rt, dep_futs, body)
        };
        if consumers[i] == 0 {
            outputs.push(Vec::new());
            finals.push(fut);
        } else {
            outputs.push(fut.fork(consumers[i]));
        }
    }
    when_all_unit(finals).get();
    stamps.iter().map(|s| s.load(Ordering::SeqCst)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_dag_executes_in_dependency_order(
        n in 1usize..60,
        edges in proptest::collection::vec((0usize..60, 0usize..60), 0..120),
        threads in 1usize..5,
    ) {
        let deps = dag_gen::deps_from_edges(n, &edges);
        let rt = Runtime::new(threads);
        let stamps = run_dag(&rt, &deps);
        // Everyone ran exactly once (stamps are a permutation of 0..n)...
        let mut sorted = stamps.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..n).collect::<Vec<_>>());
        // ... and after their dependencies.
        for (i, ds) in deps.iter().enumerate() {
            for &d in ds {
                prop_assert!(
                    stamps[d] < stamps[i],
                    "task {} (stamp {}) ran before its dependency {} (stamp {})",
                    i, stamps[i], d, stamps[d]
                );
            }
        }
    }

    #[test]
    fn wide_fanout_dags(width in 1usize..80, threads in 1usize..5) {
        // Star: one root, `width` children, one sink.
        let mut deps: Vec<Vec<usize>> = vec![Vec::new()];
        for _ in 0..width {
            deps.push(vec![0]);
        }
        deps.push((1..=width).collect());
        let rt = Runtime::new(threads);
        let stamps = run_dag(&rt, &deps);
        prop_assert_eq!(stamps[0], 0, "root first");
        prop_assert_eq!(stamps[width + 1], width + 1, "sink last");
    }
}
